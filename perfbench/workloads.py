"""The benchmark's three workloads, built through the public scenario API.

Every workload is a member of the library's population family
(:func:`repro.core.scenario_library.population_spec`); the benchmark seed is
the only input, and the program under test receives only the generated
:class:`~repro.core.spec.ScenarioSpec`.

* ``market`` — the population scenario as the library defines it, on one
  in-memory validator with in-process monitoring: onboarding, then every
  consumer's access (market purchase, pod grant, TEE sealing) and use, then
  one monitoring round per resource.  The consumer-facing path: crypto, VM,
  state root and serialization do the work; store, network and sharding
  are idle, so changes to those layers should not move it.
* ``rounds-sharded`` — the same population, monitored periodically: after
  the library's rounds every resource is monitored ``EXTRA_ROUNDS`` more
  times, each a day later, on two forked round workers.  Monitoring is
  about half the wall time, and it is the only workload that forks workers
  (and so the only one that pays the parent's fulfilment replay).
  Stale-oracle consumers are left out of its mix: their pull-in component
  fills its replay cache inside the forked worker, which throws it away,
  so every repeat round would miss their replay violation.  The benchmark's
  workloads must run without failed operations; their share goes to honest
  consumers.
* ``durable-replicas`` — the same family at a smaller population on three
  validators that persist every block (finality snapshots every
  ``SNAPSHOT_INTERVAL`` blocks, reorg window ``MAX_REORG_DEPTH``).
  Validator 1 is hard-crashed after the use phase and restarted from disk
  after the rounds.  The only workload that writes to disk and replicates,
  and the only one with a real cold start and resync.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.common.clock import DAY
from repro.core.scenario_library import POPULATION_BEHAVIOR_MIX, population_spec
from repro.core.spec import (
    Behavior,
    ScenarioSpec,
    advance,
    crash_validator,
    monitor,
    restart_validator,
)

MARKET_CONSUMERS = 100
SHARDED_CONSUMERS = 100
EXTRA_ROUNDS = 3
ROUND_WORKERS = 2
DURABLE_CONSUMERS = 60
DURABLE_VALIDATORS = 3
SNAPSHOT_INTERVAL = 4
MAX_REORG_DEPTH = 4


def market(seed: int) -> ScenarioSpec:
    return population_spec(num_consumers=MARKET_CONSUMERS, seed=seed,
                           name="bench-market")


def rounds_sharded(seed: int) -> ScenarioSpec:
    mix = dict(POPULATION_BEHAVIOR_MIX)
    mix[Behavior.HONEST] += mix.pop(Behavior.STALE_ORACLE)
    spec = population_spec(num_consumers=SHARDED_CONSUMERS, seed=seed,
                           behavior_mix=mix, name="bench-rounds-sharded",
                           monitor_workers=ROUND_WORKERS)
    return monitored_periodically(spec, EXTRA_ROUNDS)


def monitored_periodically(spec: ScenarioSpec, rounds: int) -> ScenarioSpec:
    """Append *rounds* more rounds per resource, each a day after the last."""
    extra = []
    for _ in range(rounds):
        extra.append(advance(DAY))
        extra.extend(monitor(resource.key) for resource in spec.resources)
    return dataclasses.replace(spec, timeline=spec.timeline + tuple(extra)).validate()


def durable_replicas(seed: int) -> ScenarioSpec:
    spec = population_spec(num_consumers=DURABLE_CONSUMERS, seed=seed,
                           name="bench-durable-replicas")
    timeline = list(spec.timeline)
    last_use = max(
        index for index, step in enumerate(timeline) if step.kind in ("use", "churn")
    )
    timeline.insert(last_use + 1, crash_validator(1))
    timeline.append(restart_validator(1))
    return dataclasses.replace(
        spec,
        timeline=tuple(timeline),
        validators=DURABLE_VALIDATORS,
        durable=True,
        snapshot_interval=SNAPSHOT_INTERVAL,
        max_reorg_depth=MAX_REORG_DEPTH,
    ).validate()


WORKLOADS: Dict[str, Callable[[int], ScenarioSpec]] = {
    "market": market,
    "rounds-sharded": rounds_sharded,
    "durable-replicas": durable_replicas,
}

