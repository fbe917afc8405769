"""Population-scale scenario benchmark: 100 → 10,000 consumers, mixed profiles.

The paper's headline claim is that decentralized usage-control monitoring
stays affordable as the population of consumers and copy holders grows.
This sweep runs the :func:`~repro.core.scenario_library.population_spec`
family — built via ``spec_from_workload`` from a single seed, with the PR 3
behavior-profile mix (honest majority plus violating, non-responsive,
stale/tampering-oracle, late-paying, and churning minorities) — and
measures, per population size:

* wall-clock per participant for the whole scenario (must stay flat);
* wall-clock of the monitoring phase (every resource's full round);
* wall-clock spent recomputing state roots (``root_hash_time`` — the
  binary incremental scheme must keep this a small, flat slice);
* gas per holder and blocks per round (both must stay flat — PR 2's
  batched-round guarantee at population scale);
* setup-phase blocks (pinned): registration/funding/onboarding is
  cohort-batched (``population_spec``'s ``setup_cohort``), so setup seals
  O(population / cohort) blocks instead of ~4 auto-mined blocks per
  consumer;
* the expected-vs-observed violation ledger must close exactly.

The nightly split pushes the sweep to 5,000 and 10,000 consumers with
sharded monitoring rounds (``monitor_workers``); the fast split guards the
100→300 ratio and smoke-tests a 500-consumer round on two workers.

Rows are emitted to ``BENCH_population.json`` at the repo root in the
shared benchmark schema; CI uploads the file as an artifact and
``scripts/bench_trend.py`` flags pinned-ratio regressions.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.blockchain.crypto import clear_signature_caches
from repro.core.runner import ScenarioRunner
from repro.core.scenario_library import POPULATION_SETUP_COHORT, population_spec

from bench_helpers import bench_row, emit_bench_json

MAX_BLOCKS_PER_ROUND = 5
SEED = 2026
# Setup-phase block budget: 3 contract deployments + per-owner blocks
# (funding, pod registration, 2 resource-publication transactions) + one
# block per registration cohort + one per onboarding cohort.  Any regression
# back toward per-consumer auto-mined blocks trips this pin immediately.
NUM_OWNERS = 2
SETUP_OVERHEAD_BLOCKS = 3 + 4 * NUM_OWNERS


def _setup_block_budget(consumers: int) -> int:
    return SETUP_OVERHEAD_BLOCKS + 2 * math.ceil(consumers / POPULATION_SETUP_COHORT)


def _measure_population(consumers: int, workers: int = 1) -> dict:
    """Run one population scenario and distill the scaling row."""
    # Every row pays its own crypto warm-up.  Consumer key names are
    # deterministic and shared across population sizes, so without a reset
    # an earlier (smaller) run leaves its pubkey tables and verdicts warm
    # for the next row's low-numbered consumers — deflating small-population
    # baselines and skewing the pinned ratios by whatever happened to run
    # earlier in the process.
    clear_signature_caches()
    spec = population_spec(num_consumers=consumers, seed=SEED,
                           monitor_workers=workers)
    started = time.perf_counter()
    result = ScenarioRunner(spec).run()
    wall = time.perf_counter() - started

    assert result.ledger.matches, {
        "missing": [v.to_dict() for v in result.ledger.missing],
        "unexpected": [v.to_dict() for v in result.ledger.unexpected],
    }
    assert result.mispredictions == []
    # A sharded sweep that silently ran a round in-process measures the
    # wrong path: every round must have run on its workers.
    assert result.facts["monitor_fallbacks"] == [], result.facts["monitor_fallbacks"]

    monitor_steps = [s for s in result.steps if s.phase == "monitor"]
    assert monitor_steps
    holders = sum(s.details["holders"] for s in monitor_steps)
    monitor_gas = sum(s.gas_used for s in monitor_steps)
    setup_blocks = sum(s.blocks for s in result.steps if s.phase == "setup")
    assert setup_blocks <= _setup_block_budget(consumers), {
        "setup_blocks": setup_blocks,
        "budget": _setup_block_budget(consumers),
    }
    root_hash = result.architecture.node.chain.state.root_hash_seconds
    return {
        "consumers": consumers,
        "wall_s": round(wall, 2),
        "ms_per_participant": round(wall / consumers * 1e3, 2),
        "monitor_phase_s": round(sum(s.wall_clock_seconds for s in monitor_steps), 2),
        "root_hash_s": round(root_hash, 3),
        "root_hash_ms_per_participant": round(root_hash / consumers * 1e3, 3),
        "gas_per_holder": monitor_gas // max(1, holders),
        "blocks_per_round": max(s.blocks for s in monitor_steps),
        "setup_blocks": setup_blocks,
        "violations": len(result.ledger.observed),
    }


def _sweep(label: str, sizes, report, ratio_bound: float, workers: int = 1):
    rows = [_measure_population(consumers, workers=workers) for consumers in sizes]
    ratio = round(rows[-1]["ms_per_participant"] / rows[0]["ms_per_participant"], 2)
    root_ratio = round(
        rows[-1]["root_hash_ms_per_participant"]
        / max(rows[0]["root_hash_ms_per_participant"], 1e-6), 2)
    for row in rows:
        report(f"population {row['consumers']} consumers", **row)
    report(f"population {label}", per_participant_ratio=ratio,
           root_hash_ratio=root_ratio, workers=workers)
    populations = [row["consumers"] for row in rows]
    emit_bench_json(
        "population",
        [
            bench_row(f"ms_per_participant[{label}]", populations,
                      [row["ms_per_participant"] for row in rows], pinned_ratio=ratio),
            bench_row(f"monitor_phase_s[{label}]", populations,
                      [row["monitor_phase_s"] for row in rows]),
            bench_row(f"root_hash_time[{label}]", populations,
                      [row["root_hash_s"] for row in rows], pinned_ratio=root_ratio),
            bench_row(f"gas_per_holder[{label}]", populations,
                      [row["gas_per_holder"] for row in rows]),
            bench_row(f"blocks_per_round[{label}]", populations,
                      [row["blocks_per_round"] for row in rows]),
            bench_row(f"setup_blocks[{label}]", populations,
                      [row["setup_blocks"] for row in rows]),
            bench_row(f"violations_detected[{label}]", populations,
                      [row["violations"] for row in rows]),
        ],
    )
    for row in rows:
        assert row["blocks_per_round"] <= MAX_BLOCKS_PER_ROUND
    assert ratio <= ratio_bound, rows
    return rows, ratio


def test_population_cost_flat_from_100_to_300_consumers(report):
    """Fast guard (CI split): 3x the population, flat per-participant cost."""
    _sweep("100->300", (100, 300), report, ratio_bound=1.5)


def test_population_smoke_500_consumers_two_workers(report):
    """Fast guard (CI split): a 500-consumer round on two forked workers.

    The sharded path must hold the batched-round invariants — constant
    blocks per round and an exactly-closed violation ledger — outside the
    in-process fallback, on every CI run (the nightly sweep is the only
    other place forked workers execute at scale).
    """
    row = _measure_population(500, workers=2)
    report("population 500 consumers (2 workers)", **row)
    emit_bench_json(
        "population",
        [bench_row("blocks_per_round[500@2workers]", [500],
                   [row["blocks_per_round"]])],
    )
    assert row["blocks_per_round"] <= MAX_BLOCKS_PER_ROUND


@pytest.mark.slow
def test_population_cost_flat_from_500_to_2000_consumers(report):
    """Acceptance sweep: 500 -> 2,000 consumers, mixed behavior profiles.

    Per-participant wall-clock must stay flat (ratio <= 1.3) and the
    2,000-consumer scenario's complete monitoring phase — a full round over
    every resource, ~1,000 holders each — must finish in under 60 seconds.
    """
    rows, _ = _sweep("500->2000", (500, 1000, 2000), report, ratio_bound=1.3)
    assert rows[-1]["monitor_phase_s"] < 60.0, rows[-1]


@pytest.mark.slow
def test_population_cost_flat_from_1000_to_10k_consumers(report):
    """Nightly acceptance sweep: 1,000 -> 10,000 consumers, sharded rounds.

    The same worker count serves every size, so the per-participant ratio
    compares like with like.  At 10,000 consumers a monitoring round must
    still seal a constant number of blocks, and per-participant wall-clock
    (and the root-hashing slice of it) must stay flat within 1.3x.
    """
    rows, _ = _sweep("1000->10k", (1_000, 5_000, 10_000), report,
                     ratio_bound=1.3, workers=4)
    assert rows[-1]["blocks_per_round"] <= MAX_BLOCKS_PER_ROUND
