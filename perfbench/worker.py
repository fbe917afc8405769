"""Run one repeat of one workload in this (fresh) process and print its record.

    python3 perfbench/worker.py --workload market --seed 7 --trace 0

The last line of standard output is one JSON object: the repeat's raw
timings, counts, correctness checks and, with ``--trace 1``, its per-layer
metrics.  ``run.py`` starts one worker per repeat, so warm caches and
module state never leak from one repeat into the next.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import uuid
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

_import_started = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.blockchain.crypto import clear_signature_caches  # noqa: E402
from repro.core.runner import ScenarioRunner  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _import_started


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its (forked) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _failures(spec, result) -> dict:
    """Ledger and prediction failures, with each kind broken down by behaviour."""
    by_device = {p.device: p.behavior.value for p in spec.consumers()}
    by_name = {p.name: p.behavior.value for p in spec.consumers()}
    ledger = result.ledger
    return {
        "count": len(ledger.missing) + len(ledger.unexpected) + len(result.mispredictions),
        "missedByBehavior": dict(Counter(by_device[r.device_id] for r in ledger.missing)),
        "unexpectedByBehavior": dict(Counter(by_device[r.device_id] for r in ledger.unexpected)),
        "mispredictedByBehavior": dict(
            Counter(by_name[entry["participant"]] for entry in result.mispredictions)
        ),
    }


@contextlib.contextmanager
def seeded_uuids(seed: int):
    """Draw ``uuid.uuid4`` from a generator seeded by the benchmark seed.

    The library names policies (and their rules) with ``uuid.uuid4``, and
    the names end up in signed transactions, so without this every repeat
    of a seed would seal a different chain.  Seeded, a run is a pure
    function of its seed: repeats, and a traced against an untraced run,
    must end on the same head hash and gas.
    """
    rng = random.Random(f"perfbench-uuid-{seed}")
    original = uuid.uuid4
    uuid.uuid4 = lambda: uuid.UUID(int=rng.getrandbits(128), version=4)
    try:
        yield
    finally:
        uuid.uuid4 = original


def run_once(workload: str, seed: int, trace: bool) -> dict:
    clear_signature_caches()
    tracer = Tracer(layers.PROBES + (layers.LAYERS if trace else []))
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Durable deployments put their chain stores under tempfile's root;
    # keep them inside the checkout, and remove them below.
    previous_tempdir, tempfile.tempdir = tempfile.tempdir, str(scratch)
    try:
        with seeded_uuids(seed), tracer:
            spec = WORKLOADS[workload](seed)
            before = tracer.counters()
            started = time.perf_counter()
            result = ScenarioRunner(spec).run()
            scenario_s = time.perf_counter() - started
            after = tracer.counters()
            record = _measure(spec, result, tracer, scenario_s)
            record["checks"], verify_s = _checks(spec, result)
            record["restart"] = _restart(spec, result, tracer, verify_s)
            if trace:
                counts = {
                    name: (after[name][0] - before[name][0], after[name][1] - before[name][1])
                    for name in after
                }
                record["layers"] = layers.layer_metrics(
                    tracer, counts, spec.monitor_workers,
                    record["restart"] if spec.durable else {},
                    record["chainBlocks"], record["chainTransactions"],
                )
                _write_spans(workload, seed, tracer)
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(scratch, ignore_errors=True)
    record["checks"]["noFallbackRounds"] = record["fallbackRounds"] == 0
    record["checks"]["scratchRemoved"] = not scratch.exists()
    record["peakRssMb"] = _peak_rss_mb()
    return record


def _measure(spec, result, tracer: Tracer, scenario_s: float) -> dict:
    steps = result.steps
    access = [s for s in steps if s.phase == "access"]
    monitor = [s for s in steps if s.phase == "monitor"]
    uses = [s for s in steps if s.phase == "use"]
    construction = sum(tracer.duration(s) for s in tracer.spans_named("architecture.init"))
    chain = result.architecture.node.chain
    holders = sum(s.details["holders"] for s in monitor)
    return {
        "setupS": IMPORT_S + construction + sum(
            s.wall_clock_seconds for s in steps if s.phase == "setup"
        ),
        "scenarioS": scenario_s,
        "accessS": [s.wall_clock_seconds for s in access],
        "roundS": [s.wall_clock_seconds for s in monitor],
        "networkSeconds": sum(s.network_seconds for s in steps),
        "gasAccess": sum(s.gas_used for s in access),
        "accesses": len(access),
        "gasMonitor": sum(s.gas_used for s in monitor),
        "holders": holders,
        # Accesses, uses, and every evidenced holder of every round.
        "attempted": len(access) + len(uses) + holders,
        "failures": _failures(spec, result),
        "fallbackRounds": layers.fallback_rounds(tracer, spec.monitor_workers),
        "head": chain.head.hash,
        "totalGas": result.architecture.total_gas_used(),
        "chainBlocks": chain.height,
        "chainTransactions": chain.transaction_count(),
        "sizing": {
            "consumers": len(spec.consumers()),
            "resources": len(spec.resources),
            "roundsPerResource": len(monitor) // len(spec.resources),
            "monitorWorkers": spec.monitor_workers,
            "validators": spec.validators,
            "durable": spec.durable,
            "snapshotInterval": spec.snapshot_interval,
            "maxReorgDepth": spec.max_reorg_depth,
        },
    }


def _checks(spec, result):
    """Invariants checked after the timed run; returns them and the wall time
    of the primary's ``verify_chain(replay=True)``.  Closes and deletes
    durable stores."""
    checks = {"balanceConservation": bool(result.balance_conservation()["holds"])}
    started = time.perf_counter()
    checks["replayPrimary"] = result.architecture.node.chain.verify_chain(replay=True)
    verify_s = time.perf_counter() - started
    network = result.architecture.validator_network
    if network is not None:
        checks["honestHeadsConverged"] = network.honest_heads_converged()
    if spec.durable:
        for step in spec.timeline:
            if step.kind == "restart_validator":
                replica = network.validators[step.validator].chain
                checks[f"replayValidator{step.validator}"] = replica.verify_chain(replay=True)
        network.close()
        persist_dir = result.facts["persist_dir"]
        shutil.rmtree(persist_dir)
        checks["chainStoreDeleted"] = not os.path.exists(persist_dir)
    return checks, verify_s


def _restart(spec, result, tracer: Tracer, verify_s: float) -> dict:
    """Cold start and convergence of a restarted replica.

    Durable runs time the restarted replica's ``open_from_disk`` and its
    whole ``restart_validator``.  Without a store a replica can only rebuild
    by replaying from genesis, and is at the head once the replayed chain
    verifies: the primary's ``replay`` and ``verify_chain(replay=True)``.
    """
    if not spec.durable:
        return {
            "cold_start_s": tracer.duration(tracer.spans_named("chain.replay")[-1]),
            "converge_s": verify_s,
        }
    return {
        "cold_start_s": sum(map(tracer.duration, tracer.spans_named("node.open_from_disk"))),
        "converge_s": sum(
            map(tracer.duration, tracer.spans_named("network.restart_validator"))
        ),
        "resync_blocks": sum(
            s.details["resyncedBlocks"] for s in result.steps if s.phase == "restart_validator"
        ),
    }


def _write_spans(workload: str, seed: int, tracer: Tracer) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump(tracer.to_dict(), handle, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
