"""The repository benchmark: three workloads of the usage-control market.

    python3 perfbench/run.py --workload market --seed 1 --seconds 45 --trace 0

Each run builds its workload from ``--seed`` (``workloads.py``) and repeats
it, each repeat in a fresh ``worker.py`` process, for about ``--seconds``.
Load is one closed loop: the scenario runner issues each step only after
the previous one is mined.  Block delivery between replicas is in-process
and instant, so every wall time is processor time; the simulated network
seconds of the scenario are recorded in the provenance line, never mixed
into a wall metric.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (``BENCHMARK.json``):

* ``setup_s`` — median per repeat of library import plus architecture
  construction (contract deployment) through the end of onboarding;
* ``access_ms.mean`` / ``access_ms.p95`` — wall time per ``access`` step,
  over every access of every repeat;
* ``round_s.mean`` — wall time per ``monitor`` step, over every round;
* ``scenario_s`` — mean wall time of one whole scenario run;
* ``cold_start_s`` / ``converge_s`` — on ``durable-replicas`` the restarted
  replica's ``BlockchainNode.open_from_disk`` and its whole
  ``restart_validator`` (cold start plus resync to the peers' head).  The
  in-memory workloads have no store, so a replica can only rebuild by
  replaying from genesis: there they are ``Blockchain.replay`` and the
  whole ``verify_chain(replay=True)`` of the primary.  Means over repeats;
* ``gas_per_access`` / ``gas_per_holder`` — exact gas counts;
* ``peak_rss_mb`` — median per repeat of the peak memory of the worker
  and its forked round workers.

Per-step times are means, not medians: the two-vCPU virtual machine this
benchmark was tuned on switches between a fast and a slow state (about
1.5x apart, for seconds at a time), and a median over a mixture of the two
jumps between them from run to run, where a mean moves with the share of
slow time only.

With ``--trace 1`` every repeat is a pair: one untraced and one traced
worker on the same seed.  The last line holds the per-layer metrics of
``layers.PER_LAYER`` (medians over traced repeats) and ``trace.overhead``
(traced over untraced scenario wall).  The pair must end on the same head
hash and total gas.

A run is correct when every repeat keeps the invariants (supply
conservation, replay verification of the primary and of a restarted
replica, converged honest heads, no silent in-process fallback of a
sharded round, no chain store left behind), every repeat of the seed
ends on the same head hash and gas, and no operation failed.  Failed
operations — ledger misses, unexpected violations, mispredicted uses — are
counted against attempted ones (accesses, uses, evidenced holders).

The line before the result is the provenance record (seed, sizes, repeat
count, CPU count, Python version, commit, per-repeat checks and failures);
it is also written, with every repeat's raw record, to
``perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json``, and a
traced worker writes its spans to ``perfbench/out/spans-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("market", "rounds-sharded", "durable-replicas")
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "access_ms.mean": "ms",
    "access_ms.p95": "ms",
    "round_s.mean": "s",
    "scenario_s": "s",
    "cold_start_s": "s",
    "converge_s": "s",
    "gas_per_access": "gas",
    "gas_per_holder": "gas",
    "peak_rss_mb": "MB",
}


def _worker(workload: str, seed: int, trace: bool) -> dict:
    completed = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def _repeat(workload: str, seed: int, seconds: float, trace: bool):
    """Run repeats (pairs when tracing) until the next would overrun *seconds*."""
    started = time.perf_counter()
    repeats, durations = [], []
    while True:
        began = time.perf_counter()
        if trace:
            # Alternate which side runs first, so a drift in host speed does
            # not bias the overhead ratio.
            if len(repeats) % 2:
                traced = _worker(workload, seed, True)
                repeats.append((_worker(workload, seed, False), traced))
            else:
                untraced = _worker(workload, seed, False)
                repeats.append((untraced, _worker(workload, seed, True)))
        else:
            repeats.append((_worker(workload, seed, False),))
        durations.append(time.perf_counter() - began)
        # Stop before a repeat as slow as the slowest so far would overrun.
        if time.perf_counter() - started + max(durations) > seconds:
            return repeats


def _percentile(values, share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _end_to_end(records) -> dict:
    accesses = [1e3 * s for record in records for s in record["accessS"]]
    first = records[0]
    return {
        "setup_s": statistics.median(r["setupS"] for r in records),
        "access_ms.mean": statistics.fmean(accesses),
        "access_ms.p95": _percentile(accesses, 0.95),
        "round_s.mean": statistics.fmean(s for r in records for s in r["roundS"]),
        "scenario_s": statistics.fmean(r["scenarioS"] for r in records),
        "cold_start_s": statistics.fmean(r["restart"]["cold_start_s"] for r in records),
        "converge_s": statistics.fmean(r["restart"]["converge_s"] for r in records),
        "gas_per_access": first["gasAccess"] / first["accesses"],
        "gas_per_holder": first["gasMonitor"] / first["holders"],
        "peak_rss_mb": statistics.median(r["peakRssMb"] for r in records),
    }


def _per_layer(pairs) -> dict:
    traced = [pair[1]["layers"] for pair in pairs]
    metrics = {
        name: statistics.median(layer[name] for layer in traced)
        for name in PER_LAYER if name != "trace.overhead"
    }
    metrics["trace.overhead"] = statistics.median(
        pair[1]["scenarioS"] / pair[0]["scenarioS"] for pair in pairs
    )
    return metrics


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.decode().strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pairs = _repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    records = [record for pair in pairs for record in pair]
    first = records[0]
    deterministic = all(
        (r["head"], r["totalGas"], r["gasAccess"], r["gasMonitor"])
        == (first["head"], first["totalGas"], first["gasAccess"], first["gasMonitor"])
        for r in records
    )
    invariants = all(all(r["checks"].values()) for r in records)
    failed = sum(r["failures"]["count"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if args.trace:
        metrics = _per_layer(pairs)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = _end_to_end(records)
        units = END_TO_END

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(pairs),
        "workers": len(records),
        "sizing": first["sizing"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "head": first["head"],
        "totalGas": first["totalGas"],
        "networkSeconds": first["networkSeconds"],
        "deterministic": deterministic,
        "invariants": invariants,
        "checks": [r["checks"] for r in records],
        "failures": [r["failures"] for r in records],
        "fallbackRounds": sum(r["fallbackRounds"] for r in records),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump({"provenance": provenance, "metrics": metrics, "repeats": pairs}, out,
                  sort_keys=True)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": deterministic and invariants and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
