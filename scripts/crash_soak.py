#!/usr/bin/env python3
"""Crash-recovery soak: repeated durable-churn runs with mid-round hard crashes.

Each round executes the ``durable-churn`` library scenario — a 3-validator
durable market run that kill -9s validator 1 mid-round (unacknowledged
tail and a torn tail record left on disk) and later restarts it from its
chain store — and checks the full recovery contract:

* the torn tail was detected and truncated, never silently accepted;
* acknowledgements kept up: the unsynced tail past the last ``commits.log``
  record is shorter than one acknowledgement interval;
* cold start ran from a promoted finality snapshot, not genesis;
* the restarted replica replays clean (``verify_chain(replay=True)``);
* all heads converge and the violation ledger closes exactly as an
  uncrashed run would.

Chain stores are materialised under ``--store-root`` so CI can upload them
as artifacts for post-mortem; a ``soak_summary.json`` with every round's
recovery report lands next to them.  Exit 0 only if every round passes.

Usage:
    PYTHONPATH=src python scripts/crash_soak.py --rounds 5 --store-root soak-stores
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.blockchain.storage import MANIFEST_INTERVAL  # noqa: E402
from repro.core.runner import ScenarioRunner  # noqa: E402
from repro.core.scenario_library import durable_churn_spec  # noqa: E402


def run_round(index: int) -> dict:
    """One durable-churn run; returns the round's recovery report + checks."""
    started = time.perf_counter()
    result = ScenarioRunner(durable_churn_spec()).run()
    network = result.validator_network
    recovery = result.facts["recoveries"][0]
    checks = {
        "tail_truncated": recovery["recordsTruncated"] >= 1,
        "commit_acknowledged": recovery["unsyncedTail"] < MANIFEST_INTERVAL,
        "snapshot_cold_start": recovery["snapshotHeight"] > 0,
        "replay_verified": recovery["replayVerified"] is True,
        "heads_converged": bool(result.facts["honest_heads_converged"]),
        "consistent": bool(network.consistent()),
        "ledger_closed": bool(result.ledger.matches),
        "chain_replays": bool(result.verify_chain_replay()),
    }
    network.close()
    return {
        "round": index,
        "store": result.facts["persist_dir"],
        "seconds": round(time.perf_counter() - started, 3),
        "recovery": recovery,
        "checks": checks,
        "passed": all(checks.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="durable-churn rounds to run (default 5)")
    parser.add_argument("--store-root", type=Path, default=None,
                        help="directory to materialise the chain stores under "
                             "(default: the system temp dir)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    if args.store_root is not None:
        args.store_root.mkdir(parents=True, exist_ok=True)
        # The runner allocates each round's store via tempfile.mkdtemp;
        # pointing the module default here keeps every store uploadable.
        tempfile.tempdir = str(args.store_root.resolve())

    rounds = []
    for index in range(args.rounds):
        outcome = run_round(index)
        rounds.append(outcome)
        status = "ok" if outcome["passed"] else "FAIL"
        failed = [name for name, good in outcome["checks"].items() if not good]
        print(f"round {index}: {status} "
              f"({outcome['seconds']}s, store={outcome['store']}"
              f"{', failed=' + ','.join(failed) if failed else ''})")

    summary = {
        "scenario": "durable-churn",
        "rounds": rounds,
        "passed": all(r["passed"] for r in rounds),
    }
    if args.store_root is not None:
        (args.store_root / "soak_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    if not summary["passed"]:
        print(f"crash soak FAILED: "
              f"{sum(not r['passed'] for r in rounds)}/{args.rounds} rounds bad",
              file=sys.stderr)
        return 1
    print(f"crash soak OK: {args.rounds}/{args.rounds} rounds recovered cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
