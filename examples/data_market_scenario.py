#!/usr/bin/env python3
"""The paper's motivating use case (Section II): Alice and Bob on the data market.

Alice trades internet-browsing data (delete one month after storage, later
tightened to one week); Bob trades medical data (medical purposes only, later
narrowed to academic pursuits).  The script runs the complete story through
:func:`repro.core.scenario.run_alice_bob_scenario` and reports every outcome
the paper describes.

Run with::

    python examples/data_market_scenario.py
"""

from repro.core.scenario import run_alice_bob_scenario


def main() -> None:
    print("Running the Alice & Bob data-market scenario ...\n")
    result = run_alice_bob_scenario()

    print("=== Processes executed (Fig. 2) ===")
    for trace in result.traces:
        print(
            f"  {trace.process:<22} txs={trace.transactions:<3} gas={trace.gas_used:>9,} "
            f"network={trace.simulated_network_seconds * 1000:7.1f} ms "
            f"wall={trace.wall_clock_seconds * 1000:7.1f} ms"
        )

    print("\n=== Scenario outcomes ===")
    print(f"Bob initially held a copy of Alice's browsing data:   "
          f"{result.facts['bob_holds_alice_copy_initially']}")
    print(f"Alice initially held a copy of Bob's medical data:    "
          f"{result.facts['alice_holds_bob_copy_initially']}")
    print(f"After Bob narrowed his policy to academic pursuits,")
    print(f"  Alice's medical-research app keeps its access:      "
          f"{result.facts['alice_can_still_use_bobs_data']}")
    print(f"After Alice shortened retention to one week,")
    print(f"  her data was erased from Bob's device:              "
          f"{result.facts['bob_copy_deleted_after_update']}")
    print(f"  and further use on Bob's device is blocked:         "
          f"{result.facts['bob_use_blocked_after_deletion']}")

    print("\n=== Policy monitoring (Fig. 2.6) ===")
    for report in result.monitoring_reports:
        print(
            f"  round {report.round_id} on {report.resource_id}\n"
            f"    holders:        {report.holders}\n"
            f"    compliant:      {report.compliant_devices}\n"
            f"    non-compliant:  {report.non_compliant_devices}\n"
            f"    violations:     {len(report.violations)}"
        )

    print("\n=== Blockchain facts ===")
    print(f"Chain height:   {result.facts['chain_height']}")
    print(f"Total gas used: {result.facts['total_gas_used']:,}")
    print(f"Chain valid:    {result.facts['chain_valid']}")

    architecture = result.architecture
    alice = architecture.owners["alice"]
    bob = architecture.owners["bob"]
    print(f"Alice's market earnings: {alice.market_earnings()}")
    print(f"Bob's market earnings:   {bob.market_earnings()}")
    stats = architecture.market_read("market_statistics")
    print(f"Market statistics:       {stats}")


if __name__ == "__main__":
    main()
