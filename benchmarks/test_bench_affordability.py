"""E7 (Section V-4, affordability): gas costs per operation and break-even analysis.

"Resorting to a public blockchain, users of our infrastructure would make a
payment to interact with the blockchain metadata through transactions.  The
market scenario can justify the costs involved ...  A subscription-based
business model could offer an incentive mechanism that allows users to
overcome the sharing costs and earn a remuneration upon access to their
data."

Both measurements are ScenarioSpec-native: one declarative scenario is
executed by the :class:`~repro.core.runner.ScenarioRunner` and the per-phase
:class:`~repro.core.processes.StepStats` provide every row — the per-operation
gas table comes from the labelled setup/access/monitor phases, and the
break-even point falls out of the owner's measured on-chain spend versus
their per-access market earnings.  Rows are emitted to
``BENCH_affordability.json`` in the shared benchmark schema.
"""

from __future__ import annotations

from repro.common.clock import DAY, WEEK
from repro.core.runner import ScenarioRunner
from repro.core.spec import (
    ParticipantSpec,
    ResourceSpec,
    ScenarioSpec,
    access,
    advance,
    monitor,
    revise_policy,
    use,
)

from bench_helpers import bench_row, emit_bench_json

ACCESS_FEE = 10_000
OWNER_SHARE_PERCENT = 80  # the architecture default


def affordability_spec(consumers: int = 30) -> ScenarioSpec:
    """One owner, one priced resource, *consumers* paying readers."""
    res = "vera:/data/dataset.bin"
    names = [f"reader-{index:03d}" for index in range(consumers)]
    timeline = [access(name, res) for name in names]
    timeline += [use(name, res) for name in names]
    timeline += [
        revise_policy(res, retention_seconds=WEEK / 2),
        advance(DAY),
        monitor(res),
    ]
    return ScenarioSpec(
        name="affordability",
        description="gas per operation and owner break-even under paid access",
        participants=(
            ParticipantSpec("vera", "owner"),
            *(ParticipantSpec(name, "consumer", purpose="web-analytics") for name in names),
        ),
        resources=(ResourceSpec(owner="vera", path="/data/dataset.bin",
                                retention_seconds=WEEK),),
        timeline=tuple(timeline),
        access_fee=ACCESS_FEE,
    ).validate()


def test_e7_gas_cost_per_operation(report):
    """Per-operation gas, read straight off the scenario's phase accounting."""
    consumers = 12
    result = ScenarioRunner(affordability_spec(consumers)).run()
    by_label = {}
    for stats in result.steps:
        entry = by_label.setdefault(stats.label.split(":", 1)[0] if stats.phase != "setup"
                                    else stats.label, {"gas": 0, "count": 0})
        entry["gas"] += stats.gas_used
        entry["count"] += 1

    costs = {
        "pod registration (push-in)": by_label["setup:pods"]["gas"],
        "resource registration + market listing (push-in)": by_label["setup:resources"]["gas"],
        "market subscription (per consumer)": by_label["setup:onboarding"]["gas"] // consumers,
        "resource access (certificate + grant)": by_label["access"]["gas"] // consumers,
        "policy update (push-in)": by_label["revise_policy"]["gas"],
        "monitoring round (per holder)": (
            by_label["monitor"]["gas"] // max(1, len(result.monitoring_reports[-1].holders))
        ),
    }
    for operation, gas in costs.items():
        report("E7 gas", operation=operation, gas=gas)
    emit_bench_json(
        "affordability",
        [bench_row("gas_per_operation", list(costs), list(costs.values()))],
    )
    # Shape assertions: every metadata write costs gas; the per-consumer
    # access path (two small transactions) is cheaper than resource
    # registration (which stores the whole policy on-chain).
    assert all(gas > 0 for gas in costs.values())
    assert costs["resource access (certificate + grant)"] < costs[
        "resource registration + market listing (push-in)"
    ]
    # The run's phase accounting is complete: phases sum to the chain totals.
    assert sum(result.gas_by_phase().values()) == result.facts["total_gas_used"]


def test_e7_owner_break_even_accesses(report):
    """Paid accesses needed until market earnings cover the owner's gas bill."""
    consumers = 40
    result = ScenarioRunner(affordability_spec(consumers)).run()
    owner = result.architecture.owners["vera"]

    earnings = owner.market_earnings()
    per_access = ACCESS_FEE * OWNER_SHARE_PERCENT // 100
    assert earnings == consumers * per_access

    # The owner's up-front on-chain spend: pod + resource registration (the
    # setup phases are entirely owner-paid transactions).
    owner_setup_gas = sum(
        stats.gas_used for stats in result.steps
        if stats.label in ("setup:pods", "setup:resources")
    )
    break_even = -(-owner_setup_gas // per_access)  # ceil division
    report("E7 break-even", owner_setup_gas=owner_setup_gas, access_fee=ACCESS_FEE,
           owner_share=f"{OWNER_SHARE_PERCENT}%", accesses_to_break_even=break_even,
           earnings=earnings)
    emit_bench_json(
        "affordability",
        [bench_row("break_even_accesses", [consumers], [break_even])],
    )
    assert 0 < break_even <= consumers
    assert earnings >= owner_setup_gas
