"""Tests for the Alice & Bob scenario and the Solid-only baseline."""

import pytest

from repro.common.clock import DAY, MONTH, WEEK
from repro.core.baseline import BaselineSolidDeployment
from repro.core.scenario import run_alice_bob_scenario
from repro.policy.templates import retention_policy


@pytest.fixture(scope="module")
def scenario():
    """Run the full motivating scenario once for this module."""
    return run_alice_bob_scenario()


def test_scenario_covers_all_six_processes(scenario):
    executed = {trace.process for trace in scenario.traces}
    assert {
        "pod_initiation",
        "resource_initiation",
        "resource_indexing",
        "resource_access",
        "policy_modification",
        "policy_monitoring",
    } <= executed


def test_scenario_initial_exchanges_succeeded(scenario):
    assert scenario.facts["bob_holds_alice_copy_initially"]
    assert scenario.facts["alice_holds_bob_copy_initially"]


def test_alice_keeps_access_after_bobs_purpose_change(scenario):
    """Bob narrows the purpose to academic pursuits; Alice's medical-research
    application for a university hospital keeps its grant (Section II)."""
    assert scenario.facts["alice_can_still_use_bobs_data"] is True


def test_alices_data_is_erased_from_bobs_device_after_new_expiry(scenario):
    """Alice shortens retention from one month to one week; after the new
    expiry lapses Bob's TEE erases the copy automatically (Section II)."""
    assert scenario.facts["bob_copy_deleted_after_update"] is True
    assert scenario.facts["bob_use_blocked_after_deletion"] is True


def test_scenario_monitoring_rounds_are_compliant(scenario):
    assert scenario.monitoring_reports
    assert all(report.all_compliant for report in scenario.monitoring_reports)


def test_scenario_chain_is_valid_and_costs_are_recorded(scenario):
    assert scenario.facts["chain_valid"] is True
    assert scenario.facts["total_gas_used"] > 0
    assert scenario.facts["chain_height"] > 10


def test_scenario_traces_record_gas_and_transactions(scenario):
    pod_traces = scenario.trace_for("pod_initiation")
    assert len(pod_traces) == 2
    assert all(trace.transactions >= 1 for trace in pod_traces)
    assert all(trace.gas_used > 0 for trace in pod_traces)
    indexing_traces = scenario.trace_for("resource_indexing")
    assert all(trace.gas_used == 0 for trace in indexing_traces)


# -- baseline -----------------------------------------------------------------------------


def build_baseline():
    baseline = BaselineSolidDeployment()
    baseline.register_owner("alice")
    baseline.register_consumer("bob")
    policy = retention_policy("https://alice.pods.example.org/data/browsing.csv",
                              baseline.owners["alice"].owner.iri, retention_seconds=MONTH)
    resource_id = baseline.publish_resource("alice", "/data/browsing.csv", b"data" * 32, policy)
    baseline.grant_read("alice", "bob", "/data/browsing.csv")
    return baseline, resource_id


def test_baseline_consumer_obtains_plain_copy():
    baseline, resource_id = build_baseline()
    copy = baseline.access_resource("bob", resource_id)
    assert copy.content == b"data" * 32
    assert baseline.consumers["bob"].holds_copy(resource_id)
    assert baseline.consumers["bob"].use_resource(resource_id) == b"data" * 32


def test_baseline_policy_updates_never_reach_existing_copies():
    baseline, resource_id = build_baseline()
    baseline.access_resource("bob", resource_id)
    new_policy = retention_policy(resource_id, baseline.owners["alice"].owner.iri,
                                  retention_seconds=WEEK).revise()
    baseline.update_policy("alice", "/data/browsing.csv", new_policy)
    baseline.clock.advance(MONTH + DAY)
    # The copy is still there and still usable: the very gap the paper motivates.
    assert baseline.consumers["bob"].holds_copy(resource_id)
    assert baseline.stale_copies("alice", "/data/browsing.csv") == ["bob"]


def test_baseline_access_control_still_applies():
    baseline, resource_id = build_baseline()
    baseline.register_consumer("carol")
    with pytest.raises(Exception):
        baseline.access_resource("carol", resource_id)


def test_architecture_closes_the_baseline_gap(scenario):
    """The same story that leaves a stale copy in the baseline ends with the
    copy erased under the usage-control architecture."""
    assert scenario.facts["bob_copy_deleted_after_update"] is True
