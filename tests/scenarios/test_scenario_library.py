"""The named scenario catalog: every story runs and its ledger closes."""

import dataclasses

import pytest

from repro.core.runner import ScenarioRunner
from repro.core.scenario_library import SCENARIO_LIBRARY, alice_bob_spec, get_scenario
from repro.core.spec import ScenarioSpec


@pytest.fixture(scope="module")
def library_results():
    """Run every catalog scenario once for this module."""
    return {name: ScenarioRunner(factory()).run() for name, factory in SCENARIO_LIBRARY.items()}


def test_catalog_has_at_least_eight_named_scenarios():
    assert len(SCENARIO_LIBRARY) >= 8
    assert "alice-bob" in SCENARIO_LIBRARY


@pytest.mark.parametrize("name", sorted(SCENARIO_LIBRARY))
def test_scenario_ledger_closes_and_model_agrees(library_results, name):
    """Expected == observed violations, and the shadow model never disagrees."""
    result = library_results[name]
    assert result.ledger.matches, {
        "missing": [v.to_dict() for v in result.ledger.missing],
        "unexpected": [v.to_dict() for v in result.ledger.unexpected],
    }
    assert result.mispredictions == []
    assert result.facts["chain_valid"] is True
    assert result.facts["balance_conservation"]["holds"] is True


@pytest.mark.parametrize("name", sorted(SCENARIO_LIBRARY))
def test_scenario_specs_round_trip_through_json(name):
    spec = get_scenario(name)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_every_expected_violation_is_on_chain(library_results):
    """Each scripted violation left a violation record and signed evidence."""
    for name, result in library_results.items():
        on_chain = {(v["resource_id"], v["device_id"]) for v in result.on_chain_violations}
        for record in result.ledger.expected:
            assert (record.resource_id, record.device_id) in on_chain, (name, record)
            evidence = result.architecture.dist_exchange_read(
                "get_evidence", {"resource_id": record.resource_id}
            )
            assert any(
                item["device_id"] == record.device_id and item["round_id"] == record.round_id
                for item in evidence
            ), (name, record)


# -- scenario-specific outcomes ---------------------------------------------------


def test_negligent_holder_is_flagged_and_compliant_peer_is_not(library_results):
    result = library_results["negligent-holder"]
    flagged = {v.device_id for v in result.ledger.observed}
    assert flagged == {"device-dave-app"}
    assert result.facts["compliant_copy_deleted"] is True
    assert result.facts["negligent_copy_survives"] is True


def test_unreachable_device_yields_no_evidence_violation(library_results):
    result = library_results["unreachable-device"]
    (report,) = result.monitoring_reports
    assert report.non_compliant_devices == ["device-ghost-app"]
    assert report.evidence["device-ghost-app"]["details"] == "no evidence provided"
    assert "device-hattie-app" in report.compliant_devices


def test_byzantine_oracle_forgery_is_rejected_by_signature_check(library_results):
    result = library_results["byzantine-oracle"]
    (report,) = result.monitoring_reports
    evidence = report.evidence["device-forger-app"]
    assert evidence["compliant"] is False
    assert "evidence rejected" in evidence["details"]
    # The forged body still *claimed* compliance before verification.
    assert evidence["compliance"]["compliant"] is True


def test_stale_oracle_passes_round_one_and_is_flagged_on_replay(library_results):
    result = library_results["stale-oracle-replay"]
    first, second = result.monitoring_reports
    assert first.all_compliant
    assert second.non_compliant_devices == ["device-replay-app"]
    assert "stale" in second.evidence["device-replay-app"]["details"]


def test_late_payer_is_refused_then_served_and_never_penalized(library_results):
    result = library_results["late-payer"]
    assert result.facts["frugal-app_denied_before_payment"] is True
    assert result.facts["late_payer_holds_copy"] is True
    assert result.on_chain_violations == []


def test_churned_device_misses_the_update_and_the_round(library_results):
    result = library_results["churn-mid-retention"]
    assert result.facts["live_copy_erased_on_update"] is True
    assert result.facts["churned_copy_survives"] is True
    (report,) = result.monitoring_reports
    assert report.non_compliant_devices == ["device-flaky-app"]


def test_revocation_playbook_excludes_the_violator_from_round_two(library_results):
    result = library_results["revocation-playbook"]
    first, second = result.monitoring_reports
    assert "device-bad-app" in first.non_compliant_devices
    assert "device-bad-app" not in second.holders
    assert "device-good-app" in second.holders
    responder = result.responders["rita"]
    summary = responder.summary()
    assert summary["violationsHandled"] >= 1
    assert summary["grantsRevoked"] >= 1
    assert summary["certificatesRevoked"] >= 1


def test_revocation_recovery_walks_the_full_cascade(library_results):
    """Revoked -> refused -> certificate alone insufficient -> re-admitted."""
    result = library_results["revocation-recovery"]
    assert result.facts["denied_after_revocation"] is True
    assert result.facts["honest_reaccess_served"] is True
    assert result.facts["certificate_alone_insufficient"] is True
    assert result.facts["served_after_regrant"] is True
    assert result.facts["readmitted_copy_held"] is True
    first, second = result.monitoring_reports
    assert "device-bad-app" in first.non_compliant_devices
    # The re-admitted device is a holder again — and compliant this time.
    assert "device-bad-app" in second.holders
    assert "device-bad-app" in second.compliant_devices
    summary = result.responders["ruth"].summary()
    assert summary["grantsRevoked"] == 1
    assert summary["aclRevocations"] == 1
    assert summary["certificatesRevoked"] == 1


def test_expired_reaccess_seals_a_fresh_copy(library_results):
    result = library_results["expired-reaccess"]
    assert result.facts["expired_copy_deleted"] is True
    assert result.facts["deleted_copy_reaccess_served"] is True
    assert result.facts["fresh_copy_held"] is True
    # Both rounds are clean: the TEE erased the copy itself, and the fresh
    # copy is inside its new retention window.
    assert all(report.all_compliant for report in result.monitoring_reports)
    assert result.on_chain_violations == []


def test_population_demo_detects_its_adversarial_minority(library_results):
    result = library_results["population-demo"]
    # 60 consumers at the default mix: 48 honest, the rest adversarial.
    assert len(result.spec.consumers()) == 60
    assert len(result.ledger.observed) > 0
    reasons = {v.reason for v in result.ledger.expected}
    assert "no evidence provided" in reasons  # non-responsive / churned
    assert any("retention" in reason for reason in reasons)  # violating


def test_bounded_use_deletes_at_the_ceiling(library_results):
    result = library_results["bounded-use"]
    assert result.facts["copy_deleted_at_ceiling"] is True
    use_steps = [s for s in result.steps if s.phase == "use"]
    assert [s.details["allowed"] for s in use_steps] == [True, True, True, False]


def test_market_rush_is_fully_compliant(library_results):
    result = library_results["market-rush"]
    assert len(result.monitoring_reports) == 3
    assert all(report.all_compliant for report in result.monitoring_reports)
    assert result.on_chain_violations == []


# -- per-phase accounting (benchmark reuse) ----------------------------------------


def test_phase_stats_cover_setup_and_every_step(library_results):
    result = library_results["market-rush"]
    spec = result.spec
    assert len(result.steps) == 5 + len(spec.timeline)  # 5 setup groups
    gas = result.gas_by_phase()
    blocks = result.blocks_by_phase()
    assert gas["setup"] > 0 and blocks["setup"] > 0
    assert gas["access"] > 0 and gas["monitor"] > 0
    # Reads and local TEE work cost no gas and seal no blocks.
    assert gas.get("use", 0) == 0 and blocks.get("use", 0) == 0
    # The stats add up to the whole deployment's consumption.
    assert sum(gas.values()) == result.facts["total_gas_used"]
    assert sum(result.transactions_by_phase().values()) == (
        result.architecture.node.chain.transaction_count()
    )


def test_batched_monitoring_keeps_blocks_constant_per_round(library_results):
    result = library_results["market-rush"]
    monitor_steps = [s for s in result.steps if s.phase == "monitor"]
    assert len(monitor_steps) == 3
    assert all(s.blocks <= 5 for s in monitor_steps)


# -- the Alice & Bob pin ------------------------------------------------------------


def test_alice_bob_spec_reproduces_the_pinned_run(library_results):
    """The declarative spec leaves exactly the legacy driver's footprint."""
    result = library_results["alice-bob"]
    assert result.facts["chain_height"] == 31
    assert result.architecture.node.chain.transaction_count() == 31
    assert [t.process for t in result.traces] == [
        "pod_initiation", "pod_initiation",
        "resource_initiation", "resource_initiation",
        "market_onboarding", "market_onboarding",
        "resource_indexing", "resource_indexing",
        "resource_access", "resource_access",
        "policy_modification", "policy_modification",
        "policy_monitoring", "policy_monitoring",
    ]
    assert [(r.round_id, r.holders) for r in result.monitoring_reports] == [
        (1, ["bob-device"]), (2, ["alice-device"]),
    ]


def test_alice_bob_spec_without_monitoring_has_no_rounds():
    spec = alice_bob_spec()
    spec = dataclasses.replace(
        spec, timeline=tuple(step for step in spec.timeline if step.kind != "monitor"))
    result = ScenarioRunner(spec).run()
    assert result.monitoring_reports == []
    assert result.facts["bob_copy_deleted_after_update"] is True
