"""Tests for violation response handling and the chain explorer."""

import pytest

from repro.common.clock import DAY, MONTH
from repro.blockchain.explorer import ChainExplorer
from repro.core.monitoring import MonitoringCoordinator
from repro.core.processes import (
    market_onboarding,
    pod_initiation,
    resource_access,
    resource_initiation,
)
from repro.core.violations import ViolationResponder
from repro.policy.templates import retention_policy

PATH = "/data/dataset.bin"
CONTENT = b"row,value\n" * 32


@pytest.fixture
def violation_setup(architecture):
    """Owner + consumer where the consumer's device will violate its retention duty."""
    owner = architecture.register_owner("alice")
    consumer = architecture.register_consumer("bob-app", purpose="web-analytics", device_id="bob-device")
    pod_initiation(architecture, owner)
    policy = retention_policy(
        owner.pod_manager.base_url + PATH, owner.webid.iri, retention_seconds=7 * DAY,
        issued_at=architecture.clock.now(),
    )
    resource_initiation(architecture, owner, PATH, CONTENT, policy)
    market_onboarding(architecture, consumer)
    resource_id = owner.pod_manager.require_pod().url_for(PATH)
    resource_access(architecture, consumer, owner, resource_id)
    return architecture, owner, consumer, resource_id


def trigger_violation(architecture, owner):
    """Let the retention lapse without enforcement and run a monitoring round."""
    architecture.advance_time(MONTH)
    coordinator = MonitoringCoordinator(architecture)
    return coordinator.run_round(owner, PATH)


def test_responder_reacts_to_detected_violation(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    responder = ViolationResponder(architecture, owner)
    report = trigger_violation(architecture, owner)
    assert report.non_compliant_devices == ["bob-device"]

    assert len(responder.responses) == 1
    response = responder.responses[0]
    assert response.resource_id == resource_id
    assert response.device_id == "bob-device"
    assert response.grant_revoked
    assert response.acl_revoked
    assert response.consumer_webid == consumer.webid.iri
    assert len(response.certificates_revoked) == 1

    # The grant is now inactive on-chain, so a later policy update no longer
    # lists the device as a holder.
    grants = architecture.dist_exchange_read("get_grants", {"resource_id": resource_id})
    assert all(not grant["active"] for grant in grants)
    # The consumer lost read access on the pod.
    from repro.solid.wac import AccessMode

    assert not owner.pod_manager.can_access(consumer.webid.iri, AccessMode.READ, PATH)
    # The certificate no longer verifies.
    certificate = consumer.certificates[resource_id]["certificate_id"]
    assert not architecture.market_read(
        "verify_certificate",
        {"certificate_id": certificate, "consumer": consumer.address, "resource_id": resource_id},
    )
    summary = responder.summary()
    assert summary["violationsHandled"] == 1
    assert summary["certificatesRevoked"] == 1


def test_responder_ignores_other_owners_resources(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    other_owner = architecture.register_owner("carol")
    pod_initiation(architecture, other_owner)
    responder = ViolationResponder(architecture, other_owner)
    trigger_violation(architecture, owner)
    assert responder.responses == []


def test_responder_handles_unknown_devices(violation_setup):
    architecture, owner, _, resource_id = violation_setup
    responder = ViolationResponder(architecture, owner)
    response = responder.respond(resource_id, "ghost-device", details="manual report")
    assert not response.grant_revoked  # no such grant existed
    assert response.consumer_webid is None
    assert responder.responses_for(resource_id) == [response]


def test_compliant_monitoring_triggers_no_response(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    responder = ViolationResponder(architecture, owner)
    coordinator = MonitoringCoordinator(architecture)
    report = coordinator.run_round(owner, PATH)  # retention not yet lapsed
    assert report.all_compliant
    assert responder.responses == []


# -- chain explorer --------------------------------------------------------------------------


def test_explorer_account_activity_and_gas_breakdown(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    explorer = ChainExplorer(architecture.node.chain)

    activity = explorer.account_activity(owner.address)
    assert activity.transactions_sent >= 3  # pod + resource + market listing
    assert activity.gas_used > 0
    assert activity.fees_paid >= activity.gas_used  # gas price is 1
    assert activity.methods_called.get("register_pod") == 1
    assert activity.methods_called.get("register_resource") == 1

    operator_activity = explorer.account_activity(architecture.operator_key.address)
    assert len(operator_activity.contracts_created) == 3  # DE App, market, hub

    by_method = explorer.gas_by_method(architecture.dist_exchange_address)
    assert by_method["register_pod"] > 0
    assert by_method["register_resource"] > by_method["register_pod"]

    by_sender = explorer.gas_by_sender()
    assert by_sender[owner.address] == activity.gas_used


def test_explorer_event_history_and_statistics(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    explorer = ChainExplorer(architecture.node.chain)

    counts = explorer.event_counts(architecture.dist_exchange_address)
    assert counts["PodRegistered"] == 1
    assert counts["ResourceRegistered"] == 1
    assert counts["AccessGranted"] == 1

    registered = explorer.events(architecture.dist_exchange_address, "ResourceRegistered")
    assert registered[0].data["resource_id"] == resource_id

    stats = explorer.statistics()
    assert stats.blocks == architecture.node.chain.height + 1
    assert stats.transactions > 0
    assert stats.total_gas == architecture.total_gas_used()
    assert stats.failed_transactions == 0
    assert stats.average_gas_per_block > 0
    assert set(stats.to_dict()) >= {"blocks", "transactions", "totalGas"}


def test_explorer_transaction_filters(violation_setup):
    architecture, owner, consumer, resource_id = violation_setup
    explorer = ChainExplorer(architecture.node.chain)
    from_owner = explorer.transactions(sender=owner.address)
    assert all(tx.sender == owner.address for tx in from_owner)
    to_market = explorer.transactions(to=architecture.market_address)
    assert all(tx.to == architecture.market_address for tx in to_market)
    assert len(explorer.receipts(status=True)) == len(explorer.receipts())
