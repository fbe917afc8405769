"""Batched monitoring rounds: one consistent record per device, in constant blocks.

A round enqueues every holder's evidence request in one transaction,
confirms the devices' fulfillments in one block and records the evidence in
one batch transaction.  These tests pin that the report the coordinator
assembles agrees, device by device, with what the round left on-chain and
with what the owner was told, and that a round seals a small constant
number of blocks.  The sharded equivalence test
(``test_monitoring_sharded.py``) and the shadow-model conformance suite
(``tests/scenarios``) are the references for the round itself.
"""

import pytest

from repro.common.clock import MONTH, WEEK
from repro.common.errors import ContractError
from repro.core.monitoring import MonitoringCoordinator
from repro.core.processes import (
    market_onboarding,
    pod_initiation,
    resource_access,
    resource_initiation,
)
from repro.core.architecture import UsageControlArchitecture
from repro.policy.templates import retention_policy

PATH = "/data/shared.csv"
CONTENT = b"k,v\n" * 16
DEVICES = ("dev-a", "dev-b", "dev-c")


def build_deployment(retention_seconds=MONTH):
    """A deployment with one owner and three copy-holding consumers."""
    architecture = UsageControlArchitecture()
    owner = architecture.register_owner("alice")
    pod_initiation(architecture, owner)
    policy = retention_policy(
        owner.pod_manager.base_url + PATH, owner.webid.iri,
        retention_seconds=retention_seconds, issued_at=architecture.clock.now(),
    )
    resource_initiation(architecture, owner, PATH, CONTENT, policy)
    resource_id = owner.pod_manager.require_pod().url_for(PATH)
    for index, device in enumerate(DEVICES):
        consumer = architecture.register_consumer(f"consumer-{index}", device_id=device)
        market_onboarding(architecture, consumer)
        resource_access(architecture, consumer, owner, resource_id)
    return architecture, owner, resource_id


@pytest.mark.parametrize("retention", [MONTH, WEEK], ids=["compliant", "violating"])
def test_round_verdicts_agree_with_the_on_chain_record(retention):
    """Report, evidence list, violations, events and notifications agree per device."""
    architecture, owner, resource_id = build_deployment(retention)
    if retention == WEEK:
        # Let the retention lapse without enforcement: every device violates.
        architecture.advance_time(2 * WEEK)

    report = MonitoringCoordinator(architecture).run_round(owner, PATH)

    assert report.holders == sorted(DEVICES)
    verdicts = {device: device in report.compliant_devices for device in report.holders}
    assert set(verdicts.values()) == {retention == MONTH}
    assert sorted(report.compliant_devices + report.non_compliant_devices) == report.holders

    evidence = architecture.dist_exchange_read("get_evidence", {"resource_id": resource_id})
    violations = architecture.dist_exchange_read("get_violations", {"resource_id": resource_id})
    events = [
        log.data
        for log in architecture.node.get_logs(
            address=architecture.dist_exchange_address, event="EvidenceRecorded")
    ]
    notifications = [log.data for log in owner.evidence_for(resource_id)]
    assert report.violations == violations
    assert notifications == events
    for device, compliant in verdicts.items():
        assert report.evidence[device]["compliant"] is compliant
        details = report.evidence[device].get("details", "non-compliant evidence")
        assert [entry["evidence"] for entry in evidence
                if entry["device_id"] == device and entry["round_id"] == report.round_id
                ] == [report.evidence[device]]
        assert [violation["details"] for violation in violations
                if violation["device_id"] == device
                ] == ([] if compliant else [details])
        assert [(event["round_id"], event["resource_id"], event["compliant"])
                for event in events if event["device_id"] == device
                ] == [(report.round_id, resource_id, compliant)]


def test_batched_round_seals_a_constant_number_of_blocks():
    architecture, owner, _ = build_deployment()
    coordinator = MonitoringCoordinator(architecture)
    height_before = architecture.node.chain.height
    report = coordinator.run_round(owner, PATH)
    blocks = architecture.node.chain.height - height_before
    assert len(report.holders) == len(DEVICES)
    assert blocks <= 5


def test_round_id_comes_from_wiring_not_log_scan():
    architecture, owner, resource_id = build_deployment()
    report = MonitoringCoordinator(architecture).run_round(owner, PATH)
    assert owner.monitoring_round_ids[resource_id] == report.round_id
    second = MonitoringCoordinator(architecture).run_round(owner, PATH)
    assert second.round_id == report.round_id + 1
    assert owner.monitoring_round_ids[resource_id] == second.round_id


def test_consumer_for_device_map_resolves_without_scanning():
    architecture, _, _ = build_deployment()
    consumer = architecture.consumer_for_device("dev-b")
    assert consumer is not None and consumer.device_id == "dev-b"
    assert architecture.consumer_for_device("unknown-device") is None


def test_chain_verifies_after_batched_rounds():
    architecture, owner, _ = build_deployment()
    MonitoringCoordinator(architecture).run_round(owner, PATH)
    assert architecture.node.chain.verify_chain(replay=True)


# -- the batch() transaction context -----------------------------------------------------


def test_batch_context_confirms_many_transactions_in_one_block(operator_module, node):
    de_app = operator_module.deploy_contract("DistExchangeApp")
    height_before = node.chain.height
    with operator_module.batch() as batch:
        first = operator_module.call_contract(
            de_app,
            "register_pod",
            {"pod_url": "https://pod.x", "owner": "https://id/x", "default_policy": {}},
        )
        second = operator_module.call_contract(
            de_app,
            "register_pod",
            {"pod_url": "https://pod.y", "owner": "https://id/y", "default_policy": {}},
        )
        assert first.gas_used == 0 and not first.logs      # placeholder until flush
        assert batch.size == 2
    assert node.chain.height == height_before + 1          # one block for both
    assert first.gas_used > 0 and first.return_value == "https://pod.x"
    assert second.return_value == "https://pod.y"
    assert first.logs[0].event == "PodRegistered"


def test_batch_context_reports_reverts_and_restores_auto_mine(operator_module):
    de_app = operator_module.deploy_contract("DistExchangeApp")
    with pytest.raises(ContractError, match="reverted"):
        with operator_module.batch():
            operator_module.call_contract(
                de_app,
                "register_pod",
                {"pod_url": "https://pod.x", "owner": "https://id/x", "default_policy": {}},
            )
            operator_module.call_contract(
                de_app,
                "register_pod",
                {"pod_url": "https://pod.x", "owner": "https://id/x", "default_policy": {}},
            )
    assert operator_module.auto_mine and operator_module.current_batch is None
    # The successful registration is on-chain; the duplicate reverted.
    assert operator_module.read(de_app, "list_pods") == ["https://pod.x"]


def test_batch_context_accounts_gas_on_flush(operator_module):
    de_app = operator_module.deploy_contract("DistExchangeApp")
    spent_before = operator_module.gas_spent
    with operator_module.batch():
        operator_module.call_contract(
            de_app,
            "register_pod",
            {"pod_url": "https://pod.gas", "owner": "https://id/x", "default_policy": {}},
        )
    assert operator_module.gas_spent > spent_before


def test_batch_context_rejects_modules_on_other_nodes(operator_module):
    from repro.common.errors import ValidationError
    from repro.blockchain.consensus import ProofOfAuthority
    from repro.blockchain.crypto import KeyPair
    from repro.blockchain.node import BlockchainNode
    from repro.oracles.base import BlockchainInteractionModule

    other_key = KeyPair.from_name("other-validator")
    other_node = BlockchainNode(
        ProofOfAuthority(validators=[other_key.address], block_interval=5.0), other_key
    )
    other_module = BlockchainInteractionModule(other_node, other_key)
    with pytest.raises(ValidationError):
        with operator_module.batch(other_module):
            pass


def test_batches_do_not_nest(operator_module):
    from repro.common.errors import ValidationError

    de_app = operator_module.deploy_contract("DistExchangeApp")
    with operator_module.batch():
        operator_module.call_contract(
            de_app,
            "register_pod",
            {"pod_url": "https://pod.outer", "owner": "https://id/x", "default_policy": {}},
        )
        with pytest.raises(ValidationError, match="already active"):
            with operator_module.batch():
                pass
    # The outer batch still flushed normally after the rejected inner one.
    assert operator_module.read(de_app, "list_pods") == ["https://pod.outer"]
    assert operator_module.node.active_batch is None
