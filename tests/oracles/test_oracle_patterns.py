"""Tests for the four oracle patterns and the blockchain interaction module."""

import pytest

from repro.common.errors import ContractError, SignatureError, ValidationError
from repro.blockchain.crypto import KeyPair
from repro.oracles.base import BlockchainInteractionModule
from repro.oracles.pull_in import PullInOracle
from repro.oracles.pull_out import PullOutOracle
from repro.oracles.push_in import PushInOracle
from repro.oracles.push_out import PushOutOracle
from repro.policy.serialization import policy_to_dict
from repro.policy.templates import retention_policy
from repro.sim.network import NetworkModel


@pytest.fixture
def de_app(operator_module) -> str:
    return operator_module.deploy_contract("DistExchangeApp")


@pytest.fixture
def hub(operator_module) -> str:
    return operator_module.deploy_contract("OracleRequestHub")


@pytest.fixture
def owner_module(node, operator_module) -> BlockchainInteractionModule:
    keypair = KeyPair.from_name("oracle-owner")
    operator_module.send_transaction(keypair.address, {}, value=50_000_000)
    return BlockchainInteractionModule(node, keypair, network=NetworkModel(seed=8))


def sample_policy(resource="https://pod.o/data/r1"):
    return policy_to_dict(retention_policy(resource, "https://id/o", retention_seconds=3600))


def test_interaction_module_deploys_and_transacts(operator_module):
    address = operator_module.deploy_contract("DistExchangeApp")
    assert address.startswith("0x")
    assert operator_module.transactions_sent >= 1
    assert operator_module.gas_spent > 0


def test_interaction_module_raises_on_revert(operator_module, de_app):
    with pytest.raises(ContractError):
        operator_module.call_contract(de_app, "get_pod", {"pod_url": "https://missing"})


def test_chunked_call_splits_into_bounded_transactions_sealed_in_one_block(
        operator_module, node, hub):
    requests = [{"kind": "usage_evidence", "payload": {"n": n}, "target": f"dev-{n}"}
                for n in range(5)]
    height_before = node.chain.height
    spent_before = operator_module.gas_spent
    receipts = operator_module.call_contract_chunked(
        hub, "create_requests", "requests", requests, chunk_size=2)
    assert [len(receipt.return_value) for receipt in receipts] == [2, 2, 1]
    assert node.chain.height == height_before + 1
    assert {receipt.block_number for receipt in receipts} == {node.chain.height}
    request_ids = [request_id for receipt in receipts for request_id in receipt.return_value]
    assert request_ids == list(range(request_ids[0], request_ids[0] + 5))
    assert [operator_module.read(hub, "get_request", {"request_id": request_id})["target"]
            for request_id in request_ids] == [f"dev-{n}" for n in range(5)]
    assert operator_module.gas_spent - spent_before == sum(r.gas_used for r in receipts)
    with pytest.raises(ValidationError):
        operator_module.call_contract_chunked(
            hub, "create_requests", "requests", requests, chunk_size=0)


def test_interaction_module_requires_matching_key(node, de_app):
    stranger = KeyPair.from_name("stranger-without-funds")
    module = BlockchainInteractionModule(node, stranger)
    # The account exists only implicitly; a transaction from it still works at
    # zero balance as long as gas can be paid -> it cannot, so it fails or the
    # signature check passes but funds fail. Either way no exception type other
    # than our hierarchy should escape.
    with pytest.raises(Exception):
        module.call_contract(de_app, "register_pod", {"pod_url": "x", "owner": "y", "default_policy": {}})


def test_push_in_oracle_records_pod_and_resource(owner_module, de_app):
    push_in = PushInOracle(owner_module, de_app)
    receipt = push_in.push_pod_registration("https://pod.o", "https://id/o", sample_policy())
    assert receipt.status
    receipt = push_in.push_resource_registration(
        "https://pod.o/data/r1", "https://pod.o", "https://pod.o/data/r1", "https://id/o", sample_policy()
    )
    assert receipt.status
    assert push_in.messages_processed == 2


def test_pull_out_oracle_reads_resource_record(owner_module, operator_module, de_app):
    push_in = PushInOracle(owner_module, de_app)
    push_in.push_pod_registration("https://pod.o", "https://id/o", sample_policy())
    push_in.push_resource_registration(
        "https://pod.o/data/r1", "https://pod.o", "https://pod.o/data/r1", "https://id/o", sample_policy()
    )
    pull_out = PullOutOracle(operator_module, de_app)
    record = pull_out.resource_record("https://pod.o/data/r1")
    assert record["location"] == "https://pod.o/data/r1"
    assert pull_out.resource_policy("https://pod.o/data/r1")["target"] == "https://pod.o/data/r1"
    assert pull_out.list_resources() == ["https://pod.o/data/r1"]
    assert pull_out.messages_processed == 3


def test_push_out_oracle_delivers_live_events(owner_module, operator_module, de_app):
    push_out = PushOutOracle(operator_module, de_app)
    received = []
    push_out.subscribe("PodRegistered", received.append)
    push_in = PushInOracle(owner_module, de_app)
    push_in.push_pod_registration("https://pod.o", "https://id/o", sample_policy())
    assert len(received) == 1
    assert received[0].data["pod_url"] == "https://pod.o"
    assert push_out.messages_processed == 1


def test_push_out_oracle_replays_history_and_unsubscribes(owner_module, operator_module, de_app):
    push_in = PushInOracle(owner_module, de_app)
    push_in.push_pod_registration("https://pod.o", "https://id/o", sample_policy())
    push_out = PushOutOracle(operator_module, de_app)
    replayed = []
    count = push_out.replay("PodRegistered", replayed.append, from_block=0)
    assert count == 1 and len(replayed) == 1
    live = []
    push_out.subscribe("PodRegistered", live.append)
    push_out.unsubscribe_all()
    push_in.push_pod_registration("https://pod.o2", "https://id/o", sample_policy())
    assert live == []


def test_pull_in_oracle_serves_registered_requests(owner_module, operator_module, hub):
    pull_in = PullInOracle(owner_module, hub)
    pull_in.register_provider("usage_evidence", lambda payload: {"compliant": True, "echo": payload})
    pull_in.authorize_on_chain()
    request_id = operator_module.call_contract(
        hub, "create_request", {"kind": "usage_evidence", "payload": {"resource_id": "r1"}}
    ).return_value
    assert pull_in.pending_requests() == [request_id]
    pull_in.serve_request(request_id)
    record = operator_module.read(hub, "get_request", {"request_id": request_id})
    assert record["fulfilled"] and record["response"]["compliant"]
    assert record["response"]["echo"] == {"resource_id": "r1"}


def test_pull_in_oracle_skips_unknown_kinds(owner_module, operator_module, hub):
    pull_in = PullInOracle(owner_module, hub)
    pull_in.register_provider("usage_evidence", lambda payload: {"compliant": True})
    pull_in.authorize_on_chain()
    operator_module.call_contract(hub, "create_request", {"kind": "price_feed", "payload": {}})
    operator_module.call_contract(hub, "create_request", {"kind": "usage_evidence", "payload": {}})
    served = pull_in.serve_pending()
    assert served == 1
    assert len(pull_in.pending_requests()) == 1


def test_pull_in_oracle_requires_provider_for_direct_serve(owner_module, operator_module, hub):
    pull_in = PullInOracle(owner_module, hub)
    pull_in.authorize_on_chain()
    request_id = operator_module.call_contract(
        hub, "create_request", {"kind": "usage_evidence", "payload": {}}
    ).return_value
    with pytest.raises(LookupError):
        pull_in.serve_request(request_id)


def test_network_latency_is_accounted(owner_module, de_app):
    start = owner_module.network.total_latency
    PushInOracle(owner_module, de_app).push_pod_registration("https://pod.x", "https://id/o", sample_policy())
    assert owner_module.network.total_latency > start


# -- pull-in fault injection (adversarial off-chain components) -------------------


def make_faulty_pull_in(owner_module, hub, mode):
    pull_in = PullInOracle(owner_module, hub)
    calls = []

    def provider(payload):
        calls.append(dict(payload))
        return {"compliant": True, "generatedAt": float(len(calls)), "answer": len(calls)}

    pull_in.register_provider("usage_evidence", provider)
    pull_in.authorize_on_chain()
    pull_in.inject_fault(mode)
    return pull_in, calls


def test_unresponsive_fault_leaves_the_request_pending(owner_module, operator_module, hub):
    pull_in, calls = make_faulty_pull_in(owner_module, hub, "unresponsive")
    request_id = operator_module.call_contract(
        hub, "create_request", {"kind": "usage_evidence", "payload": {"resource_id": "r1"}}
    ).return_value
    assert pull_in.serve_request(request_id) is None
    assert calls == []
    record = operator_module.read(hub, "get_request", {"request_id": request_id})
    assert not record["fulfilled"]
    # Healing the component lets it serve again.
    pull_in.inject_fault(None)
    assert pull_in.serve_request(request_id) is not None
    assert operator_module.read(hub, "get_request", {"request_id": request_id})["fulfilled"]


def test_stale_replay_fault_repeats_the_first_answer(owner_module, operator_module, hub):
    pull_in, calls = make_faulty_pull_in(owner_module, hub, "stale-replay")
    responses = []
    for _ in range(3):
        request_id = operator_module.call_contract(
            hub, "create_request", {"kind": "usage_evidence", "payload": {"resource_id": "r1"}}
        ).return_value
        pull_in.serve_request(request_id)
        responses.append(
            operator_module.read(hub, "get_request", {"request_id": request_id})["response"]
        )
    # The provider was consulted once; later requests got the cached answer.
    assert len(calls) == 1
    assert responses[0] == responses[1] == responses[2]
    # A different resource gets its own fresh answer.
    other = operator_module.call_contract(
        hub, "create_request", {"kind": "usage_evidence", "payload": {"resource_id": "r2"}}
    ).return_value
    pull_in.serve_request(other)
    assert len(calls) == 2


def test_tamper_fault_forges_compliance_and_hides_the_trail(owner_module, operator_module, hub):
    pull_in = PullInOracle(owner_module, hub)
    pull_in.register_provider(
        "usage_evidence",
        lambda payload: {
            "compliant": False,
            "compliance": {"compliant": False, "pendingDuties": ["duty-1"]},
            "usageSummary": {"events": 7},
        },
    )
    pull_in.authorize_on_chain()
    pull_in.inject_fault("tamper-compliant")
    request_id = operator_module.call_contract(
        hub, "create_request", {"kind": "usage_evidence", "payload": {"resource_id": "r1"}}
    ).return_value
    pull_in.serve_request(request_id)
    response = operator_module.read(hub, "get_request", {"request_id": request_id})["response"]
    assert response["compliant"] is True
    assert response["compliance"] == {"compliant": True, "pendingDuties": []}
    assert response["usageSummary"] == {}


def test_unknown_fault_mode_is_rejected(owner_module, hub):
    pull_in = PullInOracle(owner_module, hub)
    with pytest.raises(Exception):
        pull_in.inject_fault("slow-loris")
    assert pull_in.fault_mode is None
