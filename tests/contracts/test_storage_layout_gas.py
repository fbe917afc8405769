"""Regression pins for the per-entry contract storage layout.

``record_access_grant`` and ``record_usage_evidence`` touch O(their own
entries), so their gas cost must not grow with the number of *unrelated*
resources, grants, or monitoring rounds in the DE App.  The remaining tests
pin round bookkeeping on the same layout: zero-holder rounds, mid-batch
closes and duplicate device grants.
"""

import pytest

from repro.policy.serialization import policy_to_dict
from repro.policy.templates import retention_policy


@pytest.fixture
def de_app(operator_module) -> str:
    return operator_module.deploy_contract("DistExchangeApp")


def policy_dict(resource_id="https://pod.alice/data/r-000"):
    return policy_to_dict(retention_policy(resource_id, "https://id/alice", retention_seconds=604800))


def register_world(module, de_app, resources):
    """One pod plus *resources* same-length resource ids."""
    module.call_contract(
        de_app,
        "register_pod",
        {"pod_url": "https://pod.alice", "owner": "https://id/alice", "default_policy": policy_dict()},
    )
    ids = [f"https://pod.alice/data/r-{index:03d}" for index in range(resources)]
    for resource_id in ids:
        module.call_contract(
            de_app,
            "register_resource",
            {
                "resource_id": resource_id,
                "pod_url": "https://pod.alice",
                "location": resource_id,
                "owner": "https://id/alice",
                "policy": policy_dict(resource_id),
            },
        )
    return ids


def grant_gas(module, de_app, resource_id, device_id):
    receipt = module.call_contract(
        de_app,
        "record_access_grant",
        {"resource_id": resource_id, "consumer": "https://id/bob", "device_id": device_id},
    )
    return receipt.gas_used


def test_grant_gas_does_not_grow_with_unrelated_resources(operator_module, de_app):
    ids = register_world(operator_module, de_app, 12)
    baseline = grant_gas(operator_module, de_app, ids[0], "device-aa")
    # Pile unrelated state onto every other resource: grants and rounds.
    for resource_id in ids[1:]:
        grant_gas(operator_module, de_app, resource_id, "device-xx")
        operator_module.call_contract(
            de_app, "start_monitoring", {"resource_id": resource_id, "requested_by": "https://id/alice"}
        )
    crowded = grant_gas(operator_module, de_app, ids[0], "device-bb")
    assert crowded == baseline


def test_evidence_gas_does_not_grow_with_unrelated_rounds(operator_module, de_app):
    ids = register_world(operator_module, de_app, 10)
    for resource_id in ids:
        grant_gas(operator_module, de_app, resource_id, "device-aa")

    def open_round(resource_id):
        return operator_module.call_contract(
            de_app, "start_monitoring", {"resource_id": resource_id, "requested_by": "https://id/alice"}
        ).return_value

    def evidence_gas(round_id):
        return operator_module.call_contract(
            de_app,
            "record_usage_evidence",
            {"round_id": round_id, "device_id": "device-aa", "evidence": {"compliant": True, "n": 1}},
        ).gas_used

    first_round = open_round(ids[0])                 # later rounds keep comparable ids
    baseline = None
    for resource_id in ids[1:]:
        round_id = open_round(resource_id)
        gas = evidence_gas(round_id)
        if baseline is None:
            baseline = gas                           # earliest comparable round
    crowded = evidence_gas(first_round)
    # Identical work on the first round after 9 unrelated rounds filled the
    # contract; a small delta (< 0.5%) is allowed for event-payload digits.
    assert abs(crowded - baseline) <= baseline * 0.005


def test_start_monitoring_gas_does_not_grow_with_unrelated_state(operator_module, de_app):
    ids = register_world(operator_module, de_app, 8)
    grant_gas(operator_module, de_app, ids[0], "device-aa")
    baseline = operator_module.call_contract(
        de_app, "start_monitoring", {"resource_id": ids[0], "requested_by": "https://id/alice"}
    ).gas_used
    for resource_id in ids[1:]:
        for device in ("device-xx", "device-yy"):
            grant_gas(operator_module, de_app, resource_id, device)
        operator_module.call_contract(
            de_app, "start_monitoring", {"resource_id": resource_id, "requested_by": "https://id/alice"}
        )
    crowded = operator_module.call_contract(
        de_app, "start_monitoring", {"resource_id": ids[0], "requested_by": "https://id/alice"}
    ).gas_used
    assert abs(crowded - baseline) <= baseline * 0.005


def test_zero_holder_round_closes_on_first_evidence(operator_module, de_app):
    ids = register_world(operator_module, de_app, 1)   # resource with no grants
    round_id = operator_module.call_contract(
        de_app, "start_monitoring", {"resource_id": ids[0], "requested_by": "https://id/alice"}
    ).return_value
    assert not operator_module.read(de_app, "get_monitoring_round", {"round_id": round_id})["closed"]
    operator_module.call_contract(
        de_app,
        "record_usage_evidence",
        {"round_id": round_id, "device_id": "stray-device", "evidence": {"compliant": True}},
    )
    assert operator_module.read(de_app, "get_monitoring_round", {"round_id": round_id})["closed"]


def test_evidence_batch_rejects_items_after_mid_batch_close(operator_module, de_app):
    ids = register_world(operator_module, de_app, 1)
    for device in ("device-aa", "device-bb"):
        grant_gas(operator_module, de_app, ids[0], device)
    round_id = operator_module.call_contract(
        de_app, "start_monitoring", {"resource_id": ids[0], "requested_by": "https://id/alice"}
    ).return_value
    result = operator_module.call_contract(
        de_app,
        "record_usage_evidence_batch",
        {
            "round_id": round_id,
            "evidence_items": [
                {"device_id": "device-aa", "evidence": {"compliant": True}},
                {"device_id": "device-bb", "evidence": {"compliant": True}},
                {"device_id": "device-cc", "evidence": {"compliant": True}},  # round closed by bb
            ],
        },
    ).return_value
    assert result == {"round_id": round_id, "recorded": 2, "rejected": ["device-cc"], "closed": True}
    round_record = operator_module.read(de_app, "get_monitoring_round", {"round_id": round_id})
    # The rejected item left no trace — same as its individual transaction
    # reverting in the sequential flow.
    assert sorted(round_record["responses"]) == ["device-aa", "device-bb"]
    assert len(operator_module.read(de_app, "get_evidence", {"resource_id": ids[0]})) == 2


def test_duplicate_device_grants_count_as_one_holder(operator_module, de_app):
    ids = register_world(operator_module, de_app, 1)
    grant_gas(operator_module, de_app, ids[0], "device-aa")
    grant_gas(operator_module, de_app, ids[0], "device-aa")   # second copy, same device
    receipt = operator_module.call_contract(
        de_app, "start_monitoring", {"resource_id": ids[0], "requested_by": "https://id/alice"}
    )
    assert receipt.logs[0].data["holders"] == ["device-aa"]   # deduplicated fan-out
    round_id = receipt.return_value
    operator_module.call_contract(
        de_app,
        "record_usage_evidence",
        {"round_id": round_id, "device_id": "device-aa", "evidence": {"compliant": True}},
    )
    round_record = operator_module.read(de_app, "get_monitoring_round", {"round_id": round_id})
    assert round_record["holders"] == ["device-aa"]
    assert round_record["closed"] is True                     # one answer closes the round
