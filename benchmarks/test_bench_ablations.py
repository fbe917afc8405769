"""Ablations over three design choices of the architecture (see the README).

* **Block interval** — latency vs cost amortization: a longer Proof-of-
  Authority block interval delays confirmation of every push-in operation but
  does not change its gas cost.
* **Monitoring mode** — push-based (devices volunteer evidence whenever a
  round opens) vs the paper's pull-based round-trip through the oracle hub:
  the pull-based flow costs a fulfillment transaction per holder plus the
  request fan-out and recording batches, but gives the DE App an explicit,
  auditable request trail.
* **Policy storage** — storing the full usage policy on-chain vs anchoring
  only its hash: hash anchoring cuts the gas of resource initiation and
  policy updates, at the price of needing an off-chain channel for the policy
  body (the trade-off discussed under privacy/affordability).
"""

from __future__ import annotations

import pytest

from repro.common.clock import DAY, WEEK, MONTH
from repro.common.serialization import stable_hash
from repro.core.processes import policy_modification, policy_monitoring, pod_initiation
from repro.policy.serialization import policy_to_dict
from repro.policy.templates import retention_policy

from bench_helpers import (
    RESOURCE_CONTENT,
    consumers_with_copies,
    deploy_owner_with_resource,
    fresh_architecture,
)


# -- ablation 1: block interval -------------------------------------------------------------


@pytest.mark.parametrize("block_interval", [1.0, 5.0, 15.0])
def test_ablation_block_interval(benchmark, report, block_interval):
    """Confirmation latency scales with the block interval; gas does not."""

    def run():
        architecture = fresh_architecture(block_interval=block_interval)
        owner = architecture.register_owner("owner")
        start_time = architecture.clock.now()
        trace = pod_initiation(architecture, owner)
        # In this deployment blocks are produced on submission, so the
        # simulated confirmation latency is the block interval itself.
        confirmation = architecture.config.block_interval
        return trace, confirmation, architecture.clock.now() - start_time

    trace, confirmation, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    report(f"ablation block_interval={block_interval}s", gas=trace.gas_used,
           confirmation_latency_s=confirmation)
    assert trace.gas_used > 0


# -- ablation 2: monitoring mode -------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("holders", [2, 4])
def test_ablation_monitoring_pull_vs_push(benchmark, report, holders):
    """Transactions per monitoring round: pull-based (paper) vs push-based."""
    # Pull-based: the coordinator's round enqueues every request in one
    # transaction, confirms one fulfillment per holder in one block, and
    # records the evidence in one batch transaction.
    architecture = fresh_architecture()
    owner, resource_id = deploy_owner_with_resource(architecture, retention=MONTH)
    consumers_with_copies(architecture, owner, resource_id, holders)
    pull_trace = policy_monitoring(architecture, owner, "/data/dataset.bin")

    # Push-based alternative: every holder watches MonitoringRequested events
    # and submits its evidence directly, skipping the oracle hub round trip.
    architecture2 = fresh_architecture()
    owner2, resource_id2 = deploy_owner_with_resource(architecture2, retention=MONTH)
    consumers2 = consumers_with_copies(architecture2, owner2, resource_id2, holders)
    start_txs = sum(len(b.transactions) for b in architecture2.node.chain.blocks)
    start_gas = architecture2.total_gas_used()
    owner2.request_monitoring("/data/dataset.bin")
    logs = architecture2.node.get_logs(address=architecture2.dist_exchange_address,
                                       event="MonitoringRequested")
    round_id = logs[-1].data["round_id"]
    for consumer in consumers2:
        evidence = consumer.trusted_app.provide_evidence(resource_id2)
        consumer.module.call_contract(
            architecture2.dist_exchange_address,
            "record_usage_evidence",
            {"round_id": round_id, "device_id": consumer.device_id, "evidence": evidence},
        )
    push_txs = sum(len(b.transactions) for b in architecture2.node.chain.blocks) - start_txs
    push_gas = architecture2.total_gas_used() - start_gas

    report(f"ablation monitoring holders={holders}",
           pull_transactions=pull_trace.transactions, pull_gas=pull_trace.gas_used,
           push_transactions=push_txs, push_gas=push_gas)
    # Both flows open the round with one transaction.  The pull-based flow
    # adds the request batch, one fulfillment per holder and the recording
    # batch; the push-based flow records one piece of evidence per holder.
    # Push is cheaper but loses the explicit on-chain request trail.
    assert pull_trace.transactions == 3 + holders
    assert push_txs == 1 + holders
    assert push_gas < pull_trace.gas_used


# -- ablation 3: on-chain policy body vs hash anchoring ------------------------------------------


def test_ablation_policy_storage_full_vs_hash(benchmark, report):
    """Gas of registering a resource with the full policy vs only its hash."""
    architecture = fresh_architecture()
    owner, resource_id = deploy_owner_with_resource(architecture, retention=MONTH)
    policy = retention_policy(resource_id, owner.webid.iri, WEEK, issued_at=architecture.clock.now())

    # Full policy body on-chain (the default path used by the architecture).
    full_receipt = owner.push_in.push_policy_update(resource_id, policy_to_dict(policy), owner.webid.iri)

    # Hash anchoring: only a commitment to the policy goes on-chain.
    anchored = {"policy_hash": stable_hash(policy_to_dict(policy)), "version": policy.version}
    hash_receipt = owner.push_in.push_policy_update(resource_id, anchored, owner.webid.iri)

    report("ablation policy storage", full_policy_gas=full_receipt.gas_used,
           hash_anchor_gas=hash_receipt.gas_used,
           saving_percent=round(100 * (1 - hash_receipt.gas_used / full_receipt.gas_used)))
    from bench_helpers import bench_row, emit_bench_json

    emit_bench_json("ablations", [
        bench_row("policy_storage_gas", ["full-policy", "hash-anchor"],
                  [full_receipt.gas_used, hash_receipt.gas_used]),
    ])
    assert hash_receipt.gas_used < full_receipt.gas_used
