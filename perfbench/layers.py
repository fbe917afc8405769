"""What the benchmark instruments, and how spans become per-layer metrics.

``PROBES`` are wrapped on every run, traced or not: each is called at most
a few times per phase (the run itself, architecture construction, each
monitoring round, cold start and restart, chain replay) plus the
pull-in serve path, whose calls in the parent of a sharded round reveal a
silent in-process fallback.  ``LAYERS`` are wrapped only on traced runs.

Layer names follow the package layout: ``crypto`` (``blockchain.crypto``,
``fastec``), ``vm``, ``state``, ``serialization`` (``common.serialization``),
``chain``, ``network``, ``store`` (``ChainStore``), ``enclave`` (``tee``),
``pull_in`` (``oracles``) and ``monitoring`` (``core.monitoring``).  Spans
named in ``CONTAINERS`` belong to no layer: their self time is the run's
unattributed time.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from tracer import Target, Tracer

PROBES: List[Target] = [
    Target("repro.core.runner:ScenarioRunner.run", "scenario"),
    Target("repro.core.architecture:UsageControlArchitecture.__init__", "architecture.init"),
    Target("repro.core.monitoring:MonitoringCoordinator.run_round", "monitoring.run_round"),
    Target("repro.oracles.pull_in:PullInOracle.serve_request", "pull_in.serve_request"),
    Target("repro.blockchain.node:BlockchainNode.open_from_disk", "node.open_from_disk"),
    Target("repro.blockchain.network:BlockchainNetwork.restart_validator",
           "network.restart_validator"),
    Target("repro.blockchain.chain:Blockchain.replay", "chain.replay"),
]

LAYERS: List[Target] = [
    # crypto
    Target("repro.blockchain.crypto:sign", "crypto.sign"),
    Target("repro.blockchain.crypto:verify", "crypto.verify"),
    Target("repro.blockchain.crypto:verify_batch", "crypto.verify_batch",
           amount=lambda args, kwargs, result: len(result)),
    Target("repro.blockchain.crypto:KeyPair.generate", "crypto.keygen"),
    Target("repro.blockchain.fastec:shamir_mul", "crypto.ladder", span=False),
    # vm
    Target("repro.blockchain.vm:ContractVM.execute_transaction", "vm.execute",
           amount=lambda args, kwargs, result: 0 if result.status else 1),
    Target("repro.blockchain.vm:ContractVM.call_readonly", "vm.call_readonly"),
    # state
    Target("repro.blockchain.state:WorldState.state_root", "state.root"),
    # serialization
    Target("repro.common.serialization:canonical_json", "serialization.canonical_json",
           amount=lambda args, kwargs, result: len(result)),
    Target("repro.common.serialization:binary_encode", "serialization.binary_encode"),
    # chain
    Target("repro.blockchain.node:BlockchainNode.produce_block", "chain.produce_block"),
    Target("repro.blockchain.chain:Blockchain.build_block", "chain.build_block"),
    Target("repro.blockchain.chain:Blockchain.append_block", "chain.append_block"),
    Target("repro.blockchain.chain:Blockchain.receive_block", "chain.receive_block"),
    Target("repro.blockchain.chain:Blockchain.load_from_store", "chain.load_from_store"),
    Target("repro.blockchain.chain:Blockchain.verify_chain", "chain.verify_chain"),
    Target("repro.oracles.base:BlockchainInteractionModule.send_transaction",
           "chain.send_transaction"),
    # network
    Target("repro.blockchain.network:BlockchainNetwork._deliver", "network.deliver"),
    Target("repro.blockchain.node:BlockchainNode.import_block", "network.import_block"),
    # store
    Target("repro.blockchain.storage:ChainStore.append_block_payload", "store.append",
           amount=lambda args, kwargs, result: len(args[1])),
    Target("os:fsync", "store.fsync"),
    Target("repro.blockchain.storage:ChainStore._write_manifest", "store.manifest"),
    Target("repro.blockchain.storage:ChainStore.write_pending_snapshot", "store.snapshot",
           amount=lambda args, kwargs, result: os.path.getsize(result)),
    Target("repro.blockchain.storage:ChainStore.promote_snapshots_up_to", "store.promote"),
    Target("repro.blockchain.storage:ChainStore.open", "store.open"),
    # tee
    Target("repro.tee.enclave:TrustedExecutionEnvironment.usage_evidence",
           "enclave.usage_evidence"),
    Target("repro.tee.enclave:TrustedExecutionEnvironment.store_resource",
           "enclave.store_resource"),
    Target("repro.tee.enclave:TrustedExecutionEnvironment.enforce_policies",
           "enclave.enforce_policies"),
    # oracles
    Target("repro.oracles.pull_in:PullInOracle.fulfill_served", "pull_in.fulfill_served"),
    # monitoring
    Target("repro.core.monitoring:verify_evidence", "monitoring.verify_evidence"),
    Target("repro.core.monitoring:MonitoringCoordinator._serve_sharded",
           "monitoring.serve_sharded"),
]

CONTAINERS = ("scenario", "architecture.init", "monitoring.run_round")

# name -> (unit, better) of every per-layer metric, in report order.  The
# comment above each group names the end-to-end metric it should move.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # setup_s and access_ms.mean on market; round_s.mean on rounds-sharded,
    # where evidence is signed and screened every round.  Replicas share the
    # verdict cache, so re-verification on durable-replicas stays flat.
    "crypto.sign_s": ("s", "lower"),
    "crypto.sign.calls": ("count", "lower"),
    "crypto.verify_s": ("s", "lower"),
    "crypto.verify.calls": ("count", "lower"),
    "crypto.verify_batch_s": ("s", "lower"),
    "crypto.verify_batch.items": ("count", "lower"),
    "crypto.keygen_s": ("s", "lower"),
    "crypto.ladders": ("count", "lower"),
    "crypto.verdict_hit_ratio": ("ratio", "higher"),
    # access_ms.mean on market; three times over on durable-replicas.
    "vm.execute_s": ("s", "lower"),
    "vm.txs": ("count", "lower"),
    "vm.failed_txs": ("count", "lower"),
    "vm.call_readonly_s": ("s", "lower"),
    # access_ms.mean and setup_s on market.
    "state.root_s": ("s", "lower"),
    "state.root.calls": ("count", "lower"),
    # Every workload; heaviest in round_s.mean (evidence bodies).
    "serialization.canonical_json_s": ("s", "lower"),
    "serialization.canonical_json.calls": ("count", "lower"),
    "serialization.canonical_json.bytes": ("B", "lower"),
    "serialization.binary_encode_s": ("s", "lower"),
    # access_ms.mean on all three workloads.
    "chain.produce_block_s": ("s", "lower"),
    "chain.build_block_s": ("s", "lower"),
    "chain.append_block_s": ("s", "lower"),
    "chain.receive_block_s": ("s", "lower"),
    "chain.send_transaction_s": ("s", "lower"),
    "chain.blocks": ("count", "lower"),
    "chain.txs_per_block": ("count", "higher"),
    "chain.load_from_store_s": ("s", "lower"),
    # access_ms.mean and converge_s on durable-replicas; idle elsewhere.
    "network.deliver_s": ("s", "lower"),
    "network.blocks_delivered": ("count", "lower"),
    "network.resync_s": ("s", "lower"),
    "network.resync_blocks": ("count", "lower"),
    # access_ms.p95 and setup_s on durable-replicas (the tail tracks
    # snapshot writes); store.open_s and chain.load_from_store_s move
    # cold_start_s.  Idle on market and rounds-sharded.
    "store.append_s": ("s", "lower"),
    "store.append.calls": ("count", "lower"),
    "store.append.bytes": ("B", "lower"),
    "store.fsync_s": ("s", "lower"),
    "store.fsync.calls": ("count", "lower"),
    "store.manifest_writes": ("count", "lower"),
    "store.snapshot_s": ("s", "lower"),
    "store.snapshot.bytes": ("B", "lower"),
    "store.promote_s": ("s", "lower"),
    "store.open_s": ("s", "lower"),
    # round_s.mean on rounds-sharded (seen from the parent only when rounds
    # run in-process); access_ms.mean on market.
    "enclave.usage_evidence_s": ("s", "lower"),
    "enclave.usage_evidence.calls": ("count", "lower"),
    "enclave.store_resource_s": ("s", "lower"),
    "enclave.enforce_policies_s": ("s", "lower"),
    # fulfill_served is the parent's replay of a sharded round: round_s.mean
    # on rounds-sharded, zero elsewhere.
    "pull_in.serve_request_s": ("s", "lower"),
    "pull_in.serve_request.calls": ("count", "lower"),
    "pull_in.fulfill_served_s": ("s", "lower"),
    "pull_in.fulfill_served.calls": ("count", "lower"),
    # round_s.mean on rounds-sharded; worker_wait_s is the parent's wall
    # around the forked workers, whose own spans die with them.
    "monitoring.run_round_s": ("s", "lower"),
    "monitoring.verify_evidence_s": ("s", "lower"),
    "monitoring.verify_evidence.calls": ("count", "lower"),
    "monitoring.worker_wait_s": ("s", "lower"),
    "monitoring.fallback_rounds": ("count", "lower"),
    # Whole-run and in-round share of time whose innermost span is no layer.
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.unattributed_share.round": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def scenario_span(tracer: Tracer) -> int:
    """The (single) span of ``ScenarioRunner.run`` in this process."""
    spans = tracer.spans_named("scenario")
    if len(spans) != 1:
        raise RuntimeError(f"expected one scenario span, found {len(spans)}")
    return spans[0]


def fallback_rounds(tracer: Tracer, workers: int) -> int:
    """Sharded rounds in which the parent served pull-in requests itself.

    With ``workers > 1`` a healthy round serves every request in forked
    workers, so any ``serve_request`` span recorded in this process inside
    a round means the sharded path silently fell back to in-process serving.
    """
    if workers <= 1:
        return 0
    rounds = set()
    for span in tracer.spans_named("pull_in.serve_request"):
        owner = tracer.enclosing(span, "monitoring.run_round")
        if owner is not None:
            rounds.add(owner)
    return len(rounds)


def layer_metrics(tracer: Tracer, counts: Dict[str, Tuple[int, int]], workers: int,
                  restart: Dict[str, float], chain_blocks: int,
                  chain_txs: int) -> Dict[str, float]:
    """Per-layer metrics of the scenario run.

    *counts* maps each target name to its ``(calls, amount)`` over the run;
    spans outside the run are ignored.  *restart* holds a durable run's
    cold start, convergence and resynced blocks (empty otherwise).  ``_s`` values are self times except
    ``monitoring.run_round_s`` and ``network.deliver_s``, which are
    inclusive: a whole round, and the whole re-execution of each block on
    the non-proposing replicas.
    """
    root = scenario_span(tracer)
    selfs = tracer.self_times()
    self_s: Dict[str, float] = dict.fromkeys(tracer.names, 0.0)
    for span in tracer.subtree(root):
        self_s[tracer.names[tracer.span_name[span]]] += selfs[span]
    calls = {name: pair[0] for name, pair in counts.items()}
    amounts = {name: pair[1] for name, pair in counts.items()}

    lookups = calls["crypto.verify"] + amounts["crypto.verify_batch"]
    delivered = [
        span for span in tracer.spans_named("network.import_block")
        if tracer.enclosing(span, "network.deliver") is not None
    ]
    rounds = tracer.spans_named("monitoring.run_round")
    round_wall = sum(tracer.duration(span) for span in rounds)
    unattributed = sum(self_s[name] for name in CONTAINERS)
    return {
        "crypto.sign_s": self_s["crypto.sign"],
        "crypto.sign.calls": calls["crypto.sign"],
        "crypto.verify_s": self_s["crypto.verify"],
        "crypto.verify.calls": calls["crypto.verify"],
        "crypto.verify_batch_s": self_s["crypto.verify_batch"],
        "crypto.verify_batch.items": amounts["crypto.verify_batch"],
        "crypto.keygen_s": self_s["crypto.keygen"],
        "crypto.ladders": calls["crypto.ladder"],
        "crypto.verdict_hit_ratio": 1 - calls["crypto.ladder"] / lookups,
        "vm.execute_s": self_s["vm.execute"],
        "vm.txs": calls["vm.execute"],
        "vm.failed_txs": amounts["vm.execute"],
        "vm.call_readonly_s": self_s["vm.call_readonly"],
        "state.root_s": self_s["state.root"],
        "state.root.calls": calls["state.root"],
        "serialization.canonical_json_s": self_s["serialization.canonical_json"],
        "serialization.canonical_json.calls": calls["serialization.canonical_json"],
        "serialization.canonical_json.bytes": amounts["serialization.canonical_json"],
        "serialization.binary_encode_s": self_s["serialization.binary_encode"],
        "chain.produce_block_s": self_s["chain.produce_block"],
        "chain.build_block_s": self_s["chain.build_block"],
        "chain.append_block_s": self_s["chain.append_block"],
        "chain.receive_block_s": self_s["chain.receive_block"],
        "chain.send_transaction_s": self_s["chain.send_transaction"],
        "chain.blocks": chain_blocks,
        "chain.txs_per_block": chain_txs / chain_blocks,
        "chain.load_from_store_s": self_s["chain.load_from_store"],
        "network.deliver_s": sum(
            tracer.duration(span) for span in tracer.spans_named("network.deliver")
        ),
        "network.blocks_delivered": len(delivered),
        "network.resync_s": restart.get("converge_s", 0.0) - restart.get("cold_start_s", 0.0),
        "network.resync_blocks": restart.get("resync_blocks", 0),
        "store.append_s": self_s["store.append"],
        "store.append.calls": calls["store.append"],
        "store.append.bytes": amounts["store.append"],
        "store.fsync_s": self_s["store.fsync"],
        "store.fsync.calls": calls["store.fsync"],
        "store.manifest_writes": calls["store.manifest"],
        "store.snapshot_s": self_s["store.snapshot"],
        "store.snapshot.bytes": amounts["store.snapshot"],
        "store.promote_s": self_s["store.promote"],
        "store.open_s": self_s["store.open"],
        "enclave.usage_evidence_s": self_s["enclave.usage_evidence"],
        "enclave.usage_evidence.calls": calls["enclave.usage_evidence"],
        "enclave.store_resource_s": self_s["enclave.store_resource"],
        "enclave.enforce_policies_s": self_s["enclave.enforce_policies"],
        "pull_in.serve_request_s": self_s["pull_in.serve_request"],
        "pull_in.serve_request.calls": calls["pull_in.serve_request"],
        "pull_in.fulfill_served_s": self_s["pull_in.fulfill_served"],
        "pull_in.fulfill_served.calls": calls["pull_in.fulfill_served"],
        "monitoring.run_round_s": round_wall,
        "monitoring.verify_evidence_s": self_s["monitoring.verify_evidence"],
        "monitoring.verify_evidence.calls": calls["monitoring.verify_evidence"],
        "monitoring.worker_wait_s": self_s["monitoring.serve_sharded"],
        "monitoring.fallback_rounds": fallback_rounds(tracer, workers),
        "trace.unattributed_share": unattributed / tracer.duration(root),
        "trace.unattributed_share.round": sum(selfs[span] for span in rounds) / round_wall,
    }
