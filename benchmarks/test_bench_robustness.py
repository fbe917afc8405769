"""E9 (Section V-2, robustness): availability and integrity under validator faults.

The paper claims "if an attack succeeds in bringing down one of the nodes,
the blockchain ecosystem can continue to operate by relying on the rest of
the nodes."  This benchmark exercises that claim on the node-backed
validator network — every validator a full :class:`BlockchainNode` replica
with its own mempool, event filters, and block tree — across three fault
classes:

* **crash** — a growing number of failed validators out of four; throughput
  degrades proportionally to the failed fraction (skipped slots), never to
  zero, and the surviving replicas stay consistent;
* **crash + recovery** — a recovered validator resyncs block-by-block from
  a peer and converges to the canonical head;
* **Byzantine equivocation** — a validator double-seals its slot; every
  replica records the slashable proof, fork-choice converges the honest
  replicas, and the canonical chain still replays from genesis.

Rows are emitted to ``BENCH_robustness.json`` at the repo root in the
shared ``{metric, populations, values, pinned_ratio}`` schema; CI uploads
it with the other benchmark artifacts.
"""

from __future__ import annotations

import shutil
import time

import pytest

from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.network import BlockchainNetwork
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.core.architecture import ArchitectureConfig, UsageControlArchitecture

from bench_helpers import bench_row, emit_bench_json

SLOTS = 12
COLD_START_REPEATS = 5  # timed cold starts per path and size; the best one counts
SENDER = KeyPair.from_name("rob-sender")


def _network(num_validators: int = 4) -> BlockchainNetwork:
    return BlockchainNetwork(
        num_validators=num_validators,
        genesis_balances={SENDER.address: 10**9},
    )


def _transfers(network: BlockchainNetwork, count: int, start_nonce: int = 0) -> None:
    recipient = KeyPair.from_name("rob-recipient")
    for offset in range(count):
        tx = Transaction(
            sender=SENDER.address, to=recipient.address, data={},
            value=1, nonce=start_nonce + offset,
        )
        network.broadcast_transaction(tx.sign(SENDER))


def test_e9_availability_under_crash_faults(report):
    """Blocks produced over 12 slots with 0/1/2 of 4 validators down."""
    failed_counts = [0, 1, 2]
    produced_counts = []
    for failed in failed_counts:
        network = _network(4)
        for index in range(failed):
            network.fail_validator(index + 1)  # keep the primary up
        _transfers(network, 3)
        produced = network.produce_blocks(SLOTS)
        assert network.is_available
        assert network.consistent()
        assert not network.liveness_report()["violations"]
        # Throughput degrades proportionally to the failed fraction.
        assert len(produced) == SLOTS - network.skipped_slots
        assert len(produced) >= SLOTS * (4 - failed) // 4
        produced_counts.append(len(produced))
        report(f"E9 availability failed={failed}/4", slots=SLOTS,
               blocks_produced=len(produced), skipped=network.skipped_slots,
               consistent=network.consistent())
    emit_bench_json("robustness", [
        bench_row("blocks_per_12_slots_vs_failed", failed_counts, produced_counts,
                  pinned_ratio=round(produced_counts[-1] / SLOTS, 2)),
    ])


def test_e9_recovery_resync(report):
    """A crashed validator catches up block-by-block after recovery."""
    network = _network(3)
    _transfers(network, 2)
    network.produce_blocks(3)
    network.fail_validator(2)
    _transfers(network, 3, start_nonce=2)
    network.produce_blocks(6)
    lag = network.primary.chain.height - network.validators[2].chain.height
    assert lag > 0
    started = time.perf_counter()
    network.recover_validator(2)
    resync_seconds = time.perf_counter() - started
    assert network.consistent(), network.heads()
    assert network.validators[2].chain.verify_chain(replay=True)
    report("E9 recovery", lag_blocks=lag, resync_ms=round(resync_seconds * 1e3, 2))
    emit_bench_json("robustness", [
        bench_row("resync_ms_per_lagging_block", [lag],
                  [round(resync_seconds * 1e3 / lag, 2)]),
    ])


def test_e9_equivocation_detection_and_convergence(report):
    """A double-sealing validator is detected, slashed, and out-converged."""
    network = _network(3)
    _transfers(network, 2)
    network.produce_blocks(2)
    network.equivocate_validator(2)
    _transfers(network, 2, start_nonce=2)
    started = time.perf_counter()
    network.produce_blocks(2)  # the Byzantine slot plus one honest mop-up slot
    elapsed = time.perf_counter() - started

    assert len(network.equivocation_proofs) == 1
    proof = network.equivocation_proofs[0]
    assert proof.proposer == network.validators[2].address
    assert proof.verify()
    assert network.validators[2].slashed
    assert network.honest_heads_converged()
    for validator in network.honest_validators():
        assert validator.chain.verify_chain(replay=True)
    report("E9 equivocation", detected=True, proposer=proof.proposer,
           convergence_ms=round(elapsed * 1e3, 2))
    emit_bench_json("robustness", [
        bench_row("equivocation_detected_and_converged", [3],
                  [1 if network.honest_heads_converged() else 0], pinned_ratio=1.0),
        bench_row("equivocation_convergence_ms", [3], [round(elapsed * 1e3, 2)]),
    ])


def _durable_chain_with_consumers(directory: str, consumers: int,
                                  snapshot_interval: int = 8,
                                  max_reorg_depth: int = 8):
    """A persisted single-validator chain whose state holds *consumers* accounts.

    Signatures are disabled so the measurement isolates what the two
    recovery paths actually differ in: re-executing the whole chain versus
    loading a snapshot and re-executing only the non-final tail.
    """
    key = KeyPair.from_name("rec-validator")
    consensus = ProofOfAuthority(validators=[key.address], block_interval=5.0)
    node = BlockchainNode(
        consensus, key,
        genesis_balances={key.address: 10**12},
        require_signatures=False,
        persist_dir=directory,
        max_reorg_depth=max_reorg_depth,
        snapshot_interval=snapshot_interval,
    )
    blocks = 32
    per_block = max(1, consumers // blocks)
    nonce = 0
    for block_index in range(blocks):
        for offset in range(per_block):
            account = block_index * per_block + offset
            node.submit_transaction(Transaction(
                sender=key.address, to=f"0xconsumer{account:05d}", data={},
                value=5, nonce=nonce,
            ))
            nonce += 1
        node.produce_block()
    node.close()
    return key


def _timed_open(store_dir, key):
    """Cold-start the node persisted in *store_dir*; return it (closed) and the wall time."""
    started = time.perf_counter()
    node = BlockchainNode.open_from_disk(store_dir, key)
    seconds = time.perf_counter() - started
    node.close()
    return node, seconds


def test_e9_cold_start_scales_with_tail_not_chain(report, tmp_path):
    """Cold start from a finality snapshot vs a full replay from genesis.

    The snapshot path fast-adopts the final prefix (per-record checksums
    vouch for it) and re-executes only the non-final tail, so its wall time
    scales with the reorg window; the genesis path re-executes every
    transaction ever applied.  The pinned ratio (snapshot / genesis wall
    time) must stay below 1 and is tracked by the trend gate.  Each path is
    timed COLD_START_REPEATS times, alternating, and the best time of each
    is compared, so one host stall in one sample cannot decide the ratio.
    """
    populations = [1000, 2000]
    snapshot_ms, genesis_ms = [], []
    for consumers in populations:
        store_dir = str(tmp_path / f"store-{consumers}")
        key = _durable_chain_with_consumers(store_dir, consumers)
        # Same log, snapshots removed: recovery must replay from genesis.
        bare_dir = str(tmp_path / f"bare-{consumers}")
        shutil.copytree(store_dir, bare_dir)
        shutil.rmtree(f"{bare_dir}/snapshots")

        snapshot_times, genesis_times = [], []
        for _ in range(COLD_START_REPEATS):
            restored, seconds = _timed_open(store_dir, key)
            snapshot_times.append(seconds)
            assert restored.recovery.snapshot_height > 0
            assert restored.recovery.replayed_blocks <= 8  # the reorg window

            replayed, seconds = _timed_open(bare_dir, key)
            genesis_times.append(seconds)
            assert replayed.recovery.snapshot_height == 0
            assert replayed.recovery.replayed_blocks == 32
            assert replayed.chain.head.hash == restored.chain.head.hash
        snapshot_seconds = min(snapshot_times)
        genesis_seconds = min(genesis_times)

        snapshot_ms.append(round(snapshot_seconds * 1e3, 2))
        genesis_ms.append(round(genesis_seconds * 1e3, 2))
        report(f"E9 cold start consumers={consumers}",
               snapshot_ms=snapshot_ms[-1], genesis_replay_ms=genesis_ms[-1])

    ratio = round(snapshot_ms[-1] / genesis_ms[-1], 3)
    assert ratio < 1.0, (
        f"cold start from a snapshot ({snapshot_ms[-1]}ms) should beat a "
        f"genesis replay ({genesis_ms[-1]}ms)"
    )
    emit_bench_json("robustness", [
        bench_row("cold_start_snapshot_ms", populations, snapshot_ms),
        bench_row("cold_start_genesis_replay_ms", populations, genesis_ms),
        bench_row("cold_start_snapshot_vs_genesis_ratio", [populations[-1]],
                  [ratio], pinned_ratio=ratio),
    ])


def test_e9_blocks_to_converge_after_hard_crash(report, tmp_path):
    """A hard-crashed replica resyncs exactly the blocks it missed."""
    network = BlockchainNetwork(
        num_validators=3,
        genesis_balances={SENDER.address: 10**9},
        persist_root=str(tmp_path),
        max_reorg_depth=4,
        snapshot_interval=4,
    )
    _transfers(network, 2)
    network.produce_blocks(6)
    network.crash_validator(1, torn_tail=True)
    _transfers(network, 2, start_nonce=2)
    network.produce_blocks(6)  # 2 slots skipped (the dead proposer), 4 mined

    started = time.perf_counter()
    recovery = network.restart_validator(1)
    restart_seconds = time.perf_counter() - started
    assert network.consistent(), network.heads()
    assert network.validators[1].chain.verify_chain(replay=True)
    assert recovery["resyncedBlocks"] > 0
    network.close()
    report("E9 crash+restart", resynced_blocks=recovery["resyncedBlocks"],
           records_truncated=recovery["recordsTruncated"],
           restart_ms=round(restart_seconds * 1e3, 2))
    emit_bench_json("robustness", [
        bench_row("blocks_to_converge_after_crash", [3],
                  [recovery["resyncedBlocks"]]),
        bench_row("crash_restart_ms", [3], [round(restart_seconds * 1e3, 2)]),
    ])


def test_e9_rounds_to_exclusion_after_slash_tx(report):
    """On-chain churn: blocks from equivocation to a culprit-free rotation.

    A dynamic 4-validator deployment (epoch_length=4) settles the slash as
    an ordinary transaction: the proof fires at the culprit's slot, the
    registry burns the bond, and the next epoch boundary excludes it from
    the derived rotation on every replica.  The row reports that settlement
    latency in blocks (queue -> exclusion), bounded by one rotation cycle
    plus one epoch.
    """
    arch = UsageControlArchitecture(
        config=ArchitectureConfig(validators=4, epoch_length=4))
    network = arch.validator_network
    registry = arch.validator_registry_address
    culprit = network.validators[2].address
    start_height = network.primary.chain.height
    arch.equivocate_validator(2)
    blocks_to_exclusion = None
    for _ in range(16):
        network.produce_blocks(1)
        rotation = network.primary.consensus.rotation_for_height(
            network.primary.chain.height + 1)
        if culprit not in rotation:
            blocks_to_exclusion = network.primary.chain.height - start_height
            break
    assert blocks_to_exclusion is not None
    assert network.validators[2].slashed
    assert arch.node.call(registry, "total_burned") == arch.config.validator_bond
    assert network.honest_heads_converged()
    assert network.primary.chain.verify_chain(replay=True)
    report("E9 slash settlement", blocks_to_exclusion=blocks_to_exclusion,
           bond_burned=arch.config.validator_bond)
    emit_bench_json("robustness", [
        bench_row("blocks_to_rotation_exclusion_after_slash", [4],
                  [blocks_to_exclusion]),
    ])


@pytest.mark.slow
def test_e9_partition_heal_at_scale(report):
    """Two islands diverge for 20 slots and converge on heal."""
    network = _network(4)
    _transfers(network, 4)
    network.produce_blocks(4)
    network.partition({0, 1})
    _transfers(network, 4, start_nonce=4)
    network.produce_blocks(20)
    assert not network.consistent()
    started = time.perf_counter()
    network.heal_partition()
    heal_seconds = time.perf_counter() - started
    assert network.consistent(), network.heads()
    for validator in network.validators:
        assert validator.chain.verify_chain(replay=True)
    report("E9 partition heal", slots=20, heal_ms=round(heal_seconds * 1e3, 2))
    emit_bench_json("robustness", [
        bench_row("partition_heal_ms_20_slots", [4], [round(heal_seconds * 1e3, 2)]),
    ])
