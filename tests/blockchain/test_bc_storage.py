"""Durable chain storage: crash-safety, corruption injection, cold start.

Every test tears the persist directory in a specific way (torn tail record,
torn acknowledgement, flipped byte, missing manifest, forged snapshot) and
asserts recovery does exactly what the storage contract promises: truncate
to the longest valid prefix, never silently accept corruption, cold-start
from a verified finality snapshot, and resync the rest from peers.
"""

import hashlib
import os

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import IntegrityError, ValidationError
from repro.common.serialization import canonical_json, from_canonical_json
from repro.blockchain import storage
from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.network import BlockchainNetwork
from repro.blockchain.node import BlockchainNode
from repro.blockchain.storage import (
    ChainStore,
    encode_record,
    read_checked_json,
    atomic_write_json,
    scan_records,
    validator_store_path,
)
from repro.blockchain.transaction import Transaction
from repro.blockchain.vm import ContractRegistry
from repro.contracts.dist_exchange import DistExchangeApp
from repro.contracts.market import DataMarket
from repro.contracts.oracle_hub import OracleRequestHub


# -- helpers -----------------------------------------------------------------


def durable_node(directory, snapshot_interval=4, max_reorg_depth=4,
                 registry=None):
    """A single-validator node persisting to *directory*."""
    key = KeyPair.from_name("store-validator")
    consensus = ProofOfAuthority(validators=[key.address], block_interval=5.0)
    if registry is None:
        registry = ContractRegistry()
        registry.register(DistExchangeApp)
    node = BlockchainNode(
        consensus,
        key,
        registry=registry,
        clock=SimulatedClock(start=1_700_000_000.0),
        genesis_balances={key.address: 10**12, "0xsink": 0},
        persist_dir=str(directory),
        max_reorg_depth=max_reorg_depth,
        snapshot_interval=snapshot_interval,
    )
    return node, key


def mine_transfers(node, key, count):
    """Seal *count* blocks, each carrying one signed transfer."""
    for _ in range(count):
        tx = Transaction(
            sender=key.address, to="0xsink", data={}, value=7,
            nonce=node.next_nonce(key.address),
        )
        node.submit_transaction(tx.sign(key))
        node.produce_block()


# -- record framing ----------------------------------------------------------


def test_record_framing_roundtrip():
    payloads = [b'{"n": 1}', b'{"n": 2}', b"x" * 1000]
    raw = b"".join(encode_record(p) for p in payloads)
    recovered, valid_bytes, issues = scan_records(raw)
    assert recovered == payloads
    assert valid_bytes == len(raw)
    assert issues == []


def test_scan_stops_at_flipped_byte():
    payloads = [b'{"n": 1}', b'{"n": 2}', b'{"n": 3}']
    raw = bytearray(b"".join(encode_record(p) for p in payloads))
    # Flip one byte inside the second record's payload.
    record = len(encode_record(payloads[0]))
    raw[record + 14] ^= 0xFF
    recovered, valid_bytes, issues = scan_records(bytes(raw))
    assert recovered == payloads[:1]
    assert valid_bytes == record
    assert any("checksum mismatch" in issue for issue in issues)


def test_scan_stops_at_torn_tail():
    payloads = [b'{"n": 1}', b'{"n": 2}']
    raw = b"".join(encode_record(p) for p in payloads)
    torn = raw + encode_record(b'{"n": 3}')[:-10]
    recovered, valid_bytes, issues = scan_records(torn)
    assert recovered == payloads
    assert valid_bytes == len(raw)
    assert any("torn record" in issue for issue in issues)


def test_checked_json_detects_tampering(tmp_path):
    path = str(tmp_path / "doc.json")
    atomic_write_json(path, {"answer": 42})
    assert read_checked_json(path) == {"answer": 42}
    with open(path, "r+b") as handle:
        body = bytearray(handle.read())
        body[body.index(b"42")] = ord("9")
        handle.seek(0)
        handle.write(body)
    with pytest.raises(IntegrityError):
        read_checked_json(path)


class _Point:
    """A value serialized through its ``to_dict``."""

    def __init__(self, x, y):
        self.x, self.y = x, y

    def to_dict(self):
        return {"y": self.y, "x": self.x}


@pytest.mark.parametrize("payload", [
    {"zeta": {"b": 2, "a": [3, {"k": "v", "c": None}]}, "alpha": True},
    {"owner": "Zoë", "labels": ["données ✓", "数据", "\u2028"]},
    {"ratio": 0.1, "huge": 1e300, "negative": -2.5, "whole": 3.0},
    {"origin": _Point(0, 1.5), "path": [_Point("é", -1)]},
], ids=["nested-unsorted", "non-ascii", "floats", "to-dict"])
def test_checked_json_document_is_the_canonical_envelope(tmp_path, payload):
    path = str(tmp_path / "doc.json")
    atomic_write_json(path, payload)
    body = canonical_json(payload)
    envelope = {"payload": payload, "sha256": hashlib.sha256(body).hexdigest()}
    with open(path, "rb") as handle:
        assert handle.read() == canonical_json(envelope)
    assert read_checked_json(path) == from_canonical_json(body)


# -- clean round trip and cold start ----------------------------------------


def test_clean_close_and_cold_start_roundtrip(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 10)
    head_hash = node.chain.head.hash
    sink_balance = node.get_balance("0xsink")
    node.close()

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.chain.height == 10
    assert restored.chain.head.hash == head_hash
    assert restored.get_balance("0xsink") == sink_balance
    assert restored.chain.verify_chain(replay=True)
    report = restored.recovery
    assert report.records_loaded == 10
    assert report.records_truncated == 0
    assert report.issues == []


def test_cold_start_replays_only_the_non_final_tail(tmp_path):
    node, key = durable_node(tmp_path, snapshot_interval=4, max_reorg_depth=4)
    mine_transfers(node, key, 14)
    node.close()

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    report = restored.recovery
    # Heights 4 and 8 are snapshotted and final (reorg window 4); the best
    # promoted snapshot anchors the cold start and only the tail re-executes.
    assert report.snapshot_height > 0
    assert report.fast_adopted_blocks == report.snapshot_height
    assert report.replayed_blocks == 14 - report.snapshot_height
    assert restored.chain.verify_chain(replay=True)


def test_restart_produces_identical_genesis(tmp_path):
    node, key = durable_node(tmp_path)
    genesis_hash = node.chain.blocks[0].header.hash
    mine_transfers(node, key, 3)
    node.close()
    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    # The deployment clock advanced past creation time, but the manifest's
    # genesisTimestamp rebuilds a bit-identical genesis header.
    assert restored.chain.blocks[0].header.hash == genesis_hash
    mine_transfers(restored, key, 1)
    assert restored.chain.verify_chain(replay=True)


# -- commit acknowledgement ----------------------------------------------------


def test_unsynced_tail_is_the_records_past_the_last_acknowledgement(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 20)
    node.hard_crash()

    # The default interval acknowledged 16 of the 20 appends.
    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.chain.height == 20
    assert restored.recovery.unsynced_tail == 4
    restored.close()

    again = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert again.recovery.unsynced_tail == 0
    assert again.recovery.issues == []
    again.close()


def test_torn_acknowledgement_is_truncated_and_the_previous_count_holds(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 20)
    node.close()
    commits_path = str(tmp_path / "commits.log")
    intact_size = os.path.getsize(commits_path)
    with open(commits_path, "ab") as handle:
        handle.write(encode_record(canonical_json({"committedRecords": 99}))[:-10])

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.recovery.unsynced_tail == 0
    assert any(issue.startswith("commits.log: torn record")
               for issue in restored.recovery.issues)
    assert os.path.getsize(commits_path) == intact_size

    # Acknowledgements written after the repair read back: the 16th append
    # acknowledges 36 records and the 37th is the unsynced tail.
    mine_transfers(restored, key, 17)
    restored.hard_crash()
    again = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert again.chain.height == 37
    assert again.recovery.unsynced_tail == 1
    assert again.recovery.issues == []
    again.close()


def test_append_path_replaces_no_existing_file(tmp_path, monkeypatch):
    replaced = []
    real_replace = os.replace

    def recording_replace(source, target):
        replaced.append((os.path.basename(target), os.path.exists(target)))
        return real_replace(source, target)

    monkeypatch.setattr(storage.os, "replace", recording_replace)
    node, key = durable_node(tmp_path, snapshot_interval=4, max_reorg_depth=4)
    mine_transfers(node, key, 40)
    node.close()
    assert [name for name, existed in replaced if existed] == []
    assert [name for name, _ in replaced].count("manifest.json") == 1
    assert any(name.startswith("snapshot-") for name, _ in replaced)


# -- corruption injection -----------------------------------------------------


def test_torn_tail_record_is_truncated_on_open(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 6)
    node.hard_crash(torn_tail=True)

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    report = restored.recovery
    assert restored.chain.height == 6
    assert report.records_truncated == 1
    assert report.bytes_truncated > 0
    assert any("torn record" in issue for issue in report.issues)
    # The truncation is repaired in place: a second open is clean.
    restored.close()
    again = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert again.recovery.issues == []
    assert again.chain.height == 6


def test_flipped_byte_recovers_longest_valid_prefix(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 8)
    node.close()
    log_path = str(tmp_path / "blocks.log")
    size = os.path.getsize(log_path)
    with open(log_path, "r+b") as handle:
        handle.seek(size - 100)  # inside the last record
        byte = handle.read(1)
        handle.seek(size - 100)
        handle.write(bytes([byte[0] ^ 0xFF]))

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.chain.height == 7  # everything before the flip survives
    assert any("checksum mismatch" in issue for issue in restored.recovery.issues)
    assert restored.chain.verify_chain(replay=True)


def test_missing_manifest_is_fatal(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 3)
    node.close()
    os.remove(str(tmp_path / "manifest.json"))
    with pytest.raises(IntegrityError):
        ChainStore.open(str(tmp_path))


def test_create_refuses_to_clobber_an_existing_store(tmp_path):
    node, key = durable_node(tmp_path)
    node.close()
    with pytest.raises(ValidationError):
        ChainStore.create(str(tmp_path), {}, [key.address], 5.0, 4)


def test_snapshot_with_mismatched_state_is_rejected(tmp_path):
    node, key = durable_node(tmp_path, snapshot_interval=4, max_reorg_depth=4)
    mine_transfers(node, key, 10)
    node.close()

    # Forge the newest promoted snapshot: keep its claimed root but swap in
    # state contents that do not hash to it.  The checksum envelope is
    # rewritten, so only the state-root cross-check can catch the forgery.
    store, _ = ChainStore.open(str(tmp_path))
    snapshots = store.promoted_snapshots()
    assert snapshots
    height, path = snapshots[-1]
    payload = read_checked_json(path)
    payload["state"]["accounts"]["0xsink"]["balance"] = 10**9
    atomic_write_json(path, payload)
    store.close()

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    report = restored.recovery
    assert any(str(height) in rejected for rejected in report.snapshots_rejected)
    # Recovery fell back to an older (genuine) snapshot or a genesis replay,
    # and the forged balance never reached the state.
    assert report.snapshot_height < height
    assert restored.get_balance("0xsink") == 7 * 10
    assert restored.chain.verify_chain(replay=True)


def test_snapshot_holds_the_bytes_of_an_independent_state_dump(tmp_path):
    """A snapshot serializes the live state without deep-copying contract
    storage; its file must be byte-identical to one written from the
    independent ``to_dict()`` dump of the same state."""
    node, key = durable_node(tmp_path, snapshot_interval=4, max_reorg_depth=4)
    deploy = Transaction(
        sender=key.address, to=None,
        data={"contract_class": "DistExchangeApp", "init_args": {}},
        nonce=node.next_nonce(key.address),
    )
    node.submit_transaction(deploy.sign(key))
    node.produce_block()
    mine_transfers(node, key, 3)  # height 4: the snapshot is the head state
    head = node.chain.head
    dump = node.chain.state.to_dict()
    assert dump["storage"], "the snapshot must cover contract storage"
    [written] = os.listdir(node.chain.store.snapshot_dir)
    copied = tmp_path / "copied.json"
    atomic_write_json(str(copied), {
        "height": head.number, "stateRoot": head.header.state_root, "state": dump,
    })
    with open(os.path.join(node.chain.store.snapshot_dir, written), "rb") as handle:
        assert handle.read() == copied.read_bytes()
    node.close()


def test_snapshot_with_corrupt_checksum_is_rejected(tmp_path):
    node, key = durable_node(tmp_path, snapshot_interval=4, max_reorg_depth=4)
    mine_transfers(node, key, 10)
    node.close()
    store, _ = ChainStore.open(str(tmp_path))
    snapshots = store.promoted_snapshots()
    height, path = snapshots[-1]
    with open(path, "r+b") as handle:
        raw = bytearray(handle.read())
        raw[len(raw) // 2] ^= 0xFF
        handle.seek(0)
        handle.write(raw)
    store.close()

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.recovery.snapshot_height < height
    assert restored.recovery.snapshots_rejected
    assert restored.chain.verify_chain(replay=True)


# -- durable contract registry ------------------------------------------------


def test_contract_registry_survives_restart(tmp_path):
    node, key = durable_node(tmp_path)
    tx = Transaction(
        sender=key.address, to=None,
        data={"contract_class": "DistExchangeApp", "init_args": {}},
        nonce=node.next_nonce(key.address),
    )
    node.submit_transaction(tx.sign(key))
    block = node.produce_block()
    address = block.receipts[0].contract_address
    node.close()

    # No registry provided: the durable registry file re-imports the class.
    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert "DistExchangeApp" in restored.registry.known()
    assert restored.chain.verify_chain(replay=True)
    assert restored.call(address, "get_violations") == []


def test_registry_entries_are_append_only(tmp_path):
    node, key = durable_node(tmp_path)
    store = node.chain.store
    store.record_contract("DistExchangeApp", DistExchangeApp)  # same entry: fine

    class DistExchangeApp2:  # a different implementation under the same name
        pass

    with pytest.raises(IntegrityError):
        store.record_contract("DistExchangeApp", DistExchangeApp2)
    node.close()


def test_node_construction_records_every_contract_in_one_write(tmp_path, monkeypatch):
    written = []
    real_write = storage.atomic_write_json

    def recording_write(path, payload):
        written.append(os.path.basename(path))
        real_write(path, payload)

    monkeypatch.setattr(storage, "atomic_write_json", recording_write)
    registry = ContractRegistry()
    for contract in (DistExchangeApp, DataMarket, OracleRequestHub):
        registry.register(contract)
    node, _ = durable_node(tmp_path, registry=registry)
    assert written.count("registry.json") == 1
    assert [entry["name"] for entry in node.chain.store.read_registry()] == [
        "DataMarket", "DistExchangeApp", "OracleRequestHub"]
    node.close()


def test_unresolvable_registry_entry_is_fatal(tmp_path):
    node, key = durable_node(tmp_path)
    node.chain.store.record_contract(
        "Ghost", type("Ghost", (), {"__module__": "no.such.module"})
    )
    node.close()
    with pytest.raises(IntegrityError):
        BlockchainNode.open_from_disk(str(tmp_path), key)


def test_consensus_cross_check_on_open(tmp_path):
    node, key = durable_node(tmp_path)
    node.close()
    other = ProofOfAuthority(
        validators=[KeyPair.from_name("impostor").address], block_interval=5.0
    )
    with pytest.raises(IntegrityError):
        BlockchainNode.open_from_disk(str(tmp_path), key, consensus=other)


# -- network crash/restart -----------------------------------------------------


def durable_network(root, num_validators=3):
    sender = KeyPair.from_name("dur-sender")
    network = BlockchainNetwork(
        num_validators=num_validators,
        block_interval=5.0,
        genesis_balances={sender.address: 10**9},
        persist_root=str(root),
        max_reorg_depth=4,
        snapshot_interval=4,
    )
    network._test_sender = sender  # type: ignore[attr-defined]
    return network


def test_hard_crashed_validator_resyncs_missing_blocks_from_peers(tmp_path):
    network = durable_network(tmp_path)
    network.produce_blocks(9)
    network.crash_validator(1, torn_tail=True)
    assert network.validators[1].node is None
    network.produce_blocks(6)  # the market keeps operating without it

    report = network.restart_validator(1)
    replica = network.validators[1]
    assert report["recordsTruncated"] == 1
    # The unsynced tail (records past the manifest's committed count) was
    # recovered from the local log, not refetched.
    assert report["recordsLoaded"] == 9
    assert report["resyncedBlocks"] > 0
    assert replica.chain.height == network.primary.chain.height
    assert network.consistent()
    assert replica.chain.verify_chain(replay=True)
    network.close()


def test_crash_requires_durability_and_restart_requires_crash(tmp_path):
    volatile = BlockchainNetwork(num_validators=2)
    with pytest.raises(ValidationError):
        volatile.crash_validator(1)
    network = durable_network(tmp_path)
    with pytest.raises(ValidationError):
        network.restart_validator(1)
    network.crash_validator(1)
    with pytest.raises(ValidationError):
        network.crash_validator(1)  # already dead
    with pytest.raises(ValidationError):
        network.recover_validator(1)  # soft recovery cannot revive a hard crash
    network.restart_validator(1)
    network.close()


def test_equivocation_proofs_survive_a_hard_crash(tmp_path):
    network = durable_network(tmp_path)
    network.produce_blocks(3)
    network.equivocate_validator(2)
    network.produce_blocks(4)  # the double-seal fires and gossips
    culprit = network.validators[2].address
    assert network.validators[2].slashed

    network.crash_validator(1, torn_tail=True)
    network.produce_blocks(3)
    report = network.restart_validator(1)
    replica = network.validators[1]
    assert report["proofsRestored"] >= 1
    # The restarted replica re-slashes from its own disk: the proof was
    # re-verified from its sealed-header material, not taken on faith.
    assert replica.chain.equivocation.is_byzantine(culprit)
    assert network.honest_heads_converged()
    network.close()


def test_restart_refuses_tampered_proofs(tmp_path):
    network = durable_network(tmp_path)
    network.produce_blocks(3)
    network.equivocate_validator(2)
    network.produce_blocks(4)
    network.crash_validator(1)
    store_dir = validator_store_path(str(tmp_path), 1)
    proofs_path = os.path.join(store_dir, "proofs.json")
    proofs = read_checked_json(proofs_path)
    # Frame an honest validator: point the proof at validator 0's address.
    proofs[0]["proposer"] = network.validators[0].address
    proofs[0]["first"]["header"]["proposer"] = network.validators[0].address
    atomic_write_json(proofs_path, proofs)
    with pytest.raises(IntegrityError):
        network.restart_validator(1)
