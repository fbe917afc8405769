"""Durable chain storage: crash-safe block log, finality snapshots, registries.

A :class:`ChainStore` owns one persist directory per node:

``blocks.log``
    Append-only record log of the canonical post-genesis blocks.  Each
    record is ``MAGIC | length (8 bytes, big-endian) | canonical_json
    payload | SHA-256(payload)``.  Appends go straight to the log; a record
    in ``commits.log`` — not the log itself — is what acknowledges them as
    committed, so a record can only ever be (a) committed, (b) an intact
    unsynced tail entry, or (c) a torn/corrupt tail that :meth:`open`
    detects and truncates to the longest valid prefix.  Corruption is never
    silently accepted: every record's checksum is re-verified on open.

``commits.log``
    Append-only acknowledgement log in the same record framing; each record
    is ``{"committedRecords": n}``.  Every ``manifest_interval`` appends and
    on :meth:`sync`/:meth:`close`/:meth:`rewind_to`, ``blocks.log`` is
    fsynced first and then one acknowledgement is appended and fsynced.
    The last valid record holds the committed count: records of
    ``blocks.log`` past it are the *unsynced tail* a hard crash leaves
    behind.  A torn acknowledgement is truncated on open like a torn block
    record, and the one before it holds.  Acknowledging by an append keeps
    renames off the write path: replacing an existing file frees the old
    file's blocks, which is slow on filesystems mounted with online discard.

``manifest.json``
    Chain metadata (genesis balances and timestamp, validator set, block
    interval, reorg window, snapshot cadence, epoch length, signature
    policy), written once by :meth:`create` with the classic crash-safe
    protocol: write to a temporary file, ``fsync``, then atomically
    ``os.replace`` it into place, so a crash leaves either no manifest or a
    whole one.  Both logs are created before it, so a store with a manifest
    always has both logs.

``registry.json``
    The durable contract registry, in the hardened shape of nucypher's
    ``EthereumContractRegistry``: a lazily-written JSON document with
    explicit read-before-modify semantics — but append-only (an entry,
    once recorded, is never dropped or overwritten) and checksummed.

``proofs.json``
    Equivocation proofs with their full sealed-header material, so the
    slash/rotation state survives a restart: a restarted replica re-slashes
    a Byzantine proposer from its own disk without re-witnessing the
    double-seal.

``snapshots/``
    World-state snapshots keyed by ``(height, state_root)``.  A snapshot
    is written as *pending* when a cadence-height block is adopted (the
    head state at that instant IS the state at that height), *promoted*
    when the height sinks past the reorg horizon (finality), and discarded
    if a reorg detaches the block first.  A cold start loads the best
    promoted snapshot and re-executes only the non-final tail.
"""

from __future__ import annotations

import hashlib
# The persistence layer is the one blockchain module that legitimately owns
# real file IO; everything it writes is checksummed and replayable.
import os  # chainlint: disable=DET001
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import IntegrityError, ValidationError
from repro.common.serialization import canonical_json, from_canonical_json

RECORD_MAGIC = b"RBLK"
_LENGTH_BYTES = 8
_DIGEST_BYTES = 32
_HEADER_BYTES = len(RECORD_MAGIC) + _LENGTH_BYTES
# Records larger than this are treated as garbage (a torn length field can
# otherwise claim petabytes and stall the scan).
MAX_RECORD_BYTES = 64 * 1024 * 1024

MANIFEST_NAME = "manifest.json"
LOG_NAME = "blocks.log"
COMMITS_NAME = "commits.log"
REGISTRY_NAME = "registry.json"
PROOFS_NAME = "proofs.json"
ROTATIONS_NAME = "rotations.json"
SNAPSHOT_DIR = "snapshots"
_SNAPSHOT_PREFIX = "snapshot"
_PENDING_PREFIX = "pending"

STORE_VERSION = 1

# Default number of appends between two acknowledgements in commits.log.
MANIFEST_INTERVAL = 16


def _fsync_dir(path: str) -> None:
    """Flush a directory entry so a rename/create survives a power cut."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: Any) -> None:
    """Crash-safe checksummed JSON write: temp file, fsync, atomic rename.

    The document is ``canonical_json({"payload": payload, "sha256": digest})``,
    assembled around the one serialization of *payload* (``"payload"``
    sorts before ``"sha256"``), so a snapshot's world state is serialized
    once.
    """
    body = canonical_json(payload)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    document = b'{"payload":' + body + b',"sha256":"' + digest + b'"}'
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(os.path.dirname(path) or ".")


def read_checked_json(path: str) -> Any:
    """Read a checksummed JSON document; raises IntegrityError on tampering."""
    if not os.path.exists(path):
        raise IntegrityError(f"missing store file {path}")
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = from_canonical_json(raw)
    except Exception as exc:
        raise IntegrityError(f"store file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "payload" not in document or "sha256" not in document:
        raise IntegrityError(f"store file {path} lacks its checksum envelope")
    body = canonical_json(document["payload"])
    if hashlib.sha256(body).hexdigest() != document["sha256"]:
        raise IntegrityError(f"store file {path} fails its checksum")
    return document["payload"]


def validator_store_path(root: str, index: int) -> str:
    """Per-validator persist directory under a network's durable root."""
    return os.path.join(root, f"validator-{index}")


def encode_record(payload: bytes) -> bytes:
    """Frame one log record: magic, length, payload, SHA-256 digest."""
    return (
        RECORD_MAGIC
        + len(payload).to_bytes(_LENGTH_BYTES, "big")
        + payload
        + hashlib.sha256(payload).digest()
    )


def scan_records(raw: bytes) -> Tuple[List[bytes], int, List[str]]:
    """Walk a record log buffer, validating every frame.

    Returns ``(payloads, valid_bytes, issues)`` where *valid_bytes* is the
    byte length of the longest valid record prefix and *issues* describes
    why the scan stopped (empty when the whole buffer is clean).  A torn or
    corrupt record invalidates itself and everything after it — records are
    only meaningful in sequence.
    """
    payloads: List[bytes] = []
    issues: List[str] = []
    offset = 0
    total = len(raw)
    while offset < total:
        remaining = total - offset
        if remaining < _HEADER_BYTES:
            issues.append(f"torn record header at byte {offset} ({remaining} bytes)")
            break
        if raw[offset:offset + len(RECORD_MAGIC)] != RECORD_MAGIC:
            issues.append(f"bad record magic at byte {offset}")
            break
        length = int.from_bytes(
            raw[offset + len(RECORD_MAGIC):offset + _HEADER_BYTES], "big"
        )
        if length > MAX_RECORD_BYTES:
            issues.append(f"implausible record length {length} at byte {offset}")
            break
        body_end = offset + _HEADER_BYTES + length
        record_end = body_end + _DIGEST_BYTES
        if record_end > total:
            issues.append(
                f"torn record at byte {offset}: {record_end - total} bytes missing"
            )
            break
        payload = raw[offset + _HEADER_BYTES:body_end]
        if hashlib.sha256(payload).digest() != raw[body_end:record_end]:
            issues.append(f"checksum mismatch in record {len(payloads)} at byte {offset}")
            break
        payloads.append(payload)
        offset = record_end
    return payloads, offset, issues


def _recover_log(path: str) -> Tuple[List[bytes], int, List[str]]:
    """Read a record log, truncating a torn or corrupt tail in place.

    Returns ``(payloads, bytes_truncated, issues)`` as :func:`scan_records`
    finds them; a missing log reads as empty.
    """
    raw = b""
    if os.path.exists(path):
        with open(path, "rb") as handle:
            raw = handle.read()
    payloads, valid_bytes, issues = scan_records(raw)
    if valid_bytes < len(raw):
        with open(path, "r+b") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return payloads, len(raw) - valid_bytes, issues


@dataclass
class RecoveryReport:
    """What :meth:`ChainStore.open` found and what the cold start cost."""

    records_loaded: int = 0
    records_truncated: int = 0
    bytes_truncated: int = 0
    unsynced_tail: int = 0
    issues: List[str] = field(default_factory=list)
    snapshot_height: int = 0
    snapshots_rejected: List[str] = field(default_factory=list)
    replayed_blocks: int = 0
    fast_adopted_blocks: int = 0
    proofs_restored: int = 0

    def to_dict(self) -> dict:
        return {
            "recordsLoaded": self.records_loaded,
            "recordsTruncated": self.records_truncated,
            "bytesTruncated": self.bytes_truncated,
            "unsyncedTail": self.unsynced_tail,
            "issues": list(self.issues),
            "snapshotHeight": self.snapshot_height,
            "snapshotsRejected": list(self.snapshots_rejected),
            "replayedBlocks": self.replayed_blocks,
            "fastAdoptedBlocks": self.fast_adopted_blocks,
            "proofsRestored": self.proofs_restored,
        }


class ChainStore:
    """Disk-backed block log, snapshots, and registries for one node."""

    def __init__(self, directory: str, manifest: Dict[str, Any],
                 payloads: Optional[List[bytes]] = None,
                 recovery: Optional[RecoveryReport] = None,
                 manifest_interval: int = MANIFEST_INTERVAL):
        self.directory = directory
        self.manifest = manifest
        self.recovery = recovery if recovery is not None else RecoveryReport()
        if manifest_interval < 1:
            raise ValidationError("manifest_interval must be at least 1")
        self.manifest_interval = manifest_interval
        # End-of-record byte offsets: _offsets[i] is where record i ends,
        # which makes rewind_to() a single O(1) truncate.
        self._offsets: List[int] = []
        self.block_payloads: List[bytes] = []
        position = 0
        for payload in payloads or []:
            position += _HEADER_BYTES + len(payload) + _DIGEST_BYTES
            self._offsets.append(position)
            self.block_payloads.append(payload)
        self._log = open(self.log_path, "ab")
        self._commits = open(self.commits_path, "ab")
        self._appends_since_manifest = 0
        self._closed = False

    # -- paths -------------------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, LOG_NAME)

    @property
    def commits_path(self) -> str:
        return os.path.join(self.directory, COMMITS_NAME)

    @property
    def registry_path(self) -> str:
        return os.path.join(self.directory, REGISTRY_NAME)

    @property
    def proofs_path(self) -> str:
        return os.path.join(self.directory, PROOFS_NAME)

    @property
    def rotations_path(self) -> str:
        return os.path.join(self.directory, ROTATIONS_NAME)

    @property
    def snapshot_dir(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_DIR)

    # -- manifest-backed metadata -----------------------------------------

    @property
    def genesis_balances(self) -> Dict[str, int]:
        return dict(self.manifest["genesisBalances"])

    @property
    def validators(self) -> List[str]:
        return list(self.manifest["validators"])

    @property
    def block_interval(self) -> float:
        return float(self.manifest["blockInterval"])

    @property
    def max_reorg_depth(self) -> int:
        return int(self.manifest["maxReorgDepth"])

    @property
    def snapshot_interval(self) -> int:
        return int(self.manifest["snapshotInterval"])

    @property
    def require_signatures(self) -> bool:
        return bool(self.manifest["requireSignatures"])

    @property
    def epoch_length(self) -> int:
        return int(self.manifest["epochLength"])

    @property
    def genesis_timestamp(self) -> float:
        return float(self.manifest["genesisTimestamp"])

    @property
    def record_count(self) -> int:
        """Number of valid records currently in the log (== chain height)."""
        return len(self._offsets)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, directory: str, genesis_balances: Dict[str, int],
               validators: List[str], block_interval: float,
               max_reorg_depth: int, snapshot_interval: int = 0,
               require_signatures: bool = True,
               genesis_timestamp: float = 0.0,
               epoch_length: int = 0,
               manifest_interval: int = MANIFEST_INTERVAL) -> "ChainStore":
        """Initialize a fresh persist directory (refuses to adopt an old one)."""
        os.makedirs(directory, exist_ok=True)
        os.makedirs(os.path.join(directory, SNAPSHOT_DIR), exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise ValidationError(
                f"{directory} already holds a chain store; use ChainStore.open "
                f"(or BlockchainNode.open_from_disk) to restart from it"
            )
        manifest = {
            "version": STORE_VERSION,
            "genesisBalances": dict(genesis_balances),
            "validators": list(validators),
            "blockInterval": float(block_interval),
            "maxReorgDepth": int(max_reorg_depth),
            "snapshotInterval": int(snapshot_interval),
            "requireSignatures": bool(require_signatures),
            # A restart must rebuild a bit-identical genesis header even
            # though the deployment clock has advanced past creation time.
            "genesisTimestamp": float(genesis_timestamp),
            "epochLength": int(epoch_length),
        }
        # Both logs exist before the manifest does, so open() on any store
        # with a manifest finds a coherent directory.
        for name in (LOG_NAME, COMMITS_NAME):
            with open(os.path.join(directory, name), "wb"):
                pass
        atomic_write_json(manifest_path, manifest)
        return cls(directory, manifest, manifest_interval=manifest_interval)

    @classmethod
    def open(cls, directory: str,
             manifest_interval: int = MANIFEST_INTERVAL) -> Tuple["ChainStore", RecoveryReport]:
        """Reopen a persist directory, validating every record checksum.

        Torn or corrupt tail records of both logs are truncated away (the
        longest valid prefix survives); the last valid ``commits.log``
        record gives the committed count.  A missing or corrupt manifest is
        fatal — it holds the genesis balances and validator set without
        which the log cannot be interpreted.  Returns ``(store, recovery
        report)``.
        """
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.isdir(directory) or not os.path.exists(manifest_path):
            raise IntegrityError(
                f"{directory} holds no chain-store manifest; nothing to recover"
            )
        manifest = read_checked_json(manifest_path)
        if not isinstance(manifest, dict) or manifest.get("version") != STORE_VERSION:
            raise IntegrityError(f"unsupported chain-store version in {manifest_path}")
        report = RecoveryReport()
        payloads, bytes_truncated, issues = _recover_log(os.path.join(directory, LOG_NAME))
        report.issues.extend(issues)
        report.records_loaded = len(payloads)
        report.bytes_truncated = bytes_truncated
        if bytes_truncated:
            # Estimate the records lost to the torn tail (at least one).
            report.records_truncated = 1
        acks, _, issues = _recover_log(os.path.join(directory, COMMITS_NAME))
        report.issues.extend(f"{COMMITS_NAME}: {issue}" for issue in issues)
        committed = int(from_canonical_json(acks[-1])["committedRecords"]) if acks else 0
        report.unsynced_tail = max(0, len(payloads) - committed)
        os.makedirs(os.path.join(directory, SNAPSHOT_DIR), exist_ok=True)
        store = cls(directory, manifest, payloads=payloads, recovery=report,
                    manifest_interval=manifest_interval)
        return store, report

    def sync(self) -> None:
        """Flush the log and acknowledge every record in ``commits.log``."""
        if self._closed:
            return
        self._log.flush()
        os.fsync(self._log.fileno())
        self._write_manifest()

    def close(self) -> None:
        """Clean shutdown: sync everything, then release both log handles."""
        if self._closed:
            return
        self.sync()
        self._log.close()
        self._commits.close()
        self._closed = True

    def abandon(self, torn_tail: bool = False) -> None:
        """Simulate kill -9: release the handles with NO sync or acknowledgement.

        With *torn_tail* a partial record (valid magic, plausible length,
        missing body bytes) is left at the end of the log — exactly what a
        crash mid-``write`` produces — so recovery must truncate it.
        """
        if self._closed:
            return
        if torn_tail:
            half = encode_record(b'{"torn": true}')[: _HEADER_BYTES + 6]
            self._log.write(half)
        self._log.flush()  # the bytes reach the OS; commits.log never learns
        self._log.close()
        self._commits.close()
        self._closed = True

    def _write_manifest(self) -> None:
        """Acknowledge every record of the log as committed.

        Appends one ``{"committedRecords": n}`` record to ``commits.log`` and
        fsyncs it; every caller has fsynced ``blocks.log`` before.
        """
        ack = canonical_json({"committedRecords": len(self._offsets)})
        self._commits.write(encode_record(ack))
        self._commits.flush()
        os.fsync(self._commits.fileno())
        self._appends_since_manifest = 0

    # -- block records -------------------------------------------------------

    def append_block_payload(self, payload: bytes) -> None:
        """Append one canonical block record to the log."""
        if self._closed:
            raise ValidationError("cannot append to a closed chain store")
        self._log.write(encode_record(payload))
        self._log.flush()
        previous = self._offsets[-1] if self._offsets else 0
        self._offsets.append(previous + _HEADER_BYTES + len(payload) + _DIGEST_BYTES)
        self.block_payloads.append(payload)
        self._appends_since_manifest += 1
        if self._appends_since_manifest >= self.manifest_interval:
            os.fsync(self._log.fileno())
            self._write_manifest()

    def append_block(self, block) -> None:
        self.append_block_payload(canonical_json(block.to_dict()))

    def rewind_to(self, height: int) -> None:
        """Truncate the log so it holds blocks 1..*height* (reorg detach)."""
        if self._closed:
            raise ValidationError("cannot rewind a closed chain store")
        if height < 0 or height > len(self._offsets):
            raise ValidationError(f"cannot rewind the store to height {height}")
        if height == len(self._offsets):
            return
        keep_bytes = self._offsets[height - 1] if height > 0 else 0
        self._log.flush()
        self._log.close()
        with open(self.log_path, "r+b") as handle:
            handle.truncate(keep_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        self._log = open(self.log_path, "ab")
        del self._offsets[height:]
        del self.block_payloads[height:]
        self._write_manifest()

    # -- snapshots -----------------------------------------------------------

    def _snapshot_name(self, prefix: str, height: int, state_root: str) -> str:
        return f"{prefix}-{height:010d}-{state_root[:16]}.json"

    def write_pending_snapshot(self, height: int, state_root: str,
                               state_payload: Dict[str, Any]) -> str:
        """Record the world state at *height* as a pending (non-final) snapshot.

        *state_payload* is serialized before this returns, so it may share
        the live state's dicts.
        """
        name = self._snapshot_name(_PENDING_PREFIX, height, state_root)
        path = os.path.join(self.snapshot_dir, name)
        atomic_write_json(
            path, {"height": height, "stateRoot": state_root, "state": state_payload}
        )
        return path

    def promote_snapshots_up_to(self, height: int) -> List[int]:
        """Promote pending snapshots at or below *height* (now final)."""
        promoted: List[int] = []
        for name in sorted(os.listdir(self.snapshot_dir)):
            parsed = self._parse_snapshot_name(name)
            if parsed is None or parsed[0] != _PENDING_PREFIX or parsed[1] > height:
                continue
            final_name = self._snapshot_name(_SNAPSHOT_PREFIX, parsed[1], parsed[2])
            os.replace(
                os.path.join(self.snapshot_dir, name),
                os.path.join(self.snapshot_dir, final_name),
            )
            promoted.append(parsed[1])
        if promoted:
            _fsync_dir(self.snapshot_dir)
        return promoted

    def discard_pending_from(self, height: int) -> None:
        """Drop pending snapshots at or above *height* (their block reorged out)."""
        for name in os.listdir(self.snapshot_dir):
            parsed = self._parse_snapshot_name(name)
            if parsed is not None and parsed[0] == _PENDING_PREFIX and parsed[1] >= height:
                os.remove(os.path.join(self.snapshot_dir, name))

    @staticmethod
    def _parse_snapshot_name(name: str) -> Optional[Tuple[str, int, str]]:
        if not name.endswith(".json"):
            return None
        parts = name[:-5].split("-")
        if len(parts) != 3 or parts[0] not in (_SNAPSHOT_PREFIX, _PENDING_PREFIX):
            return None
        try:
            return parts[0], int(parts[1]), parts[2]
        except ValueError:
            return None

    def promoted_snapshots(self) -> List[Tuple[int, str]]:
        """(height, path) of every promoted snapshot, ascending by height."""
        found: List[Tuple[int, str]] = []
        if not os.path.isdir(self.snapshot_dir):
            return found
        for name in os.listdir(self.snapshot_dir):
            parsed = self._parse_snapshot_name(name)
            if parsed is not None and parsed[0] == _SNAPSHOT_PREFIX:
                found.append((parsed[1], os.path.join(self.snapshot_dir, name)))
        found.sort()
        return found

    # -- contract registry (nucypher EthereumContractRegistry shape) -----------

    def read_registry(self) -> List[Dict[str, str]]:
        """Read the recorded contract-registry entries (empty when unwritten).

        The registry file is written lazily — it does not exist until the
        first contract is recorded — so a missing file is an empty registry,
        not an error (mirroring ``EthereumContractRegistry.read``).
        """
        if not os.path.exists(self.registry_path):
            return []
        entries = read_checked_json(self.registry_path)
        if not isinstance(entries, list):
            raise IntegrityError(f"{self.registry_path} does not hold a registry list")
        return entries

    def record_contracts(self, contracts: Dict[str, type]) -> None:
        """Append contracts to the durable registry in one write (read-before-modify).

        The current document is always re-read before writing so concurrent
        or earlier appends are never clobbered, and an existing entry is
        never modified or dropped — the registry is append-only; a name
        re-registered with a different implementation is a fault, and then
        nothing is written.  Nothing is written either when every contract
        is already recorded.
        """
        entries = self.read_registry()
        recorded = {entry.get("name"): entry for entry in entries}
        added: List[Dict[str, str]] = []
        for name, contract_class in contracts.items():
            record = {
                "name": name,
                "module": contract_class.__module__,
                "qualname": contract_class.__qualname__,
            }
            entry = recorded.setdefault(name, record)
            if entry is record:
                added.append(record)
            elif entry.get("module") != record["module"] or \
                    entry.get("qualname") != record["qualname"]:
                raise IntegrityError(
                    f"registry entry {name!r} already maps to "
                    f"{entry.get('module')}.{entry.get('qualname')}"
                )
        if added:
            atomic_write_json(self.registry_path, entries + added)

    def record_contract(self, name: str, contract_class: type) -> None:
        """Append one contract to the durable registry (see :meth:`record_contracts`)."""
        self.record_contracts({name: contract_class})

    # -- equivocation proofs ----------------------------------------------------

    def read_proofs(self) -> List[Dict[str, Any]]:
        if not os.path.exists(self.proofs_path):
            return []
        proofs = read_checked_json(self.proofs_path)
        if not isinstance(proofs, list):
            raise IntegrityError(f"{self.proofs_path} does not hold a proof list")
        return proofs

    def append_proof(self, proof) -> None:
        """Persist an equivocation proof (full sealed-header material).

        Read-before-modify and deduplicated by ``(height, proposer)``, so
        re-observing a double-seal after a restart cannot duplicate or drop
        recorded slashing evidence.
        """
        existing = self.read_proofs()
        wire = proof.to_wire()
        for entry in existing:
            if entry.get("height") == wire["height"] and \
                    entry.get("proposer") == wire["proposer"]:
                return
        existing.append(wire)
        atomic_write_json(self.proofs_path, existing)

    # -- derived rotations (epoch-boundary validator sets) ----------------------

    def read_rotations(self) -> Dict[str, Any]:
        """Read the persisted rotation sidecar (empty when unwritten).

        The sidecar is written lazily, only by epoch-aware chains; a
        missing file means no rotation has been derived yet.
        """
        if not os.path.exists(self.rotations_path):
            return {}
        payload = read_checked_json(self.rotations_path)
        if not isinstance(payload, dict):
            raise IntegrityError(f"{self.rotations_path} does not hold a rotation map")
        return payload

    def save_rotations(self, payload: Dict[str, Any]) -> None:
        """Atomically persist the registry address and derived rotations.

        The whole document is rewritten on every change (rotations are few —
        one per epoch inside the reorg window plus history) so a crash
        leaves either the previous or the new reconciled view, never a
        partial one.
        """
        atomic_write_json(self.rotations_path, payload)
