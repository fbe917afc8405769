"""World state: accounts, contract storage, change journal, and cached roots.

The world state is the mapping every full node maintains and agrees on via
consensus.  Contract storage is a per-address dictionary of JSON-serializable
values; a state root (hash committing to every account and storage slot) is
included in every block header so tampering with state is detectable.

Three properties keep the hot paths independent of the world size:

* **Change journal** — every mutation made through the :class:`WorldState`
  API records an undo entry while a frame opened by :meth:`begin` is active.
  A failed transaction calls :meth:`rollback` and reverts in O(touched
  slots); the seed implementation deep-copied the entire state per
  transaction instead.
* **Per-entry slot operations** — :meth:`storage_read_entry`,
  :meth:`storage_write_entry`, :meth:`storage_delete_entry`, and
  :meth:`storage_append` touch a single entry of a dict- or list-valued
  slot.  They copy and journal O(one entry), so contracts that keep an
  index in one slot (``pending requests``, ``round responses``) pay for the
  entry they touch, not for the whole collection.
* **Incremental state root** — :meth:`state_root` keeps a digest per
  *storage slot* plus a per-account commutative accumulator over those slot
  digests, and a second accumulator over the account digests.  Mutations
  mark (account, slot) pairs dirty; recomputing the root only re-hashes the
  dirty slots, so producing a block costs O(slots touched since the last
  block), not O(world) and not O(an account's whole storage).  Dict- and
  list-valued slots additionally keep one leaf digest per entry, so an
  entry write re-hashes one leaf rather than re-encoding the whole
  collection — on-chain indexes with thousands of entries (subscriber
  maps, evidence logs, round responses) stay O(1) to update.  Repeated
  calls with no intervening mutation return the cached root string
  without any hashing at all.

Every digest — slot, entry, item, account and the root itself — is SHA-256
over a domain-tagged binary preimage; values enter it through the
type-tagged, length-prefixed :func:`~repro.common.serialization.binary_encode`.

Storage values have **value semantics**: reads return structural copies and
writes store structural copies.  Contract code therefore cannot alias the
canonical storage and mutate it behind the journal's back — the only way to
change state is through the journaled API.
"""

from __future__ import annotations

import copy
import hashlib
import time
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import NotFoundError, ValidationError
from repro.common.serialization import _coerce_json_key, binary_encode
from repro.blockchain.account import Account

_MISSING = object()

# The accumulators add digests modulo 2**256.  Addition is commutative, which
# is what makes the root incrementally maintainable: replacing one slot's
# digest subtracts the old leaf and adds the new one without touching the
# rest of the world.
#
# Trade-off: a commutative sum is NOT collision-resistant against an
# adversary who controls account contents (a generalized-birthday / k-sum
# search can find digest deltas summing to zero well below 2**128 effort).
# For this simulation the root is a cheap integrity commitment, not a
# cryptographic accumulator; full semantic tamper-evidence comes from
# Blockchain.verify_chain(replay=True), which re-executes every transaction
# and does not rely on root collision resistance.  A production chain would
# use a Merkle trie here.
_ROOT_MODULUS = 1 << 256


def slot_preimage_v2(key: str, value: Any) -> bytes:
    """Scalar slot leaf preimage: domain tag + binary key/value encodings.

    Both encodings are self-delimiting, so the concatenation is injective:
    no two distinct (key, value) pairs share a preimage (pinned by a
    Hypothesis property in the test suite).
    """
    return b"slot\x00" + binary_encode(key) + binary_encode(value)


_MAP_SLOT_TAG = b"mapslot\x00"
_LIST_SLOT_TAG = b"listslot\x00"


def entry_digest_v2(entry_key: Any, value: Any) -> int:
    """Leaf for one entry of a dict-valued slot.

    The entry key is coerced the way a JSON object key would be
    (``_coerce_json_key``), so a slot that serializes identically through a
    snapshot round trip — where all object keys become strings — also roots
    identically before and after the trip.
    """
    preimage = (b"entry\x00" + binary_encode(_coerce_json_key(entry_key))
                + binary_encode(value))
    return int.from_bytes(hashlib.sha256(preimage).digest(), "big")


def item_digest_v2(index: int, value: Any) -> int:
    """Leaf for one element of a list-valued slot.

    The element's position is part of the preimage, so the commutative sum
    over item digests still commits to the order of the list.
    """
    preimage = b"item\x00" + index.to_bytes(8, "big") + binary_encode(value)
    return int.from_bytes(hashlib.sha256(preimage).digest(), "big")


def collection_digest_v2(key: str, count: int, acc: int, tag: bytes) -> int:
    """Slot digest for a collection: domain tag, key, size, leaf sum."""
    preimage = (tag + binary_encode(key) + count.to_bytes(8, "big")
                + (acc % _ROOT_MODULUS).to_bytes(32, "big"))
    return int.from_bytes(hashlib.sha256(preimage).digest(), "big")


def slot_digest_v2(key: str, value: Any) -> int:
    """Slot leaf: SHA-256 over the binary preimage.

    Dict- and list-valued slots hash as a size-tagged commutative sum of
    per-entry leaves rather than one monolithic encoding.  The digest is
    the same either way a caller computes it, but the per-entry form is
    what lets :meth:`WorldState.state_root` re-hash only the entries
    touched by :meth:`~WorldState.storage_write_entry` /
    :meth:`~WorldState.storage_append` — without it, every append to an
    on-chain index re-encodes the whole collection and population-scale
    rounds go quadratic in the number of consumers.
    """
    if isinstance(value, dict):
        acc = sum(entry_digest_v2(k, v) for k, v in value.items()) % _ROOT_MODULUS
        return collection_digest_v2(key, len(value), acc, _MAP_SLOT_TAG)
    if isinstance(value, (list, tuple)):
        acc = sum(item_digest_v2(i, v) for i, v in enumerate(value)) % _ROOT_MODULUS
        return collection_digest_v2(key, len(value), acc, _LIST_SLOT_TAG)
    return int.from_bytes(hashlib.sha256(slot_preimage_v2(key, value)).digest(), "big")


def copy_jsonlike(value: Any) -> Any:
    """Structural copy of a JSON-like value (dicts, lists, tuples, scalars)."""
    if isinstance(value, dict):
        return {key: copy_jsonlike(item) for key, item in value.items()}
    if isinstance(value, list):
        return [copy_jsonlike(item) for item in value]
    if isinstance(value, tuple):
        return tuple(copy_jsonlike(item) for item in value)
    return value


class WorldState:
    """Accounts, balances, nonces, and contract storage."""

    def __init__(self):
        # Wall-clock seconds spent recomputing roots (cache hits cost nothing
        # and are not counted).  Benchmarks read this as `root_hash_time`.
        self.root_hash_seconds: float = 0.0
        self._accounts: Dict[str, Account] = {}
        self._storage: Dict[str, Dict[str, Any]] = {}
        # Undo log: tuples describing how to revert each mutation, recorded
        # only while at least one frame is open.
        self._journal: List[Tuple] = []
        # Stack of journal lengths, one entry per open frame.
        self._frames: List[int] = []
        # Addresses whose cached digest is stale.
        self._dirty: Set[str] = set()
        # address -> {slot key -> dirty entries}.  A slot mapped to None is
        # wholly dirty (rewritten, deleted, or type-changed); a slot mapped
        # to a set is dirty only in those entry keys / list indices.  An
        # address dirty with no entry here has only account-level changes
        # (balance/nonce); the "recompute every slot" path triggers when the
        # address is missing from _slot_digests (fresh account, or after
        # restore() cleared the caches).
        self._dirty_slots: Dict[str, Dict[str, Optional[Set]]] = {}
        # address -> slot key -> integer digest of (key, value).
        self._slot_digests: Dict[str, Dict[str, int]] = {}
        # address -> slot key -> [leaf sum, {entry id -> leaf digest}] for
        # dict-/list-valued slots, so an entry write re-hashes one leaf
        # instead of the whole collection.
        self._entry_digests: Dict[str, Dict[str, list]] = {}
        # address -> sum of its slot digests, mod _ROOT_MODULUS.
        self._storage_acc: Dict[str, int] = {}
        # address -> integer digest of (account record, storage accumulator).
        self._digests: Dict[str, int] = {}
        # Sum of the digest integers of every account, mod _ROOT_MODULUS.
        self._root_acc: int = 0
        # Cached state_root() string; None whenever any account is dirty.
        self._root_value: Optional[str] = None

    # -- journal ------------------------------------------------------------

    def begin(self) -> int:
        """Open a journal frame; returns the new frame depth."""
        self._frames.append(len(self._journal))
        return len(self._frames)

    def commit(self) -> None:
        """Close the innermost frame, keeping its changes.

        Changes merge into the enclosing frame; committing the outermost
        frame discards the undo entries (they can no longer be rolled back).
        """
        if not self._frames:
            raise ValidationError("commit() without a matching begin()")
        self._frames.pop()
        if not self._frames:
            self._journal.clear()

    def commit_oldest(self) -> None:
        """Finalize the *outermost* open frame, keeping its changes.

        Used by the chain's bounded-reorg window: one journal frame stays
        open per non-final canonical block, and when a block sinks past the
        reorg horizon its frame — the bottom of the stack — is finalized.
        The undo entries belonging to that frame are discarded and the marks
        of the remaining frames shift down accordingly.
        """
        if not self._frames:
            raise ValidationError("commit_oldest() without a matching begin()")
        self._frames.pop(0)
        if not self._frames:
            self._journal.clear()
            return
        drop = self._frames[0]
        if drop:
            del self._journal[:drop]
            self._frames = [mark - drop for mark in self._frames]

    def rollback(self) -> None:
        """Revert every change made since the innermost :meth:`begin`."""
        if not self._frames:
            raise ValidationError("rollback() without a matching begin()")
        mark = self._frames.pop()
        while len(self._journal) > mark:
            entry = self._journal.pop()
            kind = entry[0]
            address = entry[1]
            if kind == "create":
                del self._accounts[address]
                self._storage.pop(address, None)
                self._touch(address)
            elif kind == "balance":
                self._accounts[address].balance = entry[2]
                self._touch(address)
            elif kind == "nonce":
                self._accounts[address].nonce = entry[2]
                self._touch(address)
            elif kind == "slot":
                _, _, key, old = entry
                storage = self._storage.get(address)
                if storage is not None:
                    if old is _MISSING:
                        storage.pop(key, None)
                    else:
                        storage[key] = old
                self._touch(address, key)
            elif kind == "entry":
                _, _, key, entry_key, old = entry
                storage = self._storage.get(address)
                if storage is not None and isinstance(storage.get(key), dict):
                    if old is _MISSING:
                        storage[key].pop(entry_key, None)
                    else:
                        storage[key][entry_key] = old
                self._touch_entry(address, key, entry_key)
            elif kind == "pop":
                _, _, key = entry
                storage = self._storage.get(address)
                if storage is not None and isinstance(storage.get(key), list) and storage[key]:
                    storage[key].pop()
                    self._touch_entry(address, key, len(storage[key]))
                else:
                    self._touch(address, key)
            elif kind == "item":
                _, _, key, index, old = entry
                storage = self._storage.get(address)
                if storage is not None and isinstance(storage.get(key), list) \
                        and 0 <= index < len(storage[key]):
                    storage[key][index] = old
                self._touch_entry(address, key, index)

    @property
    def journal_depth(self) -> int:
        """Number of currently open journal frames."""
        return len(self._frames)

    def _record(self, entry: Tuple) -> None:
        if self._frames:
            self._journal.append(entry)

    def _touch(self, address: str, key: Optional[str] = None) -> None:
        self._dirty.add(address)
        if key is not None:
            if address in self._dirty_slots:
                self._dirty_slots[address][key] = None
            else:
                self._dirty_slots[address] = {key: None}
            # A whole-slot write may change the value's type or replace the
            # collection outright — the per-entry cache no longer describes
            # the stored value.
            entries = self._entry_digests.get(address)
            if entries is not None:
                entries.pop(key, None)
        self._root_value = None

    def _touch_entry(self, address: str, key: str, entry_id: Any) -> None:
        """Mark one entry of a collection-valued slot dirty.

        Folds into a whole-slot mark when the slot is already wholly dirty;
        otherwise the next root recomputation re-hashes only the touched
        entries of the slot.
        """
        self._dirty.add(address)
        slots = self._dirty_slots.setdefault(address, {})
        if key in slots:
            ids = slots[key]
            if ids is not None:
                ids.add(entry_id)
        else:
            slots[key] = {entry_id}
        self._root_value = None

    # -- accounts -----------------------------------------------------------

    def create_account(self, address: str, balance: int = 0,
                       contract_class: Optional[str] = None) -> Account:
        """Create an account; raises if the address already exists."""
        if address in self._accounts:
            raise ValidationError(f"account {address} already exists")
        account = Account(address=address, balance=balance, contract_class=contract_class)
        self._record(("create", address))
        self._accounts[address] = account
        if contract_class is not None:
            self._storage[address] = {}
        self._touch(address)
        return account

    def get_or_create_account(self, address: str) -> Account:
        """Return the account at *address*, creating an empty one if needed."""
        if address not in self._accounts:
            return self.create_account(address)
        return self._accounts[address]

    def get_account(self, address: str) -> Account:
        """Return the account at *address* or raise :class:`NotFoundError`.

        The returned object is the live account record; mutate it only
        through the journaled :meth:`credit` / :meth:`debit` /
        :meth:`bump_nonce` / :meth:`set_balance` methods so rollback and the
        root cache stay correct.
        """
        if address not in self._accounts:
            raise NotFoundError(f"unknown account {address}")
        return self._accounts[address]

    def has_account(self, address: str) -> bool:
        return address in self._accounts

    def accounts(self) -> Iterator[Account]:
        return iter(self._accounts.values())

    def account_count(self) -> int:
        return len(self._accounts)

    def balance_of(self, address: str) -> int:
        """Return the balance of *address* (0 for unknown accounts)."""
        account = self._accounts.get(address)
        return account.balance if account else 0

    def credit(self, address: str, amount: int) -> None:
        """Add *amount* to the balance of *address* (journaled)."""
        account = self.get_or_create_account(address)
        self._record(("balance", address, account.balance))
        account.credit(amount)
        self._touch(address)

    def debit(self, address: str, amount: int) -> None:
        """Remove *amount* from the balance of *address* (journaled)."""
        account = self.get_account(address)
        self._record(("balance", address, account.balance))
        account.debit(amount)
        self._touch(address)

    def set_balance(self, address: str, balance: int) -> None:
        """Overwrite the balance of *address* (journaled)."""
        if balance < 0:
            raise ValidationError("balance must be non-negative")
        account = self.get_account(address)
        self._record(("balance", address, account.balance))
        account.balance = balance
        self._touch(address)

    def bump_nonce(self, address: str) -> int:
        """Increment and return the nonce of *address* (journaled)."""
        account = self.get_account(address)
        self._record(("nonce", address, account.nonce))
        result = account.bump_nonce()
        self._touch(address)
        return result

    def transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Move *amount* from *sender* to *recipient*."""
        if amount < 0:
            raise ValidationError("transfer amount must be non-negative")
        if amount == 0:
            return
        self.debit(sender, amount)
        self.credit(recipient, amount)

    # -- contract storage -----------------------------------------------------

    def _contract_storage(self, address: str) -> Dict[str, Any]:
        """Return the live storage dictionary of contract *address*."""
        account = self.get_account(address)
        if not account.is_contract:
            raise ValidationError(f"account {address} is not a contract")
        return self._storage.setdefault(address, {})

    def storage_of(self, address: str) -> Dict[str, Any]:
        """Return a structural copy of the storage of contract *address*."""
        return copy_jsonlike(self._contract_storage(address))

    def storage_keys(self, address: str) -> List[str]:
        """Return the slot keys of contract *address* without copying values."""
        return list(self._contract_storage(address).keys())

    def storage_read(self, address: str, key: str, default: Any = None) -> Any:
        """Read a storage slot; the returned value is a structural copy."""
        storage = self._contract_storage(address)
        if key not in storage:
            return default
        return copy_jsonlike(storage[key])

    def storage_write(self, address: str, key: str, value: Any) -> bool:
        """Write a storage slot; returns True when the slot was previously empty."""
        storage = self._contract_storage(address)
        is_new = key not in storage
        self._record(("slot", address, key, _MISSING if is_new else storage[key]))
        storage[key] = copy_jsonlike(value)
        self._touch(address, key)
        return is_new

    def storage_delete(self, address: str, key: str) -> bool:
        """Delete a storage slot; returns True when the slot existed."""
        storage = self._contract_storage(address)
        if key in storage:
            self._record(("slot", address, key, storage[key]))
            del storage[key]
            self._touch(address, key)
            return True
        return False

    # -- per-entry slot operations ---------------------------------------------

    def _mapping_slot(self, address: str, key: str, create: bool) -> Optional[Dict[str, Any]]:
        """Return the live dict behind a mapping-valued slot (or None)."""
        storage = self._contract_storage(address)
        if key not in storage:
            if not create:
                return None
            self._record(("slot", address, key, _MISSING))
            storage[key] = {}
        slot = storage[key]
        if not isinstance(slot, dict):
            raise ValidationError(f"storage slot {key!r} of {address} does not hold a mapping")
        return slot

    def storage_read_entry(self, address: str, key: str, entry_key: str,
                           default: Any = None) -> Any:
        """Read one entry of a dict-valued slot; copies O(that entry)."""
        slot = self._mapping_slot(address, key, create=False)
        if slot is None or entry_key not in slot:
            return default
        return copy_jsonlike(slot[entry_key])

    def storage_has_entry(self, address: str, key: str, entry_key: str) -> bool:
        """Membership test on a dict-valued slot without copying any value."""
        slot = self._mapping_slot(address, key, create=False)
        return slot is not None and entry_key in slot

    def storage_entry_count(self, address: str, key: str) -> int:
        """Number of entries of a dict- or list-valued slot (0 when absent)."""
        storage = self._contract_storage(address)
        slot = storage.get(key)
        if slot is None:
            return 0
        if not isinstance(slot, (dict, list)):
            raise ValidationError(f"storage slot {key!r} of {address} is not a collection")
        return len(slot)

    def storage_write_entry(self, address: str, key: str, entry_key: str, value: Any) -> bool:
        """Write one entry of a dict-valued slot; returns True when the entry is new.

        Journals only the previous entry value, so rollback and the root
        cache cost O(one entry) instead of O(the whole slot).
        """
        slot = self._mapping_slot(address, key, create=True)
        assert slot is not None
        is_new = entry_key not in slot
        self._record(("entry", address, key, entry_key, _MISSING if is_new else slot[entry_key]))
        slot[entry_key] = copy_jsonlike(value)
        self._touch_entry(address, key, entry_key)
        return is_new

    def storage_delete_entry(self, address: str, key: str, entry_key: str) -> bool:
        """Delete one entry of a dict-valued slot; returns True when it existed."""
        slot = self._mapping_slot(address, key, create=False)
        if slot is None or entry_key not in slot:
            return False
        self._record(("entry", address, key, entry_key, slot[entry_key]))
        del slot[entry_key]
        self._touch_entry(address, key, entry_key)
        return True

    def storage_read_item(self, address: str, key: str, index: int, default: Any = None) -> Any:
        """Read one element of a list-valued slot; copies O(that element)."""
        storage = self._contract_storage(address)
        slot = storage.get(key)
        if slot is None:
            return default
        if not isinstance(slot, list):
            raise ValidationError(f"storage slot {key!r} of {address} does not hold a list")
        if not 0 <= index < len(slot):
            return default
        return copy_jsonlike(slot[index])

    def storage_write_item(self, address: str, key: str, index: int, value: Any) -> None:
        """Overwrite one element of a list-valued slot (journaled O(one element)).

        The index must address an existing element — list slots only grow
        through :meth:`storage_append`, so an item write never changes the
        slot's length and its undo entry restores exactly one element.
        """
        storage = self._contract_storage(address)
        slot = storage.get(key)
        if not isinstance(slot, list):
            raise ValidationError(f"storage slot {key!r} of {address} does not hold a list")
        if not 0 <= index < len(slot):
            raise ValidationError(
                f"list slot {key!r} of {address} has no index {index} (length {len(slot)})"
            )
        self._record(("item", address, key, index, slot[index]))
        slot[index] = copy_jsonlike(value)
        self._touch_entry(address, key, index)

    def storage_append(self, address: str, key: str, value: Any) -> Tuple[int, bool]:
        """Append to a list-valued slot; returns ``(new length, slot was new)``.

        The undo entry is a single "pop", so appending to a long on-chain
        list never copies or journals the existing elements.
        """
        storage = self._contract_storage(address)
        is_new_slot = key not in storage
        if is_new_slot:
            self._record(("slot", address, key, _MISSING))
            storage[key] = []
        slot = storage[key]
        if not isinstance(slot, list):
            raise ValidationError(f"storage slot {key!r} of {address} does not hold a list")
        self._record(("pop", address, key))
        slot.append(copy_jsonlike(value))
        self._touch_entry(address, key, len(slot) - 1)
        return len(slot), is_new_slot

    # -- snapshots and roots ----------------------------------------------------

    def snapshot(self) -> "WorldState":
        """Return a full deep copy of the state.

        Retained as a checkpoint utility for tools and tests; the
        per-transaction execution path uses the O(touched-slots) journal
        (:meth:`begin` / :meth:`commit` / :meth:`rollback`) instead.
        """
        clone = WorldState()
        clone._accounts = {addr: Account.from_dict(acc.to_dict()) for addr, acc in self._accounts.items()}
        clone._storage = copy.deepcopy(self._storage)
        clone._dirty = set(clone._accounts)
        return clone

    def restore(self, snapshot: "WorldState") -> None:
        """Restore this state to a previously taken *snapshot*.

        Discards any open journal frames.  When the snapshot's digest caches
        are warm and fully consistent (its root was computed and nothing was
        mutated since — true for a loader that just verified the snapshot's
        claimed root), the caches are adopted wholesale: the restored world
        answers :meth:`state_root` without re-hashing anything, and the first
        dirty write to an account re-hashes only that slot instead of the
        account's entire storage.  Otherwise every cached digest is
        invalidated and the next root call re-hashes the world.  Either way
        the snapshot's containers are aliased, not copied — the snapshot
        object is consumed.
        """
        self._accounts = snapshot._accounts
        self._storage = snapshot._storage
        self._journal.clear()
        self._frames.clear()
        if snapshot._root_value is not None and not snapshot._dirty:
            self._digests = snapshot._digests
            self._slot_digests = snapshot._slot_digests
            self._storage_acc = snapshot._storage_acc
            self._entry_digests = snapshot._entry_digests
            self._dirty_slots.clear()
            self._root_acc = snapshot._root_acc
            self._dirty = set()
            self._root_value = snapshot._root_value
            return
        self._digests.clear()
        self._slot_digests.clear()
        self._storage_acc.clear()
        self._entry_digests.clear()
        self._dirty_slots.clear()
        self._root_acc = 0
        self._dirty = set(self._accounts)
        self._root_value = None

    def _hash_slot(self, address: str, key: str, value: Any,
                   dirty_ids: Optional[Set]) -> int:
        """Digest one slot, maintaining the per-entry leaf cache.

        *dirty_ids* of ``None`` means the whole slot must be re-hashed (and
        the entry cache rebuilt); a set re-hashes only those entry keys /
        list indices against the cached leaves.  Scalar values always hash
        whole — their digest is a single leaf.
        """
        is_mapping = isinstance(value, dict)
        if not is_mapping and not isinstance(value, (list, tuple)):
            self._entry_digests.get(address, {}).pop(key, None)
            return slot_digest_v2(key, value)
        tag = _MAP_SLOT_TAG if is_mapping else _LIST_SLOT_TAG
        cache = self._entry_digests.setdefault(address, {})
        record = cache.get(key)
        if record is None or dirty_ids is None:
            if is_mapping:
                leaves = {k: entry_digest_v2(k, v) for k, v in value.items()}
            else:
                leaves = {i: item_digest_v2(i, v) for i, v in enumerate(value)}
            record = [sum(leaves.values()) % _ROOT_MODULUS, leaves]
            cache[key] = record
        else:
            acc, leaves = record
            for entry_id in dirty_ids:
                previous = leaves.pop(entry_id, None)
                if previous is not None:
                    acc = (acc - previous) % _ROOT_MODULUS
                if is_mapping:
                    present = entry_id in value
                else:
                    present = isinstance(entry_id, int) and 0 <= entry_id < len(value)
                if present:
                    digest = (entry_digest_v2(entry_id, value[entry_id]) if is_mapping
                              else item_digest_v2(entry_id, value[entry_id]))
                    leaves[entry_id] = digest
                    acc = (acc + digest) % _ROOT_MODULUS
            record[0] = acc
        return collection_digest_v2(key, len(value), record[0], tag)

    def _refresh_storage_accumulator(self, address: str) -> int:
        """Bring the per-slot digests of *address* up to date; return the sum."""
        storage = self._storage.get(address, {})
        slot_digests = self._slot_digests.get(address)
        if slot_digests is None:
            # No cache yet (fresh account or post-restore): hash every slot.
            # Any stale _storage_acc / entry-cache state is irrelevant here —
            # everything is rebuilt from scratch.
            self._entry_digests.pop(address, None)
            slot_digests = {
                key: self._hash_slot(address, key, value, None)
                for key, value in storage.items()
            }
            self._slot_digests[address] = slot_digests
            acc = sum(slot_digests.values()) % _ROOT_MODULUS
        else:
            acc = self._storage_acc.get(address, 0)
            dirty_slots = self._dirty_slots.get(address)
            for key, dirty_ids in (dirty_slots or {}).items():
                previous = slot_digests.pop(key, None)
                if previous is not None:
                    acc = (acc - previous) % _ROOT_MODULUS
                if key in storage:
                    digest = self._hash_slot(address, key, storage[key], dirty_ids)
                    slot_digests[key] = digest
                    acc = (acc + digest) % _ROOT_MODULUS
                else:
                    self._entry_digests.get(address, {}).pop(key, None)
        self._storage_acc[address] = acc
        self._dirty_slots.pop(address, None)
        return acc

    def _account_digest(self, address: str) -> int:
        """Digest committing to one account's record and storage."""
        account = self._accounts[address]
        storage_acc = self._refresh_storage_accumulator(address)
        preimage = (
            b"acct\x00"
            + binary_encode(address)
            + binary_encode(account.to_dict())
            + storage_acc.to_bytes(32, "big")
        )
        return int.from_bytes(hashlib.sha256(preimage).digest(), "big")

    def _drop_account_digest(self, address: str) -> None:
        previous = self._digests.pop(address, None)
        if previous is not None:
            self._root_acc = (self._root_acc - previous) % _ROOT_MODULUS
        self._slot_digests.pop(address, None)
        self._storage_acc.pop(address, None)
        self._entry_digests.pop(address, None)
        self._dirty_slots.pop(address, None)

    def state_root(self) -> str:
        """Return a hash committing to every account and storage slot.

        Only the slots and accounts touched since the previous call are
        re-hashed; with no intervening mutation the cached root string is
        returned as-is.
        """
        if self._root_value is None:
            started = time.perf_counter()
            for address in self._dirty:
                previous = self._digests.pop(address, None)
                if previous is not None:
                    self._root_acc = (self._root_acc - previous) % _ROOT_MODULUS
                if address in self._accounts:
                    digest = self._account_digest(address)
                    self._digests[address] = digest
                    self._root_acc = (self._root_acc + digest) % _ROOT_MODULUS
                else:
                    self._drop_account_digest(address)
            self._dirty.clear()
            preimage = (
                b"ROOTv2"
                + len(self._accounts).to_bytes(8, "big")
                + self._root_acc.to_bytes(32, "big")
            )
            self._root_value = hashlib.sha256(preimage).hexdigest()
            self.root_hash_seconds += time.perf_counter() - started
        return self._root_value

    def to_dict(self) -> dict:
        """An independent dump of the state: later mutations do not reach it."""
        dump = self.live_dict()
        dump["storage"] = copy.deepcopy(dump["storage"])
        return dump

    def live_dict(self) -> dict:
        """The :meth:`to_dict` dump without copying contract storage.

        It shares the live storage dicts, so it must be serialized before the
        state changes again; a snapshot write serializes it at once.
        """
        return {
            "accounts": {addr: acc.to_dict() for addr, acc in self._accounts.items()},
            "storage": self._storage,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorldState":
        """Rebuild a state from a :meth:`to_dict` dump (snapshot loading).

        The returned state has no open journal frames and every digest
        cache cold, so the first :meth:`state_root` call hashes the whole
        world — which is exactly what a snapshot loader wants: the rebuilt
        root can be compared against the snapshot's claimed root before the
        state is trusted.  Like :meth:`restore`, it consumes its argument:
        the state adopts the dump's ``storage`` dicts without copying them,
        so the caller must not use *data* afterwards.
        """
        state = cls()
        for address, record in data.get("accounts", {}).items():
            state._accounts[address] = Account.from_dict(record)
        state._storage = data.get("storage", {})
        state._dirty = set(state._accounts)
        return state
