"""Binary state roots: preimages, digest caches, persistence.

The world-state root hashes binary SHA-256 preimages of every slot, account
and the world.  These tests pin the properties it leans on:

* the binary slot preimage is injective — no two distinct ``(key, value)``
  pairs share a preimage (Hypothesis, unicode keys, nested values, empty
  strings);
* the root is order-insensitive and deterministic;
* a restored account with one dirty slot re-hashes exactly that slot — the
  warm-cache adoption path and the accumulator refresh between them never
  fall back to whole-account re-hashing;
* dict- and list-valued slots digest as per-entry leaf accumulators: one
  entry write re-hashes one leaf (not the collection), every entry-op kind
  agrees with a cold recompute and rolls back exactly, list order still
  matters, and in-memory keys digest like their JSON-serialized forms;
* a durable store's promoted snapshots hold the state and its root, and
  nothing else, and a cold start from them lands on the same head.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimulatedClock
from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.node import BlockchainNode
import repro.blockchain.state as state_mod
from repro.blockchain.state import WorldState, slot_digest_v2, slot_preimage_v2
from repro.blockchain.storage import read_checked_json
from repro.blockchain.transaction import Transaction

# -- the injectivity property the accumulator leans on ------------------------

slot_keys = st.text(max_size=24)  # unicode, empty string included
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
slot_pairs = st.tuples(slot_keys, json_values)


@given(slot_pairs, slot_pairs)
@settings(max_examples=200, deadline=None)
def test_distinct_slot_pairs_never_share_a_preimage(pair_a, pair_b):
    """No two distinct (key, value) pairs may collide before hashing even
    starts: the commutative accumulator sums slot digests, so a preimage
    collision would silently merge two different storage writes."""
    if pair_a != pair_b:
        assert slot_preimage_v2(*pair_a) != slot_preimage_v2(*pair_b)


@given(slot_pairs, slot_pairs)
@settings(max_examples=200, deadline=None)
def test_distinct_slot_pairs_never_share_a_digest(pair_a, pair_b):
    """Same property one level up, across all three digest branches —
    scalar preimages, per-entry map accumulators, index-tagged list
    accumulators — since collection slots no longer hash through the flat
    preimage."""
    if pair_a != pair_b:
        assert slot_digest_v2(*pair_a) != slot_digest_v2(*pair_b)


def test_key_value_boundary_cannot_be_shifted():
    """The classic concatenation ambiguity: ("ab", "c") vs ("a", "bc") and
    empty-vs-missing must all produce distinct preimages."""
    pairs = [("ab", "c"), ("a", "bc"), ("abc", ""), ("", "abc"),
             ("a", ""), ("a", None), ("", ""), ("", None)]
    preimages = {slot_preimage_v2(key, value) for key, value in pairs}
    assert len(preimages) == len(pairs)


# -- determinism ----------------------------------------------------------------


def populated(order=None):
    state = WorldState()
    writes = order or range(6)
    for i in writes:
        address = f"0xacct{i % 3}"
        if not state.has_account(address):
            state.create_account(address, balance=100 + i % 3, contract_class="Box")
        state.storage_write(address, f"slot-{i}", {"value": i, "tags": ["a", i]})
    return state


def test_root_is_order_insensitive():
    forward = populated().state_root()
    shuffled = populated(order=[3, 0, 5, 1, 4, 2]).state_root()
    assert forward == shuffled
    assert len(forward) == 64 and int(forward, 16) >= 0


def test_incremental_root_matches_cold_recompute():
    state = populated()
    state.state_root()
    state.storage_write("0xacct0", "slot-0", {"value": "rewritten"})
    state.storage_delete("0xacct1", "slot-4")
    state.create_account("0xlate", balance=5)
    incremental = state.state_root()
    cold = WorldState.from_dict(state.to_dict())
    assert cold.state_root() == incremental


def test_tuples_and_lists_root_identically():
    """Snapshot round-trips turn tuples into lists; the root must not care."""
    with_tuple = WorldState()
    with_tuple.create_account("0xt", balance=1, contract_class="Box")
    with_tuple.storage_write("0xt", "slot", {"pair": (1, "two")})
    with_list = WorldState.from_dict(with_tuple.to_dict())
    assert with_list.state_root() == with_tuple.state_root()


# -- the warm restore path (the dead-read regression) -------------------------


def counting_digest(state, calls):
    real = state._hash_slot

    def wrapper(address, key, value, dirty_ids):
        calls.append(key)
        return real(address, key, value, dirty_ids)

    state._hash_slot = wrapper


def test_restored_account_with_one_dirty_slot_rehashes_only_that_slot():
    """Satellite pin: after a loader-style restore, the first dirty write to
    an account re-hashes exactly the written slot — not the account's whole
    storage, and nothing at all for untouched accounts."""
    state = populated()
    root = state.state_root()
    candidate = WorldState.from_dict(state.to_dict())
    assert candidate.state_root() == root  # the loader's verification pass
    restored = WorldState()
    restored.restore(candidate)

    calls = []
    counting_digest(restored, calls)
    assert restored.state_root() == root  # warm adoption: zero re-hashing
    assert calls == []
    restored.storage_write("0xacct0", "slot-0", {"value": "dirty"})
    assert restored.state_root() != root
    assert calls == ["slot-0"]


def test_deep_copy_snapshots_stay_cold():
    """`snapshot()` deep-copies mutable storage, so restore() must not adopt
    its caches — the copy could be mutated behind the digests' back."""
    state = populated()
    root = state.state_root()
    checkpoint = state.snapshot()
    state.storage_write("0xacct0", "slot-0", {"value": "diverged"})
    assert state.state_root() != root
    state.restore(checkpoint)
    assert state.state_root() == root


def test_root_hash_seconds_accrues_only_on_recompute():
    state = populated()
    state.state_root()
    spent = state.root_hash_seconds
    assert spent > 0.0
    state.state_root()  # cached — the counter must not move
    assert state.root_hash_seconds == spent
    state.credit("0xacct0", 1)
    state.state_root()
    assert state.root_hash_seconds > spent


# -- entry-granular collection digests ----------------------------------------


def indexed_state(entries=40):
    state = WorldState()
    state.create_account("0xidx", balance=1, contract_class="Box")
    for i in range(entries):
        state.storage_write_entry("0xidx", "subscribers", f"user-{i}", {"paid": i})
        state.storage_append("0xidx", "evidence", {"seq": i})
    return state


def test_entry_ops_match_cold_recompute_and_roll_back():
    """Every per-entry mutation kind — entry write/delete, append, item
    write — must keep the incremental root equal to a cold recompute of the
    same contents, and roll back to the pre-frame root exactly."""
    state = indexed_state()
    base = state.state_root()
    assert WorldState.from_dict(state.to_dict()).state_root() == base

    state.begin()
    state.storage_write_entry("0xidx", "subscribers", "user-7", {"paid": "rewritten"})
    state.storage_delete_entry("0xidx", "subscribers", "user-9")
    state.storage_write_entry("0xidx", "subscribers", "user-new", {"paid": None})
    state.storage_append("0xidx", "evidence", {"seq": "tail"})
    state.storage_write_item("0xidx", "evidence", 3, {"seq": "patched"})
    changed = state.state_root()
    assert changed != base
    assert WorldState.from_dict(state.to_dict()).state_root() == changed
    state.rollback()
    assert state.state_root() == base


def test_entry_write_rehashes_one_leaf_not_the_collection(monkeypatch):
    """The point of the per-entry accumulator: after warm-up, touching one
    subscriber of a 40-entry map (or appending to a 40-item log) hashes
    exactly one leaf, so population-scale indexes update in O(1)."""
    state = indexed_state()
    state.state_root()

    entry_leaves, item_leaves = [], []
    real_entry, real_item = state_mod.entry_digest_v2, state_mod.item_digest_v2
    monkeypatch.setattr(state_mod, "entry_digest_v2",
                        lambda k, v: entry_leaves.append(k) or real_entry(k, v))
    monkeypatch.setattr(state_mod, "item_digest_v2",
                        lambda i, v: item_leaves.append(i) or real_item(i, v))

    state.storage_write_entry("0xidx", "subscribers", "user-3", {"paid": "updated"})
    state.state_root()
    assert entry_leaves == ["user-3"] and item_leaves == []

    entry_leaves.clear()
    state.storage_append("0xidx", "evidence", {"seq": "new"})
    state.state_root()
    assert item_leaves == [40] and entry_leaves == []


def test_list_slots_commit_to_element_order():
    """The commutative sum over item leaves must not erase ordering — the
    index is part of each leaf's preimage."""
    forward, backward = WorldState(), WorldState()
    for state, items in ((forward, ["a", "b"]), (backward, ["b", "a"])):
        state.create_account("0xl", balance=1, contract_class="Box")
        state.storage_write("0xl", "log", items)
    assert forward.state_root() != backward.state_root()


def test_collection_digests_survive_a_json_round_trip():
    """Persisted snapshots JSON-encode storage, which stringifies dict keys
    and turns tuples into lists; the digest must commit to the serialized
    identity, not the in-memory one."""
    state = WorldState()
    state.create_account("0xj", balance=1, contract_class="Box")
    state.storage_write("0xj", "by-id", {7: "seven", True: "yes"})
    state.storage_write("0xj", "pairs", ((1, "a"), (2, "b")))
    stringified = WorldState()
    stringified.create_account("0xj", balance=1, contract_class="Box")
    stringified.storage_write("0xj", "by-id", {"7": "seven", "true": "yes"})
    stringified.storage_write("0xj", "pairs", [[1, "a"], [2, "b"]])
    assert state.state_root() == stringified.state_root()


# -- persistence ------------------------------------------------------------------


def durable_node(directory):
    key = KeyPair.from_name("state-root-validator")
    consensus = ProofOfAuthority(validators=[key.address], block_interval=5.0)
    node = BlockchainNode(
        consensus,
        key,
        clock=SimulatedClock(start=1_700_000_000.0),
        genesis_balances={key.address: 10**12, "0xsink": 0},
        persist_dir=str(directory),
        max_reorg_depth=4,
        snapshot_interval=4,
    )
    return node, key


def mine_transfers(node, key, count):
    for _ in range(count):
        tx = Transaction(
            sender=key.address, to="0xsink", data={}, value=7,
            nonce=node.next_nonce(key.address),
        )
        node.submit_transaction(tx.sign(key))
        node.produce_block()


def test_sidecar_free_snapshots_reopen_on_the_same_head(tmp_path):
    node, key = durable_node(tmp_path)
    mine_transfers(node, key, 10)
    head_hash = node.chain.head.hash
    node.close()
    snapshot_dir = tmp_path / "snapshots"
    promoted = sorted(snapshot_dir.glob("snapshot-*.json"))
    assert promoted
    for path in promoted:
        assert set(read_checked_json(str(path))) == {"height", "stateRoot", "state"}

    restored = BlockchainNode.open_from_disk(str(tmp_path), key)
    assert restored.chain.head.hash == head_hash
    assert restored.recovery.snapshot_height > 0
    assert restored.recovery.snapshots_rejected == []
    assert restored.chain.verify_chain(replay=True)
