"""Property-based coverage of the per-entry journal.

The ``entry`` and ``pop`` journal kinds (written by ``storage_write_entry``
/ ``storage_delete_entry`` / ``storage_append``) must compose with the
``slot`` kind under arbitrarily nested ``begin``/``rollback``/``commit``
frames: a rollback restores storage byte-for-byte to the frame boundary,
a commit folds changes into the enclosing frame.  Hypothesis drives random
operation sequences against a plain-dict mirror.
"""

from hypothesis import given, settings, strategies as st

from repro.blockchain.state import WorldState

CONTRACT = "0x" + "c0" * 20

values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.booleans(),
    st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=2),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write_entry"), st.sampled_from(["map-a", "map-b"]),
                  st.sampled_from(["k1", "k2", "k3"]), values),
        st.tuples(st.just("delete_entry"), st.sampled_from(["map-a", "map-b"]),
                  st.sampled_from(["k1", "k2", "k3"])),
        st.tuples(st.just("append"), st.sampled_from(["list-a", "list-b"]), values),
        st.tuples(st.just("write_slot"), st.sampled_from(["slot-a", "slot-b"]), values),
        st.tuples(st.just("delete_slot"), st.sampled_from(["slot-a", "slot-b"])),
    ),
    max_size=12,
)


def fresh_state() -> WorldState:
    state = WorldState()
    state.create_account(CONTRACT, balance=0, contract_class="DistExchangeApp")
    return state


def apply(state: WorldState, ops) -> None:
    for op in ops:
        kind = op[0]
        if kind == "write_entry":
            state.storage_write_entry(CONTRACT, op[1], op[2], op[3])
        elif kind == "delete_entry":
            state.storage_delete_entry(CONTRACT, op[1], op[2])
        elif kind == "append":
            state.storage_append(CONTRACT, op[1], op[2])
        elif kind == "write_slot":
            state.storage_write(CONTRACT, op[1], op[2])
        elif kind == "delete_slot":
            state.storage_delete(CONTRACT, op[1])


@given(operations, operations, operations)
@settings(max_examples=60, deadline=None)
def test_nested_rollbacks_restore_each_frame_boundary(ops1, ops2, ops3):
    state = fresh_state()
    baseline = state.storage_of(CONTRACT)

    state.begin()
    apply(state, ops1)
    after_first = state.storage_of(CONTRACT)
    root_first = state.state_root()

    state.begin()
    apply(state, ops2)
    after_second = state.storage_of(CONTRACT)
    root_second = state.state_root()

    state.begin()
    apply(state, ops3)

    state.rollback()
    assert state.storage_of(CONTRACT) == after_second
    assert state.state_root() == root_second
    state.rollback()
    assert state.storage_of(CONTRACT) == after_first
    assert state.state_root() == root_first
    state.rollback()
    assert state.storage_of(CONTRACT) == baseline
    assert state.journal_depth == 0


@given(operations, operations)
@settings(max_examples=60, deadline=None)
def test_commit_folds_into_the_enclosing_frame(ops1, ops2):
    state = fresh_state()
    baseline = state.storage_of(CONTRACT)

    state.begin()
    apply(state, ops1)
    state.begin()
    apply(state, ops2)
    state.commit()
    after_commit = state.storage_of(CONTRACT)

    # The committed inner frame rolls back with its parent.
    state.rollback()
    assert state.storage_of(CONTRACT) == baseline

    # Replaying everything in one frame and committing keeps the changes.
    state.begin()
    apply(state, ops1)
    apply(state, ops2)
    state.commit()
    assert state.storage_of(CONTRACT) == after_commit
    assert state.journal_depth == 0


@given(operations)
@settings(max_examples=40, deadline=None)
def test_rolled_back_entry_ops_leave_the_state_root_untouched(ops):
    state = fresh_state()
    root_before = state.state_root()
    state.begin()
    apply(state, ops)
    state.rollback()
    assert state.state_root() == root_before
