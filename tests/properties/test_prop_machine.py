"""Property tests: Theorem 16 — every accepted LOCK history is (online)
hybrid atomic — plus compaction transparency, via random command streams."""

import random

from hypothesis import given, settings, strategies as st

from repro.adts import get_adt
from repro.core import (
    Invocation,
    LockConflict,
    LockMachine,
    ProtocolError,
    WouldBlock,
    is_hybrid_atomic,
    is_online_hybrid_atomic,
)
from tests.recording import RecordingCompactingLockMachine

TRANSACTIONS = ["P", "Q", "R"]

INVOCATIONS = {
    "FIFOQueue": [
        Invocation("Enq", (1,)),
        Invocation("Enq", (2,)),
        Invocation("Deq"),
    ],
    "SemiQueue": [
        Invocation("Ins", (1,)),
        Invocation("Ins", (2,)),
        Invocation("Rem"),
    ],
    "Account": [
        Invocation("Credit", (2,)),
        Invocation("Post", (50,)),
        Invocation("Debit", (2,)),
        Invocation("Debit", (3,)),
    ],
    "Set": [
        Invocation("Insert", (1,)),
        Invocation("Remove", (1,)),
        Invocation("Member", (1,)),
    ],
}

command = st.tuples(
    st.sampled_from(["invoke", "commit", "abort"]),
    st.sampled_from(TRANSACTIONS),
    st.integers(min_value=0, max_value=3),
)


def drive(machine, adt_name, commands):
    """Apply a random command stream, skipping ill-formed steps.

    Well-formedness is tracked by the driver, not read back from the
    machine: a compacting machine *forgets* committed transactions, so it
    cannot police transaction reuse (the paper assumes well-formed inputs).
    """
    stamps = iter(range(1, 1000))
    invocations = INVOCATIONS[adt_name]
    completed = set()
    for kind, transaction, index in commands:
        if transaction in completed:
            continue
        if kind == "invoke":
            invocation = invocations[index % len(invocations)]
            try:
                machine.execute(transaction, invocation)
            except (LockConflict, WouldBlock):
                pass
        elif kind == "commit":
            machine.commit(transaction, next(stamps))
            completed.add(transaction)
        else:
            machine.abort(transaction)
            completed.add(transaction)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INVOCATIONS)), st.lists(command, max_size=14))
def test_theorem16_hybrid_atomicity(adt_name, commands):
    adt = get_adt(adt_name)
    machine = LockMachine(adt.spec, adt.conflict)
    drive(machine, adt_name, commands)
    h = machine.history()
    assert is_hybrid_atomic(h, {"X": adt.spec})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(INVOCATIONS)), st.lists(command, max_size=9))
def test_theorem16_online_hybrid_atomicity(adt_name, commands):
    # The stronger (and much more expensive) check on shorter streams.
    adt = get_adt(adt_name)
    machine = LockMachine(adt.spec, adt.conflict)
    drive(machine, adt_name, commands)
    assert is_online_hybrid_atomic(machine.history(), {"X": adt.spec})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INVOCATIONS)), st.lists(command, max_size=14))
def test_compaction_is_transparent(adt_name, commands):
    """Plain and compacting machines accept identical histories."""
    adt = get_adt(adt_name)
    plain = LockMachine(adt.spec, adt.conflict)
    compacting = RecordingCompactingLockMachine(adt.spec, adt.conflict)
    drive(plain, adt_name, commands)
    drive(compacting, adt_name, commands)
    assert plain.history().events == compacting.history().events


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INVOCATIONS)), st.lists(command, max_size=14))
def test_two_phase_invariant_and_graph_witness(adt_name, commands):
    """Accepted histories keep the conflict graph consistent with the
    timestamp order, and the polynomial graph witness serializes."""
    from repro.analysis import (
        conflict_serialization_order,
        timestamp_order_consistent,
    )
    from repro.core import is_serializable_in_order

    adt = get_adt(adt_name)
    machine = LockMachine(adt.spec, adt.conflict)
    drive(machine, adt_name, commands)
    h = machine.history()
    assert timestamp_order_consistent(h, adt.conflict)
    order = conflict_serialization_order(h, adt.conflict)
    assert order is not None
    assert is_serializable_in_order(h.permanent(), order, {"X": adt.spec})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INVOCATIONS)), st.lists(command, max_size=14))
def test_commutativity_conflicts_also_hybrid_atomic(adt_name, commands):
    """Upward compatibility: the baseline conflict tables run on the same
    machine and stay hybrid atomic (their relations contain a dependency
    relation)."""
    adt = get_adt(adt_name)
    machine = LockMachine(adt.spec, adt.commutativity_conflict)
    drive(machine, adt_name, commands)
    assert is_hybrid_atomic(machine.history(), {"X": adt.spec})
