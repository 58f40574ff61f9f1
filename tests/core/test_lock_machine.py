"""Tests for the LOCK state machine (Section 5) including Theorems 16/17."""

import pytest

from repro.adts import (
    ACCOUNT_CONFLICT,
    AccountSpec,
    FifoQueueSpec,
    FileSpec,
    QUEUE_CONFLICT_FIG42,
    QUEUE_CONFLICT_FIG43,
    FILE_CONFLICT,
    deq,
    enq,
)
from repro.core import (
    EMPTY_RELATION,
    CompactingLockMachine,
    IllegalOperation,
    Invocation,
    LockConflict,
    LockMachine,
    Operation,
    ProtocolError,
    WouldBlock,
    is_hybrid_atomic,
    is_online_hybrid_atomic,
)


def queue_machine(conflict=QUEUE_CONFLICT_FIG42):
    return LockMachine(FifoQueueSpec(), conflict, obj="X")


class TestPreconditions:
    def test_respond_requires_pending(self):
        machine = queue_machine()
        with pytest.raises(ProtocolError):
            machine.respond("P", "Ok")

    def test_respond_requires_active(self):
        machine = queue_machine()
        machine.commit("P", 1)
        with pytest.raises(ProtocolError):
            machine.invoke("P", Invocation("Enq", (1,)))

    def test_double_invocation_rejected(self):
        machine = queue_machine()
        machine.invoke("P", Invocation("Enq", (1,)))
        with pytest.raises(ProtocolError):
            machine.invoke("P", Invocation("Enq", (2,)))

    def test_result_must_be_legal_in_view(self):
        machine = queue_machine()
        machine.invoke("P", Invocation("Enq", (1,)))
        with pytest.raises(IllegalOperation):
            machine.respond("P", "Nope")

    def test_commit_with_pending_invocation_rejected(self):
        machine = queue_machine()
        machine.invoke("P", Invocation("Enq", (1,)))
        with pytest.raises(ProtocolError):
            machine.commit("P", 1)

    def test_commit_after_abort_rejected(self):
        machine = queue_machine()
        machine.abort("P")
        with pytest.raises(ProtocolError):
            machine.commit("P", 1)

    def test_abort_after_commit_rejected(self):
        machine = queue_machine()
        machine.commit("P", 1)
        with pytest.raises(ProtocolError):
            machine.abort("P")

    def test_duplicate_timestamp_rejected(self):
        machine = queue_machine()
        machine.commit("P", 1)
        with pytest.raises(ProtocolError):
            machine.commit("Q", 1)

    def test_recommit_same_timestamp_ok(self):
        machine = queue_machine()
        machine.commit("P", 1)
        machine.commit("P", 1)
        with pytest.raises(ProtocolError):
            machine.commit("P", 2)


class TestLocking:
    def test_concurrent_enqueues_allowed_fig42(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG42)
        assert machine.execute("P", Invocation("Enq", (1,))) == "Ok"
        assert machine.execute("Q", Invocation("Enq", (2,))) == "Ok"

    def test_concurrent_enqueues_refused_fig43(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        with pytest.raises(LockConflict):
            machine.execute("Q", Invocation("Enq", (2,)))

    def test_deq_conflicts_with_active_enq_fig42(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG42)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 1)
        machine.execute("Q", Invocation("Enq", (2,)))
        # R would dequeue 1 but Q holds an Enq(2) lock, which conflicts
        # with Deq under Fig 4-2.
        with pytest.raises(LockConflict):
            machine.execute("R", Invocation("Deq"))

    def test_deq_free_of_enq_fig43(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 1)
        machine.execute("Q", Invocation("Enq", (2,)))
        # Under Fig 4-3 a dequeue of a committed item ignores active Enqs.
        assert machine.execute("R", Invocation("Deq")) == 1

    def test_locks_released_on_commit(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 1)
        machine.execute("Q", Invocation("Enq", (2,)))  # no conflict now

    def test_locks_released_on_abort(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.abort("P")
        machine.execute("Q", Invocation("Enq", (2,)))

    def test_conflict_reports_holder(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        with pytest.raises(LockConflict) as info:
            machine.execute("Q", Invocation("Enq", (2,)))
        assert info.value.holder == "P"
        assert info.value.operation == enq(1)

    def test_own_locks_never_conflict(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("P", Invocation("Enq", (2,)))

    def test_failed_execute_leaves_machine_unchanged(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        before = machine.history().events
        with pytest.raises(LockConflict):
            machine.execute("Q", Invocation("Enq", (2,)))
        assert machine.history().events == before
        assert machine.pending("Q") is None
        assert machine.intentions("Q") == ()


class TestCompletedIsAnObserver:
    """``completed()`` builds a set as large as every abort the object has
    ever seen (``execute`` took 883 us after 10,000 aborts when it called
    it four times); the transitions must not pay for it."""

    # The plain machine also walks every retained intentions list, so it
    # gets fewer rounds; the compacting machine's cost per round is flat.
    @pytest.mark.parametrize(
        "machine_cls, rounds", [(LockMachine, 50), (CompactingLockMachine, 5000)]
    )
    def test_transitions_never_build_the_completed_set(self, machine_cls, rounds):
        calls = []

        class Counting(machine_cls):
            def completed(self):
                calls.append(1)
                return super().completed()

        machine = Counting(AccountSpec(), ACCOUNT_CONFLICT, obj="X")
        credit = Invocation("Credit", (1,))
        for number in range(rounds):
            machine.execute(f"a{number}", credit)
            machine.abort(f"a{number}")
            machine.execute(f"c{number}", credit)
            machine.active_intentions()
            machine.commit(f"c{number}", number + 1)
        with pytest.raises(ProtocolError):
            machine.execute("a0", credit)
        assert calls == []
        assert len(machine.completed()) >= rounds


class TestViewsAndBlocking:
    def test_view_includes_committed_in_timestamp_order(self):
        machine = queue_machine()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.commit("P", 2)
        machine.commit("Q", 1)
        assert machine.committed_state() == (enq(2), enq(1))

    def test_view_appends_own_intentions(self):
        machine = queue_machine()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 1)
        machine.execute("Q", Invocation("Enq", (5,)))
        assert machine.view("Q") == (enq(1), enq(5))

    def test_deq_on_empty_blocks(self):
        machine = queue_machine()
        with pytest.raises(WouldBlock):
            machine.execute("P", Invocation("Deq"))

    def test_uncommitted_items_invisible_to_others(self):
        machine = queue_machine(QUEUE_CONFLICT_FIG43)
        machine.execute("P", Invocation("Enq", (1,)))
        # Q's view has no committed items: Deq blocks (it cannot consume
        # P's uncommitted enqueue).
        with pytest.raises(WouldBlock):
            machine.execute("Q", Invocation("Deq"))

    def test_own_intentions_visible(self):
        machine = queue_machine()
        machine.execute("P", Invocation("Enq", (7,)))
        assert machine.execute("P", Invocation("Deq")) == 7


class TestTheorem16:
    """With a dependency-relation conflict, histories are hybrid atomic."""

    def test_paper_scenario(self):
        spec = FifoQueueSpec()
        machine = LockMachine(spec, QUEUE_CONFLICT_FIG42)
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.execute("P", Invocation("Enq", (3,)))
        machine.commit("P", 2)
        machine.commit("Q", 1)
        assert machine.execute("R", Invocation("Deq")) == 2
        assert machine.execute("R", Invocation("Deq")) == 1
        machine.commit("R", 5)
        h = machine.history()
        assert is_hybrid_atomic(h, {"X": spec})
        assert is_online_hybrid_atomic(h, {"X": spec})

    def test_interleaved_account_run(self):
        spec = AccountSpec()
        machine = LockMachine(spec, ACCOUNT_CONFLICT)
        machine.execute("P", Invocation("Credit", (10,)))
        machine.execute("Q", Invocation("Credit", (5,)))  # concurrent credit
        machine.execute("Q", Invocation("Post", (50,)))  # post with credit
        machine.commit("Q", 1)
        machine.commit("P", 2)
        machine.execute("R", Invocation("Debit", (17,)))
        machine.commit("R", 3)
        h = machine.history()
        assert is_hybrid_atomic(h, {"X": spec})
        # Q (ts1): 5 * 1.5 = 7.5; P (ts2): +10 => 17.5; R debits 17 => Ok.


class TestTheorem17:
    """A non-dependency conflict relation admits non-hybrid-atomic runs."""

    def test_empty_conflict_relation_breaks_file(self):
        spec = FileSpec(initial=0)
        machine = LockMachine(spec, EMPTY_RELATION, obj="F")
        machine.execute("T", Invocation("Write", (1,)))
        machine.commit("T", 1)
        machine.execute("Q", Invocation("Write", (2,)))  # active writer
        # R reads 1 from its view (committed state) because no lock
        # conflicts with Q's write — the unsound part.
        assert machine.execute("R", Invocation("Read")) == 1
        machine.commit("Q", 2)
        machine.commit("R", 3)
        h = machine.history()
        assert not is_hybrid_atomic(h, {"F": spec})

    def test_correct_relation_prevents_it(self):
        spec = FileSpec(initial=0)
        machine = LockMachine(spec, FILE_CONFLICT, obj="F")
        machine.execute("T", Invocation("Write", (1,)))
        machine.commit("T", 1)
        machine.execute("Q", Invocation("Write", (2,)))
        with pytest.raises(LockConflict):
            machine.execute("R", Invocation("Read"))


class Stamp:
    """A commit timestamp that counts the comparisons made with it."""

    compared = 0

    def __init__(self, value):
        self.value = value

    def _compare(self, other, test):
        Stamp.compared += 1
        return test(self.value, other.value)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    def __eq__(self, other):
        return isinstance(other, Stamp) and self._compare(other, lambda a, b: a == b)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Stamp({self.value})"


class TestReplayIsLinear:
    """Recovery replays commits in timestamp order; the guard against a
    duplicate or out-of-order stamp is one comparison with the last one,
    not a scan of every retained commit."""

    CREDIT = Operation(Invocation("Credit", (1,)), "Ok")

    def replay(self, machine, stamps):
        for number, stamp in enumerate(stamps):
            machine.replay_committed(f"T{number}", stamp, [self.CREDIT])

    @pytest.mark.parametrize("commits", [10, 1000])
    def test_one_timestamp_comparison_per_replayed_commit(self, commits):
        machine = LockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")
        stamps = [Stamp(number) for number in range(commits)]
        Stamp.compared = 0
        self.replay(machine, stamps)
        # The first replay has no floor to clear; every later one, one.
        assert Stamp.compared == commits - 1
        assert machine.committed_states() == frozenset({commits})

    def test_a_duplicate_stamp_is_refused(self):
        machine = LockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")
        self.replay(machine, [1, 5])
        with pytest.raises(ProtocolError, match="already used by T1"):
            machine.replay_committed("T9", 5, [self.CREDIT])
        assert machine.commit_timestamp("T9") is None

    def test_an_out_of_order_stamp_is_refused(self):
        machine = LockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")
        self.replay(machine, [1, 5])
        with pytest.raises(ProtocolError, match="out of order"):
            machine.replay_committed("T9", 3, [self.CREDIT])
        assert machine.committed_states() == frozenset({2})

    def test_the_restored_fence_is_the_first_floor(self):
        machine = CompactingLockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")
        machine.restore_version(frozenset({7}), 4, 4)
        with pytest.raises(ProtocolError, match="out of order"):
            machine.replay_committed("T1", 4, [self.CREDIT])
        machine.replay_committed("T1", 5, [self.CREDIT])
        assert machine.committed_states() == frozenset({8})
