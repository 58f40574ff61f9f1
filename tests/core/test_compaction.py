"""Tests for Section 6: clocks, bounds, horizon, and forgetting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adts import (
    ACCOUNT_CONFLICT,
    AccountSpec,
    FifoQueueSpec,
    QUEUE_CONFLICT_FIG42,
    deq,
    enq,
)
from repro.core import (
    NEG_INFINITY,
    CompactingLockMachine,
    Invocation,
    LockMachine,
    ProtocolError,
    is_hybrid_atomic,
)
from tests.recording import RecordingCompactingLockMachine


def machines():
    spec = FifoQueueSpec()
    plain = LockMachine(spec, QUEUE_CONFLICT_FIG42)
    compacting = CompactingLockMachine(spec, QUEUE_CONFLICT_FIG42)
    return spec, plain, compacting


class TestNegInfinity:
    def test_orders_below_everything(self):
        assert NEG_INFINITY < 0
        assert NEG_INFINITY < -10**9
        assert not (NEG_INFINITY > 5)
        assert NEG_INFINITY <= NEG_INFINITY
        assert NEG_INFINITY == NEG_INFINITY
        assert min(NEG_INFINITY, 3) == NEG_INFINITY
        assert max(NEG_INFINITY, 3) == 3


class TestBookkeeping:
    def test_clock_tracks_max_commit(self):
        _, _, machine = machines()
        assert machine.clock == NEG_INFINITY
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 7)
        assert machine.clock == 7
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.commit("Q", 3)  # lower stamp: clock keeps the max
        assert machine.clock == 7

    def test_bound_raised_on_response(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 5)
        machine.execute("Q", Invocation("Enq", (2,)))
        assert machine.bound("Q") == 5

    def test_bound_initially_neg_infinity_clock(self):
        _, _, machine = machines()
        machine.execute("Q", Invocation("Enq", (2,)))
        assert machine.bound("Q") == NEG_INFINITY

    def test_horizon_no_transactions(self):
        _, _, machine = machines()
        assert machine.horizon() == NEG_INFINITY

    def test_horizon_only_committed(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 4)
        # P is immediately forgettable: horizon reached its stamp.
        assert machine.committed_transactions == {}
        assert machine.version_timestamp == 4

    def test_horizon_capped_by_active_bound(self):
        _, _, machine = machines()
        machine.execute("Z", Invocation("Enq", (9,)))  # active, bound -inf
        machine.execute("P", Invocation("Enq", (1,)))
        machine.commit("P", 4)
        # Z might still commit below 4: P must be retained.
        assert machine.committed_transactions == {"P": 4}
        assert machine.horizon() == NEG_INFINITY


class TestForgetting:
    def test_forgets_in_timestamp_order(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.commit("P", 2)
        # Q active with bound -inf: nothing forgettable yet.
        assert machine.committed_transactions == {"P": 2}
        machine.commit("Q", 1)
        # Now both go, Q (ts1) folded before P (ts2).
        assert machine.committed_transactions == {}
        assert machine.version_states == frozenset({(2, 1)})

    def test_retained_intentions_shrink(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (1,)))
        assert machine.retained_intentions() == 1
        machine.commit("P", 1)
        assert machine.retained_intentions() == 0
        assert machine.forgotten_operations == 1

    def test_abort_discards_intentions(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (1,)))
        machine.abort("P")
        assert machine.retained_intentions() == 0
        assert machine.version_states == frozenset({()})

    def test_forgotten_state_feeds_views(self):
        _, _, machine = machines()
        machine.execute("P", Invocation("Enq", (7,)))
        machine.commit("P", 1)
        assert machine.retained_intentions() == 0
        # Q's view starts from the version: Deq returns 7.
        assert machine.execute("Q", Invocation("Deq")) == 7

    def test_plain_machine_never_forgets(self):
        spec, plain, _ = machines()
        plain.execute("P", Invocation("Enq", (1,)))
        plain.commit("P", 1)
        assert plain.intentions("P") == (enq(1),)


class TestDifferential:
    """The auxiliary components must not change accepted behaviour."""

    def run_script(self, machine):
        results = []
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.commit("P", 2)
        machine.commit("Q", 1)
        results.append(machine.execute("R", Invocation("Deq")))
        results.append(machine.execute("R", Invocation("Deq")))
        machine.commit("R", 3)
        machine.execute("S", Invocation("Enq", (9,)))
        machine.abort("S")  # S's item must never be observed
        machine.execute("U", Invocation("Enq", (4,)))
        machine.commit("U", 4)
        results.append(machine.execute("T", Invocation("Deq")))
        machine.commit("T", 5)
        return results

    def test_same_results_and_history(self):
        spec, plain, _ = machines()
        compacting = RecordingCompactingLockMachine(spec, QUEUE_CONFLICT_FIG42)
        assert self.run_script(plain) == self.run_script(compacting)
        assert plain.history().events == compacting.history().events
        assert is_hybrid_atomic(plain.history(), {"X": spec})

    def test_production_machine_refuses_history_and_names_the_fold(self):
        _, _, compacting = machines()
        self.run_script(compacting)
        with pytest.raises(ProtocolError, match="HistorySink"):
            compacting.history()

    def test_compacting_retains_less(self):
        _, plain, compacting = machines()
        self.run_script(plain)
        self.run_script(compacting)
        plain_size = sum(
            len(plain.intentions(t)) for t in ("P", "Q", "R", "T", "U")
        )
        assert plain_size == 6
        assert compacting.retained_intentions() == 0


class TestOutOfOrderTimestamps:
    def test_merge_in_timestamp_order_after_late_low_commit(self):
        spec = AccountSpec()
        machine = CompactingLockMachine(spec, ACCOUNT_CONFLICT)
        machine.execute("P", Invocation("Credit", (10,)))
        machine.execute("Q", Invocation("Post", (50,)))
        # P commits with the *higher* stamp first.
        machine.commit("P", 10)
        # P can't be forgotten: Q (bound -inf) may still commit below 10.
        assert machine.committed_transactions == {"P": 10}
        machine.commit("Q", 5)
        # Merge order must be Q then P: 0 * 1.5 + 10 = 10.
        assert machine.committed_transactions == {}
        assert machine.execute("R", Invocation("Debit", (10,))) == "Ok"


class TestQueueSpecialCase:
    """Section 6's closing observation: because Deq conflicts with every
    other operation (Fig 4-2), a dequeuer running implies no other active
    transaction has executed anything — so when it completes, everything
    committed is immediately forgettable.  The generic horizon achieves
    this without special-casing."""

    def test_dequeuer_excludes_everything_and_folds_on_completion(self):
        from repro.adts import QUEUE_CONFLICT_FIG42, FifoQueueSpec
        from repro.core import LockConflict
        import pytest

        machine = CompactingLockMachine(FifoQueueSpec(), QUEUE_CONFLICT_FIG42)
        for index in range(5):
            name = f"P{index}"
            machine.execute(name, Invocation("Enq", (index,)))
        for index in range(5):
            machine.commit(f"P{index}", index + 1)
        assert machine.retained_intentions() == 0  # all folded already
        machine.execute("D", Invocation("Deq"))
        # While the dequeuer holds its lock, other-item enqueues are shut
        # out entirely — the premise of the paper's special case.
        with pytest.raises(LockConflict):
            machine.execute("P9", Invocation("Enq", (9,)))
        machine.commit("D", 11)
        # ... so at D's completion nothing else is active and the horizon
        # jumps straight to D's timestamp: D is folded at once.
        assert machine.version_timestamp == 11
        assert machine.retained_intentions() == 0
        # Everything folded: the machine is back to its fresh-state horizon.
        assert machine.horizon() == NEG_INFINITY


class TestHorizonMonotonicity:
    """Lemma 19's safety rests on an invariant ``forget()`` asserts per
    transaction: the fold fence never regresses.  The raw horizon *can*
    drop back to -∞ — Definition 20's min is over active bounds and
    retained commit timestamps, and a full fold empties that candidate
    set — but ``max(version_timestamp, horizon())`` is monotone: bounds
    only rise (to the clock), pins are rejected below the horizon, and
    folding removes a committed timestamp only after recording it in the
    version timestamp.  This drives the machine through skewed-timestamp
    workloads (commit order deliberately disagreeing with timestamp
    order) and checks that fence directly, plus: nothing folded can
    still be needed (every retained intentions list belongs to a commit
    timestamp above the version timestamp)."""

    command = st.tuples(
        st.sampled_from(["invoke", "commit", "abort"]),
        st.sampled_from(["P", "Q", "R", "S"]),
        st.integers(min_value=0, max_value=3),
    )

    @settings(max_examples=80, deadline=None)
    @given(commands=st.lists(command, max_size=20), seed=st.integers(0, 2**16))
    def test_horizon_never_regresses_under_skew(self, commands, seed):
        from repro.core import LockConflict, WouldBlock
        from repro.core.timestamps import SkewedTimestampGenerator
        from repro.adts import ACCOUNT_CONFLICT, AccountSpec

        invocations = [
            Invocation("Credit", (2,)),
            Invocation("Post", (50,)),
            Invocation("Debit", (2,)),
            Invocation("Debit", (3,)),
        ]
        machine = CompactingLockMachine(AccountSpec(), ACCOUNT_CONFLICT)
        generator = SkewedTimestampGenerator(seed=seed, gap=9)
        completed = set()
        issued = 0
        last_fence = max(machine.version_timestamp, machine.horizon())
        last_version_timestamp = machine.version_timestamp
        for kind, transaction, index in commands:
            if transaction in completed:
                continue
            if kind == "invoke":
                try:
                    machine.execute(transaction, invocations[index % 4])
                except (LockConflict, WouldBlock):
                    pass
                else:
                    if issued:
                        generator.observe(transaction, issued)
            elif kind == "commit":
                timestamp = generator.commit_timestamp(transaction)
                generator.forget(transaction)
                issued = max(issued, timestamp)
                machine.commit(transaction, timestamp)
                completed.add(transaction)
            else:
                machine.abort(transaction)
                generator.forget(transaction)
                completed.add(transaction)
            fence = max(machine.version_timestamp, machine.horizon())
            assert last_fence <= fence, "fold fence regressed"
            last_fence = fence
            assert last_version_timestamp <= machine.version_timestamp
            last_version_timestamp = machine.version_timestamp
            # Nothing folded is still needed: retained intentions all
            # belong to commits above the version timestamp.  (A commit
            # at or below it is legal only for a transaction that never
            # executed — its bound was never raised — and such a
            # transaction has nothing to retain.)
            for name, retained in machine.committed_transactions.items():
                if machine.intentions(name):
                    assert retained > machine.version_timestamp
