"""Bisimulation: incremental view caching has no effect on ``L(LOCK)``.

The LOCK machine keeps, per transaction, a cached view state-set that is
advanced by one ``spec.step`` per appended operation instead of replaying
the whole view on every response check.  The caches are pure bookkeeping:
these tests certify that by driving the shipped machine and a naive
replay of Section 5.1 (:class:`NaiveReplay`, defined here — the reference
model lives nowhere else) through identical randomized workloads — skewed
commit timestamps, aborts, and horizon compaction included — and
asserting, after every event, identical results, refusals, observable
state, view state-sets, and (at the end) identical accepted histories.
The counted gates at the bottom pin what the caches buy, in ``spec.step``
calls rather than wall-clock.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.adts import ACCOUNT_CONFLICT, AccountSpec, get_adt
from repro.core import (
    CompactingLockMachine,
    Invocation,
    LockConflict,
    LockMachine,
    WouldBlock,
)
from repro.core.timestamps import SkewedTimestampGenerator
from repro.obs import TraceBus
from tests.recording import RecordingCompactingLockMachine


class NaiveReplay:
    """Section 5.1 read literally: ``View(Q, s)`` — the committed state in
    timestamp order, then Q's own intentions — is replayed through the
    specification from the base states on every response check."""

    def view_states(self, transaction):
        return self.spec.run_from(self._base_states(), self.view(transaction))


class NaiveLockMachine(NaiveReplay, LockMachine):
    pass


class NaiveCompactingLockMachine(NaiveReplay, RecordingCompactingLockMachine):
    pass


#: Shipped class -> (the machine to drive, its naive twin).  A compacting
#: machine keeps no event log, so its row drives the recording subclass.
PAIRS = {
    LockMachine: (LockMachine, NaiveLockMachine),
    CompactingLockMachine: (
        RecordingCompactingLockMachine,
        NaiveCompactingLockMachine,
    ),
}


def folded(machine):
    """Attach a bus to ``machine``; the returned list collects every
    transaction its ``compaction.advance`` events report forgotten."""
    names = []

    def sink(event):
        if event.kind == "compaction.advance":
            names.extend(event.data["forgotten"])

    machine.tracer = TraceBus()
    machine.tracer.subscribe(sink)
    return names


TRANSACTIONS = ["P", "Q", "R", "S"]

INVOCATIONS = {
    "FIFOQueue": [
        Invocation("Enq", (1,)),
        Invocation("Enq", (2,)),
        Invocation("Deq"),
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


def assert_bisimilar(cached, naive):
    """Every observable of the two machines agrees right now."""
    assert cached.committed_transactions == naive.committed_transactions
    assert cached.aborted_transactions == naive.aborted_transactions
    assert cached.active_transactions() == naive.active_transactions()
    for transaction in cached.active_transactions():
        assert cached.intentions(transaction) == naive.intentions(transaction)
        assert cached.view_states(transaction) == naive.view_states(transaction)
    if isinstance(cached, CompactingLockMachine):
        assert cached.clock == naive.clock
        assert cached.horizon() == naive.horizon()
        assert cached.version_states == naive.version_states
        assert cached.version_timestamp == naive.version_timestamp
        assert cached.retained_intentions() == naive.retained_intentions()
        assert cached.forgotten_operations == naive.forgotten_operations


def drive_both(cached, naive, adt_name, commands, seed):
    """Apply one command stream to both machines in lockstep.

    Commit timestamps come from a single :class:`SkewedTimestampGenerator`
    so both machines see the *same* deliberately out-of-commit-order
    stamps; the generator's Section 3.3 bound is fed from the largest
    timestamp issued so far, mirroring what a manager's logical clock
    would have observed.
    """
    generator = SkewedTimestampGenerator(seed=seed, gap=7)
    cached_folded, naive_folded = folded(cached), folded(naive)
    invocations = INVOCATIONS[adt_name]
    completed = set()
    issued = 0
    for kind, transaction, index in commands:
        if transaction in completed:
            continue
        if kind == "invoke":
            invocation = invocations[index % len(invocations)]
            outcomes = []
            for machine in (cached, naive):
                try:
                    outcomes.append(("ok", machine.execute(transaction, invocation)))
                except (LockConflict, WouldBlock) as refusal:
                    outcomes.append(("refused", type(refusal).__name__))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "ok" and issued:
                generator.observe(transaction, issued)
        elif kind == "commit":
            timestamp = generator.commit_timestamp(transaction)
            generator.forget(transaction)
            issued = max(issued, timestamp)
            cached.commit(transaction, timestamp)
            naive.commit(transaction, timestamp)
            completed.add(transaction)
        else:
            cached.abort(transaction)
            naive.abort(transaction)
            generator.forget(transaction)
            completed.add(transaction)
        assert_bisimilar(cached, naive)
        assert cached_folded == naive_folded
    assert cached.history() == naive.history()


@pytest.mark.parametrize("machine_class", [LockMachine, CompactingLockMachine])
@settings(max_examples=40, deadline=None)
@given(
    adt_name=st.sampled_from(sorted(INVOCATIONS)),
    commands=st.lists(command, max_size=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cached_machine_bisimulates_naive_replay(
    machine_class, adt_name, commands, seed
):
    adt = get_adt(adt_name)
    cached_class, naive_class = PAIRS[machine_class]
    cached = cached_class(adt.spec, adt.conflict)
    naive = naive_class(adt.spec, adt.conflict)
    drive_both(cached, naive, adt_name, commands, seed)


class CountingAccountSpec(AccountSpec):
    """Account spec that counts ``step`` calls (``run_from`` included)."""

    def __init__(self):
        super().__init__(initial=0)
        self.steps = 0

    def step(self, states, operation):
        self.steps += 1
        return super().step(states, operation)


def test_cached_machine_does_linear_work_per_operation():
    """The point of the cache: one long transaction costs O(n) spec steps
    cached, O(n^2) under naive replay — same answers either way."""
    n = 60
    cached_spec, naive_spec = CountingAccountSpec(), CountingAccountSpec()
    cached = LockMachine(cached_spec, ACCOUNT_CONFLICT)
    naive = NaiveLockMachine(naive_spec, ACCOUNT_CONFLICT)
    for machine in (cached, naive):
        for _ in range(n):
            assert machine.execute("T", Invocation("Credit", (1,))) == "Ok"
    assert cached.view_states("T") == naive.view_states("T")
    assert cached_spec.steps <= 4 * n
    assert naive_spec.steps >= n * (n - 1) // 2


class TestForgetUnderLiveCachedView:
    """Cache invalidation across ``forget()``: folding the committed
    prefix into the version while a transaction's cached view is live
    must not change anything that transaction (or anyone else) sees.

    Folding moves operations from the retained committed prefix into the
    version without changing the state-set the two jointly denote, so the
    machine deliberately does *not* drop view caches on a fold — this is
    the test that earns that choice.
    """

    def test_fold_mid_transaction_preserves_views(self):
        cached = RecordingCompactingLockMachine(
            AccountSpec(initial=0), ACCOUNT_CONFLICT
        )
        naive = NaiveCompactingLockMachine(AccountSpec(initial=0), ACCOUNT_CONFLICT)
        machines = (cached, naive)
        forgotten_by = [folded(machine) for machine in machines]
        for machine, forgotten in zip(machines, forgotten_by):
            # T goes first: bound -inf pins the horizon down.
            assert machine.execute("T", Invocation("Credit", (1,))) == "Ok"
            # U commits at 5, but cannot fold while T's bound is -inf.
            assert machine.execute("U", Invocation("Credit", (2,))) == "Ok"
            machine.commit("U", 5)
            assert forgotten == []
            # T's next response raises its bound to the clock (5), and the
            # cached path extends T's live view state-set in place.
            assert machine.execute("T", Invocation("Credit", (3,))) == "Ok"
            # V commits at 6: horizon = min(bound(T)=5, max committed=6)
            # = 5, so U folds *under T's live cached view*.
            assert machine.execute("V", Invocation("Credit", (4,))) == "Ok"
            machine.commit("V", 6)
            assert forgotten == ["U"]
            assert machine.is_active("T")
        assert_bisimilar(cached, naive)
        # T keeps executing against the rebased view and commits cleanly.
        for machine, forgotten in zip(machines, forgotten_by):
            assert machine.execute("T", Invocation("Debit", (2,))) == "Ok"
            machine.commit("T", 7)
            assert forgotten == ["U", "V", "T"]
        assert_bisimilar(cached, naive)
        assert cached.history() == naive.history()
        # Everyone is done: the whole run folds to balance 1+2+3+4-2 = 8.
        assert cached.version_states == frozenset({Fraction(8)})


class TestViewCacheCounts:
    """What the caches buy, counted in ``spec.step`` calls — deterministic,
    so a lost cache fails here and not as a wall-clock ratio on a shared
    runner."""

    CREDIT = Invocation("Credit", (1,))

    def run(self, machine, transaction, operations):
        """Execute ``operations`` credits; the ``spec.step`` cost of each."""
        costs = []
        for _ in range(operations):
            before = machine.spec.steps
            assert machine.execute(transaction, self.CREDIT) == "Ok"
            costs.append(machine.spec.steps - before)
        return costs

    @pytest.mark.parametrize("machine_class", [LockMachine, CompactingLockMachine])
    def test_one_step_per_execute_whatever_the_intentions_length(self, machine_class):
        machine = machine_class(CountingAccountSpec(), ACCOUNT_CONFLICT)
        assert self.run(machine, "T", 200) == [1] * 200

    def test_in_order_commit_steps_only_the_committers_operations(self):
        machine = LockMachine(CountingAccountSpec(), ACCOUNT_CONFLICT)
        self.run(machine, "P", 50)
        machine.commit("P", 1)
        self.run(machine, "Q", 7)
        before = machine.spec.steps
        machine.commit("Q", 2)
        # The 50 retained operations of P are not replayed ...
        assert machine.spec.steps - before == 7
        # ... and the next view starts from the advanced prefix.
        assert self.run(machine, "R", 3) == [1, 1, 1]

    def test_compacting_commit_steps_its_operations_once_more_to_fold(self):
        machine = CompactingLockMachine(CountingAccountSpec(), ACCOUNT_CONFLICT)
        self.run(machine, "P", 50)
        machine.commit("P", 1)
        self.run(machine, "Q", 7)
        before = machine.spec.steps
        machine.commit("Q", 2)
        # Advance the committed prefix (7), fold Q into the version (7).
        assert machine.spec.steps - before == 14
        assert self.run(machine, "R", 3) == [1, 1, 1]

    def test_out_of_order_commit_recomputes_the_prefix_exactly_once(self):
        machine = LockMachine(CountingAccountSpec(), ACCOUNT_CONFLICT)
        for transaction, operations in (("P", 10), ("Q", 20), ("R", 5)):
            self.run(machine, transaction, operations)
        machine.commit("P", 10)
        machine.commit("Q", 30)
        before = machine.spec.steps
        machine.commit("R", 20)  # spliced between P and Q
        assert machine.spec.steps == before
        # The first view afterwards replays the 35 committed operations;
        # nobody pays for them again.
        assert self.run(machine, "S", 3) == [35 + 1, 1, 1]
        assert self.run(machine, "W", 2) == [1, 1]
