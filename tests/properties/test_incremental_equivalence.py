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

from repro.adts import ACCOUNT_CONFLICT, AccountSpec, FifoQueueSpec, get_adt
from repro.core import (
    CompactingLockMachine,
    Invocation,
    LockConflict,
    LockMachine,
    Operation,
    Relation,
    WouldBlock,
    canon,
)
from repro.core.timestamps import SkewedTimestampGenerator
from repro.obs import TraceBus
from tests.recording import RecordingCompactingLockMachine


class _NeverStores(dict):
    """A view cache that forgets every entry it is handed."""

    def __setitem__(self, key, value):
        pass


class NaiveReplay:
    """Section 5.1 read literally: ``View(Q, s)`` — the committed state in
    timestamp order, then Q's own intentions — is replayed through the
    specification from the base states on every response check.

    It keeps *no* cache: the per-transaction view cache drops every store
    and the committed state-set is never remembered, so a commit has no
    view to adopt and a fold no committed state-set to install — both take
    their replay paths, which is what makes this machine a reference for
    the shipped one's adoptions and not a second copy of them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._view_cache = _NeverStores()

    _committed_cache = property(lambda self: None, lambda self, value: None)

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


class CountsSpecCalls:
    """Counts ``step`` (``run_from`` included) and ``results_for`` calls."""

    steps = 0
    choices = 0

    def step(self, states, operation):
        self.steps += 1
        return super().step(states, operation)

    def results_for(self, states, invocation):
        self.choices += 1
        return super().results_for(states, invocation)


class CountingAccountSpec(CountsSpecCalls, AccountSpec):
    def __init__(self):
        super().__init__(initial=0)


class CountingQueueSpec(CountsSpecCalls, FifoQueueSpec):
    pass


class CountingRelation(Relation):
    """Counts ``related`` probes of the relation it wraps."""

    def __init__(self, base):
        self.base = base
        self.name = base.name
        self.probes = 0

    def related(self, q, p):
        self.probes += 1
        return self.base.related(q, p)


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
    """What the caches buy, counted in ``spec.step`` / ``results_for``
    calls and ``related`` probes — deterministic, so a lost cache or a
    second pass fails here and not as a wall-clock ratio on a shared
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
        # ... and one "choose a result" each: the operation is looked at
        # twice (results_for, then step), not four times.
        assert machine.spec.choices == 200

    @pytest.mark.parametrize("machine_class", [LockMachine, CompactingLockMachine])
    def test_execute_probes_each_held_lock_once_in_each_direction(self, machine_class):
        relation = CountingRelation(ACCOUNT_CONFLICT)
        machine = machine_class(CountingAccountSpec(), relation)
        for holders in range(1, 9):
            assert machine.execute(f"H{holders}", self.CREDIT) == "Ok"
            before = relation.probes
            assert machine.execute("T", self.CREDIT) == "Ok"
            # T's own operations are not probed; every holder's one
            # operation is, as (held, new) and (new, held).
            assert relation.probes - before == 2 * holders

    def test_in_order_commit_adopts_view(self):
        machine = LockMachine(CountingAccountSpec(), ACCOUNT_CONFLICT)
        self.run(machine, "P", 50)
        machine.commit("P", 1)
        self.run(machine, "Q", 7)
        before = machine.spec.steps
        machine.commit("Q", 2)
        # Neither P's 50 retained operations nor Q's own 7 are replayed:
        # Q's view *is* the new committed state ...
        assert machine.spec.steps == before
        # ... and the next view starts from it.
        assert self.run(machine, "R", 3) == [1, 1, 1]
        assert machine.view_states("R") == frozenset({Fraction(60)})

    def test_compacting_fold_adopts_too(self):
        machine = CompactingLockMachine(CountingAccountSpec(), ACCOUNT_CONFLICT)
        self.run(machine, "P", 50)
        machine.commit("P", 1)
        self.run(machine, "Q", 7)
        before = machine.spec.steps
        machine.commit("Q", 2)
        # Nothing to advance the prefix, nothing to fold Q into the version.
        assert machine.spec.steps == before
        assert machine.version_states == frozenset({Fraction(57)})
        assert machine.retained_intentions() == 0
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


class TestCostIndependentOfStateSize:
    """An ``execute`` + ``commit`` on a queue holding 1,000 items makes the
    calls it makes on an empty one — and none of them ranks the state."""

    ENQ = Invocation("Enq", (7,))

    def counted(self, machine_class, items, monkeypatch):
        keyed = []
        real = canon.canonical_key
        monkeypatch.setattr(
            canon, "canonical_key", lambda value: keyed.append(1) or real(value)
        )
        relation = CountingRelation(get_adt("FIFOQueue").conflict)
        machine = machine_class(CountingQueueSpec(), relation)
        for item in range(items):
            machine.execute("fill", Invocation("Enq", (item,)))
        machine.commit("fill", 1)
        machine.execute("holder", self.ENQ)  # one lock to probe against
        spec = machine.spec
        before = (spec.steps, spec.choices, relation.probes, len(keyed))
        assert machine.execute("T", self.ENQ) == "Ok"
        machine.commit("T", 2)
        assert machine.view_states("holder") == frozenset(
            {tuple(range(items)) + (7, 7)}
        )
        after = (spec.steps, spec.choices, relation.probes, len(keyed))
        return tuple(b - a for a, b in zip(before, after))

    @pytest.mark.parametrize("machine_class", [LockMachine, CompactingLockMachine])
    def test_spec_calls_probes_and_no_canonical_key(self, machine_class, monkeypatch):
        empty = self.counted(machine_class, 0, monkeypatch)
        full = self.counted(machine_class, 1000, monkeypatch)
        # holder's view is rebuilt after the commit by the assertion
        # inside ``counted``: one step, the same on both.
        assert empty == full == (2, 1, 2, 0)


class TestAdoptedStatesAgainstNaiveReplay:
    """The cases the commit / fold shortcuts must *not* take, each driven
    through the shipped machine and the cache-less :class:`NaiveReplay`
    and compared state-set for state-set."""

    CREDIT = Invocation("Credit", (1,))
    POST = Invocation("Post", (50,))

    def pair(self):
        spec = AccountSpec(initial=10)
        return (
            RecordingCompactingLockMachine(spec, ACCOUNT_CONFLICT),
            NaiveCompactingLockMachine(spec, ACCOUNT_CONFLICT),
        )

    def both(self, machines, step):
        for machine in machines:
            step(machine)
        assert_bisimilar(*machines)
        cached, naive = machines
        assert cached.committed_states() == naive.committed_states()

    def test_view_invalidated_by_another_commit_since_the_last_operation(self):
        machines = self.pair()
        self.both(machines, lambda m: m.execute("Q", self.CREDIT))
        self.both(machines, lambda m: m.execute("P", self.POST))
        # P commits first: Q's cached view (10 + 1) no longer follows the
        # committed prefix (15), so Q's commit must replay, not adopt.
        self.both(machines, lambda m: m.commit("P", 1))
        self.both(machines, lambda m: m.commit("Q", 2))
        assert machines[0].version_states == frozenset({Fraction(16)})

    def test_recovered_transaction_has_no_view_to_adopt(self):
        machines = self.pair()
        operations = (Operation(self.CREDIT, "Ok"), Operation(self.CREDIT, "Ok"))
        self.both(machines, lambda m: m.replay_active("Q", operations))
        self.both(machines, lambda m: m.commit("Q", 3))
        assert machines[0].version_states == frozenset({Fraction(12)})

    def test_skewed_timestamp_splices_into_the_prefix(self):
        machines = self.pair()
        self.both(machines, lambda m: m.execute("W", self.CREDIT))  # holds folds
        self.both(machines, lambda m: m.execute("P", self.POST))
        self.both(machines, lambda m: m.execute("Q", self.CREDIT))
        self.both(machines, lambda m: m.commit("P", 20))
        # Q's timestamp is below P's: interest is then posted on Q's
        # credit too, which no view Q ever held says.
        self.both(machines, lambda m: m.commit("Q", 10))
        self.both(machines, lambda m: m.abort("W"))
        assert machines[0].version_states == frozenset({Fraction(33, 2)})

    def test_partial_fold_held_back_by_a_pin_and_by_an_older_bound(self):
        machines = self.pair()
        self.both(machines, lambda m: m.execute("P", self.CREDIT))
        self.both(machines, lambda m: m.commit("P", 1))
        self.both(machines, lambda m: m.pin("reader", 2))
        self.both(machines, lambda m: m.execute("Q", self.POST))
        self.both(machines, lambda m: m.commit("Q", 2))
        self.both(machines, lambda m: m.execute("R", self.CREDIT))
        self.both(machines, lambda m: m.execute("old", self.CREDIT))  # bound 2
        self.both(machines, lambda m: m.commit("R", 3))  # retained: above the pin
        assert machines[0].version_timestamp == 2
        self.both(machines, lambda m: m.execute("S", self.CREDIT))
        self.both(machines, lambda m: m.commit("S", 4))
        self.both(machines, lambda m: m.unpin("reader"))  # still held by ``old``
        assert machines[0].committed_transactions == {"R": 3, "S": 4}
        self.both(machines, lambda m: m.execute("old", self.CREDIT))  # bound 4
        self.both(machines, lambda m: m.execute("U", self.CREDIT))
        self.both(machines, lambda m: m.commit("U", 5))  # folds R and S, not U
        assert machines[0].committed_transactions == {"U": 5}
        self.both(machines, lambda m: m.commit("old", 6))
        assert machines[0].version_states == frozenset({Fraction(43, 2)})
        assert machines[0].history() == machines[1].history()

    def test_redelivered_commit_does_not_extend_the_prefix_twice(self):
        cached = LockMachine(AccountSpec(initial=10), ACCOUNT_CONFLICT)
        naive = NaiveLockMachine(AccountSpec(initial=10), ACCOUNT_CONFLICT)
        machines = (cached, naive)
        self.both(machines, lambda m: m.execute("P", self.CREDIT))
        self.both(machines, lambda m: m.commit("P", 1))
        self.both(machines, lambda m: m.commit("P", 1))
        self.both(machines, lambda m: m.execute("Q", self.CREDIT))
        assert cached.view_states("Q") == frozenset({Fraction(12)})
