"""One lifecycle contract, three participants.

:class:`~repro.runtime.TransactionManager` is the only place that knows a
transaction's lifecycle; lock machines, optimistic objects and replicated
objects are participants it drives through one surface.  Every guarantee
here is therefore asserted once and run against all three kinds — plus
what distinguishes them (whether a commit veto is final) and what the
manager refuses to combine.
"""

import random
from collections import Counter

import pytest

from repro.adts import (
    make_account_adt,
    make_counter_adt,
    make_queue_adt,
    queue_universe,
)
from repro.core import (
    CommitEvent,
    Invocation,
    InvocationEvent,
    LockConflict,
    ProtocolError,
    ResponseEvent,
    SkewedTimestampGenerator,
    TransactionAborted,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.core.history import check_well_formed
from repro.obs import AtomicityChecker, HistorySink, TraceBus
from repro.protocols import HYBRID, OPTIMISTIC
from repro.recovery import MemoryWAL
from repro.replication import (
    QuorumAssignment,
    QuorumSpec,
    ReplicatedTransactionManager,
    Unavailable,
)
from repro.runtime import (
    OptimisticTransactionManager,
    Status,
    TransactionManager,
    ValidationFailed,
)
from tests.recording import record_machine

KINDS = ["hybrid", "optimistic", "replicated"]
MANAGERS = {
    "hybrid": TransactionManager,
    "optimistic": OptimisticTransactionManager,
    "replicated": ReplicatedTransactionManager,
}
SURFACE = ("execute", "observed", "prepare", "intentions", "commit", "abort", "snapshot")

ACCOUNT_QUORUMS = QuorumAssignment(
    5,
    {"Credit": QuorumSpec(0, 2), "Post": QuorumSpec(0, 2), "Debit": QuorumSpec(4, 2)},
)
QUEUE_QUORUMS = QuorumAssignment(3, {"Enq": QuorumSpec(0, 2), "Deq": QuorumSpec(2, 2)})


def create(manager, kind, name, adt):
    """Create ``name`` the kind's way."""
    if kind != "replicated":
        return manager.create_object(name, adt)
    if adt.name == "Account":
        return manager.create_object(name, adt, ACCOUNT_QUORUMS)
    return manager.create_object(name, adt, QUEUE_QUORUMS, universe=queue_universe())


def build(kind, **kwargs):
    """A manager of ``kind`` over one Account ``A`` and one FIFOQueue ``Q``."""
    manager = MANAGERS[kind](**kwargs)
    create(manager, kind, "A", make_account_adt())
    create(manager, kind, "Q", make_queue_adt())
    return manager


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


class TestLifecycleGuards:
    def test_foreign_handle_is_a_protocol_error(self, kind):
        manager = build(kind)
        foreign = build(kind).begin()
        with pytest.raises(ProtocolError):
            manager.invoke(foreign, "A", "Credit", 1)
        with pytest.raises(ProtocolError):
            manager.commit(foreign)
        with pytest.raises(ProtocolError):
            manager.abort(foreign)

    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_any_step_on_a_completed_handle_is_refused(self, kind, outcome):
        manager = build(kind)
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 1)
        getattr(manager, outcome)(t)
        with pytest.raises(TransactionAborted):
            manager.invoke(t, "A", "Credit", 1)
        with pytest.raises(TransactionAborted):
            manager.commit(t)
        with pytest.raises(TransactionAborted):
            manager.abort(t)

    def test_duplicate_names_are_value_errors(self, kind):
        manager = build(kind)
        with pytest.raises(ValueError, match="already exists"):
            create(manager, kind, "A", make_account_adt())
        manager.begin("named")
        with pytest.raises(ValueError, match="already exists"):
            manager.begin("named")

    def test_registry_forgets_and_names_are_reusable(self, kind):
        manager = build(kind)
        for attempt in range(2):
            manager.run_transaction(
                lambda ctx: ctx.invoke("A", "Credit", 1), name="transfer"
            )
            named = manager.begin("named")
            manager.invoke(named, "Q", "Enq", attempt)
            manager.commit(named)
            doomed = manager.begin("doomed")
            manager.abort(doomed)
        for _ in range(50):
            manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 1))
        assert manager._transactions == {}
        assert manager.transaction("named") is None
        assert manager.object("A").snapshot() == 52

    def test_participants_share_one_surface(self, kind):
        manager = build(kind)
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 3)
        participant = manager.object("A")
        assert all(callable(getattr(participant, name)) for name in SURFACE)
        assert [op.name for op in participant.intentions(t.name)] == ["Credit"]
        manager.abort(t)
        assert participant.intentions(t.name) == ()


class TestRunTransaction:
    """A refusal aborts the attempt and retries; the last one propagates."""

    def refused_body(self, manager, refusal):
        """A body that is refused with ``refusal`` on every attempt, and
        the list its attempts are recorded in."""
        attempts = []
        if refusal is WouldBlock:
            def body(ctx):
                attempts.append(ctx.transaction)
                return ctx.invoke("Q", "Deq")           # the queue is empty
        elif refusal is LockConflict:
            holder = manager.begin()
            manager.invoke(holder, "A", "Debit", 1)     # Overdraft: holds a lock

            def body(ctx):
                attempts.append(ctx.transaction)
                return ctx.invoke("A", "Credit", 5)
        else:
            for item in range(5):
                manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", item))

            def body(ctx):
                attempts.append(ctx.transaction)
                head = ctx.invoke("Q", "Deq")
                # A thief dequeues the same head and commits first.
                assert manager.run_transaction(lambda c: c.invoke("Q", "Deq")) == head
                return head
        return body, attempts

    @pytest.mark.parametrize(
        "kind, refusal",
        [(kind, WouldBlock) for kind in KINDS]
        + [("hybrid", LockConflict), ("replicated", LockConflict)]
        + [("optimistic", ValidationFailed)],
    )
    def test_retries_then_reraises_the_last_refusal(self, kind, refusal):
        manager = build(kind)
        body, attempts = self.refused_body(manager, refusal)
        with pytest.raises(refusal):
            manager.run_transaction(body, max_attempts=3, name="again")
        assert [t.name for t in attempts] == ["again", "again#1", "again#2"]
        assert all(t.status is Status.ABORTED for t in attempts)
        assert all(manager.transaction(t.name) is None for t in attempts)

    def test_a_body_error_aborts_and_propagates(self, kind):
        manager = build(kind)
        seen = []

        def body(ctx):
            seen.append(ctx.transaction)
            ctx.invoke("A", "Credit", 1)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            manager.run_transaction(body)
        assert [t.status for t in seen] == [Status.ABORTED]
        assert manager.object("A").snapshot() == 0


def interleave(manager, seed, steps=60, accounts=("A",), queues=("Q",)):
    """A seeded interleaving of up to three live transactions over the
    named objects; every transaction is completed before returning."""
    rng = random.Random(seed)
    active = []

    def finish(txn):
        try:
            manager.commit(txn)
        except ValidationFailed:
            pass                                        # already aborted

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.1 and active:
            manager.abort(active.pop(rng.randrange(len(active))))
        elif roll < 0.4 and active:
            finish(active.pop(rng.randrange(len(active))))
        else:
            if len(active) < 3:
                active.append(manager.begin())
            txn = rng.choice(active)
            menu = [
                (obj, operation, (rng.randint(1, 5),))
                for obj in accounts
                for operation in ("Credit", "Debit")
            ]
            for obj in queues:
                menu += [(obj, "Enq", (rng.randint(1, 4),)), (obj, "Deq", ())]
            obj, operation, args = rng.choice(menu)
            try:
                manager.invoke(txn, obj, operation, *args)
            except (LockConflict, WouldBlock):
                pass
    for txn in active:
        finish(txn)


class TestVerification:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_interleaving_is_hybrid_atomic_and_certifies(self, kind, seed):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        recorded = bus.subscribe(HistorySink())
        manager = build(kind, tracer=bus)
        interleave(manager, seed)
        history = recorded.history()
        check_well_formed(history.events)
        assert timestamps_respect_precedes(history)
        assert is_hybrid_atomic(history, manager.specs())
        checker = AtomicityChecker().replay(events)
        assert checker.report()["verdict"] == "clean", checker.render_report()
        begun = Counter(e.data["transaction"] for e in events if e.kind == "txn.begin")
        ended = Counter(
            e.data["transaction"]
            for e in events
            if e.kind in ("txn.commit", "txn.abort")
        )
        assert begun and set(begun.values()) == {1}
        assert ended == begun
        assert manager._transactions == {}


class TestHistorySink:
    """The bus fold is the only global history (the manager keeps none)."""

    def test_mixed_run_folds_to_what_the_lock_machine_accepted(self):
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        # One manager, one participant of each kind.
        manager = ReplicatedTransactionManager(tracer=bus)
        accepted = record_machine(
            TransactionManager.create_object(manager, "L", make_account_adt())
        )
        TransactionManager.create_object(
            manager, "O", make_account_adt(), protocol=OPTIMISTIC
        )
        manager.create_object("R", make_account_adt(), ACCOUNT_QUORUMS)
        interleave(manager, 7, steps=80, accounts=("L", "O", "R"), queues=())
        history = recorded.history()
        check_well_formed(history.events)
        assert set(history.objects()) == {"L", "O", "R"}
        assert history.committed() and history.aborted()
        assert timestamps_respect_precedes(history)
        assert is_hybrid_atomic(history, manager.specs())
        # Event for event what the one lock machine itself accepted.
        assert history.restrict_objects(["L"]) == accepted.history()

    def test_a_read_only_transaction_is_carried_as_the_manager_emitted_it(self):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(tracer=bus)
        accepted = record_machine(manager.create_object("C", make_counter_adt()))
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 5))
        reader = manager.begin_readonly("reader")
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 100))
        assert manager.invoke(reader, "C", "Read") == 5
        stamp = manager.commit(reader)
        emitted = [e for e in events if e.data.get("transaction") == "reader"]
        assert [e.kind for e in emitted] == [
            "txn.begin", "txn.invoke", "txn.respond", "txn.commit",
        ]
        assert all(e.data["read_only"] for e in emitted)
        history = recorded.history()
        assert list(history.restrict_transactions(["reader"])) == [
            InvocationEvent("reader", "C", Invocation("Read")),
            ResponseEvent("reader", "C", 5),
            CommitEvent("reader", "C", stamp),
        ]
        # A lock-free read never reached the machine: only the fold has it.
        assert "reader" not in accepted.history().transactions()
        assert is_hybrid_atomic(history, manager.specs())


class TestVetoes:
    """Whether a commit veto is final is a property of the exception."""

    def test_failed_validation_is_final(self):
        manager = build("optimistic")
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        t = manager.begin()
        assert manager.invoke(t, "A", "Debit", 10) == "Ok"
        manager.invoke(t, "Q", "Enq", 1)
        # A concurrent debit drains the balance and commits first.
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 10))
        with pytest.raises(ValidationFailed) as caught:
            manager.commit(t)
        assert isinstance(caught.value, TransactionAborted) and caught.value.obj == "A"
        assert t.status is Status.ABORTED
        assert manager.object("A").intentions(t.name) == ()
        assert manager.object("Q").intentions(t.name) == ()
        assert manager._transactions == {}
        assert manager.object("Q").snapshot() == ()

    def test_unavailable_leaves_the_handle_live(self):
        manager = build("replicated")
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 5)
        manager.object("A").fail_replicas(4)            # 1 live < fq(Credit) = 2
        with pytest.raises(Unavailable) as caught:
            manager.commit(t)
        assert not isinstance(caught.value, TransactionAborted)
        assert t.status is Status.ACTIVE and manager.transaction(t.name) is t
        manager.object("A").recover_all()
        manager.commit(t)                               # the same handle
        assert t.status is Status.COMMITTED
        assert manager.object("A").snapshot() == 5

    def test_two_phase_prepare_validates_too(self):
        # 2PC's phase one is the same phase one: commit_prepared must not
        # deliver what validation would have refused.
        manager = build("optimistic")
        manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", 1))
        t = manager.begin()
        assert manager.invoke(t, "Q", "Deq") == 1
        assert manager.run_transaction(lambda ctx: ctx.invoke("Q", "Deq")) == 1
        with pytest.raises(ValidationFailed):
            manager.prepare(t)
        assert t.status is Status.ABORTED and manager.prepared_transactions() == []


class TestMixedManager:
    """The protocol, not the caller, picks the participant."""

    def mixed(self, **kwargs):
        manager = TransactionManager(**kwargs)
        manager.create_object("L", make_account_adt(), protocol=HYBRID)
        manager.create_object("O", make_account_adt(), protocol=OPTIMISTIC)
        return manager

    def test_one_transaction_over_both_kinds_certifies(self):
        bus = TraceBus()
        checker = bus.subscribe(AtomicityChecker(emit_to=bus))
        recorded = bus.subscribe(HistorySink())
        manager = self.mixed(tracer=bus)
        assert type(manager.object("L")).__name__ == "ManagedObject"
        assert type(manager.object("O")).__name__ == "OptimisticObject"
        manager.run_transaction(lambda ctx: ctx.invoke("L", "Credit", 10))
        t = manager.begin()
        assert manager.invoke(t, "L", "Debit", 4) == "Ok"
        assert manager.invoke(t, "O", "Credit", 4) == "Ok"
        timestamp = manager.commit(t)
        assert manager.object("L").machine.clock == timestamp
        assert (manager.object("L").snapshot(), manager.object("O").snapshot()) == (6, 4)
        assert is_hybrid_atomic(recorded.history(), manager.specs())
        report = checker.report()
        assert report["verdict"] == "clean", checker.render_report()
        assert report["objects"]["L"]["conflict_checked"]
        assert not report["objects"]["O"]["conflict_checked"]

    def test_a_veto_at_one_kind_aborts_at_the_other(self):
        manager = self.mixed()
        manager.run_transaction(lambda ctx: ctx.invoke("O", "Credit", 10))
        t = manager.begin()
        assert manager.invoke(t, "L", "Debit", 1) == "Overdraft"   # holds a lock
        assert manager.invoke(t, "O", "Debit", 10) == "Ok"
        manager.run_transaction(lambda ctx: ctx.invoke("O", "Debit", 10))
        with pytest.raises(ValidationFailed):
            manager.commit(t)
        # The lock machine heard the abort: the lock is free again.
        assert manager.run_transaction(lambda ctx: ctx.invoke("L", "Credit", 5)) == "Ok"


class TestRefusedCombinations:
    @pytest.mark.parametrize("kind", ["optimistic", "replicated"])
    def test_only_lock_machines_join_a_logged_manager(self, kind):
        manager = MANAGERS[kind](wal=MemoryWAL())
        with pytest.raises(ProtocolError, match="write-ahead log"):
            create(manager, kind, "A", make_account_adt())
        assert manager.objects == {}

    def test_an_optimistic_object_needs_a_monotone_generator(self):
        manager = TransactionManager(generator=SkewedTimestampGenerator(seed=1))
        manager.create_object("L", make_account_adt())
        with pytest.raises(ProtocolError, match="monotone"):
            manager.create_object("O", make_account_adt(), protocol=OPTIMISTIC)

    def test_a_one_shard_stride_is_monotone_and_a_wider_one_is_not(self):
        from repro.server.engine import ShardedTimestampGenerator

        # Shard 0 of 1 issues max(last, bound) + 1, as the monotone clock
        # does: a simulated single site hosts optimistic objects on it.
        single = TransactionManager(generator=ShardedTimestampGenerator(0, 1))
        single.create_object("L", make_account_adt())
        single.commit(single.begin_readonly())
        single.create_object("O", make_account_adt(), protocol=OPTIMISTIC)
        # Two shards interleave their strides: still refused, both ways.
        strided = TransactionManager(generator=ShardedTimestampGenerator(0, 2))
        strided.create_object("L", make_account_adt())
        with pytest.raises(ProtocolError, match="monotone"):
            strided.create_object("O", make_account_adt(), protocol=OPTIMISTIC)
        with pytest.raises(ProtocolError, match="monotone"):
            strided.begin_readonly()

    @pytest.mark.parametrize("kind", ["optimistic", "replicated"])
    def test_readonly_and_checkpoint_need_lock_machines(self, kind):
        manager = build(kind)
        with pytest.raises(ProtocolError, match="lock machine"):
            manager.begin_readonly()
        assert manager._transactions == {}
        manager.wal = MemoryWAL()                       # attached after the fact
        with pytest.raises(ProtocolError, match="lock machine"):
            manager.checkpoint()


@pytest.mark.parametrize(
    "cls", [OptimisticTransactionManager, ReplicatedTransactionManager]
)
def test_a_kind_of_manager_is_a_way_to_create_objects(cls):
    public = {name for name in vars(cls) if not name.startswith("__")}
    assert public == {"create_object"}
    assert issubclass(cls, TransactionManager)
