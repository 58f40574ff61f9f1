"""Transaction manager: lifecycle, atomic commitment, verification hooks."""

import pytest

from repro.adts import make_account_adt, make_file_adt, make_queue_adt
from repro.core import (
    LockConflict,
    ProtocolError,
    SkewedTimestampGenerator,
    TransactionAborted,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.protocols import COMMUTATIVITY, HYBRID
from repro.runtime import Status, TransactionManager


def bank(generator=None, tracer=None):
    manager = TransactionManager(generator=generator, tracer=tracer)
    manager.create_object("checking", make_account_adt())
    manager.create_object("savings", make_account_adt())
    return manager


def recorded_bank(generator=None):
    """A bank and the sink folding its global history off the bus."""
    bus = TraceBus()
    return bank(generator, tracer=bus), bus.subscribe(HistorySink())


class TestLifecycle:
    def test_begin_assigns_unique_names(self):
        manager = bank()
        assert manager.begin().name != manager.begin().name

    def test_duplicate_names_rejected(self):
        manager = bank()
        manager.begin("P")
        with pytest.raises(ValueError):
            manager.begin("P")

    def test_invoke_and_commit(self):
        manager = bank()
        t = manager.begin()
        assert manager.invoke(t, "checking", "Credit", 100) == "Ok"
        assert manager.invoke(t, "checking", "Debit", 40) == "Ok"
        ts = manager.commit(t)
        assert t.status is Status.COMMITTED
        assert t.timestamp == ts

    def test_operations_counted(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "checking", "Credit", 1)
        manager.invoke(t, "savings", "Credit", 2)
        assert t.operations == 2
        assert t.touched == {"checking", "savings"}

    def test_no_steps_after_commit(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "checking", "Credit", 1)
        manager.commit(t)
        with pytest.raises(TransactionAborted):
            manager.invoke(t, "checking", "Credit", 1)
        with pytest.raises(TransactionAborted):
            manager.commit(t)

    def test_abort_releases_locks(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "checking", "Debit", 1)  # Overdraft lock
        manager.abort(t)
        u = manager.begin()
        assert manager.invoke(u, "checking", "Credit", 5) == "Ok"

    def test_foreign_transaction_rejected(self):
        manager = bank()
        other = bank().begin()
        with pytest.raises(ProtocolError):
            manager.invoke(other, "checking", "Credit", 1)


class TestAtomicCommitment:
    def test_commit_reaches_every_touched_object(self):
        # A machine's clock is the largest commit timestamp delivered to
        # it, so delivery can be observed directly.
        manager = TransactionManager()
        manager.create_object("checking", make_account_adt())
        manager.create_object("savings", make_account_adt())
        t = manager.begin()
        manager.invoke(t, "checking", "Credit", 10)
        manager.invoke(t, "savings", "Credit", 20)
        ts = manager.commit(t)
        for name in ("checking", "savings"):
            assert manager.object(name).machine.clock == ts

    def test_same_timestamp_at_all_objects(self):
        manager, recorded = recorded_bank()
        t = manager.begin()
        manager.invoke(t, "checking", "Credit", 10)
        manager.invoke(t, "savings", "Credit", 20)
        manager.commit(t)
        stamps = {
            e.timestamp
            for e in recorded.history()
            if type(e).__name__ == "CommitEvent"
        }
        assert len(stamps) == 1

    def test_snapshot_reflects_committed_state(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "checking", "Credit", 100)
        manager.commit(t)
        assert manager.object("checking").snapshot() == 100


class TestCreateObject:
    def test_duplicate_object_rejected(self):
        manager = bank()
        with pytest.raises(ValueError):
            manager.create_object("checking", make_account_adt())

    def test_protocol_selects_conflicts(self):
        manager = TransactionManager()
        manager.create_object("A", make_account_adt(), protocol=COMMUTATIVITY)
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 1)
        u = manager.begin()
        with pytest.raises(LockConflict):
            manager.invoke(u, "A", "Post", 50)  # conflicts under commutativity

    def test_conflict_override(self):
        from repro.core import TOTAL_RELATION

        manager = TransactionManager()
        manager.create_object("A", make_account_adt(), conflict=TOTAL_RELATION)
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 1)
        u = manager.begin()
        with pytest.raises(LockConflict):
            manager.invoke(u, "A", "Credit", 1)


class TestRunTransaction:
    def test_returns_body_value(self):
        manager = bank()
        balance = manager.run_transaction(
            lambda ctx: ctx.invoke("checking", "Credit", 10)
        )
        assert balance == "Ok"

    def test_retries_on_conflict(self):
        manager = bank()
        blocker = manager.begin()
        manager.invoke(blocker, "checking", "Debit", 1)  # holds Overdraft lock

        attempts = []

        def body(ctx):
            attempts.append(1)
            if len(attempts) == 2:
                manager.abort(blocker)  # blocker goes away mid-retry
            return ctx.invoke("checking", "Credit", 5)

        assert manager.run_transaction(body) == "Ok"
        assert len(attempts) >= 2

    def test_gives_up_after_max_attempts(self):
        manager = bank()
        blocker = manager.begin()
        manager.invoke(blocker, "checking", "Debit", 1)
        with pytest.raises(LockConflict):
            manager.run_transaction(
                lambda ctx: ctx.invoke("checking", "Credit", 5), max_attempts=3
            )

    def test_user_exception_aborts(self):
        manager = bank()
        with pytest.raises(RuntimeError):
            manager.run_transaction(lambda ctx: (_ for _ in ()).throw(RuntimeError))
        # Lock must have been released.
        t = manager.begin()
        assert manager.invoke(t, "checking", "Credit", 1) == "Ok"


class TestVerification:
    def test_recorded_history_is_hybrid_atomic(self):
        manager, recorded = recorded_bank()
        for i in range(5):
            manager.run_transaction(
                lambda ctx: (
                    ctx.invoke("checking", "Credit", 10),
                    ctx.invoke("savings", "Credit", 5),
                )
            )
        t = manager.begin()
        manager.invoke(t, "checking", "Debit", 25)
        manager.abort(t)
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())
        assert timestamps_respect_precedes(h)

    def test_skewed_generator_still_hybrid_atomic(self):
        manager, recorded = recorded_bank(SkewedTimestampGenerator(seed=4))
        for i in range(8):
            manager.run_transaction(
                lambda ctx: ctx.invoke("checking", "Credit", 10)
            )
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())
        assert timestamps_respect_precedes(h)


class TestWouldBlockPropagation:
    def test_deq_on_empty_queue(self):
        manager = TransactionManager()
        manager.create_object("Q", make_queue_adt())
        t = manager.begin()
        with pytest.raises(WouldBlock):
            manager.invoke(t, "Q", "Deq")
