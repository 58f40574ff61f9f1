"""Optimistic engine: execution, validation fast/slow paths, verification."""

import pytest

from repro.adts import make_account_adt, make_file_adt, make_queue_adt
from repro.core import (
    TransactionAborted,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.runtime import OptimisticTransactionManager, Status, ValidationFailed


def bank():
    manager = OptimisticTransactionManager()
    manager.create_object("A", make_account_adt())
    return manager


class TestExecution:
    def test_no_locking_between_writers(self):
        # Two transactions freely execute operations that would conflict
        # under any locking protocol.
        manager = bank()
        t = manager.begin()
        u = manager.begin()
        assert manager.invoke(t, "A", "Debit", 1) == "Overdraft"
        assert manager.invoke(u, "A", "Credit", 5) == "Ok"  # no lock refusal

    def test_view_is_snapshot_plus_own_ops(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        t = manager.begin()
        assert manager.invoke(t, "A", "Debit", 10) == "Ok"
        assert manager.invoke(t, "A", "Debit", 1) == "Overdraft"

    def test_would_block_propagates(self):
        manager = OptimisticTransactionManager()
        manager.create_object("Q", make_queue_adt())
        t = manager.begin()
        with pytest.raises(WouldBlock):
            manager.invoke(t, "Q", "Deq")

    def test_lifecycle_guards(self):
        manager = bank()
        t = manager.begin()
        manager.commit(t)
        with pytest.raises(TransactionAborted):
            manager.invoke(t, "A", "Credit", 1)


class TestValidation:
    def test_fast_path_when_independent(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 5)
        # A concurrent credit commits first; credits depend on nothing.
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 7))
        manager.commit(t)
        obj = manager.object("A")
        assert obj.failed_validations == 0
        assert obj.snapshot() == 12

    def test_slow_path_replay_succeeds(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        t = manager.begin()
        assert manager.invoke(t, "A", "Debit", 10) == "Ok"
        # Another debit commits first: Debit,Ok depends on Debit,Ok, so the
        # fast path fails — but replay shows 100-20-10 is still fine.
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 20))
        manager.commit(t)
        obj = manager.object("A")
        assert obj.replay_validations >= 1
        assert obj.failed_validations == 0
        assert obj.snapshot() == 70

    def test_validation_failure_aborts(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        t = manager.begin()
        assert manager.invoke(t, "A", "Debit", 10) == "Ok"
        # A concurrent debit drains the balance and commits first; t's
        # successful debit is no longer legal.
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 10))
        with pytest.raises(ValidationFailed) as info:
            manager.commit(t)
        assert info.value.obj == "A"
        assert t.status is Status.ABORTED
        assert manager.object("A").snapshot() == 0

    def test_queue_competing_consumers(self):
        manager = OptimisticTransactionManager()
        manager.create_object("Q", make_queue_adt())
        manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", 1))
        t = manager.begin()
        u = manager.begin()
        assert manager.invoke(t, "Q", "Deq") == 1
        assert manager.invoke(u, "Q", "Deq") == 1  # same item, no locks
        manager.commit(t)
        with pytest.raises(ValidationFailed):
            manager.commit(u)

    def test_run_transaction_retries_after_validation_failure(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        t = manager.begin()
        manager.invoke(t, "A", "Debit", 10)

        def body(ctx):
            return ctx.invoke("A", "Debit", 10)

        # Start a doomed racer inline: commit t in the middle by abusing
        # the retry loop — first attempt of `body` sees balance 10, then t
        # commits, invalidating it; the retry sees balance 0 -> Overdraft.
        results = []

        def racing_body(ctx):
            value = ctx.invoke("A", "Debit", 10)
            results.append(value)
            if len(results) == 1 and t.is_active:
                manager.commit(t)
            return value

        assert manager.run_transaction(racing_body) == "Overdraft"
        assert results == ["Ok", "Overdraft"]


class TestVerification:
    def test_histories_hybrid_atomic(self):
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = OptimisticTransactionManager(tracer=bus)
        manager.create_object("A", make_account_adt())
        manager.create_object("F", make_file_adt())
        import random

        rng = random.Random(3)
        active = []
        for step in range(60):
            if len(active) >= 3 or (active and rng.random() < 0.4):
                txn = active.pop(rng.randrange(len(active)))
                try:
                    manager.commit(txn)
                except ValidationFailed:
                    pass
            else:
                txn = manager.begin()
                active.append(txn)
                try:
                    if rng.random() < 0.5:
                        manager.invoke(txn, "A", "Debit", rng.randint(1, 3))
                    else:
                        manager.invoke(txn, "F", "Write", rng.randint(0, 2))
                except WouldBlock:
                    pass
        for txn in active:
            try:
                manager.commit(txn)
            except ValidationFailed:
                pass
        h = recorded.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, manager.specs())
