"""Crash-recovery: committed effects survive, volatile intentions do not."""

import pytest

from repro.adts import make_account_adt, make_queue_adt
from repro.core import TransactionAborted, is_hybrid_atomic
from repro.obs import HistorySink, TraceBus
from repro.runtime import Status, TransactionManager


def bank(tracer=None):
    manager = TransactionManager(tracer=tracer)
    manager.create_object("A", make_account_adt())
    manager.create_object("Q", make_queue_adt())
    return manager


def recorded_bank():
    """A bank and the sink folding its global history off the bus."""
    bus = TraceBus()
    return bank(tracer=bus), bus.subscribe(HistorySink())


class TestCrash:
    def test_committed_state_survives(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        manager.crash()
        assert manager.object("A").snapshot() == 100

    def test_uncommitted_intentions_lost(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        t = manager.begin()
        manager.invoke(t, "A", "Debit", 40)
        manager.invoke(t, "Q", "Enq", "receipt")
        victims = manager.crash()
        assert t.name in victims
        assert t.status is Status.ABORTED
        assert manager.object("A").snapshot() == 100  # debit rolled back

    def test_crashed_transaction_unusable(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 5)
        manager.crash()
        with pytest.raises(TransactionAborted):
            manager.invoke(t, "A", "Credit", 5)
        with pytest.raises(TransactionAborted):
            manager.commit(t)

    def test_locks_released_by_crash(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "A", "Debit", 1)  # Overdraft lock held
        manager.crash()
        # A new transaction is not blocked by the dead one's locks.
        assert manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 5)) == "Ok"

    def test_readonly_pins_released_by_crash(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 1))
        reader = manager.begin_readonly()
        manager.invoke(reader, "A", "Debit", 0) if False else None
        manager.crash()
        assert reader.status is Status.ABORTED
        for managed in manager.objects.values():
            assert not managed.machine._pins

    def test_crash_is_idempotent(self):
        manager = bank()
        manager.crash()
        assert manager.crash() == []

    def test_work_after_crash_continues(self):
        manager, recorded = recorded_bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 50))
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 999)
        manager.crash()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 20))
        assert manager.object("A").snapshot() == 30
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())

    def test_repeated_crashes_random_workload(self):
        import random

        rng = random.Random(5)
        manager, recorded = recorded_bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 1000))
        active = []
        for step in range(50):
            roll = rng.random()
            if roll < 0.08:
                manager.crash()
                active.clear()
            elif roll < 0.3 and active:
                manager.commit(active.pop(rng.randrange(len(active))))
            else:
                if len(active) < 3:
                    active.append(manager.begin())
                txn = active[rng.randrange(len(active))]
                from repro.core import LockConflict, WouldBlock

                try:
                    manager.invoke(txn, "A", "Debit", rng.randint(1, 5))
                except (LockConflict, WouldBlock):
                    pass
        manager.crash()
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())
