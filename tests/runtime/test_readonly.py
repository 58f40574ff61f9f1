"""Multiversion read-only transactions (the Section 7.1 generalisation)."""

import pytest

from repro.adts import make_account_adt, make_counter_adt, make_file_adt
from repro.core import (
    ProtocolError,
    SkewedTimestampGenerator,
    is_hybrid_atomic,
)
from repro.obs import HistorySink, TraceBus
from repro.runtime import Status, TransactionManager


def counter_manager():
    manager = TransactionManager()
    manager.create_object("C", make_counter_adt())
    return manager


class TestBasics:
    def test_snapshot_semantics(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 5))
        reader = manager.begin_readonly()
        # An updater commits *after* the reader started ...
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 100))
        # ... and is invisible at the reader's start timestamp.
        assert manager.invoke(reader, "C", "Read") == 5
        manager.commit(reader)
        assert manager.object("C").snapshot() == 105

    def test_reader_does_not_block_writers(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        reader = manager.begin_readonly()
        assert manager.invoke(reader, "C", "Read") == 1
        # Under locking, an active Read lock would conflict with Inc; the
        # multiversion reader does not.
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        assert manager.invoke(reader, "C", "Read") == 1  # stable snapshot
        manager.commit(reader)

    def test_writers_do_not_block_reader(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 3))
        writer = manager.begin()
        manager.invoke(writer, "C", "Inc", 10)  # active, holds Inc lock
        reader = manager.begin_readonly()
        assert manager.invoke(reader, "C", "Read") == 3  # no lock conflict
        manager.commit(reader)
        manager.commit(writer)

    def test_update_rejected(self):
        manager = counter_manager()
        reader = manager.begin_readonly()
        with pytest.raises(ProtocolError):
            manager.invoke(reader, "C", "Inc", 1)

    def test_requires_monotone_generator(self):
        manager = TransactionManager(generator=SkewedTimestampGenerator(seed=1))
        manager.create_object("C", make_counter_adt())
        with pytest.raises(ProtocolError):
            manager.begin_readonly()

    def test_abort_releases_pins(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        reader = manager.begin_readonly()
        manager.invoke(reader, "C", "Read")
        manager.abort(reader)
        assert reader.status is Status.ABORTED
        machine = manager.object("C").machine
        assert not machine._pins


class TestPinning:
    def test_pin_holds_horizon(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        reader = manager.begin_readonly()
        manager.invoke(reader, "C", "Read")
        machine = manager.object("C").machine
        # Updaters committing above the reader's timestamp are retained,
        # not folded, while the pin lives.
        for _ in range(5):
            manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        assert machine.retained_intentions() == 5
        assert manager.invoke(reader, "C", "Read") == 1
        manager.commit(reader)
        assert machine.retained_intentions() == 0  # horizon advanced

    def test_multiple_readers_different_snapshots(self):
        manager = counter_manager()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 1))
        early = manager.begin_readonly()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 10))
        late = manager.begin_readonly()
        manager.run_transaction(lambda ctx: ctx.invoke("C", "Inc", 100))
        assert manager.invoke(early, "C", "Read") == 1
        assert manager.invoke(late, "C", "Read") == 11
        manager.commit(early)
        manager.commit(late)


class TestVerification:
    def test_history_with_readers_is_hybrid_atomic(self):
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(tracer=bus)
        manager.create_object("A", make_account_adt())
        manager.create_object("F", make_file_adt(initial=0))
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        manager.run_transaction(lambda ctx: ctx.invoke("F", "Write", 3))
        reader = manager.begin_readonly()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 40))
        manager.run_transaction(lambda ctx: ctx.invoke("F", "Write", 7))
        assert manager.invoke(reader, "F", "Read") == 3  # snapshot predates
        manager.commit(reader)
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())

    def test_object_created_after_reader_rejected(self):
        manager = counter_manager()
        reader = manager.begin_readonly()
        manager.create_object("F", make_file_adt(initial=0))
        with pytest.raises(ProtocolError):
            manager.invoke(reader, "F", "Read")
        manager.commit(reader)
