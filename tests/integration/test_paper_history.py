"""End-to-end reproduction of the paper's worked example (Sections 3.2-3.4,
4.1) through every layer: formal machine, compacting machine, and runtime."""

from repro.adts import FifoQueueSpec, QUEUE_CONFLICT_FIG42, make_queue_adt
from repro.core import (
    HistoryBuilder,
    Invocation,
    LockMachine,
    is_atomic,
    is_hybrid_atomic,
    is_online_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.runtime import TransactionManager
from tests.recording import RecordingCompactingLockMachine


SPEC = FifoQueueSpec()


class TestFormalMachine:
    def drive(self, machine):
        machine.execute("P", Invocation("Enq", (1,)))
        machine.execute("Q", Invocation("Enq", (2,)))
        machine.execute("P", Invocation("Enq", (3,)))
        machine.commit("P", 2)
        machine.commit("Q", 1)
        first = machine.execute("R", Invocation("Deq"))
        second = machine.execute("R", Invocation("Deq"))
        machine.commit("R", 5)
        return first, second

    def test_dequeue_order_follows_timestamps(self):
        machine = LockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        assert self.drive(machine) == (2, 1)

    def test_accepted_history_matches_paper_text(self):
        machine = LockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        self.drive(machine)
        expected = (
            HistoryBuilder("X")
            .operation("P", Invocation("Enq", (1,)), "Ok")
            .operation("Q", Invocation("Enq", (2,)), "Ok")
            .operation("P", Invocation("Enq", (3,)), "Ok")
            .commit("P", 2)
            .commit("Q", 1)
            .operation("R", Invocation("Deq"), 2)
            .operation("R", Invocation("Deq"), 1)
            .commit("R", 5)
            .history()
        )
        assert machine.history().events == expected.events

    def test_all_three_atomicity_levels(self):
        machine = LockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        self.drive(machine)
        h = machine.history()
        specs = {"X": SPEC}
        assert is_atomic(h, specs)
        assert is_hybrid_atomic(h, specs)
        assert is_online_hybrid_atomic(h, specs)
        assert timestamps_respect_precedes(h)

    def test_every_prefix_online_hybrid_atomic(self):
        machine = LockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        self.drive(machine)
        for prefix in machine.history().prefixes():
            assert is_online_hybrid_atomic(prefix, {"X": SPEC})

    def test_compacting_machine_identical(self):
        plain = LockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        compacting = RecordingCompactingLockMachine(SPEC, QUEUE_CONFLICT_FIG42)
        assert self.drive(plain) == self.drive(compacting)
        assert plain.history().events == compacting.history().events
        # And the compacting machine ends with only item 3 materialised.
        assert compacting.version_states == frozenset({(3,)})
        assert compacting.retained_intentions() == 0


class TestRuntimeReproduction:
    def test_concurrent_producers_one_consumer(self):
        """The same story via the manager: enqueue order is decided by the
        commit timestamps, and later consumers observe it."""
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(tracer=bus)
        manager.create_object("X", make_queue_adt())
        p = manager.begin("P")
        q = manager.begin("Q")
        manager.invoke(p, "X", "Enq", 1)
        manager.invoke(q, "X", "Enq", 2)
        manager.invoke(p, "X", "Enq", 3)
        # Commit Q first: with the monotone generator Q gets the smaller
        # timestamp, like the paper's scenario.
        manager.commit(q)
        manager.commit(p)
        r = manager.begin("R")
        assert manager.invoke(r, "X", "Deq") == 2
        assert manager.invoke(r, "X", "Deq") == 1
        assert manager.invoke(r, "X", "Deq") == 3
        manager.commit(r)
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())
