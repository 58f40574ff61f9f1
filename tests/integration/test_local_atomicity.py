"""Local atomicity (Section 3.3): Theorem 1 and the incompatibility trap.

Theorem 1: if every object is hybrid atomic, every system history is
atomic — exercised positively with multi-object runs under skewed
timestamps.  The section also warns that objects using "correct" but
*incompatible* concurrency-control methods yield non-serializable
executions; we build that failure concretely: one object serializes
committed transactions in timestamp order (hybrid), a rogue object in
commit-arrival order (each locally serializable!), and the combination
is globally non-atomic.
"""

import pytest

from repro.adts import make_account_adt, make_file_adt, make_queue_adt
from repro.core import (
    HistoryBuilder,
    Invocation,
    SkewedTimestampGenerator,
    is_atomic,
    is_hybrid_atomic,
    is_serializable,
    is_serializable_in_order,
)
from repro.adts import FileSpec
from repro.obs import HistorySink, TraceBus
from repro.runtime import TransactionManager


class TestTheorem1Positive:
    def test_multi_object_skewed_run_is_atomic(self):
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(
            tracer=bus, generator=SkewedTimestampGenerator(seed=9)
        )
        manager.create_object("A", make_account_adt())
        manager.create_object("F", make_file_adt())
        manager.create_object("Q", make_queue_adt())
        for i in range(6):  # brute-force is_atomic caps at 8 transactions
            manager.run_transaction(
                lambda ctx: (
                    ctx.invoke("A", "Credit", i + 1),
                    ctx.invoke("F", "Write", i),
                    ctx.invoke("Q", "Enq", i),
                )
            )
        h = recorded.history()
        assert is_hybrid_atomic(h, manager.specs())
        assert is_atomic(h, manager.specs())


class TestIncompatibleProtocols:
    """Timestamp-order object X + arrival-order object Y, both locally
    serializable, globally non-atomic."""

    def build_history(self):
        # P and Q write both files concurrently.  Q commits second in real
        # time but with the SMALLER timestamp (legal: neither observed the
        # other).  X merges by timestamp (Q then P -> value 1); the rogue Y
        # merges by arrival (P then Q -> value 2).  R reads both.
        return (
            HistoryBuilder()
            .operation("P", Invocation("Write", (1,)), "Ok", obj="X")
            .operation("P", Invocation("Write", (1,)), "Ok", obj="Y")
            .operation("Q", Invocation("Write", (2,)), "Ok", obj="X")
            .operation("Q", Invocation("Write", (2,)), "Ok", obj="Y")
            .commit("P", 10, obj="X")
            .commit("P", 10, obj="Y")
            .commit("Q", 5, obj="X")
            .commit("Q", 5, obj="Y")
            .operation("R", Invocation("Read"), 1, obj="X")   # timestamp order
            .operation("R", Invocation("Read"), 2, obj="Y")   # arrival order
            .commit("R", 20, obj="X")
            .commit("R", 20, obj="Y")
            .history()
        )

    def test_each_object_locally_serializable(self):
        h = self.build_history()
        spec = FileSpec(initial=0)
        # X is hybrid atomic: serializable in timestamp order Q-P-R.
        assert is_serializable_in_order(
            h.restrict_objects("X"), ["Q", "P", "R"], {"X": spec}
        )
        # Y is locally serializable too — just in a different order.
        assert is_serializable_in_order(
            h.restrict_objects("Y"), ["P", "Q", "R"], {"Y": spec}
        )
        # But Y is NOT hybrid atomic (its local order contradicts TS).
        assert not is_hybrid_atomic(h.restrict_objects("Y"), {"Y": spec})

    def test_combination_not_atomic(self):
        h = self.build_history()
        specs = {"X": FileSpec(initial=0), "Y": FileSpec(initial=0)}
        assert not is_serializable(h, specs)
        assert not is_atomic(h, specs)

    def test_all_hybrid_restores_atomicity(self):
        # The same scenario with Y also honouring timestamp order.
        h = (
            HistoryBuilder()
            .operation("P", Invocation("Write", (1,)), "Ok", obj="X")
            .operation("P", Invocation("Write", (1,)), "Ok", obj="Y")
            .operation("Q", Invocation("Write", (2,)), "Ok", obj="X")
            .operation("Q", Invocation("Write", (2,)), "Ok", obj="Y")
            .commit("P", 10, obj="X")
            .commit("P", 10, obj="Y")
            .commit("Q", 5, obj="X")
            .commit("Q", 5, obj="Y")
            .operation("R", Invocation("Read"), 1, obj="X")
            .operation("R", Invocation("Read"), 1, obj="Y")
            .commit("R", 20, obj="X")
            .commit("R", 20, obj="Y")
            .history()
        )
        specs = {"X": FileSpec(initial=0), "Y": FileSpec(initial=0)}
        assert is_hybrid_atomic(h, specs)
        assert is_atomic(h, specs)
