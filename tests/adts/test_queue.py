"""FIFO Queue: Figures 4-2 and 4-3, incomparability, protocol behaviour."""

import pytest

from repro.adts import (
    QUEUE_COMMUTATIVITY_CONFLICT,
    QUEUE_CONFLICT_FIG42,
    QUEUE_CONFLICT_FIG43,
    QUEUE_DEPENDENCY_FIG42,
    QUEUE_DEPENDENCY_FIG43,
    deq,
    enq,
    make_queue_adt,
)
from repro.analysis import Ordering, compare_relations
from repro.core import (
    invalidated_by,
    failure_to_commute,
    is_dependency_relation,
    is_minimal_dependency_relation,
    is_symmetric,
)


class TestFigure42:
    def test_derived_equals_invalidated_by(self, queue_adt, queue_ops):
        derived = invalidated_by(queue_adt.spec, queue_ops)
        assert derived.pair_set == QUEUE_DEPENDENCY_FIG42.restrict(queue_ops).pair_set

    def test_entries(self):
        assert QUEUE_DEPENDENCY_FIG42.related(deq(1), enq(2))
        assert not QUEUE_DEPENDENCY_FIG42.related(deq(1), enq(1))
        assert QUEUE_DEPENDENCY_FIG42.related(deq(1), deq(1))
        assert not QUEUE_DEPENDENCY_FIG42.related(deq(1), deq(2))
        assert not QUEUE_DEPENDENCY_FIG42.related(enq(1), enq(2))
        assert not QUEUE_DEPENDENCY_FIG42.related(enq(1), deq(1))

    def test_minimal(self, queue_adt, queue_ops):
        enumerated = QUEUE_DEPENDENCY_FIG42.restrict(queue_ops)
        assert is_minimal_dependency_relation(enumerated, queue_adt.spec, queue_ops)


class TestFigure43:
    def test_entries(self):
        assert QUEUE_DEPENDENCY_FIG43.related(enq(1), enq(2))
        assert not QUEUE_DEPENDENCY_FIG43.related(enq(1), enq(1))
        assert QUEUE_DEPENDENCY_FIG43.related(deq(1), deq(1))
        assert not QUEUE_DEPENDENCY_FIG43.related(deq(1), enq(2))
        assert not QUEUE_DEPENDENCY_FIG43.related(enq(1), deq(1))

    def test_is_dependency_relation(self, queue_adt, queue_ops):
        assert is_dependency_relation(QUEUE_DEPENDENCY_FIG43, queue_adt.spec, queue_ops)

    def test_minimal(self, queue_adt, queue_ops):
        enumerated = QUEUE_DEPENDENCY_FIG43.restrict(queue_ops)
        assert is_minimal_dependency_relation(enumerated, queue_adt.spec, queue_ops)

    def test_closure_equals_commutativity_conflicts(self, queue_adt, queue_ops):
        # Section 7.1: for the queue, the Fig 4-3 conflicts coincide with
        # the commutativity-based ones.
        derived = failure_to_commute(queue_adt.spec, queue_ops)
        assert derived.pair_set == QUEUE_CONFLICT_FIG43.restrict(queue_ops).pair_set


class TestIncomparability:
    def test_two_distinct_minimal_relations(self, queue_ops):
        report = compare_relations(
            QUEUE_CONFLICT_FIG42, QUEUE_CONFLICT_FIG43, queue_ops
        )
        assert report.ordering is Ordering.INCOMPARABLE
        # Fig 4-2 allows concurrent enqueues that Fig 4-3 forbids ...
        assert not QUEUE_CONFLICT_FIG42.related(enq(1), enq(2))
        assert QUEUE_CONFLICT_FIG43.related(enq(1), enq(2))
        # ... while Fig 4-3 frees dequeues from enqueue locks.
        assert QUEUE_CONFLICT_FIG42.related(deq(1), enq(2))
        assert not QUEUE_CONFLICT_FIG43.related(deq(1), enq(2))


class TestBundles:
    def test_default_bundle_uses_fig42(self):
        # The bundle locks with the tabulated Figure 4-2 table: concurrent
        # enqueues, dequeues held off by enqueues of other items.
        adt = make_queue_adt()
        assert adt.conflict.name == QUEUE_CONFLICT_FIG42.name
        assert not adt.conflict.related(enq(1), enq(2))
        assert adt.conflict.related(deq(1), enq(2))

    def test_fig43_bundle(self):
        adt = make_queue_adt("fig43")
        assert adt.conflict.name == QUEUE_CONFLICT_FIG43.name
        assert adt.conflict.related(enq(1), enq(2))
        assert not adt.conflict.related(deq(1), enq(2))

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValueError):
            make_queue_adt("fig44")

    def test_alternatives_exposed(self):
        adt = make_queue_adt()
        assert set(adt.alternative_dependencies) == {"fig42", "fig43"}

    def test_conflicts_symmetric(self, queue_ops):
        assert is_symmetric(QUEUE_CONFLICT_FIG42, queue_ops)
        assert is_symmetric(QUEUE_CONFLICT_FIG43, queue_ops)
        assert is_symmetric(QUEUE_COMMUTATIVITY_CONFLICT, queue_ops)
