"""A bounded FIFO queue (library extension) — a cautionary derivation.

``Enq(v) -> Ok`` blocks while the queue holds ``capacity`` items; ``Deq``
blocks while it is empty.  Making Enq *partial* changes everything: an
enqueue can now invalidate another enqueue (by filling the queue), so the
derived invalidated-by relation is::

    (row dep col)    Enq(v'), Ok    Deq, v'
    Enq(v), Ok       true
    Deq, v           v != v'        v == v'

and the unbounded queue's headline optimisation — conflict-free
concurrent enqueues (Figure 4-2) — is gone.

More interesting still, invalidated-by is **not minimal** in spirit here:
the failure-to-commute relation::

    (row dep col)    Enq(v'), Ok    Deq, v'
    Enq(v), Ok       true
    Deq, v                          v == v'

is also a dependency relation (Theorem 28) and is a strict subset of
invalidated-by's symmetric closure — it drops the Deq/Enq conflicts.  The
bundle therefore *locks* with the commutativity-shaped table (exposed as
the alternative ``"mc"``) while still declaring invalidated-by as the
canonical derived dependency, a worked example that the invalidated-by
recipe is sufficient but not always the best choice (the paper:
"invalidated-by ... need not be a minimal dependency relation").
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "BoundedQueueSpec",
    "benq",
    "bdeq",
    "BOUNDED_QUEUE_DEPENDENCY",
    "BOUNDED_QUEUE_MC_DEPENDENCY",
    "BOUNDED_QUEUE_CONFLICT",
    "BOUNDED_QUEUE_COMMUTATIVITY_CONFLICT",
    "bounded_queue_universe",
    "make_bounded_queue_adt",
]


def benq(value: Any) -> Operation:
    """The operation ``[Enq(value), Ok]``."""
    return Operation(Invocation("Enq", (value,)), "Ok")


def bdeq(value: Any) -> Operation:
    """The operation ``[Deq(), value]``."""
    return Operation(Invocation("Deq"), value)


class BoundedQueueSpec(SerialSpec):
    """FIFO with capacity; both operations are partial."""

    name = "BoundedQueue"

    def __init__(self, capacity: int = 2):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity

    def initial_state(self) -> Hashable:
        return ()

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        items: Tuple[Any, ...] = state
        if invocation.name == "Enq":
            if len(items) >= self.capacity:
                return []  # partial: blocks while full
            (value,) = invocation.args
            return [("Ok", items + (value,))]
        if invocation.name == "Deq":
            if not items:
                return []  # partial: blocks while empty
            return [(items[0], items[1:])]
        return []


def _invalidated_by(q: Operation, p: Operation) -> bool:
    if q.name == "Enq":
        return p.name == "Enq"  # p may fill the queue
    if q.name == "Deq":
        if p.name == "Enq":
            return q.result != p.args[0]
        return q.result == p.result
    return False


def _mc(q: Operation, p: Operation) -> bool:
    if q.name == "Enq" and p.name == "Enq":
        return True  # ordering observable AND fullness interference
    if q.name == "Deq" and p.name == "Deq":
        return q.result == p.result
    return False


#: The derived invalidated-by relation (NOT the tightest choice here).
BOUNDED_QUEUE_DEPENDENCY = PredicateRelation(
    _invalidated_by, name="BoundedQueue invalidated-by"
)

#: The commutativity-shaped relation: also a dependency relation, and a
#: strict subset of invalidated-by's closure — the better lock table.
BOUNDED_QUEUE_MC_DEPENDENCY = PredicateRelation(
    _mc, name="BoundedQueue dependency (MC-shaped)"
)

#: The bundle locks with the tighter table.
BOUNDED_QUEUE_CONFLICT = symmetric_closure(
    BOUNDED_QUEUE_MC_DEPENDENCY, name="BoundedQueue conflicts (hybrid)"
)

#: Failure-to-commute coincides with the MC-shaped relation.
BOUNDED_QUEUE_COMMUTATIVITY_CONFLICT = PredicateRelation(
    lambda q, p: _mc(q, p) or _mc(p, q),
    name="BoundedQueue conflicts (commutativity)",
)


def bounded_queue_universe(values: Sequence[Any] = (1, 2)) -> List[Operation]:
    """Every Enq/Deq operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(benq(v))
        ops.append(bdeq(v))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(
        BOUNDED_QUEUE_CONFLICT, bounded_queue_universe()
    ),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        BOUNDED_QUEUE_COMMUTATIVITY_CONFLICT, bounded_queue_universe()
    ),
}


def make_bounded_queue_adt(capacity: int = 2) -> ADT:
    """Bundle the bounded queue."""
    return ADT(
        name="BoundedQueue",
        spec=BoundedQueueSpec(capacity),
        dependency=BOUNDED_QUEUE_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: False,
        universe=bounded_queue_universe,
        alternative_dependencies={"mc": BOUNDED_QUEUE_MC_DEPENDENCY},
    )


register("BoundedQueue", make_bounded_queue_adt)
