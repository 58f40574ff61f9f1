"""The FIFO Queue type (paper, Section 4.3, Figures 4-2 and 4-3).

``Enq(v) -> Ok`` places an item at the end of the queue; ``Deq() -> v``
removes and returns the item at the front, *blocking* when the queue is
empty (a partial operation).

The queue is the paper's flagship example: it has **two distinct minimal
dependency relations**, whose symmetric closures impose *incomparable*
constraints on concurrency.

Figure 4-2 (the invalidated-by relation)::

    (row dep col)    Enq(v'), Ok    Deq, v'
    Enq(v), Ok
    Deq, v           v != v'        v == v'

Dequeues cannot run concurrently with other dequeues or enqueues, but
**enqueues can run concurrently with one another** even though they do not
commute — the commit timestamps decide the dequeue order.  No
commutativity-based protocol admits this.

Figure 4-3 (the commutativity-shaped relation)::

    (row dep col)    Enq(v'), Ok    Deq, v'
    Enq(v), Ok       v != v'
    Deq, v                          v == v'

Enqueues of different items depend on each other and dequeues of the same
item depend on each other, but dequeues do not depend on enqueues (and vice
versa): a dequeuing transaction may run concurrently with an enqueuing one
as long as it dequeues items enqueued by *committed* transactions.  The
symmetric closure of Figure 4-3 coincides with the failure-to-commute
relation, so this choice reproduces Weihl's commutativity-based scheme.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "FifoQueueSpec",
    "enq",
    "deq",
    "QUEUE_DEPENDENCY_FIG42",
    "QUEUE_DEPENDENCY_FIG43",
    "QUEUE_CONFLICT_FIG42",
    "QUEUE_CONFLICT_FIG43",
    "QUEUE_COMMUTATIVITY_CONFLICT",
    "queue_universe",
    "make_queue_adt",
]


def enq(value: Any) -> Operation:
    """The operation ``[Enq(value), Ok]``."""
    return Operation(Invocation("Enq", (value,)), "Ok")


def deq(value: Any) -> Operation:
    """The operation ``[Deq(), value]``."""
    return Operation(Invocation("Deq"), value)


class FifoQueueSpec(SerialSpec):
    """Serial specification: first-in first-out; Deq is partial on empty."""

    name = "FIFOQueue"

    def initial_state(self) -> Hashable:
        return ()

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        items: Tuple[Any, ...] = state
        if invocation.name == "Enq":
            (value,) = invocation.args
            return [("Ok", items + (value,))]
        if invocation.name == "Deq":
            if not items:
                return []  # partial: blocks on an empty queue
            return [(items[0], items[1:])]
        return []


def _fig42(q: Operation, p: Operation) -> bool:
    # Deq(v) depends on Enq(v') when v != v', and on Deq(v') when v == v'.
    if q.name != "Deq":
        return False
    if p.name == "Enq":
        return q.result != p.args[0]
    if p.name == "Deq":
        return q.result == p.result
    return False


def _fig43(q: Operation, p: Operation) -> bool:
    # Enq(v) depends on Enq(v') when v != v'; Deq(v) on Deq(v') when v == v'.
    if q.name == "Enq" and p.name == "Enq":
        return q.args[0] != p.args[0]
    if q.name == "Deq" and p.name == "Deq":
        return q.result == p.result
    return False


#: Figure 4-2: first minimal dependency relation (= invalidated-by).
QUEUE_DEPENDENCY_FIG42 = PredicateRelation(_fig42, name="Queue dependency (Fig 4-2)")

#: Figure 4-3: second minimal dependency relation.
QUEUE_DEPENDENCY_FIG43 = PredicateRelation(_fig43, name="Queue dependency (Fig 4-3)")

#: Hybrid lock conflicts from Figure 4-2: concurrent Enqs allowed.
QUEUE_CONFLICT_FIG42 = symmetric_closure(
    QUEUE_DEPENDENCY_FIG42, name="Queue conflicts (hybrid, Fig 4-2)"
)

#: Lock conflicts from Figure 4-3: Enq-Enq conflicts, Deq free of Enq.
QUEUE_CONFLICT_FIG43 = symmetric_closure(
    QUEUE_DEPENDENCY_FIG43, name="Queue conflicts (Fig 4-3)"
)

#: Failure-to-commute conflicts — identical to Figure 4-3's closure
#: (Section 7.1 notes the coincidence), already symmetric.
QUEUE_COMMUTATIVITY_CONFLICT = PredicateRelation(
    lambda q, p: _fig43(q, p) or _fig43(p, q),
    name="Queue conflicts (commutativity)",
)


def queue_universe(values: Sequence[Any] = (1, 2)) -> List[Operation]:
    """Every Enq/Deq operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(enq(v))
        ops.append(deq(v))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT_FIG42": CompiledRelation(QUEUE_CONFLICT_FIG42, queue_universe()),
    "CONFLICT_FIG43": CompiledRelation(QUEUE_CONFLICT_FIG43, queue_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        QUEUE_COMMUTATIVITY_CONFLICT, queue_universe()
    ),
}


def make_queue_adt(dependency: str = "fig42") -> ADT:
    """Bundle the queue.

    ``dependency`` selects which minimal dependency relation drives the
    hybrid protocol: ``"fig42"`` (concurrent enqueues — the choice that
    showcases hybrid's extra concurrency) or ``"fig43"``.
    """
    if dependency == "fig42":
        dep, conflict = QUEUE_DEPENDENCY_FIG42, COMPILED_TABLES["CONFLICT_FIG42"]
    elif dependency == "fig43":
        dep, conflict = QUEUE_DEPENDENCY_FIG43, COMPILED_TABLES["CONFLICT_FIG43"]
    else:
        raise ValueError("dependency must be 'fig42' or 'fig43'")
    return ADT(
        name="FIFOQueue",
        spec=FifoQueueSpec(),
        dependency=dep,
        conflict=conflict,
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: False,  # both Enq and Deq mutate
        universe=queue_universe,
        alternative_dependencies={
            "fig42": QUEUE_DEPENDENCY_FIG42,
            "fig43": QUEUE_DEPENDENCY_FIG43,
        },
    )


register("FIFOQueue", make_queue_adt)
