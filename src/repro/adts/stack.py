"""A LIFO Stack type (library extension, derived with the paper's
machinery).

``Push(v) -> Ok`` places an item on top; ``Pop() -> v`` removes and
returns the top item, blocking while the stack is empty.  The derived
invalidated-by relation (machine-verified in the tests) mirrors the FIFO
queue's Figure 4-2 exactly::

    (row dep col)    Push(v'), Ok    Pop, v'
    Push(v), Ok
    Pop, v           v != v'         v == v'

so the hybrid protocol admits **concurrent pushes** — they do not
commute (failure-to-commute adds Push(v) <-> Push(v') for v != v'), but
neither invalidates the other; the commit timestamps decide the pop
order, just as for enqueues.  The paper's queue analysis thus transfers
verbatim to the LIFO discipline.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "StackSpec",
    "push",
    "pop",
    "STACK_DEPENDENCY",
    "STACK_CONFLICT",
    "STACK_COMMUTATIVITY_CONFLICT",
    "stack_universe",
    "make_stack_adt",
]


def push(value: Any) -> Operation:
    """The operation ``[Push(value), Ok]``."""
    return Operation(Invocation("Push", (value,)), "Ok")


def pop(value: Any) -> Operation:
    """The operation ``[Pop(), value]``."""
    return Operation(Invocation("Pop"), value)


class StackSpec(SerialSpec):
    """Serial specification: last-in first-out; Pop is partial on empty."""

    name = "Stack"

    def initial_state(self) -> Hashable:
        return ()

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        items: Tuple[Any, ...] = state
        if invocation.name == "Push":
            (value,) = invocation.args
            return [("Ok", items + (value,))]
        if invocation.name == "Pop":
            if not items:
                return []  # partial: blocks on an empty stack
            return [(items[-1], items[:-1])]
        return []


def _stack_dep(q: Operation, p: Operation) -> bool:
    # Pop(v) depends on Push(v') when v != v', and on Pop(v') when v == v'.
    if q.name != "Pop":
        return False
    if p.name == "Push":
        return q.result != p.args[0]
    if p.name == "Pop":
        return q.result == p.result
    return False


#: Derived minimal dependency relation for Stack (= invalidated-by).
STACK_DEPENDENCY = PredicateRelation(_stack_dep, name="Stack dependency")

#: Hybrid lock conflicts: pushes stay concurrent.
STACK_CONFLICT = symmetric_closure(STACK_DEPENDENCY, name="Stack conflicts (hybrid)")


def _stack_mc(q: Operation, p: Operation) -> bool:
    # Failure to commute adds Push(v) <-> Push(v') for v != v'.
    if q.name == "Push" and p.name == "Push":
        return q.args[0] != p.args[0]
    return _stack_dep(q, p) or _stack_dep(p, q)


#: Failure-to-commute conflicts: pushes of distinct items conflict.
STACK_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _stack_mc, name="Stack conflicts (commutativity)"
)


def stack_universe(values: Sequence[Any] = (1, 2)) -> List[Operation]:
    """Every Push/Pop operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(push(v))
        ops.append(pop(v))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(STACK_CONFLICT, stack_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        STACK_COMMUTATIVITY_CONFLICT, stack_universe()
    ),
}


def make_stack_adt() -> ADT:
    """Bundle the Stack type."""
    return ADT(
        name="Stack",
        spec=StackSpec(),
        dependency=STACK_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: False,
        universe=stack_universe,
    )


register("Stack", make_stack_adt)
