"""A mathematical Set type (library extension, derived with the paper's
machinery).

Operations::

    Insert = Operation(Item)               # add (idempotent)
    Remove = Operation(Item)               # take out (idempotent)
    Member = Operation(Item) Returns(Bool) # observe membership

Because Insert and Remove are idempotent and total, nothing invalidates
them; only the observer can be invalidated.  The derived minimal dependency
relation (machine-verified in the test suite) is::

    (row dep col)        Insert(v')   Remove(v')   Member(v'),b'
    Insert(v)
    Remove(v)
    Member(v),true                    v == v'
    Member(v),false      v == v'

This makes Sets extremely concurrent under the hybrid protocol: inserts
and removes of *any* items — even the same one — may run concurrently;
commit timestamps decide the winner (a typed analogue of the Thomas Write
Rule).  Commutativity-based locking must additionally make Insert(v) and
Remove(v) conflict, because their two orders leave distinguishable states.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "SetSpec",
    "insert",
    "remove",
    "member",
    "SET_DEPENDENCY",
    "SET_CONFLICT",
    "SET_COMMUTATIVITY_CONFLICT",
    "set_universe",
    "make_set_adt",
]


def insert(value: Any) -> Operation:
    """The operation ``[Insert(value), Ok]``."""
    return Operation(Invocation("Insert", (value,)), "Ok")


def remove(value: Any) -> Operation:
    """The operation ``[Remove(value), Ok]``."""
    return Operation(Invocation("Remove", (value,)), "Ok")


def member(value: Any, present: bool) -> Operation:
    """The operation ``[Member(value), present]``."""
    return Operation(Invocation("Member", (value,)), bool(present))


class SetSpec(SerialSpec):
    """Serial spec over frozensets of items."""

    name = "Set"

    def __init__(self, initial: Iterable[Any] = ()):
        self._initial: FrozenSet[Any] = frozenset(initial)

    def initial_state(self) -> Hashable:
        return self._initial

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        items: FrozenSet[Any] = state
        if invocation.name == "Insert":
            (value,) = invocation.args
            return [("Ok", items | {value})]
        if invocation.name == "Remove":
            (value,) = invocation.args
            return [("Ok", items - {value})]
        if invocation.name == "Member":
            (value,) = invocation.args
            return [(value in items, items)]
        return []


def _set_dep(q: Operation, p: Operation) -> bool:
    if q.name == "Member" and q.result is True:
        return p.name == "Remove" and p.args[0] == q.args[0]
    if q.name == "Member" and q.result is False:
        return p.name == "Insert" and p.args[0] == q.args[0]
    return False


#: Minimal dependency relation for Set (machine-verified in tests).
SET_DEPENDENCY = PredicateRelation(_set_dep, name="Set dependency")

#: Hybrid lock conflicts for Set.
SET_CONFLICT = symmetric_closure(SET_DEPENDENCY, name="Set conflicts (hybrid)")


def _set_mc(q: Operation, p: Operation) -> bool:
    a, b = (q, p) if q.name <= p.name else (p, q)
    if a.name == "Insert" and b.name == "Remove":
        return a.args[0] == b.args[0]
    if a.name == "Insert" and b.name == "Member":
        return a.args[0] == b.args[0] and b.result is False
    if a.name == "Member" and b.name == "Remove":
        return a.args[0] == b.args[0] and a.result is True
    return False


#: Failure-to-commute conflicts for Set: adds Insert(v) <-> Remove(v).
SET_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _set_mc, name="Set conflicts (commutativity)"
)


def set_universe(values: Sequence[Any] = (1, 2)) -> List[Operation]:
    """Every Insert/Remove/Member operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(insert(v))
        ops.append(remove(v))
        ops.append(member(v, True))
        ops.append(member(v, False))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(SET_CONFLICT, set_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        SET_COMMUTATIVITY_CONFLICT, set_universe()
    ),
}


def make_set_adt(initial: Iterable[Any] = ()) -> ADT:
    """Bundle the Set type."""
    return ADT(
        name="Set",
        spec=SetSpec(initial),
        dependency=SET_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: operation.name == "Member",
        universe=set_universe,
    )


register("Set", make_set_adt)
