"""The File type (paper, Section 4.3, Figure 4-1).

A File provides ``Read() -> Value`` and ``Write(Value) -> Ok``, where Read
returns the most recently written value.  Its unique minimal dependency
relation (which is also its invalidated-by relation) is:

=============  ============  ==================
(row dep col)  Read, v'      Write(v'), Ok
=============  ============  ==================
Read, v                      v != v'
Write(v), Ok
=============  ============  ==================

A read depends on a write when their values are distinct; writes do not
depend on one another.  The hybrid protocol therefore allows *concurrent
writes* — later transactions read the value written by the transaction
with the later commit timestamp — generalising the Thomas Write Rule.
Commutativity-based protocols must additionally make writes conflict with
each other (different values) because ``Write(1); Write(2)`` and
``Write(2); Write(1)`` leave distinguishable states.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "FileSpec",
    "read",
    "write",
    "FILE_DEPENDENCY",
    "FILE_CONFLICT",
    "FILE_COMMUTATIVITY_CONFLICT",
    "file_universe",
    "make_file_adt",
]


def read(value: Any) -> Operation:
    """The operation ``[Read(), value]``."""
    return Operation(Invocation("Read"), value)


def write(value: Any) -> Operation:
    """The operation ``[Write(value), Ok]``."""
    return Operation(Invocation("Write", (value,)), "Ok")


class FileSpec(SerialSpec):
    """Serial specification: Read returns the most recently written value."""

    name = "File"

    def __init__(self, initial: Any = 0):
        self._initial = initial

    def initial_state(self) -> Hashable:
        return self._initial

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        if invocation.name == "Read":
            return [(state, state)]
        if invocation.name == "Write":
            (value,) = invocation.args
            return [("Ok", value)]
        return []


def _read_depends_on_write(q: Operation, p: Operation) -> bool:
    # Read returning v depends on Write(v') exactly when v != v'.
    return (
        q.name == "Read"
        and p.name == "Write"
        and q.result != p.args[0]
    )


#: Figure 4-1: the unique minimal dependency relation for File.
FILE_DEPENDENCY = PredicateRelation(_read_depends_on_write, name="File dependency (Fig 4-1)")

#: Hybrid lock conflicts: symmetric closure of Figure 4-1.
FILE_CONFLICT = symmetric_closure(FILE_DEPENDENCY, name="File conflicts (hybrid)")


def _fails_to_commute(q: Operation, p: Operation) -> bool:
    # Read/Write fail to commute when values differ (the read's outcome
    # changes); Write/Write fail to commute when values differ (final state
    # changes).  Read/Read always commute.
    if {q.name, p.name} == {"Read", "Write"}:
        r, w = (q, p) if q.name == "Read" else (p, q)
        return r.result != w.args[0]
    if q.name == "Write" and p.name == "Write":
        return q.args[0] != p.args[0]
    return False


#: Failure-to-commute conflicts for File (the commutativity baseline);
#: strictly more restrictive than Figure 4-1 on write/write pairs.
FILE_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _fails_to_commute, name="File conflicts (commutativity)"
)


def file_universe(values: Sequence[Any] = (0, 1)) -> List[Operation]:
    """Every Read/Write operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(read(v))
        ops.append(write(v))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(FILE_CONFLICT, file_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        FILE_COMMUTATIVITY_CONFLICT, file_universe()
    ),
}


def make_file_adt(initial: Any = 0) -> ADT:
    """Bundle the File type for the protocols/runtime/analysis layers."""
    return ADT(
        name="File",
        spec=FileSpec(initial),
        dependency=FILE_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: operation.name == "Read",
        universe=file_universe,
    )


register("File", make_file_adt)
