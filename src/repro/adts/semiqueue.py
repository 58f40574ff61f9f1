"""The SemiQueue type (paper, Section 4.3, Figure 4-4).

A SemiQueue weakens the FIFO queue by *non-determinism*: ``Ins(v) -> Ok``
inserts an item and ``Rem() -> v`` removes and returns **some** item
(blocking while empty).  Introducing non-determinism into the sequential
specification relaxes the constraints on concurrency; the SemiQueue has a
unique minimal dependency relation::

    (row dep col)    Ins(v'), Ok    Rem, v'
    Ins(v), Ok
    Rem, v                          v == v'

Only removals of the *same* item conflict: insertions run concurrently
with everything, and removals of distinct items run concurrently with each
other.  (Compare with the queue's Figures 4-2/4-3 — the paper's point that
"non-deterministic operations are an important source of concurrency".)
For the SemiQueue, failure-to-commute coincides with this relation, so
hybrid and commutativity protocols tie — the win comes from the
specification, and the comparison benchmark shows both beat the FIFO queue.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "SemiQueueSpec",
    "ins",
    "rem",
    "SEMIQUEUE_DEPENDENCY",
    "SEMIQUEUE_CONFLICT",
    "SEMIQUEUE_COMMUTATIVITY_CONFLICT",
    "semiqueue_universe",
    "make_semiqueue_adt",
]


def ins(value: Any) -> Operation:
    """The operation ``[Ins(value), Ok]``."""
    return Operation(Invocation("Ins", (value,)), "Ok")


def rem(value: Any) -> Operation:
    """The operation ``[Rem(), value]``."""
    return Operation(Invocation("Rem"), value)


class SemiQueueSpec(SerialSpec):
    """Serial spec: state is a multiset; Rem non-deterministically removes
    any present item, blocking while the multiset is empty."""

    name = "SemiQueue"

    def initial_state(self) -> Hashable:
        return ()

    @staticmethod
    def _add(state: Tuple[Any, ...], value: Any) -> Tuple[Any, ...]:
        # Canonical multiset representation: sorted tuple (by repr for
        # heterogeneous values).
        return tuple(sorted(state + (value,), key=repr))

    @staticmethod
    def _remove(state: Tuple[Any, ...], value: Any) -> Tuple[Any, ...]:
        items = list(state)
        items.remove(value)
        return tuple(items)

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        items: Tuple[Any, ...] = state
        if invocation.name == "Ins":
            (value,) = invocation.args
            return [("Ok", self._add(items, value))]
        if invocation.name == "Rem":
            # One outcome per *distinct* item present (non-determinism).
            seen = []
            outs = []
            for value in items:
                if value not in seen:
                    seen.append(value)
                    outs.append((value, self._remove(items, value)))
            return outs
        return []


def _semiqueue_dep(q: Operation, p: Operation) -> bool:
    # Rem(v) depends on Rem(v') exactly when v == v'.
    return q.name == "Rem" and p.name == "Rem" and q.result == p.result


#: Figure 4-4: the unique minimal dependency relation for SemiQueue.
SEMIQUEUE_DEPENDENCY = PredicateRelation(
    _semiqueue_dep, name="SemiQueue dependency (Fig 4-4)"
)

#: Hybrid lock conflicts (already symmetric).
SEMIQUEUE_CONFLICT = symmetric_closure(
    SEMIQUEUE_DEPENDENCY, name="SemiQueue conflicts (hybrid)"
)

#: Failure-to-commute coincides with the dependency relation here.
SEMIQUEUE_COMMUTATIVITY_CONFLICT = PredicateRelation(
    lambda q, p: _semiqueue_dep(q, p) or _semiqueue_dep(p, q),
    name="SemiQueue conflicts (commutativity)",
)


def semiqueue_universe(values: Sequence[Any] = (1, 2)) -> List[Operation]:
    """Every Ins/Rem operation over a finite value domain."""
    ops: List[Operation] = []
    for v in values:
        ops.append(ins(v))
        ops.append(rem(v))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(SEMIQUEUE_CONFLICT, semiqueue_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        SEMIQUEUE_COMMUTATIVITY_CONFLICT, semiqueue_universe()
    ),
}


def make_semiqueue_adt() -> ADT:
    """Bundle the SemiQueue type."""
    return ADT(
        name="SemiQueue",
        spec=SemiQueueSpec(),
        dependency=SEMIQUEUE_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: False,
        universe=semiqueue_universe,
    )


register("SemiQueue", make_semiqueue_adt)
