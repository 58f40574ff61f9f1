"""A bounded Counter type (library extension, derived with the paper's
machinery).

The Counter is not one of the paper's worked examples; it is included to
show the derivation pipeline applied to a fresh type, mixing an
observer with partial-failure updates::

    Inc  = Operation(Nat)                 # value += n
    Dec  = Operation(Nat) Signals(Floor)  # value -= n, or Floor unchanged
    Read = Operation() Returns(Nat)       # observe the value

``Dec`` refuses to drive the counter negative (like Debit's Overdraft).
The invalidated-by relation, derived mechanically and verified by the test
suite, is::

    (row dep col)   Inc(n)   Dec(n),Ok   Dec(n),Floor   Read,v'
    Inc(m)
    Dec(m),Ok                true
    Dec(m),Floor    true
    Read,v          true     v >= n      (never)        (never)

Reads depend on every state-changing operation (with value-sensitive
conditions); increments never depend on anything, so — as with File writes
and Queue enqueues — *concurrent increments* are admitted by the hybrid
protocol even though "Inc; Read" histories order them observably.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "CounterSpec",
    "inc",
    "dec_ok",
    "dec_floor",
    "read_counter",
    "FLOOR",
    "COUNTER_DEPENDENCY",
    "COUNTER_CONFLICT",
    "COUNTER_COMMUTATIVITY_CONFLICT",
    "counter_universe",
    "make_counter_adt",
]

#: The exceptional Dec result.
FLOOR = "Floor"


def inc(amount: int) -> Operation:
    """The operation ``[Inc(amount), Ok]``."""
    return Operation(Invocation("Inc", (int(amount),)), "Ok")


def dec_ok(amount: int) -> Operation:
    """The operation ``[Dec(amount), Ok]`` (a successful decrement)."""
    return Operation(Invocation("Dec", (int(amount),)), "Ok")


def dec_floor(amount: int) -> Operation:
    """The operation ``[Dec(amount), Floor]`` (a refused decrement)."""
    return Operation(Invocation("Dec", (int(amount),)), FLOOR)


def read_counter(value: int) -> Operation:
    """The operation ``[Read(), value]``."""
    return Operation(Invocation("Read"), int(value))


class CounterSpec(SerialSpec):
    """Serial spec over non-negative integer counters."""

    name = "Counter"

    def __init__(self, initial: int = 0):
        if initial < 0:
            raise ValueError("counter value must be non-negative")
        self._initial = int(initial)

    def initial_state(self) -> Hashable:
        return self._initial

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        value: int = state
        if invocation.name == "Inc":
            (amount,) = invocation.args
            return [("Ok", value + amount)]
        if invocation.name == "Dec":
            (amount,) = invocation.args
            if value >= amount:
                return [("Ok", value - amount)]
            return [(FLOOR, value)]
        if invocation.name == "Read":
            return [(value, value)]
        return []


def _counter_dep(q: Operation, p: Operation) -> bool:
    if q.name == "Dec" and q.result == "Ok":
        return p.name == "Dec" and p.result == "Ok"
    if q.name == "Dec" and q.result == FLOOR:
        return p.name == "Inc"
    if q.name == "Read":
        # A read depends on operations that change the value it returned.
        # A successful Dec(n) can only have produced the observed value v
        # when v >= n (the with-Dec run must stay non-negative and agree
        # with the without-Dec run on every intermediate result).
        if p.name == "Inc":
            return True
        if p.name == "Dec" and p.result == "Ok":
            return q.result >= p.args[0]
        return False
    return False


#: Minimal dependency relation for Counter (machine-verified in tests).
COUNTER_DEPENDENCY = PredicateRelation(_counter_dep, name="Counter dependency")

#: Hybrid lock conflicts for Counter.
COUNTER_CONFLICT = symmetric_closure(COUNTER_DEPENDENCY, name="Counter conflicts (hybrid)")


def _counter_mc(q: Operation, p: Operation) -> bool:
    # Failure to commute adds nothing over the symmetric closure except
    # read/read stays free and inc/inc commute (addition commutes), but
    # reads fail to commute with updates, and Dec,Ok with Dec,Ok / Inc with
    # Dec,Floor exactly as in the dependency closure.
    return _counter_dep(q, p) or _counter_dep(p, q)


#: Failure-to-commute conflicts — for Counter these coincide with the
#: symmetric closure of the dependency relation (no Post-like operation).
COUNTER_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _counter_mc, name="Counter conflicts (commutativity)"
)


def counter_universe(
    amounts: Sequence[int] = (1, 2), values: Sequence[int] = (0, 1, 2)
) -> List[Operation]:
    """Every Inc/Dec/Read operation over finite domains."""
    ops: List[Operation] = []
    for amount in amounts:
        ops.append(inc(amount))
        ops.append(dec_ok(amount))
        ops.append(dec_floor(amount))
    for value in values:
        ops.append(read_counter(value))
    return ops


#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(COUNTER_CONFLICT, counter_universe()),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        COUNTER_COMMUTATIVITY_CONFLICT, counter_universe()
    ),
}


def make_counter_adt(initial: int = 0) -> ADT:
    """Bundle the Counter type."""
    return ADT(
        name="Counter",
        spec=CounterSpec(initial),
        dependency=COUNTER_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: operation.name == "Read",
        universe=counter_universe,
    )


register("Counter", make_counter_adt)
