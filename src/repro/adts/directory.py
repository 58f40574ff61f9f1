"""A Directory (key-value map) type (library extension, derived with the
paper's machinery).

The Directory is the richest type in the library, combining partial-failure
updates with result-bearing observers over a keyed space::

    Bind   = Operation(Key, Value) Signals(Duplicate)  # insert fresh binding
    Rebind = Operation(Key, Value) Signals(Missing)    # overwrite binding
    Unbind = Operation(Key)        Signals(Missing)    # delete binding
    Lookup = Operation(Key) Returns(Value) Signals(Missing)

Operations on *different keys* never interact, so the whole dependency
relation is keyed — the hybrid protocol degenerates to per-key locking for
free, exactly the behaviour type-specific locking papers advertise for
directories.  Within one key the derived dependency relation is an
Account-like pattern: successful updates depend on successful updates;
failure results depend on the operations that could flip them; lookups
depend on value-changing updates.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Mapping, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "DirectorySpec",
    "bind_ok",
    "bind_duplicate",
    "rebind_ok",
    "rebind_missing",
    "unbind_ok",
    "unbind_missing",
    "lookup_ok",
    "lookup_missing",
    "MISSING",
    "DUPLICATE",
    "DIRECTORY_DEPENDENCY",
    "DIRECTORY_CONFLICT",
    "DIRECTORY_COMMUTATIVITY_CONFLICT",
    "directory_universe",
    "make_directory_adt",
]

#: Exceptional results.
MISSING = "Missing"
DUPLICATE = "Duplicate"


def bind_ok(key: Any, value: Any) -> Operation:
    """``[Bind(key, value), Ok]`` — key was previously unbound."""
    return Operation(Invocation("Bind", (key, value)), "Ok")


def bind_duplicate(key: Any, value: Any) -> Operation:
    """``[Bind(key, value), Duplicate]`` — key was already bound."""
    return Operation(Invocation("Bind", (key, value)), DUPLICATE)


def rebind_ok(key: Any, value: Any) -> Operation:
    """``[Rebind(key, value), Ok]`` — key was bound; now maps to value."""
    return Operation(Invocation("Rebind", (key, value)), "Ok")


def rebind_missing(key: Any, value: Any) -> Operation:
    """``[Rebind(key, value), Missing]`` — key was unbound; unchanged."""
    return Operation(Invocation("Rebind", (key, value)), MISSING)


def unbind_ok(key: Any) -> Operation:
    """``[Unbind(key), Ok]`` — key was bound; binding removed."""
    return Operation(Invocation("Unbind", (key,)), "Ok")


def unbind_missing(key: Any) -> Operation:
    """``[Unbind(key), Missing]`` — key was unbound; unchanged."""
    return Operation(Invocation("Unbind", (key,)), MISSING)


def lookup_ok(key: Any, value: Any) -> Operation:
    """``[Lookup(key), value]`` — key currently maps to value."""
    return Operation(Invocation("Lookup", (key,)), ("Found", value))


def lookup_missing(key: Any) -> Operation:
    """``[Lookup(key), Missing]`` — key is unbound."""
    return Operation(Invocation("Lookup", (key,)), MISSING)


class DirectorySpec(SerialSpec):
    """Serial spec over canonical (sorted tuple of pairs) map states."""

    name = "Directory"

    def __init__(self, initial: Mapping[Any, Any] = ()):
        self._initial = tuple(sorted(dict(initial).items(), key=repr))

    def initial_state(self) -> Hashable:
        return self._initial

    @staticmethod
    def _get(state: Tuple[Tuple[Any, Any], ...], key: Any):
        for k, v in state:
            if k == key:
                return ("Found", v)
        return None

    @staticmethod
    def _set(state: Tuple[Tuple[Any, Any], ...], key: Any, value: Any):
        pairs = [(k, v) for k, v in state if k != key]
        pairs.append((key, value))
        return tuple(sorted(pairs, key=repr))

    @staticmethod
    def _del(state: Tuple[Tuple[Any, Any], ...], key: Any):
        return tuple((k, v) for k, v in state if k != key)

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        if invocation.name == "Bind":
            key, value = invocation.args
            if self._get(state, key) is None:
                return [("Ok", self._set(state, key, value))]
            return [(DUPLICATE, state)]
        if invocation.name == "Rebind":
            key, value = invocation.args
            if self._get(state, key) is None:
                return [(MISSING, state)]
            return [("Ok", self._set(state, key, value))]
        if invocation.name == "Unbind":
            (key,) = invocation.args
            if self._get(state, key) is None:
                return [(MISSING, state)]
            return [("Ok", self._del(state, key))]
        if invocation.name == "Lookup":
            (key,) = invocation.args
            found = self._get(state, key)
            return [(MISSING if found is None else found, state)]
        return []


def _key(operation: Operation) -> Any:
    return operation.args[0]


def _unbinds_key(operation: Operation) -> bool:
    """Does the operation (with its observed result) unbind its key?"""
    return operation.name == "Unbind" and operation.result == "Ok"


def _requires_absent(operation: Operation) -> bool:
    """Is the operation's observed result legal only when its key is unbound?"""
    if operation.name == "Bind" and operation.result == "Ok":
        return True
    if operation.name in ("Rebind", "Unbind") and operation.result == MISSING:
        return True
    return operation.name == "Lookup" and operation.result == MISSING


def _requires_bound(operation: Operation) -> bool:
    """Is the operation's observed result legal only when its key is bound?"""
    if operation.name == "Bind" and operation.result == DUPLICATE:
        return True
    if operation.name in ("Rebind", "Unbind") and operation.result == "Ok":
        return True
    return operation.name == "Lookup" and operation.result != MISSING


def _directory_dep(q: Operation, p: Operation) -> bool:
    # Derived invalidated-by relation (and the key insight of its shape):
    # only Bind,Ok flips a key from absent to bound, and only Unbind,Ok
    # flips it back, so "requires-absent" results depend exactly on Bind,Ok
    # and "requires-bound" results exactly on Unbind,Ok; a Lookup that
    # observed a value additionally depends on rebinds to *other* values.
    # Any key-changing operation legal on both sides of an inserted p
    # re-merges the states, so no longer-range dependencies exist (the
    # bounded checker in the tests confirms this).
    if _key(q) != _key(p):
        return False  # operations on different keys never interact
    if _requires_absent(q):
        return p.name == "Bind" and p.result == "Ok"
    if q.name == "Lookup" and q.result != MISSING:
        if _unbinds_key(p):
            return True
        return (
            p.name == "Rebind"
            and p.result == "Ok"
            and ("Found", p.args[1]) != q.result
        )
    if _requires_bound(q):
        return _unbinds_key(p)
    return False


#: Derived minimal dependency relation for Directory (keyed; verified in
#: the test suite with the bounded checker).
DIRECTORY_DEPENDENCY = PredicateRelation(_directory_dep, name="Directory dependency")

#: Hybrid lock conflicts for Directory.
DIRECTORY_CONFLICT = symmetric_closure(
    DIRECTORY_DEPENDENCY, name="Directory conflicts (hybrid)"
)


def _directory_mc(q: Operation, p: Operation) -> bool:
    # Failure-to-commute = the dependency relation's symmetric closure plus
    # one extra family: Rebind,Ok(v) and Rebind,Ok(w) with v != w leave
    # distinguishable states depending on order.  (Derived exhaustively
    # pair-by-pair; the tests re-derive it with the bounded checker.)
    if _key(q) != _key(p):
        return False
    if _directory_dep(q, p) or _directory_dep(p, q):
        return True
    if (
        q.name == "Rebind"
        and p.name == "Rebind"
        and q.result == "Ok"
        and p.result == "Ok"
    ):
        return q.args[1] != p.args[1]
    return False


#: Failure-to-commute conflicts for Directory: adds writer/writer pairs.
DIRECTORY_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _directory_mc, name="Directory conflicts (commutativity)"
)


def directory_universe(
    keys: Sequence[Any] = ("a",), values: Sequence[Any] = (1, 2)
) -> List[Operation]:
    """Every Directory operation over finite key/value domains."""
    ops: List[Operation] = []
    for key in keys:
        for value in values:
            ops.append(bind_ok(key, value))
            ops.append(bind_duplicate(key, value))
            ops.append(rebind_ok(key, value))
            ops.append(rebind_missing(key, value))
            ops.append(lookup_ok(key, value))
        ops.append(unbind_ok(key))
        ops.append(unbind_missing(key))
        ops.append(lookup_missing(key))
    return ops


#: The declared universe plus a second key: with one key the tabulation
#: would never see two operations on different keys.
_TABULATED = directory_universe(keys=("a", "b"))

#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(DIRECTORY_CONFLICT, _TABULATED),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        DIRECTORY_COMMUTATIVITY_CONFLICT, _TABULATED
    ),
}


def make_directory_adt(initial: Mapping[Any, Any] = ()) -> ADT:
    """Bundle the Directory type."""
    return ADT(
        name="Directory",
        spec=DirectorySpec(initial),
        dependency=DIRECTORY_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: operation.name == "Lookup",
        universe=directory_universe,
    )


register("Directory", make_directory_adt)
