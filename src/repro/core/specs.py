"""Serial specifications (paper, Section 3.1).

A *serial specification* is a prefix-closed set of operation sequences
describing an object's behaviour in the absence of concurrency and failures.
We represent serial specifications operationally, as (possibly
non-deterministic, possibly partial) state machines:

* ``initial_state()`` returns the object's initial abstract state;
* ``outcomes(state, invocation)`` returns every ``(result, next_state)``
  pair the specification permits for that invocation in that state.

Partial operations (e.g. ``Deq`` on an empty FIFO queue) are modelled by
returning *no* outcomes; non-deterministic operations (e.g. ``Rem`` on a
SemiQueue) return several.

Because specifications may be non-deterministic, deciding whether an
operation sequence is *legal* (a member of the specification) requires
tracking the whole set of states reachable by some run; :meth:`run` and
:meth:`is_legal` do exactly that.  All states must be hashable; we strongly
recommend canonical immutable states (tuples, frozensets, numbers) so that
state-set equality coincides with behavioural equivalence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Hashable, Iterable, Iterator, List, Sequence, Tuple

from .canon import canonical_order
from .operations import Invocation, Operation, OperationSequence

__all__ = ["SerialSpec", "StateSet", "enumerate_legal_sequences"]

#: The set of abstract states reachable after some operation sequence.  An
#: empty state-set means the sequence is illegal (not in the specification).
StateSet = FrozenSet[Hashable]


class SerialSpec(ABC):
    """Operational serial specification of an abstract data type.

    Subclasses define the abstract state space and the transition structure;
    this base class derives legality checking, result enumeration, and state
    set simulation from them.
    """

    #: Human-readable type name ("FIFOQueue", "Account", ...).
    name: str = "AbstractType"

    @abstractmethod
    def initial_state(self) -> Hashable:
        """Return the object's initial abstract state."""

    @abstractmethod
    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        """All ``(result, next_state)`` pairs permitted for ``invocation``.

        Returning an empty iterable means the invocation is not currently
        enabled (a *partial* operation, which in a live system would block)
        or not recognised at all.
        """

    # ------------------------------------------------------------------
    # Derived machinery
    # ------------------------------------------------------------------

    def initial_states(self) -> StateSet:
        """The initial state-set (singleton for every spec in this library)."""
        return frozenset({self.initial_state()})

    def step(self, states: StateSet, operation: Operation) -> StateSet:
        """Advance a state-set by one operation.

        A state survives only if the specification permits ``operation``'s
        invocation to return ``operation.result`` from it.  The resulting
        set is empty iff the operation is illegal after every run consistent
        with the states given.
        """
        nxt = set()
        for state in states:
            for result, succ in self.outcomes(state, operation.invocation):
                if result == operation.result:
                    nxt.add(succ)
        return frozenset(nxt)

    def run(self, sequence: Sequence[Operation]) -> StateSet:
        """State-set reachable after ``sequence`` (empty iff illegal)."""
        states = self.initial_states()
        for operation in sequence:
            if not states:
                return states
            states = self.step(states, operation)
        return states

    def run_from(self, states: StateSet, sequence: Sequence[Operation]) -> StateSet:
        """Advance an existing state-set through ``sequence``."""
        for operation in sequence:
            if not states:
                return states
            states = self.step(states, operation)
        return states

    def is_legal(self, sequence: Sequence[Operation]) -> bool:
        """Membership test: is ``sequence`` in the serial specification?

        Serial specifications represented this way are prefix-closed, as
        the paper's definitions implicitly assume.
        """
        return bool(self.run(sequence))

    def results_for(self, states: StateSet, invocation: Invocation) -> List[Any]:
        """All results the spec permits for ``invocation`` from ``states``.

        Used by the locking protocol to "choose a result consistent with the
        view" (Section 4.1).  The returned list is duplicate-free and
        deterministically ordered for reproducibility: candidate states
        are visited in :func:`repro.core.canon.canonical_order` — ranked
        by canonical encoding, not ``repr`` (the ``repr`` of set-valued
        states lists elements in hash-iteration order, which varies with
        ``PYTHONHASHSEED`` and would let the chosen result flip between
        runs).  A one-state set is visited as it is: there is nothing to
        rank, so the call costs what ``outcomes`` costs and never the
        size of the state (every in-tree view is such a singleton).
        """
        seen: List[Any] = []
        for state in canonical_order(states):
            for result, _ in self.outcomes(state, invocation):
                if result not in seen:
                    seen.append(result)
        return seen

    def equivalent(self, h1: Sequence[Operation], h2: Sequence[Operation]) -> bool:
        """Sufficient check for Definition 25 equivalence of two sequences.

        Two operation sequences are equivalent when no future computation
        can distinguish them.  With canonical abstract states, equality of
        reachable state-sets implies equivalence (same state-set => same
        legal futures).  All ADTs in :mod:`repro.adts` use canonical states,
        for which this check is also *necessary* because distinct abstract
        states are distinguishable by some experiment.
        """
        return self.run(h1) == self.run(h2)


def enumerate_legal_sequences(
    spec: SerialSpec,
    universe: Sequence[Operation],
    max_length: int,
) -> Iterator[OperationSequence]:
    """Yield every legal operation sequence over ``universe`` up to a length.

    The enumeration is a depth-first walk of the (prefix-closed) tree of
    legal sequences, yielding shorter prefixes before their extensions.  It
    is the work-horse of the bounded exhaustive checks in
    :mod:`repro.core.dependency`, :mod:`repro.core.invalidated_by` and
    :mod:`repro.core.commutativity`.
    """
    if max_length < 0:
        raise ValueError("max_length must be non-negative")

    def walk(prefix: OperationSequence, states: StateSet) -> Iterator[OperationSequence]:
        yield prefix
        if len(prefix) == max_length:
            return
        for operation in universe:
            nxt = spec.step(states, operation)
            if nxt:
                yield from walk(prefix + (operation,), nxt)

    yield from walk((), spec.initial_states())


def enumerate_legal_with_states(
    spec: SerialSpec,
    universe: Sequence[Operation],
    max_length: int,
) -> Iterator[Tuple[OperationSequence, StateSet]]:
    """Like :func:`enumerate_legal_sequences` but also yields state-sets.

    Avoids re-running each sequence from scratch inside bounded searches.
    """
    if max_length < 0:
        raise ValueError("max_length must be non-negative")

    stack: List[Tuple[OperationSequence, StateSet]] = [((), spec.initial_states())]
    while stack:
        prefix, states = stack.pop()
        yield prefix, states
        if len(prefix) == max_length:
            continue
        for operation in universe:
            nxt = spec.step(states, operation)
            if nxt:
                stack.append((prefix + (operation,), nxt))
