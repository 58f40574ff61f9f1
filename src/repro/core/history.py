"""Histories: well-formed sequences of events (paper, Sections 2-3).

A *history* is a well-formed sequence of events.  This module provides the
:class:`History` container plus all of the derived notions the paper builds
on top of histories:

* restriction to objects and transactions (``H|X``, ``H|P``),
* ``committed(H)``, ``aborted(H)``, ``completed(H)``, ``permanent(H)``,
* well-formedness checking (the constraints of Section 2),
* ``OpSeq(H)`` for serial failure-free histories (Section 3.2),
* ``Serial(H, T)`` and history equivalence,
* the ``precedes``, ``TS`` and ``Known`` orders on transactions
  (Sections 3.3-3.4).

:class:`HistoryBuilder` offers a fluent way to transcribe histories such as
the FIFO-queue example of Section 3.2.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .events import AbortEvent, CommitEvent, Event, InvocationEvent, ResponseEvent
from .operations import Invocation, Operation, OperationSequence

__all__ = ["History", "HistoryBuilder", "WellFormednessError"]


class WellFormednessError(ValueError):
    """Raised when a sequence of events violates Section 2's constraints."""


class History:
    """An immutable sequence of events with the paper's derived notions.

    By default construction validates well-formedness; pass
    ``validate=False`` to represent raw event sequences (used internally
    when slicing already-validated histories).
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = (), validate: bool = True):
        self._events: Tuple[Event, ...] = tuple(events)
        if validate:
            check_well_formed(self._events)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return History(self._events[index], validate=False)
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return "History([" + ", ".join(str(e) for e in self._events) + "])"

    @property
    def events(self) -> Tuple[Event, ...]:
        """The underlying event tuple."""
        return self._events

    def append(self, event: Event, validate: bool = True) -> "History":
        """Return a new history extended by one event."""
        return History(self._events + (event,), validate=validate)

    def prefixes(self) -> Iterator["History"]:
        """Yield every prefix of this history, shortest first."""
        for i in range(len(self._events) + 1):
            yield History(self._events[:i], validate=False)

    # ------------------------------------------------------------------
    # Restriction (H|X, H|P)
    # ------------------------------------------------------------------

    def restrict_objects(self, objects: Iterable[str]) -> "History":
        """``H|X``: the subsequence of events involving the given objects."""
        wanted = set(objects) if not isinstance(objects, str) else {objects}
        return History((e for e in self._events if e.obj in wanted), validate=False)

    def restrict_transactions(self, transactions: Iterable[str]) -> "History":
        """``H|P``: the subsequence of events involving the given transactions."""
        if isinstance(transactions, str):
            wanted = {transactions}
        else:
            wanted = set(transactions)
        return History(
            (e for e in self._events if e.transaction in wanted), validate=False
        )

    # ------------------------------------------------------------------
    # Transaction classification
    # ------------------------------------------------------------------

    def transactions(self) -> List[str]:
        """All transactions appearing in the history, in first-event order."""
        seen: List[str] = []
        for event in self._events:
            if event.transaction not in seen:
                seen.append(event.transaction)
        return seen

    def objects(self) -> List[str]:
        """All objects appearing in the history, in first-event order."""
        seen: List[str] = []
        for event in self._events:
            if event.obj not in seen:
                seen.append(event.obj)
        return seen

    def committed(self) -> Set[str]:
        """``committed(H)``: transactions with a commit event in H."""
        return {e.transaction for e in self._events if isinstance(e, CommitEvent)}

    def aborted(self) -> Set[str]:
        """``aborted(H)``: transactions with an abort event in H."""
        return {e.transaction for e in self._events if isinstance(e, AbortEvent)}

    def completed(self) -> Set[str]:
        """``completed(H) = committed(H) ∪ aborted(H)``."""
        return self.committed() | self.aborted()

    def permanent(self) -> "History":
        """``permanent(H) = H | committed(H)`` (Section 3.2)."""
        return self.restrict_transactions(self.committed())

    def is_failure_free(self) -> bool:
        """True when ``aborted(H)`` is empty."""
        return not self.aborted()

    def timestamps(self) -> Dict[str, Any]:
        """Map each committed transaction to its commit timestamp."""
        stamps: Dict[str, Any] = {}
        for event in self._events:
            if isinstance(event, CommitEvent):
                stamps[event.transaction] = event.timestamp
        return stamps

    # ------------------------------------------------------------------
    # Serial histories and OpSeq (Section 3.2)
    # ------------------------------------------------------------------

    def is_serial(self) -> bool:
        """True when events of different transactions are not interleaved."""
        order: List[str] = []
        for event in self._events:
            if event.transaction in order:
                if order[-1] != event.transaction:
                    return False
            else:
                order.append(event.transaction)
        return True

    def op_seq(self) -> OperationSequence:
        """``OpSeq(H)``: pair invocations with responses, drop the rest.

        Defined by the paper for serial failure-free histories; we apply it
        to any per-transaction projection as well (pairing each invocation
        event with the response event that immediately follows it for the
        same transaction, discarding pending invocations and completion
        events).  For multi-transaction histories the history should be
        serial for the result to be meaningful.
        """
        operations: List[Operation] = []
        pending: Dict[str, Invocation] = {}
        for event in self._events:
            if isinstance(event, InvocationEvent):
                pending[event.transaction] = event.invocation
            elif isinstance(event, ResponseEvent):
                invocation = pending.pop(event.transaction, None)
                if invocation is None:
                    raise WellFormednessError(
                        f"response {event} without pending invocation"
                    )
                operations.append(Operation(invocation, event.result))
        return tuple(operations)

    def serial(self, order: Sequence[str]) -> "History":
        """``Serial(H, T)``: the equivalent serial history in order ``T``.

        ``order`` must list every transaction in the history exactly once
        (extra names are ignored).  Each transaction performs the same
        sequence of steps as in ``H``.
        """
        present = set(self.transactions())
        listed = [t for t in order if t in present]
        if set(listed) != present:
            missing = present - set(listed)
            raise ValueError(f"order is missing transactions: {sorted(missing)}")
        pieces: List[Event] = []
        for transaction in listed:
            pieces.extend(self.restrict_transactions(transaction))
        return History(pieces, validate=False)

    def equivalent_to(self, other: "History") -> bool:
        """History equivalence: every transaction takes the same steps."""
        mine = set(self.transactions()) | set(other.transactions())
        return all(
            self.restrict_transactions(t) == other.restrict_transactions(t)
            for t in mine
        )

    # ------------------------------------------------------------------
    # Orders on transactions (Sections 3.3-3.4)
    # ------------------------------------------------------------------

    def precedes(self) -> Set[Tuple[str, str]]:
        """``precedes(H)``: (P, Q) iff some operation invoked by Q returns a
        result after P commits in H.

        Captures potential information flow: Q ran (completed an operation)
        after it could have observed P's commit.
        """
        pairs: Set[Tuple[str, str]] = set()
        committed_so_far: Set[str] = set()
        for event in self._events:
            if isinstance(event, CommitEvent):
                committed_so_far.add(event.transaction)
            elif isinstance(event, ResponseEvent):
                for p in committed_so_far:
                    if p != event.transaction:
                        pairs.add((p, event.transaction))
        return pairs

    def ts_order(self) -> Set[Tuple[str, str]]:
        """``TS(H)``: (P, Q) iff both commit and P's timestamp < Q's."""
        stamps = self.timestamps()
        return {
            (p, q)
            for p in stamps
            for q in stamps
            if p != q and stamps[p] < stamps[q]
        }

    def known(self) -> Set[Tuple[str, str]]:
        """``Known(H) = precedes(H) ∪ TS(H)`` (Section 3.4)."""
        return self.precedes() | self.ts_order()

    def committed_in_timestamp_order(self) -> List[str]:
        """Committed transactions sorted by their commit timestamps."""
        stamps = self.timestamps()
        return sorted(stamps, key=lambda t: stamps[t])


# ----------------------------------------------------------------------
# Well-formedness (Section 2)
# ----------------------------------------------------------------------


def check_well_formed(events: Sequence[Event]) -> None:
    """Raise :class:`WellFormednessError` on any Section 2 violation.

    The constraints checked:

    1. per transaction, invocation and response events strictly alternate,
       starting with an invocation, and a response's object matches the
       immediately preceding invocation's object;
    2. no transaction both commits and aborts;
    3. a transaction neither commits with a pending invocation nor invokes
       operations after committing;
    4. commit events for one transaction all carry the same timestamp;
    5. commit events for different transactions carry different timestamps.

    Aborted transactions are deliberately left unconstrained (they may keep
    invoking operations — the paper's orphan-tolerance choice).
    """
    pending: Dict[str, InvocationEvent] = {}
    committed: Dict[str, Any] = {}
    aborted: Set[str] = set()
    used_stamps: Dict[Any, str] = {}

    for event in events:
        t = event.transaction
        if isinstance(event, InvocationEvent):
            if t in committed:
                raise WellFormednessError(
                    f"{event}: transaction invoked an operation after committing"
                )
            if t in pending:
                raise WellFormednessError(
                    f"{event}: transaction already has a pending invocation"
                )
            pending[t] = event
        elif isinstance(event, ResponseEvent):
            if t not in pending:
                raise WellFormednessError(
                    f"{event}: response without a pending invocation"
                )
            if pending[t].obj != event.obj:
                raise WellFormednessError(
                    f"{event}: response object differs from invocation object"
                    f" {pending[t].obj}"
                )
            if t in committed:
                raise WellFormednessError(
                    f"{event}: response delivered after commit"
                )
            del pending[t]
        elif isinstance(event, CommitEvent):
            if t in aborted:
                raise WellFormednessError(f"{event}: transaction already aborted")
            if t in pending:
                raise WellFormednessError(
                    f"{event}: commit with a pending invocation"
                )
            if t in committed:
                if committed[t] != event.timestamp:
                    raise WellFormednessError(
                        f"{event}: commit with a different timestamp than before"
                        f" ({committed[t]})"
                    )
            else:
                owner = used_stamps.get(event.timestamp)
                if owner is not None and owner != t:
                    raise WellFormednessError(
                        f"{event}: timestamp already used by {owner}"
                    )
                committed[t] = event.timestamp
                used_stamps[event.timestamp] = t
        elif isinstance(event, AbortEvent):
            if t in committed:
                raise WellFormednessError(f"{event}: transaction already committed")
            aborted.add(t)
        else:  # pragma: no cover - defensive
            raise WellFormednessError(f"unknown event type: {event!r}")


class HistoryBuilder:
    """Fluent constructor for histories.

    Example — the Section 3.2 FIFO queue history::

        h = (HistoryBuilder("X")
             .operation("P", Invocation("Enq", (1,)), "Ok")
             .operation("Q", Invocation("Enq", (2,)), "Ok")
             .commit("P", 2)
             .commit("Q", 1)
             .history())
    """

    def __init__(self, default_object: str = "X"):
        self._default_object = default_object
        self._events: List[Event] = []

    def invoke(
        self, transaction: str, invocation: Invocation, obj: Optional[str] = None
    ) -> "HistoryBuilder":
        """Append an invocation event."""
        self._events.append(
            InvocationEvent(transaction, obj or self._default_object, invocation)
        )
        return self

    def respond(
        self, transaction: str, result: Any, obj: Optional[str] = None
    ) -> "HistoryBuilder":
        """Append a response event."""
        self._events.append(
            ResponseEvent(transaction, obj or self._default_object, result)
        )
        return self

    def operation(
        self,
        transaction: str,
        invocation: Invocation,
        result: Any = "Ok",
        obj: Optional[str] = None,
    ) -> "HistoryBuilder":
        """Append an invocation immediately followed by its response."""
        return self.invoke(transaction, invocation, obj).respond(
            transaction, result, obj
        )

    def commit(
        self, transaction: str, timestamp: Any, obj: Optional[str] = None
    ) -> "HistoryBuilder":
        """Append a commit event with the given timestamp."""
        self._events.append(
            CommitEvent(transaction, obj or self._default_object, timestamp)
        )
        return self

    def abort(self, transaction: str, obj: Optional[str] = None) -> "HistoryBuilder":
        """Append an abort event."""
        self._events.append(AbortEvent(transaction, obj or self._default_object))
        return self

    def history(self, validate: bool = True) -> History:
        """Finish and return the (validated) history."""
        return History(self._events, validate=validate)
