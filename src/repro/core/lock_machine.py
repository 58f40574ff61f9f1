"""The LOCK state machine (paper, Section 5.1).

This is a faithful, executable transcription of the automaton the paper
uses to define the hybrid locking protocol for a single object ``X``.  A
state has four components:

* ``pending`` — partial map from transactions to pending invocations;
* ``intentions`` — total map from transactions to operation sequences (the
  operations to apply if the transaction commits; locks are implicit in the
  intentions lists);
* ``committed`` — partial map from transactions to commit timestamps;
* ``aborted`` — the set of aborted transactions.

Invocation, commit, and abort events are inputs with precondition ``True``.
A response event ``<r, X, Q>`` may occur only when (Section 5.1):

1. ``Q`` has a pending invocation,
2. ``Q`` has not completed,
3. the operation (invocation paired with ``r``) is legal in ``Q``'s *view*
   — the committed intentions in timestamp order followed by ``Q``'s own
   intentions, and
4. the operation conflicts with no operation in any other active
   transaction's intentions list.

Theorem 11/16: when ``Conflict`` is a symmetric dependency relation every
accepted history is (online) hybrid atomic.  Theorem 17: when it is not a
dependency relation some accepted history is not online hybrid atomic.  The
machine itself accepts any symmetric relation — the test-suite exercises
both directions.

The machine also records the accepted event sequence so its language
``L(LOCK)`` can be checked against the Section 3 definitions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .conflict import Relation
from .errors import IllegalOperation, LockConflict, ProtocolError, WouldBlock
from .events import AbortEvent, CommitEvent, Event, InvocationEvent, ResponseEvent
from .history import History
from .operations import Invocation, Operation, OperationSequence
from .specs import SerialSpec, StateSet

__all__ = ["LockMachine"]


class LockMachine:
    """Executable LOCK automaton for one object.

    Parameters
    ----------
    spec:
        The object's serial specification.
    conflict:
        A symmetric relation on operations used to test lock conflicts.
        Correct (hybrid atomic) behaviour requires it to be a symmetric
        dependency relation for ``spec``; the machine does not enforce
        this, mirroring Theorem 17's necessity direction.
    obj:
        The object's name as it appears in events.

    Each transaction's view state-set is maintained incrementally (one
    ``spec.step`` per appended operation) instead of replaying the whole
    view on every response check.  The caches are pure bookkeeping —
    ``L(LOCK)`` is unchanged, which the bisimulation property suite
    (``tests/properties/test_incremental_equivalence``) certifies by
    driving this machine and a naive replay of Section 5.1 through
    identical workloads.

    This class is the Section 5.1 *reference* and the one recorder of
    ``L(LOCK)``: :meth:`history` is every event it accepted, so its state
    grows with each for ever.  A managed object runs
    :class:`CompactingLockMachine`, which for that reason records none.
    """

    def __init__(self, spec: SerialSpec, conflict: Relation, obj: str = "X"):
        self.spec = spec
        self.conflict = conflict
        self.obj = obj
        # State components (Section 5.1).
        self._pending: Dict[str, Invocation] = {}
        self._intentions: Dict[str, OperationSequence] = {}
        self._committed: Dict[str, Any] = {}
        self._aborted: Set[str] = set()
        # Accepted events, for verification.
        self._accepted: List[Event] = []
        # Incremental view bookkeeping (no effect on the accepted
        # language; see ``view_states``).  ``_view_cache`` maps an active
        # transaction to ``(len(intentions), states)`` — the state-set of
        # its view after that many of its own operations — and is only
        # trusted while the committed prefix is unchanged (every change
        # clears it).  ``_committed_cache`` is the state-set denoted by
        # the committed state, or None when it must be recomputed; note
        # an *empty frozenset* is a valid cached value (a Theorem 17
        # relation can drive a view illegal), so staleness is always
        # tested with ``is None``, never truthiness.
        self._view_cache: Dict[str, Tuple[int, StateSet]] = {}
        self._committed_cache: Optional[StateSet] = None
        #: ``(transaction, timestamp)`` of the last replayed commit — or
        #: ``(None, fence)`` of a restored version — which every further
        #: replayed timestamp must exceed; None before any replay.
        self._replay_floor: Optional[Tuple[Optional[str], Any]] = None
        #: Optional :class:`repro.obs.TraceBus`; None keeps every
        #: instrumentation site a single attribute-load-and-compare.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # State observers
    # ------------------------------------------------------------------

    def pending(self, transaction: str) -> Optional[Invocation]:
        """The transaction's pending invocation, if any."""
        return self._pending.get(transaction)

    def intentions(self, transaction: str) -> OperationSequence:
        """``s.intentions(Q)``: operations executed by the transaction."""
        return self._intentions.get(transaction, ())

    def active_intentions(self) -> Dict[str, OperationSequence]:
        """Active transaction → its intentions list, as a fresh map.

        Locks are implicit in the intentions lists (Section 5.1), so this
        *is* the machine's lock table: every operation in an active
        transaction's list is a held lock; completed transactions hold
        nothing.  The returned dict is a copy — introspection tools may
        not alias protocol state.
        """
        return {
            transaction: operations
            for transaction, operations in self._intentions.items()
            if self.is_active(transaction)
        }

    def commit_timestamp(self, transaction: str) -> Optional[Any]:
        """``s.committed(Q)``: the commit timestamp, or None if active."""
        return self._committed.get(transaction)

    @property
    def committed_transactions(self) -> Dict[str, Any]:
        """Map of committed transactions to their timestamps."""
        return dict(self._committed)

    @property
    def aborted_transactions(self) -> Set[str]:
        """``s.aborted``."""
        return set(self._aborted)

    def completed(self) -> Set[str]:
        """``s.completed = s.aborted ∪ dom(s.committed)``, as a fresh set.

        An observer: it costs time proportional to every abort the object
        has ever seen, so the transitions test :meth:`is_active` instead.
        """
        return self._aborted | set(self._committed)

    def is_active(self, transaction: str) -> bool:
        """True when the transaction has neither committed nor aborted."""
        return (
            transaction not in self._aborted
            and transaction not in self._committed
        )

    def active_transactions(self) -> List[str]:
        """Transactions with recorded steps that have not completed."""
        seen = set(self._intentions) | set(self._pending)
        return sorted(t for t in seen if self.is_active(t))

    def history(self) -> History:
        """The accepted event sequence as a :class:`History`."""
        return History(self._accepted, validate=False)

    # ------------------------------------------------------------------
    # Views (Section 5.1)
    # ------------------------------------------------------------------

    def committed_order(self) -> List[str]:
        """Committed transactions in commit-timestamp order."""
        return sorted(self._committed, key=lambda t: self._committed[t])

    def committed_state(self) -> OperationSequence:
        """Committed intentions concatenated in timestamp order."""
        sequence: List[Operation] = []
        for transaction in self.committed_order():
            sequence.extend(self._intentions.get(transaction, ()))
        return tuple(sequence)

    def view(self, transaction: str) -> OperationSequence:
        """``View(Q, s)``: committed state followed by Q's intentions."""
        return self.committed_state() + self.intentions(transaction)

    def _base_states(self) -> StateSet:
        """What the committed prefix replays from.

        The base machine starts at the specification's initial states;
        the compacting machine (Section 6) overrides this to return its
        version (the state-set of the folded common prefix).
        """
        return self.spec.initial_states()

    def committed_states(self) -> StateSet:
        """State-set denoted by the committed state, cached.

        The cache is advanced incrementally on in-timestamp-order commits
        and replays, dropped on out-of-order commits, and recomputed here
        on demand by replaying the retained committed intentions from
        :meth:`_base_states`.
        """
        cache = self._committed_cache
        if cache is None:
            cache = self.spec.run_from(self._base_states(), self.committed_state())
            self._committed_cache = cache
        return cache

    def view_states(self, transaction: str) -> StateSet:
        """State-set reached by the transaction's view.

        The committed prefix's state-set is cached and each transaction's
        view state-set is advanced by one ``spec.step`` per appended
        operation — the shape of the paper's appendix (Avalon/C++
        Account), where per-transaction state is maintained incrementally
        rather than replayed.
        """
        own = self.intentions(transaction)
        entry = self._view_cache.get(transaction)
        if entry is not None:
            applied, states = entry
            if applied == len(own):
                return states
            if applied < len(own):
                states = self.spec.run_from(states, own[applied:])
                self._view_cache[transaction] = (len(own), states)
                return states
            # An intentions list never shrinks while its cache entry
            # lives (abort/commit/forget drop the entry), so this branch
            # is unreachable; rebuild defensively if it ever isn't.
        states = self.spec.run_from(self.committed_states(), own)
        self._view_cache[transaction] = (len(own), states)
        return states

    def _invalidate_views(self, committed_states: Optional[StateSet]) -> None:
        """The committed prefix changed: drop every per-transaction view.

        ``committed_states`` installs the new committed state-set when
        the caller could advance it incrementally (an in-timestamp-order
        commit or replay); None forces a lazy recompute.
        """
        self._view_cache.clear()
        self._committed_cache = committed_states

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def invoke(self, transaction: str, invocation: Invocation) -> None:
        """Accept ``<i, X, Q>``; precondition True (input event).

        Well-formedness of the overall history is the caller's duty in the
        formal model; we check the cheap cases to fail fast on misuse.
        """
        if transaction in self._pending:
            raise ProtocolError(
                f"{transaction} already has a pending invocation (well-formedness)"
            )
        if transaction in self._committed:
            raise ProtocolError(
                f"{transaction} cannot invoke after committing (well-formedness)"
            )
        self._pending[transaction] = invocation
        self._record(InvocationEvent, transaction, invocation)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn.invoke",
                transaction=transaction,
                obj=self.obj,
                operation=invocation.name,
                args=invocation.args,
            )
        self._on_event_observed(transaction)

    def respond(self, transaction: str, result: Any) -> Operation:
        """Accept ``<r, X, Q>`` after checking the four preconditions.

        Raises :class:`ProtocolError`, :class:`IllegalOperation` or
        :class:`LockConflict` when the corresponding precondition fails.
        On success the pending invocation is consumed and the operation is
        appended to the transaction's intentions list.
        """
        invocation = self._pending.get(transaction)
        if invocation is None:
            raise ProtocolError(f"{transaction} has no pending invocation")
        if not self.is_active(transaction):
            raise ProtocolError(f"{transaction} has already completed")
        operation = Operation(invocation, result)
        stepped = self.spec.step(self.view_states(transaction), operation)
        if not stepped:
            raise IllegalOperation(
                f"{operation} is not legal after the view of {transaction}"
            )
        self._check_conflicts(transaction, operation)
        self._accept_response(transaction, operation, stepped)
        return operation

    def _accept_response(
        self, transaction: str, operation: Operation, stepped: StateSet
    ) -> None:
        """The response passed its four preconditions: consume the pending
        invocation, append the operation.  ``stepped``, the legality
        check's result against the current prefix, is the new cached view."""
        del self._pending[transaction]
        own = self.intentions(transaction) + (operation,)
        self._intentions[transaction] = own
        self._view_cache[transaction] = (len(own), stepped)
        self._record(ResponseEvent, transaction, operation.result)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn.respond",
                transaction=transaction,
                obj=self.obj,
                result=operation.result,
            )
        self._on_event_observed(transaction)

    def commit(self, transaction: str, timestamp: Any) -> None:
        """Accept ``<commit(t), X, Q>``; precondition True (input event).
        In timestamp order it steps nothing: Q's cached view is adopted
        as the committed state-set (sound for the reason given below)."""
        if transaction in self._aborted:
            raise ProtocolError(f"{transaction} already aborted (well-formedness)")
        if transaction in self._pending:
            raise ProtocolError(
                f"{transaction} has a pending invocation (well-formedness)"
            )
        previous = self._committed.get(transaction)
        if previous is not None and previous != timestamp:
            raise ProtocolError(
                f"{transaction} previously committed with timestamp {previous}"
            )
        in_order = previous is None  # a re-delivered commit extends nothing
        # A scan of every retained commit.  It is cheap only because the
        # compacting machine, which every managed object runs, forgets a
        # committed transaction once it falls below the horizon, so it
        # retains the tail; this plain reference machine retains the whole
        # history, and each commit costs more than the last.
        for other, stamp in self._committed.items():
            if other != transaction and stamp == timestamp:
                raise ProtocolError(
                    f"timestamp {timestamp} already used by {other} (well-formedness)"
                )
            if timestamp < stamp:
                in_order = False
        advanced: Optional[StateSet] = None
        if in_order:
            # The timestamp exceeds every retained committed one, so the
            # new committed state is committed · intentions(Q) = View(Q),
            # and a cached view is trusted exactly while the prefix it was
            # stepped from stands (every change drops every entry): adopt
            # it.  Without a current entry (a recovered transaction, another
            # commit since Q's last operation) replay Q's intentions over
            # the cached prefix.  A skewed timestamp splices into the
            # middle of the prefix; that falls back to a lazy recompute.
            own = self.intentions(transaction)
            entry = self._view_cache.get(transaction)
            if entry is not None and entry[0] == len(own):
                advanced = entry[1]
            elif self._committed_cache is not None:
                advanced = self.spec.run_from(self._committed_cache, own)
        self._committed[transaction] = timestamp
        self._invalidate_views(advanced)
        self._record(CommitEvent, transaction, timestamp)
        self._on_commit_observed(transaction, timestamp)

    def abort(self, transaction: str) -> None:
        """Accept ``<abort, X, Q>``; precondition True (input event)."""
        if transaction in self._committed:
            raise ProtocolError(f"{transaction} already committed (well-formedness)")
        self._aborted.add(transaction)
        # Aborted intentions were never part of any other view, so only
        # the aborting transaction's cached view dies.
        self._view_cache.pop(transaction, None)
        self._record(AbortEvent, transaction)
        self._on_abort_observed(transaction)

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------

    def execute(self, transaction: str, invocation: Invocation) -> Any:
        """Invoke and respond in one step, choosing a legal result.

        Implements the operational reading of Section 4.1: construct the
        view, choose a result consistent with it, check locks, and either
        append the operation (returning the result) or refuse.  Raises

        * :class:`WouldBlock` when the specification offers no outcome in
          the current view (a partial operation that must wait),
        * :class:`LockConflict` when every legal result is blocked by a
          conflicting lock (the invocation should be retried later),
        * :class:`ProtocolError` on well-formedness misuse.

        On :class:`WouldBlock`/:class:`LockConflict` no event is recorded —
        the attempt leaves the machine unchanged so the caller can retry
        later, matching the informal "the result is discarded, and the
        invocation is later retried".  (In the formal model the invocation
        would stay pending; ``OpSeq`` discards pending invocations, so the
        accepted histories are atomicity-equivalent.)

        When several results are legal and only some are lock-blocked, the
        first non-conflicting result is chosen — a scheduler that "retries
        immediately", permitted because a retried invocation "may return a
        different result".  One pass: ``results_for`` once, the lock check
        once per candidate, ``spec.step`` once for the chosen result, which
        is accepted as :meth:`invoke` + :meth:`respond` would accept it.
        """
        if transaction in self._pending:
            raise ProtocolError(
                f"{transaction} already has a pending invocation (well-formedness)"
            )
        if not self.is_active(transaction):
            raise ProtocolError(f"{transaction} has already completed")
        states = self.view_states(transaction)
        results = self.spec.results_for(states, invocation)
        if not results:
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    "lock.block",
                    transaction=transaction,
                    obj=self.obj,
                    operation=invocation.name,
                )
            raise WouldBlock(f"{invocation} has no legal outcome in the view")
        conflict: Optional[LockConflict] = None
        for result in results:
            operation = Operation(invocation, result)
            try:
                self._check_conflicts(transaction, operation)
            except LockConflict as exc:
                conflict = exc
                continue
            # ``result`` came from ``states``, so the step is non-empty.
            stepped = self.spec.step(states, operation)
            self.invoke(transaction, invocation)
            self._accept_response(transaction, operation, stepped)
            return result
        assert conflict is not None
        raise conflict

    # ------------------------------------------------------------------
    # Recovery replay entry points (used by :mod:`repro.recovery`)
    # ------------------------------------------------------------------

    def replay_committed(
        self, transaction: str, timestamp: Any, intentions: Sequence[Operation]
    ) -> None:
        """Reinstall a committed transaction from a durable intentions log.

        Recovery applies committed intentions lists in commit-timestamp
        order, so at the time of the call ``timestamp`` exceeds every
        retained commit timestamp and the replayed operations extend the
        committed state — legality is exactly hybrid atomicity of the
        pre-crash history, and is re-checked here as a corruption guard.
        So is the order: a timestamp at or below the last replayed one
        (or the restored version's fence) is refused, with one comparison
        however long the log.  No events are recorded: the events
        happened before the crash.
        """
        ops = tuple(intentions)
        if transaction in self._committed or transaction in self._aborted:
            raise ProtocolError(f"{transaction} already completed; cannot replay")
        floor = self._replay_floor
        if floor is not None and not floor[1] < timestamp:
            other, stamp = floor
            if other is not None and stamp == timestamp:
                raise ProtocolError(
                    f"timestamp {timestamp} already used by {other} (replay)"
                )
            raise ProtocolError(
                f"timestamp {timestamp} is not above {stamp} (replay out of order)"
            )
        replayed = self.spec.run_from(self.committed_states(), ops)
        if not replayed:
            raise IllegalOperation(
                f"replayed intentions of {transaction} are illegal after the"
                " committed state; the log or checkpoint is corrupt"
            )
        self._intentions[transaction] = ops
        self._committed[transaction] = timestamp
        self._replay_floor = (transaction, timestamp)
        # Replay applies commits in timestamp order (see docstring), so
        # the legality check's result *is* the new committed state-set.
        self._invalidate_views(replayed)

    def replay_active(
        self, transaction: str, intentions: Sequence[Operation]
    ) -> None:
        """Reinstall an *active* transaction's intentions (2PC prepared
        state): the operations and the locks they imply come back, but no
        completion is recorded — the coordinator's verdict is still owed.
        """
        ops = tuple(intentions)
        if not self.is_active(transaction):
            raise ProtocolError(f"{transaction} already completed; cannot replay")
        if not self.spec.run_from(self.committed_states(), ops):
            raise IllegalOperation(
                f"replayed intentions of {transaction} are illegal after the"
                " committed state; the log or checkpoint is corrupt"
            )
        for operation in ops:
            self._check_conflicts(transaction, operation)
            self._intentions[transaction] = self.intentions(transaction) + (
                operation,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_conflicts(self, transaction: str, operation: Operation) -> None:
        """Fourth precondition: no conflicting lock held by another active
        transaction (completed transactions hold no locks)."""
        committed, aborted = self._committed, self._aborted
        for other, ops in self._intentions.items():
            if other == transaction or other in committed or other in aborted:
                continue
            for held in ops:
                if self.conflict.related(held, operation) or self.conflict.related(
                    operation, held
                ):
                    tracer = self.tracer
                    if tracer is not None:
                        tracer.emit(
                            "lock.conflict",
                            transaction=transaction,
                            obj=self.obj,
                            operation=str(operation),
                            holder=other,
                            held=str(held),
                            relation=self.conflict.name,
                        )
                    raise LockConflict(
                        f"{operation} conflicts with {held} held by {other}",
                        holder=other,
                        operation=held,
                    )

    # Hooks for the compacting subclass (Section 6 bookkeeping).

    def _record(
        self, event: Callable[..., Event], transaction: str, *fields: Any
    ) -> None:
        """Record one accepted event — handed over as class and fields,
        so a subclass that records nothing constructs none."""
        self._accepted.append(event(transaction, self.obj, *fields))

    def _on_event_observed(self, transaction: str) -> None:
        """Called after accepting an invocation or response event."""

    def _on_commit_observed(self, transaction: str, timestamp: Any) -> None:
        """Called after accepting a commit event."""

    def _on_abort_observed(self, transaction: str) -> None:
        """Called after accepting an abort event."""
