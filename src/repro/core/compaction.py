"""Compaction of intentions lists (paper, Section 6).

The plain LOCK machine retains every committed transaction's intentions
list forever, so its state grows without bound.  Section 6 introduces the
bookkeeping that lets an object *forget* sufficiently old committed
transactions, replacing their intentions with a single *version*:

* ``clock`` — the latest observed commit timestamp (initially -∞);
* ``bound(Q)`` — a lower bound on the commit timestamp an active
  transaction ``Q`` could still choose; raised to the current clock value
  whenever ``Q`` invokes an operation or receives a response (valid because
  the timestamp-generation constraint forces ``precedes ⊆ TS``);
* ``horizon`` — the smaller of the smallest bound of an active transaction
  and the largest committed timestamp (Definition 20); -∞ when neither
  exists;
* ``common`` — the intentions of committed transactions with timestamps at
  or below the horizon, in timestamp order (Definition 22); Lemma 23 /
  Theorem 24 show it grows monotonically, so it may be collapsed into a
  version.

:class:`CompactingLockMachine` implements all of this on top of
:class:`~repro.core.lock_machine.LockMachine`: the common prefix is kept
only as the state-set it denotes (the "version"), and the intentions lists,
commit timestamps, and bounds of forgotten transactions are discarded, as
in the paper's Avalon/C++ Account implementation (``forget()``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NoReturn, Optional, Tuple

from .conflict import Relation
from .errors import ProtocolError
from .lock_machine import LockMachine
from .specs import SerialSpec, StateSet

__all__ = ["CompactingLockMachine", "NEG_INFINITY"]


class _NegInfinity:
    """A value smaller than every timestamp (the paper's -∞ clock init)."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return not isinstance(other, _NegInfinity)

    def __le__(self, other: Any) -> bool:
        return True

    def __gt__(self, other: Any) -> bool:
        return False

    def __ge__(self, other: Any) -> bool:
        return isinstance(other, _NegInfinity)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _NegInfinity)

    def __hash__(self) -> int:
        return hash("_NegInfinity")

    def __repr__(self) -> str:
        return "-inf"


#: Singleton -∞ timestamp used to initialise the clock and bounds.
NEG_INFINITY = _NegInfinity()


class CompactingLockMachine(LockMachine):
    """LOCK machine with Section 6 horizon-based forgetting.

    Behaviourally identical to :class:`LockMachine` — the auxiliary
    components "have no effect on L(LOCK); they serve only for
    bookkeeping" — but the retained state stays proportional to the live
    data plus the intentions of unforgotten transactions.  The equivalence
    is exercised by differential tests in
    ``tests/core/test_compaction.py``.

    Every managed object, shard and recovered manager runs this machine,
    so it records no accepted events — a log that grows with every
    invocation is what Section 6 exists to prevent, and a served object's
    history is the trace-bus fold (:class:`repro.obs.HistorySink`).
    ``L(LOCK)`` is recorded by the plain :class:`LockMachine` alone.
    """

    def __init__(self, spec: SerialSpec, conflict: Relation, obj: str = "X"):
        super().__init__(spec, conflict, obj)
        #: ``s.clock``: latest observed commit timestamp.
        self.clock: Any = NEG_INFINITY
        #: ``s.bound``: per-transaction commit-timestamp lower bounds.
        self._bounds: Dict[str, Any] = {}
        #: The version: state-set denoted by the forgotten common prefix.
        self._version: StateSet = spec.initial_states()
        #: Largest commit timestamp folded into the version: the version
        #: *is* the committed state as of this timestamp (recovery fence).
        self._version_timestamp: Any = NEG_INFINITY
        #: Number of operations folded into the version (for metrics).
        self._forgotten_operations = 0
        #: Read-only pins: snapshot timestamps that must stay addressable
        #: (horizon is held at or below every pin), keyed by reader token.
        self._pins: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def history(self) -> NoReturn:
        """Refused: this machine keeps no event log."""
        raise ProtocolError(
            f"the compacting machine of {self.obj!r} records no history:"
            " subscribe an obs.HistorySink to its trace bus"
        )

    def bound(self, transaction: str) -> Optional[Any]:
        """``s.bound(Q)``, or None when undefined."""
        return self._bounds.get(transaction)

    @property
    def version_states(self) -> StateSet:
        """The compacted version: state-set of the common prefix."""
        return self._version

    @property
    def version_timestamp(self) -> Any:
        """Largest commit timestamp folded into the version (-∞ if none).

        Intentions with commit timestamps at or below this are contained
        in :attr:`version_states`; everything above must be replayed from
        a log to rebuild the committed state.
        """
        return self._version_timestamp

    @property
    def forgotten_operations(self) -> int:
        """How many operations have been folded into the version."""
        return self._forgotten_operations

    def retained_intentions(self) -> int:
        """Total operations still held in intentions lists (a size metric;
        the uncompacted machine's figure grows without bound)."""
        return sum(len(ops) for ops in self._intentions.values())

    def horizon(self) -> Any:
        """Definition 20's horizon time.

        The smaller of the smallest bound of an *active* transaction and
        the largest commit timestamp of an unforgotten committed
        transaction; -∞ when there are no active or committed transactions.
        """
        committed, aborted = self._committed, self._aborted
        candidates: List[Any] = [
            bound
            for transaction, bound in self._bounds.items()
            if transaction not in committed and transaction not in aborted
        ]
        candidates.extend(self._pins.values())
        if committed:
            candidates.append(max(committed.values()))
        return min(candidates, default=NEG_INFINITY)

    # ------------------------------------------------------------------
    # Views on top of the version
    # ------------------------------------------------------------------

    def _base_states(self) -> StateSet:
        """Views replay from the version: the folded common prefix.

        Combined with the base machine's incremental caching, a view is
        the version, then the retained committed intentions in timestamp
        order, then the transaction's own intentions — with the first two
        segments cached and the third advanced one step per operation.
        """
        return self._version

    # ------------------------------------------------------------------
    # Multiversion read-only support (Section 7.1's generalisation)
    # ------------------------------------------------------------------

    def pin(self, token: str, timestamp: Any) -> None:
        """Hold the horizon at or below ``timestamp``.

        A read-only transaction with a start-assigned timestamp pins every
        object it might read so the committed intentions it must observe
        (those with commit timestamps at or below its own) stay separable
        from later ones.  Pinning below the current horizon is rejected —
        that snapshot is already folded away.
        """
        if timestamp < self.horizon():
            raise ValueError(
                f"cannot pin {timestamp}: horizon already at {self.horizon()}"
            )
        self._pins[token] = timestamp

    def unpin(self, token: str) -> None:
        """Release a read-only pin and let the horizon advance."""
        self._pins.pop(token, None)
        self.forget()

    def has_pin(self, token: str) -> bool:
        """True while ``token`` holds a horizon pin on this object."""
        return token in self._pins

    def read_view_states(self, timestamp: Any) -> StateSet:
        """The committed state as of ``timestamp``: the version plus every
        retained committed intentions list with commit timestamp at or
        below ``timestamp``, in timestamp order.  Sees no active
        transaction's intentions and takes no locks."""
        visible = [
            t
            for t in self.committed_order()
            if self._committed[t] <= timestamp
        ]
        states = self._version
        for transaction in visible:
            states = self.spec.run_from(
                states, self._intentions.get(transaction, ())
            )
        return states

    # ------------------------------------------------------------------
    # Durability (used by :mod:`repro.recovery`)
    # ------------------------------------------------------------------

    def export_version(self) -> Tuple[Any, Any, StateSet]:
        """``(version_timestamp, clock, version)`` — the checkpointable
        core of the machine.  The version is the committed state as of
        ``version_timestamp`` (Definition 20's horizon at the last fold),
        so a checkpoint of this triple plus the log suffix of commits with
        later timestamps reconstructs the committed state exactly.
        """
        return (self._version_timestamp, self.clock, self._version)

    def restore_version(
        self,
        states: StateSet,
        clock: Any = NEG_INFINITY,
        version_timestamp: Any = NEG_INFINITY,
    ) -> None:
        """Install a checkpointed version into a pristine machine.

        Only a machine that has accepted no events may be restored; the
        recovery driver replays the log suffix on top afterwards.  (A
        transaction that is gone still shows: an abort stays in
        ``aborted``, a folded commit moved the version timestamp.)
        """
        live = self._committed or self._intentions or self._pending
        if live or self._aborted or self._version_timestamp != NEG_INFINITY:
            raise ProtocolError("cannot restore a version into a used machine")
        version = frozenset(states)
        if not version:
            raise ValueError("a version must denote at least one state")
        self._version = version
        self.clock = clock
        self._version_timestamp = version_timestamp
        self._replay_floor = (None, version_timestamp)
        self._invalidate_views(None)

    def replay_committed(
        self, transaction: str, timestamp: Any, intentions
    ) -> None:
        super().replay_committed(transaction, timestamp, intentions)
        if self.clock < timestamp:
            self.clock = timestamp
        self._bounds[transaction] = timestamp

    def replay_active(self, transaction: str, intentions, bound: Any = None) -> None:
        super().replay_active(transaction, intentions)
        # The bound piggybacked on the PREPARE vote: the transaction's
        # eventual commit timestamp exceeds it, so the horizon stays safe.
        self._bounds[transaction] = self.clock if bound is None else bound

    # ------------------------------------------------------------------
    # Section 6 postconditions
    # ------------------------------------------------------------------

    def _record(self, event: Any, transaction: str, *fields: Any) -> None:
        """Record nothing (see the class docstring)."""

    def _on_event_observed(self, transaction: str) -> None:
        # <i,X,Q> / <r,X,Q>: s.bound = s'.bound[Q -> s.clock]
        if transaction not in self._committed and transaction not in self._aborted:
            self._bounds[transaction] = self.clock

    def _on_commit_observed(self, transaction: str, timestamp: Any) -> None:
        # <commit(t),X,Q>: s.clock = max(s'.clock, t); s.bound[Q -> t]
        if self.clock < timestamp:
            self.clock = timestamp
        self._bounds[transaction] = timestamp
        self.forget()

    def _on_abort_observed(self, transaction: str) -> None:
        # <abort,X,Q>: the bound and intentions are discarded (appendix).
        self._bounds.pop(transaction, None)
        self._intentions.pop(transaction, None)
        self.forget()

    # ------------------------------------------------------------------
    # Forgetting
    # ------------------------------------------------------------------

    def forget(self) -> List[str]:
        """Fold every sufficiently old committed transaction into the
        version (the appendix's ``forget()``).

        A committed transaction ``Q`` may be forgotten once
        ``s.committed(Q) <= s.horizon`` — no active transaction can still
        commit with an earlier timestamp (Lemma 19), so ``Q``'s intentions
        are a prefix of every future view.  Intentions are applied in
        commit-timestamp order; the intentions list, timestamp, and bound
        of each forgotten transaction are discarded.  Returns the list of
        transactions forgotten by this call.

        One pass, one horizon: while the loop runs every candidate of
        the horizon's min stays put — active bounds and pins are not
        touched, and the largest retained commit timestamp is above the
        horizon or the last of ``ready`` (ascending), deleted last — so
        the horizon evaluated up front is the current one at each fold
        (the assertion is Lemma 19 against it) and nothing left behind,
        all above it, becomes ready by the fold.

        Folding moves operations from the retained committed prefix into
        the version without changing the state-set the two jointly
        denote (``run_from`` distributes over concatenation), so the
        view caches stay valid across a fold — they are already the
        rebased values — and a pass that folds *every* retained commit
        (the served case: nothing active is older) steps nothing: the
        cached committed state-set is the new version.  A partial pass
        (a pin or an older active bound holds some back) or a dropped
        cache replays the intentions.  The bisimulation suite pins both.
        """
        horizon = self.horizon()
        committed = self._committed
        ready = sorted(
            (t for t in committed if committed[t] <= horizon), key=committed.__getitem__
        )
        if not ready:
            return ready
        adopted = self._committed_cache if len(ready) == len(committed) else None
        old_version_timestamp = self._version_timestamp
        collapsed = 0
        for transaction in ready:
            stamp = committed.pop(transaction)
            assert stamp <= horizon, (
                f"{transaction} committed at {stamp}, above the horizon"
                f" {horizon}: folding it would break Lemma 19"
            )
            intentions = self._intentions.pop(transaction, ())
            if adopted is None:
                self._version = self.spec.run_from(self._version, intentions)
            collapsed += len(intentions)
            if self._version_timestamp < stamp:
                self._version_timestamp = stamp
            self._bounds.pop(transaction, None)
        if adopted is not None:
            self._version = adopted
        if not self._version:
            raise AssertionError(
                "compaction applied an illegal committed intentions list;"
                " this indicates a protocol bug"
            )
        self._forgotten_operations += collapsed
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "compaction.advance",
                obj=self.obj,
                old_horizon=old_version_timestamp,
                new_horizon=self._version_timestamp,
                collapsed=collapsed,
                forgotten=tuple(ready),
                retained=self.retained_intentions(),
            )
        return ready
