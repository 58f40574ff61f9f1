"""Replicated hybrid atomic objects (paper §7.2, [8]).

A :class:`ReplicatedObject` keeps its committed state as *event logs* on
``n`` replicas: each log entry is one committed transaction's intentions
list with its commit timestamp.  Executing an operation:

1. reads the logs of an **initial quorum** of live replicas (sized per
   invocation schema) and merges them by timestamp — by the assignment's
   intersection constraint the merged log contains every committed
   operation the new operation could depend on, so it is a
   dependency-closed view and Lemma 7 makes results chosen from it valid
   in the global timestamp order;
2. checks lock conflicts exactly as the single-copy protocol does (the
   lock table is kept logically centralised — replica-local lock tables
   acquired alongside quorums behave identically under our fail-stop
   model and single coordinator);
3. at commit, appends the transaction's ``(timestamp, intentions)`` entry
   to a **final quorum** of live replicas; the *propagation rule* of [8]
   also writes back the merged view, so dependency closure survives
   transitively.

Replicas fail and recover (fail-stop with stable logs).  An operation or
commit that cannot reach its quorum among live replicas raises
:class:`Unavailable` — availability, not safety, is what failures cost,
and the benchmark shows type-specific quorums keep more operations
available than read/write quorums under the same failures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adts.base import ADT
from ..core.canon import representative
from ..core.compaction import NEG_INFINITY
from ..core.conflict import Relation
from ..core.errors import LockConflict, ReproError, WouldBlock
from ..core.operations import Invocation, Operation, OperationSequence
from ..runtime.manager import TransactionManager
from .quorum import QuorumAssignment

__all__ = ["Unavailable", "Replica", "ReplicatedObject", "ReplicatedTransactionManager"]

#: A committed log entry: (commit timestamp, transaction name, intentions).
LogEntry = Tuple[Any, str, OperationSequence]
#: Logs are keyed by commit timestamp — unique per committed transaction,
#: where a *name* may be reused once its transaction has completed.
Log = Dict[Any, LogEntry]


class Unavailable(ReproError):
    """Too few live replicas to meet the operation's quorum."""

    def __init__(self, message: str, needed: int = 0, live: int = 0):
        super().__init__(message)
        self.needed = needed
        self.live = live


class Replica:
    """One copy: a stable log of committed entries plus an up/down flag."""

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        #: Committed entries (idempotent merge).
        self._log: Log = {}

    def fail(self) -> None:
        """Fail-stop: the replica stops answering; its log persists."""
        self.alive = False

    def recover(self) -> None:
        """Rejoin with the (possibly stale) stable log."""
        self.alive = True

    def merge(self, entries: Log) -> None:
        """Union incoming entries into the log (write-back propagation)."""
        self._log.update(entries)

    def entries(self) -> Log:
        """A copy of the log."""
        return dict(self._log)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"Replica({self.name}, {state}, {len(self._log)} entries)"


class ReplicatedObject:
    """A hybrid atomic object stored as quorum-replicated logs."""

    def __init__(
        self,
        name: str,
        adt: ADT,
        assignment: QuorumAssignment,
        conflict: Optional[Relation] = None,
    ):
        self.name = name
        self.adt = adt
        self.spec = adt.spec
        self.assignment = assignment
        self.conflict = conflict if conflict is not None else adt.conflict
        #: Optional :class:`repro.obs.TraceBus` (set by the manager).
        self.tracer = None
        self.replicas = [
            Replica(f"{name}/r{i}") for i in range(assignment.replicas)
        ]
        #: Active transactions' intentions (volatile, coordinator-side).
        self._intentions: Dict[str, List[Operation]] = {}
        #: Per-transaction merged view of committed entries (snapshot of
        #: what its quorum reads have shown so far).
        self._views: Dict[str, Log] = {}
        #: Rotating offset so successive quorums spread across replicas
        #: (any k-of-n choice preserves counted intersection).
        self._rotation = 0

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------

    def live_replicas(self) -> List[Replica]:
        """Replicas currently answering."""
        return [replica for replica in self.replicas if replica.alive]

    def fail_replicas(self, count: int) -> None:
        """Fail the first ``count`` live replicas."""
        for replica in self.live_replicas()[:count]:
            replica.fail()

    def recover_all(self) -> None:
        """Bring every replica back up."""
        for replica in self.replicas:
            replica.recover()

    # ------------------------------------------------------------------
    # Quorum reads/writes
    # ------------------------------------------------------------------

    def _choose(self, size: int, kind: str) -> List[Replica]:
        live = self.live_replicas()
        tracer = self.tracer
        if len(live) < size:
            if tracer is not None:
                tracer.emit(
                    "quorum.deny",
                    obj=self.name,
                    quorum=kind,
                    needed=size,
                    live=len(live),
                    replicas=self.assignment.replicas,
                )
            raise Unavailable(
                f"{self.name}: {kind} quorum needs {size} replicas,"
                f" only {len(live)} live",
                needed=size,
                live=len(live),
            )
        start = self._rotation % max(1, len(live))
        self._rotation += 1
        chosen = [live[(start + i) % len(live)] for i in range(size)]
        if tracer is not None:
            tracer.emit(
                "quorum.assemble",
                obj=self.name,
                quorum=kind,
                size=size,
                live=len(live),
                members=sorted(replica.name for replica in chosen),
            )
        return chosen

    def _read_quorum(self, size: int) -> Log:
        merged: Log = {}
        for replica in self._choose(size, "initial"):
            merged.update(replica.entries())
        return merged

    def _write_quorum(self, size: int, entries: Log) -> None:
        for replica in self._choose(size, "final"):
            replica.merge(entries)

    @staticmethod
    def _ordered(entries: Log) -> OperationSequence:
        sequence: List[Operation] = []
        for timestamp, _txn, ops in sorted(entries.values(), key=lambda e: e[0]):
            sequence.extend(ops)
        return tuple(sequence)

    # ------------------------------------------------------------------
    # Protocol steps (driven by the manager)
    # ------------------------------------------------------------------

    def execute(self, transaction: str, invocation: Invocation) -> Any:
        """One locked operation: quorum read, choose result, check locks."""
        spec_sizes = self.assignment.spec_for(invocation)
        fresh = self._read_quorum(spec_sizes.initial)
        view_entries = self._views.setdefault(transaction, {})
        view_entries.update(fresh)
        mine = self._intentions.setdefault(transaction, [])
        view = self._ordered(view_entries) + tuple(mine)
        states = self.spec.run(view)
        results = self.spec.results_for(states, invocation)
        if not results:
            raise WouldBlock(f"{invocation} has no legal outcome in the view")
        conflict: Optional[LockConflict] = None
        for result in results:
            operation = Operation(invocation, result)
            try:
                self._check_conflicts(transaction, operation)
            except LockConflict as exc:
                conflict = exc
                continue
            mine.append(operation)
            tracer = self.tracer
            if tracer is not None:
                # Like the LOCK machine, record the invocation and response
                # only on acceptance: a refusal leaves the object unchanged.
                tracer.emit(
                    "txn.invoke",
                    transaction=transaction,
                    obj=self.name,
                    operation=invocation.name,
                    args=invocation.args,
                )
                tracer.emit(
                    "txn.respond",
                    transaction=transaction,
                    obj=self.name,
                    result=result,
                )
            return result
        assert conflict is not None
        raise conflict

    def _check_conflicts(self, transaction: str, operation: Operation) -> None:
        for other, ops in self._intentions.items():
            if other == transaction:
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
                            obj=self.name,
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

    def _final_quorum(self, ops: Sequence[Operation]) -> int:
        """The largest final quorum among ``ops`` (0: there are none)."""
        return max(
            (self.assignment.spec_for(op.invocation).final for op in ops), default=0
        )

    def prepare(self, transaction: str) -> None:
        """Veto with :class:`Unavailable` unless the commit write would
        reach its final quorum right now (not final: the transaction stays
        active, to retry after recovery or abort)."""
        needed = self._final_quorum(self._intentions.get(transaction, ()))
        live = len(self.live_replicas())
        if live < needed:
            raise Unavailable(
                f"cannot commit {transaction}: {self.name} lacks its"
                " final quorum",
                needed=needed,
                live=live,
            )

    def intentions(self, transaction: str) -> OperationSequence:
        """Operations executed so far by the transaction at this object."""
        return tuple(self._intentions.get(transaction, ()))

    def commit(self, transaction: str, timestamp: Any) -> None:
        """Write the committed entry (plus the merged view — the
        propagation rule) to the final quorum and release locks."""
        ops = tuple(self._intentions.pop(transaction, []))
        entries = self._views.pop(transaction, {})
        entries[timestamp] = (timestamp, transaction, ops)
        self._write_quorum(self._final_quorum(ops) or 1, entries)

    def abort(self, transaction: str) -> None:
        """Abort: drop volatile intentions and the cached view."""
        self._intentions.pop(transaction, None)
        self._views.pop(transaction, None)

    def observed(self, transaction: str) -> Any:
        """Largest commit timestamp visible in the transaction's view."""
        entries = self._views.get(transaction)
        if not entries:
            return NEG_INFINITY
        return max(entry[0] for entry in entries.values())

    def snapshot(self) -> Any:
        """Committed-state snapshot from a full read of live replicas."""
        merged: Log = {}
        for replica in self.live_replicas():
            merged.update(replica.entries())
        return representative(self.spec.run(self._ordered(merged)))


class ReplicatedTransactionManager(TransactionManager):
    """A :class:`~repro.runtime.TransactionManager` over quorum-replicated
    objects.

    Commit is atomic across objects: every touched object's final-quorum
    availability is checked *before* any write (the prepare phase of the
    assumed commitment protocol); if any object is short of replicas the
    commit raises :class:`Unavailable` and the transaction stays active so
    the caller can retry after recovery or abort.
    """

    def create_object(
        self,
        name: str,
        adt: ADT,
        assignment: QuorumAssignment,
        conflict: Optional[Relation] = None,
        validate: bool = True,
        universe: Optional[Sequence[Operation]] = None,
    ) -> ReplicatedObject:
        """Create a replicated object; validates the assignment by default
        against the ADT's dependency relation over its default universe."""
        if validate:
            ops = list(universe) if universe is not None else adt.universe()
            violations = assignment.validate(
                adt.dependency, ops, tracer=self.tracer, obj=name
            )
            if violations:
                raise ValueError(
                    "quorum assignment violates the dependency constraint: "
                    + "; ".join(str(v) for v in violations)
                )
        managed = ReplicatedObject(name, adt, assignment, conflict)
        return self._register(
            managed, "quorum", managed.conflict, replicas=assignment.replicas
        )
