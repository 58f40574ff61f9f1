"""The transaction manager: objects, timestamps, atomic commitment.

This module plays the role the Avalon runtime plays for the appendix's
Account implementation: it creates atomic objects, hands out transaction
identities, collects which objects each transaction touches, obtains
commit timestamps satisfying the Section 3.3 constraint, and delivers
completion events to every touched object (atomic commitment — the paper
assumes a standard commit protocol [7, 15, 19]; here the manager *is* the
coordinator and delivery is atomic by construction).

:class:`TransactionManager` is the one place that knows a transaction's
lifecycle.  Every kind of object is a *participant* it drives through one
small surface, each method taking the transaction's name:
``execute(txn, invocation)`` (run one operation, or refuse by raising),
``observed(txn)`` (the largest commit timestamp the transaction may have
seen here, or ``NEG_INFINITY`` — the Section 3.3 input to the generator),
``prepare(txn)`` (phase one of commitment; veto by raising),
``intentions(txn)`` (what a redo record carries), ``commit(txn,
timestamp)`` / ``abort(txn)`` (the completion events) and ``snapshot()``;
plus ``name``, ``adt`` and a settable ``tracer``.  Three kinds exist:
:class:`ManagedObject` here (the Section 6 LOCK machine under the hybrid
protocol or any baseline from :mod:`repro.protocols`, which merely use a
larger conflict relation on the same machine),
:class:`~repro.runtime.optimistic.OptimisticObject` and
:class:`~repro.replication.ReplicatedObject`.

The *global* history of accepted events, for the Section 3 checkers, is
read off the trace bus: subscribe a :class:`repro.obs.HistorySink` to the
manager's ``tracer``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from ..adts.base import ADT
from ..core.canon import representative
from ..core.compaction import NEG_INFINITY, CompactingLockMachine
from ..core.conflict import Relation
from ..core.errors import (
    LockConflict,
    ProtocolError,
    TransactionAborted,
    ValidationFailed,
    WouldBlock,
)
from ..core.operations import Invocation, Operation, OperationSequence
from ..core.timestamps import MonotoneTimestampGenerator, TimestampGenerator
from ..protocols.base import HYBRID, ProtocolSpec
from .transaction import Status, Transaction

__all__ = ["ManagedObject", "TransactionManager"]


class ManagedObject:
    """A named hybrid atomic object: the Section 6 compacting LOCK machine
    as a :class:`TransactionManager` participant.

    Every method reads ``self.machine`` when called — recovery and the
    benchmarks install a rebuilt or instrumented machine after creation.
    """

    def __init__(self, name: str, adt: ADT, conflict: Relation):
        self.name = name
        self.adt = adt
        self.machine = CompactingLockMachine(adt.spec, conflict, obj=name)

    @property
    def tracer(self) -> Any:
        """The machine's :class:`repro.obs.TraceBus` (None: tracing off)."""
        return self.machine.tracer

    @tracer.setter
    def tracer(self, bus: Any) -> None:
        self.machine.tracer = bus

    def execute(self, transaction: str, invocation: Invocation) -> Any:
        """One locked operation (:class:`LockConflict` / :class:`WouldBlock`
        when refused)."""
        return self.machine.execute(transaction, invocation)

    def observed(self, transaction: str) -> Any:
        """The largest commit timestamp this object has observed.

        This is the value a transaction "may have seen" after completing an
        operation here — the input to the timestamp generator's bound.
        """
        return self.machine.clock

    def prepare(self, transaction: str) -> None:
        """A lock machine never vetoes: what it accepted stays legal."""

    def intentions(self, transaction: str) -> OperationSequence:
        """Operations executed so far by the transaction at this object."""
        return self.machine.intentions(transaction)

    def commit(self, transaction: str, timestamp: Any) -> None:
        """Deliver ``commit(timestamp)``: merge intentions, release locks."""
        self.machine.commit(transaction, timestamp)

    def abort(self, transaction: str) -> None:
        """Deliver the abort event: discard intentions, release locks."""
        self.machine.abort(transaction)

    def snapshot(self) -> Any:
        """A committed-state snapshot (one abstract state), for inspection.

        The machine's cached committed state-set — nothing is replayed —
        and its :func:`~repro.core.canon.representative` when the
        specification's non-determinism leaves several.
        """
        return representative(self.machine.committed_states())


class TransactionManager:
    """Coordinates transactions across a set of atomic objects.

    Parameters
    ----------
    generator:
        Commit-timestamp generator; defaults to a monotone logical clock.
    wal:
        Optional :class:`~repro.recovery.wal.WriteAheadLog`.  When given,
        object creations and completions (a commit or 2PC prepare carries
        the whole intentions list) are logged durably, and the manager can be
        rebuilt after a crash with
        :func:`repro.recovery.recover_manager`.
    tracer:
        Optional :class:`~repro.obs.TraceBus`.  When given, the manager
        emits ``txn.begin``/``txn.commit``/``txn.abort`` and
        ``wal.append`` trace events and propagates the bus to every
        participant it admits (``lock.conflict``, ``compaction.advance``,
        …).  None (the default) keeps every hot path a single
        attribute check.
    """

    def __init__(
        self,
        generator: Optional[TimestampGenerator] = None,
        wal: Optional[Any] = None,
        tracer: Optional[Any] = None,
        site: Optional[str] = None,
    ):
        self._generator = generator or MonotoneTimestampGenerator()
        self._objects: Dict[str, Any] = {}
        self._transactions: Dict[str, Transaction] = {}
        #: Transactions in 2PC's prepared state: intentions force-written,
        #: locks held, awaiting the coordinator's verdict.
        self._prepared: Dict[str, Transaction] = {}
        self._names = itertools.count(1)
        self.wal = wal
        self.tracer = tracer
        #: Site label stamped on prepare/commit trace events when this
        #: manager is one shard of a multi-process pool (None: standalone).
        self.site = site
        if wal is not None and len(wal) == 0:
            from ..recovery.wal import meta_record

            shards = getattr(self._generator, "shards", None)
            wal.append(
                meta_record(
                    "manager",
                    site if site is not None else "manager",
                    shard=getattr(self._generator, "shard", None),
                    shards=shards,
                )
            )
            if tracer is not None:
                tracer.emit("wal.append", record="meta")

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def create_object(
        self,
        name: str,
        adt: ADT,
        protocol: ProtocolSpec = HYBRID,
        conflict: Optional[Relation] = None,
    ) -> Any:
        """Create and register the participant ``protocol`` calls for.

        The protocol's engine picks the kind — ``"locking"`` a
        :class:`ManagedObject`, ``"optimistic"`` an
        :class:`~repro.runtime.optimistic.OptimisticObject` — so one
        manager may hold both.  ``conflict`` overrides the protocol's
        relation when given (e.g. to run a hand-tuned table).
        """
        relation = conflict if conflict is not None else protocol.conflict_for(adt)
        if protocol.engine == "optimistic":
            # Imported here: optimistic.py subclasses this module's manager.
            from .optimistic import OptimisticObject

            self._require_monotone(
                "optimistic objects",
                "the object appends in commit order, which must then be"
                " timestamp order",
            )
            participant: Any = OptimisticObject(name, adt, relation)
        else:
            participant = ManagedObject(name, adt, relation)
        return self._register(participant, protocol.name, relation)

    def _register(
        self,
        participant: Any,
        protocol_name: str,
        relation: Relation,
        replicas: Optional[int] = None,
    ) -> Any:
        """Admit a built participant: the one way an object joins."""
        name, adt = participant.name, participant.adt
        if name in self._objects:
            raise ValueError(f"object {name!r} already exists")
        if self.wal is not None and not isinstance(participant, ManagedObject):
            raise ProtocolError(
                f"a {type(participant).__name__} cannot join a manager that"
                " has a write-ahead log: recovery rebuilds lock machines only"
            )
        participant.tracer = self.tracer
        self._objects[name] = participant
        if self.tracer is not None:
            self.tracer.emit(
                "obj.create",
                obj=name,
                adt=adt.name,
                protocol=protocol_name,
                relation=relation.name,
                initial=adt.spec.initial_states(),
                site=self.site,
                replicas=replicas,
            )
        if self.wal is not None:
            from ..recovery.wal import create_record

            # A conflict override is code, not data: recovery rebuilds the
            # relation from the protocol name (pass a catalog otherwise).
            self.wal.append(
                create_record(
                    name, adt.name, protocol_name, adt.spec.initial_states()
                )
            )
            if self.tracer is not None:
                self.tracer.emit("wal.append", record="create", obj=name)
        return participant

    def _require_monotone(self, what: str, why: str) -> None:
        # A one-shard stride issues max(last, bound) + 1: the monotone clock.
        generator = self._generator
        if not (
            isinstance(generator, MonotoneTimestampGenerator)
            or getattr(generator, "shards", None) == 1
        ):
            raise ProtocolError(
                f"{what} require a monotone timestamp generator: {why}"
            )

    def _lock_machines(self, what: str) -> Dict[str, CompactingLockMachine]:
        """Every object's LOCK machine; refuses when some object has none."""
        for name, participant in self._objects.items():
            if not isinstance(participant, ManagedObject):
                raise ProtocolError(
                    f"{what} needs every object on a lock machine;"
                    f" {name!r} is a {type(participant).__name__}"
                )
        return {name: managed.machine for name, managed in self._objects.items()}

    def object(self, name: str) -> Any:
        """Look up an object by name."""
        return self._objects[name]

    @property
    def objects(self) -> Dict[str, Any]:
        """All objects by name."""
        return dict(self._objects)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, name: Optional[str] = None, _quiet: bool = False) -> Transaction:
        """Start a new transaction."""
        if name is None:
            name = f"T{next(self._names)}"
        if name in self._transactions:
            raise ValueError(f"transaction {name!r} already exists")
        transaction = Transaction(name)
        self._transactions[name] = transaction
        tracer = self.tracer
        if tracer is not None and not _quiet:
            tracer.emit("txn.begin", transaction=name, read_only=False)
        return transaction

    def begin_readonly(self, name: Optional[str] = None) -> Transaction:
        """Start a multiversion *read-only* transaction (Section 7.1).

        Its serialization timestamp is chosen now, at start; reads observe
        the committed state as of that timestamp, take no locks, never
        block updaters, and never abort.  Requires a monotone timestamp
        generator (future updaters must commit above the start timestamp
        for the snapshot to be complete) and lock machines throughout
        (multiversion reads use the horizon machinery).
        """
        self._require_monotone(
            "read-only transactions",
            "a skewed generator could commit an updater below the reader's"
            " start timestamp",
        )
        machines = self._lock_machines("a read-only transaction")
        transaction = self.begin(name, _quiet=True)
        transaction.read_only = True
        transaction.timestamp = self._generator.commit_timestamp(transaction.name)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn.begin",
                transaction=transaction.name,
                read_only=True,
                timestamp=transaction.timestamp,
            )
        # Pin the snapshot everywhere now — the read set is not known in
        # advance, and an object must not fold commits above the reader's
        # timestamp into its version while the reader lives.
        for machine in machines.values():
            machine.pin(transaction.name, transaction.timestamp)
        return transaction

    def invoke(
        self, transaction: Transaction, obj: str, operation: str, *args: Any
    ) -> Any:
        """Execute one operation; returns its result.

        Raises whatever the object refuses with — :class:`LockConflict`
        when another active transaction holds a conflicting lock (retry
        later), :class:`WouldBlock` when a partial operation has no legal
        outcome yet — and :class:`TransactionAborted` when the transaction
        is not active.
        """
        self._require_active(transaction)
        managed = self._objects[obj]
        invocation = Invocation(operation, args)
        name = transaction.name
        if transaction.read_only:
            result = self._read_only_invoke(transaction, managed, invocation)
            transaction.touched.add(obj)
            transaction.operations += 1
        else:
            result = managed.execute(name, invocation)
            transaction.touched.add(obj)
            transaction.operations += 1
            # Section 3.3 / Section 6: after a response at X the
            # transaction's eventual commit timestamp must exceed every
            # timestamp it may have seen committed at X — feed that into
            # the generator's bound.
            observed = managed.observed(name)
            if observed is not NEG_INFINITY:
                self._generator.observe(name, observed)
        return result

    def _read_only_invoke(
        self, transaction: Transaction, managed: Any, invocation: Invocation
    ) -> Any:
        """Serve a read at the transaction's start timestamp, lock-free."""
        if not isinstance(managed, ManagedObject) or not managed.machine.has_pin(
            transaction.name
        ):
            # The object was created after the reader began; its snapshot
            # at the reader's timestamp may already be unaddressable.
            raise ProtocolError(
                f"object {managed.name!r} was created after read-only"
                f" transaction {transaction.name} began"
            )
        machine = managed.machine
        states = machine.read_view_states(transaction.timestamp)
        results = machine.spec.results_for(states, invocation)
        if not results:
            raise WouldBlock(
                f"{invocation} has no legal outcome in the snapshot"
            )
        result = results[0]
        operation = Operation(invocation, result)
        if not managed.adt.is_read(operation):
            raise ProtocolError(
                f"{operation} is not a read operation; read-only"
                " transactions may only observe"
            )
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn.invoke",
                transaction=transaction.name,
                obj=managed.name,
                operation=invocation.name,
                args=invocation.args,
                read_only=True,
            )
            tracer.emit(
                "txn.respond",
                transaction=transaction.name,
                obj=managed.name,
                result=result,
                read_only=True,
            )
        return result

    def commit(self, transaction: Transaction) -> Any:
        """Commit: prepare everywhere, choose a timestamp, deliver it.

        Returns the commit timestamp.  Delivery is atomic: either every
        touched object learns ``commit(t)`` or none does (the manager is a
        single-site coordinator, so the paper's assumed commitment protocol
        degenerates to a loop).  A participant may veto (see
        :meth:`_prepare_participants`).

        Read-only transactions just release their pins; their timestamp
        was fixed at start.
        """
        self._require_active(transaction)
        if transaction.read_only:
            return self._finish_readonly(transaction, commit=True)
        self._prepare_participants(transaction)
        timestamp = self._generator.commit_timestamp(transaction.name)
        return self._deliver(transaction, timestamp, prepared=False)

    def _prepare_participants(self, transaction: Transaction) -> None:
        """Phase one at every touched object, before anything is decided.

        Whether a veto is final is a property of the exception: one that
        is a :class:`TransactionAborted` (a failed validation) aborts the
        transaction everywhere before it is re-raised; any other (a
        replicated object short of its final quorum) leaves the
        transaction active, so the caller may retry the commit or abort.
        """
        name = transaction.name
        try:
            for obj in sorted(transaction.touched):
                self._objects[obj].prepare(name)
        except TransactionAborted:
            self.abort(transaction)
            raise

    def _intentions(self, transaction: Transaction) -> Dict[str, OperationSequence]:
        """The transaction's intentions list at every touched object."""
        name = transaction.name
        return {
            obj: self._objects[obj].intentions(name)
            for obj in sorted(transaction.touched)
        }

    def _deliver(self, transaction: Transaction, timestamp: Any, prepared: bool) -> Any:
        """Log, announce and deliver a decided commit — the one routine
        behind :meth:`commit` and :meth:`commit_prepared`."""
        name = transaction.name
        touched = sorted(transaction.touched)
        tracer = self.tracer
        if self.wal is not None:
            from ..recovery.wal import commit_record

            # Force-write the redo entry — the committed intentions lists —
            # before delivering the commit (which may fold them away).
            self.wal.append(
                commit_record(name, timestamp, self._intentions(transaction))
            )
            if tracer is not None:
                tracer.emit("wal.append", record="commit", transaction=name)
        if tracer is not None:
            # Emit at decision time, *before* delivery: delivering the
            # commit may immediately fold the intentions (compaction
            # events), and those must trail the commit they depend on.
            # Only a 2PC participant's commit names its site.
            if prepared:
                tracer.emit(
                    "txn.commit",
                    transaction=name,
                    timestamp=timestamp,
                    objects=touched,
                    site=self.site,
                )
            else:
                tracer.emit(
                    "txn.commit", transaction=name, timestamp=timestamp, objects=touched
                )
        for obj in touched:
            self._objects[obj].commit(name, timestamp)
        transaction.status = Status.COMMITTED
        transaction.timestamp = timestamp
        self._finish(transaction)
        return timestamp

    def abort(self, transaction: Transaction) -> None:
        """Abort: deliver abort events to all touched objects."""
        self._require_active(transaction)
        if transaction.read_only:
            self._finish_readonly(transaction, commit=False)
            return
        name = transaction.name
        touched = sorted(transaction.touched)
        if self.wal is not None and touched:
            from ..recovery.wal import abort_record

            self.wal.append(abort_record(name))
            if self.tracer is not None:
                self.tracer.emit("wal.append", record="abort", transaction=name)
        for obj in touched:
            self._objects[obj].abort(name)
        transaction.status = Status.ABORTED
        self._finish(transaction)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("txn.abort", transaction=name, objects=touched)

    def _finish_readonly(self, transaction: Transaction, commit: bool) -> Any:
        """Release pins and record the outcome of a read-only transaction."""
        name, timestamp = transaction.name, transaction.timestamp
        touched = sorted(transaction.touched)
        for managed in self._objects.values():
            if isinstance(managed, ManagedObject):
                managed.machine.unpin(name)
        transaction.status = Status.COMMITTED if commit else Status.ABORTED
        self._finish(transaction)
        tracer = self.tracer
        if tracer is not None:
            if commit:
                tracer.emit(
                    "txn.commit",
                    transaction=name,
                    timestamp=timestamp,
                    objects=touched,
                    read_only=True,
                )
            else:
                tracer.emit(
                    "txn.abort", transaction=name, objects=touched, read_only=True
                )
        return timestamp

    def _finish(self, transaction: Transaction) -> None:
        """Drop per-transaction bookkeeping once the outcome is decided.

        The registry must not grow with history: a long-running manager
        that kept every completed :class:`Transaction` would leak one
        entry per transaction forever.  Completed transactions are popped
        here; :meth:`_require_active` still reports them as
        committed/aborted (the handle itself knows its status).
        """
        self._transactions.pop(transaction.name, None)
        self._prepared.pop(transaction.name, None)
        self._generator.forget(transaction.name)

    def _require_active(self, transaction: Transaction) -> None:
        if not transaction.is_active:
            # Completed transactions are popped from the registry; a late
            # commit/abort/invoke still gets the honest answer.
            raise TransactionAborted(
                f"{transaction.name} is {transaction.status.value}"
            )
        if self._transactions.get(transaction.name) is not transaction:
            raise ProtocolError(f"unknown transaction {transaction.name!r}")

    def transaction(self, name: str) -> Optional[Transaction]:
        """The live (active or prepared) transaction registered as ``name``."""
        return self._transactions.get(name)

    def install_prepared(self, transaction: Transaction) -> None:
        """Register a recovery-resurrected prepared transaction.

        The sanctioned mutation point for :mod:`repro.recovery.recovery`:
        the transaction's intentions were already replayed into the
        machines (locks held), so it re-enters the registry in 2PC's
        prepared state, awaiting ``commit_prepared`` or ``abort``.
        """
        self._transactions[transaction.name] = transaction
        self._prepared[transaction.name] = transaction

    def prepared_transactions(self) -> List[str]:
        """Names of transactions in 2PC's prepared state (sorted)."""
        return sorted(self._prepared)

    # ------------------------------------------------------------------
    # Two-phase commit (participant role, for the sharded pool)
    # ------------------------------------------------------------------

    def prepare(self, transaction: Transaction) -> int:
        """2PC phase one: force-write the intentions and return the vote.

        The vote is this shard's timestamp floor — every commit this
        transaction observed here, and everything committed here at all,
        sits at or below it, so a coordinator deciding strictly above
        every participant's vote satisfies §3.3 everywhere (the paper's
        "piggyback timestamp information on the messages of a commit
        protocol").  After ``prepare`` the transaction keeps its locks
        and survives :meth:`crash` — only the coordinator's verdict
        (:meth:`commit_prepared` / :meth:`abort`) releases them.
        """
        self._require_active(transaction)
        if transaction.read_only:
            raise ProtocolError("read-only transactions do not prepare")
        self._prepare_participants(transaction)
        generator = self._generator
        vote_fn = getattr(generator, "vote", None)
        vote = int(vote_fn(transaction.name)) if vote_fn is not None else 0
        if self.wal is not None:
            from ..recovery.wal import prepare_record

            self.wal.append(
                prepare_record(transaction.name, vote, self._intentions(transaction))
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "wal.append",
                    record="prepare",
                    transaction=transaction.name,
                    site=self.site,
                )
        self._prepared[transaction.name] = transaction
        return vote

    def commit_prepared(self, transaction: Transaction, timestamp: int) -> int:
        """2PC phase two: commit at the coordinator-decided timestamp.

        ``timestamp`` must exceed this shard's vote (the coordinator
        decided above every vote); the local generator folds it in so
        later local commits stay above it.
        """
        self._require_active(transaction)
        if transaction.name not in self._prepared:
            raise ProtocolError(
                f"{transaction.name} was never prepared on this shard"
            )
        self._deliver(transaction, timestamp, prepared=True)
        observe_decision = getattr(self._generator, "observe_decision", None)
        if observe_decision is not None:
            observe_decision(timestamp)
        return timestamp

    def checkpoint(self) -> Dict[str, Any]:
        """Fold every object's committed prefix into its version and
        rewrite the WAL around one ``checkpoint`` record of the versions,
        dropping the records the horizon proves redundant.

        Requires a WAL and lock machines throughout (the version is the
        checkpointable state); returns the record
        (:func:`~repro.recovery.checkpoint.write_checkpoint`).
        """
        if self.wal is None:
            raise ProtocolError("checkpointing requires a write-ahead log")
        machines = self._lock_machines("a checkpoint")
        from ..recovery.checkpoint import write_checkpoint

        return write_checkpoint(self.wal, machines)

    def unprepared(self) -> List[Transaction]:
        """The active transactions outside 2PC's prepared state: what a
        crash loses."""
        return [
            transaction
            for transaction in self._transactions.values()
            if transaction.is_active and transaction.name not in self._prepared
        ]

    def crash(self) -> List[str]:
        """Simulate a site crash; returns the aborted transaction names.

        The paper's recovery story is intentions-based: uncommitted
        intentions are volatile, the committed state (here the compacted
        version plus committed intentions, standing in for stable
        storage) survives.  A crash therefore aborts every active
        transaction — exactly the abort events the formal model already
        handles — and leaves committed effects untouched.  Read-only
        transactions lose their pins like everyone else.
        """
        victims = self.unprepared()
        for transaction in victims:
            self.abort(transaction)
        return [transaction.name for transaction in victims]

    # ------------------------------------------------------------------
    # Convenience: run a transaction body with retry
    # ------------------------------------------------------------------

    def run_transaction(
        self,
        body: Callable[["TransactionContext"], Any],
        max_attempts: int = 25,
        name: Optional[str] = None,
    ) -> Any:
        """Run ``body`` as a transaction, retrying when it is refused.

        ``body`` receives a :class:`TransactionContext` and may call
        ``ctx.invoke(obj, op, *args)``.  On a refusal —
        :class:`LockConflict`, :class:`WouldBlock`, or
        :class:`ValidationFailed` at commit — the whole transaction is
        aborted and restarted (simple and livelock-free under a fair
        scheduler); after ``max_attempts`` failures the last error
        propagates.
        """
        error: Optional[Exception] = None
        for attempt in range(max_attempts):
            suffix = f"#{attempt}" if attempt else ""
            transaction = self.begin(None if name is None else name + suffix)
            context = TransactionContext(self, transaction)
            try:
                value = body(context)
                self.commit(transaction)
                return value
            except (LockConflict, WouldBlock, ValidationFailed) as exc:
                error = exc
            finally:
                # Whatever escaped — a refusal, the body's own exception, a
                # veto that left the handle live — nothing stays registered.
                if transaction.is_active:
                    self.abort(transaction)
        assert error is not None
        raise error

    # ------------------------------------------------------------------
    # Verification support
    # ------------------------------------------------------------------

    def specs(self) -> Dict[str, Any]:
        """Object-name → serial-spec map, as the atomicity checkers want."""
        return {name: managed.adt.spec for name, managed in self._objects.items()}


class TransactionContext:
    """What a :meth:`TransactionManager.run_transaction` body sees."""

    def __init__(self, manager: TransactionManager, transaction: Transaction):
        self._manager = manager
        #: The underlying transaction record (exposed for tests/metrics).
        self.transaction = transaction

    def invoke(self, obj: str, operation: str, *args: Any) -> Any:
        """Execute one operation within this transaction."""
        return self._manager.invoke(self.transaction, obj, operation, *args)
