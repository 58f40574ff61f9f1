"""Crash recovery: rebuild machines from the log (checkpoint + replay).

Recovery is presumed-abort and intentions-based, mirroring the paper's
resilient-objects framing (and the Avalon/C++ appendix): committed
intentions lists are the redo log, uncommitted intentions are volatile
and never logged, and 2PC-prepared transactions — whose intentions were
force-written by :func:`repro.recovery.wal.prepare_record` — come back
*active*, still holding their locks, awaiting the coordinator's verdict.

The driver replays commit records in commit-timestamp order on top of the
versions in the log's ``checkpoint`` record, skipping records each
object's fence proves redundant, then re-derives lock state by replaying
prepared transactions' intentions.  :func:`verify_recovery` checks the
recovery invariant: the rebuilt committed state-set of every object
equals the pre-crash one.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..adts.base import ADT, get_adt
from ..core.canon import canonical_order, representative
from ..core.compaction import NEG_INFINITY, CompactingLockMachine
from ..core.errors import ReproError
from ..core.lock_machine import LockMachine
from ..core.specs import SerialSpec, StateSet
from .wal import WriteAheadLog, decode_operation, decode_states, decode_value

__all__ = [
    "RecoveryError",
    "RecoveryReport",
    "committed_state_set",
    "committed_state_sets",
    "verify_recovery",
    "recover_machines",
    "recover_manager",
]


class RecoveryError(ReproError):
    """The log could not be replayed into a consistent state."""


@dataclass
class RecoveryReport:
    """What one recovery pass did (and how long it took)."""

    name: str = ""
    #: Log records scanned (the checkpoint record among them).
    scanned_records: int = 0
    #: Commit/prepare records re-applied to machines.
    replayed_records: int = 0
    #: Individual operations reinstalled into intentions lists.
    replayed_operations: int = 0
    #: Transactions restored to the 2PC prepared state.
    prepared_transactions: Tuple[str, ...] = ()
    recovered_objects: Tuple[str, ...] = ()
    #: 2PC transaction -> its commit timestamp: every logged commit that
    #: also has a ``prepare`` record, and the checkpoint's (what a peer
    #: may still ask about).
    decided: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds spent replaying.
    elapsed_seconds: float = 0.0
    from_checkpoint: bool = False

    def summary(self) -> str:
        """One-line human rendering (used by the CLI)."""
        return (
            f"recovered {len(self.recovered_objects)} object(s) from "
            f"{self.scanned_records} log record(s)"
            + (" + checkpoint" if self.from_checkpoint else "")
            + f": replayed {self.replayed_records} record(s) / "
            f"{self.replayed_operations} operation(s), "
            f"{len(self.prepared_transactions)} prepared, "
            f"{self.elapsed_seconds * 1000:.2f} ms"
        )


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------


def committed_state_set(machine: LockMachine) -> StateSet:
    """The state-set denoted by the machine's committed state."""
    if isinstance(machine, CompactingLockMachine):
        return machine.spec.run_from(
            machine.version_states, machine.committed_state()
        )
    return machine.spec.run(machine.committed_state())


def committed_state_sets(
    machines: Mapping[str, LockMachine]
) -> Dict[str, StateSet]:
    """Per-object committed state-sets (capture before a crash to verify)."""
    return {obj: committed_state_set(machine) for obj, machine in machines.items()}


def verify_recovery(
    expected: Mapping[str, StateSet], machines: Mapping[str, LockMachine]
) -> None:
    """Check the recovery invariant; raise :class:`RecoveryError` if broken."""
    for obj, states in expected.items():
        machine = machines.get(obj)
        if machine is None:
            raise RecoveryError(f"object {obj!r} was not recovered")
        recovered = committed_state_set(machine)
        if recovered != states:
            raise RecoveryError(
                f"committed state of {obj!r} diverged after recovery: "
                f"expected {canonical_order(states)!r}, "
                f"got {canonical_order(recovered)!r}"
            )


# ----------------------------------------------------------------------
# Core replay
# ----------------------------------------------------------------------


@dataclass
class _LogImage:
    """The log, grouped by transaction outcome."""

    meta: Dict[str, Any] = field(default_factory=dict)
    creates: List[Dict[str, Any]] = field(default_factory=list)
    commits: Dict[str, Tuple[Any, Dict[str, list]]] = field(default_factory=dict)
    prepares: Dict[str, Tuple[Any, Dict[str, list]]] = field(default_factory=dict)
    aborted: Set[str] = field(default_factory=set)
    #: The ``checkpoint`` record ({} when the log was never checkpointed).
    checkpoint: Dict[str, Any] = field(default_factory=dict)
    #: 2PC transaction -> commit timestamp (``RecoveryReport.decided``).
    decided: Dict[str, Any] = field(default_factory=dict)


def _scan(records: List[Dict[str, Any]]) -> _LogImage:
    image = _LogImage()
    for record in records:
        kind = record["kind"]
        if kind == "meta":
            image.meta = record
        elif kind == "create":
            image.creates.append(record)
        elif kind == "commit":
            image.commits[record["txn"]] = (
                decode_value(record["ts"]),
                record["intentions"],
            )
        elif kind == "prepare":
            image.prepares[record["txn"]] = (
                decode_value(record["clock"]),
                record["intentions"],
            )
        elif kind == "abort":
            image.aborted.add(record["txn"])
        elif kind == "checkpoint":
            image.checkpoint = record
            for txn, ts in record["decided"].items():
                image.decided[txn] = decode_value(ts)
        elif kind not in ("invoke", "respond"):
            # Those two are stepped over: nothing writes them, but a log is
            # outside input and older ones carry a pair per operation.
            raise RecoveryError(f"unknown record kind {kind!r} in the log")
    for txn in image.prepares:
        if txn in image.commits:
            image.decided[txn] = image.commits[txn][0]
    return image


class _RerootedSpec(SerialSpec):
    """A registry spec re-rooted at the logged initial state-set.

    Registry factories take no arguments, but objects are created with
    parameters (e.g. an opening balance); the create record's state-set is
    the ground truth, and checkers downstream consult ``adt.spec``, so the
    recovered spec must start there too.
    """

    def __init__(self, base: SerialSpec, initial: StateSet):
        self._base = base
        self._initial = frozenset(initial)
        self.name = base.name

    def initial_state(self):
        return representative(self._initial)

    def initial_states(self) -> StateSet:
        return self._initial

    def outcomes(self, state, invocation):
        return self._base.outcomes(state, invocation)


def _build_machine(
    record: Mapping[str, Any],
    restored: Optional[Mapping[str, Any]],
    catalog: Optional[Mapping[str, ADT]],
) -> Tuple[CompactingLockMachine, ADT]:
    import dataclasses

    from ..protocols import get_protocol

    obj = record["obj"]
    if catalog is not None and obj in catalog:
        adt = catalog[obj]
    else:
        adt = get_adt(record["adt"])
    initial = decode_states(record["initial"])
    if initial != adt.spec.initial_states():
        adt = dataclasses.replace(adt, spec=_RerootedSpec(adt.spec, initial))
    conflict = get_protocol(record["protocol"]).conflict_for(adt)
    machine = CompactingLockMachine(adt.spec, conflict, obj=obj)
    if restored is not None:
        machine.restore_version(
            decode_states(restored["version"]),
            decode_value(restored["clock"]),
            decode_value(restored["fence"]),
        )
    return machine, adt


def recover_machines(
    records: List[Dict[str, Any]],
    catalog: Optional[Mapping[str, ADT]] = None,
    tracer: Optional[Any] = None,
) -> Tuple[
    Dict[str, CompactingLockMachine], Dict[str, ADT], _LogImage, RecoveryReport
]:
    """Rebuild machines from decoded log records, checkpoint record included.

    Returns ``(machines, adts, log image, report)``; the report's timing
    and name fields are filled in by the caller.  ``tracer`` (a
    :class:`repro.obs.TraceBus`) receives one ``wal.replay`` event per
    replayed transaction.
    """
    image = _scan(records)
    versions = image.checkpoint.get("objects", {})
    machines: Dict[str, CompactingLockMachine] = {}
    adts: Dict[str, ADT] = {}
    for record in image.creates:
        if record["obj"] in machines:
            raise RecoveryError(f"duplicate create record for {record['obj']!r}")
        machine, adt = _build_machine(record, versions.get(record["obj"]), catalog)
        machines[record["obj"]] = machine
        adts[record["obj"]] = adt
        if tracer is not None:
            tracer.emit(
                "obj.create",
                obj=record["obj"],
                adt=adt.name,
                protocol=record["protocol"],
                relation=machine.conflict.name,
                initial=adt.spec.initial_states(),
                recovered=True,
            )

    report = RecoveryReport(
        scanned_records=len(records),
        recovered_objects=tuple(sorted(machines)),
        from_checkpoint=bool(versions),
        decided=dict(image.decided),
    )

    # Redo: committed intentions in commit-timestamp order, skipping what
    # each object's checkpoint fence (its restored version timestamp —
    # replay never folds, so it holds until the pass below) contains.
    for transaction in sorted(image.commits, key=lambda t: image.commits[t][0]):
        timestamp, intentions = image.commits[transaction]
        applied = False
        for obj, encoded_ops in intentions.items():
            machine = machines.get(obj)
            if machine is None:
                raise RecoveryError(
                    f"commit record for unknown object {obj!r}"
                )
            if not (machine.version_timestamp < timestamp):
                continue  # folded into the checkpointed version
            ops = [decode_operation(data) for data in encoded_ops]
            machine.replay_committed(transaction, timestamp, ops)
            report.replayed_operations += len(ops)
            applied = True
        if applied:
            report.replayed_records += 1
            if tracer is not None:
                tracer.emit(
                    "wal.replay",
                    transaction=transaction,
                    record="commit",
                    timestamp=timestamp,
                )

    # Prepared-but-undecided transactions come back active (locks held).
    prepared: List[str] = []
    for transaction in sorted(image.prepares):
        if transaction in image.commits or transaction in image.aborted:
            continue
        bound, intentions = image.prepares[transaction]
        for obj, encoded_ops in intentions.items():
            machine = machines.get(obj)
            if machine is None:
                raise RecoveryError(
                    f"prepare record for unknown object {obj!r}"
                )
            ops = [decode_operation(data) for data in encoded_ops]
            machine.replay_active(transaction, ops, bound=bound)
            report.replayed_operations += len(ops)
        prepared.append(transaction)
        report.replayed_records += 1
        if tracer is not None:
            tracer.emit("wal.replay", transaction=transaction, record="prepare")
    report.prepared_transactions = tuple(prepared)

    # Compact once replay completes.  ``replay_committed``/``replay_active``
    # deliberately never fold mid-replay: the horizon is only correct after
    # every prepared transaction's bound is installed (folding earlier
    # could collapse committed intentions above a prepared transaction's
    # eventual commit timestamp).  Without this pass a recovered machine
    # would retain every replayed committed intentions list until its next
    # live commit — tests/recovery/test_recovery_compaction.py pins that a
    # recovered machine retains exactly what a never-crashed peer does.
    for machine in machines.values():
        machine.forget()
    return machines, adts, image, report


# ----------------------------------------------------------------------
# Manager-level recovery
# ----------------------------------------------------------------------

_TXN_NAME = re.compile(r"^T(\d+)")


def recover_manager(
    wal: WriteAheadLog,
    catalog: Optional[Mapping[str, ADT]] = None,
    tracer: Optional[Any] = None,
    clock: Optional[Callable[[], float]] = None,
    generator: Optional[Any] = None,
    site: Optional[str] = None,
):
    """Rebuild a :class:`~repro.runtime.manager.TransactionManager` from a
    persisted log, on top of its checkpoint record when it has one.

    Returns ``(manager, report)``.  The recovered manager's timestamp
    generator is advanced past every replayed commit timestamp, so new
    commits serialize after everything recovered — the Section 3.3
    constraint holds across the crash.  ``generator`` supplies the
    replacement generator (default: a fresh monotone clock); when the log
    was written under a stride partition (the meta record carries
    ``shard``/``shards``), the supplied generator must declare the *same*
    stride — reopening a shard's log under a different modulus or residue
    would mint timestamps colliding with other shards' already-committed
    ones, so the mismatch raises :class:`RecoveryError` instead (a log
    written as shard 0 of 1 also reopens under the monotone clock).

    2PC-prepared transactions are resurrected as live
    :class:`~repro.runtime.transaction.Transaction` handles (reachable via
    ``manager.transaction(name)``, listed by
    ``manager.prepared_transactions()``) still holding their locks, so a
    coordinator can deliver the pending verdict with
    ``commit_prepared``/``abort``.

    No name that appears in the log is reissued: a fresh ``begin()`` is
    numbered above every ``T<n>`` in a ``prepare`` / ``commit`` / ``abort``
    record.  (A transaction the crash caught before any of those left
    nothing on stable storage, so its name may come round again.)

    A log directory that still holds a ``checkpoint.*`` file is refused:
    an older tree kept its checkpoints there, beside a ``wal.jsonl``
    truncated of the commits folded into them.

    ``clock`` is an optional zero-argument callable used only to time the
    rebuild for the report (a CLI passes ``time.perf_counter``).  Left
    unset — as every simulated path leaves it — ``elapsed_seconds`` stays
    0.0 and recovery contributes no wall-clock nondeterminism to the run.
    """
    from ..protocols import get_protocol
    from ..runtime.manager import TransactionManager
    from ..runtime.transaction import Transaction

    started = clock() if clock is not None else 0.0
    directory = getattr(getattr(wal, "base", wal), "directory", None)
    strays = sorted(directory.glob("checkpoint.*")) if directory else []
    if strays:
        raise RecoveryError(
            f"{strays[0]} was written by an older tree beside a log truncated of"
            " the commits folded into it; replaying the log without it would"
            " lose them"
        )
    records = wal.records()
    machines, adts, image, report = recover_machines(
        records, catalog=catalog, tracer=tracer
    )
    logged_shards = image.meta.get("shards")
    offered = (
        getattr(generator, "shard", None),
        getattr(generator, "shards", None),
    )
    if logged_shards is not None:
        logged_shard = image.meta.get("shard")
        # A one-shard stride mints what the monotone clock does: either
        # generator reopens its log.
        monotone = logged_shards == 1 and offered[1] is None
        if offered != (logged_shard, logged_shards) and not monotone:
            raise RecoveryError(
                f"stride mismatch: log {image.meta.get('name')!r} was written"
                f" as shard {logged_shard} of {logged_shards}, but recovery"
                f" offered shard {offered[0]} of {offered[1]} — a resized or"
                " re-homed worker pool would mint timestamps colliding with"
                " other shards' committed ones"
            )
    elif offered[1] is not None and offered[1] > 1:
        # An unsharded log joined to a stride pool is the same hazard in
        # the other direction: its historical commits used every residue,
        # so the pool's *other* shards would collide with them.
        raise RecoveryError(
            f"stride mismatch: log {image.meta.get('name')!r} was written"
            f" unsharded, but recovery offered shard {offered[0]} of"
            f" {offered[1]} — its committed timestamps span every residue"
        )
    manager = TransactionManager(generator=generator, tracer=tracer, site=site)
    for record in image.creates:
        obj = record["obj"]
        managed = manager.create_object(
            obj, adts[obj], protocol=get_protocol(record["protocol"])
        )
        managed.machine = machines[obj]
        managed.machine.tracer = tracer

    # Advance the generator past every recovered timestamp and the name
    # counter past every recovered transaction (names must stay unique).
    # The checkpoint's floor and the version timestamps stand in for the
    # commit records the checkpoint dropped; prepare votes count too — the
    # decided timestamp of an in-flight 2PC transaction will exceed its
    # vote, and the local stream must already sit above everything this
    # shard promised.  (Stride generators advance via observe_decision:
    # their observe() is per-transaction.)
    observe_decision = getattr(manager._generator, "observe_decision", None)

    def advance(timestamp: Any) -> None:
        if observe_decision is not None and isinstance(timestamp, int):
            observe_decision(timestamp)
        elif timestamp is not NEG_INFINITY:
            manager._generator.observe("recovery", timestamp)

    advance(image.checkpoint.get("floor", 0))
    for machine in machines.values():
        advance(machine.version_timestamp)
    for timestamp, _ in image.commits.values():
        advance(timestamp)
    for bound, _ in image.prepares.values():
        advance(bound)
    logged = (*image.commits, *image.prepares, *image.aborted)
    serials = [int(m.group(1)) for m in map(_TXN_NAME.match, logged) if m]
    manager._names = itertools.count(max(serials, default=0) + 1)

    # Prepared-but-undecided transactions come back as live handles with
    # their touched sets, awaiting the coordinator's verdict.
    for name in report.prepared_transactions:
        _, intentions = image.prepares[name]
        resurrected = Transaction(name)
        resurrected.touched = set(intentions)
        resurrected.operations = sum(len(ops) for ops in intentions.values())
        manager.install_prepared(resurrected)

    manager.wal = wal
    report.name = image.meta.get("name", "manager")
    report.elapsed_seconds = (clock() - started) if clock is not None else 0.0
    if tracer is not None:
        tracer.emit(
            "site.recover",
            site=report.name,
            objects=list(report.recovered_objects),
            replayed_records=report.replayed_records,
            replayed_operations=report.replayed_operations,
            prepared=list(report.prepared_transactions),
            from_checkpoint=report.from_checkpoint,
        )
    return manager, report
