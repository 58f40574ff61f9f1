"""Write-ahead intentions log (durability for the LOCK machine).

The paper's LOCK machine already maintains the two artifacts a recovery
manager needs: per-transaction *intentions lists* (Section 5 — a redo log
by construction) and commit timestamps that totally order them.  This
module makes them durable: a transaction's intentions lists are appended
once, whole, as a checksummed JSON line when it commits or 2PC-prepares,
an ``abort`` record marks one that touched something and lost, and nothing
is written per operation — the log holds exactly what recovery reads, so a
crash is replayed from it alone.  A ``checkpoint`` record is one more kind
(:mod:`repro.recovery.checkpoint` writes it when it rewrites the log): the
folded versions standing in for the commit records it dropped.

Records are plain dicts with a ``kind`` field; the helpers below build
them.  Two backends share one encoding: :class:`MemoryWAL` (a list of
encoded lines — used by simulations, where "stable storage" just means
"survives :meth:`Site.crash_hard`") and :class:`FileWAL` (an append-only
``wal.jsonl`` in a directory, one durable write per append).  Each line
is ``{"seq": n, "crc": c, "rec": {...}}`` where ``crc`` is the CRC-32 of
the canonical JSON of ``rec``; a torn final line is tolerated, anything
else fails the read.

Durability is paid exactly once per *durable write*, not per record:
:meth:`WriteAheadLog.append` issues one flush+fsync, and
:meth:`WriteAheadLog.append_batch` amortises one flush+fsync over a
whole batch (the lines are joined into a single ``write`` call, so a
crash tears at most the final line — the existing torn-tail tolerance
covers batches too).  :class:`GroupCommitWAL` builds group commit on
top: appends buffer in memory and become durable together on
:meth:`GroupCommitWAL.flush`, the caller acknowledging only after the
flush returns.  ``FileWAL`` counts ``appends`` and ``syncs`` so
benchmarks and tests can assert fsyncs-per-transaction directly.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.operations import Invocation, Operation
from ..core.specs import StateSet
from ..core.tagged import decode_tagged, encode_tagged

__all__ = [
    "WalCorruption",
    "WriteAheadLog",
    "MemoryWAL",
    "FileWAL",
    "GroupCommitWAL",
    "encode_value",
    "decode_value",
    "encode_operation",
    "decode_operation",
    "encode_states",
    "decode_states",
    "meta_record",
    "create_record",
    "prepare_record",
    "commit_record",
    "abort_record",
    "checkpoint_record",
]


class WalCorruption(ReproError):
    """The log failed a checksum, sequence, or decoding check."""


# ----------------------------------------------------------------------
# Value encoding: JSON with tags for the non-JSON state/timestamp shapes
# ----------------------------------------------------------------------


def _refuse_value(value: Any) -> Any:
    raise TypeError(f"cannot encode {value!r} ({type(value).__name__}) for the WAL")


def _refuse_tag(data: Any) -> Any:
    raise WalCorruption(f"unknown value tag in {data!r}")


def encode_value(value: Any) -> Any:
    """Encode a state / argument / timestamp value as JSON-safe data
    (:mod:`repro.core.tagged`).  State-set equality must survive the round
    trip, so a value the tags cannot restore exactly is a ``TypeError``."""
    return encode_tagged(value, _refuse_value)


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`; an unknown tag is corruption."""
    return decode_tagged(data, _refuse_tag)


def encode_operation(operation: Operation) -> Dict[str, Any]:
    """Encode one operation (invocation + result) of an intentions list."""
    return {
        "op": operation.name,
        "args": encode_value(tuple(operation.args)),
        "result": encode_value(operation.result),
    }


def decode_operation(data: Mapping[str, Any]) -> Operation:
    """Inverse of :func:`encode_operation`."""
    return Operation(
        Invocation(data["op"], decode_value(data["args"])),
        decode_value(data["result"]),
    )


def encode_states(states: StateSet) -> List[Any]:
    """Encode a state-set deterministically (the walker's set order)."""
    return encode_value(frozenset(states))["__fs__"]


def decode_states(data: Iterable[Any]) -> StateSet:
    """Inverse of :func:`encode_states`."""
    return frozenset(decode_value(s) for s in data)


def _encode_intentions(
    intentions: Mapping[str, Sequence[Operation]]
) -> Dict[str, List[Dict[str, Any]]]:
    return {
        obj: [encode_operation(op) for op in ops]
        for obj, ops in sorted(intentions.items())
    }


# ----------------------------------------------------------------------
# Record constructors
# ----------------------------------------------------------------------


def meta_record(
    role: str,
    name: str,
    shard: Optional[int] = None,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """First record of every log: who wrote it.

    Sharded sites additionally pin their stride-partition coordinates
    (``shard`` of ``shards``): recovery refuses to reopen the log under a
    different modulus, because a resized pool would mint timestamps that
    collide with ones already committed here.
    """
    record = {"kind": "meta", "role": role, "name": name}
    if shards is not None:
        record["shard"] = shard
        record["shards"] = shards
    return record


def create_record(
    obj: str, adt_name: str, protocol_name: str, initial_states: StateSet
) -> Dict[str, Any]:
    """Object creation: enough to rebuild the machine from the registry.

    ``initial_states`` records the actual initial state-set (factories
    take parameters, e.g. an opening balance), so recovery does not trust
    the registry default.
    """
    return {
        "kind": "create",
        "obj": obj,
        "adt": adt_name,
        "protocol": protocol_name,
        "initial": encode_states(initial_states),
    }


def invoke_record(transaction: str, obj: str, invocation: Invocation) -> Dict[str, Any]:
    """``<inv, X, Q>`` accepted.  Written by nothing; stays while
    ``benchmarks/e2e/layers.py`` times :meth:`FileWAL.append` with it."""
    return {
        "kind": "invoke",
        "txn": transaction,
        "obj": obj,
        "op": invocation.name,
        "args": encode_value(tuple(invocation.args)),
    }


def prepare_record(
    transaction: str, clock: Any, intentions: Mapping[str, Sequence[Operation]]
) -> Dict[str, Any]:
    """2PC force-write: the prepared transaction's intentions survive a
    crash, so the site can still honour the coordinator's verdict."""
    return {
        "kind": "prepare",
        "txn": transaction,
        "clock": encode_value(clock),
        "intentions": _encode_intentions(intentions),
    }


def commit_record(
    transaction: str, timestamp: Any, intentions: Mapping[str, Sequence[Operation]]
) -> Dict[str, Any]:
    """``<commit(t), X, Q>`` with the committed intentions lists — the
    paper's redo log entry, self-contained for replay."""
    return {
        "kind": "commit",
        "txn": transaction,
        "ts": encode_value(timestamp),
        "intentions": _encode_intentions(intentions),
    }


def abort_record(transaction: str) -> Dict[str, Any]:
    """``<abort, X, Q>`` delivered (presumed abort makes this advisory)."""
    return {"kind": "abort", "txn": transaction}


def checkpoint_record(
    versions: Mapping[str, Tuple[Any, Any, StateSet]],
    floor: int,
    decided: Mapping[str, Any],
) -> Dict[str, Any]:
    """The horizon checkpoint standing in for the records a rewrite drops.

    ``versions`` maps each object to ``(fence, clock, version)``
    (:meth:`~repro.core.compaction.CompactingLockMachine.export_version`:
    commits at or below the fence are inside the version); ``floor``
    bounds every timestamp issued here; ``decided`` (2PC transaction ->
    commit timestamp) keeps the decisions a peer may still ask about.
    """
    return {
        "kind": "checkpoint",
        "floor": floor,
        "objects": {
            obj: {
                "fence": encode_value(fence),
                "clock": encode_value(clock),
                "version": encode_states(version),
            }
            for obj, (fence, clock, version) in sorted(versions.items())
        },
        "decided": {txn: encode_value(ts) for txn, ts in sorted(decided.items())},
    }


# ----------------------------------------------------------------------
# Log backends
# ----------------------------------------------------------------------


#: The canonical JSON the checksum covers, and ``rec`` as the line shows it.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_SHOWN = json.JSONEncoder(sort_keys=True).encode


def _encode_line(seq: int, record: Mapping[str, Any]) -> str:
    crc = zlib.crc32(_CANONICAL(record).encode("utf-8"))
    return '{"crc": %d, "rec": %s, "seq": %d}' % (crc, _SHOWN(record), seq)


def _decode_line(text: str, expected_seq: int) -> Dict[str, Any]:
    try:
        envelope = json.loads(text)
        body = _CANONICAL(envelope["rec"])
        crc = envelope["crc"]
        seq = envelope["seq"]
    except (ValueError, KeyError, TypeError) as exc:
        raise WalCorruption(f"undecodable log line: {text[:80]!r}") from exc
    if zlib.crc32(body.encode("utf-8")) != crc:
        raise WalCorruption(f"checksum mismatch at seq {seq}")
    if seq != expected_seq:
        raise WalCorruption(f"sequence gap: expected {expected_seq}, found {seq}")
    return envelope["rec"]


class WriteAheadLog:
    """Shared encode/decode logic; backends supply line storage."""

    def _lines(self) -> List[str]:
        raise NotImplementedError

    def _write_lines(self, lines: List[str]) -> None:
        """Durably append ``lines`` as one write (backends pay one sync)."""
        raise NotImplementedError

    def _replace_lines(self, lines: List[str]) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._lines())

    def append(self, record: Mapping[str, Any]) -> int:
        """Append one record durably; returns its sequence number."""
        seq = len(self)
        self._write_lines([_encode_line(seq, record)])
        return seq

    def append_batch(self, records: Sequence[Mapping[str, Any]]) -> List[int]:
        """Append ``records`` under a single durable write.

        The group-commit primitive: every record in the batch shares one
        flush+fsync.  Returns the sequence numbers assigned, in order.
        """
        if not records:
            return []
        base = len(self)
        self._write_lines(
            [_encode_line(base + i, record) for i, record in enumerate(records)]
        )
        return list(range(base, base + len(records)))

    def records(self) -> List[Dict[str, Any]]:
        """Decode and verify every record.

        A corrupt *final* line is treated as a torn write and dropped —
        the record was never acknowledged; corruption anywhere else
        raises :class:`WalCorruption`.
        """
        lines = self._lines()
        out: List[Dict[str, Any]] = []
        for index, line in enumerate(lines):
            try:
                out.append(_decode_line(line, index))
            except WalCorruption:
                if index == len(lines) - 1:
                    break
                raise
        return out

    def rewrite(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Replace the whole log (a checkpoint)."""
        self._replace_lines(
            [_encode_line(seq, record) for seq, record in enumerate(records)]
        )


class MemoryWAL(WriteAheadLog):
    """In-memory backend: stable across simulated crashes, not real ones."""

    def __init__(self) -> None:
        self._store: List[str] = []

    def _lines(self) -> List[str]:
        return self._store

    def _write_lines(self, lines: List[str]) -> None:
        self._store.extend(lines)

    def _replace_lines(self, lines: List[str]) -> None:
        self._store = list(lines)


class FileWAL(WriteAheadLog):
    """On-disk backend: ``<directory>/wal.jsonl``.

    Appends go through one persistent append handle and pay exactly one
    flush+fsync per durable write — one per :meth:`append`, one per
    whole :meth:`append_batch` — instead of the historical
    open/flush/fsync/close per record.  ``appends`` and ``syncs`` count
    records written and fsyncs issued, so callers can assert the
    amortisation (``syncs/appends`` is the fsyncs-per-record rate).
    """

    FILENAME = "wal.jsonl"

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self._count: Optional[int] = None
        #: Bytes of verified prefix the first append cuts the file back to.
        self._prefix_bytes: Optional[int] = None
        self._handle = None
        self.appends = 0
        self.syncs = 0

    def _lines(self) -> List[str]:
        if not self.path.exists():
            return []
        return self.path.read_text().splitlines()

    def __len__(self) -> int:
        if self._count is None:
            # records() drops a torn final line, so it is not counted either:
            # sequence numbers continue from the last good record.
            lines = self._lines()
            try:
                if lines:
                    _decode_line(lines[-1], len(lines) - 1)
            except WalCorruption:
                lines.pop()
            self._count = len(lines)
            self._prefix_bytes = sum(len(line.encode("utf-8")) + 1 for line in lines)
        return self._count

    def _append_handle(self):
        if self._handle is None:
            # The log owns the handle for its whole lifetime — that is
            # the point of the fix (no open/close per append); close()
            # and _replace_lines release it.
            self._handle = open(  # repro: noqa[REP105]
                self.path, "a", encoding="utf-8"
            )
        return self._handle

    def close(self) -> None:
        """Release the append handle (reopened lazily on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write_lines(self, lines: List[str]) -> None:
        count = len(self)
        handle = self._append_handle()
        if self._prefix_bytes is not None:
            # First append since opening: cut a torn tail off, or this record
            # is fused onto the fragment and the *next* reopen refuses the log.
            size = os.fstat(handle.fileno()).st_size
            if size > self._prefix_bytes:
                handle.truncate(self._prefix_bytes)
                os.fsync(handle.fileno())
                self.syncs += 1
            elif size < self._prefix_bytes:
                handle.write("\n")  # the tear took only the terminator
            self._prefix_bytes = None
        # One write call keeps crash semantics simple: the kernel sees a
        # single sequential append, so a tear truncates to a prefix and
        # at most the final line of the batch is partial.
        handle.write("".join(line + "\n" for line in lines))
        handle.flush()
        os.fsync(handle.fileno())
        self.appends += len(lines)
        self.syncs += 1
        self._count = count + len(lines)

    def _replace_lines(self, lines: List[str]) -> None:
        self.close()
        temp = self.path.with_suffix(".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        self.syncs += 1
        self._count = len(lines)
        self._prefix_bytes = None


class GroupCommitWAL(WriteAheadLog):
    """Group commit over any backend: buffer appends, sync per batch.

    ``append`` stages the record in memory and returns its (future)
    sequence number; nothing is durable until :meth:`flush`, which hands
    the whole buffer to the backend's :meth:`~WriteAheadLog.append_batch`
    — one fsync for the lot.  The contract is the classic one: the
    *caller* must not acknowledge a commit before ``flush`` returns.  A
    crash before the flush loses only unacknowledged suffix records,
    which presumed abort already treats as aborted.

    ``max_batch`` bounds staging (a full buffer flushes itself) so a
    busy shard cannot defer durability indefinitely.  Reads force a
    flush first: the log never lies about what it contains.
    """

    def __init__(self, base: WriteAheadLog, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.base = base
        self.max_batch = max_batch
        self._pending: List[Mapping[str, Any]] = []
        self.batches = 0
        self.batched_records = 0

    def __len__(self) -> int:
        return len(self.base) + len(self._pending)

    def append(self, record: Mapping[str, Any]) -> int:
        seq = len(self)
        self._pending.append(record)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return seq

    def append_batch(self, records: Sequence[Mapping[str, Any]]) -> List[int]:
        base = len(self)
        self._pending.extend(records)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return list(range(base, base + len(records)))

    def flush(self) -> int:
        """Make every staged record durable under one sync; returns count."""
        if not self._pending:
            return 0
        staged, self._pending = self._pending, []
        self.base.append_batch(staged)
        self.batches += 1
        self.batched_records += len(staged)
        return len(staged)

    def _lines(self) -> List[str]:
        self.flush()
        return self.base._lines()

    def records(self) -> List[Dict[str, Any]]:
        self.flush()
        return self.base.records()

    def rewrite(self, records: Sequence[Mapping[str, Any]]) -> None:
        self._pending.clear()
        self.base.rewrite(records)
