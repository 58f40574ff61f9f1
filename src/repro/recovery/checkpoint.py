"""Horizon checkpoints: the paper's ``forget()`` made durable.

Section 6's horizon timestamp (Definition 20) bounds which committed
intentions may be collapsed into a version; Lemmas 18–24 prove the
collapse is safe because no active transaction can still serialize below
it.  A *checkpoint* persists exactly that collapse: for each object, the
version state-set together with the largest commit timestamp it absorbs
(:attr:`CompactingLockMachine.version_timestamp`) and the machine clock.
Recovery then only replays log records the checkpoint does not already
prove redundant — a commit record is needed at an object iff its
timestamp exceeds the object's checkpointed version timestamp.

:func:`truncate_wal` applies the same lemma to the log itself: records of
transactions that every machine has folded into its version (or that
aborted) carry no recovery information and are dropped, bounding log
growth the way ``forget()`` bounds machine state.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

from ..core.compaction import NEG_INFINITY, CompactingLockMachine
from ..core.specs import StateSet
from .wal import (
    WalCorruption,
    WriteAheadLog,
    decode_states,
    decode_value,
    encode_states,
    encode_value,
)

__all__ = [
    "ObjectCheckpoint",
    "Checkpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "take_checkpoint",
    "truncate_wal",
]


@dataclass(frozen=True)
class ObjectCheckpoint:
    """One object's durable core: the collapsed version and its key."""

    obj: str
    version: StateSet
    version_timestamp: Any
    clock: Any

    def to_json(self) -> Dict[str, Any]:
        return {
            "obj": self.obj,
            "version": encode_states(self.version),
            "version_timestamp": encode_value(self.version_timestamp),
            "clock": encode_value(self.clock),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ObjectCheckpoint":
        return cls(
            obj=data["obj"],
            version=decode_states(data["version"]),
            version_timestamp=decode_value(data["version_timestamp"]),
            clock=decode_value(data["clock"]),
        )


@dataclass(frozen=True)
class Checkpoint:
    """A consistent snapshot of every local machine's version."""

    objects: Dict[str, ObjectCheckpoint] = field(default_factory=dict)
    #: The site/manager logical clock at snapshot time (0 when unused).
    site_clock: int = 0
    #: Simulated time the checkpoint was taken at (informational).
    taken_at: float = 0.0

    def fence(self, obj: str) -> Any:
        """The replay fence for one object: commit records with timestamps
        at or below it are already inside the checkpointed version."""
        checkpoint = self.objects.get(obj)
        return checkpoint.version_timestamp if checkpoint else NEG_INFINITY

    def to_json(self) -> Dict[str, Any]:
        return {
            "site_clock": self.site_clock,
            "taken_at": self.taken_at,
            "objects": [
                self.objects[obj].to_json() for obj in sorted(self.objects)
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Checkpoint":
        objects = {
            entry["obj"]: ObjectCheckpoint.from_json(entry)
            for entry in data["objects"]
        }
        return cls(
            objects=objects,
            site_clock=data.get("site_clock", 0),
            taken_at=data.get("taken_at", 0.0),
        )


class CheckpointStore:
    """Holds at most one checkpoint (the latest supersedes the rest)."""

    def save(self, checkpoint: Checkpoint) -> None:
        raise NotImplementedError

    def load(self) -> Optional[Checkpoint]:
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """Checkpoint kept in memory (simulated stable storage)."""

    def __init__(self) -> None:
        self._encoded: Optional[str] = None

    def save(self, checkpoint: Checkpoint) -> None:
        self._encoded = json.dumps(checkpoint.to_json(), sort_keys=True)

    def load(self) -> Optional[Checkpoint]:
        if self._encoded is None:
            return None
        return Checkpoint.from_json(json.loads(self._encoded))


class FileCheckpointStore(CheckpointStore):
    """Checkpoint as ``<directory>/checkpoint.json``, replaced atomically."""

    FILENAME = "checkpoint.json"

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME

    def save(self, checkpoint: Checkpoint) -> None:
        temp = self.path.with_suffix(".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(checkpoint.to_json(), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def load(self) -> Optional[Checkpoint]:
        if not self.path.exists():
            return None
        try:
            return Checkpoint.from_json(json.loads(self.path.read_text()))
        except (ValueError, KeyError) as exc:
            raise WalCorruption(f"unreadable checkpoint {self.path}") from exc


def take_checkpoint(
    machines: Mapping[str, CompactingLockMachine],
    site_clock: int = 0,
    taken_at: float = 0.0,
) -> Checkpoint:
    """Snapshot every machine's version, folding first.

    ``forget()`` is invoked so the version absorbs everything the current
    horizon allows — the checkpoint is as short as Lemma 23 permits.
    """
    objects: Dict[str, ObjectCheckpoint] = {}
    for obj, machine in machines.items():
        machine.forget()
        version_timestamp, clock, version = machine.export_version()
        objects[obj] = ObjectCheckpoint(
            obj=obj,
            version=version,
            version_timestamp=version_timestamp,
            clock=clock,
        )
    return Checkpoint(objects=objects, site_clock=site_clock, taken_at=taken_at)


def truncate_wal(
    wal: WriteAheadLog,
    machines: Mapping[str, CompactingLockMachine],
) -> int:
    """Drop log records the machines prove redundant; returns the count.

    A record must be kept when its transaction is still *live* — retained
    committed (not yet folded into a version) or active (2PC-prepared:
    the ``prepare`` record holds its intentions) at any machine — or when
    it describes the log itself (``meta``) or an object (``create``).
    Everything else (folded commits, their prepare records, aborted
    transactions) is recoverable from the checkpointed versions alone.
    """
    live: Set[str] = set()
    for machine in machines.values():
        live.update(machine.committed_transactions)
        live.update(machine.active_transactions())
    kept: List[Mapping[str, Any]] = []
    dropped = 0
    for record in wal.records():
        if record["kind"] in ("meta", "create") or record.get("txn") in live:
            kept.append(record)
        else:
            dropped += 1
    if dropped:
        wal.rewrite(kept)
    return dropped
