"""Durability & crash recovery: WAL, horizon checkpoints, replay, faults.

The paper's LOCK machine is recovery-ready by construction — intentions
lists are a redo log, the Section 6 horizon bounds what a version (and
hence a checkpoint) may absorb.  This package makes that operational:

* :mod:`~repro.recovery.wal` — append-only, checksummed intentions log
  (in-memory and on-disk backends, plus the group-commit wrapper that
  batches appends under one fsync);
* :mod:`~repro.recovery.checkpoint` — version snapshots keyed by the
  horizon timestamp, plus log truncation;
* :mod:`~repro.recovery.recovery` — the checkpoint + replay driver
  (one routine: every deployment recovers a manager), with the
  recovered-state invariant check;
* :mod:`~repro.recovery.faults` — seeded crash plans for fault-injected
  distributed simulations.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
    ObjectCheckpoint,
    take_checkpoint,
    truncate_wal,
)
from .faults import CrashEvent, CrashPlan
from .recovery import (
    RecoveryError,
    RecoveryReport,
    committed_state_set,
    committed_state_sets,
    recover_machines,
    recover_manager,
    verify_recovery,
)
from .wal import (
    FileWAL,
    GroupCommitWAL,
    MemoryWAL,
    WalCorruption,
    WriteAheadLog,
    abort_record,
    commit_record,
    create_record,
    decode_operation,
    decode_states,
    decode_value,
    encode_operation,
    encode_states,
    encode_value,
    meta_record,
    prepare_record,
)

__all__ = [
    # wal
    "WriteAheadLog",
    "MemoryWAL",
    "FileWAL",
    "GroupCommitWAL",
    "WalCorruption",
    "meta_record",
    "create_record",
    "prepare_record",
    "commit_record",
    "abort_record",
    "encode_value",
    "decode_value",
    "encode_operation",
    "decode_operation",
    "encode_states",
    "decode_states",
    # checkpoint
    "Checkpoint",
    "ObjectCheckpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "take_checkpoint",
    "truncate_wal",
    # recovery
    "RecoveryError",
    "RecoveryReport",
    "recover_machines",
    "recover_manager",
    "committed_state_set",
    "committed_state_sets",
    "verify_recovery",
    # faults
    "CrashEvent",
    "CrashPlan",
]
