"""Durability & crash recovery: WAL, horizon checkpoints, replay, faults.

The paper's LOCK machine is recovery-ready by construction — intentions
lists are a redo log, the Section 6 horizon bounds what a version (and
hence a checkpoint) may absorb.  This package makes that operational:

* :mod:`~repro.recovery.wal` — append-only, checksummed intentions log
  (in-memory and on-disk backends, plus the group-commit wrapper that
  batches appends under one fsync) — the one stable store;
* :mod:`~repro.recovery.checkpoint` — a fold, then one rewrite of the log
  around a ``checkpoint`` record of the versions, keyed by the horizon
  timestamp;
* :mod:`~repro.recovery.recovery` — the checkpoint + replay driver
  (one routine: every deployment recovers a manager), with the
  recovered-state invariant check;
* :mod:`~repro.recovery.faults` — seeded crash plans for fault-injected
  distributed simulations.
"""

from .checkpoint import write_checkpoint
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
    checkpoint_record,
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
    "checkpoint_record",
    "encode_value",
    "decode_value",
    "encode_operation",
    "decode_operation",
    "encode_states",
    "decode_states",
    # checkpoint
    "write_checkpoint",
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
