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

The same lemma applies to the log itself: records of transactions that
every machine has folded into its version (or that aborted) carry no
recovery information, so :func:`write_checkpoint` replaces them by one
``checkpoint`` record in a single rewrite of the log, bounding log growth
the way ``forget()`` bounds machine state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Set

from ..core.compaction import CompactingLockMachine
from .recovery import _scan
from .wal import WriteAheadLog, checkpoint_record

__all__ = ["write_checkpoint"]


def write_checkpoint(
    wal: WriteAheadLog, machines: Mapping[str, CompactingLockMachine]
) -> Dict[str, Any]:
    """Fold every machine, then rewrite ``wal`` around a checkpoint record.

    The new log is ``[meta, creates…, checkpoint, records of live
    transactions]``, written by one atomic :meth:`~WriteAheadLog.rewrite`.
    A transaction is *live* while it is retained committed (not yet
    folded into a version) or active (2PC-prepared: the ``prepare``
    record holds its intentions) at any machine; everything else —
    folded commits, their prepare records, aborted transactions, the
    previous checkpoint — is recoverable from the new record alone.  The
    record keeps the timestamp floor (every timestamp issued or applied
    here was delivered to some object, so the largest object clock bounds
    them all) and the 2PC decisions whose records it drops.  Returns it.
    """
    live: Set[str] = set()
    for machine in machines.values():
        machine.forget()
        live.update(machine.committed_transactions)
        live.update(machine.active_transactions())
    records = wal.records()
    head: List[Mapping[str, Any]] = []
    tail: List[Mapping[str, Any]] = []
    for record in records:
        if record["kind"] in ("meta", "create"):
            head.append(record)
        elif record.get("txn") in live:
            tail.append(record)
    clocks = [machine.clock for machine in machines.values()]
    checkpoint = checkpoint_record(
        {obj: machine.export_version() for obj, machine in machines.items()},
        floor=max((clock for clock in clocks if isinstance(clock, int)), default=0),
        decided={
            txn: ts for txn, ts in _scan(records).decided.items() if txn not in live
        },
    )
    wal.rewrite([*head, checkpoint, *tail])
    return checkpoint
