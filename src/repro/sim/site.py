"""The simulated transport: one shard engine behind a kill switch.

A :class:`Site` is a simulated host.  Everything a site *does* — execute
operations under the hybrid protocol, vote in 2PC with its timestamp
floor riding the vote (§3.3: "algorithms that piggyback timestamp
information on the messages of a commit protocol"), log, checkpoint,
recover — is the :class:`~repro.server.engine.ShardEngine` it hosts,
the same participant the serving tier runs in-process and in child
processes.  What the host adds is the ability to fail:

* while down, ``call`` / ``single`` raise
  :class:`~repro.server.engine.ShardDown` (the ``crash`` op takes the
  site down mid-request, as it kills a shard process);
* :meth:`crash` is a soft fail-stop — the manager aborts every
  *unprepared* transaction, prepared ones (on the stable log) and
  committed state survive, and the site stays up; a later ``prepare`` for
  a victim answers ``NO_VOTE``, which is presumed abort;
* :meth:`crash_hard` loses every volatile structure by dropping the
  engine; only the write-ahead log survives, and :meth:`recover` boots a
  fresh engine over it: committed intentions replayed on top of the
  versions in its checkpoint record, 2PC-prepared
  transactions back with their locks, everything else presumed aborted.

Both emit ``site.crash``, return their victims (the unprepared
transactions lost) and name them to every :attr:`Site.watchers`
callable, e.g. the simulated clients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..adts.base import ADT
from ..runtime.manager import ManagedObject
from ..server.engine import EngineCrash, ShardDown, ShardEngine

__all__ = ["Site"]


class Site:
    """Site ``index`` of ``sites``: a :class:`ShardEngine` that can die."""

    #: ``call`` returns as soon as the engine has (see ``LocalShard``).
    blocking = False

    def __init__(
        self,
        index: int = 0,
        sites: int = 1,
        wal: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ):
        self.index = index
        self.sites = sites
        #: The engine's own label for this shard in logs and trace events.
        self.name = f"shard{index}"
        #: Stable storage: what survives :meth:`crash_hard`.
        self.wal = wal
        self.tracer = tracer
        self.incarnation = 0
        #: Called with the victims' names at every crash.
        self.watchers: List[Callable[[List[str]], None]] = []
        self.engine: Optional[ShardEngine] = self._boot()

    def _boot(self) -> ShardEngine:
        self.incarnation += 1
        return ShardEngine(
            self.index,
            self.sites,
            wal=self.wal,
            tracer=self.tracer,
            incarnation=self.incarnation,
        )

    # -- the transport contract ----------------------------------------

    @property
    def alive(self) -> bool:
        return self.engine is not None

    def call(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one batch on the hosted engine; :class:`ShardDown` while down."""
        if self.engine is None:
            raise ShardDown(f"{self.name} is down")
        try:
            return self.engine.execute_batch(ops)
        except EngineCrash:
            self.crash_hard()
            raise ShardDown(f"{self.name} died mid-request") from None

    def single(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """One-op convenience batch."""
        return self.call([op])[0]

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.close()

    # -- failure and repair --------------------------------------------

    def crash(self) -> List[str]:
        """Soft fail-stop: abort every unprepared transaction; returns them
        (a site that is already down has nothing volatile left to lose)."""
        victims = self.engine.manager.crash() if self.engine is not None else []
        return self._lost(victims, hard=False)

    def crash_hard(self) -> List[str]:
        """Full fail-stop: the engine, and with it every volatile structure,
        is gone; only the log survives.  Returns the unprepared
        transactions lost with it."""
        engine, self.engine = self.engine, None
        victims = [txn.name for txn in engine.manager.unprepared()] if engine else []
        return self._lost(victims, hard=True)

    def _lost(self, victims: List[str], hard: bool) -> List[str]:
        if self.tracer is not None:
            self.tracer.emit("site.crash", site=self.name, hard=hard, victims=victims)
        for watcher in self.watchers:
            watcher(victims)
        return victims

    def recover(self) -> Any:
        """Boot a fresh engine over the same log.

        Returns the :class:`~repro.recovery.RecoveryReport` (its
        ``elapsed_seconds`` stays 0.0: no wall clock is read, so
        crash-seeded runs stay bit-for-bit reproducible).
        """
        if self.wal is None:
            from ..recovery import RecoveryError

            raise RecoveryError(
                f"site {self.name!r} has no write-ahead log; nothing to recover"
            )
        self.engine = self._boot()
        return self.engine.recovery

    #: The transport contract's name for it (``ShardSet.revive``).
    spawn = recover

    def checkpoint(self) -> Dict[str, Any]:
        """Fold every local version into a checkpoint record that replaces
        the log's redundant records."""
        return self.single({"op": "checkpoint"})

    # -- read-only views (fault plans, experiments, tests) -------------

    def objects(self) -> List[str]:
        """Names of objects homed here."""
        return sorted(self.engine.manager.objects)

    def machines(self) -> Dict[str, Any]:
        """Name → live LOCK machine of every local object that has one."""
        return {
            name: managed.machine
            for name, managed in self.engine.manager.objects.items()
            if isinstance(managed, ManagedObject)
        }

    def adt(self, obj: str) -> ADT:
        """The ADT bundle for a local object."""
        return self.engine.manager.object(obj).adt

    def snapshot(self, obj: str) -> Any:
        """Committed-state snapshot of one local object."""
        return self.engine.manager.object(obj).snapshot()

    def prepared_transactions(self) -> List[str]:
        """Transactions in 2PC's prepared state (sorted, a copy)."""
        return self.engine.manager.prepared_transactions()
