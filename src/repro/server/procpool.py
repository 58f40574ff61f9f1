"""The process transport: one OS process per shard engine.

The paper's multi-site model (Sections 1 and 3.3) is shared-nothing by
construction; this module gives the serving tier that shape for real.
Each shard is a child *process* hosting one
:class:`~repro.server.engine.ShardEngine` — its manager on stride
``shard`` mod ``shards``, its own :class:`~repro.recovery.wal.FileWAL`
under group commit, its own trace file; the parent routes work over
pipes and never touches a machine directly.

Message protocol (one pipe per child, strictly request/reply)::

    parent -> child   ("batch", [op, op, ...])
    child  -> parent  ("ok", [reply, reply, ...])
    parent -> child   ("stop",)        child flushes, acks, exits
    child  -> parent  ("fatal", text)  unrecoverable startup failure

Ops and replies are the engine's, each message one ``send_bytes`` of
``pickle.dumps``; the child is recv → ``engine.execute_batch`` → send,
so a batch shares one fsync (fsyncs/txn ≈ 1/depth) and every
acknowledged commit is durable.

A pipe has one user at a time and no lock: before a server starts, and
after it drains, whoever calls ``call`` (``post``, then ``collect``);
while it serves, the event loop, which collects once the pipe is
readable (a ``call`` meanwhile refuses).  A dead child is ``EPIPE`` on a
post or EOF on the pipe, :class:`ShardDown` either way: no ``waitpid``.

:class:`ShardProcessPool` is a :class:`~repro.server.engine.ShardSet`
whose shards can die: ``start`` spawns the ones that are down, and a
respawned child rebuilds itself from its WAL (which refuses a resized
stride), resurrecting prepared transactions with their locks for the
serving core to resolve — commit if any shard logged the decision,
presumed abort otherwise (:func:`~repro.server.engine.resolve_prepared`,
run by the core at start-up and after each respawn).  A child that
cannot start stays down: it is reaped once its announcement is read, its
cause answers every later call and ``spawn``, and it is not forked again.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import pickle
import signal
from typing import Any, Dict, List, NoReturn, Optional, Sequence

from ..obs import JSONLSink, TraceBus
from .engine import EngineCrash, ShardDown, ShardEngine, ShardSet

__all__ = ["ShardDown", "ShardProcess", "ShardProcessPool"]

#: Fork where the platform has it (the child inherits the loaded code),
#: spawn elsewhere.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _build_engine(spec: Dict[str, Any]) -> ShardEngine:
    """Open the shard's log and trace file and build (or recover) its
    engine: a group-commit-wrapped FileWAL and one JSONL trace file per
    incarnation."""
    # Child-only: a server without shard processes never loads recovery.
    from ..recovery.wal import FileWAL, GroupCommitWAL

    tracer = sink = None
    if spec["trace_path"]:
        tracer = TraceBus()
        sink = tracer.subscribe(JSONLSink(spec["trace_path"]))
    return ShardEngine(
        spec["shard"],
        spec["shards"],
        protocol=spec["protocol"],
        wal=GroupCommitWAL(FileWAL(pathlib.Path(spec["data_dir"]))),
        tracer=tracer,
        sink=sink,
        incarnation=spec["incarnation"],
    )


def _send(conn, message: Any) -> None:
    conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def _receive(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


def _shard_main(conn, spec: Dict[str, Any]) -> None:
    """Child entry point: serve batches until told to stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates
    try:
        engine = _build_engine(spec)
    except Exception as exc:
        try:
            _send(conn, ("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    while True:
        try:
            message = _receive(conn)
        except EOFError:
            break
        if message[0] == "stop":
            engine.close()
            _send(conn, ("ok", []))
            break
        try:
            replies = engine.execute_batch(message[1])
        except EngineCrash:
            os._exit(17)  # nothing flushed, nothing acknowledged
        _send(conn, ("ok", replies))
    conn.close()


class ShardProcess:
    """Parent-side handle for one shard worker process."""

    #: ``call`` waits on a pipe: an event loop posts instead.
    blocking = True

    def __init__(
        self,
        shard: int,
        shards: int,
        data_dir: pathlib.Path,
        trace_dir: Optional[pathlib.Path],
        protocol: str,
    ):
        self.shard = shard
        self.trace_dir = trace_dir
        self.incarnation = 0
        #: What every incarnation's child is told (plus its trace file).
        self._spec = {
            "shard": shard,
            "shards": shards,
            "data_dir": str(data_dir),
            "protocol": protocol,
        }
        self._process = None
        self._conn = None
        self._fatal: Optional[str] = None
        #: A batch was posted and its replies are not collected yet.
        self.posted = False
        #: Trace files written by past and present incarnations, oldest
        #: first — the merge feed for certification.
        self.trace_paths: List[pathlib.Path] = []

    @property
    def name(self) -> str:
        return f"shard{self.shard}"

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def spawn(self) -> None:
        """Start (or restart) the worker; a restart recovers from the WAL.
        Raises :class:`ShardDown` instead once an incarnation could not
        start: the cause (a corrupt log, a stride mismatch) is still there."""
        if self._conn is not None:
            self._check_fatal()
        self.incarnation += 1
        trace_path = None
        if self.trace_dir is not None:
            # One file per incarnation: JSONL sinks open "w", so a restart
            # must not clobber the previous life's events.
            path = self.trace_dir / f"{self.name}.{self.incarnation}.jsonl"
            self.trace_paths.append(path)
            trace_path = str(path)
        spec = dict(self._spec, trace_path=trace_path, incarnation=self.incarnation)
        parent_conn, child_conn = _CONTEXT.Pipe()
        process = _CONTEXT.Process(
            target=_shard_main, args=(child_conn, spec), daemon=True
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._fatal = None  # a stopped pool's restart tries again

    def _check_fatal(self) -> None:
        """Raise the child's fatal startup announcement, if it made one:
        ``("fatal", text)``, sent as it exits, stays buffered in the pipe,
        so a caller racing the exit still sees the cause (e.g. a stride
        mismatch), not a bare "not running" — as does every caller after."""
        try:
            if self._fatal is None and self._conn.poll(0):
                reply = _receive(self._conn)
                if reply[0] == "fatal":
                    self._fatal = reply[1]
        except (EOFError, OSError):
            pass
        if self._fatal is not None:
            raise ShardDown(f"{self.name} failed to start: {self._fatal}")

    def fileno(self) -> int:
        """The pipe, readable once the posted batch's replies (or EOF) are."""
        return self._conn.fileno()

    def call(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send one batch and wait for its replies.

        Raises :class:`ShardDown` when the worker is dead or dies
        mid-request, and :class:`ShardDown` with the child's message when
        startup failed fatally (e.g. a stride mismatch on recovery).
        Refused while a batch is posted: the pipe has one user.
        """
        if self.posted:
            raise RuntimeError(f"{self.name} has a batch out: a call would interleave")
        self.post(ops)
        return self.collect()

    def post(self, ops: Sequence[Dict[str, Any]]) -> None:
        """Send one batch, waiting for nothing (:meth:`collect` its replies);
        :class:`ShardDown` when the child is gone or could not start."""
        if self._conn is None:
            raise ShardDown(f"{self.name} is not running")
        if self._fatal is not None:
            self._check_fatal()
        try:
            _send(self._conn, ("batch", ops))
        except OSError:
            self._down("is not running")
        self.posted = True

    def collect(self) -> List[Dict[str, Any]]:
        """The posted batch's replies; :class:`ShardDown` on EOF."""
        self.posted = False
        try:
            reply = _receive(self._conn)
        except (EOFError, OSError):
            self._down("died mid-request")
        if reply[0] == "fatal":  # it exits as it announces: reap it
            self._fatal = reply[1]
            self._down("failed to start")
        return reply[1]

    def _down(self, what: str) -> NoReturn:
        # Reap it first: a zombie is ``alive``, so ``revive`` would skip it.
        if self._process is not None:
            self._process.join(timeout=5.0)
        self._check_fatal()
        raise ShardDown(f"{self.name} {what}") from None

    def single(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """One-op convenience batch."""
        return self.call([op])[0]

    def stop(self) -> None:
        """Flush and join the worker (no-op when already dead)."""
        if self._conn is None:
            return
        try:
            _send(self._conn, ("stop",))
            _receive(self._conn)
        except (EOFError, OSError):
            pass  # it was dead
        self._conn.close()
        self._conn = None
        if self._process is not None:
            self._process.join(timeout=5.0)
            self._process = None

    def kill(self) -> None:
        """Fault injection: SIGKILL, losing all volatile state."""
        if self._process is not None:
            self._process.kill()
            self._process.join(timeout=5.0)


class ShardProcessPool(ShardSet):
    """A fixed-size pool of shard worker processes, each logging under
    group commit: one fsync per pipe batch, before the batch is answered.
    """

    def __init__(
        self,
        workers: int,
        data_dir,
        trace_dir=None,
        protocol: str = "hybrid",
        tracer: Any = None,
    ):
        if workers < 1:
            raise ValueError("need at least one shard worker")
        if trace_dir is not None:
            trace_dir = pathlib.Path(trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
        shards = []
        for shard in range(workers):
            shard_dir = pathlib.Path(data_dir) / f"shard{shard}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            shards.append(
                ShardProcess(shard, workers, shard_dir, trace_dir, protocol)
            )
        super().__init__(shards, tracer=tracer)

    def status(self) -> Dict[str, Any]:
        """The supervisor's view, with no pipe round-trips (introspection
        must answer while the shard pipes are saturated)."""
        return {
            "workers": self.workers,
            "alive": [shard.alive for shard in self.shards],
            "incarnations": [shard.incarnation for shard in self.shards],
        }
