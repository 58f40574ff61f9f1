"""The asyncio serving shell: sockets, shard pipes, one timer, graceful drain.

This is the real wire boundary the paper's model assumes (Sections 1 and
3.3: external clients submit operations to transaction managers).  The
shell accepts client connections and hands every byte they send to the
sans-IO :class:`~repro.server.core.ServerCore`, which admits, routes,
plans, parks and drives 2PC over one
:class:`~repro.server.engine.ShardEngine` per shard — the
concurrency-control kernel stays wholly unaware that a network exists,
exactly the layering Malta & Martinez argue for (wire tier strictly
outside the commutativity kernel).  What is left here needs the event
loop: the protocol callbacks, the writes, the shard pipes, the timer.

Concurrency model
-----------------

Everything here runs on one event loop, with no task for a connection
(each is an :class:`asyncio.Protocol`) or a shard.  Each ``read`` is
served inside the protocol's ``data_received`` callback — the core
admits every frame it completed, in arrival order, and kicks a shard
once per *run* of consecutive frames routed to it — and each connection
with replies gets **one** ``write`` for the lot.  The shell's one
transport branch is where a shard call waits, i.e. what the core's kick
does: a **local shard** (``workers=N``, the default) or a simulated
:class:`~repro.sim.site.Site` is called right in the kick, ``take → call
→ settle`` inside ``data_received``, one batch per run; a **process
shard** (``pool=``, a :class:`~repro.server.procpool.ShardProcessPool`)
waits on a pipe, so its kick *posts* on the next loop turn (``take``,
send), and the loop's reader on the pipe, registered once per child,
runs ``collect → settle`` and posts again: one round-trip, one fsync
for what the FIFO held; a death (``EPIPE``, EOF) settles ``SHARD_DOWN``.

Writes never wait: a connection whose peer stops reading has its
replies buffered and *its* reading paused once they pass the
transport's high-water mark (``pause_writing``), so it stalls no shard
and no other connection.  The wait bound of parked requests is
one timer, armed at the core's earliest deadline.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core import BATCH_LIMIT, WAIT_BOUND, Channel, ServerCore
from .engine import LocalShard, ShardDown, ShardEngine, ShardSet

__all__ = ["BATCH_LIMIT", "WAIT_BOUND", "ReproServer"]


class _Connection(Channel, asyncio.Protocol):
    """One accepted socket, whatever the shards: the core's channel, and
    the server's callbacks for its bytes, its full write buffer and its
    hang-up."""

    def __init__(self, server: ReproServer):
        Channel.__init__(self)
        self.server = server
        self.transport: asyncio.Transport
        #: Done once :meth:`connection_lost` has run (drain waits on it).
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connected(self)

    def data_received(self, data: bytes) -> None:
        self.server._serve(self, data)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost.set_result(None)  # its waiters resume after the cleanup
        self.server._disconnected(self)

    def pause_writing(self) -> None:
        # The peer stopped reading: stop reading it, until it catches up.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class ReproServer:
    """The socket front end over a set of shard engines.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    workers:
        Number of local shards.
    queue_limit:
        High-water mark of a shard's FIFO; admissions beyond it answer
        ``BUSY``.  (A non-blocking shard's FIFO holds at most the run of a
        read being gathered, and a run is cut at the limit, so only a
        limit of 0 refuses there.)
    protocol:
        Conflict-relation protocol name for objects created over the
        wire or via :meth:`create_object` (default ``hybrid``).
    tracer:
        Optional :class:`~repro.obs.TraceBus`; the server emits
        ``server.*`` events (a ``server.request`` row or a ``server.busy``
        per parsed request, a ``server.respond`` row per shard-executed
        one, batched per run of a read and per write) and local shards
        the usual ``txn.*`` / ``lock.*`` / ``obj.create`` stream through
        it, so a served run is certifiable end-to-end by the
        :class:`AtomicityChecker`.  ``stats`` reports
        how many of its sinks failed and were detached.
    drain_grace:
        Seconds :meth:`drain` waits for in-flight transactions before
        force-aborting them.
    flush_on_drain:
        Sinks to flush/close after the drain completes (e.g. the CLI's
        ``JSONLSink``).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; when attached,
        the in-band ``stats`` op returns its full snapshot (the caller
        is responsible for also subscribing a ``RegistrySink`` to the
        tracer so the registry actually fills).
    flight:
        Optional :class:`~repro.obs.FlightRecorder`; the ``stats`` op
        reports its status, and :meth:`drain` asks it for a final
        ``drain`` snapshot via its own trigger (it hears the
        ``server.drain`` event through the bus).
    pool:
        A :class:`~repro.server.engine.ShardSet` to serve from instead —
        a :class:`~repro.server.procpool.ShardProcessPool`, say
        (``workers`` is then the set's).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        queue_limit: int = 64,
        protocol: str = "hybrid",
        tracer: Any = None,
        drain_grace: float = 5.0,
        flush_on_drain: Sequence[Any] = (),
        registry: Any = None,
        flight: Any = None,
        pool: Any = None,
    ):
        if pool:
            # Route crash telemetry from the pool supervisor through
            # this server's bus.
            if pool.tracer is None:
                pool.tracer = tracer
        else:
            if workers < 1:
                raise ValueError("need at least one worker")
            pool = ShardSet(
                [
                    LocalShard(ShardEngine(index, workers, protocol, tracer=tracer))
                    for index in range(workers)
                ]
            )
        self.host = host
        self.port = port
        #: The shards, whatever transport they sit behind.
        self.pool = pool
        self.workers = pool.workers
        self.tracer = tracer
        self.drain_grace = drain_grace
        self._flush_on_drain = list(flush_on_drain)
        #: The one transport choice, where a shard call waits: on a pipe
        #: the loop watches (blocking), or inline, in the kick.
        self._pipes = list(pool.shards) if pool.blocking else []
        #: Per pipe: a post is due on the next loop turn.
        self._due = [False] * len(self._pipes)
        kick = self._kick if self._pipes else self._call
        #: The sans-IO pipeline; everything but the loop lives there.
        self.core = ServerCore(pool, kick, queue_limit, tracer, registry, flight)
        self.stats = self.core.stats
        self._loop: Any = None
        #: The wait-bound timer, armed at the core's earliest deadline.
        self._timer: Any = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drained = asyncio.Event()

    # -- setup / lifecycle ---------------------------------------------

    def create_object(
        self, name: str, adt_name: str, protocol: Optional[str] = None
    ) -> int:
        """Create ``name`` on its owning shard; returns the worker index.

        A blocking shard's pipe belongs to the event loop once the server
        has started: create those objects before :meth:`start` (with a
        process pool started first), or over the wire.
        """
        if self._pipes and self._loop is not None:
            raise RuntimeError(
                f"cannot create {name!r} over a started server's shard pipes:"
                " send the wire `create` action instead"
            )
        catalog = self.core.catalog
        if name in catalog:
            raise ValueError(f"object {name!r} already exists")
        worker = self.pool.create_object(name, adt_name, protocol)
        catalog[name] = worker
        return worker

    async def start(self) -> Tuple[str, int]:
        """Bring the shards up, settle what recovery left prepared, watch
        their pipes, accept connections.  Raises :class:`ShardDown` with
        its cause when a shard cannot start."""
        loop = self._loop = asyncio.get_running_loop()
        self.pool.start()  # spawn every shard that is down
        self._run_out()  # the core's start-up resolution, before any request
        # Adopt objects the shards already hold — recovered from their
        # WALs, or created before start(): a restarted server serves
        # its pre-crash catalog immediately.  (A shard the resolution
        # found dead and could not bring back raises its cause here.)
        for index, names in enumerate(self.pool.catalog()):
            for name in names:
                self.core.catalog.setdefault(name, index)
        for index, shard in enumerate(self._pipes):
            loop.add_reader(shard.fileno(), self._readable, index)
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.core.started_at = self.core.now = loop.time()
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until a :meth:`drain` (e.g. from a signal) completes."""
        await self._drained.wait()

    def install_signal_handlers(self, signals: Sequence[int]) -> None:
        """Trigger a graceful drain on each of ``signals`` (e.g. SIGTERM)."""
        loop = asyncio.get_running_loop()
        for signum in signals:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown (wired to SIGTERM by ``repro serve``): stop
        accepting connections, let in-flight transactions finish for a
        grace period, force-abort stragglers, answer every admitted
        request, emit ``server.drain``, hang up on the remaining
        connections (each emits its ``server.disconnect``; one whose peer
        stopped reading is aborted after a second) and only then flush
        the trace sinks — an accepted request is never dropped, and the
        trace file ends with a complete, certifiable run."""
        core = self.core
        if core.draining:
            await self._drained.wait()
            return self._drain_report
        core.draining = True
        if self._server is not None:
            self._server.close()  # stops accepting now
        else:
            # It never served: no pipe is watched, so the work the core
            # queued (its start-up resolution) runs out here, and no
            # shard is respawned for it.
            self._loop = asyncio.get_running_loop()
            core.stopping = True
            self._run_out()
        loop = asyncio.get_running_loop()
        connections = core.channels.values()
        active_at_start = sum(c.session.active for c in connections)
        deadline = loop.time() + self.drain_grace
        while any(c.session.active for c in connections) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Force-abort whatever is still open and not already in 2PC; a
        # parked request is answered SHUTTING_DOWN.
        forced = core.abort_sessions("SHUTTING_DOWN", loop.time())
        self._flush()
        # No further admissions or respawns; let the 2PCs and resolutions
        # in flight finish, and answer what was already accepted.
        core.stopping = True
        while core.rounds or any(core.pending) or any(s.posted for s in self._pipes):
            await asyncio.sleep(0.02)
        # With no batch out, let go of the pipes; flush every shard's log
        # and trace sink (and join its process, if it has one) — after
        # this the per-shard trace files are complete and mergeable.
        for shard in self._pipes:
            loop.remove_reader(shard.fileno())
        self.pool.stop()
        report = core.drained(active_at_start, forced)
        # Hang up on whoever is still connected; each connection_lost
        # emits the session's ``server.disconnect`` before the sinks
        # close.  A close waits for the replies to be flushed, so a peer
        # that stopped reading is cut off after a second.
        lost = [connection.lost for connection in connections]
        for connection in list(connections):
            connection.transport.close()
        if lost:
            await asyncio.wait(lost, timeout=1.0)
            for connection in list(connections):
                connection.transport.abort()  # still there: its peer stopped reading
            await asyncio.wait(lost)
        if self._server is not None:
            await self._server.wait_closed()
        for sink in self._flush_on_drain:
            closer = getattr(sink, "close", None) or getattr(sink, "flush", None)
            if closer is not None:
                try:
                    closer()
                except (OSError, ValueError) as exc:  # full disk, closed file
                    if self.tracer is not None:
                        self.tracer.failures.append((sink, exc))
        self._drain_report = report
        self._drained.set()
        return report

    async def aclose(self) -> None:
        """Hard stop for tests: drain with no grace."""
        grace, self.drain_grace = self.drain_grace, 0.0
        try:
            await self.drain()
        finally:
            self.drain_grace = grace

    # -- the loop's side of the core -----------------------------------

    def _connected(self, connection: _Connection) -> None:
        peername = connection.transport.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        self.core.connect(connection, peer)

    def _disconnected(self, connection: _Connection) -> None:
        self.core.disconnect(connection, self._loop.time())
        self._flush()

    def _serve(self, connection: _Connection, data: bytes) -> None:
        """Answer everything one read completed, with one write."""
        poisoned = self.core.feed(connection, data, self._loop.time())
        self._flush()
        if poisoned:
            connection.transport.close()  # after the replies are flushed

    def _call(self, index: int) -> None:
        """A non-blocking shard's kick: take, call, settle, right now."""
        core = self.core
        ops = core.take(index)
        try:
            replies = self.pool.shards[index].call(ops) if ops else ops
        except ShardDown:
            replies = None
        core.settle(index, replies, core.now)

    def _run_out(self) -> None:
        """Call every shard with work until no FIFO holds any, blocking on
        each call (``take → call → settle``) — while no pipe is watched."""
        core = self.core
        while any(core.pending):
            for index, fifo in enumerate(core.pending):
                if fifo:
                    self._call(index)

    def _kick(self, index: int) -> None:
        """A blocking shard's kick: one post per loop turn, one batch per read."""
        if not self._due[index]:
            self._due[index] = True
            self._loop.call_soon(self._post, index)

    def _post(self, index: int) -> None:
        """Take and send shard ``index``'s next batch, unless one is out."""
        self._due[index] = False
        shard = self._pipes[index]
        if not shard.posted and self.core.pending[index]:
            try:
                shard.post(self.core.take(index))
            except ShardDown:
                self._settle(index, None)

    def _readable(self, index: int) -> None:
        """Shard ``index``'s pipe is readable: collect, settle, post again
        at once — or, nothing posted, let go of its idle dead child's EOF."""
        shard = self._pipes[index]
        if not shard.posted:
            self._loop.remove_reader(shard.fileno())
            return
        self._due[index] = True  # a kick while it settles: posted below
        try:
            replies = shard.collect()
        except ShardDown:
            replies = None
        self._settle(index, replies)
        self._post(index)

    def _settle(self, index: int, replies: Optional[List[Any]]) -> None:
        """Answer shard ``index``'s batch (None: it died; watch its successor)."""
        shard, loop = self._pipes[index], self._loop
        incarnation = shard.incarnation
        if replies is None:
            loop.remove_reader(shard.fileno())
        self.core.settle(index, replies, loop.time())
        if shard.incarnation != incarnation:
            loop.add_reader(shard.fileno(), self._readable, index)
        self._flush()

    def _flush(self) -> None:
        """One write per connection with replies (dropped for one already
        closing), their ``server.respond``, the timer re-armed."""
        core = self.core
        dirty = core.dirty
        for connection in dirty:
            if not connection.transport.is_closing():
                connection.transport.write(b"".join(connection.out))
            connection.out = []
        dirty.clear()
        if core.answered:
            core.responded()
        if core.parked or self._timer is not None:
            self._arm()

    def _arm(self) -> None:
        """Keep the one timer at the core's earliest deadline."""
        deadline, timer = self.core.deadline(), self._timer
        if timer is not None:
            if timer.when() == deadline:
                return
            timer.cancel()
            self._timer = None
        if deadline is not None:
            self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        self._timer = None
        self.core.expire(self._loop.time())
        self._flush()
