"""The asyncio serving tier: sessions, backpressure, graceful drain.

This is the real wire boundary the paper's model assumes (Sections 1 and
3.3: external clients submit operations to transaction managers).  The
front end accepts client connections, frames requests with
:mod:`repro.server.protocol`, translates them into shard ops, and routes
those onto one :class:`~repro.server.engine.ShardEngine` per shard — the
concurrency-control kernel stays wholly unaware that a network exists,
exactly the layering Malta & Martinez argue for (wire tier strictly
outside the commutativity kernel).

Concurrency model
-----------------

Everything here runs on one event loop, one :class:`asyncio.Protocol`
per connection and no task for it.  Each ``read`` is served inside the
protocol's ``data_received`` callback: it decodes every frame the read
completed, answers them in arrival order, and hands the transport
**one** ``write`` for the lot — one decode → execute → encode pass per
readable batch, with no task wake-up between the socket and the pass.
A request for a non-blocking shard executes right there; one for a
blocking shard goes onto that shard's bounded queue, which is the
**backpressure** mechanism: a request is admitted only while the queue
is below its high-water mark, and past it the server answers ``BUSY``
immediately (``server.busy`` trace event) instead of buffering
unboundedly.  Clients treat BUSY like a lock conflict: back off and
retry.  (A non-blocking shard holds nothing beyond the read being
served, so TCP is its backpressure.)  Writes never wait: a connection
whose peer stops reading has its replies buffered and *its* reading
paused once they pass the transport's high-water mark
(``pause_writing``), so it stalls no shard worker and no other
connection, and it is read again when the peer catches up.

Sharding
--------

Each shard owns a disjoint set of the objects (stable CRC32 of the
object name).  A transaction is pinned to the shard owning the *first*
object it touches (its *primary*); its
:class:`~repro.server.session.TxnRecord` accumulates every shard it
touches.  Commit timestamps stay globally unique because shard *i* of
*W* issues only timestamps ≡ *i* (mod *W*) — each shard's generator is
monotone, so the Section 3.3 constraint holds per manager, and the
shards' timestamp streams never collide, so a merged trace still
certifies.

Engine and transports
---------------------

The shards are a :class:`~repro.server.engine.ShardSet`, and a request
is served the same way whatever is behind it: plan the ops, ``call`` the
shard, finish the reply.  A transaction may touch any shard; its commit
runs :func:`~repro.server.engine.two_phase_commit` across exactly the
recorded participants.  All the server asks of the transport is whether
``call`` *blocks* — that alone decides where a request executes:

* a **local shard** (``workers=N``, the default) is an engine in this
  process, with no log.  Its call returns when the manager has, so the
  connection makes it directly, in ``data_received``, as the request
  arrives: no queue, no worker task, replies in request order (2PC and
  abort rounds too, through the set's own blocking driver: nothing on
  the loop can interleave).  A simulated
  :class:`~repro.sim.site.Site` is served the same way.
* a **process shard** (``pool=``, a
  :class:`~repro.server.procpool.ShardProcessPool`) waits on a pipe, so
  it has a queue and a worker coroutine, its pipe's one owner from
  :meth:`ReproServer.start` to the drain: the worker drains the queue
  into one *batch*, sends it and awaits the reply on the loop — one
  round-trip, one group-commit fsync for the lot — then answers with one
  write per connection.  Nothing else touches the pipe: a multi-shard
  commit gets a task whose 2PC rounds ride the participants' next
  batches, and so does a respawned shard's prepared-set resolution.

A shard that dies under a call (a killed process, a crashed site) is
respawned, recovering from its WAL; the requests and handles it stranded
are answered ``SHARD_DOWN`` and cleaned up on every participant, never
leaked.  One whose new incarnation cannot start stays down, answering
``SHARD_DOWN``.

Graceful drain
--------------

``drain()`` (wired to SIGTERM by ``repro serve``) stops accepting
connections, lets in-flight transactions finish for a grace period,
force-aborts stragglers, answers every admitted request, emits
``server.drain``, hangs up on the remaining connections (each emits its
``server.disconnect``; one whose peer stopped reading is aborted after a
second) and only then flushes the trace sinks —
an accepted request is never dropped, and the trace file ends with a
complete, certifiable run.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Set, Tuple

from .engine import LocalShard, Rounds, ShardDown, ShardEngine, ShardSet, shard_for
from .engine import abort_round, resolve_prepared, two_phase_commit
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    Request,
    WireError,
    error_frame,
    parse_request,
    response_frame,
)
from .session import Session, SessionError, TxnRecord

__all__ = ["ReproServer"]

#: Most requests one blocking shard call carries: bounds a batch's
#: latency, not its durability (the engine's log bounds its own staging).
BATCH_LIMIT = 64


class _Connection(asyncio.Protocol):
    """One accepted socket, whatever the shards: its session and decoder,
    and the server's callbacks for its bytes, its full write buffer and
    its hang-up."""

    def __init__(self, server: ReproServer):
        self.server = server
        self.session: Session
        self.transport: asyncio.Transport
        self.decoder = FrameDecoder()
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
        High-water mark of a blocking shard's queue; admissions beyond
        it answer ``BUSY``.  (Nothing queues for a non-blocking shard,
        so only a limit of 0 refuses there.)
    protocol:
        Conflict-relation protocol name for objects created over the
        wire or via :meth:`create_object` (default ``hybrid``).
    tracer:
        Optional :class:`~repro.obs.TraceBus`; the server emits
        ``server.*`` events (one ``server.request`` or ``server.busy``
        per parsed request, one ``server.respond`` per shard-executed
        one) and local shards the usual ``txn.*`` / ``lock.*`` /
        ``obj.create`` stream through it, so a served run is certifiable
        end-to-end by the :class:`AtomicityChecker`.  ``stats`` reports
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
    profiler:
        Optional :class:`~repro.obs.SamplingProfiler`; :meth:`start`
        starts it, :meth:`drain` stops it, and the ``stats`` op
        reports its status.  Pair with ``profile_dir`` to dump
        ``profile.folded`` / ``profile.json`` after the drain.
    profile_dir:
        Where the drain-time profile dump goes (requires ``profiler``).
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
        profiler: Any = None,
        profile_dir: Optional[str] = None,
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
        self.queue_limit = queue_limit
        self.tracer = tracer
        self.drain_grace = drain_grace
        self._flush_on_drain = list(flush_on_drain)
        self.registry = registry
        self.flight = flight
        self.profiler = profiler
        self.profile_dir = profile_dir
        self._started_at: Optional[float] = None
        #: object name -> owning worker index.
        self._catalog: Dict[str, int] = {}
        #: One queue and one worker task per *blocking* shard (none for
        #: shards the connections call directly).
        self._queues: List[asyncio.Queue] = []
        self._worker_tasks: List[asyncio.Task] = []
        #: Round procedures driven in tasks of their own (multi-shard
        #: completions, respawn resolutions); drain waits for them.
        self._tasks: Set[asyncio.Task] = set()
        self._connections: List[_Connection] = []
        self._session_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self.draining = False
        self._stopping = False
        self._drained = asyncio.Event()
        #: Coarse server-side tallies (the registry, when attached via a
        #: RegistrySink, derives the same numbers from the events).
        self.stats = {
            "connections": 0,
            "requests": 0,
            "busy": 0,
            "errors": 0,
            "transactions_committed": 0,
            "transactions_aborted": 0,
        }

    # ------------------------------------------------------------------
    # Setup / lifecycle
    # ------------------------------------------------------------------

    def create_object(
        self, name: str, adt_name: str, protocol: Optional[str] = None
    ) -> int:
        """Create ``name`` on its owning shard; returns the worker index.

        A blocking shard's pipe belongs to its worker once the server has
        started: create those objects before :meth:`start` (with a
        process pool started first), or over the wire.
        """
        if self._queues:
            raise RuntimeError(
                f"cannot create {name!r} with a blocking call: the started"
                " server's workers own the shard pipes; send the wire"
                " `create` action instead"
            )
        if name in self._catalog:
            raise ValueError(f"object {name!r} already exists")
        worker = self.pool.create_object(name, adt_name, protocol)
        self._catalog[name] = worker
        return worker

    async def start(self) -> Tuple[str, int]:
        """Bind, spawn the workers, and begin accepting connections."""
        self.pool.start()  # bring every shard up (or confirm it is)
        # Adopt objects the shards already hold — recovered from their
        # WALs, or created before start(): a restarted server serves
        # its pre-crash catalog immediately.
        for index, names in enumerate(self.pool.catalog()):
            for name in names:
                self._catalog.setdefault(name, index)
        if self.pool.blocking:
            self._queues = [asyncio.Queue() for _ in range(self.workers)]
            self._worker_tasks = [
                asyncio.ensure_future(self._worker(index))
                for index in range(self.workers)
            ]
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        if self.profiler is not None:
            self.profiler.start()
        self._started_at = loop.time()
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
        """Graceful shutdown; see the module docstring for the phases."""
        if self.draining:
            await self._drained.wait()
            return self._drain_report
        self.draining = True
        if self._server is not None:
            self._server.close()  # stops accepting now
        loop = asyncio.get_running_loop()
        active_at_start = sum(c.session.active for c in self._connections)
        deadline = loop.time() + self.drain_grace
        while (
            any(c.session.active for c in self._connections)
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        # Force-abort whatever is still open and not already in 2PC.
        forced = sum(self._abort_session(c.session) for c in self._connections)
        # No further queue admissions or respawns; let the 2PCs and
        # resolutions in flight finish on the running workers, and answer
        # what was already accepted.
        self._stopping = True
        while self._tasks:
            await asyncio.wait(list(self._tasks))
        for queue in self._queues:
            queue.put_nowait(None)
        for task in self._worker_tasks:
            await task
        # With the workers gone, flush every shard's log and trace sink
        # (and join its process, if it has one) — after this the
        # per-shard trace files are complete and mergeable.
        self.pool.stop()
        report = {
            "sessions": len(self._connections),
            "finished": max(0, active_at_start - forced),
            "aborted": forced,
        }
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "server.drain",
                sessions=report["sessions"],
                finished=report["finished"],
                aborted=report["aborted"],
            )
        if self.profiler is not None:
            self.profiler.stop()
            if self.profile_dir is not None:
                # Local import: the server takes its obs collaborators
                # as injected Any's; only the dump helper needs a name.
                from ..obs.prof import write_profile

                write_profile(self.profile_dir, profiler=self.profiler)
        # Hang up on whoever is still connected; each connection_lost
        # emits the session's ``server.disconnect`` before the sinks
        # close.  A close waits for the replies to be flushed, so a peer
        # that stopped reading is cut off after a second.
        lost = [connection.lost for connection in self._connections]
        for connection in list(self._connections):
            connection.transport.close()
        if lost:
            await asyncio.wait(lost, timeout=1.0)
            for connection in list(self._connections):
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
                    if tracer is not None:
                        tracer.failures.append((sink, exc))
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

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _connected(self, connection: _Connection) -> None:
        peername = connection.transport.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = connection.session = Session(next(self._session_ids), peer=peer)
        self._connections.append(connection)
        self.stats["connections"] += 1
        if self.tracer is not None:
            self.tracer.emit("server.connect", session=session.name, peer=peer)

    def _disconnected(self, connection: _Connection) -> None:
        session = connection.session
        aborted = self._abort_session(session)
        self.stats["transactions_aborted"] += aborted
        self._connections.remove(connection)
        if self.tracer is not None:
            self.tracer.emit(
                "server.disconnect",
                session=session.name,
                requests=session.requests,
                aborted=aborted,
            )

    def _abort_session(self, session: Session) -> int:
        """Abort and close the handles a session leaves open, except one
        in 2PC (that decides it); returns how many had run anywhere."""
        aborted = 0
        for handle, record in list(session.transactions.items()):
            if record.completing:
                continue
            if record.bound:
                self._abort(abort_round(handle, record.participants))
                aborted += 1
            session.close_transaction(handle)
        return aborted

    def _abort(self, ops: List[Tuple[int, Any]]) -> None:
        """Deliver a round of abort verdicts, whose replies nobody reads:
        direct calls on non-blocking shards; on blocking ones each rides
        its shard's next batch (a drain stops a worker only after what
        its queue holds)."""
        deliver = self._post if self._queues else self.pool.deliver
        for index, op in ops:
            deliver(index, op)

    # ------------------------------------------------------------------
    # Serving one read (runs in data_received)
    # ------------------------------------------------------------------

    def _serve(self, connection: _Connection, data: bytes) -> None:
        """Answer everything one read completed, with one write.

        Each frame is admitted in arrival order.  What admission answers
        itself joins the read's replies; a request routed to a blocking
        shard goes onto that shard's queue, for its worker's next batch;
        one routed to a non-blocking shard executes right here, so its
        reply joins the others in request order.
        """
        session = connection.session
        queues = self._queues
        tracer = self.tracer
        timed = tracer is not None and tracer.active
        out: List[bytes] = []
        answered: List[Tuple[Any, ...]] = []
        poisoned = False
        try:
            for body in connection.decoder.feed_iter(data):
                routed = self._admit(session, body)
                if type(routed) is bytes:
                    out.append(routed)
                elif queues:
                    # The admission timestamp anchors the queue phase
                    # the worker measures.
                    admitted = tracer.clock() if timed else None
                    request, index = routed
                    record = session.transactions.get(request.params.get("transaction"))
                    if request.action in ("commit", "abort") and record.cross_shard:
                        self._hand_over(connection, request, record, index, admitted)
                    else:
                        queues[index].put_nowait((connection, request, index, admitted))
                else:
                    self._execute(session, *routed, out, answered)
        except FrameError as exc:
            # Typed error, then disconnect: the stream offset is
            # unrecoverable after a framing violation — but the frames
            # this read completed before it keep their answers.
            self.stats["errors"] += 1
            out.append(error_frame(None, exc.code, exc.message))
            poisoned = True
        self._flush({connection: out}, answered)
        if poisoned:
            connection.transport.close()  # after the replies are flushed

    def _admit(self, session: Session, body: Dict[str, Any]) -> Any:
        """Admit one decoded frame: the reply frame when it can be
        answered here (pure bookkeeping or a refusal, no shard involved),
        else the routed ``(request, shard index)``.  Every parsed request
        leaves one event — ``server.request`` with the shard it went to
        (None when answered here), or ``server.busy`` — carrying the
        client's trace context: its ``sent`` stamp against the event's own
        ``ts`` is the client→server leg of the end-to-end span."""
        try:
            request = parse_request(body)
        except WireError as exc:
            self.stats["errors"] += 1
            return error_frame(body.get("id"), exc.code, exc.message)
        session.requests += 1
        tracer = self.tracer
        worker, depth = None, 0
        routed = self._answer(session, request)
        if type(routed) is int:
            # Requests wait only for a blocking shard, in its queue; a
            # non-blocking one executes them as they arrive.
            worker, queues = routed, self._queues
            depth = queues[worker].qsize() if queues else 0
            if depth >= self.queue_limit:
                self.stats["busy"] += 1
                if tracer is not None:
                    tracer.emit(
                        "server.busy",
                        session=session.name,
                        action=request.action,
                        trace=request.trace_id,
                        sent=request.sent,
                        transaction=request.params.get("transaction"),
                        shard=worker,
                        queue_depth=depth,
                    )
                return error_frame(
                    request.id,
                    "BUSY",
                    f"worker {worker} queue at high-water mark "
                    f"({self.queue_limit}); retry",
                )
            self.stats["requests"] += 1
            if queues:
                depth += 1  # with this request, about to be queued there
            routed = request, worker
        if tracer is not None:
            tracer.emit(
                "server.request",
                session=session.name,
                action=request.action,
                trace=request.trace_id,
                sent=request.sent,
                transaction=request.params.get("transaction"),
                shard=worker,
                queue_depth=depth,
            )
        return routed

    def _answer(self, session: Session, request: Request) -> Any:
        """The reply frame for a request no shard is needed for, else the
        index of the shard it routes to."""
        action = request.action
        if action in ("stats", "health"):
            # Introspection never waits behind shard work — it must stay
            # responsive exactly when the queues are saturated.
            return response_frame(request.id, self._introspect(action))
        if action == "ping":
            return response_frame(
                request.id,
                {
                    "protocol_version": PROTOCOL_VERSION,
                    "workers": self.workers,
                    "draining": self.draining,
                    "objects": sorted(self._catalog),
                },
            )
        if action in ("commit", "abort"):
            cached = session.cached_ack(request.id)
            if cached is not None:
                return response_frame(request.id, cached)
        if action == "begin":
            if self.draining:
                return error_frame(request.id, "SHUTTING_DOWN", "server is draining")
            handle = session.mint_handle()
            session.open_transaction(handle)
            return response_frame(request.id, {"transaction": handle})
        # Everything else routes to a shard.
        try:
            worker = self._route(session, request)
        except WireError as exc:
            self.stats["errors"] += 1
            return error_frame(request.id, exc.code, exc.message)
        if worker is None:
            # A completion for a transaction that never touched an
            # object: decide it here, no shard involved.
            return self._completed(session, request)
        if self._stopping:
            return error_frame(request.id, "SHUTTING_DOWN", "server is draining")
        return worker

    def _execute(
        self,
        session: Session,
        request: Request,
        index: int,
        out: List[bytes],
        answered: List[Tuple[Any, ...]],
    ) -> None:
        """Run one routed request on non-blocking shard ``index`` and
        append its reply to ``out``: plan, call, finish.  Nothing here
        suspends (a non-blocking shard set is called directly even for
        2PC and respawn), so requests execute in arrival order."""
        tracer = self.tracer
        timed = tracer is not None and tracer.active
        begun = tracer.clock() if timed else 0.0
        plan = self._plan(session, request, index)
        if type(plan) is list:
            try:
                replies = self.pool.shards[index].call(plan)
            except ShardDown:
                out.append(self._shard_down_frame(request, index))
                self._shard_down(index, {})  # `out` leaves with the read
                return
            frame = self._finish(session, request, index, replies[-1])
        elif type(plan) is bytes:
            frame = plan
        else:
            frame = self.pool.drive(self._complete_cross(session, request, plan))
        out.append(frame)
        if timed:
            done = tracer.clock()
            answered.append((session, request, index, 0.0, done - begun, done))

    def _flush(
        self,
        outbox: Dict[_Connection, List[bytes]],
        answered: List[Tuple[Any, ...]],
    ) -> None:
        """Write each connection's pending replies with one write, then
        emit ``server.respond`` for the shard-executed ones among them.
        ``respond`` is stamped after the write, so it includes a reply's
        wait for its batch-mates and the three phases sum to the
        request's residence in the server.  A write never waits (the
        transport buffers what the socket will not take); one for a
        connection already closing is dropped.  Empties both arguments."""
        for connection, frames in outbox.items():
            if frames and not connection.transport.is_closing():
                connection.transport.write(b"".join(frames))
        outbox.clear()
        if answered:
            tracer = self.tracer
            responded = tracer.clock()
            for session, request, worker, queued, executing, done in answered:
                tracer.emit(
                    "server.respond",
                    session=session.name,
                    action=request.action,
                    trace=request.trace_id,
                    transaction=request.params.get("transaction"),
                    shard=worker,
                    queue=queued,
                    execute=executing,
                    respond=max(0.0, responded - done),
                )
            answered.clear()

    def _introspect(self, action: str) -> Dict[str, Any]:
        """The ``stats`` / ``health`` result body (inline, read-only)."""
        uptime = (
            asyncio.get_running_loop().time() - self._started_at
            if self._started_at is not None
            else None
        )
        health = {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "workers": self.workers,
            "connections": len(self._connections),
            "objects": len(self._catalog),
            "uptime": uptime,
        }
        if action == "health":
            return health
        result: Dict[str, Any] = dict(health)
        result["server"] = dict(self.stats)
        result["queue_limit"] = self.queue_limit
        # One depth per shard; a non-blocking shard has no queue: 0.
        result["queues"] = [queue.qsize() for queue in self._queues] or (
            [0] * self.workers
        )
        if self.pool.blocking:
            result["pool"] = self.pool.status()  # processes to supervise
        if self.tracer is not None:
            result["sink_failures"] = len(self.tracer.failures)
        if self.registry is not None:
            result["metrics"] = self.registry.snapshot()
        if self.flight is not None:
            result["flight"] = self.flight.status()
        if self.profiler is not None:
            result["profiler"] = self.profiler.status()
        return result

    def _route(self, session: Session, request: Request) -> Optional[int]:
        """The worker shard for one request (None: decide inline).

        Raises :class:`WireError` for unknown objects/handles — refused
        before consuming queue budget.
        """
        action = request.action
        params = request.params
        if action == "create":
            if self.draining:
                raise WireError("SHUTTING_DOWN", "server is draining")
            name = params.get("name")
            if not isinstance(name, str) or not name:
                raise WireError("BAD_REQUEST", "create needs a non-empty name")
            return shard_for(name, self.workers)
        handle = params.get("transaction")
        if not isinstance(handle, str):
            raise WireError("BAD_REQUEST", f"{action} needs a transaction handle")
        try:
            record = session.lookup(handle)
        except SessionError:
            raise WireError(
                "UNKNOWN_TXN", f"no open transaction {handle!r} on this session"
            ) from None
        if record.completing:
            raise WireError("UNKNOWN_TXN", f"transaction {handle!r} is completing")
        if action == "invoke":
            obj = params.get("obj")
            if not isinstance(obj, str):
                raise WireError("BAD_REQUEST", "invoke needs an obj name")
            if not isinstance(params.get("operation"), str):
                raise WireError("BAD_REQUEST", "invoke needs an operation name")
            owner = self._catalog.get(obj)
            if owner is None:
                raise WireError("UNKNOWN_OBJECT", f"no managed object {obj!r}")
            return owner
        # commit / abort run on the primary (the 2PC decider).
        return record.primary

    # ------------------------------------------------------------------
    # Workers (one per blocking shard, one bounded queue each)
    # ------------------------------------------------------------------

    async def _worker(self, index: int) -> None:
        """Serve one blocking shard's queue: plan ops, call the shard, answer.

        The worker is its shard pipe's one owner: it drains its queue into
        one *batch* and awaits the shard's ``acall`` on the loop — one
        round-trip, one group-commit fsync for the lot; under load the
        queue is never empty, so the cost amortises across every queued
        request.  The batch's replies leave with one write per connection;
        round ops (:meth:`_post`: 2PC, resolution) get theirs through their
        futures, after a death's :meth:`_shard_down` has run."""
        queue = self._queues[index]
        shard = self.pool.shards[index]
        tracer = self.tracer
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < BATCH_LIMIT:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stopping = True
                    break
                batch.append(extra)
            timed = tracer is not None and tracer.active
            started = tracer.clock() if timed else 0.0
            plans = []
            ops: List[Dict[str, Any]] = []
            for connection, request, _shard, admitted in batch:
                if connection is None:
                    plan = [request]  # a 2PC op
                else:
                    plan = self._plan(connection.session, request, index)
                    if type(plan) is TxnRecord:
                        self._hand_over(connection, request, plan, index, admitted)
                plans.append(plan)
                if type(plan) is list:
                    ops.extend(plan)
            outbox: Dict[_Connection, List[bytes]] = {}
            answered: List[Tuple[Any, ...]] = []
            replies: Any = ()
            if ops:
                try:
                    replies = await shard.acall(ops)
                except ShardDown:
                    replies = None
                    for (connection, request, *_), plan in zip(batch, plans):
                        if connection is not None and type(plan) is list:
                            outbox.setdefault(connection, []).append(
                                self._shard_down_frame(request, index)
                            )
                    self._shard_down(index, outbox)
            executed = tracer.clock() if timed else 0.0
            span, offset = executed - started, 0
            for item, plan in zip(batch, plans):
                connection, request, worker, admitted = item
                if type(plan) is list:
                    offset += len(plan)
                    reply = None if replies is None else replies[offset - 1]
                    if connection is None:
                        admitted.set_result(reply)  # None: its shard died
                        continue
                    if reply is None:
                        continue  # answered SHARD_DOWN above
                    frame = self._finish(connection.session, request, index, reply)
                elif type(plan) is bytes:
                    frame = plan
                else:
                    continue  # its 2PC task answers it
                outbox.setdefault(connection, []).append(frame)
                if timed:
                    queued = 0.0 if admitted is None else max(0.0, started - admitted)
                    answered.append(
                        (connection.session, request, worker, queued, span, executed)
                    )
            self._flush(outbox, answered)

    def _plan(self, session: Session, request: Request, index: int) -> Any:
        """Translate one admitted request into ops for shard ``index``.

        Returns the list of ops (:meth:`_finish` turns the reply to the
        last one into the response); or the response frame itself, for a
        request answerable without the shard; or the
        :class:`~repro.server.session.TxnRecord` of a multi-shard
        completion, which :meth:`_complete_cross` runs 2PC over.
        """
        action = request.action
        params = request.params
        rid = request.id
        if action == "create":
            name = params.get("name")
            if name in self._catalog:
                return error_frame(
                    rid, "BAD_REQUEST", f"object {name!r} already exists"
                )
            return [
                {
                    "op": "create",
                    "name": name,
                    "adt": params.get("adt", "Counter"),
                    "protocol": params.get("protocol"),
                }
            ]
        handle = params.get("transaction")
        record = session.transactions.get(handle)
        if record is None:
            # Completed (or aborted by a disconnect race) since
            # admission — for completions, the ack cache answers.
            cached = session.cached_ack(rid)
            if cached is not None:
                return response_frame(rid, cached)
            return error_frame(rid, "UNKNOWN_TXN", f"no open transaction {handle!r}")
        if action == "invoke":
            args = params.get("args", ())
            if not isinstance(args, (tuple, list)):
                return error_frame(rid, "BAD_REQUEST", "args must be a sequence")
            ops = [
                {
                    "op": "invoke",
                    "txn": handle,
                    "obj": params["obj"],
                    "operation": params["operation"],
                    "args": args,
                }
            ]
            if index not in record.participants:
                record.touch(index)
                # First touch of this shard begins the transaction here
                # — quietly on a non-primary participant: the one loud
                # txn.begin came from the primary, and the checker
                # rejects duplicates.
                ops.insert(
                    0,
                    {"op": "begin", "name": handle, "quiet": record.primary != index},
                )
            return ops
        if record.cross_shard:
            return record
        return [{"op": action, "txn": handle}]  # commit / abort

    def _finish(
        self, session: Session, request: Request, index: int, reply: Dict[str, Any]
    ) -> bytes:
        """The response frame for the engine's reply to a planned request."""
        rid = request.id
        if "error" in reply:
            return self._error(rid, reply)
        action = request.action
        params = request.params
        if action == "create":
            name = params["name"]
            self._catalog[name] = index
            return response_frame(
                rid,
                {"obj": name, "adt": params.get("adt", "Counter"), "worker": index},
            )
        if action == "invoke":
            result = {
                "transaction": params["transaction"],
                "obj": params["obj"],
                "result": reply["ok"],
            }
            return response_frame(rid, result)
        return self._completed(session, request, reply["ok"])

    def _error(self, rid: int, reply: Dict[str, Any]) -> bytes:
        """The frame for an engine error reply."""
        if reply["error"] == "INTERNAL":
            self.stats["errors"] += 1
        return error_frame(rid, reply["error"], reply["message"])

    def _completed(
        self, session: Session, request: Request, timestamp: Any = None
    ) -> bytes:
        """Record a commit/abort decision: close the handle, remember the
        ack for retransmits, count it; returns the response frame."""
        handle = request.params["transaction"]
        if request.action == "commit":
            result = {"transaction": handle, "timestamp": timestamp, "committed": True}
            self.stats["transactions_committed"] += 1
        else:
            result = {"transaction": handle, "aborted": True}
            self.stats["transactions_aborted"] += 1
        session.close_transaction(handle)
        session.record_ack(request.id, result)
        return response_frame(request.id, result)

    def _hand_over(self, connection, request, record, index, admitted) -> None:
        """Give a multi-shard completion on blocking shards to a task of
        its own, which owns the handle until it decides, then answers."""
        record.completing = True

        async def complete() -> None:
            tracer = self.tracer
            timed = tracer is not None and tracer.active
            begun = tracer.clock() if timed else 0.0
            frame = await self._drive(
                self._complete_cross(connection.session, request, record)
            )
            answered: List[Tuple[Any, ...]] = []
            if timed:
                done = tracer.clock()
                queued = max(0.0, begun - admitted) if admitted is not None else 0.0
                answered.append(
                    (connection.session, request, index, queued, done - begun, done)
                )
            self._flush({connection: [frame]}, answered)

        self._track(complete())

    def _track(self, work: Awaitable[Any]) -> None:
        """Run ``work`` in a task of its own, which drain waits for."""
        task = asyncio.ensure_future(work)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _complete_cross(
        self, session: Session, request: Request, record: TxnRecord
    ) -> Rounds:
        """Complete a multi-shard transaction — presumed-abort 2PC for a
        commit, an abort on every participant otherwise — as a round
        procedure whose outcome is the response frame: driven by the
        shard set on non-blocking shards, by :meth:`_drive` on blocking
        ones."""
        handle, participants = request.params["transaction"], record.participants
        if request.action == "abort":
            yield abort_round(handle, participants)
            return self._completed(session, request)
        reply = yield from two_phase_commit(handle, participants, record.primary)
        if "error" in reply:
            # The 2PC already aborted the transaction on every
            # participant; the handle is finished, not leaked.
            session.close_transaction(handle)
            self.stats["transactions_aborted"] += 1
            return self._error(request.id, reply)
        return self._completed(session, request, reply["ok"])

    async def _drive(self, rounds: Rounds) -> Any:
        """Run a round procedure (2PC, resolution) over blocking shards to
        its outcome, each round through :meth:`_round`."""
        try:
            ops = next(rounds)
            while True:
                ops = rounds.send(await self._round(ops))
        except StopIteration as done:
            return done.value

    async def _round(self, ops: List[Tuple[int, Any]]) -> List[Any]:
        """One round's replies, in order: every op is posted at once, to
        ride its shard's next batch.  None answers an op its shard died
        under; a commit verdict is then posted again, for the respawned
        worker, until it is acked — or until the shard stays down, for
        the next start's resolution to apply."""
        shards = self.pool.shards

        async def deliver(index: int, op: Dict[str, Any]) -> Any:
            while True:
                reply = await self._post(index, op)
                if reply is not None or op["op"] != "apply_commit":
                    return reply
                if not shards[index].alive:
                    return None

        return list(await asyncio.gather(*(deliver(i, op) for i, op in ops)))

    def _post(self, index: int, op: Dict[str, Any]) -> asyncio.Future:
        """Queue a round op for its shard's next batch, the future to get
        its reply — never BUSY, no event, no request counted."""
        future = asyncio.get_running_loop().create_future()
        self._queues[index].put_nowait((None, op, index, future))
        return future

    def _shard_down_frame(self, request: Request, index: int) -> bytes:
        """The typed answer for a request its shard died under."""
        self.stats["errors"] += 1
        return error_frame(
            request.id,
            "SHARD_DOWN",
            f"shard {index} worker died; its active transactions are"
            " presumed aborted",
        )

    def _shard_down(self, index: int, outbox: Dict[_Connection, List[bytes]]) -> None:
        """A shard died under a call: clean up, answer, respawn.

        Every handle that touched the dead shard is aborted on its
        surviving participants and closed (never leaked — the dead
        shard's own active transactions died with its volatile state;
        prepared ones are resurrected from the WAL and resolved after the
        respawn) — except one in 2PC, whose coordinator hears of the death.
        On blocking shards the aborts are posted, not awaited: two dying
        shards must not wait on each other.  Then the typed ``SHARD_DOWN``
        answers waiting in ``outbox`` leave (:meth:`_shard_down_frame` —
        never stranded): a client that reacts to one finds its handle
        gone, not half cleaned.  Last a new incarnation is spawned (it
        replays its log) — unless the server is draining, or the last
        one could not start: that shard stays down and every request for
        it answers ``SHARD_DOWN``.  A non-blocking set resolves the new
        incarnation's prepared set right here; on blocking shards a task
        drives :func:`~repro.server.engine.resolve_prepared` through the
        queues, and no caller waits for it.
        """
        for connection in self._connections:
            session = connection.session
            for handle, record in list(session.transactions.items()):
                if index not in record.participants or record.completing:
                    continue
                self._abort(abort_round(handle, set(record.participants) - {index}))
                session.close_transaction(handle)
                self.stats["transactions_aborted"] += 1
        self._flush(outbox, [])
        if not self._stopping and self.pool.revive(index):
            resolution = resolve_prepared(index, self.workers)
            if self._queues:
                self._track(self._drive(resolution))
            else:
                self.pool.drive(resolution)
