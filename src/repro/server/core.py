"""The serving core: one request pipeline, whatever the shards sit behind.

The wire tier's controller, written once as rules over bytes, replies
and a clock: it imports no event loop and reads no clock (``now`` is
passed in; the tracer's clock is the bus's own).  The asyncio shell,
:class:`~repro.server.server.ReproServer`, feeds it what each read
completed, writes what it queues on each :class:`Channel`, and calls the
shards when it *kicks* one.

Each decoded frame is admitted in arrival order (:meth:`ServerCore.feed`):
answered on the spot when no shard is needed (``begin``, ``ping``,
``stats``, a cached ack, a refusal), else routed to one shard, *planned*
(its ops fixed; a first touch of the shard recorded among the
transaction's participants and begun there) and appended to that shard's
pending FIFO — one per shard, for every transport; ``BUSY`` refuses an
admission once it holds ``queue_limit``.  A completion fixes the
participants (an invoke behind it is refused); a multi-shard one starts
its round procedure there, its ops queued behind all admitted before it.
The shard is kicked once per *run*: the consecutive frames of a read
routed to it, cut by a frame routed elsewhere, by one answered at
admission or a multi-shard completion (the run is kicked first), after
``min(BATCH_LIMIT, queue_limit)`` frames, after a ``create`` (later
frames route by the catalog it fills), and at the end of the read.  A
non-blocking shard takes a run as one batch, each request starting at
its own admission stamp, so replies to a connection leave in request
order (a parked request's excepted); a blocking shard's kick schedules
one post per loop turn, which takes what its FIFO holds then.  Objects
are sharded by a stable CRC32 of their name; a transaction is pinned to
the shard of the first object it touches (its *primary*), its
:class:`~repro.server.session.TxnRecord` lists every shard it touched,
and shard *i* of *W* mints only timestamps ≡ *i* (mod *W*), so a merged
trace still certifies.  Whatever the transport, a
shard call is :meth:`ServerCore.take` (pop a batch, ending it at a
completion that has waiters), the call, and :meth:`ServerCore.settle`
(a reply per request, but no second decision for one whose handle closed
before it settled; a refused invocation parks; a dead shard answers
``SHARD_DOWN`` for its batch, is cleaned up and respawned from its WAL).

One driver runs every round procedure — a multi-shard completion
(presumed-abort 2PC, or an abort everywhere) and each prepared-set
resolution: every shard's at start-up, queued as the core is built so
that it heads each FIFO (the shell runs it out before it accepts a
connection), and a respawned shard's.  A round's ops join their shards'
FIFOs carrying a continuation instead of a request, and its last settled
reply sends the round's replies into the procedure.  An ``apply_commit``
its shard died under is pushed again for the respawned incarnation until
acked — the one retry-through-death rule.

An ``invoke`` refused ``CONFLICT`` *parks* on the holder the reply names
when that is an open handle here that is not itself waiting (the
:class:`~repro.runtime.waiting.WaitRegistry` rule) and its own
multi-shard completion is not admitted.  Closing the holder wakes it: it
leaves ``parked`` for the *front* of its shard's FIFO (behind only the
abort verdicts and waiters pushed there before it), and a batch ends at
a completion that has waiters, so it re-executes before any request
admitted after its holder closed.  Else it is answered ``CONFLICT`` once
``now`` passes its deadline (:meth:`ServerCore.expire`) or its own
completion is admitted (multi-shard) or settles.  Disconnect, drain and
shard death share one close: the handles concerned, but one whose
completion was admitted (on its live shards), are aborted and closed,
and what they left parked or queued — and every
request but a ``create`` queued for a dead shard — never runs: it
answers ``SHUTTING_DOWN``, ``SHARD_DOWN`` or, for a lost connection,
nothing.

Telemetry is per batch: each admitted request adds a row to the next
``server.request``, emitted before each run's kick (so it precedes the
``txn.*`` events the run causes), before a round starts, ahead of a
``server.busy`` and at the end of the read; :meth:`ServerCore.responded`
emits one ``server.respond`` per write of the shell, a row per reply.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..runtime.waiting import WaitRegistry
from .engine import Rounds, abort_round, resolve_prepared, shard_for, two_phase_commit
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
from .session import Session, TxnRecord

__all__ = ["BATCH_LIMIT", "WAIT_BOUND", "Channel", "ServerCore"]

#: Most requests one shard call carries: bounds a batch's latency, not
#: its durability (the engine's log bounds its own staging).
BATCH_LIMIT = 64

#: Longest a refused invocation waits for its lock holder, in seconds of
#: the shell's clock, before it is answered ``CONFLICT`` after all.
WAIT_BOUND = 0.5

#: What a waiting invocation is answered when its own handle completes or
#: is closed under it (a lost connection's is answered nothing).
_CLOSED_UNDER = {
    "CONFLICT": "its transaction completed under it",
    "SHUTTING_DOWN": "server is draining",
}


def _invoke_op(params: Dict[str, Any]) -> Dict[str, Any]:
    """The engine op an ``invoke`` request's params stand for."""
    return {
        "op": "invoke",
        "txn": params["transaction"],
        "obj": params["obj"],
        "operation": params["operation"],
        "args": params.get("args", ()),
    }


class Channel:
    """One client connection as the core sees it: its session (set by
    :meth:`ServerCore.connect`), its frame decoder, and the reply frames
    waiting to be written, in order."""

    def __init__(self) -> None:
        self.session: Session
        self.decoder = FrameDecoder()
        self.out: List[bytes] = []


class _Parked:
    """An invocation refused ``CONFLICT``, waiting for its lock holder.

    It is live while it is the core's ``parked`` entry for its handle;
    whoever takes it out of there answers it or, at the wake, re-queues it.
    """

    __slots__ = ("channel", "request", "index", "refusal", "deadline")

    def __init__(self, channel, request, index, refusal, deadline):
        self.channel = channel
        self.request = request
        self.index = index
        #: The engine's CONFLICT reply, answered if the wait runs out.
        self.refusal = refusal
        #: When the wait runs out.
        self.deadline = deadline


class _Round:
    """A round procedure in flight: its current round's replies, and the
    ``(channel, request, shard, started)`` its outcome answers (None for a
    resolution, whose outcome nobody reads)."""

    __slots__ = ("rounds", "replies", "missing", "answers")

    def __init__(self, rounds: Rounds, answers: Any = None):
        self.rounds = rounds
        self.replies: List[Any] = []
        self.missing = 0
        self.answers = answers


class ServerCore:
    """Sessions, admission, the shards' FIFOs, parking and the round
    driver over a :class:`~repro.server.engine.ShardSet`.  ``kick(index)``
    asks the shell for ``take → call → settle`` on shard ``index``;
    replies wait on the channels in ``dirty`` for the shell's write."""

    def __init__(
        self,
        pool: Any,
        kick: Callable[[int], None],
        queue_limit: int = 64,
        tracer: Any = None,
        registry: Any = None,
        flight: Any = None,
    ):
        self.pool = pool
        self.workers = pool.workers
        self.queue_limit = queue_limit
        self.tracer = tracer
        self.registry = registry
        self.flight = flight
        self.kick = kick
        #: object name -> owning shard index.
        self.catalog: Dict[str, int] = {}
        #: One FIFO of work per shard: ``(ops, channel, request, stamp)`` per
        #: client request (admitted, or woken, at ``stamp``; None untraced),
        #: ``([op], None, None, continuation)`` per round op.
        self.pending: List[Deque[Tuple[Any, Any, Any, Any]]] = [
            deque() for _ in range(self.workers)
        ]
        #: How many items at the head of each FIFO were pushed in front.
        self._front = [0] * self.workers
        #: Per shard, the batch :meth:`take` handed out and :meth:`settle`
        #: has not settled yet.
        self._batches: List[Any] = [None] * self.workers
        #: Work was pushed since the last dispatch.
        self._pushed = False
        #: A run's kick is running: a take now is the run as admitted.
        self._as_admitted = False
        #: session name -> its connection (a CONFLICT names a handle, and
        #: a handle is "<session name>.t<n>": Session.mint_handle).
        self.channels: Dict[str, Channel] = {}
        self._session_ids = itertools.count(1)
        self.waits = WaitRegistry(tracer)
        #: waiter handle -> its parked request, until it is answered.
        self.parked: Dict[str, _Parked] = {}
        #: Round procedures in flight (2PCs, resolutions).
        self.rounds = 0
        self.dirty: List[Channel] = []
        #: The replies written since the last ``server.respond``: their
        #: rows but the ``respond`` phase, and when they were executed.
        self.answered: List[Tuple[Any, ...]] = []
        #: The rows (``obs.events.REQUEST_ROW``) of the requests admitted
        #: since the last ``server.request``.  Rows and their batch are
        #: tuples: the garbage collector stops tracking a tuple of scalars,
        #: and the flight ring keeps 2,048 events alive, where a list would
        #: stay tracked.
        self._requests: Tuple[Tuple[Any, ...], ...] = ()
        #: The shell's clock at the entry point being applied.
        self.now = 0.0
        self.started_at: Optional[float] = None
        self.draining = False
        #: No shard admissions or respawns any more (late in a drain).
        self.stopping = False
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
        # What recovery left prepared is settled before any request can
        # meet its locks: each shard's resolution is its first work.
        for index in range(self.workers):
            self._start(_Round(resolve_prepared(index, self.workers)))

    # -- entry points --------------------------------------------------

    def connect(self, channel: Channel, peer: str = "?") -> None:
        """Open a session for a new connection."""
        session = channel.session = Session(next(self._session_ids), peer=peer)
        self.channels[session.name] = channel
        self.stats["connections"] += 1
        if self.tracer is not None:
            self.tracer.emit("server.connect", session=session.name, peer=peer)

    def disconnect(self, channel: Channel, now: float) -> None:
        """The connection is gone: abort what its session left open (but
        a transaction whose completion was admitted: that decides it)."""
        self.now = now
        session = channel.session
        aborted = self._abort_open([session], None)
        self.stats["transactions_aborted"] += aborted
        del self.channels[session.name]
        self._dispatch()  # what its aborts woke
        if self.tracer is not None:
            self.tracer.emit(
                "server.disconnect",
                session=session.name,
                requests=session.requests,
                aborted=aborted,
            )

    def abort_sessions(self, code: str, now: float) -> int:
        """Abort every open handle whose completion was not admitted (a
        drain's stragglers); what they left waiting is answered ``code``.
        Returns how many had run anywhere."""
        self.now = now
        forced = self._abort_open([c.session for c in self.channels.values()], code)
        self._dispatch()
        return forced

    def feed(self, channel: Channel, data: bytes, now: float) -> bool:
        """Admit every frame one read completed, in arrival order, kicking
        a shard once per run of them and announcing what each run admitted
        in one ``server.request``; True when the stream hit a framing
        violation (answered, and then the connection must be closed: its
        offset is unrecoverable)."""
        self.now = now
        tracer = self.tracer
        timed = tracer is not None and tracer.active
        pending = self.pending
        # A run never outgrows one batch, nor the BUSY mark: a local
        # shard's FIFO holds only the run, so it never refuses.
        limit = min(BATCH_LIMIT, self.queue_limit)
        shard, run = 0, 0  # the run being gathered: its shard, its length
        try:
            for body in channel.decoder.feed_iter(data):
                routed = self._admit(channel, body)
                if type(routed) is not tuple:
                    if run:
                        self._announce(shard)  # its replies leave first
                        run = 0
                    if type(routed) is bytes:
                        out = channel.out  # _send, inlined on the hot path
                        if not out:
                            self.dirty.append(channel)
                        out.append(routed)
                    else:  # a multi-shard completion's round
                        self._announce()
                        self._start(routed)
                        self._dispatch()
                    continue
                ops, request, index = routed
                if run and index != shard:
                    self._announce(shard)
                    run = 0
                # The admission stamp: where its queue phase begins, or
                # its execute phase when its run is taken as admitted.
                pending[index].append(
                    (ops, channel, request, tracer.clock() if timed else None)
                )
                shard = index
                run += 1
                if run >= limit or request.action == "create":
                    self._announce(index)
                    run = 0
        except FrameError as exc:
            # The frames this read completed before it keep their answers.
            self._announce(shard if run else None)
            self.stats["errors"] += 1
            self._send(channel, error_frame(None, exc.code, exc.message))
            return True
        if run or self._requests:
            self._announce(shard if run else None)
        return False

    def take(self, index: int) -> List[Dict[str, Any]]:
        """Pop the next batch of shard ``index``'s FIFO and return its ops;
        :meth:`settle` must be given their replies.  A batch ends at a
        completion that has waiters: what follows waits for the waiters it
        wakes, which re-queue at the front."""
        fifo, tracer = self.pending[index], self.tracer
        if self._as_admitted:
            # A run taken as it was admitted: each request starts at its
            # own admission stamp, so none has a queue phase.
            self._as_admitted = False
            started = None
        else:
            started = tracer.clock() if tracer is not None and tracer.active else 0.0
        batch, ops = [], []
        while fifo and len(batch) < BATCH_LIMIT:
            item = fifo.popleft()
            batch.append(item)
            ops += item[0]
            request = item[2]
            if (
                self.parked
                and request is not None
                and request.action in ("commit", "abort")
                and self.waits.waited_on(request.params["transaction"])
            ):
                break
        front = self._front
        if front[index]:
            front[index] = max(0, front[index] - len(batch))
        self._batches[index] = (batch, started)
        return ops

    def settle(self, index: int, replies: Optional[List[Any]], now: float) -> None:
        """Answer the batch :meth:`take` handed out, given its replies in
        order — None when the shard died under the call."""
        self.now = now
        batch, started = self._batches[index]
        self._batches[index] = None
        tracer = self.tracer
        timed = tracer is not None and tracer.active
        executed = tracer.clock() if timed else 0.0
        if replies is None:
            self._shard_down(index)
        offset, dirty, answered = 0, self.dirty, self.answered
        for item in batch:
            ops, channel, request, tag = item
            offset += len(ops)
            reply = None if replies is None else replies[offset - 1]
            if channel is None:
                if tag is not None:
                    self._answer_round(index, item, reply)
                continue
            if reply is None:
                self._send(channel, self._shard_down_frame(request, index))
                continue
            frame = self._finish(channel, request, index, reply)
            if frame is None:
                continue  # parked
            out = channel.out  # _send, inlined on the hot path
            if not out:
                dirty.append(channel)
            out.append(frame)
            if timed:
                if started is None:  # taken as admitted: it began there
                    queued, span = 0.0, 0.0 if tag is None else executed - tag
                else:
                    queued = 0.0 if tag is None else started - tag
                    span = executed - started
                entry = (channel.session, request, index, queued, span, executed)
                answered.append(entry)
        if self._pushed or self.pending[index]:
            self._dispatch()

    def expire(self, now: float) -> None:
        """Answer ``CONFLICT`` to every parked request whose deadline
        ``now`` has reached, withdrawing its wait."""
        self.now = now
        for handle, parked in list(self.parked.items()):
            if parked.deadline > now:
                break  # deadlines rise in parking order
            del self.parked[handle]
            self.waits.cancel(handle)
            request = parked.request
            frame = self._error(request.id, parked.refusal)
            self._reply(parked.channel, request, parked.index, frame)

    def drained(self, active_at_start: int, forced: int) -> Dict[str, int]:
        """A drain's report, announced as ``server.drain``."""
        sessions, finished = len(self.channels), max(0, active_at_start - forced)
        if self.tracer is not None:
            self.tracer.emit(
                "server.drain", sessions=sessions, finished=finished, aborted=forced
            )
        return {"sessions": sessions, "finished": finished, "aborted": forced}

    def deadline(self) -> Optional[float]:
        """The earliest deadline of a parked request (None: none waits)."""
        parked = self.parked
        return next(iter(parked.values())).deadline if parked else None

    def responded(self) -> None:
        """Emit one ``server.respond`` for the replies answered since the
        last call, a row each, stamped now — after the shell's write, so a
        reply's ``respond`` phase includes its wait for its batch-mates and
        the three phases sum to the request's residence in the server."""
        tracer = self.tracer
        responded = tracer.clock()
        replies: Tuple[Tuple[Any, ...], ...] = ()  # a tuple: see _requests
        for session, request, worker, queued, executing, done in self.answered:
            replies += (
                (
                    session.name,
                    request.action,
                    request.trace_id,
                    request.params.get("transaction"),
                    worker,
                    queued,
                    executing,
                    max(0.0, responded - done),
                ),
            )
        self.answered.clear()
        tracer.emit("server.respond", replies=replies)

    # -- queues and replies --------------------------------------------

    def _send(self, channel: Channel, frame: bytes) -> None:
        out = channel.out
        if not out:
            self.dirty.append(channel)
        out.append(frame)

    def _push(self, index: int, item: Tuple[Any, ...], front=False) -> None:
        """Queue work for a shard: at the back, or ``front`` — ahead of
        everything but what was pushed in front before it."""
        self._pushed = True
        if front:
            self.pending[index].insert(self._front[index], item)
            self._front[index] += 1
        else:
            self.pending[index].append(item)

    def _announce(self, kick: Optional[int] = None) -> None:
        """Emit the rows admitted since the last call as one
        ``server.request`` (none: nothing); then, given ``kick``, kick that
        shard for the run just gathered on its FIFO — a non-blocking shard
        takes it right here, as it was admitted."""
        requests = self._requests
        if requests:
            self._requests = ()
            self.tracer.emit("server.request", requests=requests)
        if kick is not None:
            self._as_admitted = True
            self.kick(kick)
            self._as_admitted = False

    def _dispatch(self) -> None:
        """Kick every shard with work — but one whose batch is out: its
        :meth:`settle` ends here again."""
        self._pushed = False
        pending, batches = self.pending, self._batches
        for index in range(self.workers):
            if pending[index] and batches[index] is None:
                self.kick(index)

    # -- admission -----------------------------------------------------

    def _admit(self, channel: Channel, body: Dict[str, Any]) -> Any:
        """Admit one decoded frame: the reply frame when it can be
        answered here (pure bookkeeping or a refusal, no shard involved),
        else its plan (:meth:`_plan`) on the shard it routes to.  Every
        parsed request leaves a row of the next ``server.request`` — the
        shard it went to (None when answered here) and the FIFO length it
        found — or one ``server.busy``, carrying the client's trace
        context: its ``sent`` stamp against the event's ``ts`` is the
        client→server leg of the end-to-end span."""
        try:
            request = parse_request(body)
        except WireError as exc:
            self.stats["errors"] += 1
            return error_frame(body.get("id"), exc.code, exc.message)
        session = channel.session
        session.requests += 1
        tracer = self.tracer
        worker, depth = None, 0
        routed = self._answer(session, request)
        if type(routed) is int:
            worker = routed
            depth = len(self.pending[worker])
            if depth >= self.queue_limit:
                self.stats["busy"] += 1
                if tracer is not None:
                    self._announce()  # what was admitted before it
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
            routed = self._plan(channel, request, worker)
        if tracer is not None:
            self._requests += (
                (
                    session.name,
                    request.action,
                    request.trace_id,
                    request.sent,
                    request.params.get("transaction"),
                    worker,
                    depth,
                ),
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
                    "objects": sorted(self.catalog),
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
        if self.stopping:
            return error_frame(request.id, "SHUTTING_DOWN", "server is draining")
        return worker

    def _introspect(self, action: str) -> Dict[str, Any]:
        """The ``stats`` / ``health`` result body (inline, read-only)."""
        started = self.started_at
        health = {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "workers": self.workers,
            "connections": len(self.channels),
            "objects": len(self.catalog),
            "uptime": None if started is None else self.now - started,
        }
        if action == "health":
            return health
        result: Dict[str, Any] = dict(health)
        result["server"] = dict(self.stats, parked=len(self.parked))
        result["queue_limit"] = self.queue_limit
        result["queues"] = [len(fifo) for fifo in self.pending]
        status = getattr(self.pool, "status", None)
        if status is not None:
            result["pool"] = status()  # processes to supervise
        if self.tracer is not None:
            result["sink_failures"] = len(self.tracer.failures)
        if self.registry is not None:
            result["metrics"] = self.registry.snapshot()
        if self.flight is not None:
            result["flight"] = self.flight.status()
        return result

    def _route(self, session: Session, request: Request) -> Optional[int]:
        """The shard for one request (None: decide inline).

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
        record = session.transactions.get(handle)
        if record is None:
            raise WireError(
                "UNKNOWN_TXN", f"no open transaction {handle!r} on this session"
            )
        if record.completing and (action == "invoke" or record.deciding):
            raise WireError("UNKNOWN_TXN", f"transaction {handle!r} is completing")
        if action == "invoke":
            obj = params.get("obj")
            if not isinstance(obj, str):
                raise WireError("BAD_REQUEST", "invoke needs an obj name")
            if not isinstance(params.get("operation"), str):
                raise WireError("BAD_REQUEST", "invoke needs an operation name")
            if not isinstance(params.get("args", ()), (tuple, list)):
                raise WireError("BAD_REQUEST", "args must be a sequence")
            owner = self.catalog.get(obj)
            if owner is None:
                raise WireError("UNKNOWN_OBJECT", f"no managed object {obj!r}")
            return owner
        # commit / abort run on the primary (the 2PC decider).
        return record.primary

    # -- plan and finish -----------------------------------------------

    def _plan(self, channel: Channel, request: Request, index: int) -> Any:
        """What an admitted request runs on shard ``index`` — its ``(ops,
        request, index)``, a first touch of the shard recorded and begun
        (:meth:`_finish` answers the last op's reply) — or, for a
        multi-shard completion, the round procedure that completes it."""
        action = request.action
        params = request.params
        if action == "create":
            op = {
                "op": "create",
                "name": params["name"],
                "adt": params.get("adt", "Counter"),
                "protocol": params.get("protocol"),
            }
            return [op], request, index
        handle = params["transaction"]
        record = channel.session.transactions[handle]
        if action == "invoke":
            ops = [_invoke_op(params)]
            if record.touch(index):
                # First touch of this shard begins the transaction here —
                # quietly on a non-primary participant: the one loud
                # txn.begin came from the primary, and the checker
                # rejects duplicates.
                quiet = record.primary != index
                ops.insert(0, {"op": "begin", "name": handle, "quiet": quiet})
            return ops, request, index
        # Its participants are final: an invoke behind it is refused, so
        # none touches a shard the completion passes over.
        record.completing = True
        if record.deciding:
            # Its invokes cannot wait any more (:meth:`_park` declines
            # them), so none runs after the prepare: a parked one is
            # answered now.
            if self.parked:
                self._withdraw(handle, "CONFLICT")
            started = self.tracer.clock() if self.tracer is not None else 0.0
            rounds = self._cross(channel.session, request, record)
            return _Round(rounds, (channel, request, index, started))
        return [{"op": action, "txn": handle}], request, index  # commit / abort

    def _finish(
        self, channel: Channel, request: Request, index: int, reply: Dict[str, Any]
    ) -> Optional[bytes]:
        """The response frame for the engine's reply to a planned request
        — None when a refused invocation parks instead.  One whose handle
        closed before the reply settled is answered without a decision: an
        invoke ``CONFLICT``, a completion its cached ack or ``UNKNOWN_TXN``."""
        rid, action, params = request.id, request.action, request.params
        session = channel.session
        if action != "create" and params["transaction"] not in session.transactions:
            if action == "invoke":
                return error_frame(rid, "CONFLICT", _CLOSED_UNDER["CONFLICT"])
            cached = session.cached_ack(rid)
            if cached is not None:
                return response_frame(rid, cached)
            message = f"no open transaction {params['transaction']!r}"
            return error_frame(rid, "UNKNOWN_TXN", message)
        if "error" in reply:
            if reply["error"] == "CONFLICT" and self._park(channel, request, index, reply):
                return None
            return self._error(rid, reply)
        if action == "create":
            name = params["name"]
            self.catalog[name] = index
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
        self._close(session, handle, "CONFLICT")
        session.record_ack(request.id, result)
        return response_frame(request.id, result)

    def _shard_down_frame(self, request: Request, index: int) -> bytes:
        """The typed answer for a request its shard died under."""
        self.stats["errors"] += 1
        return error_frame(
            request.id,
            "SHARD_DOWN",
            f"shard {index} worker died; its active transactions are"
            " presumed aborted",
        )

    # -- closing handles -----------------------------------------------

    def _abort(self, ops: List[Tuple[int, Any]]) -> None:
        """Push a round of abort verdicts, whose replies nobody reads, in
        front of each shard's FIFO — ahead of the waiters the close of
        their handle wakes, which must find the locks released."""
        for index, op in ops:
            self._push(index, ([op], None, None, None), front=True)

    def _close(self, session: Session, handle: str, code: Optional[str]) -> None:
        """Close a handle — every close goes through here.  Its parked
        request, if it has one, is answered ``code`` (None: nothing); the
        requests parked on it are woken.  Costs the uncontended path one
        test, of an empty dict."""
        session.close_transaction(handle)
        if self.parked:
            self._withdraw(handle, code)
            self.waits.release(handle)

    def _abort_open(
        self, sessions: List[Session], code: Optional[str], dead: Optional[int] = None
    ) -> int:
        """Abort and close the open handles of ``sessions`` (those that
        touched shard ``dead``, when it died) but one whose admitted
        completion decides it (a shard death closes a single-shard one:
        its completion was for the dead shard); returns how many had
        touched a shard.  What they left parked or queued as an invoke,
        and every request but a ``create`` queued for the dead shard,
        never runs: it is answered ``code`` (``SHARD_DOWN`` naming the
        dead shard; None: nothing)."""
        closed, stranded, aborted = set(), [], 0
        for session in sessions:
            for handle, record in list(session.transactions.items()):
                if record.completing and (record.deciding or dead is None):
                    continue
                if dead not in (None, *record.participants):
                    continue
                if record.bound:
                    self._abort(abort_round(handle, set(record.participants) - {dead}))
                    aborted += 1
                parked = self.parked.get(handle)
                if parked is not None:
                    stranded.append((parked.channel, parked.request, parked.index))
                self._close(session, handle, None)
                closed.add(handle)
        for index, fifo in enumerate(self.pending):
            front, self._front[index] = self._front[index], 0
            for position in range(len(fifo)):
                item = fifo.popleft()
                _ops, channel, request, _stamp = item
                if channel is not None and (
                    (index == dead and request.action != "create")
                    or (request.action == "invoke"
                        and request.params["transaction"] in closed)
                ):
                    stranded.append((channel, request, index))
                    continue
                fifo.append(item)  # kept, in order
                if position < front:
                    self._front[index] += 1
        if code is not None:  # a lost connection is answered nothing
            for channel, request, index in stranded:
                if dead is None:
                    frame = error_frame(request.id, code, _CLOSED_UNDER[code])
                else:
                    frame = self._shard_down_frame(request, dead)
                self._reply(channel, request, index, frame)
        return aborted

    def _shard_down(self, index: int) -> None:
        """A shard died under a call: every handle that touched it is
        aborted on its surviving participants and closed (:meth:`_abort_open`;
        the dead shard's active transactions died with its volatile state,
        its prepared ones are resolved after the respawn).  Then a new
        incarnation is spawned (it replays its log) and its prepared set
        resolved by the round driver — unless the core is stopping, or the
        last one could not start: that shard stays down and every request
        for it answers ``SHARD_DOWN``."""
        sessions = [channel.session for channel in self.channels.values()]
        aborted = self._abort_open(sessions, "SHARD_DOWN", index)
        self.stats["transactions_aborted"] += aborted
        if not self.stopping and self.pool.revive(index):
            self._start(_Round(resolve_prepared(index, self.workers)))

    # -- parking a refused invocation on its lock holder ---------------

    def _park(
        self, channel: Channel, request: Request, index: int, reply: Dict[str, Any]
    ) -> bool:
        """Park an invocation refused ``CONFLICT`` until its holder's
        handle closes; False (answer the refusal now) unless no
        multi-shard completion of its own was admitted, the holder is an
        open handle on this server, the requester has nothing parked
        already, and :meth:`~repro.runtime.waiting.WaitRegistry.wait`
        admits the edge (the holder is not itself waiting, so no cycle
        can form)."""
        holder = reply.get("holder")
        handle = request.params["transaction"]
        if holder is None or handle in self.parked:
            return False
        if channel.session.transactions[handle].deciding:
            return False
        owner = self.channels.get(holder.partition(".")[0])
        if owner is None or holder not in owner.session.transactions:
            return False
        parked = _Parked(channel, request, index, reply, self.now + WAIT_BOUND)
        if not self.waits.wait(handle, holder, lambda: self._wake(parked)):
            return False
        self.parked[handle] = parked
        return True

    def _wake(self, parked: _Parked) -> None:
        """Its holder closed: the parked request leaves ``parked`` and
        re-executes (its invoke alone: the shard is a participant by now)
        from the front of its shard's FIFO, stamped with the wake, with no
        BUSY check (it was admitted once)."""
        request = parked.request
        del self.parked[request.params["transaction"]]
        tracer = self.tracer
        woke = tracer.clock() if tracer is not None and tracer.active else None
        item = ([_invoke_op(request.params)], parked.channel, request, woke)
        self._push(parked.index, item, front=True)

    def _withdraw(self, handle: str, code: Optional[str]) -> None:
        """Take ``handle``'s parked request, if any, out of its wait and
        answer it ``code`` now (None: nothing)."""
        parked = self.parked.pop(handle, None)
        if parked is not None:
            self.waits.cancel(handle)
            if code is not None:
                request = parked.request
                frame = error_frame(request.id, code, _CLOSED_UNDER[code])
                self._reply(parked.channel, request, parked.index, frame)

    def _reply(
        self, channel: Channel, request: Request, index: int, frame: bytes, started=None
    ) -> None:
        """Answer a request outside its shard's batches — parked, queued
        for a dead shard, or completed by a round begun at ``started`` —
        now, on its own connection; it has no queue phase."""
        self._send(channel, frame)
        tracer = self.tracer
        if tracer is not None and tracer.active:
            done = tracer.clock()
            span = 0.0 if started is None else done - started
            self.answered.append((channel.session, request, index, 0.0, span, done))

    # -- the round driver ----------------------------------------------

    def _cross(self, session: Session, request: Request, record: TxnRecord) -> Rounds:
        """Complete a multi-shard transaction — presumed-abort 2PC for a
        commit, an abort on every participant otherwise — as a round
        procedure whose outcome is the response frame."""
        handle, participants = request.params["transaction"], record.participants
        if request.action == "abort":
            yield abort_round(handle, participants)
            return self._completed(session, request)
        reply = yield from two_phase_commit(handle, participants, record.primary)
        if "error" in reply:
            # The 2PC already aborted the transaction on every
            # participant; the handle is finished, not leaked.
            self._close(session, handle, "CONFLICT")
            self.stats["transactions_aborted"] += 1
            return self._error(request.id, reply)
        return self._completed(session, request, reply["ok"])

    def _start(self, driver: _Round) -> None:
        self.rounds += 1
        self._advance(driver, None)

    def _advance(self, driver: _Round, replies: Any) -> None:
        """Send a round's replies into its procedure and push the next
        round's ops, or answer the outcome."""
        rounds = driver.rounds
        try:
            ops = rounds.send(replies)
            while not ops:
                ops = rounds.send([])
        except StopIteration as done:
            self.rounds -= 1
            if driver.answers is not None:
                channel, request, index, started = driver.answers
                self._reply(channel, request, index, done.value, started)
            return
        driver.replies = [None] * len(ops)
        driver.missing = len(ops)
        for slot, (index, op) in enumerate(ops):
            self._push(index, ([op], None, None, (driver, slot)))

    def _answer_round(self, index: int, item: Tuple[Any, ...], reply: Any) -> None:
        """One round op's reply (None: its shard died under it); a commit
        verdict is pushed again while its shard is back up."""
        (op,), _channel, _request, (driver, slot) = item
        if reply is None and op["op"] == "apply_commit":
            if self.pool.shards[index].alive:
                self._push(index, item)
                return
        driver.replies[slot] = reply
        driver.missing -= 1
        if not driver.missing:
            self._advance(driver, driver.replies)
