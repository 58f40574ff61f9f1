"""A :class:`~repro.server.core.ServerCore` driven the way the asyncio shell
drives it, with no event loop and no socket: frames go in as bytes,
replies come back out of the channels, and the clock is a number the test
advances.

``Driven(pool)`` first runs out the core's start-up resolution (each
shard's recovered prepared set), as the shell's ``start`` does, and then
counts shard calls from 0.  It calls a shard inside the core's kick, as
the shell does for non-blocking shards; ``Driven(pool, batched=True)``
only notes the kick and serves every FIFO after each entry point, one
batch per shard call, as a blocking shard's posts do.  ``shards(transport, ...)``
builds two shards behind ``"local"`` engines, simulated ``"site"`` hosts
or ``"process"`` children.
"""

import itertools

from repro.recovery import MemoryWAL
from repro.server import ShardDown, ShardProcessPool
from repro.server.core import WAIT_BOUND, Channel, ServerCore
from repro.server.engine import LocalShard, ShardEngine, ShardSet, shard_for
from repro.server.protocol import FrameDecoder, request_frame
from repro.sim import Site


def shards(transport, tmp_path, tracer):
    """Two shards behind ``transport``, tracing to ``tracer`` (process
    shards to files of their own, under ``tmp_path / "traces"``)."""
    if transport == "local":
        return ShardSet([LocalShard(ShardEngine(i, 2, tracer=tracer)) for i in range(2)])
    if transport == "site":
        return ShardSet([Site(i, 2, wal=MemoryWAL(), tracer=tracer) for i in range(2)])
    pool = ShardProcessPool(2, tmp_path / "data", trace_dir=tmp_path / "traces")
    pool.start()
    return pool


class Conn(Channel):
    """A client connection to a driven core, with the client's half of the
    wire: request ids, encoding, and every reply decoded by id."""

    def __init__(self, driven):
        super().__init__()
        self.driven = driven
        self.inbound = FrameDecoder()
        #: request id -> every reply body the core wrote for it.
        self.replies = {}
        #: The request ids of the replies, in the order they left.
        self.order = []
        self._ids = itertools.count(1)

    def request(self, action, **params):
        """Send one request (in one read of its own); returns its id."""
        rid = next(self._ids)
        self.driven.feed(self, request_frame(rid, action, params))
        return rid

    def answer(self, rid):
        """The one reply to ``rid`` (None while it is unanswered)."""
        bodies = self.replies.get(rid, [])
        assert len(bodies) <= 1, f"request {rid} answered {len(bodies)} times"
        return bodies[0] if bodies else None

    def call(self, action, **params):
        """Send one request and return its (already written) reply body."""
        body = self.answer(self.request(action, **params))
        assert body is not None, f"{action} {params} was not answered"
        return body

    def begin(self):
        return self.call("begin")["result"]["transaction"]

    def invoke(self, handle, obj, operation, *args):
        """Send an invoke; returns its id (it may park instead of answering)."""
        return self.request(
            "invoke", transaction=handle, obj=obj, operation=operation, args=args
        )


def result(body):
    """An invoke reply's result, or the error code it was answered with."""
    if body["ok"]:
        return body["result"].get("result", body["result"])
    return body["error"]["code"]


class Driven:
    """One core, its pool, a counter clock and the kick policy."""

    def __init__(self, pool, tracer=None, batched=False, **kwargs):
        self.pool = pool
        self.now = 0.0
        self.batched = batched
        #: Shard calls so far (``take → call → settle``).
        self.calls = 0
        self.core = ServerCore(pool, self._kick, tracer=tracer, **kwargs)
        self.core.started_at = self.now
        self.serve()  # the start-up resolution, before any request
        self.calls = 0

    def create(self, name, adt="Account"):
        self.core.catalog[name] = self.pool.create_object(name, adt)

    def meet(self, index):
        """Send dead shard ``index`` a ``create``, on a connection of its
        own: the core answers it ``SHARD_DOWN``, respawns the shard from
        its log and resolves what the log left prepared."""
        name = next(
            f"M{n}"
            for n in itertools.count()
            if shard_for(f"M{n}", self.core.workers) == index
        )
        body = self.connect().call("create", name=name, adt="Account")
        assert body["error"]["code"] == "SHARD_DOWN", body

    def connect(self):
        conn = Conn(self)
        self.core.connect(conn, "test")
        return conn

    def feed(self, conn, data):
        poisoned = self.core.feed(conn, data, self.now)
        self.settle_all()
        return poisoned

    def disconnect(self, conn):
        self.core.disconnect(conn, self.now)
        self.settle_all()

    def abort_sessions(self, code="SHUTTING_DOWN"):
        forced = self.core.abort_sessions(code, self.now)
        self.settle_all()
        return forced

    def advance(self, seconds=WAIT_BOUND):
        """Move the clock on and let the core expire what it must."""
        self.now += seconds
        self.core.expire(self.now)
        self.collect()

    def _kick(self, index):
        if not self.batched:
            self.call(index)

    def call(self, index):
        """One shard call: take, call, settle."""
        core = self.core
        self.calls += 1
        ops = core.take(index)
        try:
            replies = self.pool.shards[index].call(ops) if ops else ops
        except ShardDown:
            replies = None
        core.settle(index, replies, self.now)
        self.collect()

    def serve(self):
        """Call every shard with work until all FIFOs are empty, one batch
        per shard call."""
        while any(self.core.pending):
            for index, fifo in enumerate(self.core.pending):
                if fifo:
                    self.call(index)

    def settle_all(self):
        """Serve every FIFO (batched only: inline shards were served in
        their kicks), then collect the replies."""
        if self.batched:
            self.serve()
        self.collect()

    def collect(self):
        """What the shell's write does: each dirty channel's frames leave
        (here: decoded into the connection's replies)."""
        core = self.core
        for conn in core.dirty:
            for body in conn.inbound.feed(b"".join(conn.out)):
                conn.replies.setdefault(body["id"], []).append(body)
                conn.order.append(body["id"])
            conn.out.clear()
        core.dirty.clear()
        if core.answered:
            core.responded()
