"""One pass and one write per readable batch, pinned by counts.

Wall-clock on a shared box does not repeat; socket writes, loop polls,
selector registrations, FIFO items and tasks per request do.  A
non-blocking shard is called in the connection's ``data_received``, once
per run of a read's frames routed to it (no task, no pipe, its FIFO
empty again after each read, replies in request order, one write per
read, one poll per request; ``test_runs.py`` pins the runs); a blocking
shard's post takes what its FIFO holds as one batch, the loop's reader
on its pipe (registered once per child) settles it, and the batch
answers each connection with one write.
"""

import asyncio
import itertools

import pytest

from repro.obs import TraceBus, wire_rows
from repro.server import (
    AsyncClient,
    ReproServer,
    ShardProcessPool,
    SyncClient,
    WireError,
)
from repro.server.protocol import FrameDecoder, request_frame
from tests.server.running import run


def count_writes(connection, on_write=None):
    """Count (and optionally observe) the socket writes of one server-side
    connection from here on; returns the list the writes are appended to."""
    writes = []
    write = connection.transport.write

    def counting(data):
        writes.append(data)
        if on_write is not None:
            on_write()
        write(data)

    connection.transport.write = counting
    return writes


async def read_replies(reader, count):
    decoder, replies = FrameDecoder(), []
    while len(replies) < count:
        replies += decoder.feed(await reader.read(65536))
    return replies


def invoke(rid, handle, obj="A"):
    params = {"transaction": handle, "obj": obj, "operation": "Credit", "args": (1,)}
    return request_frame(rid, "invoke", params)


class TestLocalShards:
    def test_one_segment_is_one_write_with_replies_in_request_order(self):
        async def scenario():
            server = ReproServer(workers=1, drain_grace=0.5)
            await server.start()
            server.create_object("A", "Account")
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(request_frame(1, "ping"))
            await read_replies(reader, 1)             # the session (s1) is up
            writes = count_writes(server.core.channels["s1"])
            # Inline answers and shard work, interleaved, in one segment.
            writer.write(
                request_frame(10, "begin")
                + invoke(11, "s1.t1")
                + request_frame(12, "ping")
                + invoke(13, "s1.t1")
                + invoke(14, "s1.t1", obj="nope")     # a routing error
                + request_frame(15, "commit", {"transaction": "s1.t1"})
                + request_frame(16, "stats")
            )
            replies = await read_replies(reader, 7)
            writer.close()
            await server.drain()
            return writes, replies, server

        writes, replies, server = asyncio.run(scenario())
        assert len(writes) == 1
        assert [reply["id"] for reply in replies] == [10, 11, 12, 13, 14, 15, 16]
        assert [reply["ok"] for reply in replies] == [True] * 4 + [False] + [True] * 2
        assert server.stats["transactions_committed"] == 1

    def test_no_queue_and_no_worker_task(self):
        async def scenario():
            server = ReproServer(workers=2, drain_grace=0.5)
            await server.start()
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            await client.commit(handle)
            stats = await client.stats()
            await client.aclose()
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            await server.drain()
            return server, stats, tasks

        server, stats, tasks = asyncio.run(scenario())
        # Nothing waits for a local shard: no pipe reader, no task, and
        # every FIFO is empty again once a read is served.
        assert server._pipes == [] and not tasks
        assert not any(server.core.pending)
        # `repro top` still gets one depth per shard.
        assert stats["queues"] == [0, 0]
        assert stats["server"]["requests"] == 2

    def test_one_loop_poll_per_served_request(self, threaded_server):
        """A read is served inside the loop's callback for it, with no
        task to wake: one ``selector.select`` per request with one in
        flight."""
        requests = 200
        loop = threaded_server._server.get_loop()
        selector = loop._selector
        polls = []

        def counting(timeout=None):
            polls.append(timeout)
            return type(selector).select(selector, timeout)

        with SyncClient(threaded_server.host, threaded_server.port) as client:
            client.create("A", "Account")
            handle = client.begin()
            selector.select = counting
            try:
                for _ in range(requests):
                    client.invoke(handle, "A", "Credit", 1)
            finally:
                del selector.select
            client.commit(handle)
        assert len(polls) <= requests + 2


class TestProcessShards:
    def test_a_worker_batch_answers_each_connection_with_one_write(
        self, tmp_path, hold
    ):
        async def scenario():
            pool = ShardProcessPool(1, tmp_path / "data")
            pool.start()
            server = ReproServer(pool=pool, drain_grace=0.5)
            server.create_object("A", "Account")
            await server.start()
            # One FIFO, and one pipe the loop watches, for the one shard.
            assert len(server.core.pending) == len(server._pipes) == 1
            assert server._loop._selector.get_key(pool.shards[0].fileno())
            first = await AsyncClient.connect(server.host, server.port)
            second = await AsyncClient.connect(server.host, server.port)
            handles = {
                client: [await client.begin() for _ in range(3)]
                for client in (first, second)
            }
            # Hold the shard's first call, so what arrives meanwhile queues
            # up and the next posted batch is everything below.
            entered, release = hold(pool.shards[0])
            pending = [
                asyncio.ensure_future(first.invoke(handles[first][0], "A", "Credit", 1))
            ]
            await entered.wait()
            for client in (first, second, first, second):
                pending.append(
                    asyncio.ensure_future(
                        client.invoke(handles[client].pop(), "A", "Credit", 1)
                    )
                )
            while len(server.core.pending[0]) < 4:
                await asyncio.sleep(0.005)
            by_session = server.core.channels
            writes = [count_writes(by_session[name]) for name in ("s1", "s2")]
            release.set()
            assert await asyncio.gather(*pending) == ["Ok"] * 5
            await first.aclose()
            await second.aclose()
            await server.drain()
            return writes

        to_first, to_second = asyncio.run(scenario())
        # Batch one held a single request of the first connection; batch
        # two spans both connections with two replies each.
        assert len(to_first) == 2 and len(to_second) == 1

    def test_a_pipe_is_registered_once_per_incarnation(self, tmp_path):
        """The loop watches a process shard's pipe from start to drain:
        no selector registration per batch (an add / remove of the
        reader around every call made two), one unregistration for the
        dead child's pipe and one registration for its successor's — and
        one read's invokes for a shard reach its child as one batch."""
        posts = []

        async def transactions(client, count):
            for _ in range(count):
                handle = await client.begin()
                await client.invoke(handle, "A", "Credit", 1)
                await client.commit(handle)

        async def scenario():
            pool = ShardProcessPool(1, tmp_path / "data")
            pool.start()
            server = ReproServer(pool=pool, drain_grace=0.5)
            server.create_object("A", "Account")
            await server.start()
            shard = pool.shards[0]
            client = await AsyncClient.connect(server.host, server.port)
            await transactions(client, 1)
            selector = server._loop._selector
            calls = {"register": 0, "unregister": 0}

            def counting(name):
                method = getattr(type(selector), name)

                def counted(*args):
                    calls[name] += 1
                    return method(selector, *args)

                return counted

            for name in calls:
                setattr(selector, name, counting(name))
            try:
                await transactions(client, 50)
                assert calls == {"register": 0, "unregister": 0}
                shard.kill()
                with pytest.raises(WireError) as caught:
                    await transactions(client, 1)
                assert caught.value.code == "SHARD_DOWN"
                await transactions(client, 50)
                assert calls == {"register": 1, "unregister": 1}
                assert shard.incarnation == 2
            finally:
                for name in calls:
                    delattr(selector, name)
            # One read, the invokes of 8 transactions: one post.
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"".join(request_frame(rid, "begin") for rid in range(1, 9)))
            await read_replies(reader, 8)
            post = shard.post

            def counted_post(ops):
                posts.append([op["op"] for op in ops])
                post(ops)

            shard.post = counted_post
            writer.write(b"".join(invoke(10 + n, f"s2.t{n}") for n in range(1, 9)))
            replies = await read_replies(reader, 8)
            del shard.post
            writer.close()
            await client.aclose()
            await server.drain()
            return replies

        replies = run(scenario())
        assert all(reply["ok"] for reply in replies)
        assert posts == [["begin", "invoke"] * 8]

    def test_a_child_dying_idle_is_let_go_and_answered_at_the_next_post(
        self, tmp_path
    ):
        """SIGKILL a process shard with nothing posted: its pipe's EOF is
        unregistered, so an idle loop does not spin on it; the next
        request for the shard meets the death (``SHARD_DOWN``), and the
        one after it is served by the respawned child, from its log."""

        async def scenario():
            pool = ShardProcessPool(1, tmp_path / "data")
            pool.start()
            server = ReproServer(pool=pool, drain_grace=0.5)
            server.create_object("A", "Account")
            await server.start()
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 5)
            await client.commit(handle)
            selector = server._loop._selector
            polls = []

            def counting(*args):
                polls.append(args)
                return type(selector).select(selector, *args)

            pool.shards[0].kill()
            selector.select = counting
            try:
                await asyncio.sleep(0.2)
            finally:
                del selector.select
            handle = await client.begin()
            with pytest.raises(WireError) as caught:
                await client.invoke(handle, "A", "Credit", 1)
            handle = await client.begin()
            debited = await client.invoke(handle, "A", "Debit", 5)
            await client.commit(handle)
            await client.aclose()
            await server.drain()
            return len(polls), caught.value.code, debited, pool.shards[0].incarnation

        polls, refused, debited, incarnation = run(scenario())
        assert polls <= 10  # an EOF left registered is ready on every poll
        assert refused == "SHARD_DOWN"
        assert debited == "Ok" and incarnation == 2  # the Credit was recovered

    def test_a_2pc_round_rides_the_queued_requests_batch(self, drive):
        """A cross-shard commit's ``prepare`` joins the batch of what is
        queued on its shard — one pipe round-trip, one fsync for both —
        and, being no client request, is never refused BUSY, emits no
        admission event and counts no request.  One read carries k
        commits, which fill shard 0's FIFO to its limit, and the
        cross-shard commit, whose round starts at its admission."""
        k = 4
        bus, events = TraceBus(), []
        bus.subscribe(events.append)
        driven = drive("process", tracer=bus, queue_limit=k)
        pool = driven.pool
        a, b = (
            next(f"Q{i}" for i in itertools.count() if pool.shard_of(f"Q{i}") == s)
            for s in (0, 1)
        )
        driven.create(a)
        driven.create(b)
        conn = driven.connect()
        cross = conn.begin()
        conn.invoke(cross, b, "Credit", 1)  # primary: shard 1
        conn.invoke(cross, a, "Credit", 1)
        singles = [conn.begin() for _ in range(k)]
        for handle in singles:
            conn.invoke(handle, a, "Credit", 1)
        before = pool.stats()[0]
        handles = singles + [cross]
        rids = range(100, 100 + len(handles))
        assert not driven.feed(
            conn,
            b"".join(
                request_frame(rid, "commit", {"transaction": handle})
                for rid, handle in zip(rids, handles)
            ),
        )
        assert all(conn.answer(rid)["ok"] for rid in rids)
        after = pool.stats()[0]
        grew = {key: after[key] - before[key] for key in ("batches", "wal_syncs")}
        # Shard 0 wrote two durable batches: [k commits + prepare] and
        # the apply_commit.  Delivered on its own, the prepare was a
        # third batch and a third fsync.
        assert grew == {"batches": 2, "wal_syncs": 2}
        assert after["batched_records"] - before["batched_records"] == k + 2
        stats = driven.core.stats
        assert stats["busy"] == 0 and not [e for e in events if e.kind == "server.busy"]
        # 2 + k invokes and k + 1 commits, each answered once.
        kinds = [(e.kind, row) for e in events for row in wire_rows(e)]
        requests = [d for kind, d in kinds if kind == "server.request"]
        routed = [d for d in requests if d["shard"] is not None]
        responds = [d for kind, d in kinds if kind == "server.respond"]
        assert stats["requests"] == len(routed) == len(responds) == 2 * k + 3
        answers = [d["action"] for d in responds if d["transaction"] == cross]
        assert answers == ["invoke", "invoke", "commit"]


@pytest.mark.parametrize("transport", ["local", "process", "site"])
def test_respond_phases_sum_to_the_residence_in_the_server(transport, serve_over):
    """``queue`` + ``execute`` + ``respond`` run from admission to the
    clock read after the batch's write — on a clock that ticks once per
    read, exactly."""
    ticks = itertools.count()
    events = []

    async def scenario():
        bus = TraceBus(clock=lambda: next(ticks))
        bus.subscribe(events.append)
        server = await serve_over(transport, objects=["A"], tracer=bus)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b"".join(request_frame(rid, "begin") for rid in (1, 2, 3)))
        await read_replies(reader, 3)
        written_at = []
        count_writes(
            server.core.channels["s1"], on_write=lambda: written_at.append(bus.clock())
        )
        # Three transactions' invokes in one segment: one batch.
        writer.write(b"".join(invoke(10 + n, f"s1.t{n}") for n in (1, 2, 3)))
        await read_replies(reader, 3)
        writer.close()
        await server.drain()
        return written_at

    (written_at,) = asyncio.run(scenario())
    (admitted,) = [
        event
        for event in events
        if event.kind == "server.request" and wire_rows(event)[0]["shard"] is not None
    ]
    requests = wire_rows(admitted)
    (answered,) = [event for event in events if event.kind == "server.respond"]
    responds = wire_rows(answered)
    assert len(requests) == len(responds) == 3
    # One read after the write stamps all three; the event follows it.
    responded = answered.ts - 1
    assert responded == written_at + 1
    for place, (request, respond) in enumerate(zip(requests, responds)):
        phases = [respond[key] for key in ("queue", "execute", "respond")]
        # Each admission is a clock read; the run's event is the next one.
        assert sum(phases) == responded - (admitted.ts - len(requests) + place)
        assert all(phase >= 0 for phase in phases)
        if transport == "process":
            assert respond["queue"] > 0      # waited for the post
        else:
            assert respond["queue"] == 0     # taken as admitted
            # Its place in the run the read's three invokes make.
            assert request["queue_depth"] == place
