"""One pass and one write per readable batch, pinned by counts.

Wall-clock on a shared box does not repeat; socket writes, queues and
worker tasks per request do.  A non-blocking shard executes in the
connection handler (no queue, no worker, replies in request order, one
write per read); a blocking shard keeps its queue and its worker's
batch, and the batch answers each connection with one write.
"""

import asyncio
import itertools
import threading

import pytest

from repro.obs import TraceBus
from repro.server import AsyncClient, ReproServer, ShardProcessPool
from repro.server.protocol import FrameDecoder, request_frame


def count_writes(connection, on_write=None):
    """Count (and optionally observe) the socket writes of one server-side
    connection from here on; returns the list the writes are appended to."""
    writes = []
    write = connection.writer.write

    def counting(data):
        writes.append(data)
        if on_write is not None:
            on_write()
        write(data)

    connection.writer.write = counting
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
            writes = count_writes(server._connections[0])
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
            await server.drain()
            return server, stats

        server, stats = asyncio.run(scenario())
        assert server._queues == [] and server._worker_tasks == []
        # `repro top` still gets one depth per shard.
        assert stats["queues"] == [0, 0]
        assert stats["server"]["requests"] == 2


class TestProcessShards:
    def test_a_worker_batch_answers_each_connection_with_one_write(self, tmp_path):
        async def scenario():
            pool = ShardProcessPool(1, tmp_path / "data")
            server = ReproServer(pool=pool, drain_grace=0.5)
            await server.start()
            assert len(server._queues) == len(server._worker_tasks) == 1
            server.create_object("A", "Account")
            first = await AsyncClient.connect(server.host, server.port)
            second = await AsyncClient.connect(server.host, server.port)
            handles = {
                client: [await client.begin() for _ in range(3)]
                for client in (first, second)
            }
            # Hold the shard's first call, so what arrives meanwhile queues
            # up and the worker's next batch is everything below.
            entered, release = threading.Event(), threading.Event()
            shard, call = pool.shards[0], pool.shards[0].call

            def gated(ops):
                entered.set()
                release.wait(30)
                return call(ops)

            shard.call = gated
            pending = [
                asyncio.ensure_future(first.invoke(handles[first][0], "A", "Credit", 1))
            ]
            while not entered.is_set():
                await asyncio.sleep(0.005)
            shard.call = call
            for client in (first, second, first, second):
                pending.append(
                    asyncio.ensure_future(
                        client.invoke(handles[client].pop(), "A", "Credit", 1)
                    )
                )
            while server._queues[0].qsize() < 4:
                await asyncio.sleep(0.005)
            by_session = {c.session.name: c for c in server._connections}
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


@pytest.mark.parametrize("transport", ["local", "process", "site"])
def test_respond_phases_sum_to_the_residence_in_the_server(transport, serve_over):
    """``queued`` + ``executing`` + ``respond`` run from admission to the
    clock read after the batch's write — on a clock that ticks once per
    read, exactly."""
    ticks = itertools.count()
    events = []

    async def scenario():
        bus = TraceBus(clock=lambda: next(ticks))
        bus.subscribe(events.append)
        server = await serve_over(transport, tracer=bus)
        server.create_object("A", "Account")
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b"".join(request_frame(rid, "begin") for rid in (1, 2, 3)))
        await read_replies(reader, 3)
        written_at = []
        count_writes(
            server._connections[0], on_write=lambda: written_at.append(bus.clock())
        )
        # Three transactions' invokes in one segment: one batch.
        writer.write(b"".join(invoke(10 + n, f"s1.t{n}") for n in (1, 2, 3)))
        await read_replies(reader, 3)
        writer.close()
        await server.drain()
        return written_at

    (written_at,) = asyncio.run(scenario())
    requests = [
        event
        for event in events
        if event.kind == "server.request" and event.data["shard"] is not None
    ]
    responds = [event for event in events if event.kind == "server.respond"]
    assert len(requests) == len(responds) == 3
    # One read after the write stamps all three; the events follow it.
    responded = responds[0].ts - 1
    assert responded == written_at + 1
    for request, respond in zip(requests, responds):
        phases = [respond.data[key] for key in ("queued", "executing", "respond")]
        # Admission is the first clock read after the request's event.
        assert sum(phases) == responded - (request.ts + 1)
        assert all(phase >= 0 for phase in phases)
        if transport == "process":
            assert respond.data["queued"] > 0      # waited for the worker
        else:
            assert respond.data["queued"] == 0     # nothing queues
            assert request.data["queue_depth"] == 0
