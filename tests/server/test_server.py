"""The asyncio serving tier end-to-end: sessions, backpressure, drain.

Each test boots a real server on an ephemeral localhost port and talks
to it over real sockets.  No pytest-asyncio: tests drive their own
event loop, through the bounded ``run`` of ``tests/server/running.py``.
"""

import asyncio
import socket
import struct

import pytest

from repro.obs import AtomicityChecker, JSONLSink, TraceBus, read_jsonl
from repro.obs.registry import MetricsRegistry, RegistrySink
from repro.server import (
    AsyncClient,
    ReproServer,
    Session,
    ShardedTimestampGenerator,
    ShardProcessPool,
    WireError,
    shard_for,
)
from repro.server.engine import LocalShard, ShardEngine, ShardSet
from repro.server.protocol import FrameDecoder, request_frame
from tests.server.driven import Driven
from tests.server.running import run


async def start_server(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("drain_grace", 1.0)
    server = ReproServer(**kwargs)
    await server.start()
    return server


#: Socket and write-buffer size that lets a peer which does not read
#: back the server up within a few kilobytes.
SMALL_BUFFER = 4096


async def stop_reading(server, requests):
    """Connect a raw peer that sends ``requests`` and reads nothing.

    The peer's receive buffer, and the server side's socket send buffer
    and transport high-water mark, are shrunk so that its replies back
    up within a few kilobytes.  Returns once they have: the peer's
    socket, the server's connection for it, and the task sending."""
    loop = asyncio.get_running_loop()
    peer = socket.socket()
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SMALL_BUFFER)
    peer.setblocking(False)
    await loop.sock_connect(peer, (server.host, server.port))
    while not server.core.channels:
        await asyncio.sleep(0.005)
    (connection,) = server.core.channels.values()
    transport = connection.transport
    transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, SMALL_BUFFER
    )
    transport.set_write_buffer_limits(high=SMALL_BUFFER)
    sending = asyncio.ensure_future(loop.sock_sendall(peer, requests))
    while transport.get_write_buffer_size() <= SMALL_BUFFER:
        await asyncio.sleep(0.005)
    return peer, connection, sending


class TestSessionUnit:
    def test_handles_are_globally_unique_per_session(self):
        first, second = Session(1), Session(2)
        assert first.mint_handle() == "s1.t1"
        assert first.mint_handle() == "s1.t2"
        assert second.mint_handle() == "s2.t1"

    def test_ack_cache_is_bounded_fifo(self):
        session = Session(1, ack_capacity=2)
        for request_id in (1, 2, 3):
            session.record_ack(request_id, {"n": request_id})
        assert session.cached_ack(1) is None          # retired FIFO
        assert session.cached_ack(2) == {"n": 2}
        assert session.cached_ack(3) == {"n": 3}


class TestShardedTimestamps:
    def test_residues_partition_the_integers(self):
        shards = [ShardedTimestampGenerator(i, 3) for i in range(3)]
        issued = [
            shard.commit_timestamp(f"t{n}")
            for n in range(5)
            for shard in shards
        ]
        assert len(set(issued)) == len(issued)        # globally unique
        for index, shard in enumerate(shards):
            assert all(
                ts % 3 == index
                for ts in issued[index::3]
            )

    def test_monotone_and_above_observed_bound(self):
        generator = ShardedTimestampGenerator(1, 4)
        first = generator.commit_timestamp("a")
        generator.observe("b", 1000)
        second = generator.commit_timestamp("b")
        assert second > 1000 and second % 4 == 1
        assert second > first
        generator.forget("b")
        assert generator.commit_timestamp("c") > second


class TestRoundTrip:
    def test_begin_invoke_commit_and_certified_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"

        async def scenario():
            bus = TraceBus()
            sink = bus.subscribe(JSONLSink(str(trace)))
            server = await start_server(tracer=bus, flush_on_drain=[sink])
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            assert await client.invoke(handle, "A", "Credit", 5) == "Ok"
            timestamp, _ = await client.commit(handle)
            assert timestamp == 1
            await client.aclose()
            await server.drain()

        run(scenario())
        checker = AtomicityChecker()
        checker.replay(read_jsonl(str(trace)))
        report = checker.report()
        assert report["ok"]
        assert report["transactions"]["committed"] == 1
        kinds = {event.kind for event in read_jsonl(str(trace))}
        assert {"server.connect", "server.disconnect", "server.request",
                "server.drain"} <= kinds

    def test_registry_grows_server_counters(self):
        async def scenario():
            bus = TraceBus()
            registry = MetricsRegistry()
            bus.subscribe(RegistrySink(registry))
            server = await start_server(tracer=bus)
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            await client.commit(handle)
            await client.aclose()
            await server.drain()
            return registry

        registry = run(scenario())
        counters = registry.snapshot()["counters"]
        assert counters["server.connections_opened"] == 1
        assert counters["server.connections_closed"] == 1
        assert counters["server.requests"] >= 2       # invoke + commit
        assert counters["server.request[invoke]"] == 1
        assert counters["server.drains"] == 1


class TestTypedErrors:
    def test_unknown_object_and_unknown_txn(self):
        async def scenario():
            server = await start_server()
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            with pytest.raises(WireError) as excinfo:
                await client.invoke(handle, "nope", "Credit", 1)
            assert excinfo.value.code == "UNKNOWN_OBJECT"
            with pytest.raises(WireError) as excinfo:
                await client.invoke("s9.t9", "A", "Credit", 1)
            assert excinfo.value.code == "UNKNOWN_TXN"
            # The connection survived both errors.
            assert (await client.ping())["workers"] == 1
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_malformed_tagged_payload_answers_bad_request(self):
        async def scenario():
            server = await start_server()
            client = await AsyncClient.connect(server.host, server.port)
            # Hand-build a frame whose params carry a broken __fr__ tag;
            # the client-side encoder would never produce this.
            from repro.server.protocol import encode_frame

            client._writer.write(
                encode_frame(
                    {
                        "v": 1,
                        "id": 41,
                        "action": "invoke",
                        "params": {"amount": {"__fr__": "broken"}},
                    }
                )
            )
            await client._writer.drain()
            response = await client.call("ping")      # loop still alive
            assert response.ok
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_kernel_typeerror_answers_internal_and_worker_survives(self):
        # A malformed argument (a list where Account's Credit expects a
        # number) raises a plain TypeError inside the ADT spec.  The
        # worker must answer a typed INTERNAL error and keep serving —
        # before the engine's catch-all this killed the shard's
        # worker task, stranding every queued request and hanging drain.
        async def scenario():
            server = await start_server()
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            with pytest.raises(WireError) as excinfo:
                await client.invoke(handle, "A", "Credit", [25])
            assert excinfo.value.code == "INTERNAL"
            assert "TypeError" in excinfo.value.message
            assert server.stats["errors"] == 1
            # The same worker still executes fresh work after the blast.
            fresh = await client.begin()
            assert await client.invoke(fresh, "A", "Credit", 5) == "Ok"
            await client.commit(fresh)
            await client.aclose()
            await server.drain()          # must not hang

        run(scenario())

    def test_oversized_frame_gets_typed_error_then_close(self):
        async def scenario():
            server = await start_server()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            from repro.server.protocol import HEADER, FrameDecoder

            writer.write(HEADER.pack(1 << 29))
            await writer.drain()
            data = await reader.read(65536)
            decoder = FrameDecoder()
            [body] = decoder.feed(data)
            assert body["ok"] is False
            assert body["error"]["code"] == "FRAME_TOO_LARGE"
            assert await reader.read(65536) == b""    # server closed
            writer.close()
            # The event loop survived: a fresh connection still works.
            client = await AsyncClient.connect(server.host, server.port)
            assert (await client.ping())["draining"] is False
            await client.aclose()
            await server.drain()

        run(scenario())

    @pytest.mark.parametrize(
        "violation, code",
        [
            (struct.pack(">I", 1 << 30), "FRAME_TOO_LARGE"),
            (struct.pack(">I", 3) + b"\xff\xfe{", "BAD_FRAME"),
        ],
        ids=["oversized-header", "undecodable-body"],
    )
    def test_requests_before_a_framing_violation_are_still_answered(
        self, violation, code
    ):
        # Regression: the good frames of a read used to be lost with the
        # FrameError the bad one raised, so whether the ping was answered
        # depended on how TCP happened to segment the bytes.
        async def scenario():
            server = await start_server()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(request_frame(1, "ping") + violation)   # one segment
            await writer.drain()
            data = await reader.read()                # until the server closes
            writer.close()
            await server.drain()
            return FrameDecoder().feed(data)

        ping, error = run(scenario())
        assert ping["id"] == 1 and ping["ok"] is True
        assert error["id"] is None and error["error"]["code"] == code

    @pytest.mark.parametrize(
        "body, code",
        [
            (b'{"v":1,"id":2,"action":"ping","params":{"x":{"__fr__":[1,0]}}}',
             "BAD_REQUEST"),
            (b"[" * 200_000, "BAD_FRAME"),
            (b'{"v":1,"id":2,"action":"ping","params":{"n":' + b"9" * 5000 + b"}}",
             "BAD_FRAME"),
            (b'{"v":1,"id":2,"action":"ping","params":{"x":'
             + b'{"__d__":[["k",' * 300 + b"1" + b"]]}" * 300 + b"}}",
             "BAD_REQUEST"),
        ],
        ids=[
            "zero-denominator",
            "nested-200k-deep",
            "5000-digit-integer",
            "tagged-dict-300-deep",
        ],
    )
    def test_malformed_frames_get_typed_answers(self, body, code):
        # Regression: each of these raised out of data_received (a
        # ZeroDivisionError from the tagged codec, a RecursionError from
        # the JSON scanner, a plain ValueError from the int-digits limit,
        # a RecursionError from the tagged codec on a body the scanner
        # took), so asyncio dropped the connection and the ping's reply.
        # Bytes in, replies out: the serving core, with no socket.
        driven = Driven(ShardSet([LocalShard(ShardEngine())]))
        conn = driven.connect()
        driven.feed(conn, request_frame(1, "ping") + struct.pack(">I", len(body)) + body)
        (ping,), (error,) = conn.replies[1], conn.replies.get(2) or conn.replies[None]
        assert ping["id"] == 1 and ping["ok"] is True
        assert error["ok"] is False and error["error"]["code"] == code

    def test_bad_version_is_refused(self):
        async def scenario():
            server = await start_server()
            client = await AsyncClient.connect(server.host, server.port)
            from repro.server.protocol import encode_frame

            client._writer.write(
                encode_frame({"v": 99, "id": 1, "action": "ping"})
            )
            await client._writer.drain()
            future = asyncio.get_event_loop().create_future()
            client._futures[1] = future
            response = await future
            assert response.error_code == "BAD_VERSION"
            await client.aclose()
            await server.drain()

        run(scenario())


class TestBackpressure:
    @pytest.mark.parametrize("transport", ["local", "process", "site"])
    def test_queue_at_high_water_answers_busy(self, transport, serve_over):
        async def scenario():
            bus = TraceBus()
            registry = MetricsRegistry()
            bus.subscribe(RegistrySink(registry))
            # queue_limit=0: every routed request is beyond high water,
            # with or without a queue behind the limit.
            server = await serve_over(
                transport, objects=["A"], queue_limit=0, tracer=bus
            )
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()              # inline: unaffected
            with pytest.raises(WireError) as excinfo:
                await client.invoke(handle, "A", "Credit", 1)
            assert excinfo.value.code == "BUSY"
            assert server.stats["busy"] == 1
            assert registry.snapshot()["counters"]["server.busy"] == 1
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_a_peer_that_stops_reading_stalls_no_one_else(self, tmp_path):
        """Regression: a process shard's worker awaited each connection's
        socket drain, so one peer that stopped reading parked the shard's
        only worker and every other connection waited behind it.  Now
        that peer's replies buffer and its reading pauses; the shard
        serves the others meanwhile, and the peer gets every reply once
        it reads."""
        invokes = 2000

        async def scenario():
            pool = ShardProcessPool(1, tmp_path / "data")
            pool.start()
            server = ReproServer(pool=pool, queue_limit=invokes + 1, drain_grace=0.5)
            server.create_object("A", "Account")
            server.create_object("B", "Account")
            await server.start()
            credit = {"obj": "A", "operation": "Credit", "args": (1,)}
            peer, connection, sending = await stop_reading(
                server,
                request_frame(1, "begin")
                + b"".join(
                    request_frame(rid, "invoke", {"transaction": "s1.t1", **credit})
                    for rid in range(2, invokes + 2)
                ),
            )
            try:
                client = await AsyncClient.connect(server.host, server.port)
                handle = await client.begin()
                await asyncio.wait_for(client.invoke(handle, "B", "Credit", 1), 3)
                timestamp, _ = await asyncio.wait_for(client.commit(handle), 3)
                paused = not connection.transport.is_reading()
                assert not connection.transport.is_closing()  # paused, not dropped
                loop = asyncio.get_running_loop()
                decoder, replies = FrameDecoder(), []
                while len(replies) < invokes + 1:
                    replies += decoder.feed(await loop.sock_recv(peer, 65536))
                await sending
            finally:
                peer.close()
            await client.aclose()
            await server.drain()
            return timestamp, paused, replies

        timestamp, paused, replies = run(scenario())
        assert isinstance(timestamp, int)
        assert paused
        assert sorted(reply["id"] for reply in replies) == list(range(1, invokes + 2))
        assert all(reply["ok"] for reply in replies)


class TestIdempotentAcks:
    def test_commit_ack_replays_for_same_request_id(self):
        async def scenario():
            server = await start_server()
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            timestamp, response = await client.commit(handle)
            # Retransmit with the SAME request id: the cached decision
            # replays byte-for-byte.
            replay = await client.call(
                "commit", {"transaction": handle}, response.id
            )
            assert replay.ok
            assert replay.result == dict(response.result)
            # A NEW request id is not a retry: the handle is gone.
            with pytest.raises(WireError) as excinfo:
                await client.commit(handle)
            assert excinfo.value.code == "UNKNOWN_TXN"
            # Exactly one commit reached the manager.
            assert server.stats["transactions_committed"] == 1
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_abort_ack_is_idempotent_too(self):
        async def scenario():
            server = await start_server()
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            request_id = client.next_id()
            await client.abort(handle, request_id)
            await client.abort(handle, request_id)     # replayed, no error
            assert server.stats["transactions_aborted"] == 1
            await client.aclose()
            await server.drain()

        run(scenario())


class TestSharding:
    @staticmethod
    def two_objects_on_different_shards(workers=2):
        names = iter(f"obj-{i}" for i in range(1000))
        first = next(names)
        for candidate in names:
            if shard_for(candidate, workers) != shard_for(first, workers):
                return first, candidate
        raise AssertionError("no shard split found")

    def test_cross_shard_transfer_commits_atomically(self):
        first, second = self.two_objects_on_different_shards()

        async def scenario():
            bus = TraceBus()
            checker = bus.subscribe(AtomicityChecker())
            server = await start_server(workers=2, tracer=bus)
            server.create_object(first, "Account")
            server.create_object(second, "Account")
            client = await AsyncClient.connect(server.host, server.port)
            fund = await client.begin()
            await client.invoke(fund, first, "Credit", 10)
            await client.commit(fund)
            # One transaction, both shards: in-loop presumed-abort 2PC.
            handle = await client.begin()
            assert await client.invoke(handle, first, "Debit", 4) == "Ok"
            assert await client.invoke(handle, second, "Credit", 4) == "Ok"
            timestamp, _ = await client.commit(handle)
            primary = shard_for(first, 2)
            assert timestamp % 2 == primary       # decided on the primary's stride
            balances = [
                server.pool.shards[shard_for(name, 2)].single(
                    {"op": "snapshot", "obj": name}
                )["ok"]
                for name in (first, second)
            ]
            assert balances == [6, 4]
            assert [row["committed"] for row in server.pool.stats()] == (
                [2, 1] if primary == 0 else [1, 2]
            )
            assert server.core.channels["s1"].session.active == 0
            await client.aclose()
            await server.drain()
            assert checker.ok, checker.render_report()

        run(scenario())

    def test_commit_timestamps_stay_unique_across_shards(self):
        first, second = self.two_objects_on_different_shards()

        async def scenario():
            server = await start_server(workers=2)
            server.create_object(first, "Account")
            server.create_object(second, "Account")
            client = await AsyncClient.connect(server.host, server.port)
            timestamps = []
            for obj in (first, second, first, second):
                handle = await client.begin()
                await client.invoke(handle, obj, "Credit", 1)
                timestamp, _ = await client.commit(handle)
                timestamps.append(timestamp)
            assert len(set(timestamps)) == len(timestamps)
            await client.aclose()
            await server.drain()

        run(scenario())


class TestDisconnect:
    def test_vanishing_client_gets_its_transactions_aborted(self):
        bus = TraceBus()
        driven = Driven(ShardSet([LocalShard(ShardEngine(tracer=bus))]), tracer=bus)
        driven.create("A")
        client = driven.connect()
        handle = client.begin()
        assert client.answer(client.invoke(handle, "A", "Credit", 1))["ok"]
        driven.disconnect(client)                      # vanish mid-txn
        assert driven.core.stats["transactions_aborted"] == 1
        # The abort released the lock: a new client can commit.
        fresh = driven.connect()
        handle = fresh.begin()
        assert fresh.answer(fresh.invoke(handle, "A", "Debit", 1))["ok"]
        assert fresh.call("commit", transaction=handle)["ok"]


class TestGracefulDrain:
    def test_in_flight_transaction_commits_during_grace(self, tmp_path):
        trace = tmp_path / "drain.jsonl"

        async def scenario():
            bus = TraceBus()
            sink = bus.subscribe(JSONLSink(str(trace)))
            server = await start_server(
                tracer=bus, drain_grace=2.0, flush_on_drain=[sink]
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)

            drain_task = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            assert server.core.draining
            # New transactions are refused while draining...
            with pytest.raises(WireError) as excinfo:
                await client.begin()
            assert excinfo.value.code == "SHUTTING_DOWN"
            # ...but the in-flight one finishes cleanly.
            timestamp, _ = await client.commit(handle)
            assert timestamp == 1
            report = await drain_task
            assert report["aborted"] == 0
            assert server.stats["transactions_committed"] == 1
            await client.aclose()

        run(scenario())
        events = read_jsonl(str(trace))
        kinds = [event.kind for event in events]
        assert "server.drain" in kinds                 # flushed to disk
        checker = AtomicityChecker()
        checker.replay(events)
        assert checker.report()["ok"]

    def test_stragglers_are_force_aborted_after_grace(self):
        async def scenario():
            server = await start_server(drain_grace=0.05)
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            report = await server.drain()              # client never commits
            assert report["aborted"] == 1
            await client.aclose()

        run(scenario())

    def test_listener_closes_but_admitted_work_is_answered(self):
        async def scenario():
            server = await start_server(drain_grace=0.2)
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 1)
            drain_task = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.02)
            # No NEW connections once draining...
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(server.host, server.port)
            # ...while the existing session still gets answers.
            await client.commit(handle)
            await drain_task
            await client.aclose()

        run(scenario())

    def test_a_peer_that_stopped_reading_is_hung_up_on(self, tmp_path):
        """A close waits for the replies to flush, which a peer that
        stopped reading never lets happen: after a second the drain cuts
        it off, so its ``server.disconnect`` is in the trace before the
        sinks close — every ``server.connect`` has its disconnect."""
        trace = tmp_path / "drain.jsonl"

        async def scenario():
            bus = TraceBus()
            sink = bus.subscribe(JSONLSink(str(trace)))
            server = await start_server(
                tracer=bus, drain_grace=0.05, flush_on_drain=[sink]
            )
            peer, _, sending = await stop_reading(
                server, b"".join(request_frame(rid, "ping") for rid in range(2000))
            )
            client = await AsyncClient.connect(server.host, server.port)
            await client.ping()
            await asyncio.wait_for(server.drain(), 5)
            sending.cancel()
            await asyncio.gather(sending, return_exceptions=True)
            peer.close()
            await client.aclose()

        run(scenario())
        events = read_jsonl(str(trace))
        sessions = {
            kind: sorted(e.data["session"] for e in events if e.kind == kind)
            for kind in ("server.connect", "server.disconnect")
        }
        assert sessions["server.connect"] == sessions["server.disconnect"]
        assert len(sessions["server.connect"]) == 2


class TestManyConnections:
    """64 sockets at once with one hot object between them, so the
    conflict -> park -> wake path (and conflict -> abort -> retry, for a
    refusal that may not wait) is on the certified history."""

    CONNECTIONS = 64
    ROUNDS = 3

    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_64_connections_commit_and_certify(
        self, transport, serve_over, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"

        async def connection(client, index):
            """ROUNDS transactions, retried until each commits: credits
            to the connection's own account and, for every fourth
            connection, one round of debits from the shared one (five
            or six of them at a time).  Debit x Debit conflicts."""
            own = f"own-{index}"
            await client.create(own, "Account")
            committed = aborted = 0
            for round_ in range(self.ROUNDS):
                hot = index % 4 == 0 and round_ == index // 4 % self.ROUNDS
                obj, operation = ("hot", "Debit") if hot else (own, "Credit")
                while True:
                    handle = await client.begin()
                    try:
                        for _ in range(2):
                            await client.invoke(handle, obj, operation, 1)
                        await client.commit(handle)
                    except WireError as exc:
                        assert exc.code == "CONFLICT" and hot, exc
                        await client.abort(handle)
                        aborted += 1
                    else:
                        committed += 1
                        break
            return committed, aborted

        async def scenario():
            bus = TraceBus()
            sink = bus.subscribe(JSONLSink(str(trace)))
            server = await serve_over(transport, tracer=bus, flush_on_drain=[sink])
            seed = await AsyncClient.connect(server.host, server.port)
            await seed.create("hot", "Account")
            handle = await seed.begin()
            await seed.invoke(handle, "hot", "Credit", 10 * self.CONNECTIONS)
            await seed.commit(handle)
            clients = [
                await AsyncClient.connect(server.host, server.port)
                for _ in range(self.CONNECTIONS)
            ]
            for client in clients:
                await client.ping()  # answered: the server has registered it
            assert (await seed.health())["connections"] == 1 + self.CONNECTIONS
            counts = await asyncio.gather(
                *(connection(client, index) for index, client in enumerate(clients))
            )
            stats = await seed.stats()
            for client in [seed, *clients]:
                await client.aclose()
            await server.drain()
            return counts, stats["server"]

        counts, stats = run(scenario())
        assert all(committed == self.ROUNDS for committed, _ in counts)
        committed = 1 + sum(committed for committed, _ in counts)
        aborted = sum(aborted for _, aborted in counts)
        assert stats["transactions_committed"] == committed
        assert stats["transactions_aborted"] == aborted
        # Process shards trace in their own files; merge by timestamp.
        events = read_jsonl(str(trace))
        for path in (tmp_path / "traces").glob("*.jsonl"):
            events.extend(read_jsonl(str(path)))
        events.sort(key=lambda event: event.ts)
        kinds = {event.kind for event in events}
        assert {"lock.conflict", "lock.wait"} <= kinds, "no Debit ever waited"
        report = AtomicityChecker().replay(events).report()
        assert report["verdict"] == "clean", report["violations"]
        assert report["transactions"]["committed"] == committed
        assert report["transactions"]["aborted"] == aborted
