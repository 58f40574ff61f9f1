"""Live-server telemetry end to end: wire traces, introspection, flight.

Each test boots a real :class:`~repro.server.server.ReproServer` on an
ephemeral localhost port (the same no-pytest-asyncio idiom as
``test_server.py``) and asserts the PR's three telemetry surfaces
against real sockets:

* every request a client sends is stamped with a trace context and the
  resulting span carries the client's trace id plus the full
  client / queue / execute / respond phase split;
* the in-band ``stats`` / ``health`` ops answer inline with the
  registry snapshot (codec round trip included) and render through
  both the Prometheus text format and ``repro top``'s frame renderer;
* the flight recorder dumps on drain and the dump replays through
  ``repro analyze``.
"""

import asyncio
import collections
import itertools

import pytest

from repro.obs import (
    WIRE_LATENCY_BUCKETS,
    FlightRecorder,
    JSONLSink,
    MetricsRegistry,
    RegistrySink,
    SpanBuilder,
    TraceBus,
    analyze_trace,
    contention_profile,
    critical_path,
    read_jsonl,
    render_prometheus,
    wire_rows,
)
from repro.cli import main as repro_main
from repro.server import AsyncClient, ReproServer, render_top
from repro.server.engine import LocalShard, ShardEngine, ShardSet, shard_for
from repro.server.protocol import (
    FrameDecoder,
    WireError,
    parse_request,
    parse_response,
    request_frame,
)
from tests.server.driven import Driven, result
from tests.server.running import run


async def start_server(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("drain_grace", 1.0)
    server = ReproServer(**kwargs)
    await server.start()
    return server


def telemetry_stack(tmp_path):
    """Bus + registry + flight recorder wired the way ``repro serve`` does."""
    bus = TraceBus()
    registry = MetricsRegistry()
    bus.subscribe(RegistrySink(registry, latency_buckets=WIRE_LATENCY_BUCKETS))
    flight = bus.subscribe(
        FlightRecorder(str(tmp_path / "flight"), emit_to=bus)
    )
    return bus, registry, flight


class TestWireTracePropagation:
    def test_committed_span_carries_trace_id_and_phase_split(self, tmp_path):
        bus, registry, flight = telemetry_stack(tmp_path)
        spans = bus.subscribe(SpanBuilder())

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 5)
            await client.commit(handle)
            await client.aclose()
            await server.drain()

        run(scenario())
        (span,) = spans.committed()
        assert span.trace is not None and "-" in span.trace
        # Every wire phase is present and the split is sane.
        assert set(span.phases) == {"client", "queue", "execute", "respond"}
        assert all(value >= 0.0 for value in span.phases.values())
        assert span.budget() == {**span.phases, "lock-wait": 0.0}
        assert span.well_formed

    def test_all_transactions_on_a_connection_share_the_client_prefix(
        self, tmp_path
    ):
        bus, registry, flight = telemetry_stack(tmp_path)
        spans = bus.subscribe(SpanBuilder())

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            for _ in range(3):
                handle = await client.begin()
                await client.invoke(handle, "A", "Credit", 1)
                await client.commit(handle)
            await client.aclose()
            await server.drain()

        run(scenario())
        committed = spans.committed()
        assert len(committed) == 3
        prefixes = {span.trace.split("-")[0] for span in committed}
        assert len(prefixes) == 1, "one connection, one trace-id prefix"
        assert len({span.trace for span in committed}) == 3

    def test_trace_context_rides_the_frame_unchanged(self):
        import json

        frame = request_frame(
            7, "begin", trace={"id": "c9-3", "sent": 12.5}
        )
        request = parse_request(json.loads(frame[4:]))
        assert request.trace_id == "c9-3"
        assert request.sent == 12.5


class TestIntrospectionOps:
    def test_stats_and_health_answer_inline(self, tmp_path):
        bus, registry, flight = telemetry_stack(tmp_path)
        results = {}

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight, workers=2
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 5)
            await client.commit(handle)
            results["health"] = await client.health()
            results["stats"] = await client.stats()
            await client.aclose()
            await server.drain()

        run(scenario())
        health = results["health"]
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["uptime"] >= 0.0
        stats = results["stats"]
        assert stats["server"]["transactions_committed"] == 1
        assert stats["queue_limit"] > 0
        assert len(stats["queues"]) == 2
        # The registry snapshot survived the codec round trip.
        metrics = stats["metrics"]
        assert metrics["counters"]["server.decoded"] >= 3
        assert metrics["histograms"]["server.client"]["total"] >= 3
        assert stats["flight"]["dumps"] == 0

    def test_snapshot_renders_prometheus_and_top(self, tmp_path):
        bus, registry, flight = telemetry_stack(tmp_path)
        results = {}

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 5)
            await client.commit(handle)
            results["stats"] = await client.stats()
            await client.aclose()
            await server.drain()

        run(scenario())
        snapshot = results["stats"]
        rebuilt = MetricsRegistry.from_snapshot(snapshot["metrics"])
        text = render_prometheus(rebuilt)
        assert "# TYPE repro_txn_committed_total counter" in text
        assert "repro_server_client_bucket" in text
        assert 'le="+Inf"' in text
        frame = render_top(snapshot)
        assert "repro top — ok" in frame
        assert "latency  client:" in frame
        second = render_top(snapshot, previous=snapshot, elapsed=1.0)
        assert "commits 0.0/s" in second


class TestServedBlockedTime:
    def test_one_answer_for_refusals_after_client_pauses(self, tmp_path):
        # A holder keeps a Debit on A; another transaction's Debit is
        # refused and parks until the holder commits, 100 ms later on the
        # bus's clock.  The wait is lock-wait: the span budget and the
        # contention table agree on it, and both cover those 100 ms.
        # (The serving core, driven with no socket, on a clock the test
        # moves.)
        bus, registry, flight = telemetry_stack(tmp_path)
        now = [0.0]
        bus.clock = lambda: now[0]
        spans = bus.subscribe(SpanBuilder())
        shards = ShardSet([LocalShard(ShardEngine(tracer=bus))])
        driven = Driven(shards, tracer=bus, registry=registry, flight=flight)
        driven.create("A")
        client, other = driven.connect(), driven.connect()
        holder = client.begin()
        client.invoke(holder, "A", "Credit", 100)
        client.invoke(holder, "A", "Debit", 1)
        refused = other.begin()
        debit = other.invoke(refused, "A", "Debit", 1)
        assert parse_response(client.call("stats")).result["server"]["parked"] == 1
        now[0] += 0.100
        client.call("commit", transaction=holder)
        answers = [result(other.answer(debit))]
        other.call("commit", transaction=refused)
        answers.append(parse_response(client.call("stats")).result["server"]["parked"])
        assert answers == ["Ok", 0]
        every = [*spans.spans, *spans.open.values()]
        lock_wait = sum(span.budget()["lock-wait"] for span in every)
        report = contention_profile(every)
        assert report["events"] == 2  # the refusal, then the wait
        assert lock_wait == pytest.approx(report["blocked_time"], abs=1e-9)
        assert lock_wait == pytest.approx(0.100)
        assert registry.counters["lock.waits"].value == 1
        assert "lock.blocked_time" not in registry.counters


class TestFlightIntegration:
    def test_drain_leaves_a_dump_that_analyze_reads(self, tmp_path):
        bus, registry, flight = telemetry_stack(tmp_path)

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, "A", "Credit", 5)
            await client.commit(handle)
            await client.aclose()
            await server.drain()

        run(scenario())
        assert flight.last_reason == "drain"
        assert len(flight.dumps) == 1
        report = analyze_trace(read_jsonl(flight.dumps[0]))
        assert report["transactions"]["committed"] == 1
        assert report["flight_dumps"], "dump header must announce itself"
        assert report["slowest"][0]["trace"] is not None


#: Kinds a served run emits once per object, connection or server —
#: everything else on the bus is per request.
LIFECYCLE_KINDS = {"obj.create", "server.connect", "server.disconnect", "server.drain"}


def co_located(count, shards=2, shard=0):
    """``count`` object names that all live on ``shard`` of ``shards``."""
    names = (f"acct{n}" for n in range(64))
    return [name for name in names if shard_for(name, shards) == shard][:count]


def rows_of(events, kind):
    """Every row of the ``kind`` events, in order."""
    return [row for event in events if event.kind == kind for row in wire_rows(event)]


class TestEventsPerTransaction:
    """What a served request costs the bus, as exact counts (they repeat
    where wall-clock does not): one ``server.request`` per admitted run of
    a read and one ``server.respond`` per write, a row per request."""

    @pytest.mark.parametrize(
        "transport, expected",
        [
            pytest.param(
                "local",
                {
                    "server.request": 4,
                    "server.respond": 3,
                    "txn.begin": 1,
                    "txn.invoke": 2,
                    "txn.respond": 2,
                    "txn.commit": 1,
                    "compaction.advance": 2,
                },
                id="local",
            ),
            # The kernel's events are on the shard children's own buses.
            pytest.param(
                "process", {"server.request": 4, "server.respond": 3}, id="process"
            ),
        ],
    )
    def test_one_uniform_transaction(self, transport, expected, serve_over):
        events = []

        async def scenario():
            bus = TraceBus()
            bus.subscribe(events.append)
            first, second = co_located(2)
            server = await serve_over(
                transport, objects=[first, second], tracer=bus
            )
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            await client.invoke(handle, first, "Credit", 5)
            await client.invoke(handle, second, "Credit", 7)
            await client.commit(handle)
            await client.aclose()
            await server.drain()

        run(scenario())
        per_request = collections.Counter(
            event.kind for event in events if event.kind not in LIFECYCLE_KINDS
        )
        assert per_request == expected
        admissions = rows_of(events, "server.request")
        assert [data["action"] for data in admissions] == [
            "begin",
            "invoke",
            "invoke",
            "commit",
        ]
        # `begin` is answered at admission; the rest went to shard 0.
        assert [data["shard"] for data in admissions] == [None, 0, 0, 0]
        assert all(data["sent"] is not None for data in admissions)
        assert len(rows_of(events, "server.respond")) == 3

    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_eight_transactions_in_lock_step_on_one_connection(
        self, transport, serve_over
    ):
        """Each read carries every client's next frame: its begins are
        answered at admission, its invokes and commits run as one batch,
        so 8 transactions cost 4 ``server.request`` + 3 ``server.respond``
        events, with a row for each of their 32 requests and 24 replies."""
        clients, events = 8, []

        async def scenario():
            bus = TraceBus()
            bus.subscribe(events.append)
            first, second = co_located(2)
            server = await serve_over(transport, objects=[first, second], tracer=bus)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            decoder, rids = FrameDecoder(), iter(range(1, 1 << 20))

            async def read(frames):
                writer.write(b"".join(request_frame(next(rids), *f) for f in frames))
                replies = []
                while len(replies) < len(frames):
                    replies += decoder.feed(await reader.read(65536))
                assert all(reply["ok"] for reply in replies), replies
                return replies

            mark = len(events)
            begun = await read([("begin", {})] * clients)
            handles = [reply["result"]["transaction"] for reply in begun]
            for obj in (first, second):
                await read(
                    [
                        ("invoke", dict(transaction=h, obj=obj, operation="Credit",
                                        args=(1,)))
                        for h in handles
                    ]
                )
            await read([("commit", {"transaction": h}) for h in handles])
            served = events[mark:]
            writer.close()
            await server.drain()
            return served

        served = run(scenario())
        wire = [e for e in served if e.kind.startswith("server.")]
        assert collections.Counter(e.kind for e in wire) == {
            "server.request": 4,
            "server.respond": 3,
        }
        assert [len(wire_rows(e)) for e in wire] == [8, 8, 8, 8, 8, 8, 8]
        admissions = rows_of(served, "server.request")
        assert [data["action"] for data in admissions] == (
            ["begin"] * 8 + ["invoke"] * 16 + ["commit"] * 8
        )
        assert [data["shard"] for data in admissions] == [None] * 8 + [0] * 24
        replies = rows_of(served, "server.respond")
        assert [data["action"] for data in replies] == ["invoke"] * 16 + ["commit"] * 8
        assert {data["transaction"] for data in replies} == {
            data["transaction"] for data in admissions[8:]
        }

    def test_a_busy_refusal_is_one_server_busy(self, serve_over):
        events = []

        async def scenario():
            bus = TraceBus()
            bus.subscribe(events.append)
            server = await serve_over("local", tracer=bus, queue_limit=0)
            (name,) = co_located(1)
            server.create_object(name, "Account")
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            mark = len(events)
            with pytest.raises(WireError) as refused:
                await client.invoke(handle, name, "Credit", 5)
            assert refused.value.code == "BUSY"
            refusal = events[mark:]
            await client.aclose()
            await server.drain()
            return handle, refusal

        handle, (busy,) = run(scenario())
        assert busy.kind == "server.busy"
        assert busy.data["transaction"] == handle and busy.data["action"] == "invoke"
        assert busy.data["shard"] == 0 and busy.data["queue_depth"] == 0
        assert busy.data["trace"] is not None and busy.data["sent"] <= busy.ts

    def test_a_routing_refusal_is_one_unrouted_server_request(self, serve_over):
        events = []

        async def scenario():
            bus = TraceBus()
            bus.subscribe(events.append)
            server = await serve_over("local", tracer=bus)
            client = await AsyncClient.connect(server.host, server.port)
            mark = len(events)
            with pytest.raises(WireError) as refused:
                await client.commit("s1.t99")
            assert refused.value.code == "UNKNOWN_TXN"
            refusal = events[mark:]
            await client.aclose()
            await server.drain()
            assert server.stats["requests"] == 0  # the routed count
            return refusal

        (request,) = run(scenario())
        assert request.kind == "server.request"
        (data,) = wire_rows(request)
        assert data["shard"] is None and data["queue_depth"] == 0
        assert data["transaction"] == "s1.t99"


class _TimedShard(LocalShard):
    """A local shard whose calls take 0.5 ms per op on the test's clock."""

    def __init__(self, engine, now):
        super().__init__(engine)
        execute = self.call

        def call(ops):
            now[0] += 0.0005 * len(ops)
            return execute(ops)

        self.call = call


def served_script(bus, now, flight):
    """A fixed driven run on a clock that moves only in shard calls, in
    writes and between reads, so every clock read a wire event makes is
    the same whether it is made per request or per batch: two clients, a
    run cut by a shard switch, a cross-shard commit, a parked invocation
    woken by its holder's commit, a read whose fourth invoke finds the
    FIFO full (BUSY), a routing refusal, a ping and a disconnect."""

    class Shell(Driven):
        def collect(self):
            now[0] += 0.0001  # the write
            super().collect()

    engines = [ShardEngine(index, 2, tracer=bus) for index in range(2)]
    shards = ShardSet([_TimedShard(engine, now) for engine in engines])
    driven = Shell(shards, tracer=bus, batched=True, queue_limit=3, flight=flight)
    now[0] = 0.0  # the run starts here, after the core's start-up resolution
    a, b = (co_located(1, shards=2, shard=index)[0] for index in (0, 1))
    driven.create(a)
    driven.create(b)
    first, second = driven.connect(), driven.connect()
    rids = itertools.count(1)

    def read(conn, *frames):
        now[0] += 0.001
        sent = {"sent": now[0] - 0.0007}
        batch = [(next(rids), action, params) for action, params in frames]
        driven.feed(
            conn,
            b"".join(
                request_frame(rid, action, params, trace={"id": f"c{rid}", **sent})
                for rid, action, params in batch
            ),
        )
        return [conn.answer(rid) for rid, _, _ in batch]

    def invoke(handle, obj, operation, amount):
        params = dict(transaction=handle, obj=obj, operation=operation, args=(amount,))
        return "invoke", params

    begun = read(first, ("begin", {}), ("begin", {}), ("begin", {}))
    t1, t2, t3 = (reply["result"]["transaction"] for reply in begun)
    read(
        first,
        invoke(t1, a, "Credit", 5),
        invoke(t2, a, "Credit", 100),
        invoke(t3, b, "Credit", 2),
        invoke(t1, b, "Credit", 1),
    )
    read(first, invoke(t2, a, "Debit", 1))
    (begun,) = read(second, ("begin", {}))
    other = begun["result"]["transaction"]
    (parked,) = read(second, invoke(other, a, "Debit", 1))
    assert parked is None
    read(first, ("commit", {"transaction": t2}))  # wakes it
    credits = read(second, *[invoke(other, a, "Credit", n) for n in (1, 2, 3, 4)])
    assert [result(body) for body in credits] == ["Ok", "Ok", "Ok", "BUSY"]
    read(second, ("commit", {"transaction": "s2.t99"}), ("ping", {}))
    read(first, ("commit", {"transaction": t1}), ("commit", {"transaction": t3}))
    read(second, ("commit", {"transaction": other}))
    driven.disconnect(second)


def _histogram(counts, total, sum):
    return {"counts": counts + [0] * (14 - len(counts)), "total": total, "sum": sum}


#: The ``server.*``, ``flight.*`` and ``txn.*`` instruments of
#: ``served_script``'s registry, as the per-request events (one
#: ``server.request`` and one ``server.respond`` per request) left them.
PER_REQUEST_SNAPSHOT = {
    "counters": {
        "flight.dumps": 1,
        "server.busy": 1,
        "server.connections_closed": 1,
        "server.connections_opened": 2,
        "server.decoded": 20,
        "server.request[commit]": 4,
        "server.request[invoke]": 9,
        "server.requests": 13,
        "server.responses": 13,
        "server.responses[shard0]": 10,
        "server.responses[shard1]": 3,
        "txn.begun": 4,
        "txn.committed": 4,
    },
    "gauges": {
        "server.connections": 1,
        "server.queue_depth": 0,
        "server.queue_depth[shard0]": 0,
        "server.queue_depth[shard1]": 1,
    },
    "histograms": {
        "server.client": _histogram([0, 20], 20, 0.013999999999999992),
        "server.execute": _histogram([0, 4, 6, 3], 13, 0.018300000000000007),
        "server.queue": _histogram([10, 1, 0, 2], 13, 0.004900000000000001),
        "server.respond": _histogram([13], 13, 0.0012999999999999956),
        "txn.latency": _histogram([0, 0, 0, 0, 1, 3], 4, 0.049900000000000014),
    },
}


class TestRowsFoldAsRequestsDid:
    """Batched rows are a cheaper carrier, not a different measurement:
    what the registry, the span builder and ``repro analyze`` make of a
    served run is what they made of one event per request."""

    def wired(self, tmp_path, *sinks, cooldown=256):
        now = [0.0]
        bus = TraceBus(clock=lambda: now[0])
        registry = MetricsRegistry()
        bus.subscribe(RegistrySink(registry, WIRE_LATENCY_BUCKETS))
        flight = FlightRecorder(
            str(tmp_path / "flight"),
            queue_high_water=2,
            cooldown_events=cooldown,
            emit_to=bus,
        )
        bus.subscribe(flight)
        for sink in sinks:
            bus.subscribe(sink)
        served_script(bus, now, flight)
        return registry, flight

    def test_the_registry_snapshot_is_the_per_request_one(self, tmp_path):
        registry, _ = self.wired(tmp_path)
        snapshot = registry.snapshot()
        kept = ("server.", "flight.", "txn.")
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert {
            "counters": {k: v for k, v in counters.items() if k.startswith(kept)},
            "gauges": {k: v for k, v in gauges.items() if k.startswith(kept)},
            "histograms": {
                name: {key: entry[key] for key in ("counts", "total", "sum")}
                for name, entry in snapshot["histograms"].items()
                if name.startswith(kept)
            },
        } == PER_REQUEST_SNAPSHOT

    def test_a_replayed_trace_folds_to_the_live_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(str(path)) as sink:
            live = SpanBuilder()
            self.wired(tmp_path, live, sink)
        replayed = SpanBuilder()
        for event in read_jsonl(str(path)):
            replayed(event)
        assert len(live.committed()) == 4
        assert [(s.transaction, s.trace, s.phases) for s in replayed.spans] == [
            (s.transaction, s.trace, s.phases) for s in live.spans
        ]
        budget = critical_path(live.committed())["phase_budget"]
        assert critical_path(replayed.committed())["phase_budget"] == budget
        assert all(budget[phase]["total"] > 0 for phase in ("client", "execute"))

    def test_a_flight_dump_opens_in_analyze(self, tmp_path, capsys):
        _, flight = self.wired(tmp_path, cooldown=0)
        path = flight.dump("manual")
        report = analyze_trace(read_jsonl(path))
        assert report["shards"]["requests"] == {"shard0": 10, "shard1": 3}
        assert max(row["max_depth"] for row in report["queue_timeline"]) == 2
        assert sum(row["samples"] for row in report["queue_timeline"]) == 13
        assert repro_main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "queue depth timeline (admitted requests):" in out
        assert "shard0" in out and "shard1" in out


class TestFailingSink:
    def test_a_closed_trace_file_costs_no_request_its_answer(self, tmp_path):
        """The trace file goes away under a serving ``JSONLSink``: the sink
        is detached and counted, every request keeps its typed answer and
        the other sinks keep their events."""
        bus, registry, flight = telemetry_stack(tmp_path)
        trace = open(tmp_path / "trace.jsonl", "w", encoding="utf-8")
        sink = bus.subscribe(JSONLSink(trace))
        results = {}

        async def scenario():
            server = await start_server(
                tracer=bus, registry=registry, flight=flight, flush_on_drain=[sink]
            )
            server.create_object("A", "Account")
            client = await AsyncClient.connect(server.host, server.port)
            first = await client.begin()
            await client.invoke(first, "A", "Credit", 5)
            trace.close()
            results["committed"] = await client.commit(first)
            second = await client.begin()
            results["result"] = await client.invoke(second, "A", "Credit", 7)
            results["second"] = await client.commit(second)
            results["stats"] = await client.stats()
            await client.aclose()
            await server.drain()

        run(scenario())
        assert results["committed"] < results["second"] and results["result"] == "Ok"
        assert results["stats"]["sink_failures"] == 1
        assert results["stats"]["server"]["errors"] == 0
        # Detached at its first failed write; the drain's close() failing
        # on the same file is recorded too, not raised.
        assert [failed for failed, _ in bus.failures] == [sink, sink]
        assert all(isinstance(error, ValueError) for _, error in bus.failures)
        assert registry.counter("txn.committed").value == 2
        assert flight.last_reason == "drain"
