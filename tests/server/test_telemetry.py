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
    read_jsonl,
    render_prometheus,
)
from repro.server import AsyncClient, ReproServer, render_top
from repro.server.engine import LocalShard, ShardEngine, ShardSet, shard_for
from repro.server.protocol import WireError, parse_request, parse_response, request_frame
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


def co_located(count, shards=2):
    """``count`` object names that all live on shard 0 of ``shards``."""
    names = (f"acct{n}" for n in range(64))
    return [name for name in names if shard_for(name, shards) == 0][:count]


class TestEventsPerTransaction:
    """What a served request costs the bus, as exact counts (they repeat
    where wall-clock does not)."""

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
        admissions = [e.data for e in events if e.kind == "server.request"]
        assert [data["action"] for data in admissions] == [
            "begin",
            "invoke",
            "invoke",
            "commit",
        ]
        # `begin` is answered at admission; the rest went to shard 0.
        assert [data["shard"] for data in admissions] == [None, 0, 0, 0]
        assert all(data["sent"] is not None for data in admissions)

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
        assert request.data["shard"] is None and request.data["queue_depth"] == 0
        assert request.data["transaction"] == "s1.t99"


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
