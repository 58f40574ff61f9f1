"""Sinks and renderers: ring buffer, JSONL round-trip, tables, snapshots."""

import json

from repro.adts import get_adt
from repro.obs import (
    Histogram,
    JSONLSink,
    RingBufferSink,
    SpanBuilder,
    TraceBus,
    lock_table_snapshot,
    manager_lock_tables,
    read_jsonl,
    render_events,
    render_histogram,
    render_kind_summary,
    render_lock_tables,
    render_spans,
    render_waits_for,
    spans_as_dicts,
    waits_for_edges,
)
from repro.runtime.manager import TransactionManager
from repro.runtime.waiting import WaitRegistry


def emit_sample(bus):
    bus.emit("txn.begin", transaction="T1")
    bus.emit("txn.invoke", transaction="T1", obj="Q", operation="Enq(1)")
    bus.emit("txn.respond", transaction="T1", obj="Q", result="Ok")
    bus.emit("txn.commit", transaction="T1", timestamp=3)


class TestRingBufferSink:
    def test_keeps_everything_when_unbounded(self):
        bus = TraceBus(clock=lambda: 0.0)
        ring = bus.subscribe(RingBufferSink())
        emit_sample(bus)
        assert len(ring) == 4
        assert ring.seen == 4

    def test_capacity_drops_oldest(self):
        bus = TraceBus(clock=lambda: 0.0)
        ring = bus.subscribe(RingBufferSink(capacity=2))
        emit_sample(bus)
        kept = [event.kind for event in ring.events()]
        assert kept == ["txn.respond", "txn.commit"]
        assert ring.seen == 4

    def test_clear(self):
        bus = TraceBus(clock=lambda: 0.0)
        ring = bus.subscribe(RingBufferSink())
        emit_sample(bus)
        ring.clear()
        assert len(ring) == 0
        assert ring.seen == 4


class TestJSONLSink:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        ticks = iter([1.0, 2.0, 3.0, 4.0])
        bus = TraceBus(clock=lambda: next(ticks))
        with JSONLSink(path) as sink:
            bus.subscribe(sink)
            emit_sample(bus)
        assert sink.written == 4
        events = read_jsonl(path)
        assert [e.kind for e in events] == [
            "txn.begin",
            "txn.invoke",
            "txn.respond",
            "txn.commit",
        ]
        assert events[0].ts == 1.0
        assert events[3].data["timestamp"] == 3

    def test_every_line_is_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = TraceBus(clock=lambda: 0.0)
        sink = bus.subscribe(JSONLSink(path))
        # Non-JSON payloads (tuples, objects) must serialise via repr.
        bus.emit("txn.commit", transaction="T1", timestamp=(3, "T1"))
        sink.close()
        with open(path) as handle:
            record = json.loads(handle.readline())
        assert record["kind"] == "txn.commit"


class TestRenderers:
    def build_spans(self):
        ticks = iter([0.0, 1.0, 1.5, 4.0])
        bus = TraceBus(clock=lambda: next(ticks))
        builder = bus.subscribe(SpanBuilder())
        emit_sample(bus)
        return builder.spans

    def test_render_spans_table(self):
        text = render_spans(self.build_spans())
        assert "transaction" in text
        assert "T1" in text
        assert "committed" in text

    def test_render_events_and_summary(self):
        bus = TraceBus(clock=lambda: 0.0)
        ring = bus.subscribe(RingBufferSink())
        emit_sample(bus)
        text = render_events(ring.events())
        assert "txn.begin" in text and "transaction=T1" in text
        summary = render_kind_summary(ring.events())
        assert "txn.invoke" in summary

    def test_render_histogram(self):
        histogram = Histogram("lat", (1.0, 10.0))
        for value in (0.5, 0.6, 5.0):
            histogram.observe(value)
        text = render_histogram(histogram)
        assert "lat" in text and "<= 1" in text and "+inf" in text

    def test_spans_as_dicts(self):
        (row,) = spans_as_dicts(self.build_spans())
        assert row["transaction"] == "T1"
        assert row["outcome"] == "committed"
        assert row["objects"] == ["Q"]


class TestSnapshots:
    def make_manager(self):
        manager = TransactionManager()
        manager.create_object("Q", get_adt("FIFOQueue"))
        return manager

    def test_lock_table_lists_active_holders(self):
        manager = self.make_manager()
        txn = manager.begin()
        manager.invoke(txn, "Q", "Enq", 1)
        tables = manager_lock_tables(manager)
        assert txn.name in tables["Q"]
        assert any("Enq" in held for held in tables["Q"][txn.name])

    def test_lock_table_empty_after_commit(self):
        manager = self.make_manager()
        txn = manager.begin()
        manager.invoke(txn, "Q", "Enq", 1)
        manager.commit(txn)
        machine = manager.object("Q").machine
        assert lock_table_snapshot(machine) == {}

    def test_waits_for_edges_and_renderers(self):
        waits = WaitRegistry()
        waits.wait("T2", "T1", wake=lambda: None)
        edges = waits_for_edges(waits)
        assert edges == {"T2": "T1"}
        assert "T2 -> T1" in render_waits_for(edges)
        assert render_waits_for({}) == "(no blocked transactions)"
        manager = self.make_manager()
        txn = manager.begin()
        manager.invoke(txn, "Q", "Enq", 1)
        text = render_lock_tables(manager_lock_tables(manager))
        assert "Q:" in text and txn.name in text
        assert "(no active transactions" in render_lock_tables({})
