"""The flight recorder: bounded ring, anomaly triggers, honest dumps.

Everything runs against a :class:`~repro.obs.bus.TraceBus` with a
scripted clock — no sockets, no real time — and dumps land in tmp_path
so the tagged-codec JSONL round trip is checked with the same
:func:`~repro.obs.sinks.read_jsonl` that ``repro analyze`` uses.
"""

import json

import pytest

from repro.obs import FlightRecorder, TraceBus, read_jsonl
from tests.rows import admitted, request


def make_bus(clock_box):
    return TraceBus(clock=lambda: clock_box[0])


def pump(bus, count, kind="txn.invoke", **data):
    data.setdefault("transaction", "t1")
    for _ in range(count):
        bus.emit(kind, **data)


class TestRingAndTriggers:
    def test_quiet_stream_never_dumps(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path)))
        pump(bus, 100)
        assert flight.dumps == []
        assert not list(tmp_path.iterdir())

    def test_ring_is_bounded_and_counts_evictions(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path), capacity=8))
        pump(bus, 20)
        assert len(flight.ring) == 8
        assert flight.ring.dropped == 12
        assert flight.ring.seen == 20

    @pytest.mark.parametrize(
        "kind, data, reason",
        [
            ("server.busy", {"session": "s1", "queue_depth": 9}, "busy"),
            ("server.drain", {"sessions": 0, "aborted": 0}, "drain"),
            (
                "check.violation",
                {"rule": "serial", "txn": "t1", "obj": "A"},
                "violation",
            ),
        ],
    )
    def test_trigger_kinds_dump_with_their_reason(
        self, tmp_path, kind, data, reason
    ):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path)))
        pump(bus, 5)
        bus.emit(kind, **data)
        assert len(flight.dumps) == 1
        assert flight.last_reason == reason
        assert reason in flight.dumps[0]

    def test_queue_high_water_trigger(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(
            FlightRecorder(str(tmp_path), queue_high_water=4)
        )
        admitted(bus, session="s1", action="invoke", queue_depth=3)
        assert flight.dumps == []
        admitted(bus, session="s1", action="invoke", queue_depth=4)
        assert flight.last_reason == "queue-high-water"

    def test_queue_high_water_fires_on_any_row_of_a_batch(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(
            FlightRecorder(str(tmp_path), queue_high_water=4)
        )
        rows = [request(session="s1", queue_depth=depth) for depth in (0, 1, 2, 3)]
        bus.emit("server.request", requests=rows)
        assert flight.dumps == []
        rows = [request(session="s1", queue_depth=depth) for depth in (3, 4, 0)]
        bus.emit("server.request", requests=rows)
        assert flight.last_reason == "queue-high-water"

    def test_cooldown_separates_consecutive_dumps(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(
            FlightRecorder(str(tmp_path), cooldown_events=10)
        )
        bus.emit("server.busy", session="s1", queue_depth=9)
        bus.emit("server.busy", session="s1", queue_depth=9)
        assert len(flight.dumps) == 1, "second trigger inside cooldown"
        pump(bus, 10)
        bus.emit("server.busy", session="s1", queue_depth=9)
        assert len(flight.dumps) == 2


class TestDumpFiles:
    def test_dump_replays_through_read_jsonl(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path), capacity=4))
        pump(bus, 10)
        path = flight.dump("manual")
        events = list(read_jsonl(path))
        # Header first, then exactly the retained window.
        assert events[0].kind == "flight.dump"
        assert events[0].data["reason"] == "manual"
        assert events[0].data["events"] == 4
        assert events[0].data["dropped"] == 6
        assert [e.kind for e in events[1:]] == ["txn.invoke"] * 4

    def test_dump_names_are_deterministic(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path), cooldown_events=0))
        flight.dump("first")
        flight.dump("weird reason/with:junk")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "flight-001-first.jsonl",
            "flight-002-weird-reason-with-junk.jsonl",
        ]

    def test_dump_file_is_valid_jsonl(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path)))
        pump(bus, 3)
        path = flight.dump("manual")
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)

    def test_emit_to_announces_without_recursing(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        seen = []
        bus.subscribe(lambda event: seen.append(event.kind))
        flight = bus.subscribe(
            FlightRecorder(str(tmp_path), emit_to=bus)
        )
        bus.emit("server.busy", session="s1", queue_depth=9)
        assert seen.count("flight.dump") == 1
        assert len(flight.dumps) == 1
        # The announcement itself must not sit in the ring for the next
        # dump (the recorder ignores its own kind).
        assert all(e.kind != "flight.dump" for e in flight.ring.events())


class TestStatus:
    def test_status_summarizes_recorder_state(self, tmp_path):
        clock = [0.0]
        bus = make_bus(clock)
        flight = bus.subscribe(FlightRecorder(str(tmp_path), capacity=4))
        pump(bus, 6)
        status = flight.status()
        assert status == {
            "dumps": 0,
            "last_reason": None,
            "last_path": None,
            "retained": 4,
            "seen": 6,
            "dropped_events": 2,
        }
        path = flight.dump("manual")
        status = flight.status()
        assert status["dumps"] == 1
        assert status["last_reason"] == "manual"
        assert status["last_path"] == path
