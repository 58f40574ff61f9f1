"""The trace bus: emit-if-anyone-listens semantics and typed events."""

import pytest

from repro.obs import EVENT_KINDS, TraceBus, TraceEvent


def make_clock(values):
    it = iter(values)
    return lambda: next(it)


class TestTraceBus:
    def test_emit_without_sinks_is_a_no_op(self):
        bus = TraceBus(clock=make_clock([]))  # a clock read would raise
        bus.emit("txn.begin", transaction="T1")
        assert bus.emitted == 0
        assert not bus.active

    def test_emit_fans_out_to_every_sink(self):
        bus = TraceBus(clock=make_clock([1.0, 2.0]))
        first, second = [], []
        bus.subscribe(first.append)
        bus.subscribe(second.append)
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.commit", transaction="T1", timestamp=7)
        assert [e.kind for e in first] == ["txn.begin", "txn.commit"]
        assert first == second
        assert bus.emitted == 2
        assert first[0].ts == 1.0 and first[1].ts == 2.0

    def test_subscribe_returns_the_sink(self):
        bus = TraceBus()

        def sink(event):
            pass

        assert bus.subscribe(sink) is sink

    def test_unsubscribe_detaches(self):
        bus = TraceBus(clock=make_clock([1.0]))
        events = []
        bus.subscribe(events.append)
        bus.unsubscribe(events.append)
        bus.unsubscribe(events.append)  # absent: no-op
        bus.emit("txn.begin", transaction="T1")
        assert events == []
        assert not bus.active

    def test_a_raising_sink_is_detached_and_the_rest_still_hear(self):
        bus = TraceBus(clock=make_clock([1.0, 2.0]))
        before, after = [], []

        def broken(event):
            raise ValueError("I/O operation on closed file")

        bus.subscribe(before.append)
        bus.subscribe(broken)
        bus.subscribe(after.append)
        bus.emit("txn.begin", transaction="T1")  # does not raise
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        # The sinks on either side of it got both events; it got one.
        assert [e.kind for e in before] == ["txn.begin", "txn.commit"]
        assert after == before
        ((sink, error),) = bus.failures
        assert sink is broken and isinstance(error, ValueError)

    def test_only_exceptions_are_isolated(self):
        # An interrupt (or the engine's crash op, a BaseException) is not
        # a sink failure: it passes, and the sink stays subscribed.
        bus = TraceBus(clock=make_clock([1.0]))

        def interrupted(event):
            raise KeyboardInterrupt

        bus.subscribe(interrupted)
        with pytest.raises(KeyboardInterrupt):
            bus.emit("txn.begin", transaction="T1")
        assert bus.failures == [] and bus.active

    def test_clock_is_rebindable(self):
        bus = TraceBus()
        bus.clock = lambda: 42.5
        events = []
        bus.subscribe(events.append)
        bus.emit("lock.conflict", transaction="T1")
        assert events[0].ts == 42.5


class TestTraceEvent:
    def test_transaction_property(self):
        event = TraceEvent(1.0, "txn.begin", {"transaction": "T9"})
        assert event.transaction == "T9"
        assert TraceEvent(1.0, "compaction.advance", {"obj": "Q"}).transaction is None

    def test_is_a_slotted_dataclass_with_equality(self):
        import dataclasses

        event = TraceEvent(1.0, "txn.commit", {"transaction": "T1", "timestamp": 3})
        moved = dataclasses.replace(event, ts=2.0)  # the checker's mutations
        assert moved != event and moved.data is event.data
        assert moved == TraceEvent(2.0, "txn.commit", dict(event.data))
        assert not hasattr(event, "__dict__")

    def test_to_dict_flattens_payload(self):
        event = TraceEvent(2.5, "lock.conflict", {"transaction": "T1", "obj": "A"})
        assert event.to_dict() == {
            "ts": 2.5,
            "kind": "lock.conflict",
            "transaction": "T1",
            "obj": "A",
        }

    def test_event_kinds_cover_the_taxonomy(self):
        expected = {
            "txn.begin",
            "txn.invoke",
            "txn.respond",
            "txn.commit",
            "txn.abort",
            "lock.conflict",
            "lock.block",
            "lock.wait",
            "compaction.advance",
            "wal.append",
            "wal.replay",
            "net.send",
            "site.crash",
            "site.recover",
        }
        assert expected <= set(EVENT_KINDS)
