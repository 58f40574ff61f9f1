"""The bus routes each event kind to the callables that fold it.

A sink that declares ``route(kind)`` hears a kind only through what that
returns; the registry routes ``txn.invoke`` / ``txn.respond`` nowhere,
the flight recorder adds its trigger only for the kinds it watches.  So
routing is an optimisation, and the property here says it is nothing
more: any stream of events — every registered kind, an unknown one,
queue-high-water admissions and checker refutations among them — pushed
through the routed bus leaves the same registry snapshot, ring, counts
and dump files as the same stream handed to twin sinks by direct
``sink(event)`` calls, the way the bus delivered before it routed.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.obs import (
    EVENT_KINDS,
    FlightRecorder,
    MetricsRegistry,
    RegistrySink,
    TraceBus,
    TraceEvent,
)
from repro.obs.events import EVENT_PAYLOADS, REPLY_ROW, REQUEST_ROW

UNKNOWN_KIND = "no.such.kind"
HIGH_WATER = 8

_VALUES = {
    "transaction": st.sampled_from(["T1", "T2", "T3"]),
    "obj": st.sampled_from(["A", "B"]),
    "objects": st.lists(st.sampled_from(["A", "B"]), max_size=2),
    "shard": st.sampled_from([None, 0, 1]),
    "queue_depth": st.integers(0, HIGH_WATER + 4),
    "sent": st.none() | st.floats(0.0, 50.0),
    "queue": st.floats(0.0, 0.01),
    "execute": st.floats(0.0, 0.01),
    "respond": st.floats(0.0, 0.01),
    "collapsed": st.integers(0, 3),
    "action": st.sampled_from([None, "begin", "invoke", "commit"]),
}
_ANY = st.none() | st.integers(-2, 5) | st.sampled_from(["x", "Credit", "Ok"])


def rows(layout):
    """Batched wire rows: a few tuples of ``layout``'s fields."""
    fields = st.tuples(*(_VALUES.get(key, _ANY) for key in layout))
    return st.lists(fields, min_size=1, max_size=4)


#: The keys a kind's handlers always read.
_ROWS = {"requests": rows(REQUEST_ROW), "replies": rows(REPLY_ROW)}


def payloads(kind):
    keys = EVENT_PAYLOADS.get(kind, frozenset({"transaction", "obj"}))
    required = {"transaction": _VALUES["transaction"]} if "transaction" in keys else {}
    required.update((key, _ROWS[key]) for key in keys if key in _ROWS)
    optional = {key: _VALUES.get(key, _ANY) for key in keys if key not in required}
    return st.fixed_dictionaries(required, optional=optional)


events = st.sampled_from(sorted(EVENT_KINDS) + [UNKNOWN_KIND]).flatmap(
    lambda kind: st.tuples(st.just(kind), payloads(kind))
)


class DirectBus:
    """The reference: every sink is called with every event, in order."""

    def __init__(self, clock):
        self.clock = clock
        self.sinks = []

    def emit(self, kind, **data):
        event = TraceEvent(self.clock(), kind, data)
        for sink in self.sinks:
            sink(event)


def wire(bus, directory):
    """The ``repro serve`` wiring on ``bus``: registry, then recorder."""
    registry = MetricsRegistry()
    sinks = (
        RegistrySink(registry),
        FlightRecorder(
            directory,
            capacity=6,
            queue_high_water=HIGH_WATER,
            cooldown_events=4,
            emit_to=bus,
        ),
    )
    return registry, sinks


def dump_files(directory):
    """Each dump file's name and bytes."""
    files = {}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    return files


class TestRoutedEqualsDirect:
    @settings(max_examples=150, deadline=None)
    @given(stream=st.lists(events, max_size=60))
    def test_same_snapshot_ring_counts_and_dumps(self, stream):
        with tempfile.TemporaryDirectory() as root:
            now = [0.0]
            clock = lambda: now[0]
            routed = TraceBus(clock=clock)
            routed_registry, routed_sinks = wire(routed, os.path.join(root, "r"))
            for sink in routed_sinks:
                routed.subscribe(sink)
            direct = DirectBus(clock)
            direct_registry, direct_sinks = wire(direct, os.path.join(root, "d"))
            direct.sinks.extend(direct_sinks)

            for kind, data in stream:
                now[0] += 0.25
                routed.emit(kind, **data)
                direct.emit(kind, **dict(data))

            assert routed.failures == []
            assert routed_registry.snapshot() == direct_registry.snapshot()
            routed_flight, direct_flight = routed_sinks[1], direct_sinks[1]
            assert routed_flight.ring.events() == direct_flight.ring.events()
            assert routed_flight.ring.seen == direct_flight.ring.seen
            assert routed_flight.ring.dropped == direct_flight.ring.dropped
            assert dump_files(os.path.join(root, "r")) == dump_files(
                os.path.join(root, "d")
            )


class TwoFolds:
    """A routed sink whose first fold may raise."""

    def __init__(self, raises=False):
        self.raises = raises
        self.first, self.second = [], []
        self.routed = []

    def route(self, kind):
        self.routed.append(kind)
        return (self.fold_first, self.fold_second)

    def fold_first(self, event):
        self.first.append(event.kind)
        if self.raises:
            raise OSError("disk full")

    def fold_second(self, event):
        self.second.append(event.kind)


class RaisesOnSecondCall:
    """Routes the same fold object every time, as the ring does."""

    def __init__(self):
        self.calls = 0
        self.folds = (self.fold,)

    def route(self, kind):
        return self.folds

    def fold(self, event):
        self.calls += 1
        if self.calls == 2:
            raise OSError("disk full")


class TestRouting:
    def test_a_raising_fold_detaches_its_whole_sink(self):
        bus = TraceBus(clock=lambda: 1.0)
        before, after = [], []
        broken = TwoFolds(raises=True)
        bus.subscribe(before.append)
        bus.subscribe(broken)
        bus.subscribe(after.append)
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.begin", transaction="T2")
        # Its second fold never ran, and after the first event it heard
        # nothing; the sinks on either side heard both events.
        assert broken.first == ["txn.begin"] and broken.second == []
        assert [e.data["transaction"] for e in before] == ["T1", "T2"]
        assert after == before
        ((sink, error),) = bus.failures
        assert sink is broken and isinstance(error, OSError)

    def test_a_sink_routed_twice_fails_where_it_raised(self):
        # The same fold object twice in one route, around another sink,
        # raising the second time: the sink between hears the event once.
        bus = TraceBus(clock=lambda: 1.0)
        twice, between = RaisesOnSecondCall(), []
        bus.subscribe(twice)
        bus.subscribe(between.append)
        bus.subscribe(twice)
        bus.emit("txn.begin", transaction="T1")
        assert len(between) == 1 and twice.calls == 2
        assert [sink for sink, _ in bus.failures] == [twice]

    def test_a_raising_route_detaches_its_sink(self):
        bus = TraceBus(clock=lambda: 1.0)
        heard = []
        broken = TwoFolds()
        broken.route = lambda kind: 1 / 0
        bus.subscribe(broken)
        bus.subscribe(heard.append)
        bus.emit("txn.begin", transaction="T1")
        assert len(heard) == 1 and broken.first == []
        ((sink, error),) = bus.failures
        assert sink is broken and isinstance(error, ZeroDivisionError)

    def test_a_kind_routed_nowhere_is_never_heard(self):
        bus = TraceBus(clock=lambda: 1.0)
        registry = MetricsRegistry()
        sink = bus.subscribe(RegistrySink(registry))
        assert sink.route("txn.respond") == ()
        bus.emit("txn.respond", transaction="T1", obj="A", result="Ok")
        assert bus.emitted == 1 and registry.snapshot()["counters"] == {}

    def test_routes_are_asked_once_per_kind_until_the_sinks_change(self):
        bus = TraceBus(clock=lambda: 1.0)
        folds = bus.subscribe(TwoFolds())
        for _ in range(3):
            bus.emit("txn.begin", transaction="T1")
            bus.emit("lock.wait", transaction="T1")
        assert folds.routed == ["txn.begin", "lock.wait"]
        late = bus.subscribe(TwoFolds())
        bus.emit("txn.begin", transaction="T2")
        assert folds.routed == ["txn.begin", "lock.wait", "txn.begin"]
        assert late.first == ["txn.begin"]
        bus.unsubscribe(late)
        assert bus.active
        bus.unsubscribe(folds)
        assert not bus.active
