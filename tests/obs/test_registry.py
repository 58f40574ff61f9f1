"""The metrics registry: primitives, Metrics bridge, and the event sink."""

import dataclasses

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySink,
    TraceBus,
)
from repro.sim.metrics import Metrics
from tests.rows import reply, request


class TestPrimitives:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1

    def test_histogram_buckets_are_cumulative_le(self):
        histogram = Histogram("h", (1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            histogram.observe(value)
        # counts per bucket: <=1, <=5, <=10, +inf
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.total == 5
        assert histogram.sum == pytest.approx(111.5)
        assert histogram.mean == pytest.approx(111.5 / 5)

    def test_histogram_quantile_interpolates_within_bucket(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 0.7, 3.0):
            histogram.observe(value)
        # rank 2 of 4 falls 2/3 into the [0, 1] bucket, not at its edge.
        assert histogram.quantile(0.5) == pytest.approx(2 / 3)
        # rank 3.96 falls 0.96 into the (2, 4] bucket.
        assert histogram.quantile(0.99) == pytest.approx(3.92)

    def test_histogram_quantile_overflow_reports_inf(self):
        # Regression: values beyond the last boundary used to make p99
        # silently saturate at the top edge; the overflow bucket has no
        # upper edge, so the honest answer is +inf.
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        histogram.observe(0.5)
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == float("inf")
        assert histogram.quantile(0.25) == pytest.approx(0.5)
        assert histogram.overflow == 1

    def test_histogram_from_snapshot_round_trips(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        payload = {
            "boundaries": list(histogram.boundaries),
            "counts": list(histogram.counts),
            "total": histogram.total,
            "sum": histogram.sum,
        }
        rebuilt = Histogram.from_snapshot("h", payload)
        assert rebuilt.counts == histogram.counts
        assert rebuilt.quantile(0.5) == histogram.quantile(0.5)
        assert rebuilt.overflow == histogram.overflow


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_absorb_metrics_imports_every_field(self):
        registry = MetricsRegistry()
        metrics = Metrics(committed=7, conflicts=3, aborted=2)
        registry.absorb_metrics(metrics)
        for field in dataclasses.fields(metrics):
            assert registry.counter(field.name).value == getattr(
                metrics, field.name
            )

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(5)
        registry.histogram("h").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["gauges"] == {"g": 5}
        assert snapshot["histograms"]["h"]["total"] == 1
        # snapshot is JSON-serialisable via to_json
        assert '"counters"' in registry.to_json()


class TestRegistrySink:
    def make_bus(self, registry, clock_values):
        it = iter(clock_values)
        bus = TraceBus(clock=lambda: next(it))
        bus.subscribe(RegistrySink(registry))
        return bus

    def test_lifecycle_counters_and_latency(self):
        registry = MetricsRegistry()
        bus = self.make_bus(registry, [0.0, 4.0, 5.0, 11.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        bus.emit("txn.begin", transaction="T2")
        bus.emit("txn.abort", transaction="T2")
        assert registry.counter("txn.begun").value == 2
        assert registry.counter("txn.committed").value == 1
        assert registry.counter("txn.aborted").value == 1
        assert registry.histogram("txn.latency").sum == pytest.approx(4.0)
        assert registry.histogram("txn.abort_latency").sum == pytest.approx(6.0)

    def test_terminal_without_begin_is_ignored(self):
        registry = MetricsRegistry()
        bus = self.make_bus(registry, [1.0])
        bus.emit("txn.commit", transaction="ghost", timestamp=1)
        assert "txn.committed" not in registry.counters

    def test_conflict_pair_breakdown(self):
        registry = MetricsRegistry()
        bus = self.make_bus(registry, [1.0, 2.0, 3.0])
        bus.emit(
            "lock.conflict",
            transaction="T2",
            operation="[Deq(), 1]",
            held="[Enq(1), 'Ok']",
            holder="T1",
        )
        bus.emit(
            "lock.conflict",
            transaction="T3",
            operation="[Deq(), 1]",
            held="[Enq(1), 'Ok']",
            holder="T1",
        )
        bus.emit(
            "lock.conflict",
            transaction="T3",
            operation="[Enq(2), 'Ok']",
            held="[Deq(), 1]",
            holder="T2",
        )
        assert registry.counter("lock.conflicts").value == 3
        assert registry.conflict_breakdown() == {
            "lock.conflict[[Deq(), 1] × [Enq(1), 'Ok']]": 2,
            "lock.conflict[[Enq(2), 'Ok'] × [Deq(), 1]]": 1,
        }

    def test_compaction_wal_net_site_counters(self):
        registry = MetricsRegistry()
        bus = self.make_bus(registry, iter(float(i) for i in range(10)))
        bus.emit("compaction.advance", obj="Q", collapsed=5)
        bus.emit("wal.append", record="commit")
        bus.emit("wal.replay", transaction="T1", record="commit")
        bus.emit("net.send", label="prepare")
        bus.emit("site.crash", site="S0", hard=True)
        bus.emit("site.recover", site="S0")
        assert registry.counter("compaction.advances").value == 1
        assert registry.counter("compaction.collapsed_ops").value == 5
        assert registry.counter("wal.appends").value == 1
        assert registry.counter("wal.replays").value == 1
        assert registry.counter("net.messages").value == 1
        assert registry.counter("net.send[prepare]").value == 1
        assert registry.counter("site.crashes").value == 1
        assert registry.counter("site.recoveries").value == 1


class TestPrometheusRender:
    def test_counters_gauges_histograms_in_text_format(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("txn.committed").inc(7)
        registry.gauge("server.connections").set(3)
        histogram = registry.histogram("txn.latency", (1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_txn_committed_total counter" in text
        assert "repro_txn_committed_total 7" in text
        assert "# TYPE repro_server_connections gauge" in text
        assert "repro_server_connections 3" in text
        # Buckets render cumulatively, with the +Inf catch-all.
        assert 'repro_txn_latency_bucket{le="1"} 1' in text
        assert 'repro_txn_latency_bucket{le="2"} 2' in text
        assert 'repro_txn_latency_bucket{le="+Inf"} 3' in text
        assert "repro_txn_latency_sum 11" in text
        assert "repro_txn_latency_count 3" in text

    def test_bracketed_names_become_labels(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("lock.conflict[Enq/Deq]").inc(2)
        text = render_prometheus(registry)
        assert 'repro_lock_conflict_total{key="Enq/Deq"} 2' in text

    def test_snapshot_round_trips_through_from_snapshot(self):
        from repro.obs import render_prometheus

        registry = MetricsRegistry()
        registry.counter("txn.committed").inc(4)
        registry.gauge("server.queue_depth").set(9)
        registry.histogram("txn.latency", (1.0, 5.0)).observe(2.0)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert render_prometheus(rebuilt) == render_prometheus(registry)


def _row(session, action, transaction, shard, depth, trace=None, sent=None):
    """One admitted request's row (``shard=None``: answered at admission)."""
    payload = dict(session=session, action=action, trace=trace, sent=sent)
    payload.update(transaction=transaction, shard=shard, queue_depth=depth)
    return payload


def _admitted(ts, *args, **kwargs):
    """A one-row ``server.request``."""
    return ts, "server.request", {"requests": [request(**_row(*args, **kwargs))]}


def _batch(ts, *rows):
    """A ``server.request`` of several rows, each ``_row``'s arguments."""
    return ts, "server.request", {"requests": [request(**_row(*row)) for row in rows]}


def _refused(ts, *args, **kwargs):
    """The same request, refused BUSY: one flat event."""
    return ts, "server.busy", _row(*args, **kwargs)


def _answered(ts, session, action, transaction, shard, *phases, trace=None):
    payload = dict(session=session, action=action, trace=trace)
    payload.update(transaction=transaction, shard=shard)
    payload.update(zip(("queue", "execute", "respond"), phases))
    return ts, "server.respond", {"replies": [reply(**payload)]}


def _operation(ts, transaction, obj, operation, *args):
    invoke = dict(transaction=transaction, obj=obj, operation=operation, args=args)
    respond = dict(transaction=transaction, obj=obj, result="Ok")
    return [(ts, "txn.invoke", invoke), (ts + 0.25, "txn.respond", respond)]


def _conflict(ts, transaction, obj, operation, holder, held):
    payload = dict(transaction=transaction, obj=obj, operation=operation)
    payload.update(holder=holder, held=held, relation="hybrid")
    return ts, "lock.conflict", payload


def _advance(ts, obj, transaction, horizon, collapsed):
    payload = dict(obj=obj, old_horizon=0, new_horizon=horizon, collapsed=collapsed)
    payload.update(forgotten=(transaction,), retained=0)
    return ts, "compaction.advance", payload


#: One served stream, ``(ts, kind, payload)``: a committed uniform
#: transaction on shard 0; on shard 1 a transaction refused by a
#: ``lock.conflict`` and aborted, whose retry is refused on a different
#: operation pair and by a ``lock.block`` before it commits; a BUSY; a
#: routing refusal; connect / disconnect.  Two reads admit two requests
#: each, in one ``server.request``.
SERVED_STREAM = [
    (0.0, "server.connect", {"session": "s1", "peer": "10.0.0.1:1"}),
    (0.0, "server.connect", {"session": "s2", "peer": "10.0.0.2:2"}),
    _batch(
        1.0,
        ("s1", "begin", None, None, 0, "c1-1", 0.5),
        ("s2", "begin", None, None, 0),
    ),
    _admitted(2.0, "s1", "invoke", "s1.t1", 0, 0, trace="c1-2", sent=1.75),
    (2.0, "txn.begin", {"transaction": "s1.t1", "read_only": False}),
    *_operation(2.25, "s1.t1", "A", "Credit", 5),
    _answered(3.0, "s1", "invoke", "s1.t1", 0, 0.0, 0.5, 0.5, trace="c1-2"),
    _admitted(3.0, "s2", "invoke", "s2.t1", 1, 3),
    (4.0, "txn.begin", {"transaction": "s2.t1", "read_only": False}),
    *_operation(4.25, "s2.t1", "B", "Debit", 2),
    _admitted(5.0, "s1", "invoke", "s1.t1", 0, 0, trace="c1-3", sent=4.0),
    *_operation(5.0, "s1.t1", "A", "Credit", 7),
    _conflict(7.0, "s2.t1", "A", "[Debit(3), 'Ok']", "s1.t1", "[Credit(5), 'Ok']"),
    (7.5, "txn.abort", {"transaction": "s2.t1"}),
    _answered(8.0, "s2", "invoke", "s2.t1", 1, 1.0, 3.5, 0.25),
    _admitted(8.0, "s1", "commit", "s1.t1", 0, 0, trace="c1-4", sent=7.0),
    (8.5, "txn.commit", {"transaction": "s1.t1", "timestamp": 2}),
    _advance(8.5, "A", "s1.t1", 2, 2),
    _answered(9.0, "s1", "commit", "s1.t1", 0, 0.0, 0.5, 0.5, trace="c1-4"),
    _refused(9.0, "s2", "invoke", "s2.t2", 1, 64, trace="c2-9", sent=8.0),
    _batch(
        10.0,
        ("s2", "invoke", "s2.t2", 1, 2),
        ("s1", "invoke", "s1.t9", None, 0, "c1-5", 9.75),
    ),
    (11.0, "txn.begin", {"transaction": "s2.t2", "read_only": False}),
    (11.0, "txn.begin", {"transaction": "s1.t2", "read_only": False}),
    *_operation(12.0, "s1.t2", "B", "Post", 1),
    _conflict(14.0, "s2.t2", "B", "[Debit(2), 'Ok']", "s1.t2", "[Post(1), 'Ok']"),
    (14.5, "txn.commit", {"transaction": "s1.t2", "timestamp": 3}),
    _advance(14.5, "B", "s1.t2", 3, 1),
    (15.5, "lock.block", {"transaction": "s2.t2", "obj": "Q", "operation": "Deq"}),
    *_operation(16.0, "s2.t2", "B", "Debit", 2),
    (36.0, "txn.commit", {"transaction": "s2.t2", "timestamp": 5}),
    _answered(36.5, "s2", "commit", "s2.t2", 1, 2.0, 20.0, 0.5),
    (37.0, "server.disconnect", {"session": "s2", "requests": 5, "aborted": 0}),
    (38.0, "server.drain", {"sessions": 1, "finished": 0, "aborted": 0}),
    (38.0, "flight.dump", {"reason": "drain", "events": 40, "dropped": 0, "seen": 40}),
]


def _histogram(counts, total, sum, mean):
    """A default-bucket histogram's snapshot entry."""
    return {
        "boundaries": list(DEFAULT_LATENCY_BUCKETS),
        "counts": counts,
        "total": total,
        "sum": sum,
        "mean": mean,
    }


#: ``snapshot()`` of the stream above: every instrument name and value
#: ``repro top``, ``stats --connect`` and ``render_prometheus`` show.
#: No blocked time: that is the span builder's (``test_prof.py``).
SERVED_SNAPSHOT = {
    "counters": {
        "compaction.advances": 2,
        "compaction.collapsed_ops": 3,
        "flight.dumps": 1,
        "lock.blocks": 1,
        "lock.conflict[[Debit(2), 'Ok'] × [Post(1), 'Ok']]": 1,
        "lock.conflict[[Debit(3), 'Ok'] × [Credit(5), 'Ok']]": 1,
        "lock.conflicts": 2,
        "server.busy": 1,
        "server.connections_closed": 1,
        "server.connections_opened": 2,
        "server.decoded": 9,
        "server.drains": 1,
        "server.request[commit]": 1,
        "server.request[invoke]": 4,
        "server.requests": 5,
        "server.responses": 4,
        "server.responses[shard0]": 2,
        "server.responses[shard1]": 2,
        "txn.aborted": 1,
        "txn.begun": 4,
        "txn.committed": 3,
    },
    "gauges": {
        "server.connections": 1,
        "server.queue_depth": 2,
        "server.queue_depth[shard0]": 0,
        "server.queue_depth[shard1]": 2,
    },
    "histograms": {
        "server.client": _histogram(
            [6, 0, 0, 0, 0, 0, 0, 0, 0, 0], 6, 4.0, 0.6666666666666666
        ),
        "server.execute": _histogram([2, 0, 1, 0, 1, 0, 0, 0, 0, 0], 4, 24.5, 6.125),
        "server.queue": _histogram([3, 1, 0, 0, 0, 0, 0, 0, 0, 0], 4, 3.0, 0.75),
        "server.respond": _histogram(
            [4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 4, 1.75, 0.4375
        ),
        "txn.abort_latency": _histogram([0, 0, 1, 0, 0, 0, 0, 0, 0, 0], 1, 3.5, 3.5),
        "txn.latency": _histogram(
            [0, 0, 1, 1, 0, 1, 0, 0, 0, 0], 3, 35.0, 11.666666666666666
        ),
    },
}


class TestRegistryFold:
    def test_whole_snapshot_of_a_served_stream(self):
        registry = MetricsRegistry()
        now = [0.0]
        bus = TraceBus(clock=lambda: now[0])
        bus.subscribe(RegistrySink(registry))
        for now[0], kind, data in SERVED_STREAM:
            bus.emit(kind, **data)
        assert registry.snapshot() == SERVED_SNAPSHOT
