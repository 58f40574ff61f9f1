"""SpanBuilder: per-transaction rollups and the latency breakdown."""

import pytest

from repro.obs import SpanBuilder, TraceBus
from tests.rows import admitted, reply, request


def make_bus(clock_values):
    it = iter(clock_values)
    bus = TraceBus(clock=lambda: next(it))
    builder = bus.subscribe(SpanBuilder())
    return bus, builder


class TestSpanBuilder:
    def test_committed_span_is_well_formed(self):
        bus, builder = make_bus([0.0, 1.0, 1.5, 4.0])
        bus.emit("txn.begin", transaction="T1", read_only=False)
        bus.emit("txn.invoke", transaction="T1", obj="Q", operation="Enq(1)")
        bus.emit("txn.respond", transaction="T1", obj="Q", result="Ok")
        bus.emit("txn.commit", transaction="T1", timestamp=3)
        (span,) = builder.spans
        assert span.outcome == "committed"
        assert span.well_formed
        assert span.violations() == []
        assert span.latency == pytest.approx(4.0)
        assert span.timestamp == 3
        assert span.objects == {"Q"}
        assert span.invokes == span.responds == 1

    def test_latency_breakdown_classification(self):
        # begin at 0; conflict at 2 (blocked 2); invoke at 3 (executing 1);
        # respond at 3.5 (executing .5); commit at 5 (queued 1.5).
        bus, builder = make_bus([0.0, 2.0, 3.0, 3.5, 5.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("lock.conflict", transaction="T1", obj="Q", holder="T0")
        bus.emit("txn.invoke", transaction="T1", obj="Q")
        bus.emit("txn.respond", transaction="T1", obj="Q")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        (span,) = builder.spans
        assert span.blocked == pytest.approx(2.0)
        assert span.executing == pytest.approx(1.5)
        assert span.queued == pytest.approx(1.5)
        assert span.queued + span.blocked + span.executing == pytest.approx(
            span.latency
        )
        assert span.conflicts == 1

    def test_aborted_span(self):
        bus, builder = make_bus([0.0, 1.0, 2.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("lock.wait", transaction="T1", holder="T2")
        bus.emit("txn.abort", transaction="T1")
        (span,) = builder.spans
        assert span.outcome == "aborted"
        assert span.well_formed
        assert builder.aborted() == [span]
        assert builder.committed() == []

    def test_read_only_flag(self):
        bus, builder = make_bus([0.0, 1.0])
        bus.emit("txn.begin", transaction="R1", read_only=True)
        bus.emit("txn.commit", transaction="R1", timestamp=5, read_only=True)
        assert builder.spans[0].read_only

    def test_events_after_terminal_count_as_extra(self):
        bus, builder = make_bus([0.0, 1.0, 2.0, 3.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        bus.emit("txn.commit", transaction="T1", timestamp=1, site="S0")
        bus.emit("txn.commit", transaction="T1", timestamp=1, site="S1")
        assert len(builder.spans) == 1
        assert builder.spans[0].extra_events == 2

    def test_wal_and_net_events_are_ignored(self):
        bus, builder = make_bus([0.0, 1.0, 2.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("wal.append", transaction="T1", record="commit")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        (span,) = builder.spans
        assert "wal.append" not in span.kinds
        assert span.well_formed

    def test_span_without_begin_reports_violation(self):
        bus, builder = make_bus([1.0, 2.0])
        bus.emit("txn.invoke", transaction="T1", obj="Q")
        bus.emit("txn.abort", transaction="T1")
        (span,) = builder.spans
        assert not span.well_formed
        assert any("txn.begin" in v for v in span.violations())

    def test_open_span_stays_open(self):
        bus, builder = make_bus([0.0, 1.0])
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.invoke", transaction="T1", obj="Q")
        assert builder.spans == []
        assert "T1" in builder.open


class TestPendingBound:
    def test_pending_stash_evicts_fifo_past_the_limit(self):
        # Wire context for transactions that never begin must not grow
        # the stash without bound: the oldest entries are dropped FIFO.
        ticks = [float(i) for i in range(10)]
        bus = TraceBus(clock=lambda: ticks.pop(0))
        builder = bus.subscribe(SpanBuilder(pending_limit=3))
        for index in range(5):
            admitted(
                bus,
                session="s1",
                action="invoke",
                trace=f"c{index}",
                sent=0.0,
                transaction=f"T{index}",
                shard=0,
                queue_depth=0,
            )
        assert len(builder._pending) == 3
        assert builder.pending_evicted == 2
        assert set(builder._pending) == {"T2", "T3", "T4"}

    def test_survivor_still_promotes_to_a_real_span(self):
        # An entry that dodged eviction keeps its wire phases when the
        # machine finally opens the transaction.
        ticks = [float(i) for i in range(10)]
        bus = TraceBus(clock=lambda: ticks.pop(0))
        builder = bus.subscribe(SpanBuilder(pending_limit=2))
        for index in range(3):
            admitted(
                bus,
                session="s1",
                action="invoke",
                trace=f"c{index}",
                sent=0.0,
                transaction=f"T{index}",
                shard=0,
                queue_depth=0,
            )
        assert builder.pending_evicted == 1
        bus.emit("txn.begin", transaction="T2")
        bus.emit("txn.commit", transaction="T2", timestamp=1)
        (span,) = builder.spans
        assert span.trace == "c2"
        assert span.phases["client"] == pytest.approx(2.0)
        assert "T2" not in builder._pending


class TestWireRows:
    def test_each_row_of_a_batch_folds_into_its_own_span(self):
        # One read admitted three requests of two transactions and their
        # replies left in one write: each row reaches its transaction's
        # span, the event's ``ts`` ending every row's client leg.
        ticks = iter([0.0, 0.0, 1.0, 2.0, 2.0, 3.0])
        bus = TraceBus(clock=lambda: next(ticks))
        builder = bus.subscribe(SpanBuilder())
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.begin", transaction="T2")
        rows = [
            request(trace="c1", sent=0.5, transaction="T1", shard=0),
            request(trace="c2", sent=0.5, transaction="T2", shard=0),
            request(trace="c3", sent=0.75, transaction="T1", shard=0),
            request(action="ping", sent=0.0),
        ]
        bus.emit("server.request", requests=rows)
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        bus.emit("txn.commit", transaction="T2", timestamp=2)
        replies = [
            reply(trace="c3", transaction="T1", queue=0.0, execute=0.5, respond=0.25),
            reply(trace="c2", transaction="T2", queue=0.125, execute=1.0, respond=0.5),
        ]
        bus.emit("server.respond", replies=replies)
        first, second = builder.spans  # the ping's row names no transaction
        assert (first.trace, second.trace) == ("c3", "c2")
        assert first.phases == {
            "client": 0.5 + 0.25, "queue": 0.0, "execute": 0.5, "respond": 0.25,
        }
        assert second.phases == {
            "client": 0.5, "queue": 0.125, "execute": 1.0, "respond": 0.5,
        }
        # Begin → batch → commit: the batch's ts cut each span's time.
        assert first.queued == second.queued == pytest.approx(1.0 + 1.0)
