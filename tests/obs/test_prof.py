"""The two span folds of ``repro analyze``: critical path and contention.

Both are pure functions over hand-built spans and event lists, so their
math is asserted exactly.
"""

import pytest

from repro.obs import (
    SpanBuilder,
    TraceBus,
    contention_profile,
    critical_path,
    render_contention,
    render_critical_path,
)
from repro.obs.analyze import gating_phase
from repro.obs.spans import PHASES, Span
from repro.sim import AccountWorkload, ClientParams, run_experiment
from tests.rows import admitted, answered


def span(client=0.0, queue=0.0, execute=0.0, respond=0.0, blocked=0.0):
    built = Span(transaction="T", begin_ts=0.0, end_ts=1.0, outcome="committed")
    built.phases = {
        "client": client,
        "queue": queue,
        "execute": execute,
        "respond": respond,
    }
    built.blocked = blocked
    return built


class TestCriticalPath:
    def test_gating_phase_is_the_argmax(self):
        assert gating_phase(span(client=1.0, queue=3.0)) == "queue"
        assert gating_phase(span(respond=0.1, blocked=0.5)) == "lock-wait"
        assert gating_phase(span()) is None

    def test_ties_break_toward_the_earlier_phase(self):
        assert gating_phase(span(client=2.0, execute=2.0)) == "client"

    def test_empty_budget_spans_are_unattributed(self):
        report = critical_path([span(queue=1.0), span()])
        assert report["spans"] == 2
        assert report["attributed"] == 1
        assert report["attributed_fraction"] == pytest.approx(0.5)
        assert report["gating"] == {"queue": 1}

    def test_phase_budget_percentiles_and_scale(self):
        spans = [span(queue=float(i)) for i in range(1, 101)]
        report = critical_path(spans, scale=1e3)
        budget = report["phase_budget"]["queue"]
        assert budget["p50"] == pytest.approx(51_000.0)
        assert budget["p99"] == pytest.approx(100_000.0)
        assert budget["total"] == pytest.approx(5_050_000.0)
        assert report["total"]["p99"] == pytest.approx(100_000.0)
        # Phases nobody paid stay at zero rather than vanishing.
        assert report["phase_budget"]["respond"]["total"] == 0.0

    def test_what_if_is_the_p99_with_the_phase_removed(self):
        # Ten spans: queue dominates one outlier; removing queue must
        # re-rank, not just subtract from the old p99 holder.
        spans = [span(client=1.0, queue=0.1) for _ in range(9)]
        spans.append(span(client=0.1, queue=5.0))
        report = critical_path(spans)
        assert report["total"]["p99"] == pytest.approx(5.1)
        what_if = report["what_if"]["queue"]
        # Re-ranking: the outlier drops to 0.1, so the new p99 is a
        # former 1.1 span minus its 0.1 of queue — not 5.1 minus 5.0.
        assert what_if["p99_without"] == pytest.approx(1.0)
        assert what_if["p99_drop"] == pytest.approx(4.1)

    def test_empty_input(self):
        report = critical_path([])
        assert report["spans"] == 0
        assert report["attributed_fraction"] == 0.0
        assert report["total"] == {"p50": 0.0, "p99": 0.0}

    def test_render_scales_to_ms(self):
        report = critical_path([span(queue=0.002)])  # seconds
        rendered = render_critical_path(report, scale_to_ms=1e3)
        assert "queue: p50 2.000ms" in rendered


def fold(events):
    """Every span the events make, completed and still open."""
    builder = SpanBuilder()
    for event in events:
        builder(event)
    return [*builder.spans, *builder.open.values()]


def canned_contention_bus():
    """A scripted conflict trace: T1 pays 2s to one pair, T2 pays 1s."""
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0])
    bus = TraceBus(clock=lambda: next(ticks))
    events = []
    bus.subscribe(events.append)
    bus.emit("txn.begin", transaction="T1")  # t=0
    bus.emit("txn.begin", transaction="T2")  # t=1
    bus.emit(  # t=3: T1 blocked 3-0=... anchor is T1's begin at 0 -> 3s
        "lock.conflict",
        transaction="T1",
        obj="Q",
        operation="Enq(1)",
        holder="T2",
        held="Deq()",
        relation="queue conflicts",
    )
    bus.emit("lock.wait", transaction="T1", holder="T2")  # t=4: +1s, inherits
    bus.emit("txn.commit", transaction="T1", timestamp=1)  # t=10: anchor cleared
    bus.emit(  # t=11: T2's anchor is its begin at t=1... no: last event t=1 -> 10s
        "lock.block", transaction="T2", obj="A", operation="Audit()"
    )
    bus.emit("txn.abort", transaction="T2")  # t=12
    bus.emit("txn.begin", transaction="T3")  # t=13
    bus.emit("lock.wait", transaction="T3", holder="T1")  # t=14: no prior pair
    return events


class TestContentionProfile:
    def test_attribution_keys_and_intervals(self):
        report = contention_profile(fold(canned_contention_bus()))
        assert report["events"] == 4
        # T1: 3s conflict + 1s inherited wait; T2: 10s block; T3: 1s
        # orphan wait.
        assert report["blocked_time"] == pytest.approx(15.0)
        assert report["pairs"] == 3
        by_pair = {row["pair"]: row for row in report["rows"]}
        conflict = by_pair["Enq(1)/Deq()"]
        assert conflict["object"] == "Q"
        assert conflict["relation"] == "queue conflicts"
        assert conflict["events"] == 2
        assert conflict["blocked_time"] == pytest.approx(4.0)
        block = by_pair["Audit()/(no legal outcome)"]
        assert block["blocked_time"] == pytest.approx(10.0)
        orphan = by_pair["(wait)/(unknown holder)"]
        assert orphan["blocked_time"] == pytest.approx(1.0)

    def test_rows_rank_by_blocked_time(self):
        report = contention_profile(fold(canned_contention_bus()))
        times = [row["blocked_time"] for row in report["rows"]]
        assert times == sorted(times, reverse=True)
        shares = [row["share"] for row in report["rows"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_terminal_clears_the_anchor(self):
        # A refusal naming a transaction after its terminal (a late
        # per-site delivery) must not be charged the gap since: the span
        # is closed, and only the later T2 pays, from its own begin.
        ticks = iter([0.0, 100.0, 101.0, 102.0, 103.0])
        bus = TraceBus(clock=lambda: next(ticks))
        events = []
        bus.subscribe(events.append)
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        bus.emit("lock.wait", transaction="T1", holder="T0")
        bus.emit("txn.begin", transaction="T2")
        bus.emit(
            "lock.conflict",
            transaction="T2",
            obj="Q",
            operation="Enq(1)",
            holder="T0",
            held="Deq()",
            relation="queue conflicts",
        )
        report = contention_profile(fold(events))
        assert report["blocked_time"] == pytest.approx(1.0)
        assert report["events"] == 1

    def test_top_trims_rows_but_not_totals(self):
        report = contention_profile(fold(canned_contention_bus()), top=1)
        assert len(report["rows"]) == 1
        assert report["pairs"] == 3
        assert report["blocked_time"] == pytest.approx(15.0)

    def test_empty_stream(self):
        report = contention_profile([])
        assert report == {
            "events": 0,
            "blocked_time": 0.0,
            "pairs": 0,
            "rows": [],
        }
        assert "no lock conflicts" in render_contention(report)


def served_refusal():
    """A served transaction on a scripted clock: its first operation
    answered at t=10, then a 2 s client pause, then its second request
    admitted at t=12 and refused 1 ms later."""
    ticks = iter([9.0, 9.0, 9.5, 9.5, 10.0, 12.0, 12.001, 12.5, 13.0])
    bus = TraceBus(clock=lambda: next(ticks))
    events = []
    bus.subscribe(events.append)
    request = dict(session="s1", action="invoke", trace="c1-1", shard=0, queue_depth=0)
    admitted(bus, transaction="T1", sent=8.9, **request)
    bus.emit("txn.begin", transaction="T1")
    bus.emit("txn.invoke", transaction="T1", obj="A", operation="Debit", args=(1,))
    bus.emit("txn.respond", transaction="T1", obj="A", result="Ok")
    respond = dict(session="s1", action="invoke", trace="c1-1", shard=0)
    answered(bus, transaction="T1", queue=0.0, execute=0.5, respond=0.5, **respond)
    admitted(bus, transaction="T1", sent=11.9, **request)
    bus.emit(
        "lock.conflict",
        transaction="T1",
        obj="A",
        operation="Debit(5)",
        holder="T0",
        held="Debit(1)",
        relation="account",
    )
    answered(bus, transaction="T1", queue=0.0, execute=0.001, respond=0.499, **respond)
    bus.emit("txn.abort", transaction="T1")
    return events


class TestOneBlockedTimeRule:
    """The span budget and the contention table are one computation."""

    def test_a_served_refusal_is_blocked_from_its_own_admission(self):
        spans = fold(served_refusal())
        (span,) = spans
        assert span.budget()["lock-wait"] == pytest.approx(0.001)
        report = contention_profile(spans)
        assert report["blocked_time"] == pytest.approx(0.001)
        (row,) = report["rows"]
        assert row["pair"] == "Debit(5)/Debit(1)" and row["events"] == 1
        # The client's 2 s pause is queued time, not lock-wait: wire
        # events end intervals too (respond write, pause, reply, abort).
        assert span.queued == pytest.approx(0.5 + 2.0 + 0.499 + 0.5)
        assert span.queued + span.blocked + span.executing == pytest.approx(span.latency)
        assert span.well_formed

    def test_blocked_waits_keep_the_simulated_total(self):
        # Under --wait-policy block a refused transaction waits for its
        # holder: the total this seed gives, to the last digit the float
        # carries (a span begins at its transaction's first touch, and a
        # wait's lock.wait is emitted when it ends, so the wait itself is
        # blocked time, not the re-executed invocation's).
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        run_experiment(
            AccountWorkload(),
            duration=60.0,
            seed=3,
            params=ClientParams(wait_policy="block"),
            tracer=bus,
        )
        spans = fold(events)
        report = contention_profile(spans)
        assert report["blocked_time"] == pytest.approx(110.01723826981006, abs=1e-9)
        assert sum(span.blocked for span in spans) == pytest.approx(
            report["blocked_time"], abs=1e-9
        )


class TestBenchReplayAgreement:
    def test_critical_path_consumes_span_builder_output(self):
        # The analyzer and the span builder must agree end to end: feed
        # a served-transaction trace through SpanBuilder and assert the
        # report attributes the phase the wire events paid.
        # The request lands one second after the client sent (client
        # phase 1.0s), which outweighs the 0.25s queue phase.
        ticks = iter([1.0, 1.0, 2.0, 3.0, 4.0])
        bus = TraceBus(clock=lambda: next(ticks))
        builder = bus.subscribe(SpanBuilder())
        admitted(
            bus,
            session="s1",
            action="invoke",
            trace="c1",
            sent=0.0,
            transaction="T1",
            shard=0,
            queue_depth=0,
        )
        bus.emit("txn.begin", transaction="T1")
        bus.emit("txn.invoke", transaction="T1", obj="A", operation="Credit(1)")
        bus.emit("txn.commit", transaction="T1", timestamp=1)
        answered(
            bus,
            session="s1",
            action="commit",
            trace="c1",
            transaction="T1",
            queue=0.25,
            execute=0.05,
            respond=0.01,
        )
        report = critical_path(builder.committed())
        assert report["attributed"] == 1
        assert report["gating"] == {"client": 1}
        assert report["phase_budget"]["queue"]["total"] == pytest.approx(0.25)

    def test_the_four_phase_medians_the_served_benchmark_reads(self):
        # The frozen benchmark reads exactly these four p50s, in µs, off
        # critical_path(SpanBuilder(trace).committed(), scale=1e6): the
        # server.respond row fields are the phase names it relies on.
        builder = SpanBuilder()
        for event in served_refusal():
            builder(event)
        ticks = iter([20.0, 20.0, 20.25, 20.25, 20.5, 21.0])
        bus = TraceBus(clock=lambda: next(ticks))
        bus.subscribe(builder)
        request = dict(session="s2", action="invoke", trace="c2-1", shard=0, queue_depth=0)
        admitted(bus, transaction="T2", sent=19.0, **request)
        bus.emit("txn.begin", transaction="T2")
        bus.emit("txn.invoke", transaction="T2", obj="A", operation="Credit", args=(1,))
        bus.emit("txn.respond", transaction="T2", obj="A", result="Ok")
        bus.emit("txn.commit", transaction="T2", timestamp=1)
        answered(
            bus,
            session="s2",
            action="commit",
            trace="c2-1",
            transaction="T2",
            shard=0,
            queue=0.0002,
            execute=0.0003,
            respond=0.0001,
        )
        budget = critical_path(builder.committed(), scale=1e6)["phase_budget"]
        medians = {
            key: budget[key]["p50"] for key in ("queue", "execute", "respond", "lock-wait")
        }
        assert medians == pytest.approx(
            {"queue": 200.0, "execute": 300.0, "respond": 100.0, "lock-wait": 0.0}
        )
        assert list(budget) == list(PHASES)
