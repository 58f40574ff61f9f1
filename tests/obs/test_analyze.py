"""``analyze_trace`` / ``render_postmortem``: postmortems from streams.

The fixtures script a serving-tier-shaped event stream by hand (scripted
clock, explicit trace ids) so every report field has a known right
answer; one test then replays a flight-recorder dump through the same
fold to prove the two artifacts stay interchangeable.
"""

from repro.obs import (
    FlightRecorder,
    TraceBus,
    analyze_trace,
    read_jsonl,
)
from repro.obs.analyze import render_postmortem
from tests.rows import admitted, answered


def served_transaction(bus, clock, name, trace, shard=0, slow=0.0):
    """One wire-served committed transaction with a full phase split."""
    clock[0] += 0.001
    admitted(
        bus,
        session="s1",
        action="invoke",
        trace=trace,
        sent=clock[0] - 0.002,
        transaction=name,
        shard=shard,
        queue_depth=2,
    )
    bus.emit("txn.begin", transaction=name)
    clock[0] += 0.004 + slow
    bus.emit("txn.invoke", transaction=name, obj="A", operation="Enq")
    bus.emit("txn.respond", transaction=name, obj="A", result="ok")
    bus.emit("txn.commit", transaction=name, timestamp=clock[0])
    answered(
        bus,
        session="s1",
        action="commit",
        trace=trace,
        transaction=name,
        shard=shard,
        queue=0.003,
        execute=0.004 + slow,
        respond=0.0005,
    )


def scripted_trace():
    clock = [100.0]
    bus = TraceBus(clock=lambda: clock[0])
    events = []
    bus.subscribe(events.append)
    served_transaction(bus, clock, "s1.t1", "c1-1", shard=0)
    served_transaction(bus, clock, "s1.t2", "c1-2", shard=1)
    served_transaction(bus, clock, "s1.t3", "c1-3", shard=1, slow=0.5)
    # A contended pair and a shed request round out the stream.
    bus.emit(
        "lock.conflict",
        transaction="s1.t4",
        obj="A",
        operation="Enq",
        holder="s1.t3",
        held="Deq",
        relation="forward",
    )
    bus.emit("server.busy", session="s2", queue_depth=64, shard=0)
    return events


class TestAnalyzeTrace:
    def test_transaction_and_event_tallies(self):
        report = analyze_trace(scripted_trace())
        assert report["events"] == len(scripted_trace())
        txn = report["transactions"]
        assert txn["completed"] == 3
        assert txn["committed"] == 3
        assert txn["aborted"] == 0
        # The conflicting s1.t4 never completed inside the window.
        assert txn["open"] == 1
        assert txn["max_latency"] >= 0.5

    def test_phases_are_the_critical_paths(self):
        # One phase report: the critical path's budget over the spans.
        report = analyze_trace(scripted_trace())
        assert "phases" not in report
        budget = report["critical_path"]["phase_budget"]
        assert budget["queue"]["p50"] == 0.003
        assert budget["respond"]["p50"] == 0.0005
        assert budget["client"]["p50"] > 0
        assert budget["lock-wait"]["total"] == 0.0

    def test_conflict_pairs_carry_relation(self):
        # The contention table is the one conflict-pair report; the
        # refused s1.t4 is still open and is counted.
        report = analyze_trace(scripted_trace())
        assert "conflicts" not in report
        contention = report["contention"]
        assert contention["events"] == 1
        (row,) = contention["rows"]
        assert (row["object"], row["pair"], row["relation"]) == ("A", "Enq/Deq", "forward")
        assert row["events"] == 1

    def test_shard_imbalance(self):
        report = analyze_trace(scripted_trace())
        assert report["shards"]["requests"] == {"shard0": 1, "shard1": 2}
        # max(2) over mean(1.5)
        assert abs(report["shards"]["imbalance"] - (2 / 1.5)) < 1e-9

    def test_queue_timeline_and_busy(self):
        report = analyze_trace(scripted_trace())
        assert report["busy_rejections"] == 1
        timeline = report["queue_timeline"]
        assert timeline, "admitted requests must produce a timeline"
        assert all(row["max_depth"] == 2 for row in timeline)

    def test_slowest_leads_with_the_injected_straggler(self):
        report = analyze_trace(scripted_trace(), slowest=2)
        assert len(report["slowest"]) == 2
        worst = report["slowest"][0]
        assert worst["transaction"] == "s1.t3"
        assert worst["trace"] == "c1-3"
        assert worst["outcome"] == "committed"
        assert worst["budget"]["queue"] == 0.003
        assert list(worst["budget"]) == ["client", "queue", "execute", "respond", "lock-wait"]

    def test_violations_are_surfaced(self):
        events = scripted_trace()
        bus = TraceBus(clock=lambda: 999.0)
        bus.subscribe(events.append)
        bus.emit(
            "check.violation",
            rule="commit-serializability",
            txn="s1.t3",
            obj="A",
        )
        report = analyze_trace(events)
        assert len(report["violations"]) == 1
        assert report["violations"][0]["rule"] == "commit-serializability"

    def test_empty_stream(self):
        report = analyze_trace([])
        assert report["events"] == 0
        assert report["transactions"]["completed"] == 0
        assert report["queue_timeline"] == []


class TestRenderPostmortem:
    def test_sections_present(self):
        text = render_postmortem(analyze_trace(scripted_trace()))
        assert "== postmortem ==" in text
        assert "critical path:" in text
        assert "contention: 1 blocked event(s)" in text
        assert "wire phases (median):" not in text
        assert "machine phases (median):" not in text
        assert "Enq/Deq" in text
        assert "shard requests" in text
        assert "queue depth timeline" in text
        assert "trace=c1-3" in text
        assert "no checker violations in trace" in text

    def test_violation_run_renders_and_omits_clean_line(self):
        events = scripted_trace()
        bus = TraceBus(clock=lambda: 999.0)
        bus.subscribe(events.append)
        bus.emit("check.violation", rule="r", txn="t", obj="A")
        text = render_postmortem(analyze_trace(events))
        assert "VIOLATION: r" in text
        assert "no checker violations" not in text


class TestFlightDumpReplay:
    def test_flight_dump_feeds_the_same_fold(self, tmp_path):
        clock = [100.0]
        bus = TraceBus(clock=lambda: clock[0])
        flight = bus.subscribe(FlightRecorder(str(tmp_path)))
        served_transaction(bus, clock, "s1.t1", "c1-1")
        path = flight.dump("manual")
        report = analyze_trace(read_jsonl(path))
        assert report["transactions"]["committed"] == 1
        assert report["flight_dumps"][0]["reason"] == "manual"
        assert report["slowest"][0]["trace"] == "c1-1"
        text = render_postmortem(report)
        assert "flight dump: manual" in text

    def test_violation_triggered_dump_yields_postmortem(self, tmp_path):
        # The acceptance flow: a checker refutation mid-run snapshots
        # the ring, and the dump replays into a postmortem naming it.
        clock = [100.0]
        bus = TraceBus(clock=lambda: clock[0])
        flight = bus.subscribe(FlightRecorder(str(tmp_path)))
        served_transaction(bus, clock, "s1.t1", "c1-1")
        bus.emit(
            "check.violation", rule="hybrid-atomicity", txn="s1.t1", obj="A"
        )
        assert flight.last_reason == "violation"
        report = analyze_trace(read_jsonl(flight.dumps[0]))
        assert report["violations"][0]["rule"] == "hybrid-atomicity"
        assert "VIOLATION: hybrid-atomicity" in render_postmortem(report)
