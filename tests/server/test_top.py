"""``render_top``: pure frame rendering from stats snapshots.

No sockets, no clocks — :func:`~repro.server.top.render_top` is a pure
function of (snapshot, previous, elapsed), which is the whole point of
splitting it from the polling loop.  The fixture's ``metrics`` are what
:class:`~repro.obs.RegistrySink` folds out of real events, so a renamed
instrument fails here instead of quietly rendering nothing.  The live
loop is exercised end to end in ``test_telemetry.py``.
"""

from repro.obs import WIRE_LATENCY_BUCKETS, MetricsRegistry, RegistrySink, TraceBus
from repro.server import render_top
from tests.rows import admitted, answered


def folded_metrics():
    """The registry snapshot 16 served requests leave: client legs of
    0.5 ms (x10), 5 ms (x5) and 50 ms, each request answered, and 9
    ``Enq`` × ``Deq`` and 4 ``Credit`` × ``Debit`` refusals."""
    registry = MetricsRegistry()
    now = [0.0]
    bus = TraceBus(clock=lambda: now[0])
    bus.subscribe(RegistrySink(registry, WIRE_LATENCY_BUCKETS))
    for index, leg in enumerate([0.0005] * 10 + [0.005] * 5 + [0.05]):
        now[0] += 1.0
        name = f"s1.t{index}"
        admitted(
            bus, session="s1", action="invoke", trace=None,
            sent=now[0] - leg, transaction=name, shard=0, queue_depth=0,
        )
        answered(
            bus, session="s1", action="invoke", trace=None,
            transaction=name, shard=0, queue=0.0, execute=0.0004, respond=0.0001,
        )
    for operation, held, count in (("Enq", "Deq", 9), ("Credit", "Debit", 4)):
        for _ in range(count):
            bus.emit(
                "lock.conflict", transaction="s1.t0", obj="A", operation=operation,
                holder="s2.t0", held=held, relation="hybrid",
            )
    return registry.snapshot()


def snapshot(**overrides):
    base = {
        "status": "ok",
        "draining": False,
        "workers": 2,
        "connections": 3,
        "objects": 5,
        "uptime": 12.5,
        "queue_limit": 64,
        "queues": [1, 7],
        "server": {
            "requests": 100,
            "transactions_committed": 40,
            "transactions_aborted": 2,
            "busy": 1,
            "errors": 0,
        },
        "metrics": folded_metrics(),
        "flight": {
            "dumps": 1,
            "last_reason": "busy",
            "last_path": "flight/flight-001-busy.jsonl",
            "retained": 512,
            "seen": 4000,
            "dropped_events": 3488,
        },
    }
    base.update(overrides)
    return base


class TestRenderTop:
    def test_first_frame_renders_no_rates(self):
        # A rate needs two snapshots: tick one must render an em dash,
        # never the lifetime totals mislabeled as per-second figures.
        frame = render_top(snapshot())
        assert "repro top — ok" in frame
        assert "workers=2" in frame and "up 12.5s" in frame
        assert "shard0:1 shard1:7" in frame
        assert "requests —" in frame
        assert "commits —" in frame
        assert "total" not in frame
        assert "/s" not in frame

    def test_second_frame_shows_rates(self):
        previous = snapshot()
        current = snapshot(
            server={
                "requests": 150,
                "transactions_committed": 60,
                "transactions_aborted": 2,
                "busy": 1,
                "errors": 0,
            }
        )
        frame = render_top(current, previous=previous, elapsed=2.0)
        assert "requests 25.0/s" in frame
        assert "commits 10.0/s" in frame
        assert "aborts 0.0/s" in frame

    def test_latency_quantiles_come_from_histogram_buckets(self):
        frame = render_top(snapshot())
        line = next(
            row for row in frame.splitlines() if row.startswith("latency  client:")
        )
        assert "n=16" in line
        # 16 samples, 10 in the first bucket: p50 interpolates inside
        # (0, 0.0005] so the row must render sub-millisecond.
        assert "p50 0." in line

    def test_hottest_conflicts_are_sorted_and_trimmed(self):
        frame = render_top(snapshot())
        line = next(
            l for l in frame.splitlines() if l.startswith("hottest conflicts")
        )
        assert line.index("Enq × Deq=9") < line.index("Credit × Debit=4")

    def test_flight_status_line(self):
        frame = render_top(snapshot())
        assert "flight: 1 dump(s) (last: busy)" in frame
        assert "3488 beyond window" in frame

    def test_degrades_without_metrics_or_flight(self):
        bare = snapshot()
        del bare["metrics"], bare["flight"]
        frame = render_top(bare)
        assert "repro top — ok" in frame
        assert "latency" not in frame
        assert "flight:" not in frame

    def test_draining_status_is_visible(self):
        frame = render_top(snapshot(status="draining", draining=True))
        assert "repro top — draining" in frame

    def test_critical_path_names_the_dominant_phase(self):
        # The 50 ms client leg is the largest p99 of the four phases.
        frame = render_top(snapshot())
        assert "critical path: client gates the tail" in frame

    def test_latency_rows_are_the_span_phases(self):
        # One row per served phase, in PHASES order; lock-wait has no
        # live row and there is no contention row: a refusal's blocked
        # time is `repro analyze`'s answer, over spans.
        previous = snapshot()
        frame = render_top(snapshot(), previous=previous, elapsed=1.0)
        rows = [
            row.partition(":")[0].split()[-1]
            for row in frame.splitlines()
            if row.startswith("latency")
        ]
        assert rows == ["client", "queue", "execute", "respond"]
        assert "contention" not in frame
        assert "lock-wait" not in frame
