"""From raw observations to named metrics.

Every timing is reported at reference speed (suffix ``_ref``, see
:mod:`spin`); the raw wall-clock twin is kept beside it for the printed
report.  A metric is ``{"value": float, "unit": str}``; names and units
must match ``BENCHMARK.json`` exactly, which :func:`check_against`
enforces before anything is printed.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Sequence

from loadgen import WindowResult
from serverproc import REPO_ROOT

Metric = Dict[str, Any]

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


def declared() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def check_against(section: str, metrics: Dict[str, Metric]) -> None:
    """The emitted names and units must be exactly the declared ones."""
    want = {entry["name"]: entry["unit"] for entry in declared()[section]}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(
            f"{section} metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}"
        )


def _cpu_ref(win: WindowResult, column: int) -> float:
    """CPU seconds of one /proc column over the window, each sampling
    interval scaled by the speed of the bucket it fell in."""
    timeline = win.timeline
    total = 0.0
    for before, after in zip(win.cpu_samples, win.cpu_samples[1:]):
        middle = (before[0] + after[0]) / 2
        total += (after[column] - before[column]) * timeline.factor(
            timeline.bucket_of(middle)
        )
    return total


def tail(sorted_values: Sequence[float]) -> float:
    """The value at the highest percentile with at least ten samples
    beyond it, capped at p99 (the median with ten samples or fewer)."""
    count = len(sorted_values)
    if count <= 10:
        return statistics.median(sorted_values)
    return sorted_values[min(count - 11, int(count * 0.99))]


class WindowNumbers:
    """Everything one window yields, raw and at reference speed."""

    def __init__(self, win: WindowResult):
        if not win.latencies:
            raise AssertionError("the measured window saw no commit")
        timeline = win.timeline
        self.commits = win.commits
        self.wall_s = win.ended - win.started
        self.ref_s = timeline.ref_interval(win.started, win.ended)
        raw = sorted(seconds for _at, seconds in win.latencies)
        ref = sorted(timeline.ref_duration(at, s) for at, s in win.latencies)
        self.raw_txn_per_s = self.commits / self.wall_s
        self.txn_per_s_ref = self.commits / self.ref_s
        self.raw_p50_ms = statistics.median(raw) * 1e3
        self.p50_ms_ref = statistics.median(ref) * 1e3
        self.tail_ms_ref = tail(ref) * 1e3
        first, last = win.cpu_samples[0], win.cpu_samples[-1]
        self.parent_cpu_s = last[1] - first[1]
        self.child_cpu_s = last[2] - first[2]
        self.parent_cpu_ref_s = _cpu_ref(win, 1)
        self.child_cpu_ref_s = _cpu_ref(win, 2)
        self.raw_cpu_ms_per_txn = (
            (self.parent_cpu_s + self.child_cpu_s) / self.commits * 1e3
        )
        self.cpu_ms_per_txn_ref = (
            (self.parent_cpu_ref_s + self.child_cpu_ref_s) / self.commits * 1e3
        )
        spins = timeline.spins_between(win.started, win.ended)
        self.spin_ms_median = statistics.median(spins) * 1e3
        self.spin_ms_range = (max(spins) - min(spins)) * 1e3
        self.abort_share = sum(win.retryable.values()) / max(1, win.attempts)


def metric(value: float, unit: str) -> Metric:
    return {"value": float(value), "unit": unit}


def end_to_end(numbers: WindowNumbers, setup_ref_s: Sequence[float]) -> Dict[str, Metric]:
    return {
        "setup_s": metric(statistics.median(setup_ref_s), "s"),
        "txn_per_s_ref": metric(numbers.txn_per_s_ref, "txn/s"),
        "p50_ms_ref": metric(numbers.p50_ms_ref, "ms"),
        "cpu_ms_per_txn_ref": metric(numbers.cpu_ms_per_txn_ref, "ms"),
    }


def served_layers(outcome: Any, numbers: WindowNumbers) -> Dict[str, Metric]:
    """Per-layer metrics read from outside during the served window
    (``outcome`` is the harness's ``RunOutcome``): generator counters,
    in-band ``stats``, ``/proc``, the data dir."""
    win = outcome.window
    commits = numbers.commits
    out = {
        "host.spin_ms_median": metric(numbers.spin_ms_median, "ms"),
        "host.spin_ms_range": metric(numbers.spin_ms_range, "ms"),
        "loadgen.cpu_share": metric(win.cpu_share, "ratio"),
        "loadgen.frames_per_recv": metric(win.frames_in / max(1, win.recvs), "count"),
        "loadgen.raw_txn_per_s": metric(numbers.raw_txn_per_s, "txn/s"),
        "loadgen.raw_p50_ms": metric(numbers.raw_p50_ms, "ms"),
        "loadgen.p99_ms_ref": metric(numbers.tail_ms_ref, "ms"),
        "loadgen.abort_share": metric(numbers.abort_share, "ratio"),
        "loadgen.failed_share": metric(
            sum(outcome.failed.values()) / max(1, outcome.started_txns), "ratio"
        ),
        "server.protocol.frames_per_txn": metric(win.txn_frames / commits, "count"),
        "server.protocol.wire_bytes_per_txn": metric(
            (win.bytes_in + win.bytes_out) / commits, "count"
        ),
        "server.server.busy_share": metric(
            numbers.parent_cpu_s / numbers.wall_s, "ratio"
        ),
        "server.server.parent_cpu_ms_per_txn_ref": metric(
            numbers.parent_cpu_ref_s / commits * 1e3, "ms"
        ),
        "server.procpool.child_cpu_ms_per_txn_ref": metric(
            numbers.child_cpu_ref_s / commits * 1e3, "ms"
        ),
        "server.procpool.cross_share": metric(win.cross_commits / commits, "ratio"),
        "core.lock_machine.conflict_share": metric(
            win.retryable["CONFLICT"] / max(1, win.invokes), "ratio"
        ),
    }
    samples = win.stats_samples
    if len(samples) >= 2:
        requests = samples[-1]["server"]["requests"] - samples[0]["server"]["requests"]
        done = (
            samples[-1]["server"]["transactions_committed"]
            - samples[0]["server"]["transactions_committed"]
        )
        out["server.server.requests_per_txn"] = metric(requests / max(1, done), "count")
        out["server.server.queue_depth_max"] = metric(
            max(max(sample["queues"]) for sample in samples), "count"
        )
    else:
        raise AssertionError("the window took no in-band stats samples")
    # recovery.* and the WAL: zero where the workload has no WAL.
    out["recovery.wal.records_per_txn"] = metric(
        outcome.wal_records / max(1, outcome.wal_commits), "count"
    )
    out["recovery.wal.bytes_per_txn"] = metric(
        outcome.wal_bytes / max(1, outcome.wal_commits), "count"
    )
    crash = outcome.crash
    out["recovery.recovery.restart_ms_per_ktxn_ref"] = metric(
        crash.restart_ref_s * 1e3 / (crash.acked_commits / 1000) if crash else 0.0,
        "ms",
    )
    out["recovery.recovery.acked_lost"] = metric(0, "count")
    out["recovery.recovery.in_doubt"] = metric(crash.in_doubt if crash else 0, "count")
    out["recovery.recovery.unresolved_locks"] = metric(
        crash.unresolved_accounts if crash else 0, "count"
    )
    return out
