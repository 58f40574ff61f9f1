"""Offline trace postmortems: ``repro analyze TRACE.jsonl``.

A server trace (or a flight-recorder dump) is a flat JSONL stream; the
questions an operator asks of it are aggregates: *where did the latency
go, which operation pairs fought, were the shards balanced, how deep
did the queues get, which transactions were slowest?*  This module
folds a replayed event stream into one JSON-friendly report
(:func:`analyze_trace`) and renders it as a readable postmortem
(:func:`render_postmortem`).

Everything here is a pure fold over :class:`~repro.obs.events.TraceEvent`
records — no sockets, no clocks — so the same report comes out of a
live capture, a benchmark trace, or a flight dump replayed years later.
"""

from __future__ import annotations

import statistics
from collections import Counter as _Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .events import TraceEvent
from .prof import (
    contention_profile,
    critical_path,
    render_contention,
    render_critical_path,
)
from .spans import SpanBuilder

__all__ = ["analyze_trace", "render_postmortem"]


def _queue_timeline(
    events: Sequence[TraceEvent], buckets: int = 20
) -> List[Dict[str, Any]]:
    """Max/mean admitted queue depth over ``buckets`` time slices."""
    samples = [
        (event.ts, event.data.get("queue_depth") or 0)
        for event in events
        if event.kind == "server.request" and event.data.get("shard") is not None
    ]
    if not samples:
        return []
    start = min(ts for ts, _ in samples)
    end = max(ts for ts, _ in samples)
    width = (end - start) / buckets if end > start else 1.0
    slices: List[List[int]] = [[] for _ in range(buckets)]
    for ts, depth in samples:
        index = min(buckets - 1, int((ts - start) / width))
        slices[index].append(depth)
    timeline = []
    for index, depths in enumerate(slices):
        if not depths:
            continue
        timeline.append(
            {
                "t": start + index * width,
                "samples": len(depths),
                "max_depth": max(depths),
                "mean_depth": sum(depths) / len(depths),
            }
        )
    return timeline


def analyze_trace(
    events: Iterable[TraceEvent], slowest: int = 5
) -> Dict[str, Any]:
    """Fold a replayed event stream into a postmortem report."""
    events = list(events)
    builder = SpanBuilder()
    kind_counts: _Counter = _Counter()
    shard_requests: _Counter = _Counter()
    violations: List[Dict[str, Any]] = []
    flight_dumps: List[Dict[str, Any]] = []
    busy = 0
    for event in events:
        kind_counts[event.kind] += 1
        builder(event)
        if event.kind == "server.respond":
            shard = event.data.get("shard")
            if shard is not None:
                shard_requests[f"shard{shard}"] += 1
        elif event.kind == "server.busy":
            busy += 1
        elif event.kind == "check.violation":
            violations.append(dict(event.data))
        elif event.kind == "flight.dump":
            flight_dumps.append(dict(event.data))

    committed = builder.committed()
    aborted = builder.aborted()
    completed = builder.spans
    latencies = [
        span.latency for span in completed if span.latency is not None
    ]
    shard_counts = list(shard_requests.values())
    imbalance = (
        max(shard_counts) / (sum(shard_counts) / len(shard_counts))
        if shard_counts
        else None
    )
    slowest_spans = sorted(
        (span for span in completed if span.latency is not None),
        key=lambda span: span.latency,
        reverse=True,
    )[:slowest]
    return {
        "events": len(events),
        "kinds": dict(kind_counts),
        "transactions": {
            "completed": len(completed),
            "committed": len(committed),
            "aborted": len(aborted),
            "open": len(builder.open),
            "median_latency": statistics.median(latencies) if latencies else None,
            "max_latency": max(latencies) if latencies else None,
        },
        "shards": {
            "requests": dict(shard_requests),
            "imbalance": imbalance,
        },
        "queue_timeline": _queue_timeline(events),
        "busy_rejections": busy,
        "slowest": [
            {
                "transaction": span.transaction,
                "trace": span.trace,
                "outcome": span.outcome,
                "latency": span.latency,
                "budget": span.budget(),
            }
            for span in slowest_spans
        ],
        "violations": violations,
        "flight_dumps": flight_dumps,
        "critical_path": critical_path(committed or completed),
        "contention": contention_profile([*completed, *builder.open.values()]),
    }


def _fmt(value: Optional[float], scale: float = 1000.0) -> str:
    """Milliseconds with sub-ms precision; ``-`` for missing."""
    if value is None:
        return "-"
    return f"{value * scale:.3f}ms"


def render_postmortem(report: Dict[str, Any]) -> str:
    """Human-readable postmortem from an :func:`analyze_trace` report."""
    lines: List[str] = []
    txn = report["transactions"]
    lines.append("== postmortem ==")
    lines.append(
        f"events: {report['events']}  transactions: {txn['completed']} "
        f"({txn['committed']} committed, {txn['aborted']} aborted, "
        f"{txn['open']} still open)"
    )
    lines.append(
        f"latency: median {_fmt(txn['median_latency'])} "
        f"max {_fmt(txn['max_latency'])}  "
        f"busy rejections: {report['busy_rejections']}"
    )

    critical = report.get("critical_path")
    if critical and critical.get("spans"):
        lines.append("")
        # analyze_trace builds the report in bus-clock seconds.
        lines.append(render_critical_path(critical, scale_to_ms=1e3))
    contention = report.get("contention")
    if contention is not None:
        lines.append("")
        lines.append(render_contention(contention))

    shards = report["shards"]
    if shards["requests"]:
        total = sum(shards["requests"].values())
        lines.append(
            f"\nshard requests (imbalance x{shards['imbalance']:.2f}):"
        )
        for shard in sorted(shards["requests"]):
            count = shards["requests"][shard]
            lines.append(
                f"  {shard:>8s}  {count:>8d}  ({100.0 * count / total:.1f}%)"
            )

    timeline = report["queue_timeline"]
    if timeline:
        peak = max(row["max_depth"] for row in timeline) or 1
        lines.append("\nqueue depth timeline (admitted requests):")
        for row in timeline:
            bar = "#" * round(20 * row["max_depth"] / peak) if peak else ""
            lines.append(
                f"  t={row['t']:.3f}  max={row['max_depth']:>4d} "
                f"mean={row['mean_depth']:>7.2f}  {bar}"
            )

    if report["slowest"]:
        lines.append("\nslowest transactions:")
        for row in report["slowest"]:
            trace = f" trace={row['trace']}" if row.get("trace") else ""
            lines.append(
                f"  {row['transaction']}  {row['outcome'] or 'open'} "
                f"{_fmt(row['latency'])}{trace}"
            )
            parts = [
                f"{phase}={_fmt(value)}" for phase, value in row["budget"].items() if value
            ]
            if parts:
                lines.append("    " + "  ".join(parts))

    for violation in report["violations"]:
        lines.append(
            f"\nVIOLATION: {violation.get('rule')} "
            f"txn={violation.get('txn')} obj={violation.get('obj')} "
            f"{violation.get('message', '')}"
        )
    for dump in report["flight_dumps"]:
        lines.append(
            f"flight dump: {dump.get('reason')} -> {dump.get('path')} "
            f"({dump.get('events')} events, {dump.get('dropped')} beyond "
            "window)"
        )
    if not report["violations"]:
        lines.append("\nno checker violations in trace")
    return "\n".join(lines) + "\n"
