"""Offline trace postmortems: ``repro analyze TRACE.jsonl``.

A server trace (or a flight-recorder dump) is a flat JSONL stream; the
questions an operator asks of it are aggregates: *where did the latency
go, which operation pairs fought, were the shards balanced, how deep
did the queues get, which transactions were slowest?*  This module
folds a replayed event stream into one JSON-friendly report
(:func:`analyze_trace`) and renders it as a readable postmortem
(:func:`render_postmortem`).  Two of its sections fold spans:

**Critical path** — :func:`critical_path` folds each
:class:`~repro.obs.spans.Span`'s :meth:`~repro.obs.spans.Span.budget`
into a per-transaction *gating phase* (the largest of
:data:`~repro.obs.spans.PHASES`), aggregate p50/p99 budgets per phase,
and coz-lite what-if estimates: "if ``execute`` were free, p99 would
drop to X".

**Contention** — :func:`contention_profile` sums the spans'
``blocked_by`` charges per ``(object, operation-pair, relation)``, so
its total is the spans' ``lock-wait`` exactly.  The ranking lists the
pairs a finer relation would have to split to buy latency back (per
Malta & Martinez, that win is bounded; this says where it could come
from).

Everything here is a pure fold over :class:`~repro.obs.events.TraceEvent`
records — no sockets, no clocks — so the same report comes out of a
live capture, a benchmark trace, or a flight dump replayed years later.
"""

from __future__ import annotations

import statistics
from collections import Counter as _Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .events import TraceEvent, wire_rows
from .spans import PHASES, Span, SpanBuilder

__all__ = [
    "analyze_trace",
    "critical_path",
    "contention_profile",
    "render_critical_path",
    "render_contention",
    "render_postmortem",
]


def _percentile(ranked: Sequence[float], fraction: float) -> float:
    """Deterministic nearest-rank percentile over a sorted sequence."""
    if not ranked:
        return 0.0
    index = min(len(ranked) - 1, int(len(ranked) * fraction))
    return ranked[index]


def gating_phase(span: Span) -> Optional[str]:
    """The phase that dominates one span's budget (None: no budget).

    Ties break toward the earliest phase in :data:`PHASES`, so the
    answer is deterministic for equal budgets.
    """
    budget = span.budget()
    phase = max(PHASES, key=budget.__getitem__)
    return phase if budget[phase] > 0.0 else None


def critical_path(spans: Iterable[Span], scale: float = 1.0) -> Dict[str, Any]:
    """Fold spans into the phase-budget / gating-phase / what-if report.

    ``scale`` multiplies every latency in the output (pass ``1e3`` for
    milliseconds in artifacts).  The what-if numbers re-rank each span's
    total with one phase zeroed — a virtual speedup in the Coz sense:
    an upper bound on the p99 win from making that phase free.
    """
    spans = list(spans)
    budgets = [span.budget() for span in spans]
    totals = [sum(budget.values()) for budget in budgets]
    gating = _Counter(filter(None, map(gating_phase, spans)))
    attributed = sum(gating.values())
    phase_budget: Dict[str, Dict[str, float]] = {}
    for phase in PHASES:
        values = sorted(budget[phase] for budget in budgets)
        phase_budget[phase] = {
            "p50": _percentile(values, 0.50) * scale,
            "p99": _percentile(values, 0.99) * scale,
            "total": sum(values) * scale,
        }
    ranked_totals = sorted(totals)
    p99_total = _percentile(ranked_totals, 0.99)
    what_if: Dict[str, Dict[str, float]] = {}
    for phase in PHASES:
        without = sorted(
            total - budget[phase] for total, budget in zip(totals, budgets)
        )
        p99_without = _percentile(without, 0.99)
        what_if[phase] = {
            "p99_without": p99_without * scale,
            "p99_drop": max(0.0, p99_total - p99_without) * scale,
        }
    return {
        "spans": len(spans),
        "attributed": attributed,
        "attributed_fraction": (attributed / len(spans)) if spans else 0.0,
        "gating": {
            phase: gating[phase] for phase in PHASES if gating[phase]
        },
        "phase_budget": phase_budget,
        "total": {
            "p50": _percentile(ranked_totals, 0.50) * scale,
            "p99": p99_total * scale,
        },
        "what_if": what_if,
    }


def contention_profile(spans: Iterable[Span], top: int = 10) -> Dict[str, Any]:
    """Sum the spans' blocked time per ``(object, op-pair, relation)``.

    Each span charged every blocked interval to the refusal that ended
    it (:attr:`~repro.obs.spans.Span.blocked_by`), so the total here is
    the spans' ``lock-wait`` and nothing else.  Rows rank by blocked
    time, then refusals.
    """
    rows: Dict[Tuple[str, str, str], List[Any]] = {}
    for span in spans:
        for key, (events, blocked) in span.blocked_by.items():
            row = rows.setdefault(key, [0, 0.0])
            row[0] += events
            row[1] += blocked
    total_blocked = sum(row[1] for row in rows.values())
    ranked = sorted(rows.items(), key=lambda item: (-item[1][1], -item[1][0], item[0]))
    return {
        "events": sum(row[0] for row in rows.values()),
        "blocked_time": total_blocked,
        "pairs": len(rows),
        "rows": [
            {
                "object": key[0],
                "pair": key[1],
                "relation": key[2],
                "events": events,
                "blocked_time": blocked,
                "share": blocked / total_blocked if total_blocked else 0.0,
            }
            for key, (events, blocked) in ranked[:top]
        ],
    }


def _queue_timeline(
    events: Sequence[TraceEvent], buckets: int = 20
) -> List[Dict[str, Any]]:
    """Max/mean admitted queue depth over ``buckets`` time slices, a
    sample per routed ``server.request`` row."""
    samples = [
        (event.ts, row.get("queue_depth") or 0)
        for event in events
        if event.kind == "server.request"
        for row in wire_rows(event)
        if row.get("shard") is not None
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
            for row in wire_rows(event):
                shard = row.get("shard")
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


def render_critical_path(
    report: Mapping[str, Any], scale_to_ms: float = 1.0
) -> str:
    """Human-readable critical-path section.

    ``scale_to_ms`` converts the report's latency unit to milliseconds
    (1.0 when the report was built with ``scale=1e3``, 1e3 when it
    holds raw seconds).
    """
    lines: List[str] = []
    spans = report.get("spans", 0)
    attributed = report.get("attributed", 0)
    fraction = report.get("attributed_fraction", 0.0)
    lines.append(
        f"critical path: {attributed}/{spans} spans attributed "
        f"({100.0 * fraction:.1f}%)"
    )
    gating = report.get("gating") or {}
    if gating:
        ranked = sorted(gating.items(), key=lambda item: (-item[1], item[0]))
        lines.append(
            "gating phase: "
            + "  ".join(f"{phase} x{count}" for phase, count in ranked)
        )
    budget = report.get("phase_budget") or {}
    for phase in PHASES:
        row = budget.get(phase)
        if not row or (row["p50"] == 0.0 and row["p99"] == 0.0):
            continue
        lines.append(
            f"  {phase:>9s}: p50 {_fmt(row['p50'], scale_to_ms)}  "
            f"p99 {_fmt(row['p99'], scale_to_ms)}"
        )
    total = report.get("total")
    if total:
        lines.append(
            f"  {'total':>9s}: p50 {_fmt(total['p50'], scale_to_ms)}  "
            f"p99 {_fmt(total['p99'], scale_to_ms)}"
        )
    what_if = report.get("what_if") or {}
    ranked_what_if = sorted(
        (
            (phase, row)
            for phase, row in what_if.items()
            if row.get("p99_drop", 0.0) > 0.0
        ),
        key=lambda item: -item[1]["p99_drop"],
    )
    for phase, row in ranked_what_if:
        lines.append(
            f"  what-if {phase} were free: p99 -> "
            f"{_fmt(row['p99_without'], scale_to_ms)} "
            f"(saves {_fmt(row['p99_drop'], scale_to_ms)}; upper bound)"
        )
    return "\n".join(lines)


def render_contention(report: Mapping[str, Any]) -> str:
    """Human-readable contention table (blocked time by conflict pair)."""
    lines = [
        f"contention: {report.get('events', 0)} blocked event(s), "
        f"{report.get('blocked_time', 0.0) * 1e3:.3f}ms attributed across "
        f"{report.get('pairs', 0)} pair(s)"
    ]
    rows = report.get("rows") or []
    if not rows:
        lines.append("  (no lock conflicts, blocks, or waits in window)")
        return "\n".join(lines)
    for row in rows:
        lines.append(
            f"  {row['blocked_time'] * 1e3:>10.3f}ms {100.0 * row['share']:>5.1f}%"
            f"  {row['events']:>6d}x  {row['object']}: {row['pair']}"
            f"  [{row['relation']}]"
        )
    return "\n".join(lines)


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
