"""Observability: structured tracing, spans, and a metrics registry.

The subsystem has five pieces (see ``docs/observability.md``):

* a zero-dependency **event bus** (:class:`TraceBus`) that instrumented
  components publish typed, timestamped :class:`TraceEvent` records to —
  disabled by default, one ``is None`` check on the hot path;
* **aggregators**: :class:`SpanBuilder` rolls events up into
  per-transaction spans — the one answer to where a transaction's time
  went (``spans.PHASES``) and who blocked it (``Span.blocked_by``);
  :class:`RegistrySink` folds them into a :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (a strict superset of
  ``repro.sim.metrics.Metrics``);
* **sinks**: in-memory ring buffer, JSONL file writer, the
  :class:`HistorySink` fold back into a Section 3 history, and table
  renderers for the ``repro trace`` / ``repro stats`` CLI;
* an **oracle**: :class:`AtomicityChecker` streams over the events (live
  or replayed from JSONL) and certifies the run hybrid atomic — or
  refutes it with a minimal witness (``repro check``);
* **operations**: :class:`FlightRecorder` keeps an always-on ring of
  recent events and dumps a replayable JSONL snapshot when an anomaly
  trigger fires; :func:`analyze_trace` / :func:`render_postmortem` turn
  any replayed trace into a postmortem report (``repro analyze``) whose
  critical path and contention table both fold spans;
  :func:`render_prometheus` exposes a registry in Prometheus text
  format.
"""

from .analyze import (
    analyze_trace,
    contention_profile,
    critical_path,
    render_contention,
    render_critical_path,
    render_postmortem,
)
from .bus import TraceBus
from .checker import AtomicityChecker
from .codec import decode_value, encode_value
from .events import EVENT_KINDS, REPLY_ROW, REQUEST_ROW, TraceEvent, wire_rows
from .flight import FlightRecorder
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    WIRE_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySink,
    render_prometheus,
)
from .sinks import (
    HistorySink,
    JSONLSink,
    RingBufferSink,
    read_jsonl,
    render_events,
    render_histogram,
    render_kind_summary,
    render_spans,
    spans_as_dicts,
)
from .snapshot import (
    lock_table_snapshot,
    manager_lock_tables,
    render_lock_tables,
    render_waits_for,
    waits_for_edges,
)
from .spans import SPAN_IRRELEVANT_KINDS, WIRE_SPAN_KINDS, Span, SpanBuilder
from .witness import Violation, minimize_witness

__all__ = [
    "FlightRecorder",
    "critical_path",
    "contention_profile",
    "render_critical_path",
    "render_contention",
    "analyze_trace",
    "render_postmortem",
    "render_prometheus",
    "WIRE_SPAN_KINDS",
    "SPAN_IRRELEVANT_KINDS",
    "TraceBus",
    "TraceEvent",
    "EVENT_KINDS",
    "REQUEST_ROW",
    "REPLY_ROW",
    "wire_rows",
    "AtomicityChecker",
    "Violation",
    "minimize_witness",
    "encode_value",
    "decode_value",
    "Span",
    "SpanBuilder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySink",
    "DEFAULT_LATENCY_BUCKETS",
    "WIRE_LATENCY_BUCKETS",
    "RingBufferSink",
    "JSONLSink",
    "HistorySink",
    "read_jsonl",
    "render_events",
    "render_histogram",
    "render_kind_summary",
    "render_spans",
    "spans_as_dicts",
    "lock_table_snapshot",
    "manager_lock_tables",
    "waits_for_edges",
    "render_lock_tables",
    "render_waits_for",
]
