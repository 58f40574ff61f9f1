"""Stock sinks and renderers for the trace bus: :class:`RingBufferSink`
keeps the last N events, :class:`JSONLSink` writes one JSON line per
event (:func:`read_jsonl` replays them), :class:`HistorySink` folds the
``txn.*`` events back into the paper's Section 3 history, and the
``render_*`` helpers draw tables for the CLI.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter as _Counter
from collections import deque
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.events import (
    AbortEvent,
    CommitEvent,
    Event,
    InvocationEvent,
    ResponseEvent,
)
from ..core.history import History
from ..core.operations import Invocation
from .codec import decode_value, encode_event
from .events import TraceEvent
from .registry import Histogram
from .spans import Span

__all__ = [
    "RingBufferSink",
    "JSONLSink",
    "HistorySink",
    "read_jsonl",
    "render_events",
    "render_spans",
    "render_histogram",
    "render_kind_summary",
    "spans_as_dicts",
]


class RingBufferSink:
    """Keep the most recent ``capacity`` events (all of them when None).

    ``dropped`` counts the events the bounded deque evicted, so a
    consumer can say "the window was exceeded by N events".  Routed (see
    :mod:`repro.obs.bus`), an event costs two C calls: the deque's
    ``append`` and a tick of the ``seen`` count.
    """

    def __init__(self, capacity: Optional[int] = None):
        self._events: deque = deque(maxlen=capacity)
        self._ticks = itertools.count()
        #: ``seen`` reads, each of which also took a value from ``_ticks``.
        self._reads = 0
        #: Events removed by :meth:`clear` (they were not dropped).
        self._cleared = 0
        self._folds = (self._events.append, functools.partial(next, self._ticks))

    def route(self, kind: str) -> Tuple[Any, ...]:
        """Every kind: append, then tick."""
        return self._folds

    def __call__(self, event: TraceEvent) -> None:
        self._events.append(event)
        next(self._ticks)

    @property
    def seen(self) -> int:
        """Count of every event seen, including ones the ring dropped."""
        seen = next(self._ticks) - self._reads
        self._reads += 1
        return seen

    @property
    def dropped(self) -> int:
        """Events evicted oldest-first because the ring was full."""
        return self.seen - len(self._events) - self._cleared

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop the retained events (``seen``/``dropped`` keep counting)."""
        self._cleared += len(self._events)
        self._events.clear()


class JSONLSink:
    """Write each event as one JSON line to a path or open file.  Payload
    values go through the tagged codec (:mod:`repro.obs.codec`), so
    :func:`read_jsonl` restores tuples, frozensets, fractions and ``-∞``."""

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            # The sink owns the handle for its whole lifetime: close()
            # and __exit__ release it, so no `with` block can scope it.
            self._file: IO[str] = open(  # repro: noqa[REP105]
                target, "w", encoding="utf-8"
            )
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.written = 0

    def __call__(self, event: TraceEvent) -> None:
        self._file.write(encode_event(event) + "\n")
        self.written += 1

    def flush(self) -> None:
        """Push buffered lines to the OS (crash-tolerant tracing: a
        process killed after flushing loses no acknowledged events)."""
        self._file.flush()

    def close(self) -> None:
        """Flush and (when this sink opened the file) close it."""
        self._file.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class HistorySink:
    """The one events → :class:`~repro.core.history.History` fold (the
    paper's Section 3 history, in bus order): a participant's
    ``txn.invoke`` / ``txn.respond`` become invocation and response
    events, a manager's ``txn.commit`` / ``txn.abort`` one completion
    event per object it names."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __call__(self, event: TraceEvent) -> None:
        kind, data = event.kind, event.data
        name = data.get("transaction")
        if kind == "txn.invoke":
            invocation = Invocation(data["operation"], tuple(data["args"]))
            self.events.append(InvocationEvent(name, data["obj"], invocation))
        elif kind == "txn.respond":
            self.events.append(ResponseEvent(name, data["obj"], data["result"]))
        elif kind == "txn.commit":
            for obj in data["objects"]:
                self.events.append(CommitEvent(name, obj, data["timestamp"]))
        elif kind == "txn.abort":
            for obj in data["objects"]:
                self.events.append(AbortEvent(name, obj))

    def history(self) -> History:
        """The history folded so far."""
        return History(self.events, validate=False)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Replay a JSONL trace file back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            ts = record.pop("ts")
            kind = record.pop("kind")
            data = {key: decode_value(value) for key, value in record.items()}
            events.append(TraceEvent(ts, kind, data))
    return events


# ----------------------------------------------------------------------
# Human-readable renderers
# ----------------------------------------------------------------------


def render_events(events: Iterable[TraceEvent], limit: Optional[int] = None) -> str:
    """One line per event; the last ``limit`` events when given."""
    rows = list(events)
    if limit is not None:
        rows = rows[-limit:]
    lines = []
    for event in rows:
        body = " ".join(f"{k}={v}" for k, v in event.data.items())
        lines.append(f"{event.ts:12.4f}  {event.kind:20s} {body}")
    return "\n".join(lines)


def render_kind_summary(events: Iterable[TraceEvent]) -> str:
    """Event counts by kind, most frequent first."""
    counts = _Counter(event.kind for event in events)
    width = max((len(kind) for kind in counts), default=4)
    lines = [f"{kind:{width}s}  {count:>8d}" for kind, count in counts.most_common()]
    return "\n".join(lines)


def render_spans(spans: Sequence[Span], limit: Optional[int] = None) -> str:
    """An aligned table of spans: outcome, latency, breakdown, counts."""
    rows = list(spans)
    if limit is not None:
        rows = rows[:limit]
    header = (
        f"{'transaction':14s}{'outcome':>10s}{'latency':>10s}"
        f"{'queued':>10s}{'blocked':>10s}{'executing':>10s}"
        f"{'ops':>6s}{'cfl':>6s}{'objects':>14s}"
    )
    lines = [header, "-" * len(header)]
    for span in rows:
        latency = span.latency
        lines.append(
            f"{span.transaction:14s}"
            f"{span.outcome or 'open':>10s}"
            f"{latency if latency is not None else float('nan'):>10.3f}"
            f"{span.queued:>10.3f}{span.blocked:>10.3f}{span.executing:>10.3f}"
            f"{span.invokes:>6d}{span.conflicts:>6d}"
            f"{','.join(sorted(span.objects)):>14s}"
        )
    return "\n".join(lines)


def render_histogram(histogram: Histogram, width: int = 40) -> str:
    """ASCII bar-chart of a histogram's cumulative buckets."""
    lines = [
        f"{histogram.name}: n={histogram.total} mean={histogram.mean:.3f}"
        f" p50~{histogram.quantile(0.5):g} p95~{histogram.quantile(0.95):g}"
    ]
    peak = max(histogram.counts) if histogram.total else 1
    labels = [f"<= {b:g}" for b in histogram.boundaries] + ["+inf"]
    for label, count in zip(labels, histogram.counts):
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"  {label:>10s} {count:>8d} {bar}")
    return "\n".join(lines)


def spans_as_dicts(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """JSON-friendly span rows (for machine-readable artifacts)."""
    rows = []
    for span in spans:
        rows.append(
            {
                "transaction": span.transaction,
                "outcome": span.outcome,
                "begin_ts": span.begin_ts,
                "end_ts": span.end_ts,
                "latency": span.latency,
                "queued": span.queued,
                "blocked": span.blocked,
                "executing": span.executing,
                "invokes": span.invokes,
                "conflicts": span.conflicts,
                "blocks": span.blocks,
                "objects": sorted(span.objects),
                "read_only": span.read_only,
                "trace": span.trace,
                "phases": dict(span.phases),
            }
        )
    return rows
