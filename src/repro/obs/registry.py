"""Metrics registry: counters, gauges, and fixed-bucket histograms.

:meth:`MetricsRegistry.absorb_metrics` imports every field of a
:class:`repro.sim.metrics.Metrics` row as a counter; the event-driven
:class:`RegistrySink` adds what the row cannot express — conflicts *per
operation pair*, latency *distributions*.  Histograms keep the bucket
boundaries chosen at creation (Prometheus ``le`` semantics), so compared
runs always share bucket edges.
"""

from __future__ import annotations

from bisect import bisect_left
import json
import re
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .events import REPLY_ROW, REQUEST_ROW, TraceEvent
from .spans import PHASES

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySink",
    "DEFAULT_LATENCY_BUCKETS",
    "WIRE_LATENCY_BUCKETS",
    "render_prometheus",
]

#: Default latency bucket upper bounds (simulated time units).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)

#: Latency bucket upper bounds in *real seconds*, for the serving tier
#: (its bus clock is ``time.monotonic``): the default buckets would put
#: every request in the first one.
WIRE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Any = None

    def set(self, value: Any) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-boundary histogram with count/sum like Prometheus.

    ``boundaries`` are the inclusive upper bounds of the finite buckets;
    an implicit +inf bucket catches the rest.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "sum")

    def __init__(self, name: str, boundaries: Sequence[float]):
        edges = tuple(sorted(boundaries))
        if not edges:
            raise ValueError("a histogram needs at least one boundary")
        self.name = name
        self.boundaries = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Quantile estimate, linearly interpolated within its bucket
        (the first bucket's lower edge is 0.0).  A quantile in the
        overflow bucket is ``float("inf")``, not the last boundary: its
        renderers (``repro top``, the postmortem) then say "beyond the
        histogram's range" instead of printing a fictitious value."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            below = seen
            seen += count
            if seen >= rank and count:
                if index >= len(self.boundaries):
                    return float("inf")
                lower = self.boundaries[index - 1] if index else 0.0
                upper = self.boundaries[index]
                fraction = min(1.0, max(0.0, (rank - below) / count))
                return lower + fraction * (upper - lower)
        return float("inf")

    @property
    def overflow(self) -> int:
        """Observations beyond the last finite boundary."""
        return self.counts[-1]

    @classmethod
    def from_snapshot(cls, name: str, payload: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`MetricsRegistry.snapshot`
        entry (``repro top`` computes quantiles from remote snapshots)."""
        histogram = cls(name, payload["boundaries"])
        histogram.counts = [int(count) for count in payload["counts"]]
        histogram.total = int(payload["total"])
        histogram.sum = float(payload["sum"])
        return histogram


class MetricsRegistry:
    """Named counters, gauges, and histograms with get-or-create access."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The named histogram, created with ``boundaries`` on first use."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                name, boundaries or DEFAULT_LATENCY_BUCKETS
            )
        return histogram

    # -- Metrics bridge ------------------------------------------------

    def absorb_metrics(self, metrics: Any, prefix: str = "") -> None:
        """Import every field of a :class:`repro.sim.metrics.Metrics`.

        Iterates ``dataclasses.fields`` so counters added to ``Metrics``
        later can never be silently dropped here either.
        """
        import dataclasses

        for field in dataclasses.fields(metrics):
            value = getattr(metrics, field.name)
            self.counter(prefix + field.name).inc(value)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict (``repro stats
        --connect`` renders a remote server's metrics through it)."""
        registry = cls()
        for name, value in (snapshot.get("counters") or {}).items():
            registry.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            registry.gauge(name).set(value)
        for name, payload in (snapshot.get("histograms") or {}).items():
            registry.histograms[name] = Histogram.from_snapshot(name, payload)
        return registry

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict snapshot of everything (JSON-friendly shapes)."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "boundaries": list(histogram.boundaries),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "sum": histogram.sum,
                    "mean": histogram.mean,
                }
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document (non-JSON values via repr)."""
        return json.dumps(self.snapshot(), indent=indent, default=repr)

    def conflict_breakdown(self) -> Dict[str, float]:
        """Per-operation-pair conflict counters (``lock.conflict[...]``)."""
        return {
            name: counter.value
            for name, counter in sorted(self.counters.items())
            if name.startswith("lock.conflict[")
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> Tuple[str, str]:
    """``(metric name, label)`` of a registry name: a bracketed breakdown
    (``lock.conflict[Deq × Enq]``) becomes the label ``'{key="..."}'`` of
    its base metric's family; an unbracketed name has label ``""``."""
    base, bracket, rest = name.partition("[")
    label = ""
    if bracket:
        value = rest[:-1] if rest.endswith("]") else rest
        value = value.replace("\\", "\\\\").replace('"', '\\"')
        label = f'{{key="{value}"}}'
    metric = "repro_" + _PROM_BAD_CHARS.sub("_", base.strip("."))
    return metric, label


def render_prometheus(registry: "MetricsRegistry") -> str:
    """The registry in Prometheus text exposition format (v0.0.4):
    counters with a ``_total`` suffix, numeric gauges (exposition only
    speaks floats), histograms as cumulative ``_bucket{le=...}`` series
    with ``_sum`` and ``_count``."""
    lines: List[str] = []
    typed: set = set()

    def declare(metric: str, kind: str) -> None:
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for name, counter in sorted(registry.counters.items()):
        metric, label = _prom_name(name)
        metric += "_total"
        declare(metric, "counter")
        lines.append(f"{metric}{label} {counter.value:g}")
    for name, gauge in sorted(registry.gauges.items()):
        value = gauge.value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        metric, label = _prom_name(name)
        declare(metric, "gauge")
        lines.append(f"{metric}{label} {value:g}")
    for name, histogram in sorted(registry.histograms.items()):
        metric, _ = _prom_name(name)
        declare(metric, "histogram")
        cumulative = 0
        for boundary, count in zip(histogram.boundaries, histogram.counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{boundary:g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.total}')
        lines.append(f"{metric}_sum {histogram.sum:g}")
        lines.append(f"{metric}_count {histogram.total}")
    return "\n".join(lines) + "\n"


#: Where a request row keeps what the registry folds.
_SENT, _SHARD, _DEPTH, _ACTION = map(
    REQUEST_ROW.index, ("sent", "shard", "queue_depth", "action")
)
#: A reply row's shard, and ``(phase, position)`` of each phase it carries.
_REPLY_SHARD = REPLY_ROW.index("shard")
_REPLY_PHASES = tuple((p, REPLY_ROW.index(p)) for p in PHASES if p in REPLY_ROW)


class _Bound(dict):
    """key (a name, or a label ``fetch`` formats into one) -> instrument,
    fetched on first use: the registry lists only what events touched."""

    def __init__(self, fetch: Callable[[Any], Any]):
        super().__init__()
        self._fetch = fetch

    def __missing__(self, key: Any) -> Any:
        instrument = self[key] = self._fetch(key)
        return instrument


class RegistrySink:
    """Bus sink that folds trace events into a :class:`MetricsRegistry`.

    Counters have event-shaped names (``txn.committed``,
    ``lock.conflict[pair]`` …), apart from the ``Metrics`` fields; a
    served request's :data:`~repro.obs.spans.PHASES` are histograms named
    ``server.<phase>``.  Blocked time is the span builder's answer.
    Routed (:meth:`route`), a kind costs its handler's one call, a kind
    without one (``txn.invoke``, ``txn.respond``) nothing; handlers write
    an instrument's ``.value`` directly.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        latency_buckets: Optional[Sequence[float]] = None,
    ):
        self.registry = registry
        buckets = tuple(latency_buckets or DEFAULT_LATENCY_BUCKETS)
        counter, gauge = registry.counter, registry.gauge
        self._counters = _Bound(counter)
        self._gauges = _Bound(gauge)
        self._histograms = _Bound(lambda name: registry.histogram(name, buckets))
        self._phases = _Bound(lambda p: registry.histogram(f"server.{p}", buckets))
        # Labelled instruments, bound per label (an action, a shard index).
        self._request_actions = _Bound(lambda a: counter(f"server.request[{a}]"))
        self._shard_depths = _Bound(lambda i: gauge(f"server.queue_depth[shard{i}]"))
        self._shard_responses = _Bound(lambda i: counter(f"server.responses[shard{i}]"))
        self._begin_ts: Dict[str, float] = {}
        self._connections = 0
        count = self._count
        #: kind -> handler; a kind without one is ignored.
        self._handlers: Dict[str, Callable[[TraceEvent], None]] = {
            "txn.begin": self._txn_begin,
            "txn.commit": self._terminal("txn.committed", "txn.latency"),
            "txn.abort": self._terminal("txn.aborted", "txn.abort_latency"),
            "lock.conflict": self._lock_conflict,
            "lock.block": count("lock.blocks"),
            "lock.wait": count("lock.waits"),
            "compaction.advance": self._compaction_advance,
            "wal.append": count("wal.appends"),
            "wal.replay": count("wal.replays"),
            "net.send": self._net_send,
            "site.crash": count("site.crashes"),
            "site.recover": count("site.recoveries"),
            "validation.success": count("validation.successes"),
            "validation.invalidated": count("validation.invalidated"),
            "quorum.assemble": count("quorum.assembled"),
            "quorum.deny": count("quorum.denied"),
            "check.violation": count("check.violations"),
            "server.connect": self._connection("server.connections_opened", 1),
            "server.disconnect": self._connection("server.connections_closed", -1),
            "server.request": self._server_request,
            "server.busy": self._server_busy,
            "server.respond": self._server_respond,
            "server.drain": count("server.drains"),
            "flight.dump": count("flight.dumps"),
        }

    def route(self, kind: str) -> Tuple[Callable[[TraceEvent], None], ...]:
        """The handler of ``kind``; none (never routed) for the rest."""
        handler = self._handlers.get(kind)
        return () if handler is None else (handler,)

    def __call__(self, event: TraceEvent) -> None:
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event)

    def _count(self, name: str) -> Callable[[TraceEvent], None]:
        """A handler that just counts its events under ``name``."""
        counters = self._counters

        def handler(event: TraceEvent) -> None:
            counters[name].value += 1

        return handler

    def _txn_begin(self, event: TraceEvent) -> None:
        self._counters["txn.begun"].value += 1
        self._begin_ts[event.data["transaction"]] = event.ts

    def _terminal(self, outcome: str, latency: str) -> Callable[[TraceEvent], None]:
        """A handler for a transaction's last event: count it under
        ``outcome`` and observe its ``latency`` when its begin was seen."""

        def handler(event: TraceEvent) -> None:
            begun = self._begin_ts.pop(event.data["transaction"], None)
            if begun is not None:
                self._counters[outcome].value += 1
                self._histograms[latency].observe(event.ts - begun)

        return handler

    def _lock_conflict(self, event: TraceEvent) -> None:
        data = event.data
        pair = f"{data.get('operation')} × {data.get('held')}"
        self._counters["lock.conflicts"].value += 1
        self._counters[f"lock.conflict[{pair}]"].value += 1

    def _compaction_advance(self, event: TraceEvent) -> None:
        counters = self._counters
        counters["compaction.advances"].value += 1
        counters["compaction.collapsed_ops"].value += event.data.get("collapsed", 0)

    def _net_send(self, event: TraceEvent) -> None:
        self._counters["net.messages"].value += 1
        label = event.data.get("label")
        if label:
            self._counters[f"net.send[{label}]"].value += 1

    def _connection(self, counted: str, delta: int) -> Callable[[TraceEvent], None]:
        """A handler for a connection opening (+1) or closing (-1)."""

        def handler(event: TraceEvent) -> None:
            self._counters[counted].value += 1
            self._connections += delta
            self._gauges["server.connections"].value = self._connections

        return handler

    def _server_request(self, event: TraceEvent, busy: bool = False) -> None:
        """Parsed requests, a row each: the client→server leg, the queue
        each was bound for (none: answered inline), its action or BUSY
        refusal.  ``Histogram.observe``, inline."""
        ts = event.ts
        counters, phases = self._counters, self._phases
        decoded = counters["server.decoded"]
        for row in event.data["requests"]:
            decoded.value += 1
            sent = row[_SENT]
            if sent is not None:
                histogram = phases["client"]
                value = ts - sent
                if value < 0.0:
                    value = 0.0
                histogram.counts[bisect_left(histogram.boundaries, value)] += 1
                histogram.total += 1
                histogram.sum += value
            shard = row[_SHARD]
            if shard is not None:
                depth = row[_DEPTH]
                self._gauges["server.queue_depth"].value = depth
                self._shard_depths[shard].value = depth
            if busy:
                counters["server.busy"].value += 1
            elif shard is not None:
                counters["server.requests"].value += 1
                action = row[_ACTION]
                if action:
                    self._request_actions[action].value += 1

    def _server_busy(self, event: TraceEvent) -> None:
        """A BUSY refusal: one flat event, folded as a one-row batch."""
        data = event.data
        row = tuple(map(data.get, REQUEST_ROW))
        batch = TraceEvent(event.ts, event.kind, {"requests": (row,)})
        self._server_request(batch, busy=True)

    def _server_respond(self, event: TraceEvent) -> None:
        """Answered requests, a row each: their phases and shard."""
        counters, phases = self._counters, self._phases
        responses = counters["server.responses"]
        for row in event.data["replies"]:
            responses.value += 1
            for phase, position in _REPLY_PHASES:  # Histogram.observe, inline
                value = row[position]
                if value is not None:
                    histogram = phases[phase]
                    histogram.counts[bisect_left(histogram.boundaries, value)] += 1
                    histogram.total += 1
                    histogram.sum += value
            shard = row[_REPLY_SHARD]
            if shard is not None:
                self._shard_responses[shard].value += 1
