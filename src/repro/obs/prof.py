"""Continuous profiling: wall-clock sampling, critical path, contention.

PR 5 showed the conflict-relation lookup is the hot path and PR 7's
spans say what happened per transaction — this module answers the two
questions neither does: *where does the process spend its wall-clock
time* and *which phase (or conflict pair) gates the latency tail*.
Three pieces, all zero-dependency:

**Sampling profiler** — :class:`SamplingProfiler` runs a background
thread that snapshots every Python thread's stack via
``sys._current_frames()`` at a configurable rate.  Aggregation is a
deterministic fold (:class:`StackAggregator`): identical stacks merge
into one counter, output ordering is lexicographic, so two dumps of the
same sample multiset are byte-identical.  Output is the collapsed-stack
``.folded`` format FlameGraph's ``flamegraph.pl`` consumes directly,
plus a tagged-codec JSON dump for machine consumers.

**Critical-path analyzer** — :func:`critical_path` folds each
:class:`~repro.obs.spans.Span`'s :meth:`~repro.obs.spans.Span.budget`
into a per-transaction *gating phase* (the largest of
:data:`~repro.obs.spans.PHASES`), aggregate p50/p99 budgets per phase,
and coz-lite what-if estimates: "if ``execute`` were free, p99 would
drop to X", computed by re-ranking each span's total with that phase
subtracted.  The what-if numbers are *upper bounds* on the win (phases
overlap-free per span by construction, but removing a phase in real
life shifts queueing), which is exactly the caveat Coz makes for
virtual speedups.

**Contention profiler** — :func:`contention_profile` sums the spans'
``blocked_by`` charges per ``(object, operation-pair, relation)``, so
its total is the spans' ``lock-wait`` exactly.  The ranking — which
conflict pairs cost the most wall-clock wait — lists the pairs a finer
relation would have to split to buy latency back (per Malta &
Martinez, that win is bounded; this says where it could come from).

Everything here works offline: ``repro profile`` renders the sampler's
dumps, and ``repro analyze`` computes the critical-path and contention
sections of its postmortem from a recorded trace.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter as _Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .codec import decode_value, encode_value
from .spans import PHASES, Span

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "StackAggregator",
    "SamplingProfiler",
    "critical_path",
    "contention_profile",
    "write_profile",
    "read_profile",
    "render_profile",
    "render_critical_path",
    "render_contention",
]

PROFILE_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Deterministic collapsed-stack aggregation
# ----------------------------------------------------------------------


class StackAggregator:
    """Fold sampled stacks into deterministic collapsed-stack counts.

    A *stack* is a tuple of frame labels, root first (the format
    ``flamegraph.pl`` wants).  Aggregation is pure bookkeeping, so tests
    can drive it with synthetic frames and assert exact output; the
    sampler feeds it live frames.
    """

    def __init__(self, max_depth: int = 64):
        self.max_depth = max_depth
        self.counts: _Counter = _Counter()
        #: Total stacks added (== sum of counts).
        self.samples = 0
        #: Stacks whose depth exceeded ``max_depth`` (root-truncated).
        self.truncated = 0

    def add(self, stack: Sequence[str], count: int = 1) -> None:
        """Record one sampled stack (root-first frame labels)."""
        frames = tuple(stack)
        if len(frames) > self.max_depth:
            # Keep the leaf end: the hot frame is what the flamegraph
            # reader looks for; the lost root frames are boilerplate.
            frames = ("<truncated>",) + frames[-self.max_depth:]
            self.truncated += count
        self.counts[frames] += count
        self.samples += count

    def add_frame(self, leaf_frame: Any, root_label: Optional[str] = None) -> None:
        """Walk a live frame object leaf→root and record the stack."""
        frames: List[str] = []
        frame = leaf_frame
        while frame is not None:
            code = frame.f_code
            module = frame.f_globals.get("__name__", "?")
            frames.append(f"{module}.{code.co_name}")
            frame = frame.f_back
        frames.reverse()
        if root_label is not None:
            frames.insert(0, root_label)
        self.add(frames)

    def folded_lines(self) -> List[str]:
        """Collapsed-stack lines, sorted lexicographically (stable)."""
        return [
            ";".join(frames) + f" {count}"
            for frames, count in sorted(self.counts.items())
        ]

    def folded(self) -> str:
        """The full ``.folded`` document (one stack per line)."""
        return "\n".join(self.folded_lines()) + ("\n" if self.counts else "")

    def stacks(self) -> List[Tuple[str, int]]:
        """``(collapsed_stack, count)`` rows, sorted by stack."""
        return [
            (";".join(frames), count)
            for frames, count in sorted(self.counts.items())
        ]

    def frame_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-frame ``self`` (leaf) and ``total`` (anywhere) counts."""
        totals: Dict[str, Dict[str, int]] = {}
        for frames, count in self.counts.items():
            seen = set()
            for frame in frames:
                row = totals.setdefault(frame, {"self": 0, "total": 0})
                if frame not in seen:
                    row["total"] += count
                    seen.add(frame)
            if frames:
                totals[frames[-1]]["self"] += count
        return totals


# ----------------------------------------------------------------------
# The sampling wall-clock profiler
# ----------------------------------------------------------------------


class SamplingProfiler:
    """Low-overhead wall-clock sampler over ``sys._current_frames()``.

    A daemon thread wakes ``hz`` times per second, snapshots every
    thread's current frame, and folds each stack into a
    :class:`StackAggregator` (its own thread is excluded — the profiler
    never profiles itself).  The sampled threads pay nothing between
    samples; each sample briefly holds the GIL while the frame dict is
    built, which is why the overhead guard in
    ``benchmarks/check_overhead.py`` pins the cost below 5%.

    Parameters
    ----------
    hz:
        Target samples per second (default 87 — deliberately not a
        round divisor of common timer frequencies, the classic
        anti-lockstep choice).
    max_depth:
        Stack depth cap per sample; deeper stacks keep their leaf end.
    clock:
        Monotonic clock used for the duration bookkeeping (injectable
        for tests).
    frames:
        Zero-argument callable returning ``{thread_ident: frame}``
        (injectable for tests; defaults to ``sys._current_frames``).
    """

    def __init__(
        self,
        hz: float = 87.0,
        max_depth: int = 64,
        clock: Callable[[], float] = time.monotonic,
        frames: Callable[[], Mapping[int, Any]] = sys._current_frames,
    ):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = hz
        self.interval = 1.0 / hz
        self.aggregator = StackAggregator(max_depth=max_depth)
        self._clock = clock
        self._frames = frames
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        #: Accumulated sampling wall time across start/stop cycles.
        self.duration = 0.0
        #: Sampling rounds taken (each round may record several threads).
        self.rounds = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the sampler thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Spawn the sampler thread (idempotent while running)."""
        if self.running:
            return
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        if self._started_at is not None:
            self.duration += self._clock() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- sampling ------------------------------------------------------

    def sample_once(self, frames: Optional[Mapping[int, Any]] = None) -> int:
        """Take one sampling round; returns the stacks recorded.

        Tests call this directly with a synthetic frame mapping; the
        sampler thread calls it with the live ``sys._current_frames()``
        snapshot.  The sampler's own thread is always excluded.
        """
        if frames is None:
            frames = self._frames()
        own = self._thread.ident if self._thread is not None else None
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        recorded = 0
        for ident in sorted(frames):
            if ident == own:
                continue
            label = f"thread:{names.get(ident, ident)}"
            self.aggregator.add_frame(frames[ident], root_label=label)
            recorded += 1
        self.rounds += 1
        return recorded

    # -- output --------------------------------------------------------

    @property
    def samples(self) -> int:
        """Total stacks recorded across all rounds."""
        return self.aggregator.samples

    def folded(self) -> str:
        """The collapsed-stack document (``flamegraph.pl`` input)."""
        return self.aggregator.folded()

    def status(self) -> Dict[str, Any]:
        """JSON-friendly sampler state (for the in-band ``stats`` op)."""
        return {
            "running": self.running,
            "hz": self.hz,
            "rounds": self.rounds,
            "samples": self.samples,
            "truncated": self.aggregator.truncated,
            "duration_seconds": self.duration,
        }

    def as_dict(self) -> Dict[str, Any]:
        """The sampler section of a profile JSON dump."""
        return {
            "hz": self.hz,
            "rounds": self.rounds,
            "samples": self.samples,
            "truncated": self.aggregator.truncated,
            "duration_seconds": self.duration,
            "stacks": [list(row) for row in self.aggregator.stacks()],
        }


# ----------------------------------------------------------------------
# Critical-path analysis over spans
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Contention attribution over spans
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Dump / load / render
# ----------------------------------------------------------------------


def write_profile(
    directory: str, profiler: SamplingProfiler, prefix: str = "profile"
) -> List[str]:
    """Write ``<prefix>.folded`` and ``<prefix>.json`` under ``directory``.

    The ``.folded`` file is ``flamegraph.pl`` input; the JSON dump
    carries the sampler's stacks and status (values through the tagged
    codec, like every other obs artifact).  Returns the paths written.
    """
    os.makedirs(directory, exist_ok=True)
    folded_path = os.path.join(directory, f"{prefix}.folded")
    with open(folded_path, "w", encoding="utf-8") as handle:
        handle.write(profiler.folded())
    payload = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "sampler": profiler.as_dict(),
    }
    json_path = os.path.join(directory, f"{prefix}.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(encode_value(payload), indent=2, sort_keys=True) + "\n"
        )
    return [folded_path, json_path]


def read_profile(path: str) -> Dict[str, Any]:
    """Load a profile artifact: a ``.json`` dump, a ``.folded`` file, or
    a directory holding ``profile.json`` / ``profile.folded``."""
    if os.path.isdir(path):
        for name in ("profile.json", "profile.folded"):
            candidate = os.path.join(path, name)
            if os.path.isfile(candidate):
                path = candidate
                break
        else:
            raise FileNotFoundError(
                f"no profile.json or profile.folded under {path!r}"
            )
    if path.endswith(".folded"):
        stacks: List[Tuple[str, int]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                stack, _, count = line.rpartition(" ")
                stacks.append((stack, int(count)))
        samples = sum(count for _, count in stacks)
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "sampler": {"samples": samples, "stacks": [list(s) for s in stacks]},
        }
    with open(path, encoding="utf-8") as handle:
        return decode_value(json.load(handle))


def _aggregator_from(report: Mapping[str, Any]) -> Optional[StackAggregator]:
    sampler = report.get("sampler")
    if not sampler or not sampler.get("stacks"):
        return None
    aggregator = StackAggregator()
    for stack, count in sampler["stacks"]:
        aggregator.add(tuple(stack.split(";")), int(count))
    return aggregator


def _fmt_ms(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value):.3f}ms"


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
            f"  {phase:>9s}: p50 {_fmt_ms(row['p50'] * scale_to_ms)}  "
            f"p99 {_fmt_ms(row['p99'] * scale_to_ms)}"
        )
    total = report.get("total")
    if total:
        lines.append(
            f"  {'total':>9s}: p50 {_fmt_ms(total['p50'] * scale_to_ms)}  "
            f"p99 {_fmt_ms(total['p99'] * scale_to_ms)}"
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
            f"{_fmt_ms(row['p99_without'] * scale_to_ms)} "
            f"(saves {_fmt_ms(row['p99_drop'] * scale_to_ms)}; upper bound)"
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


def render_profile(report: Mapping[str, Any], top: int = 15) -> str:
    """Render a loaded profile artifact (``repro profile``)."""
    lines: List[str] = ["== profile =="]
    sampler = report.get("sampler")
    if sampler:
        hz = sampler.get("hz")
        duration = sampler.get("duration_seconds")
        lines.append(
            f"sampler: {sampler.get('samples', 0)} sample(s)"
            + (f" @ {hz:g}Hz" if hz else "")
            + (f" over {duration:.2f}s" if duration else "")
            + (
                f"  ({sampler['truncated']} truncated)"
                if sampler.get("truncated")
                else ""
            )
        )
        aggregator = _aggregator_from(report)
        if aggregator is not None:
            totals = aggregator.frame_totals()
            samples = aggregator.samples or 1
            ranked = sorted(
                totals.items(),
                key=lambda item: (-item[1]["self"], -item[1]["total"], item[0]),
            )
            lines.append(f"\nhottest frames (self/total of {samples} samples):")
            for frame, row in ranked[:top]:
                lines.append(
                    f"  {row['self']:>7d} {row['total']:>7d}"
                    f"  {100.0 * row['self'] / samples:>5.1f}%  {frame}"
                )
            hot_stacks = sorted(
                aggregator.counts.items(), key=lambda item: (-item[1], item[0])
            )
            lines.append("\nhottest stacks:")
            for frames, count in hot_stacks[:top]:
                lines.append(f"  {count:>7d}  {';'.join(frames)}")
    return "\n".join(lines) + "\n"
