"""``repro top``: a curses-free live view over the in-band ``stats`` op.

Polls a running server's ``stats`` endpoint on an interval and prints a
compact refresh — uptime, queue depths, commit/abort/BUSY *rates*
(deltas between consecutive snapshots, not lifetime totals), latency
quantiles per served phase rebuilt from the snapshot's histogram
buckets (:meth:`~repro.obs.registry.Histogram.from_snapshot`), the
hottest conflict pairs by count, and the flight recorder's status.
Where a transaction's time went and who blocked it is ``repro
analyze``'s answer, over spans.  No terminal control
beyond a separator line, so the output works under ``watch``, a pipe,
or a dumb CI log just as well as a tty.

The rendering is a pure function of two snapshots
(:func:`render_top`), so tests drive it without a socket or a clock;
only :func:`run_top` touches the network and ``time.sleep``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from ..obs.registry import Histogram
from ..obs.spans import PHASES
from .client import SyncClient

__all__ = ["render_top", "run_top"]


def _rate(
    current: Dict[str, Any],
    previous: Optional[Dict[str, Any]],
    key: str,
    elapsed: Optional[float],
) -> str:
    """``delta/s`` between snapshots; ``—`` until two snapshots exist.

    A rate needs two samples — rendering the lifetime total on tick one
    (as this used to) reads as an absurd per-second figure the moment
    the server has any history.
    """
    if previous is None or not elapsed or elapsed <= 0:
        return "—"
    now = current.get(key, 0)
    delta = max(0, now - previous.get(key, 0))
    return f"{delta / elapsed:.1f}/s"


def _quantile(histogram: Histogram, q: float) -> str:
    value = histogram.quantile(q)
    if value == float("inf"):
        return ">max"
    return f"{value * 1000.0:.2f}ms"


def render_top(
    snapshot: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    elapsed: Optional[float] = None,
) -> str:
    """One refresh frame from a ``stats`` result (pure; testable)."""
    lines: List[str] = []
    uptime = snapshot.get("uptime")
    lines.append(
        f"repro top — {snapshot.get('status', '?')}  "
        f"workers={snapshot.get('workers')}  "
        f"connections={snapshot.get('connections')}  "
        f"objects={snapshot.get('objects')}  "
        + (f"up {uptime:.1f}s" if uptime is not None else "up ?")
    )
    queues = snapshot.get("queues") or []
    limit = snapshot.get("queue_limit")
    if queues:
        depths = " ".join(
            f"shard{index}:{depth}" for index, depth in enumerate(queues)
        )
        lines.append(f"queues (limit {limit}): {depths}")
    server = snapshot.get("server") or {}
    prev_server = (previous or {}).get("server") if previous else None
    lines.append(
        "rates: "
        f"requests {_rate(server, prev_server, 'requests', elapsed)}  "
        f"commits {_rate(server, prev_server, 'transactions_committed', elapsed)}  "
        f"aborts {_rate(server, prev_server, 'transactions_aborted', elapsed)}  "
        f"busy {_rate(server, prev_server, 'busy', elapsed)}  "
        f"errors {_rate(server, prev_server, 'errors', elapsed)}"
    )
    histograms = (snapshot.get("metrics") or {}).get("histograms") or {}
    phase_p99: List[tuple] = []
    for phase in PHASES:  # lock-wait has no histogram: `repro analyze`
        name = f"server.{phase}"
        payload = histograms.get(name)
        if not payload:
            continue
        histogram = Histogram.from_snapshot(name, payload)
        if not histogram.total:
            continue
        lines.append(
            f"latency {phase:>7s}: "
            f"p50 {_quantile(histogram, 0.5)}  "
            f"p99 {_quantile(histogram, 0.99)}  "
            f"n={histogram.total}"
        )
        phase_p99.append((histogram.quantile(0.99), phase))
    if phase_p99:
        # The live critical-path hint: the phase whose p99 dominates is
        # where the tail goes (offline attribution: `repro analyze`).
        p99, phase = max(phase_p99)
        lines.append(
            f"critical path: {phase} gates the tail "
            f"(p99 {'>max' if p99 == float('inf') else f'{p99 * 1e3:.2f}ms'})"
        )
    counters = (snapshot.get("metrics") or {}).get("counters") or {}
    pairs = sorted(
        (
            (value, name)
            for name, value in counters.items()
            if name.startswith("lock.conflict[")
        ),
        reverse=True,
    )[:3]
    if pairs:
        rendered = "  ".join(
            f"{name[len('lock.conflict['):-1]}={value:g}"
            for value, name in pairs
        )
        lines.append(f"hottest conflicts: {rendered}")
    flight = snapshot.get("flight")
    if flight:
        lines.append(
            f"flight: {flight.get('dumps', 0)} dump(s)"
            + (
                f" (last: {flight.get('last_reason')})"
                if flight.get("last_reason")
                else ""
            )
            + f"  ring {flight.get('retained')}/{flight.get('seen')} seen"
            f"  {flight.get('dropped_events', 0)} beyond window"
        )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    write: Callable[[str], None] = print,
) -> int:
    """Poll ``stats`` every ``interval`` seconds and print each frame.

    ``iterations=None`` runs until interrupted (Ctrl-C exits cleanly);
    a count makes it scriptable (``repro top --iterations 1`` is a
    one-shot status check).  Returns the number of frames printed.
    """
    frames = 0
    previous: Optional[Dict[str, Any]] = None
    last_poll: Optional[float] = None
    with SyncClient(host, port) as client:
        try:
            while iterations is None or frames < iterations:
                now = time.monotonic()
                snapshot = client.stats()
                elapsed = (
                    now - last_poll if last_poll is not None else None
                )
                if frames:
                    write("-" * 64)
                write(render_top(snapshot, previous, elapsed))
                frames += 1
                previous, last_poll = snapshot, now
                if iterations is not None and frames >= iterations:
                    break
                time.sleep(interval)
        except KeyboardInterrupt:
            pass
    return frames
