"""The trace event bus: emit-if-anyone-listens, near-zero when idle.

Instrumented components hold an optional ``tracer`` attribute that is
``None`` by default.  Every instrumentation site is guarded::

    tracer = self.tracer
    if tracer is not None:
        tracer.emit("lock.conflict", ...)

so the disabled path costs one attribute load and an identity check —
no event object is built, no dict allocated, no clock read.  The
overhead guard in ``benchmarks/check_overhead.py`` keeps it that way.

When a bus *is* attached but has no subscribers, :meth:`TraceBus.emit`
still returns before constructing the event.  Sinks are plain callables
taking a :class:`~repro.obs.events.TraceEvent`; see
:mod:`repro.obs.sinks` for the stock ones.

A sink that raises (a trace file on a full disk) must not reach the
emit site — it sits between the two objects of one atomic commit — so
``emit`` detaches it and records why in :attr:`TraceBus.failures`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Tuple

from .events import TraceEvent

__all__ = ["TraceBus"]


class TraceBus:
    """Fan-out of trace events to subscribed sinks.

    Parameters
    ----------
    clock:
        Zero-argument callable giving the event timestamp.  Defaults to
        :func:`time.monotonic`; the simulation harness rebinds it to the
        discrete-event clock so traces carry simulated time.
    """

    __slots__ = ("_sinks", "clock", "emitted", "failures")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._sinks: List[Callable[[TraceEvent], None]] = []
        self.clock: Callable[[], float] = clock or time.monotonic
        #: Total events emitted to at least one sink (cheap sanity stat).
        self.emitted: int = 0
        #: ``(sink, exception)`` for every sink detached because it raised.
        self.failures: List[Tuple[Callable[[TraceEvent], None], Exception]] = []

    @property
    def active(self) -> bool:
        """True when at least one sink is subscribed."""
        return bool(self._sinks)

    def subscribe(self, sink: Callable[[TraceEvent], None]):
        """Attach a sink; returns it (for chaining)."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Detach a sink (no-op if absent).  A new list, so an ``emit``
        in progress finishes over the one it started with."""
        self._sinks = [kept for kept in self._sinks if kept != sink]

    def emit(self, kind: str, **data: Any) -> None:
        """Publish one event to every sink (no-op without subscribers).
        Never raises an ``Exception`` into the instrumented caller."""
        sinks = self._sinks
        if not sinks:
            return
        event = TraceEvent(self.clock(), kind, data)
        self.emitted += 1
        for sink in sinks:
            try:
                sink(event)
            except Exception as exc:
                self.unsubscribe(sink)
                self.failures.append((sink, exc))
