"""Flight recorder: an always-on event ring that dumps on anomalies.

A live server cannot afford a full JSONL trace of every request, but
when something goes wrong the *recent* history is exactly what a
postmortem needs.  The :class:`FlightRecorder` is the standard
compromise: it retains the last ``capacity`` events in a bounded ring
(:class:`~repro.obs.sinks.RingBufferSink`) at all times, and when an
anomaly trigger fires it snapshots the ring to a tagged-codec JSONL
file that :func:`~repro.obs.sinks.read_jsonl` replays — through the
:class:`~repro.obs.checker.AtomicityChecker`, the span builder, or
``repro analyze``.

Triggers, each naming the ``reason`` tag of its dump: a refuted run
(``check.violation``: ``violation``), shed load (``server.busy``: ``busy``),
a finished graceful shutdown (``server.drain``: ``drain``, the run's
terminal snapshot), and a ``server.request`` one of whose rows was
admitted at or above ``queue_high_water`` depth (``queue-high-water``).

Dump files are named ``flight-<NNN>-<reason>.jsonl`` (a per-recorder
sequence number, no wall clock) and begin with a synthetic
``flight.dump`` event: the trigger, the window retained and how far it
was exceeded (``dropped``), so a replayed dump is honest about its own
truncation.  After a dump the recorder stays quiet for
``cooldown_events`` events, so a sustained anomaly (every request BUSY)
yields a bounded number of snapshots.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional, Tuple

from .codec import encode_event
from .events import REQUEST_ROW, TraceEvent
from .sinks import RingBufferSink

__all__ = ["FlightRecorder"]

_REASON_SAFE = re.compile(r"[^a-zA-Z0-9_-]+")

#: Where a ``server.request`` row keeps its queue depth.
_DEPTH = REQUEST_ROW.index("queue_depth")

#: Event kinds that unconditionally trigger a dump, mapped to reasons.
_TRIGGER_KINDS = {
    "check.violation": "violation",
    "server.busy": "busy",
    "server.drain": "drain",
}


class FlightRecorder:
    """Bounded ring of recent events with anomaly-triggered dumps.

    Dumps go to ``directory`` (created on first dump); the ring holds
    ``capacity`` events, evicting (and counting) older ones; without a
    ``queue_high_water`` there is no queue trigger; ``cooldown_events``
    must arrive between consecutive dumps.  ``emit_to`` is an optional
    :class:`~repro.obs.bus.TraceBus` that announces each dump as a
    ``flight.dump`` event, which the recorder itself never hears, so it
    can announce on the bus it is subscribed to.
    """

    def __init__(
        self,
        directory: str,
        capacity: int = 2048,
        queue_high_water: Optional[int] = None,
        cooldown_events: int = 256,
        emit_to: Optional[Any] = None,
    ):
        self.directory = directory
        self.ring = RingBufferSink(capacity)
        self.queue_high_water = queue_high_water
        self.cooldown_events = cooldown_events
        self._emit_to = emit_to
        #: Paths of every dump written, in order.
        self.dumps: List[str] = []
        self.last_reason: Optional[str] = None
        self._seq = 0
        #: ``ring.seen`` at the last dump (the cooldown counts from it).
        self._dumped_at: Optional[int] = None
        #: The kinds that can fire a trigger as configured; any other
        #: kind routes to the ring alone.
        self._watched = set(_TRIGGER_KINDS)
        if queue_high_water is not None:
            self._watched.add("server.request")

    # -- bus sink ------------------------------------------------------

    def route(self, kind: str) -> Tuple[Any, ...]:
        """The ring's folds, then the trigger for a watched kind; nothing
        for ``flight.dump``, our own announcement echoed back."""
        if kind == "flight.dump":
            return ()
        if kind in self._watched:
            return (*self.ring.route(kind), self._watch)
        return self.ring.route(kind)

    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind != "flight.dump":
            self.ring(event)
            if kind in self._watched:
                self._watch(event)

    def _watch(self, event: TraceEvent) -> None:
        """Dump when this watched event fires its trigger."""
        reason = _TRIGGER_KINDS.get(event.kind)
        if reason is None:  # server.request: the queue trigger, on any row
            high_water = self.queue_high_water
            for row in event.data["requests"]:
                if (row[_DEPTH] or 0) >= high_water:
                    break
            else:
                return
            reason = "queue-high-water"
        self.dump(reason, ts=event.ts)

    # -- dumping -------------------------------------------------------

    def dump(self, reason: str, ts: float = 0.0) -> Optional[str]:
        """Snapshot the ring to a JSONL file and return its path (None while
        cooling down); also called directly for operator snapshots."""
        seen, dropped = self.ring.seen, self.ring.dropped
        since = self._dumped_at
        if since is not None and seen - since < self.cooldown_events:
            return None
        events = self.ring.events()
        safe_reason = _REASON_SAFE.sub("-", reason) or "manual"
        self._seq += 1
        name = f"flight-{self._seq:03d}-{safe_reason}.jsonl"
        path = os.path.join(self.directory, name)
        os.makedirs(self.directory, exist_ok=True)
        header = {
            "reason": reason,
            "events": len(events),
            "dropped": dropped,
            "seen": seen,
            "path": name,
        }
        with open(path, "w", encoding="utf-8") as handle:
            for event in (TraceEvent(ts, "flight.dump", header), *events):
                handle.write(encode_event(event) + "\n")
        self.dumps.append(path)
        self.last_reason = reason
        self._dumped_at = seen
        emit_to = self._emit_to
        if emit_to is not None:
            emit_to.emit(
                "flight.dump",
                reason=reason,
                events=len(events),
                dropped=dropped,
                seen=seen,
                path=path,
            )
        return path

    # -- introspection -------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """JSON-friendly summary for the ``stats`` protocol op."""
        return {
            "dumps": len(self.dumps),
            "last_reason": self.last_reason,
            "last_path": self.dumps[-1] if self.dumps else None,
            "retained": len(self.ring),
            "seen": self.ring.seen,
            "dropped_events": self.ring.dropped,
        }
