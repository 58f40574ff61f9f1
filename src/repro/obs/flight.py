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

Triggers (each names the ``reason`` tag in the dump file):

=====================  =============================================
reason                 fires when
=====================  =============================================
``violation``          the atomicity checker refuted the run
                       (``check.violation`` observed)
``deadlock``           a waits-for cycle was refused
                       (``lock.deadlock``)
``busy``               the server shed load (``server.busy``)
``queue-high-water``   a ``server.request`` was admitted at or above
                       ``queue_high_water`` depth
``drain``              graceful shutdown completed (``server.drain``)
                       — the terminal snapshot of the run
=====================  =============================================

Dump files are named deterministically — ``flight-<NNN>-<reason>.jsonl``
with a per-recorder sequence number, no wall clock — and begin with a
synthetic ``flight.dump`` event recording the trigger, the retained
window size, and how far the ring's window was exceeded (``dropped``),
so a replayed dump is honest about its own truncation.

A ``cooldown_events`` budget separates consecutive dumps: once a dump
fires, the recorder stays quiet until that many new events arrive, so a
sustained anomaly (every request BUSY) yields a bounded number of
snapshots rather than one per event.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional

from .codec import encode_event
from .events import TraceEvent
from .sinks import RingBufferSink

__all__ = ["FlightRecorder"]

_REASON_SAFE = re.compile(r"[^a-zA-Z0-9_-]+")

#: Event kinds that unconditionally trigger a dump, mapped to reasons.
_TRIGGER_KINDS = {
    "check.violation": "violation",
    "lock.deadlock": "deadlock",
    "server.busy": "busy",
    "server.drain": "drain",
}


class FlightRecorder:
    """Bounded ring of recent events with anomaly-triggered dumps.

    Parameters
    ----------
    directory:
        Where dump files go (created on first dump).
    capacity:
        Ring size in events; older events are evicted (and counted).
    queue_high_water:
        When set, a ``server.request`` admitted at ``queue_depth >=``
        this value triggers a ``queue-high-water`` dump.
    cooldown_events:
        Events that must arrive between consecutive dumps.
    emit_to:
        Optional :class:`~repro.obs.bus.TraceBus` to announce dumps on
        (a ``flight.dump`` event).  The recorder ignores incoming
        ``flight.dump`` events, so subscribing it to the same bus it
        announces on cannot recurse.
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
        #: The kinds that can fire a trigger as configured; for any other
        #: event ``__call__`` is the ring append and nothing else.
        self._watched = set(_TRIGGER_KINDS)
        if queue_high_water is not None:
            self._watched.add("server.request")

    # -- bus sink ------------------------------------------------------

    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == "flight.dump":
            # Our own announcement echoed back through a shared bus.
            return
        # RingBufferSink.__call__, inline: this runs for every event.
        ring = self.ring
        events = ring._events
        if len(events) == events.maxlen:
            ring.dropped += 1
        events.append(event)
        ring.seen += 1
        if kind in self._watched:
            reason = self._trigger(kind, event)
            if reason is not None:
                self.dump(reason, ts=event.ts)

    def _trigger(self, kind: str, event: TraceEvent) -> Optional[str]:
        """The dump reason this watched event fires, if any."""
        reason = _TRIGGER_KINDS.get(kind)
        if reason is not None:
            return reason
        # server.request: the queue trigger.
        depth = event.data.get("queue_depth") or 0
        return "queue-high-water" if depth >= self.queue_high_water else None

    # -- dumping -------------------------------------------------------

    def dump(self, reason: str, ts: float = 0.0) -> Optional[str]:
        """Snapshot the ring to a JSONL file; returns the path.

        Honors the cooldown (returns ``None`` when still cooling
        down).  Callable directly for operator-initiated snapshots.
        """
        since = self._dumped_at
        if since is not None and self.ring.seen - since < self.cooldown_events:
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
            "dropped": self.ring.dropped,
            "seen": self.ring.seen,
            "path": name,
        }
        with open(path, "w", encoding="utf-8") as handle:
            for event in (TraceEvent(ts, "flight.dump", header), *events):
                handle.write(encode_event(event) + "\n")
        self.dumps.append(path)
        self.last_reason = reason
        self._dumped_at = self.ring.seen
        emit_to = self._emit_to
        if emit_to is not None:
            emit_to.emit(
                "flight.dump",
                reason=reason,
                events=len(events),
                dropped=self.ring.dropped,
                seen=self.ring.seen,
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
