"""Typed trace events — the vocabulary of the observability layer.

The paper's interesting quantities are *invisible* in an end-of-run
metrics row: which operation pair a lock refusal named (Section 5's
conflict relation at work), how far the horizon let intentions be
compacted (Section 6, Lemmas 18-23), which messages a 2PC round cost.
Trace events make each of those a first-class, timestamped record.

Event taxonomy (the ``kind`` field):

=====================  =============================================
kind                   emitted when / payload highlights
=====================  =============================================
``txn.begin``          a transaction starts (``transaction``,
                       ``read_only``)
``txn.invoke``         an invocation is accepted by a LOCK machine
                       (``transaction``, ``obj``, ``operation``,
                       ``args``)
``txn.respond``        a response is accepted (``transaction``,
                       ``obj``, ``result``)
``txn.commit``         a commit event is delivered (``transaction``,
                       ``timestamp``, ``objects`` or ``site``)
``txn.abort``          an abort event is delivered (``transaction``)
``lock.conflict``      a lock refusal: the requested operation, the
                       held operation it conflicts with, the holder,
                       and the *relation that refused it*
``lock.block``         a partial operation had no legal outcome in
                       the view (``WouldBlock``)
``lock.wait``          a transaction's wait for a holder ended —
                       woken, withdrawn or timed out (the simulator's
                       block policy, the server's parked invocations)
``compaction.advance`` ``forget()`` folded intentions into the
                       version: old/new horizon, collapsed-prefix
                       length, forgotten transactions
``wal.append``         a record hit the write-ahead log (``record``
                       names the record kind, ``transaction`` when
                       it has one)
``wal.replay``         recovery replayed a logged transaction
``net.send``           a message entered the simulated network
``site.crash``         fail-stop injected (``hard`` distinguishes
                       volatile-loss crashes)
``site.recover``       checkpoint + WAL replay rebuilt a site or
                       manager
``obj.create``         an object registered with a manager or site
                       (``obj``, ``adt``, ``protocol``, ``relation``,
                       ``initial`` serial states) — the checker reads
                       its spec and conflict relation from this
``validation.success`` certification passed (``path`` says whether the
                       fast path or a dependency replay decided it)
``validation.invalidated``  certification failed, naming the committed
                       transaction whose operation invalidated the
                       view (``invalidated_by``, ``operation``)
``quorum.assemble``    a replica quorum was chosen (``obj``, ``quorum``
                       initial/final, ``replicas``, ``size``)
``quorum.deny``        a quorum could not be formed — too many
                       replicas down, or a quorum-intersection rule
                       violated at assignment validation
``check.violation``    the atomicity checker refuted a property of
                       the run (``rule``, ``txn``, ``obj``,
                       ``witness_events``)
``server.connect``     a client connection was accepted by the wire
                       tier (``session``, ``peer``)
``server.disconnect``  a connection closed; any transactions it still
                       held were aborted (``session``, ``requests``,
                       ``aborted``)
``server.request``     requests were parsed and admitted, one
                       positional row of :data:`REQUEST_ROW` per
                       request (``requests``), emitted once per admitted
                       run of a read — before the run's shard call, so
                       it precedes the ``txn.*`` events it causes — and
                       at the end of the read: the ``session``,
                       ``action``, ``transaction``, the client's trace
                       context (``trace`` id, ``sent`` timestamp — the
                       client→server leg of the span ends at the event's
                       ``ts``) and where it went: ``shard`` and that
                       shard's ``queue_depth``, the work waiting in its
                       FIFO ahead of this request (its place in the run
                       on a non-blocking shard, called within the read),
                       or ``shard=None`` when admission answered it
                       (``begin``, ``ping``, ``stats``, a cached ack, a
                       routing refusal)
``server.busy``        a request was refused with BUSY instead — the
                       bounded work queue was past its high-water mark
                       (one flat event, the keys of :data:`REQUEST_ROW`;
                       the rows admitted before it are emitted first)
``server.respond``     shard-executed requests were answered, one
                       positional row of :data:`REPLY_ROW` per reply
                       (``replies``), emitted once per write of the
                       shell: each row carries the trace id and the
                       request's phases of ``spans.PHASES`` — ``queue``
                       in the shard's FIFO (0 on a non-blocking shard),
                       ``execute`` against the manager, ``respond`` until
                       the reply is written — with its batch-mates', in
                       one write: a posted batch on a blocking shard, the
                       rest of the read on a non-blocking one
``server.drain``       graceful shutdown finished: accepted requests
                       all answered, in-flight transactions resolved
                       (``sessions``, ``finished``, ``aborted``)
``flight.dump``        the flight recorder tripped an anomaly trigger
                       and dumped its ring to a JSONL snapshot
                       (``reason``, ``events``, ``dropped``, ``path``)
=====================  =============================================

Events are deliberately plain: a slotted dataclass of ``(ts, kind,
data)`` where ``data`` is a small dict (not frozen: one is built on every
emit, which sets the three slots without calling ``__init__``).  Everything
downstream — spans, metric registries, JSONL files — is a fold over the
event stream.  The serving tier's two per-request kinds batch: a
``server.request`` or ``server.respond`` carries one tuple per request,
laid out as :data:`REQUEST_ROW` or :data:`REPLY_ROW`; :func:`wire_rows`
reads any wire event back as one dict per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping

__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "EVENT_PAYLOADS",
    "REPLY_ROW",
    "REQUEST_ROW",
    "wire_rows",
]

#: The positional row of one admitted request in a ``server.request``'s
#: ``requests`` (a ``server.busy`` carries the same keys, flat).
REQUEST_ROW = (
    "session",
    "action",
    "trace",
    "sent",
    "transaction",
    "shard",
    "queue_depth",
)

#: The positional row of one answered request in a ``server.respond``'s
#: ``replies``; the last three are phases of ``spans.PHASES``.
REPLY_ROW = (
    "session",
    "action",
    "trace",
    "transaction",
    "shard",
    "queue",
    "execute",
    "respond",
)

#: The declared payload vocabulary per kind — the contract between the
#: emit sites and the consumers (the checker's handlers, the span
#: builder, the registry sink).  ``repro lint`` (REP101) statically
#: checks every ``tracer.emit(...)`` keyword against this map, and
#: cross-references it against the keys :mod:`repro.obs.checker`
#: actually reads, so a mistyped key can neither be emitted nor
#: silently dropped by the oracle.  Keys must be string literals here;
#: the lint rule reads this file without importing it.
EVENT_PAYLOADS: Mapping[str, FrozenSet[str]] = {
    "txn.begin": frozenset({"transaction", "read_only", "timestamp"}),
    "txn.invoke": frozenset(
        {"transaction", "obj", "operation", "args", "read_only"}
    ),
    "txn.respond": frozenset({"transaction", "obj", "result", "read_only"}),
    "txn.commit": frozenset(
        {"transaction", "timestamp", "objects", "site", "read_only"}
    ),
    "txn.abort": frozenset({"transaction", "objects", "site", "read_only"}),
    "lock.conflict": frozenset(
        {"transaction", "obj", "operation", "holder", "held", "relation"}
    ),
    "lock.block": frozenset({"transaction", "obj", "operation"}),
    "lock.wait": frozenset({"transaction", "holder"}),
    "compaction.advance": frozenset(
        {
            "obj",
            "old_horizon",
            "new_horizon",
            "collapsed",
            "forgotten",
            "retained",
        }
    ),
    "wal.append": frozenset({"record", "transaction", "obj", "site"}),
    "wal.replay": frozenset({"record", "transaction", "timestamp"}),
    "net.send": frozenset({"label"}),
    "site.crash": frozenset({"site", "hard", "victims"}),
    "site.recover": frozenset(
        {
            "site",
            "objects",
            "replayed_records",
            "replayed_operations",
            "prepared",
            "from_checkpoint",
        }
    ),
    "obj.create": frozenset(
        {
            "obj",
            "adt",
            "protocol",
            "relation",
            "initial",
            "site",
            "replicas",
            "recovered",
        }
    ),
    "validation.success": frozenset({"transaction", "obj", "path"}),
    "validation.invalidated": frozenset(
        {"transaction", "obj", "invalidated_by", "operation"}
    ),
    "quorum.assemble": frozenset(
        {"obj", "quorum", "members", "live", "size", "replicas"}
    ),
    "quorum.deny": frozenset(
        {
            "obj",
            "quorum",
            "live",
            "needed",
            "replicas",
            "initial",
            "final",
            "dependent",
            "depended",
        }
    ),
    "check.violation": frozenset(
        {"rule", "txn", "obj", "message", "witness_events"}
    ),
    "server.connect": frozenset({"session", "peer"}),
    "server.disconnect": frozenset({"session", "requests", "aborted"}),
    "server.request": frozenset({"requests"}),
    "server.busy": frozenset(
        {"session", "action", "trace", "sent", "transaction", "shard", "queue_depth"}
    ),
    "server.respond": frozenset({"replies"}),
    "server.drain": frozenset({"sessions", "finished", "aborted"}),
    "flight.dump": frozenset(
        {"reason", "events", "dropped", "seen", "path"}
    ),
}


#: The closed set of event kinds the instrumentation emits: the kinds
#: with a payload.  Sinks must tolerate unknown kinds (forward
#: compatibility), but the CLI and the docs enumerate exactly these.
EVENT_KINDS: FrozenSet[str] = frozenset(EVENT_PAYLOADS)


@dataclass(slots=True)
class TraceEvent:
    """One timestamped observation.

    ``ts`` is whatever clock the emitting :class:`~repro.obs.bus.TraceBus`
    was configured with — simulated time inside the discrete-event
    harness, wall-clock seconds elsewhere.  ``data`` holds the
    kind-specific payload.
    """

    ts: float
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)

    @property
    def transaction(self) -> Any:
        """The transaction this event concerns, if any."""
        return self.data.get("transaction")

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to a JSON-friendly dict (payload keys at top level)."""
        return {"ts": self.ts, "kind": self.kind, **self.data}


#: Where each batched wire kind keeps its rows, and their layout.
_ROWS = {
    "server.request": ("requests", REQUEST_ROW),
    "server.respond": ("replies", REPLY_ROW),
}


def wire_rows(event: TraceEvent) -> List[Mapping[str, Any]]:
    """The per-request payloads of a wire event, one dict per request: a
    ``server.request``'s or ``server.respond``'s rows keyed by their
    layout, a ``server.busy``'s own payload; none for any other kind."""
    if event.kind == "server.busy":
        return [event.data]
    rows = _ROWS.get(event.kind)
    if rows is None:
        return []
    key, layout = rows
    return [dict(zip(layout, row)) for row in event.data[key]]
