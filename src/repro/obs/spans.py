"""Per-transaction spans: begin→completion aggregation of trace events.

A *span* is the transaction-level rollup of the event stream: when the
transaction began, how it ended, which objects it touched, and where its
latency went.  This module is the one place both of "where did the time
go?" and "who blocked it?" are decided; the critical path, the
contention table and ``repro analyze`` only fold spans.

**Phases.**  :data:`PHASES` names a served transaction's time, in wall
order: ``client`` (send → admission, from a request's ``sent`` stamp to
its ``server.request``), ``queue`` / ``execute`` / ``respond`` (the
``server.respond`` row fields of the same names), and ``lock-wait`` (the
blocked tally below).
:meth:`Span.budget` reads them; a new phase is one entry here plus one
key at its emit site.

**Intervals.**  While a span is open, each event naming its transaction
— wire events included, a batched one through each row naming it — ends
the interval since the previous one:

* **executing** if it is an accepted ``txn.invoke`` / ``txn.respond``
  (the machine did work);
* **blocked** if its kind is in :data:`BLOCKED_KINDS` (the transaction
  paid for concurrency control); the interval is also charged to the
  refusal's ``(object, operation pair, relation)`` in
  :attr:`Span.blocked_by`;
* **queued** otherwise (scheduling delay, think time inside the
  transaction, a client round trip, commit processing).

On a served trace a refusal's blocked interval therefore starts at its
own request's admission, not one client round trip earlier.

:class:`SpanBuilder` is a bus sink: subscribe it to a
:class:`~repro.obs.bus.TraceBus` and read ``builder.spans`` afterwards.
Every committed or aborted transaction yields exactly one span; events
arriving after completion (e.g. per-site commit deliveries in the
distributed runtime) are tallied as ``extra_events`` rather than
reopening the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from .events import TraceEvent, wire_rows

__all__ = [
    "BLOCKED_KINDS",
    "PHASES",
    "Span",
    "SpanBuilder",
    "WIRE_SPAN_KINDS",
    "SPAN_IRRELEVANT_KINDS",
]

#: A transaction's time, in wall order (see the module docstring).
PHASES = ("client", "queue", "execute", "respond", "lock-wait")

#: Event kinds that end a "blocked" interval.
BLOCKED_KINDS = frozenset({"lock.conflict", "lock.block", "lock.wait"})
#: Event kinds that end an "executing" interval.
_EXECUTING_KINDS = frozenset({"txn.invoke", "txn.respond"})
#: Event kinds that complete a span.
_TERMINAL_KINDS = frozenset({"txn.commit", "txn.abort"})
#: What a refusal that names no pair (a wait) is charged to when its
#: transaction has not been refused on a named pair before.
_UNNAMED_BLOCKER = ("?", "(wait)/(unknown holder)", "wait")

#: Serving-tier kinds the span builder *consumes*: their rows carry the
#: client's trace context and the per-request phase split, and end an
#: open span's interval like any other event (never entering the kinds
#: list — they are wire bookkeeping, not history events).
WIRE_SPAN_KINDS = frozenset({"server.request", "server.busy", "server.respond"})

#: Kinds the span builder deliberately ignores: connection-scoped or
#: server-scoped, with no single owning transaction.  The trace-
#: completeness test asserts every ``server.*``/``flight.*`` kind in
#: ``EVENT_KINDS`` appears either here or in :data:`WIRE_SPAN_KINDS`,
#: so a new serving-tier kind cannot silently fall through the builder.
SPAN_IRRELEVANT_KINDS = frozenset(
    {
        "server.connect",
        "server.disconnect",
        "server.drain",
        "flight.dump",
    }
)


def _blocker(
    event: TraceEvent, previous: Optional[Tuple[str, str, str]]
) -> Tuple[str, str, str]:
    """The ``(object, operation pair, relation)`` a refusal is charged
    to: the pair it names, else (a wait) the transaction's previous
    one."""
    data = event.data
    if event.kind == "lock.conflict":
        pair = f"{data.get('operation')}/{data.get('held')}"
        return str(data.get("obj")), pair, str(data.get("relation"))
    if event.kind == "lock.block":
        pair = f"{data.get('operation')}/(no legal outcome)"
        return str(data.get("obj")), pair, "blocked"
    return previous or _UNNAMED_BLOCKER


@dataclass
class Span:
    """One transaction's aggregated trace."""

    transaction: str
    begin_ts: Optional[float] = None
    end_ts: Optional[float] = None
    #: ``"committed"`` / ``"aborted"`` / None while open.
    outcome: Optional[str] = None
    #: Commit timestamp (the protocol's, not the clock's), if committed.
    timestamp: Any = None
    read_only: bool = False
    invokes: int = 0
    responds: int = 0
    conflicts: int = 0
    blocks: int = 0
    objects: Set[str] = field(default_factory=set)
    #: Latency breakdown (same clock units as the bus).
    queued: float = 0.0
    blocked: float = 0.0
    executing: float = 0.0
    #: ``blocked`` by refusal: ``(object, operation pair, relation)`` ->
    #: ``[refusals, blocked time]``.
    blocked_by: Dict[Tuple[str, str, str], List[Any]] = field(default_factory=dict)
    #: Events observed after the span completed (distributed fan-out).
    extra_events: int = 0
    #: The raw event kinds, in arrival order (for well-formedness checks).
    kinds: List[str] = field(default_factory=list)
    #: The originating client's trace id, when the transaction was
    #: served over the wire (``server.request``/``server.respond``).
    trace: Optional[str] = None
    #: Served phases of :data:`PHASES`, accumulated across the
    #: transaction's requests (``lock-wait`` is :attr:`blocked`).
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> Optional[float]:
        """Begin-to-completion time, if both ends were observed."""
        if self.begin_ts is None or self.end_ts is None:
            return None
        return self.end_ts - self.begin_ts

    def budget(self) -> Dict[str, float]:
        """Time per phase of :data:`PHASES` (0.0 for a phase not paid)."""
        budget = {phase: self.phases.get(phase, 0.0) for phase in PHASES}
        budget["lock-wait"] = self.blocked
        return budget

    def violations(self) -> List[str]:
        """Well-formedness defects (empty list == well formed).

        A well-formed span saw its begin first, its terminal last,
        every invoke matched by a response in between, and monotone
        breakdown totals that add up to the observed latency.
        """
        problems: List[str] = []
        if self.begin_ts is None:
            problems.append("no txn.begin observed")
        if self.outcome is None:
            problems.append("no terminal event observed")
        if self.kinds and self.kinds[0] != "txn.begin":
            problems.append(f"first event was {self.kinds[0]}, not txn.begin")
        if self.kinds and self.outcome and self.kinds[-1] not in _TERMINAL_KINDS:
            problems.append(f"last event was {self.kinds[-1]}, not terminal")
        if self.invokes != self.responds:
            problems.append(
                f"{self.invokes} invokes vs {self.responds} responses"
            )
        latency = self.latency
        if latency is not None:
            total = self.queued + self.blocked + self.executing
            if total - latency > 1e-9:
                problems.append("breakdown exceeds observed latency")
        return problems

    @property
    def well_formed(self) -> bool:
        """True when :meth:`violations` finds nothing."""
        return not self.violations()


class SpanBuilder:
    """Bus sink folding transaction events into :class:`Span` objects.

    ``pending_limit`` bounds the pre-begin stash: a decoded request
    whose transaction never opens (refused handle, malformed follow-up)
    would otherwise sit in ``_pending`` forever.  When the stash is
    full, the oldest entry is evicted FIFO and ``pending_evicted``
    counts the loss — an evicted transaction that *does* later open
    merely loses its wire phases, never its machine events.
    """

    def __init__(self, pending_limit: int = 512):
        #: Completed spans, in completion order.
        self.spans: List[Span] = []
        #: Still-open spans by transaction name.
        self.open: Dict[str, Span] = {}
        #: Completed spans by transaction name (latest wins).
        self._done: Dict[str, Span] = {}
        #: Last event timestamp per open transaction (interval anchor).
        self._last_ts: Dict[str, float] = {}
        #: What each open transaction's last refusal was charged to.
        self._blockers: Dict[str, Tuple[str, str, str]] = {}
        #: Wire context seen before the machine's ``txn.begin`` — the
        #: serving tier admits a request (and stamps its trace) before
        #: the manager opens the transaction, so the first
        #: ``server.request`` predates the span.  Stashed here and
        #: promoted to the real span when it opens, evicted FIFO past
        #: ``pending_limit`` entries.
        self._pending: Dict[str, Span] = {}
        self.pending_limit = pending_limit
        #: Pre-begin spans dropped because the stash was full.
        self.pending_evicted = 0

    def _interval(self, span: Span, ts: float) -> float:
        """The time since the open ``span``'s previous event (its begin,
        or none before the first); ``ts`` becomes the new anchor."""
        transaction = span.transaction
        anchor = self._last_ts.get(
            transaction, span.begin_ts if span.begin_ts is not None else ts
        )
        self._last_ts[transaction] = ts
        return max(0.0, ts - anchor)

    def _fold_wire(self, event: TraceEvent) -> None:
        """Fold a ``server.request``/``server.busy``/``server.respond``,
        each request's row into its transaction's span.

        Wire events bracket the machine's own event window: the first
        request arrives before ``txn.begin``, the commit's respond after
        ``txn.commit``.  Their trace context and phases therefore fold
        into whichever span exists — open, already completed, or a
        pre-begin stash; only an open span's interval split sees them.
        """
        admitted = event.kind != "server.respond"  # or refused BUSY
        for data in wire_rows(event):
            transaction = data.get("transaction")
            if transaction is not None:
                self._fold_row(event.ts, data, transaction, admitted)

    def _fold_row(
        self, ts: float, data: Mapping[str, Any], transaction: str, admitted: bool
    ) -> None:
        """One request's wire row, seen at ``ts``."""
        span = self.open.get(transaction)
        if span is not None:
            span.queued += self._interval(span, ts)
        else:
            span = self._done.get(transaction) or self._pending.get(transaction)
            if span is None:
                while len(self._pending) >= self.pending_limit:
                    self._pending.pop(next(iter(self._pending)))
                    self.pending_evicted += 1
                span = self._pending[transaction] = Span(transaction=transaction)
        trace = data.get("trace")
        if trace is not None:
            span.trace = trace
        phases = span.phases
        if admitted:
            sent = data.get("sent")
            if sent is not None:
                phases["client"] = phases.get("client", 0.0) + max(0.0, ts - sent)
        else:
            for phase in PHASES:
                value = data.get(phase)
                if value is not None:
                    phases[phase] = phases.get(phase, 0.0) + value

    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind in WIRE_SPAN_KINDS:
            self._fold_wire(event)
            return
        if kind in SPAN_IRRELEVANT_KINDS:
            return
        transaction = event.data.get("transaction")
        if transaction is None or kind.startswith(("wal.", "net.")):
            return
        done = self._done.get(transaction)
        if done is not None:
            done.extra_events += 1
            return
        span = self.open.get(transaction)
        if span is None:
            span = self._pending.pop(transaction, None)
            if span is None:
                span = Span(transaction=transaction)
            self.open[transaction] = span
        if kind == "txn.begin":
            span.begin_ts = self._last_ts[transaction] = event.ts
            span.read_only = bool(event.data.get("read_only"))
        else:
            interval = self._interval(span, event.ts)
            if kind in _EXECUTING_KINDS:
                span.executing += interval
            elif kind in BLOCKED_KINDS:
                span.blocked += interval
                key = _blocker(event, self._blockers.get(transaction))
                self._blockers[transaction] = key
                charged = span.blocked_by.setdefault(key, [0, 0.0])
                charged[0] += 1
                charged[1] += interval
            else:
                span.queued += interval
        span.kinds.append(kind)
        if kind == "txn.invoke":
            span.invokes += 1
            obj = event.data.get("obj")
            if obj is not None:
                span.objects.add(obj)
        elif kind == "txn.respond":
            span.responds += 1
        elif kind == "lock.conflict":
            span.conflicts += 1
        elif kind in ("lock.block", "lock.wait"):
            span.blocks += 1
        elif kind in _TERMINAL_KINDS:
            span.end_ts = event.ts
            span.outcome = "committed" if kind == "txn.commit" else "aborted"
            span.timestamp = event.data.get("timestamp")
            self.spans.append(span)
            self._done[transaction] = span
            del self.open[transaction]
            self._last_ts.pop(transaction, None)
            self._blockers.pop(transaction, None)

    def committed(self) -> List[Span]:
        """Completed spans that ended in a commit."""
        return [span for span in self.spans if span.outcome == "committed"]

    def aborted(self) -> List[Span]:
        """Completed spans that ended in an abort."""
        return [span for span in self.spans if span.outcome == "aborted"]
