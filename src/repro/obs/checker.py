"""Streaming atomicity checker: an online oracle over the trace stream.

The tracing layer (PR 2) made runs *visible*; this module makes them
*refutable*.  :class:`AtomicityChecker` is a plain bus sink — subscribe
it to a live :class:`~repro.obs.bus.TraceBus`, or replay a JSONL trace
file through it offline — that continuously verifies four property
families, one event at a time:

1. **Well-formedness** (paper §2): every ``txn.invoke`` is answered by a
   matching ``txn.respond`` before the next invocation by the same
   transaction at the same object, and no transaction acts after its
   terminal ``txn.commit`` / ``txn.abort``.
2. **Hybrid atomicity** (§3, Definitions 5–9, Theorem 10): commit
   timestamps are unique and exceed every timestamp the transaction
   observed (§3.3's precedes ⊆ timestamp-order discipline), and the
   committed operations at each object — reordered by commit timestamp —
   stay legal under the ADT's serial specification.  Read-only
   multiversion transactions (§7.1) are validated at their *start*
   timestamp instead.
3. **LOCK-machine invariants** (§5.1): every accepted invocation was
   conflict-free under the object's declared symmetric relation against
   the intentions lists of the other active transactions, and every
   ``lock.conflict`` refusal names a holder that really held a related
   operation under that relation.
4. **Compaction / recovery safety** (§6, Lemmas 18–23): horizons only
   advance, nothing uncommitted is folded into a version, nothing above
   the horizon is folded, and ``wal.replay`` reconstructs commits at
   their pre-crash timestamps, in timestamp order.

The checker learns each object's serial spec and conflict relation from
its ``obj.create`` event (resolving names through the ADT and protocol
registries), so an offline replay needs nothing but the trace file.

On a refutation it records a :class:`~repro.obs.witness.Violation`,
shrinks the trace-so-far to a minimal witness by delta debugging
(replaying candidate sub-sequences through fresh checkers), and — when
``emit_to`` is a bus — publishes a ``check.violation`` event so the
refutation lands in the same trace it refutes.

Scope: one checker certifies one run.  Traces that concatenate several
runs (e.g. ``repro simulate`` with multiple protocols into one JSONL
file) reuse transaction names and timestamps across runs; attach a
fresh checker per run, as ``simulate --check`` does.
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import TraceEvent
from .witness import Violation, minimize_witness

__all__ = ["AtomicityChecker"]


def _lt(a: Any, b: Any) -> bool:
    """``a < b`` over commit timestamps as the trace carries them (ints,
    or ``NEG_INFINITY`` for an empty horizon); ``None`` is -∞; values a
    trace file made incomparable → False."""
    if a is None:
        return b is not None
    if b is None:
        return False
    try:
        return a < b
    except TypeError:
        return False


@dataclass
class _TxnState:
    name: str
    began: bool = False
    read_only: bool = False
    start_key: Any = None
    status: str = "active"  # active | committed | aborted
    commit_ts: Any = None
    #: Highest per-object watermark observed at a respond (§3.3 bound).
    bound_key: Any = None
    bound_obj: Optional[str] = None
    #: Outstanding invocation per object: obj -> (Invocation, read_only).
    pending: Dict[str, Any] = field(default_factory=dict)
    #: Accepted operations per object, in acceptance order.
    ops: Dict[str, List[Any]] = field(default_factory=dict)


class _ObjectState:
    """Everything the checker knows about one object."""

    __slots__ = (
        "name", "adt_name", "spec", "initial", "relation", "relation_name",
        "engine", "site", "conflict_checked", "note",
        "entry_keys", "entries", "states", "watermark_key", "held",
        "committed_txns",
    )

    def __init__(self, name: str):
        self.name = name
        self.adt_name: Optional[str] = None
        self.spec = None
        self.initial = None
        self.relation = None
        self.relation_name: Optional[str] = None
        self.engine = "locking"
        self.site: Optional[str] = None
        self.conflict_checked = False
        self.note: Optional[str] = "no obj.create observed"
        #: Committed entries sorted by timestamp key.
        self.entry_keys: List[Any] = []
        self.entries: List[Tuple[Any, str, Tuple[Any, ...]]] = []
        #: Serial states after replaying ``entries`` in key order.
        self.states = None
        self.watermark_key: Any = None
        #: Intentions held by active transactions: txn -> [Operation].
        self.held: Dict[str, List[Any]] = {}
        self.committed_txns: set = set()


class AtomicityChecker:
    """Streaming oracle certifying a trace hybrid atomic (see module doc).

    Use as a bus sink (``bus.subscribe(AtomicityChecker())``) or replay a
    recorded trace with :meth:`replay`.  ``emit_to`` publishes
    ``check.violation`` events back to a bus; ``specs`` / ``relations``
    optionally pre-seed per-object serial specs and conflict relations
    for traces without ``obj.create`` events.
    """

    def __init__(
        self,
        emit_to: Any = None,
        minimize: bool = True,
        max_witness_events: int = 5000,
        specs: Optional[Dict[str, Any]] = None,
        relations: Optional[Dict[str, Any]] = None,
    ):
        self._emit_to = emit_to
        self._minimize = minimize
        self._max_witness_events = max_witness_events
        self._specs = dict(specs or {})
        self._relations = dict(relations or {})
        self._events: List[TraceEvent] = []
        self.violations: List[Violation] = []
        self.suppressed = 0
        self.kind_counts: _Counter = _Counter()
        self._objects: Dict[str, _ObjectState] = {}
        self._txns: Dict[str, _TxnState] = {}
        self._ts_index: Dict[Any, str] = {}
        #: Commits learned from ``wal.replay`` rather than ``txn.commit``.
        self._replayed: Dict[str, Any] = {}
        self._replay_last_key: Any = None
        #: 2PC-prepared (site, transaction) pairs (from ``wal.append``):
        #: their intentions are on stable storage, so their locks survive
        #: a hard crash and are re-acquired by recovery.
        self._prepared: set = set()

    # -- public surface ------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no property family has been refuted."""
        return not self.violations

    def __call__(self, event: TraceEvent) -> None:
        self.check_event(event)

    def replay(self, events: Iterable[TraceEvent]) -> "AtomicityChecker":
        """Feed a recorded trace through the oracle; returns self."""
        for event in events:
            self.check_event(event)
        return self

    def report(self) -> Dict[str, Any]:
        """A JSON-friendly verdict over everything checked so far."""
        statuses = _Counter(t.status for t in self._txns.values())
        objects = {}
        for name, state in sorted(self._objects.items()):
            objects[name] = {
                "adt": state.adt_name,
                "engine": state.engine,
                "committed_entries": len(state.entries),
                "legality_checked": state.spec is not None,
                "conflict_checked": state.conflict_checked,
            }
            if state.note:
                objects[name]["note"] = state.note
        return {
            "verdict": "clean" if self.ok else "violations",
            "ok": self.ok,
            "events": len(self._events),
            "transactions": {
                "total": len(self._txns),
                "committed": statuses.get("committed", 0),
                "aborted": statuses.get("aborted", 0),
                "active": statuses.get("active", 0),
            },
            "objects": objects,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed_repeats": self.suppressed,
        }

    def render_report(self) -> str:
        """Human-readable verdict for the ``repro check`` CLI."""
        report = self.report()
        txns = report["transactions"]
        lines = []
        if self.ok:
            lines.append(
                f"certified hybrid atomic: {report['events']} event(s), "
                f"{txns['committed']} committed / {txns['aborted']} aborted "
                f"/ {txns['active']} still active transaction(s)"
            )
        else:
            lines.append(
                f"REFUTED: {len(self.violations)} violation(s) over "
                f"{report['events']} event(s)"
                + (
                    f" (+{self.suppressed} repeat(s) suppressed)"
                    if self.suppressed
                    else ""
                )
            )
        for name, info in report["objects"].items():
            checked = []
            if info["legality_checked"]:
                checked.append("serial-order")
            if info["conflict_checked"]:
                checked.append("conflicts")
            lines.append(
                f"  {name}: {info['adt'] or '?'} [{info['engine']}] "
                f"{info['committed_entries']} committed entr(ies), "
                f"checked: {', '.join(checked) or 'well-formedness only'}"
                + (f" ({info['note']})" if info.get("note") else "")
            )
        for violation in self.violations:
            lines.append(violation.render())
        return "\n".join(lines)

    # -- event dispatch ------------------------------------------------

    def check_event(self, event: TraceEvent) -> None:
        """Verify one event against every property family."""
        kind = event.kind
        if kind == "check.violation":
            return  # never re-judge our own verdicts
        self._events.append(event)
        self.kind_counts[kind] += 1
        data = event.data
        if kind == "obj.create":
            self._on_create(data)
        elif kind == "txn.begin":
            self._on_begin(data)
        elif kind == "txn.invoke":
            self._on_invoke(data)
        elif kind == "txn.respond":
            self._on_respond(data)
        elif kind == "txn.commit":
            self._on_commit(data)
        elif kind == "txn.abort":
            self._on_abort(data)
        elif kind == "lock.conflict":
            self._on_lock_conflict(data)
        elif kind == "compaction.advance":
            self._on_compaction(data)
        elif kind == "wal.append":
            if data.get("record") == "prepare":
                self._prepared.add((data.get("site"), data.get("transaction")))
        elif kind == "wal.replay":
            self._on_replay(data)
        elif kind == "site.crash":
            self._on_site_crash(data)
        elif kind == "site.recover":
            self._replay_last_key = None

    # -- object / transaction registries -------------------------------

    def _object(self, name: str) -> _ObjectState:
        state = self._objects.get(name)
        if state is None:
            state = self._objects[name] = _ObjectState(name)
            spec = self._specs.get(name)
            if spec is not None:
                state.spec = spec
                state.initial = spec.initial_states()
                state.states = state.initial
                state.note = None
            relation = self._relations.get(name)
            if relation is not None:
                state.relation = relation
                state.relation_name = getattr(relation, "name", None)
                state.conflict_checked = True
                state.note = None
        return state

    def _txn(self, name: str) -> _TxnState:
        state = self._txns.get(name)
        if state is None:
            state = self._txns[name] = _TxnState(name)
        return state

    def _on_create(self, data: Dict[str, Any]) -> None:
        name = data.get("obj")
        if name is None:
            return
        existing = self._objects.get(name)
        if existing is not None and existing.adt_name is not None:
            if data.get("adt") and data["adt"] != existing.adt_name:
                self._violation(
                    "well-formedness",
                    f"object {name!r} re-created as {data['adt']!r} "
                    f"(was {existing.adt_name!r})",
                    obj=name,
                )
            return  # recovery legitimately re-announces objects
        state = self._object(name)
        state.site = data.get("site", state.site)
        adt = None
        adt_name = data.get("adt")
        if adt_name:
            state.adt_name = adt_name
            try:
                from ..adts import get_adt

                adt = get_adt(adt_name)
            except KeyError:
                adt = None
        if state.spec is None and adt is not None:
            state.spec = adt.spec
        if state.spec is not None and state.initial is None:
            initial = data.get("initial")
            if initial is not None and not isinstance(initial, frozenset):
                try:
                    initial = frozenset(initial)
                except TypeError:
                    initial = None
            state.initial = (
                initial if initial is not None else state.spec.initial_states()
            )
            state.states = state.initial
        protocol = None
        protocol_name = data.get("protocol")
        if protocol_name:
            try:
                from ..protocols.base import get_protocol

                protocol = get_protocol(protocol_name)
                state.engine = protocol.engine
            except KeyError:
                protocol = None
        declared = data.get("relation")
        if state.relation is None and adt is not None:
            from ..protocols.base import ALL_PROTOCOLS

            candidates = []
            for candidate_protocol in ([protocol] if protocol else []) + list(
                ALL_PROTOCOLS
            ):
                try:
                    candidates.append(candidate_protocol.conflict_for(adt))
                except Exception:
                    continue
            for candidate in candidates:
                if declared is None or getattr(candidate, "name", None) == declared:
                    state.relation = candidate
                    break
        if state.relation is not None:
            state.relation_name = declared or getattr(
                state.relation, "name", None
            )
            state.conflict_checked = state.engine == "locking"
        note = []
        if state.spec is None:
            note.append("serial spec unresolved; legality unchecked")
        if state.relation is None and state.engine == "locking":
            note.append("conflict relation unresolved; acceptance unchecked")
        state.note = "; ".join(note) or None

    # -- family 1: well-formedness --------------------------------------

    def _on_begin(self, data: Dict[str, Any]) -> None:
        name = data.get("transaction")
        if name is None:
            return
        txn = self._txns.get(name)
        if txn is not None and (txn.began or txn.status != "active"):
            self._violation(
                "well-formedness",
                f"transaction {name!r} began twice (name reuse or event "
                "after a terminal commit/abort)",
                transaction=name,
            )
            return
        txn = self._txn(name)
        txn.began = True
        txn.read_only = bool(data.get("read_only"))
        if txn.read_only and data.get("timestamp") is not None:
            txn.start_key = data["timestamp"]

    def _on_invoke(self, data: Dict[str, Any]) -> None:
        name = data.get("transaction")
        obj = data.get("obj")
        if name is None or obj is None:
            return
        txn = self._txn(name)
        if txn.status != "active":
            self._violation(
                "well-formedness",
                f"{name!r} invoked {data.get('operation')!r} at {obj!r} "
                f"after its terminal {txn.status}",
                obj=obj,
                transaction=name,
            )
            return
        if obj in txn.pending:
            self._violation(
                "well-formedness",
                f"{name!r} invoked {data.get('operation')!r} at {obj!r} "
                "while an earlier invocation there is still unanswered",
                obj=obj,
                transaction=name,
            )
            return
        args = data.get("args", ())
        if not isinstance(args, tuple):
            args = tuple(args) if isinstance(args, (list, set)) else (args,)
        from ..core.operations import Invocation

        try:
            invocation = Invocation(data.get("operation") or "?", args)
        except (TypeError, ValueError):
            invocation = None
        txn.pending[obj] = (
            invocation,
            bool(data.get("read_only")) or txn.read_only,
        )

    def _on_respond(self, data: Dict[str, Any]) -> None:
        name = data.get("transaction")
        obj = data.get("obj")
        if name is None or obj is None:
            return
        txn = self._txn(name)
        if txn.status != "active":
            self._violation(
                "well-formedness",
                f"{name!r} received a response at {obj!r} after its "
                f"terminal {txn.status}",
                obj=obj,
                transaction=name,
            )
            return
        pending = txn.pending.pop(obj, None)
        if pending is None:
            self._violation(
                "well-formedness",
                f"response for {name!r} at {obj!r} without a matching "
                "invocation",
                obj=obj,
                transaction=name,
            )
            return
        invocation, read_only = pending
        if invocation is None:
            return
        from ..core.operations import Operation

        operation = Operation(invocation, data.get("result"))
        state = self._object(obj)
        # §3.3: record the highest committed timestamp this transaction
        # has now observed at any object — its commit must exceed it.
        if state.watermark_key is not None and _lt(
            txn.bound_key, state.watermark_key
        ):
            txn.bound_key = state.watermark_key
            txn.bound_obj = obj
        if not read_only:
            self._check_acceptance(state, txn, operation)
            state.held.setdefault(name, []).append(operation)
        txn.ops.setdefault(obj, []).append(operation)

    # -- family 3: LOCK-machine invariants ------------------------------

    def _check_acceptance(
        self, state: _ObjectState, txn: _TxnState, operation: Any
    ) -> None:
        """An accepted operation must commute with every held intention."""
        if not state.conflict_checked or state.relation is None:
            return
        relation = state.relation
        for holder, held_ops in state.held.items():
            if holder == txn.name:
                continue
            for held in held_ops:
                try:
                    related = relation.related(operation, held) or relation.related(
                        held, operation
                    )
                except Exception:
                    related = False
                if related:
                    self._violation(
                        "conflict-acceptance",
                        f"{state.name!r} accepted {operation} for "
                        f"{txn.name!r} while active {holder!r} holds the "
                        f"related {held} (relation "
                        f"{state.relation_name!r} should have refused it)",
                        obj=state.name,
                        transaction=txn.name,
                    )
                    return

    def _on_lock_conflict(self, data: Dict[str, Any]) -> None:
        obj = data.get("obj")
        requester = data.get("transaction")
        holder = data.get("holder")
        if holder is not None and holder == requester:
            self._violation(
                "conflict-acceptance",
                f"lock refusal at {obj!r} names {holder!r} as both "
                "requester and holder (a transaction never conflicts "
                "with itself)",
                obj=obj,
                transaction=requester,
            )
            return
        if obj is None or holder is None:
            return
        state = self._objects.get(obj)
        if state is None or not state.conflict_checked:
            return
        declared = data.get("relation")
        if declared and state.relation_name and declared != state.relation_name:
            self._violation(
                "conflict-acceptance",
                f"lock refusal at {obj!r} cites relation {declared!r} but "
                f"the object declared {state.relation_name!r}",
                obj=obj,
                transaction=requester,
            )
            return
        held_repr = data.get("held")
        held_ops = state.held.get(holder, [])
        if held_repr is not None and not any(
            str(op) == held_repr for op in held_ops
        ):
            self._violation(
                "conflict-acceptance",
                f"lock refusal at {obj!r} claims {holder!r} holds "
                f"{held_repr}, but no such intention is outstanding",
                obj=obj,
                transaction=requester,
            )

    # -- family 2: hybrid atomicity -------------------------------------

    def _on_commit(self, data: Dict[str, Any]) -> None:
        name = data.get("transaction")
        if name is None:
            return
        txn = self._txn(name)
        ts = data.get("timestamp")
        objects = data.get("objects")
        read_only = bool(data.get("read_only")) or txn.read_only
        if txn.status == "committed":
            # Per-site delivery fan-out after a coordinator decision:
            # tolerated, but only at the decided timestamp.
            if ts != txn.commit_ts:
                self._violation(
                    "commit-timestamp",
                    f"{name!r} re-committed with timestamp {ts!r} after "
                    f"committing at {txn.commit_ts!r}",
                    transaction=name,
                )
                return
            if objects:
                for obj in objects:
                    self._deliver(obj, txn)
            return
        if txn.status == "aborted":
            self._violation(
                "well-formedness",
                f"{name!r} committed after aborting",
                transaction=name,
            )
            return
        if txn.pending:
            unanswered = sorted(txn.pending)
            self._violation(
                "well-formedness",
                f"{name!r} committed with unanswered invocation(s) at "
                f"{', '.join(repr(o) for o in unanswered)}",
                obj=unanswered[0],
                transaction=name,
            )
            txn.pending.clear()
        if ts is None:
            if any(txn.ops.values()):
                self._violation(
                    "commit-timestamp",
                    f"{name!r} committed operations without a timestamp",
                    transaction=name,
                )
            txn.status = "committed"
            return
        owner = self._ts_index.get(ts)
        if owner is not None and owner != name:
            self._violation(
                "commit-timestamp",
                f"commit timestamp {ts!r} of {name!r} duplicates "
                f"{owner!r}'s (timestamps must be unique)",
                transaction=name,
            )
        else:
            self._ts_index[ts] = name
        if read_only:
            if txn.start_key is not None and ts != txn.start_key:
                self._violation(
                    "commit-timestamp",
                    f"read-only {name!r} committed at {ts!r} instead of "
                    "its start timestamp (§7.1 multiversion reads "
                    "validate at start)",
                    transaction=name,
                )
        elif txn.bound_key is not None and not _lt(txn.bound_key, ts):
            self._violation(
                "commit-timestamp",
                f"{name!r} committed at {ts!r}, but it had already "
                f"observed a commit at timestamp {txn.bound_key!r} "
                f"at {txn.bound_obj!r} — §3.3 requires the later "
                "timestamp to dominate",
                obj=txn.bound_obj,
                transaction=name,
            )
        txn.status = "committed"
        txn.commit_ts = ts
        replayed_key = self._replayed.get(name)
        if replayed_key is not None and replayed_key != ts:
            self._violation(
                "recovery",
                f"{name!r} committed at {ts!r} but recovery had replayed "
                "it at a different timestamp",
                transaction=name,
            )
        for obj, ops in txn.ops.items():
            if ops:
                self._insert_entry(self._object(obj), ts, name, tuple(ops))
        if objects is not None:
            # A commit that names its objects *is* the delivery (sim and
            # replicated managers, per-site distributed deliveries).  A
            # coordinator decision without ``objects`` raises no
            # watermark: its sites have not seen the commit yet.
            for obj in objects:
                self._deliver(obj, txn)

    def _deliver(self, obj: str, txn: _TxnState) -> None:
        state = self._object(obj)
        if txn.commit_ts is not None and _lt(
            state.watermark_key, txn.commit_ts
        ):
            state.watermark_key = txn.commit_ts
        state.held.pop(txn.name, None)

    def _insert_entry(
        self, state: _ObjectState, ts: Any, name: str, ops: Tuple
    ) -> None:
        """Splice a committed entry into the object's timestamp order and
        re-check serial legality (family 2's core)."""
        if name in state.committed_txns:
            return
        state.committed_txns.add(name)
        if state.spec is None:
            return
        keys = state.entry_keys
        position = len(keys)
        while position > 0 and _lt(ts, keys[position - 1]):
            position -= 1
        spec = state.spec
        if position == len(keys):
            next_states = spec.run_from(state.states, ops)
            if not next_states:
                self._violation(
                    "serial-order",
                    f"committed operations at {state.name!r} are illegal "
                    f"in commit-timestamp order: appending {name!r}'s "
                    f"{', '.join(str(op) for op in ops)} at timestamp "
                    f"{ts!r} leaves no legal serial state",
                    obj=state.name,
                    transaction=name,
                )
                return
            keys.append(ts)
            state.entries.append((ts, name, ops))
            state.states = next_states
            return
        # A commit landed *inside* the established order (a read-only
        # transaction validating at its start timestamp): replay the
        # whole sequence from the recorded initial states.
        candidate = list(state.entries)
        candidate.insert(position, (ts, name, ops))
        states = state.initial
        for _, entry_name, entry_ops in candidate:
            next_states = spec.run_from(states, entry_ops)
            if not next_states:
                self._violation(
                    "serial-order",
                    f"inserting {name!r} at timestamp {ts!r} makes the "
                    f"committed sequence at {state.name!r} illegal at "
                    f"{entry_name!r}'s "
                    f"{', '.join(str(op) for op in entry_ops)}",
                    obj=state.name,
                    transaction=name,
                )
                return
            states = next_states
        state.entries = candidate
        state.entry_keys = [entry[0] for entry in candidate]
        state.states = states

    def _on_abort(self, data: Dict[str, Any]) -> None:
        name = data.get("transaction")
        if name is None:
            return
        txn = self._txn(name)
        objects = data.get("objects")
        # Locks are freed exactly where the abort is *delivered*: an
        # abort decision without an ``objects`` payload (a distributed
        # coordinator's verdict) releases nothing yet — each site still
        # legitimately refuses conflicting operations until its own
        # delivery (which arrives with the objects it released).
        if objects is not None:
            for obj in objects:
                state = self._objects.get(obj)
                if state is not None:
                    state.held.pop(name, None)
                txn.pending.pop(obj, None)
        if txn.status == "aborted":
            return  # per-site delivery fan-out of one abort decision
        if txn.status == "committed":
            self._violation(
                "well-formedness",
                f"{name!r} aborted after committing",
                transaction=name,
            )
            return
        txn.status = "aborted"

    # -- family 4: compaction / recovery safety -------------------------

    def _on_compaction(self, data: Dict[str, Any]) -> None:
        obj = data.get("obj")
        if obj is None:
            return
        old_key = data.get("old_horizon")
        new_key = data.get("new_horizon")
        if _lt(new_key, old_key):
            self._violation(
                "compaction",
                f"horizon at {obj!r} rewound from "
                f"{data.get('old_horizon')!r} to "
                f"{data.get('new_horizon')!r} (Lemma 18: horizons only "
                "advance)",
                obj=obj,
            )
        for name in data.get("forgotten") or ():
            txn = self._txns.get(name)
            committed = (
                txn is not None and txn.status == "committed"
            ) or name in self._replayed
            if not committed:
                self._violation(
                    "compaction",
                    f"compaction at {obj!r} folded {name!r} into the "
                    "version, but that transaction never committed "
                    "(an uncommitted intention was collapsed)",
                    obj=obj,
                    transaction=name,
                )
                continue
            commit_key = (
                txn.commit_ts if txn is not None and txn.commit_ts is not None
                else self._replayed.get(name)
            )
            if commit_key is not None and _lt(new_key, commit_key):
                self._violation(
                    "compaction",
                    f"compaction at {obj!r} folded {name!r} (committed at "
                    f"key {commit_key!r}) but only advanced the horizon "
                    f"to {data.get('new_horizon')!r}",
                    obj=obj,
                    transaction=name,
                )

    def _on_replay(self, data: Dict[str, Any]) -> None:
        if data.get("record") != "commit":
            return
        name = data.get("transaction")
        key = data.get("timestamp")
        if name is None or key is None:
            return
        txn = self._txns.get(name)
        if (
            txn is not None
            and txn.status == "committed"
            and txn.commit_ts is not None
            and txn.commit_ts != key
        ):
            self._violation(
                "recovery",
                f"recovery replayed {name!r} at {data.get('timestamp')!r}, "
                f"but the pre-crash trace committed it at "
                f"{txn.commit_ts!r}",
                transaction=name,
            )
        if _lt(key, self._replay_last_key):
            self._violation(
                "recovery",
                f"recovery replayed {name!r} out of timestamp order",
                transaction=name,
            )
        else:
            self._replay_last_key = key
        self._replayed[name] = key

    def _on_site_crash(self, data: Dict[str, Any]) -> None:
        site = data.get("site")
        if data.get("hard"):
            # Full volatile loss: every intentions list homed at the site
            # is destroyed, with no per-transaction events — release all
            # holds there (prepared transactions re-acquire their locks
            # via wal.replay / site.recover, outside family 3's view).
            self._replay_last_key = None
            for state in self._objects.values():
                if state.site is None or site is None or state.site == site:
                    for name in list(state.held):
                        if (site, name) in self._prepared:
                            continue  # stable: locks survive and recover
                        state.held.pop(name, None)
                        txn = self._txns.get(name)
                        if txn is not None:
                            txn.pending.pop(state.name, None)
            return
        for name in data.get("victims") or ():
            txn = self._txns.get(name)
            if txn is None or txn.status != "active":
                continue
            # The site freed the victims' locks without per-transaction
            # abort events; mirror that release (at this site's objects).
            for state in self._objects.values():
                if state.site is None or site is None or state.site == site:
                    state.held.pop(name, None)
                    txn.pending.pop(state.name, None)

    # -- violation plumbing ---------------------------------------------

    def _violation(
        self,
        rule: str,
        message: str,
        obj: Optional[str] = None,
        transaction: Optional[str] = None,
    ) -> None:
        signature = (rule, obj, transaction)
        for existing in self.violations:
            if existing.signature() == signature:
                self.suppressed += 1
                return
        violation = Violation(
            rule=rule,
            message=message,
            obj=obj,
            transaction=transaction,
            index=len(self._events) - 1,
        )
        if self._minimize:
            violation.witness = self._witness_for(signature)
        self.violations.append(violation)
        if self._emit_to is not None:
            self._emit_to.emit(
                "check.violation",
                rule=rule,
                message=message,
                obj=obj,
                txn=transaction,
                witness_events=len(violation.witness),
            )

    def _witness_for(self, signature: Tuple) -> Tuple[TraceEvent, ...]:
        rule, obj, transaction = signature

        def reproduces(candidate) -> bool:
            sub = AtomicityChecker(
                minimize=False,
                specs=self._specs,
                relations=self._relations,
            )
            for event in candidate:
                sub.check_event(event)
            return any(v.signature() == signature for v in sub.violations)

        base: List[TraceEvent] = self._events
        if len(base) > self._max_witness_events:
            filtered = [
                event
                for event in base
                if event.kind == "obj.create"
                or event.transaction == transaction
                or event.data.get("obj") == obj
                or (obj is not None and obj in (event.data.get("objects") or ()))
            ]
            if len(filtered) <= self._max_witness_events and reproduces(filtered):
                base = filtered
            else:
                return ()  # too large to minimize online
        return minimize_witness(base, reproduces)
