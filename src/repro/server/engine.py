"""The shard engine: the one 2PC participant, under every transport.

The paper's model (Sections 1 and 3.3) is shared-nothing: each site owns
its objects, mints commit timestamps locally, and learns cross-site
decisions from the commit protocol's messages.  :class:`ShardEngine` is
one such site — a :class:`~repro.runtime.TransactionManager` on one
:class:`ShardedTimestampGenerator` stride and an optional write-ahead
log — driven by ops: dicts with an ``"op"`` key, each
answered ``{"ok": ...}`` or ``{"error": CODE, "message": text}``::

    create begin invoke commit abort txn          single-shard work
    prepare decide apply_commit                   presumed-abort 2PC
    snapshot stats catalog prepared decision      queries
    checkpoint                                    fold + rewrite the log
    crash                                         fault injection

:meth:`ShardEngine.execute` holds the package's only exception → error
code ladder; :meth:`ShardEngine.execute_batch` is the group-commit
contract (run every op, flush log and trace sink **once**, then reply).

A *transport* exposes an engine as ``call(ops)`` / ``single(op)`` plus
``alive``, ``blocking`` and ``stop()``; a blocking one also has ``post``
/ ``collect`` / ``fileno`` (an event loop's call), and one whose ``call``
can raise :class:`ShardDown` also has ``spawn()``, which brings the shard
back over the same log (or raises ``ShardDown``: it stays down).  There
are three: :class:`LocalShard` calls the engine directly and adds
nothing; :class:`~repro.server.procpool.ShardProcess` adds a pipe and a
child process; :class:`~repro.sim.site.Site` adds a simulated host with
a kill switch.  :func:`two_phase_commit` is the one decision procedure
and :func:`resolve_prepared` the one recovery rule — both written as
rounds of ``(shard, op)`` so that the serving core runs them with FIFO'd
ops (the one served driver, start-up resolution included) and the
simulator's one client, :class:`~repro.sim.client.Client` (2PC), with
simulated messages.  That client speaks these same ops to every
simulated site, one or many, and a ``CONFLICT`` reply names the lock's
``holder`` for its block wait policy (the wire's error frame carries
only the code and the message).

The module is pure (no sockets, clocks, pipes or files: a log or trace
sink is handed in already open), so it stays under REP104/REP106.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..adts import get_adt
from ..core.errors import (
    LockConflict,
    ProtocolError,
    ReproError,
    TransactionAborted,
    WouldBlock,
)
from ..core.timestamps import TimestampGenerator
from ..protocols import ProtocolSpec, get_protocol
from ..runtime import TransactionManager

__all__ = [
    "EngineCrash",
    "LocalShard",
    "ShardDown",
    "ShardEngine",
    "ShardSet",
    "ShardedTimestampGenerator",
    "abort_round",
    "resolve_prepared",
    "shard_for",
    "two_phase_commit",
]

#: A round procedure: yields rounds of ``(shard, op)``, is sent their
#: replies (None where the shard could not answer), returns its outcome.
Rounds = Generator[List[Tuple[int, Dict[str, Any]]], List[Any], Any]


def shard_for(obj: str, workers: int) -> int:
    """The worker shard owning ``obj`` (stable across runs and processes)."""
    if workers <= 1:
        return 0
    return zlib.crc32(obj.encode("utf-8")) % workers


class ShardedTimestampGenerator(TimestampGenerator):
    """Monotone per-shard timestamps, globally unique across shards.

    Worker ``shard`` of ``shards`` issues the integers congruent to
    ``shard`` modulo ``shards``, always strictly above both its own last
    issue and every bound the transaction observed — the Section 3.3
    constraint per manager, with no inter-shard coordination and no
    possibility of two shards committing the same timestamp.
    """

    def __init__(self, shard: int = 0, shards: int = 1):
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} out of range for {shards} shard(s)")
        self._shard = shard
        self._shards = shards
        self._last = 0
        self._bounds: Dict[str, int] = {}

    @property
    def shard(self) -> int:
        """This generator's stride residue (worker index)."""
        return self._shard

    @property
    def shards(self) -> int:
        """The stride modulus (worker-pool size) timestamps are unique under."""
        return self._shards

    def observe(self, transaction: str, committed_timestamp: Any) -> None:
        current = self._bounds.get(transaction, 0)
        if int(committed_timestamp) > current:
            self._bounds[transaction] = int(committed_timestamp)

    def commit_timestamp(self, transaction: str) -> int:
        floor = max(self._last, self._bounds.get(transaction, 0))
        candidate = floor + 1
        candidate += (self._shard - candidate) % self._shards
        self._last = candidate
        return candidate

    def vote(self, transaction: str) -> int:
        """This shard's 2PC vote: the floor the decided timestamp must clear.

        The §3.3 piggyback — everything committed here, and everything
        ``transaction`` observed here, sits at or below this value, so a
        coordinator deciding strictly above every vote satisfies the
        constraint at every participant.
        """
        return max(self._last, self._bounds.get(transaction, 0))

    def observe_decision(self, timestamp: Any) -> None:
        """Advance past a coordinator-decided timestamp (2PC phase two).

        The decided value lives on the *coordinator's* stride, but this
        shard must never mint below it for transactions that observed the
        committed effects — folding it into ``_last`` keeps the local
        stream above every decision applied here.
        """
        if int(timestamp) > self._last:
            self._last = int(timestamp)

    def forget(self, transaction: str) -> None:
        self._bounds.pop(transaction, None)


class ShardDown(ReproError):
    """The shard's worker process is dead (or died mid-request)."""


class EngineCrash(BaseException):
    """The ``crash`` op: die now, flushing nothing.

    Deliberately outside the :class:`Exception` ladder — it is not an
    answer but an instruction to the transport hosting the engine (the
    shard process calls ``os._exit``; staged group-commit records and
    all volatile state are lost, as in a real crash).
    """


def _locking_protocol(name: str) -> ProtocolSpec:
    """The named protocol, refused unless it runs on lock machines — the
    engine's ops (votes, checkpoints, recovery) are defined for those."""
    protocol = get_protocol(name)
    if protocol.engine != "locking":
        raise ValueError(
            f"protocol {name!r} runs on the {protocol.engine} engine;"
            " a shard serves locking protocols only"
        )
    return protocol


#: Ops that address a live transaction by name (``op["txn"]``).
_BY_NAME = frozenset({"invoke", "commit", "abort", "prepare", "decide", "apply_commit"})


class ShardEngine:
    """One shard: a manager, its stride, an optional WAL, logged decisions.

    A non-empty ``wal`` is *recovered from* — on top of its checkpoint
    record, when it has one: committed intentions redone, prepared
    transactions back with their locks, ``decided`` rebuilt from the 2PC
    commit records and the checkpoint recovery's one scan found — and a
    log written under another stride is refused.  The ``checkpoint`` op
    rewrites it.  ``sink`` is the trace sink to flush with each batch and
    close at :meth:`close`, when the engine owns one.
    """

    def __init__(
        self,
        shard: int = 0,
        shards: int = 1,
        protocol: str = "hybrid",
        wal: Any = None,
        tracer: Any = None,
        sink: Any = None,
        incarnation: int = 1,
    ):
        self.shard = shard
        self.shards = shards
        self.incarnation = incarnation
        self.wal = wal
        self.sink = sink
        self._protocol = _locking_protocol(protocol)
        self._flush_wal = getattr(wal, "flush", None)
        self.generator = ShardedTimestampGenerator(shard, shards)
        #: 2PC transaction name -> the commit timestamp applied here: what
        #: a peer resolving a prepared transaction asks about (single-shard
        #: commits have no peer, so they are not remembered).
        self.decided: Dict[str, int] = {}
        self.committed = 0
        self.aborted = 0
        #: The :class:`~repro.recovery.RecoveryReport` of the replay that
        #: built this engine (None: it started from an empty log).
        self.recovery = None
        site = f"shard{shard}"
        if wal is not None and len(wal):
            # Imported where it is needed: a volatile engine (every
            # in-process server) never loads the recovery package.
            from ..recovery import recover_manager

            self.manager, self.recovery = recover_manager(
                wal, tracer=tracer, generator=self.generator, site=site
            )
            self.decided.update(self.recovery.decided)
        else:
            self.manager = TransactionManager(
                generator=self.generator, wal=wal, tracer=tracer, site=site
            )

    def execute_batch(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run every op, make the batch durable under one sync, then reply."""
        replies = []
        for op in ops:  # a plain loop: the served path pays no listcomp frame
            replies.append(self.execute(op))
        if self._flush_wal is not None:
            self._flush_wal()
        if self.sink is not None:
            self.sink.flush()
        return replies

    def close(self) -> None:
        """Flush the log and close the trace sink (orderly shutdown)."""
        if self._flush_wal is not None:
            self._flush_wal()
        if self.sink is not None:
            self.sink.close()

    def execute(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """Run one op; never raises (``crash`` excepted: see :class:`EngineCrash`)."""
        manager = self.manager
        try:
            kind = op["op"]
            if kind in _BY_NAME:
                name = op["txn"]
                transaction = manager.transaction(name)
                if transaction is None:
                    if kind == "abort":
                        return {"ok": None}  # already aborted (presumed abort)
                    if kind == "apply_commit" and self.decided.get(name) == op["ts"]:
                        return {"ok": op["ts"]}  # decision retransmit: idempotent
                    code = "NO_VOTE" if kind == "prepare" else "UNKNOWN_TXN"
                    return {"error": code, "message": f"no transaction {name!r}"}
                if kind == "invoke":
                    result = manager.invoke(
                        transaction, op["obj"], op["operation"], *op.get("args", ())
                    )
                    return {"ok": result}
                if kind == "commit":
                    timestamp = manager.commit(transaction)
                    self.committed += 1
                    return {"ok": timestamp}
                if kind == "abort":
                    manager.abort(transaction)
                    self.aborted += 1
                    return {"ok": None}
                if kind == "prepare":
                    return {"ok": manager.prepare(transaction)}
                if kind == "decide":
                    # Primary role: mint the decision strictly above every
                    # vote, on this shard's stride, and commit locally.
                    self.generator.observe_decision(max(op["votes"]))
                    timestamp = self.generator.commit_timestamp(name)
                else:  # apply_commit: the participant's phase two
                    timestamp = int(op["ts"])
                manager.commit_prepared(transaction, timestamp)
                self.decided[name] = timestamp
                self.committed += 1
                return {"ok": timestamp}
            if kind == "begin":
                manager.begin(op["name"], _quiet=bool(op.get("quiet")))
                return {"ok": op["name"]}
            if kind == "txn":
                # Fast path: a whole single-shard transaction in one op.
                transaction = manager.begin(op["name"])
                try:
                    results = [
                        manager.invoke(transaction, obj, operation, *args)
                        for obj, operation, args in op["steps"]
                    ]
                except Exception:
                    # Whatever a step raised, the transaction must not
                    # outlive the op holding its locks.
                    if transaction.is_active:
                        manager.abort(transaction)
                    self.aborted += 1
                    raise
                timestamp = manager.commit(transaction)
                self.committed += 1
                return {"ok": timestamp, "results": results}
            if kind == "create":
                protocol = self._protocol
                if op.get("protocol"):
                    protocol = _locking_protocol(op["protocol"])
                manager.create_object(op["name"], get_adt(op["adt"]), protocol=protocol)
                return {"ok": op["name"]}
            if kind == "decision":
                timestamp = self.decided.get(op["txn"])
                if timestamp is None:
                    return {"ok": {"outcome": "unknown"}}
                return {"ok": {"outcome": "commit", "ts": timestamp}}
            if kind == "prepared":
                return {"ok": manager.prepared_transactions()}
            if kind == "snapshot":
                return {"ok": manager.object(op["obj"]).snapshot()}
            if kind == "catalog":
                return {"ok": sorted(manager.objects)}
            if kind == "stats":
                return {"ok": self.stats()}
            if kind == "checkpoint":
                return {"ok": len(manager.checkpoint()["objects"])}
            if kind == "crash":
                raise EngineCrash()
            return {"error": "BAD_REQUEST", "message": f"unknown op {kind!r}"}
        except LockConflict as exc:
            return {"error": "CONFLICT", "message": str(exc), "holder": exc.holder}
        except WouldBlock as exc:
            return {"error": "WOULD_BLOCK", "message": str(exc)}
        except TransactionAborted as exc:
            return {"error": "ABORTED", "message": str(exc)}
        except KeyError as exc:
            detail = exc.args[0] if exc.args else exc
            return {"error": "BAD_REQUEST", "message": str(detail)}
        except (ProtocolError, ValueError) as exc:
            return {"error": "BAD_REQUEST", "message": str(exc)}
        except ReproError as exc:  # any other library error: typed, not a crash
            return {"error": "INTERNAL", "message": str(exc)}
        except Exception as exc:
            # Malformed operation arguments can raise anything out of an
            # ADT spec (e.g. TypeError from Credit(<list>)); an escape
            # would kill the shard, so the answer is typed.
            return {"error": "INTERNAL", "message": f"{type(exc).__name__}: {exc}"}

    def stats(self) -> Dict[str, Any]:
        """Counters for this shard (log counters are 0 without a file log)."""
        wal, base = self.wal, getattr(self.wal, "base", self.wal)
        return {
            "shard": self.shard,
            "shards": self.shards,
            "incarnation": self.incarnation,
            "committed": self.committed,
            "aborted": self.aborted,
            "objects": len(self.manager.objects),
            "prepared": self.manager.prepared_transactions(),
            "wal_appends": getattr(base, "appends", 0),
            "wal_syncs": getattr(base, "syncs", 0),
            "wal_records": len(base) if base is not None else 0,
            "batches": getattr(wal, "batches", None),
            "batched_records": getattr(wal, "batched_records", None),
        }


class LocalShard:
    """An engine called directly, on the caller's thread.

    ``blocking`` is what a caller running an event loop needs to know
    about a transport: a local ``call`` returns as soon as the manager
    has, so it may be invoked straight from the loop; a
    :class:`~repro.server.procpool.ShardProcess` call waits on a pipe.
    """

    blocking = False
    alive = True

    def __init__(self, engine: ShardEngine):
        self.engine = engine
        #: Bound, not wrapped: the in-process path pays no transport frame.
        self.call = engine.execute_batch

    def single(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """One-op convenience batch."""
        return self.call([op])[0]

    def stop(self) -> None:
        self.engine.close()


class ShardSet:
    """A fixed set of shards behind one transport, plus their catalog.

    Objects are partitioned by :func:`shard_for`; everything here is
    written over ``shards[i].single(op)`` alone, whatever the transport.
    """

    def __init__(self, shards: Sequence[Any], tracer: Any = None):
        self.shards = list(shards)
        self.workers = len(self.shards)
        self.tracer = tracer
        #: Do calls into these shards wait on something (see
        #: :class:`LocalShard`)?  One transport per set, so one answer.
        self.blocking = self.shards[0].blocking

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every shard that is not alive (a restart replays its log;
        one that cannot start raises :class:`ShardDown` with its cause)."""
        for shard in self.shards:
            if not shard.alive:
                shard.spawn()

    def stop(self) -> None:
        """Flush and release every shard."""
        for shard in self.shards:
            shard.stop()

    # -- routing -------------------------------------------------------

    def shard_of(self, obj: str) -> int:
        """The worker index owning ``obj``."""
        return shard_for(obj, self.workers)

    def create_object(
        self, name: str, adt_name: str, protocol: Optional[str] = None
    ) -> int:
        """Create ``name`` on its owning shard; returns the worker index."""
        index = self.shard_of(name)
        reply = self.shards[index].single(
            {"op": "create", "name": name, "adt": adt_name, "protocol": protocol}
        )
        if "error" in reply:
            raise ValueError(reply["message"])
        return index

    def catalog(self) -> List[List[str]]:
        """Per-shard object names — including ones *recovered* from the
        WALs, which the parent has never seen create requests for."""
        return [shard.single({"op": "catalog"})["ok"] for shard in self.shards]

    def stats(self) -> List[Dict[str, Any]]:
        """Per-shard engine statistics (skipping dead workers)."""
        out = []
        for index, shard in enumerate(self.shards):
            try:
                out.append(shard.single({"op": "stats"})["ok"])
            except ShardDown:
                out.append({"shard": index, "down": True})
        return out

    def commit_cross_shard(
        self, name: str, participants: Sequence[int], primary: int
    ) -> Dict[str, Any]:
        """Run :func:`two_phase_commit` for ``name`` over blocking calls to
        live shards; returns ``{"ok": ts}`` or an error reply.  A timing
        probe for the e2e benchmark's ``pool_section`` only — served 2PC
        is the core's — and it goes once that probe moves (ROADMAP 1(f))."""
        rounds = two_phase_commit(name, participants, primary)
        try:
            ops = next(rounds)
            while True:
                ops = rounds.send([self.shards[i].single(op) for i, op in ops])
        except StopIteration as done:
            return done.value

    def revive(self, index: int) -> bool:
        """Spawn a fresh incarnation of dead shard ``index`` — it replays
        its WAL: committed intentions redone, prepared transactions back
        with their locks, for :func:`resolve_prepared` to settle — after a
        ``site.crash`` (hard) for the lost one.  False when nothing was
        spawned: the shard is alive (another caller brought it back), or
        its last incarnation could not start, and it stays down."""
        shard = self.shards[index]
        if shard.alive:
            return False
        if self.tracer is not None:
            self.tracer.emit("site.crash", site=f"shard{index}", hard=True)
        try:
            shard.spawn()
        except ShardDown:
            return False
        return True


def two_phase_commit(name: str, participants: Sequence[int], primary: int) -> Rounds:
    """Presumed-abort 2PC for ``name``, as rounds of ``(shard, op)``.

    The one decision rule, free of any transport: each ``yield`` hands
    the driver a round of ops to deliver and is sent back their replies,
    in order; the generator's return value is the outcome, ``{"ok": ts}``
    or an error reply shaped like the engine's.

    ``prepare`` and ``decide`` are *questions*: a shard that cannot be
    reached answers ``None``.  Phase one collects every participant's
    vote (its timestamp floor, force-written with the intentions); any
    refusal aborts the voters.  Phase two has the primary ``decide``
    ``max(votes) < ts`` on its own stride; a primary that died between
    prepare and decide logged no commit record, so the outcome is
    presumed abort — for its own prepared entry too, once it is back.
    ``apply_commit`` and ``abort`` are *verdicts*: their replies are not
    read.  A commit must be retransmitted until the participant acks it;
    an abort may be dropped by a driver that resolves prepared
    transactions when it respawns a shard (:func:`resolve_prepared`) and
    must be retransmitted by one that does not.
    """
    participants = sorted(set(participants))
    replies = yield [(index, {"op": "prepare", "txn": name}) for index in participants]
    votes: List[int] = []
    voted: List[int] = []
    outcome = None
    for index, reply in zip(participants, replies):
        if reply is None:
            reply = {"error": "NO_VOTE", "message": f"shard{index} is down"}
        if "error" in reply:
            outcome = outcome or reply
        else:
            votes.append(int(reply["ok"]))
            voted.append(index)
    if outcome is None:
        (outcome,) = yield [(primary, {"op": "decide", "txn": name, "votes": votes})]
        if outcome is None:
            outcome = {"error": "ABORTED", "message": f"shard{primary} died deciding"}
        if "error" not in outcome:
            timestamp = int(outcome["ok"])
            apply = {"op": "apply_commit", "txn": name, "ts": timestamp}
            yield [(index, apply) for index in voted if index != primary]
            return {"ok": timestamp}
    yield abort_round(name, voted)
    return outcome


def resolve_prepared(index: int, shards: int) -> Rounds:
    """The recovery rule for shard ``index`` of ``shards``, as rounds.

    A recovered shard's prepared transactions get the verdict their
    coordinator left: each is committed at the logged timestamp if any
    peer answers its ``decision`` query with a commit, and presumed
    aborted otherwise (no answer, from a down peer, is no commit record).
    The first round asks the shard for its prepared set — a shard that
    cannot answer has nothing resolved; then, per transaction, one round
    of queries to the peers and one verdict.  Returns the names resolved.
    """
    (reply,) = yield [(index, {"op": "prepared"})]
    prepared = [] if reply is None else reply["ok"]
    peers = [peer for peer in range(shards) if peer != index]
    for name in prepared:
        answers = yield [(peer, {"op": "decision", "txn": name}) for peer in peers]
        verdict: Dict[str, Any] = {"op": "abort", "txn": name}
        for answer in answers:
            if answer is not None and answer["ok"]["outcome"] == "commit":
                verdict = {"op": "apply_commit", "txn": name, "ts": answer["ok"]["ts"]}
        yield [(index, verdict)]
    return list(prepared)


def abort_round(name: str, participants: Sequence[int]) -> List[Tuple[int, Any]]:
    """The round that aborts ``name`` wherever it ran."""
    return [(i, {"op": "abort", "txn": name}) for i in sorted(set(participants))]
