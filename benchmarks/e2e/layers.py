"""The layer run: each layer's public functions called in-process on the
same seeded plans, with the benchmark's own span recorder around each
call.

Nothing in ``src/`` is patched.  Counting and spanning wrappers go in
through public extension points: an ``ADT`` whose ``SerialSpec`` and
``Relation`` are counting subclasses, a ``CompactingLockMachine``
subclass installed on ``ManagedObject.machine``, a ``TraceBus``
subclass.  A span costs about 0.3 us, charged to its parent; relation
probes (0.1-0.2 us each) are therefore counted, not spanned, and their
time stays inside ``core.lock_machine``.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.adts import get_adt
from repro.core.compaction import CompactingLockMachine
from repro.core.conflict import Relation
from repro.core.errors import LockConflict, WouldBlock
from repro.core.lock_machine import LockMachine
from repro.core.operations import Invocation, Operation
from repro.core.specs import SerialSpec
from repro.obs import (
    WIRE_LATENCY_BUCKETS,
    AtomicityChecker,
    MetricsRegistry,
    RegistrySink,
    TraceBus,
)
from repro.recovery import recover_manager
from repro.recovery.wal import FileWAL, MemoryWAL
from repro.runtime import TransactionManager
from repro.server import ShardProcessPool
from repro.server.protocol import (
    FrameDecoder,
    parse_request,
    parse_response,
    request_frame,
    response_frame,
)

from metrics import Metric, metric
from plans import ENQ_STRIDE, WORKLOADS, Txn, build_plans
from spin import REF_SPIN_S, timed_spin

#: Records in the seeded log ``recover_manager`` replays.
REPLAY_LOG_RECORDS = 5000

#: Turns each of the 16 in-process clients takes on the contended plan.
CONTENDED_ROUNDS = 300


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """Name, start, end and parent of every recorded call, in memory."""

    def __init__(self) -> None:
        #: [name, parent index or -1, start, end]
        self.spans: List[List[Any]] = []
        self._open = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._open, 0.0, 0.0])
        self._open = index
        self.spans[index][2] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[3] = now
        self._open = span[1]

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name: each span's duration minus the part of
        it its child spans cover."""
        own = [span[3] - span[2] for span in self.spans]
        for name, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span[0]] = totals.get(span[0], 0) + 1
        return totals

    def dump(self, path: Path) -> None:
        with open(path, "w") as out:
            for name, parent, start, end in self.spans:
                out.write(f"{name}\t{parent}\t{start!r}\t{end!r}\n")


class _NoSpans:
    """Recorder stand-in for the untimed counting runs."""

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass


class CountingSpec(SerialSpec):
    """A serial specification that counts and spans its public calls."""

    def __init__(self, base: SerialSpec):
        self._base = base
        self._recorder: Any = _NoSpans()
        self.name = base.name
        self.steps = 0

    def initial_state(self) -> Any:
        return self._base.initial_state()

    def outcomes(self, state: Any, invocation: Invocation) -> Iterable[Tuple[Any, Any]]:
        return self._base.outcomes(state, invocation)

    def step(self, states: Any, operation: Operation) -> Any:
        self.steps += 1
        span = self._recorder.begin("adts")
        try:
            return self._base.step(states, operation)
        finally:
            self._recorder.end(span)

    def results_for(self, states: Any, invocation: Invocation) -> List[Any]:
        self.steps += 1
        span = self._recorder.begin("adts")
        try:
            return self._base.results_for(states, invocation)
        finally:
            self._recorder.end(span)


class CountingRelation(Relation):
    """A conflict relation that counts its probes."""

    def __init__(self, base: Relation):
        self._base = base
        self.name = base.name
        self.probes = 0

    def related(self, q: Operation, p: Operation) -> bool:
        self.probes += 1
        return self._base.related(q, p)


class SpannedMachine(CompactingLockMachine):
    """The shipped Section 6 machine with a span around each event."""

    recorder: Any = _NoSpans()

    def execute(self, transaction: str, invocation: Invocation) -> Any:
        span = self.recorder.begin("core.lock_machine")
        try:
            return super().execute(transaction, invocation)
        finally:
            self.recorder.end(span)

    def commit(self, transaction: str, timestamp: Any) -> None:
        span = self.recorder.begin("core.compaction")
        try:
            super().commit(transaction, timestamp)
        finally:
            self.recorder.end(span)

    def abort(self, transaction: str) -> None:
        span = self.recorder.begin("core.lock_machine")
        try:
            super().abort(transaction)
        finally:
            self.recorder.end(span)


class SpannedBus(TraceBus):
    """The trace bus with a span around each published event."""

    recorder: Any = _NoSpans()

    def emit(self, kind: str, **data: Any) -> None:
        span = self.recorder.begin("obs")
        try:
            super().emit(kind, **data)
        finally:
            self.recorder.end(span)


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


class RefClock:
    """Scales layer timings to reference speed: one spin before and one
    after each measurement."""

    def __init__(self) -> None:
        self.spins: List[float] = [timed_spin()]

    def scale(self) -> float:
        """Close a measurement: REF/mean(spin before, spin after)."""
        before = self.spins[-1]
        self.spins.append(timed_spin())
        return REF_SPIN_S / statistics.fmean((before, self.spins[-1]))


def per_call(fn: Callable[[], Any], budget_s: float, batch: int = 1) -> float:
    """Median seconds per call of ``fn`` over batches filling ``budget_s``
    (``fn`` does ``batch`` units of work per call)."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while True:
        started = time.perf_counter()
        fn()
        ended = time.perf_counter()
        samples.append((ended - started) / batch)
        if ended >= deadline and len(samples) >= 5:
            return statistics.median(samples)


# ----------------------------------------------------------------------
# A manager wired like the served one, instrumented
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Rig:
    manager: TransactionManager
    specs: Dict[str, CountingSpec]
    relations: Dict[str, CountingRelation]
    machines: List[SpannedMachine]
    bus: Optional[SpannedBus]
    events: List[Any]

    def set_recorder(self, recorder: Any) -> None:
        for spec in self.specs.values():
            spec._recorder = recorder
        for machine in self.machines:
            machine.recorder = recorder
        if self.bus is not None:
            self.bus.recorder = recorder

    @property
    def steps(self) -> int:
        return sum(spec.steps for spec in self.specs.values())

    @property
    def probes(self) -> int:
        return sum(rel.probes for rel in self.relations.values())


def build_rig(
    objects: Sequence[Tuple[str, str]], traced: bool, keep_events: bool = False
) -> Rig:
    """A ``TransactionManager`` over ``objects`` whose ADTs, machines and
    bus are the counting/spanning subclasses.  ``traced`` wires the bus
    the way ``repro serve`` does by default (registry sink, real-seconds
    buckets)."""
    bus = None
    events: List[Any] = []
    if traced:
        bus = SpannedBus()
        bus.subscribe(
            RegistrySink(MetricsRegistry(), latency_buckets=WIRE_LATENCY_BUCKETS)
        )
        if keep_events:
            bus.subscribe(events.append)
    manager = TransactionManager(tracer=bus)
    adts: Dict[str, Any] = {}
    specs: Dict[str, CountingSpec] = {}
    relations: Dict[str, CountingRelation] = {}
    machines: List[SpannedMachine] = []
    for name, adt_name in objects:
        if adt_name not in adts:
            shipped = get_adt(adt_name)
            specs[adt_name] = CountingSpec(shipped.spec)
            relations[adt_name] = CountingRelation(shipped.conflict)
            adts[adt_name] = dataclasses.replace(
                shipped, spec=specs[adt_name], conflict=relations[adt_name]
            )
        adt = adts[adt_name]
        managed = manager.create_object(name, adt)
        machine = SpannedMachine(adt.spec, adt.conflict, obj=name)
        machine.tracer = bus
        managed.machine = machine
        machines.append(machine)
    return Rig(manager, specs, relations, machines, bus, events)


def run_serial(rig: Rig, plan: Sequence[Txn], recorder: Any) -> None:
    """One client, one transaction at a time (the uniform plans)."""
    manager = rig.manager
    for txn in plan:
        span = recorder.begin("runtime.manager")
        transaction = manager.begin()
        for obj, operation, args in txn:
            manager.invoke(transaction, obj, operation, *args)
        manager.commit(transaction)
        recorder.end(span)


def run_interleaved(
    rig: Rig, plans: Sequence[Sequence[Txn]], rounds: int, recorder: Any
) -> Tuple[int, List[Tuple[str, Operation]]]:
    """``len(plans)`` clients advanced one operation each in turn, the
    order a closed-loop server sees; CONFLICT/WOULD_BLOCK aborts and
    retries at once, as the generator does.  Returns the commits and the
    committed operations as ``(object, operation)``."""
    manager = rig.manager
    state = [
        {"cursor": 0, "step": 0, "txn": None, "ops": []} for _ in plans
    ]
    commits = 0
    executed: List[Tuple[str, Operation]] = []
    for _round in range(rounds):
        for client, (plan, slot) in enumerate(zip(plans, state)):
            txn = plan[slot["cursor"] % len(plan)]
            span = recorder.begin("runtime.manager")
            try:
                if slot["txn"] is None:
                    slot["txn"] = manager.begin()
                    slot["step"] = 0
                    slot["ops"] = []
                if slot["step"] == len(txn):
                    manager.commit(slot["txn"])
                    commits += 1
                    executed.extend(slot["ops"])
                    slot["txn"] = None
                    slot["cursor"] += 1
                    continue
                obj, operation, args = txn[slot["step"]]
                if operation == "Enq":
                    args = (client * ENQ_STRIDE + slot["cursor"] * 8 + slot["step"],)
                try:
                    result = manager.invoke(slot["txn"], obj, operation, *args)
                except (LockConflict, WouldBlock):
                    abort_span = recorder.begin("runtime.manager.abort")
                    manager.abort(slot["txn"])
                    recorder.end(abort_span)
                    slot["txn"] = None
                else:
                    slot["ops"].append(
                        (obj, Operation(Invocation(operation, args), result))
                    )
                    slot["step"] += 1
            finally:
                recorder.end(span)
    return commits, executed


# ----------------------------------------------------------------------
# The sections of the layer run
# ----------------------------------------------------------------------

US = 1e6
NS = 1e9


def _solo_wire(plan: Sequence[Txn]) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[Dict[str, Any]]]:
    """The requests and results of ``solo-latency`` transactions, as the
    wire carries them (handles and timestamps shaped like the server's)."""
    requests: List[Tuple[str, Dict[str, Any]]] = []
    results: List[Dict[str, Any]] = []
    for number, txn in enumerate(plan, 1):
        handle = f"s1-t{number}"
        requests.append(("begin", {}))
        results.append({"transaction": handle})
        for obj, operation, args in txn:
            requests.append(
                (
                    "invoke",
                    {
                        "transaction": handle,
                        "obj": obj,
                        "operation": operation,
                        "args": args,
                    },
                )
            )
            results.append({"transaction": handle, "obj": obj, "result": "Ok"})
        requests.append(("commit", {"transaction": handle}))
        results.append(
            {"transaction": handle, "timestamp": number, "committed": True}
        )
    return requests, results


def wire_section(clock: RefClock, plan: Sequence[Txn], budget_s: float) -> Dict[str, Metric]:
    """``server.client`` and ``server.protocol``: the four codec calls."""
    requests, results = _solo_wire(plan[:64])
    request_frames = [
        request_frame(rid, action, params)
        for rid, (action, params) in enumerate(requests, 1)
    ]
    response_frames = [
        response_frame(rid, result) for rid, result in enumerate(results, 1)
    ]
    count = len(requests)

    def client_encode() -> None:
        for rid, (action, params) in enumerate(requests, 1):
            request_frame(rid, action, params)

    def server_decode() -> None:
        decoder = FrameDecoder()
        for frame in request_frames:
            for body in decoder.feed(frame):
                parse_request(body)

    def server_encode() -> None:
        for rid, result in enumerate(results, 1):
            response_frame(rid, result)

    def client_decode() -> None:
        decoder = FrameDecoder()
        for frame in response_frames:
            for body in decoder.feed(frame):
                parse_response(body)

    out = {}
    for name, fn in (
        ("server.client.encode_us_per_frame_ref", client_encode),
        ("server.protocol.decode_us_per_frame_ref", server_decode),
        ("server.protocol.encode_us_per_frame_ref", server_encode),
        ("server.client.decode_us_per_frame_ref", client_decode),
    ):
        seconds = per_call(fn, budget_s / 4, batch=count)
        out[name] = metric(seconds * clock.scale() * US, "us")
    return out


def solo_ledger(
    clock: RefClock, plan: Sequence[Txn], objects: Sequence[Tuple[str, str]], txns: int
) -> Tuple[Dict[str, float], SpanRecorder, Rig]:
    """The ``solo-latency`` transaction's compute path, layer by layer,
    with nested spans: client encode, server decode, the manager (and
    under it machine, spec and bus), server encode, client decode.
    Returns reference microseconds of self time per transaction by layer.
    """
    rig = build_rig(objects, traced=True)
    recorder = SpanRecorder()
    manager = rig.manager
    run_serial(rig, plan[:50], _NoSpans())  # warm caches and code paths
    rig.set_recorder(recorder)
    begin, end = recorder.begin, recorder.end
    client_decoder, server_decoder = FrameDecoder(), FrameDecoder()

    def exchange(rid: int, action: str, params: Dict[str, Any], act: Callable[[Any], Dict[str, Any]]) -> None:
        span = begin("server.client")
        frame = request_frame(rid, action, params)
        end(span)
        span = begin("server.protocol")
        request = parse_request(server_decoder.feed(frame)[0])
        end(span)
        span = begin("runtime.manager")
        result = act(request)
        end(span)
        span = begin("server.protocol")
        frame = response_frame(rid, result)
        end(span)
        span = begin("server.client")
        parse_response(client_decoder.feed(frame)[0])
        end(span)

    rid = 0
    for number, txn in enumerate(plan[50 : 50 + txns], 1):
        handle = f"s1-t{number}"
        holder: Dict[str, Any] = {}

        def do_begin(_request: Any) -> Dict[str, Any]:
            return {"transaction": handle}

        def do_invoke(request: Any) -> Dict[str, Any]:
            params = request.params
            if "txn" not in holder:  # first touch opens it, as the server does
                holder["txn"] = manager.begin(handle)
            result = manager.invoke(
                holder["txn"], params["obj"], params["operation"], *params["args"]
            )
            return {"transaction": handle, "obj": params["obj"], "result": result}

        def do_commit(_request: Any) -> Dict[str, Any]:
            stamp = manager.commit(holder["txn"])
            return {"transaction": handle, "timestamp": stamp, "committed": True}

        root = begin("txn")
        rid += 1
        exchange(rid, "begin", {}, do_begin)
        for obj, operation, args in txn:
            rid += 1
            exchange(
                rid,
                "invoke",
                {"transaction": handle, "obj": obj, "operation": operation, "args": args},
                do_invoke,
            )
        rid += 1
        exchange(rid, "commit", {"transaction": handle}, do_commit)
        end(root)
    scale = clock.scale()
    layers = {
        name: seconds / txns * scale * US
        for name, seconds in recorder.self_times().items()
        if name != "txn"
    }
    return layers, recorder, rig


def manager_section(clock: RefClock, budget_s: float) -> Dict[str, Metric]:
    """``runtime.manager`` on the contended plan, ``core.conflict`` and
    ``adts`` counts, and the bus's cost (``obs``)."""
    out: Dict[str, Metric] = {}
    contended = WORKLOADS["mem-contended"]
    plans = build_plans(contended, seed=0, txns=256)
    rig = build_rig(contended.objects, traced=True, keep_events=True)
    recorder = SpanRecorder()
    rig.set_recorder(recorder)
    # A fixed number of rounds, so the counts per commit repeat exactly.
    commits, executed = run_interleaved(rig, plans, CONTENDED_ROUNDS, recorder)
    scale = clock.scale()
    own = recorder.self_times()
    spans = recorder.counts()
    out["runtime.manager.txn_us_contended_ref"] = metric(
        own["runtime.manager"] / commits * scale * US, "us"
    )
    out["runtime.manager.abort_us_ref"] = metric(
        own.get("runtime.manager.abort", 0.0)
        / max(1, spans.get("runtime.manager.abort", 0))
        * scale
        * US,
        "us",
    )
    out["core.conflict.probes_per_txn"] = metric(rig.probes / commits, "count")
    out["adts.spec_steps_per_txn"] = metric(rig.steps / commits, "count")
    out["obs.trace_events_per_txn"] = metric(len(rig.events) / commits, "count")
    # Share of executed operations outside the compiled universes (the
    # relation answers those through its hand-written fallback).
    adt_of = dict(contended.objects)
    universes = {
        name: frozenset(get_adt(name).conflict.universe) for name in rig.relations
    }
    outside = sum(
        operation not in universes[adt_of[obj]] for obj, operation in executed
    )
    out["core.conflict.fallback_share"] = metric(outside / len(executed), "ratio")
    report = AtomicityChecker().replay(rig.events).report()
    if not report["ok"]:
        raise AssertionError(
            f"the checker refuted the layer run: {report['violations'][:2]}"
        )

    # obs: the same serial plan with the default bus and with none.
    uniform = WORKLOADS["mem-uniform"]
    plan = build_plans(uniform, seed=0, txns=256)[0]
    costs = {}
    for traced in (True, False):
        bare = build_rig(uniform.objects, traced=traced)
        costs[traced] = per_call(
            lambda bare=bare: run_serial(bare, plan, _NoSpans()),
            budget_s / 3,
            batch=len(plan),
        ) * clock.scale()
    out["obs.tracer_us_per_txn_ref"] = metric((costs[True] - costs[False]) * US, "us")
    return out


def machine_section(clock: RefClock, budget_s: float) -> Dict[str, Metric]:
    """``core.lock_machine`` / ``core.compaction`` / ``core.conflict`` /
    ``adts``: the Section 5.1 machine's public events called directly."""
    out: Dict[str, Metric] = {}
    account = get_adt("Account")
    slice_s = budget_s / 10
    credit = Invocation("Credit", (57,))

    def timed_executes(holders: int, own_ops: int) -> float:
        """Median seconds of one ``execute`` by a transaction that already
        holds ``own_ops`` operations, beside ``holders`` other holders."""
        machine = CompactingLockMachine(account.spec, account.conflict, obj="m")
        for holder in range(holders):
            machine.execute(f"h{holder}", credit)
        samples = []
        deadline = time.perf_counter() + slice_s
        number = 0
        while time.perf_counter() < deadline or len(samples) < 20:
            name = f"t{number}"
            number += 1
            for _ in range(own_ops):
                machine.execute(name, credit)
            started = time.perf_counter()
            machine.execute(name, credit)
            samples.append(time.perf_counter() - started)
            machine.abort(name)
        return statistics.median(samples)

    for label, holders, own_ops in (("h0", 0, 0), ("h24", 24, 0), ("len64", 0, 64)):
        seconds = timed_executes(holders, own_ops)
        out[f"core.lock_machine.execute_us_{label}_ref"] = metric(
            seconds * clock.scale() * US, "us"
        )

    def timed_commits(machine_cls: Any) -> float:
        samples = []
        deadline = time.perf_counter() + slice_s
        while time.perf_counter() < deadline or len(samples) < 20:
            machine = machine_cls(account.spec, account.conflict, obj="m")
            for number in range(32):
                machine.execute(f"t{number}", credit)
            started = time.perf_counter()
            for number in range(32):
                machine.commit(f"t{number}", number + 1)
            samples.append((time.perf_counter() - started) / 32)
        return statistics.median(samples)

    out["core.lock_machine.commit_us_ref"] = metric(
        timed_commits(LockMachine) * clock.scale() * US, "us"
    )
    out["core.compaction.commit_us_ref"] = metric(
        timed_commits(CompactingLockMachine) * clock.scale() * US, "us"
    )

    relation = account.conflict
    inside = list(relation.universe)
    pairs_in = [(q, p) for q in inside for p in inside]
    beyond = [
        Operation(Invocation("Credit", (57,)), "Ok"),
        Operation(Invocation("Debit", (61,)), "Ok"),
        Operation(Invocation("Debit", (61,)), "Overdraft"),
    ]
    pairs_out = [(q, p) for q in beyond for p in beyond] * 8

    def probe(pairs: Sequence[Tuple[Operation, Operation]]) -> Callable[[], None]:
        related = relation.related

        def run() -> None:
            for q, p in pairs:
                related(q, p)

        return run

    out["core.conflict.related_ns_compiled"] = metric(
        per_call(probe(pairs_in), slice_s, batch=len(pairs_in)) * clock.scale() * NS,
        "ns",
    )
    out["core.conflict.related_ns_fallback"] = metric(
        per_call(probe(pairs_out), slice_s, batch=len(pairs_out)) * clock.scale() * NS,
        "ns",
    )

    for adt_name, operation in (
        ("Account", Operation(Invocation("Credit", (57,)), "Ok")),
        ("Counter", Operation(Invocation("Inc", (2,)), "Ok")),
        ("FIFOQueue", Operation(Invocation("Enq", (7,)), "Ok")),
    ):
        spec = get_adt(adt_name).spec
        states = spec.initial_states()

        def steps(spec: Any = spec, states: Any = states, operation: Operation = operation) -> None:
            step = spec.step
            for _ in range(256):
                step(states, operation)

        out[f"adts.step_ns_{adt_name.lower()}"] = metric(
            per_call(steps, slice_s, batch=256) * clock.scale() * NS, "ns"
        )
    return out


def pool_section(clock: RefClock, budget_s: float, workdir: Path) -> Dict[str, Metric]:
    """``server.procpool``: ``ShardProcess.call`` at depth 1 and 16, the
    fsyncs each costs (``pool.stats()``), and ``commit_cross_shard``."""
    out: Dict[str, Metric] = {}
    pool = ShardProcessPool(2, workdir / "layer-pool")
    pool.start()
    try:
        homes: Dict[int, str] = {}
        probe = 0
        while len(homes) < 2:
            name = f"acct-{probe:03d}"
            probe += 1
            if pool.shard_of(name) not in homes:
                homes[pool.shard_of(name)] = name
                pool.create_object(name, "Account")
        shard = pool.shards[0]
        serial = [0]

        def batch_of(depth: int) -> List[Dict[str, Any]]:
            ops = []
            for _ in range(depth):
                serial[0] += 1
                ops.append(
                    {
                        "op": "txn",
                        "name": f"layer-t{serial[0]}",
                        "steps": [(homes[0], "Credit", (1,))] * 2,
                    }
                )
            return ops

        def syncs() -> int:
            return pool.stats()[0]["wal_syncs"]

        for depth, key_time, key_sync in (
            (1, "server.procpool.pipe_rtt_us_depth1_ref", "server.procpool.fsyncs_per_txn_depth1"),
            (16, "server.procpool.us_per_txn_depth16_ref", "server.procpool.fsyncs_per_txn_depth16"),
        ):
            before, first = syncs(), serial[0]
            seconds = per_call(
                lambda depth=depth: shard.call(batch_of(depth)), budget_s / 3, batch=depth
            )
            out[key_time] = metric(seconds * clock.scale() * US, "us")
            out[key_sync] = metric((syncs() - before) / (serial[0] - first), "count")

        samples = []
        deadline = time.perf_counter() + budget_s / 3
        number = 0
        while time.perf_counter() < deadline or len(samples) < 5:
            number += 1
            name = f"layer-x{number}"
            pool.shards[0].single({"op": "begin", "name": name})
            pool.shards[1].single({"op": "begin", "name": name, "quiet": True})
            for home in (0, 1):
                pool.shards[home].single(
                    {
                        "op": "invoke",
                        "txn": name,
                        "obj": homes[home],
                        "operation": "Credit",
                        "args": (1,),
                    }
                )
            started = time.perf_counter()
            reply = pool.commit_cross_shard(name, [0, 1], primary=number % 2)
            samples.append(time.perf_counter() - started)
            if "error" in reply:
                raise AssertionError(f"cross-shard commit refused: {reply}")
        out["server.procpool.cross_commit_us_ref"] = metric(
            statistics.median(samples) * clock.scale() * US, "us"
        )
    finally:
        pool.stop()
    return out


def wal_section(clock: RefClock, budget_s: float, workdir: Path) -> Dict[str, Metric]:
    """``recovery.wal``: ``FileWAL.append`` / ``append_batch`` and a bare
    fsync on the same disk (not scaled: it is the disk's, not the CPU's)."""
    from repro.recovery.wal import invoke_record

    out: Dict[str, Metric] = {}
    wal = FileWAL(workdir / "layer-wal")
    record = invoke_record("layer-t1", "acct-000", Invocation("Credit", (57,)))
    try:
        out["recovery.wal.append_us_ref"] = metric(
            per_call(lambda: wal.append(record), budget_s / 3) * clock.scale() * US,
            "us",
        )
        out["recovery.wal.batch16_us_per_record_ref"] = metric(
            per_call(lambda: wal.append_batch([record] * 16), budget_s / 3, batch=16)
            * clock.scale()
            * US,
            "us",
        )
    finally:
        wal.close()
    with open(workdir / "layer-fsync", "wb") as handle:

        def sync() -> None:
            handle.write(b"x" * 128)
            handle.flush()
            os.fsync(handle.fileno())

        out["recovery.wal.fsync_us"] = metric(per_call(sync, budget_s / 3) * US, "us")
    return out


def recovery_section(clock: RefClock) -> Dict[str, Metric]:
    """``recovery.recovery``: ``recover_manager`` over a seeded log."""
    uniform = WORKLOADS["mem-uniform"]
    plan = build_plans(uniform, seed=0, txns=REPLAY_LOG_RECORDS // 4)[0]
    wal = MemoryWAL()
    manager = TransactionManager(wal=wal)
    for name, adt_name in uniform.objects:
        manager.create_object(name, get_adt(adt_name))
    for txn in plan:
        if len(wal) >= REPLAY_LOG_RECORDS:
            break
        transaction = manager.begin()
        for obj, operation, args in txn:
            manager.invoke(transaction, obj, operation, *args)
        manager.commit(transaction)
    records = len(wal)
    started = time.perf_counter()
    recover_manager(wal)
    seconds = time.perf_counter() - started
    return {
        "recovery.recovery.replay_us_per_record_ref": metric(
            seconds / records * clock.scale() * US, "us"
        )
    }


def layer_run(
    budget_s: float, workdir: Path
) -> Tuple[Dict[str, Metric], Dict[str, float], SpanRecorder]:
    """Every in-process layer metric, the ``solo-latency`` ledger (layer
    -> reference us of self time per transaction), and the recorder
    holding the ledger's spans."""
    clock = RefClock()
    solo = WORKLOADS["solo-latency"]
    plan = build_plans(solo, seed=0, txns=512)[0]
    metrics: Dict[str, Metric] = {}
    metrics.update(wire_section(clock, plan, budget_s * 0.12))
    ledger, recorder, _rig = solo_ledger(clock, plan, solo.objects, txns=400)
    metrics["runtime.manager.txn_us_uniform_ref"] = metric(
        ledger["runtime.manager"], "us"
    )
    metrics.update(manager_section(clock, budget_s * 0.3))
    metrics.update(machine_section(clock, budget_s * 0.2))
    metrics.update(pool_section(clock, budget_s * 0.2, workdir))
    metrics.update(wal_section(clock, budget_s * 0.1, workdir))
    metrics.update(recovery_section(clock))
    return metrics, ledger, recorder
