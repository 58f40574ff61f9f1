"""Observability overhead guard — "no tracer, no cost".

Every instrumentation site in the LOCK machine, manager and simulator is
guarded by a ``tracer is None`` check, so the disabled path should cost
one attribute load per site.  This script keeps that contract honest
without needing the pre-instrumentation binary:

* **relative guard** — the commit-churn microbenchmark (the same 150
  one-credit transactions as ``bench_machine_micro.py``) must not run
  measurably slower with observability disabled than fully traced.  If
  the disabled path ever approaches traced cost, a guard was dropped.
* **absolute floor** — disabled throughput must clear a floor far below
  any machine we run CI on, catching pathological regressions (an
  accidental per-event allocation on the hot path) outright.
* **idle-bus guard** — a bus with *no* subscribers must also stay within
  the relative tolerance of disabled: ``TraceBus.emit`` returns before
  building an event when nobody listens.
* **checker budget** — the streaming atomicity checker riding a manager
  commit-churn loop must keep throughput above an absolute floor and
  within a (deliberately loose) multiple of the unobserved manager.  The
  oracle re-sorts and re-verifies committed prefixes, so it is allowed to
  be much slower — this bound only catches accidental quadratic blowups.
* **class-table budget** — the tabulated conflict relation the machines
  lock with must not cost anything over the hand-written predicate it is
  tabulated from: commit churn against a pack of live lock-holders (so
  every operation pays real ``related()`` calls) on the class table must
  stay within ``COMPILED_TOLERANCE`` of the same loop on the bare
  predicate, both for an operation inside the declared universe
  (``Credit(2)``) and for one outside it (``Credit(57)``, which is what
  four served operations in five look like).  The expected direction is
  the table *faster*; the guard catches a lookup that regresses below
  predicate dispatch.
* **served-telemetry budget** — the guards above hold "no tracer, no
  cost"; this one holds the *enabled* path, which ``repro serve`` always
  runs.  The 15 events of one served uniform transaction sent one frame
  per read (so each ``server.*`` event carries one row) go through the
  default wiring (``TraceBus`` + ``RegistrySink`` + ``FlightRecorder``)
  under ``sys.setprofile``, and the Python-level and C-level calls at and
  below ``emit`` must equal ``SERVED_CALLS`` *exactly*: the counts repeat,
  so a helper call or a membership test that creeps back into a sink
  fails here before it is a percent on ``cpu_ms_per_txn_ref``.  The 7
  ``server.*`` events a process-shard parent carries for one transaction
  are gated the same way, against ``SERVED_PARENT_CALLS``.  A loose
  wall-clock ratio against the same mix on a bus with one no-op sink
  (plain and wired repeats interleave, so machine drift hits both
  equally) is the backstop for costs that are not calls.

* **wire-codec budget** — the same exact count for the codec every served
  request crosses twice: one served uniform transaction's 4 request
  frames through ``FrameDecoder.feed_iter`` + ``parse_request`` and its 4
  replies through ``response_frame`` must make ``WIRE_CALLS`` Python- and
  C-level calls, so a helper call that creeps back into
  ``repro.server.protocol`` fails here first.

* **shard-call budget** — a local shard executes a read's run of
  same-shard frames as one batch: a ``ServerCore`` over one local shard,
  fed reads shaped like the e2e load generator's (``SHARD_CALL_CLIENTS``
  transactions multiplexed on one connection, each read carrying every
  client's next frame), must make ``SHARD_CALLS`` shard calls
  (``take``) per committed transaction, *exactly*.

* **served-events budget** — the serving tier's telemetry is per batch:
  one ``server.request`` per admitted run of a read and one
  ``server.respond`` per write, a row per request.  The same driven core,
  with the served wiring and the engine on one bus, must emit exactly
  ``SERVED_EVENTS`` events per committed transaction, by kind, for
  sequential clients (one frame per read) and for ``SHARD_CALL_CLIENTS``
  multiplexed on one connection.

* **state-size budget** — an operation costs the same whatever the
  object holds: the Python-level calls of one ``execute`` + ``commit``
  under ``sys.setprofile`` on a compacting FIFOQueue machine holding
  ``STATE_SIZE_ITEMS`` items must equal those on an empty one, *exactly*
  (ranking a one-state view by its canonical string was one call per
  queued item, on every invocation).

What the view cache and the adopted commit / fold states buy in
``spec.step`` / ``results_for`` calls and ``related`` probes is gated in
tier-1: ``tests/properties/test_incremental_equivalence.py``,
``TestViewCacheCounts`` (an in-order commit steps nothing; one
``results_for`` + one ``step`` per ``execute``; 2 probes per held lock)
and ``TestCostIndependentOfStateSize`` (the same counts on a 1,000-item
queue as on an empty one, ``canonical_key`` never called).

Run directly (``PYTHONPATH=src python benchmarks/check_overhead.py``) or
via pytest.  Exits non-zero on violation.
"""

import collections
import sys
import tempfile
import time

from repro.adts import ACCOUNT_CONFLICT, get_adt, make_account_adt
from repro.core import CompactingLockMachine, Invocation, LockMachine
from repro.obs import (
    WIRE_LATENCY_BUCKETS,
    AtomicityChecker,
    FlightRecorder,
    MetricsRegistry,
    RegistrySink,
    TraceBus,
)
from repro.runtime import TransactionManager
from repro.server.core import Channel, ServerCore
from repro.server.engine import LocalShard, ShardEngine, ShardSet
from repro.server.protocol import (
    FrameDecoder,
    parse_request,
    request_frame,
    response_frame,
)

TRANSACTIONS = 150
REPEATS = 7
# Generous: the seed machine does ~45k txn/s on a laptop-class core; CI
# runners under load still manage several thousand.
FLOOR_TXN_PER_SECOND = 1_000.0
# Disabled must be no slower than traced, with headroom for timer noise.
RELATIVE_TOLERANCE = 1.10
# The checker replays the serial order per commit; keep it merely
# "not pathological": within 15x of the bare manager and above 100 txn/s.
CHECKER_TOLERANCE = 15.0
CHECKER_FLOOR_TXN_PER_SECOND = 100.0
# The class table's measured margin over the bare predicate under
# holder-heavy churn is ~1.5x; the guard only requires "not slower",
# with headroom for timer noise.
COMPILED_TOLERANCE = 1.10
COMPILED_HOLDERS = 24
#: An amount inside Account's declared universe, and one outside it.
COMPILED_AMOUNTS = {"inside": 2, "outside": 57}
# Calls at and below ``emit`` for one served uniform transaction's 15
# events through the ``repro serve`` wiring: (Python-level, C-level).
# Exact — re-derive with ``served_calls()`` when a sink changes on purpose.
# (Before the admission event was merged and the sinks became one call
# each, the same transaction was 18 events and 169 + 156 calls.)  The
# engine counted has no WAL: a logged shard's ``wal.append`` events (one
# per transaction) are not among the 15, so what the log writes cannot
# move this; nor can how a process shard's worker waits for its pipe or
# where a cross-shard commit's 2PC rounds travel — the count is taken on
# a local shard, which has neither a worker nor a queue.  (93 + 112 while
# ``RegistrySink`` kept a second per-transaction clock for blocked time:
# a handler per ``txn.invoke`` / ``txn.respond`` and a ``dict.get`` per
# phase of each ``server.respond``.)  (89 + 98 while every sink heard every
# event: the registry's dispatch and the flight recorder's ring append
# were Python calls per event, and each event ran ``TraceEvent.__init__``;
# the bus now routes each kind to the callables that fold it.)  (31 + 98
# while each ``server.request`` / ``server.respond`` was a flat payload the
# registry read with a ``dict.get`` per key; they now carry positional rows,
# read by index.)
SERVED_CALLS = (31, 77)
# The same count for what a process-shard parent's bus carries for one
# wal-pool transaction: its 7 ``server.*`` events (the kernel's events are
# on the shard child's own bus).  Exact, like SERVED_CALLS.  (18 + 62 with
# flat payloads.)
SERVED_PARENT_CALLS = (18, 41)
# Calls in repro.server.protocol for one served uniform transaction: its
# 4 request frames decoded and parsed, its 4 replies encoded, as
# (Python-level, C-level).  Exact, like SERVED_CALLS: re-derive with
# ``wire_calls()`` when the codec changes on purpose.  (117 + 154 while
# each frame built its own JSONEncoder, was copied and ``json.loads``-ed,
# filled a frozen dataclass field by field and sent every scalar through
# the tagged codec.)
WIRE_CALLS = (51, 90)
# Shard calls (``ServerCore.take``) per committed transaction when
# SHARD_CALL_CLIENTS begin / 2 x Credit / commit transactions share one
# connection in lock step on one local shard: the begins are answered at
# admission, and each other read is one run, one call.  Exact.  (3.0
# while every routed frame kicked its shard: one call per invoke and one
# per commit.)
SHARD_CALLS = 0.375
SHARD_CALL_CLIENTS = 8
# Bus events per committed transaction on the same driven core, the engine
# on the served bus, by kind: sequential clients (1) and SHARD_CALL_CLIENTS
# in lock step on one connection.  Exact.  The multiplexed shape was 13.25
# events while every request had its own ``server.request`` (4 per
# transaction) and ``server.respond`` (3): they are one per admitted run
# and one per write now, and a batch compacts each object once.
SERVED_EVENTS = {
    1: {
        "compaction.advance": 2.0,
        "server.request": 4.0,
        "server.respond": 3.0,
        "txn.begin": 1.0,
        "txn.commit": 1.0,
        "txn.invoke": 2.0,
        "txn.respond": 2.0,
    },
    SHARD_CALL_CLIENTS: {
        "compaction.advance": 0.25,
        "server.request": 0.5,
        "server.respond": 0.375,
        "txn.begin": 1.0,
        "txn.commit": 1.0,
        "txn.invoke": 2.0,
        "txn.respond": 2.0,
    },
}
SERVED_TRANSACTIONS = 50
# The default wiring against one no-op sink, same events: ~1.6x measured
# (~2.3x before routing, ~3.1x before that), so this only catches a sink
# that got much dearer.
SERVED_TOLERANCE = 3.5
# The queue the state-size budget fills before counting calls.
STATE_SIZE_ITEMS = 1000
SERVED_REPEATS = 7


def churn(machine, transactions=TRANSACTIONS):
    for index in range(transactions):
        name = f"T{index}"
        machine.execute(name, Invocation("Credit", (1,)))
        machine.commit(name, index + 1)


def best_of(build, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        machine = build()
        started = time.perf_counter()
        churn(machine)
        best = min(best, time.perf_counter() - started)
    return best


def manager_churn(manager, transactions=TRANSACTIONS):
    for _ in range(transactions):
        txn = manager.begin()
        manager.invoke(txn, "A", "Credit", 1)
        manager.commit(txn)


def churn_with_holders(machine, amount, holders=COMPILED_HOLDERS):
    """Commit churn against live lock-holders: every executed operation
    checks conflicts with each held operation, so the conflict relation's
    lookup cost dominates.  Credits commute, so nothing blocks."""
    held = Invocation("Credit", (amount,))
    for index in range(holders):
        machine.execute(f"H{index}", held)
    for index in range(TRANSACTIONS):
        name = f"T{index}"
        machine.execute(name, held)
        machine.commit(name, index + 1)


def best_of_holders(builds, amount, repeats=REPEATS):
    """The best holder-churn time of each of ``builds``, their repeats
    interleaved so that a load burst hits every candidate alike."""
    best = [float("inf")] * len(builds)
    for _ in range(repeats):
        for slot, build in enumerate(builds):
            machine = build()
            started = time.perf_counter()
            churn_with_holders(machine, amount)
            best[slot] = min(best[slot], time.perf_counter() - started)
    return tuple(best)


def served_transaction(name, depth=0, phases=(0.0, 7e-05, 1.5e-05)):
    """The ``(kind, payload)`` events ``repro serve`` emits for one begin /
    2 x Credit / commit transaction on a local shard, as an untraced
    client sends it one frame per read (no ``trace`` / ``sent`` stamp —
    the benchmark's traffic), so each wire event carries one row: the mix
    ``tests/server/test_telemetry.py`` pins by count.  A routed request
    finds ``depth`` ahead of it; a reply spent ``phases`` (queue, execute,
    respond)."""

    def request(action, transaction, shard):
        found = 0 if shard is None else depth
        row = ("s1", action, None, None, transaction, shard, found)  # REQUEST_ROW
        return "server.request", dict(requests=(row,))

    def respond(action):
        row = ("s1", action, None, name, 0, *phases)  # REPLY_ROW
        return "server.respond", dict(replies=(row,))

    def operation(obj, amount):
        invoke = dict(transaction=name, obj=obj, operation="Credit", args=(amount,))
        return [
            ("txn.invoke", invoke),
            ("txn.respond", dict(transaction=name, obj=obj, result="Ok")),
            respond("invoke"),
        ]

    def advance(obj):
        payload = dict(obj=obj, old_horizon=2, new_horizon=3, collapsed=1)
        payload.update(forgotten=(name,), retained=0)
        return "compaction.advance", payload

    return [
        request("begin", None, None),
        request("invoke", name, 0),
        ("txn.begin", dict(transaction=name, read_only=False)),
        *operation("acct1", 5),
        request("invoke", name, 0),
        *operation("acct2", 7),
        request("commit", name, 0),
        ("txn.commit", dict(transaction=name, timestamp=3, objects=["acct1", "acct2"])),
        advance("acct1"),
        advance("acct2"),
        respond("commit"),
    ]


def served_parent_transaction(name):
    """The events a process-shard parent emits for the same transaction:
    its ``server.*`` events, each routed request finding one ahead of it
    in the shard's FIFO — the mix ``tests/server/test_telemetry.py`` pins
    by count on the process transport."""
    events = served_transaction(name, depth=1, phases=(2e-05, 4e-04, 1.5e-05))
    return [(kind, data) for kind, data in events if kind.startswith("server.")]


def served_bus(directory):
    """A bus wired the way ``repro serve`` wires its own."""
    bus = TraceBus()
    bus.subscribe(RegistrySink(MetricsRegistry(), WIRE_LATENCY_BUCKETS))
    bus.subscribe(FlightRecorder(directory, queue_high_water=64, emit_to=bus))
    return bus


def served_mix(bus, transactions, prefix):
    """Push ``transactions`` served transactions' events through ``bus``."""
    mix = [served_transaction(f"{prefix}.t{n}") for n in range(transactions)]
    emit = bus.emit
    started = time.perf_counter()
    for events in mix:
        for kind, data in events:
            emit(kind, **data)
    return time.perf_counter() - started


def served_calls(transactions=SERVED_TRANSACTIONS, transaction=served_transaction):
    """(Python-level, C-level) calls per served transaction at and below
    ``emit`` on the served wiring, counted by ``sys.setprofile``;
    ``transaction`` names the events of one."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1

    with tempfile.TemporaryDirectory() as directory:
        bus = served_bus(directory)
        for number in range(3):  # bind the instruments and the routes
            for kind, data in transaction(f"warm.t{number}"):
                bus.emit(kind, **data)
        mix = [transaction(f"s1.t{n}") for n in range(transactions)]
        emit = bus.emit
        sys.setprofile(profile)
        try:
            for events in mix:
                for kind, data in events:
                    emit(kind, **data)
        finally:
            sys.setprofile(None)
    return counts["call"] / transactions, counts["c_call"] / transactions


def wire_transaction(number):
    """One served uniform transaction on the wire, as the benchmark's
    untraced generator sends it: its 4 request frames and the 4 replies'
    results (begin / 2 x Credit / commit)."""
    handle = f"s1.t{number}"
    requests = [("begin", {})]
    replies = [{"transaction": handle}]
    for obj, amount in (("acct-001", 5), ("acct-002", 7)):
        params = dict(transaction=handle, obj=obj, operation="Credit", args=(amount,))
        requests.append(("invoke", params))
        replies.append({"transaction": handle, "obj": obj, "result": "Ok"})
    requests.append(("commit", {"transaction": handle}))
    replies.append({"transaction": handle, "timestamp": number, "committed": True})
    frames = [
        request_frame(4 * number + n, *request) for n, request in enumerate(requests)
    ]
    return frames, replies


def wire_calls(transactions=SERVED_TRANSACTIONS):
    """(Python-level, C-level) calls per served transaction in the wire
    codec, server side, counted by ``sys.setprofile``: each request frame
    fed as its own read, then each reply encoded."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1

    decoder = FrameDecoder()

    def serve(frames, replies):
        for frame in frames:
            for body in decoder.feed_iter(frame):
                request = parse_request(body)
        for result in replies:
            response_frame(request.id, result)

    mix = [wire_transaction(number) for number in range(transactions + 3)]
    for frames, replies in mix[:3]:  # warm
        serve(frames, replies)
    sys.setprofile(profile)
    try:
        for frames, replies in mix[3:]:
            serve(frames, replies)
    finally:
        sys.setprofile(None)
    return counts["call"] / transactions, counts["c_call"] / transactions


def drive_core(transactions, clients, tracer=None):
    """Drive a ``ServerCore`` over one local shard as the shell drives it
    (``take → call → settle`` in the kick, ``responded`` after each write)
    through ``transactions`` begin / 2 x Credit / commit transactions,
    ``clients`` of them multiplexed on one connection: each read carries
    every client's next frame.  ``tracer`` is the core's bus and the
    engine's.  Returns (shard calls, committed transactions)."""
    calls = 0

    def kick(index):
        nonlocal calls
        calls += 1
        ops = core.take(index)
        core.settle(index, pool.shards[index].call(ops) if ops else ops, 0.0)

    pool = ShardSet([LocalShard(ShardEngine(0, 1, tracer=tracer))])
    core = ServerCore(pool, kick, tracer=tracer)
    kick(0)  # its start-up resolution, run out before the shell accepts
    calls = 0
    core.catalog["acct1"] = pool.create_object("acct1", "Account")
    core.catalog["acct2"] = pool.create_object("acct2", "Account")
    channel, decoder, ids = Channel(), FrameDecoder(), iter(range(1, 1 << 30))
    core.connect(channel)

    def read(frames):
        """Feed one read of ``frames``; the replies, in order."""
        core.feed(channel, b"".join(request_frame(next(ids), *f) for f in frames), 0.0)
        replies = decoder.feed(b"".join(channel.out))
        channel.out.clear()
        core.dirty.clear()
        if core.answered:
            core.responded()
        assert len(replies) == len(frames) and all(r["ok"] for r in replies), replies
        return replies

    committed = 0
    for _ in range(0, transactions, clients):
        begun = read([("begin", {})] * clients)
        handles = [reply["result"]["transaction"] for reply in begun]
        for obj, amount in (("acct1", 5), ("acct2", 7)):
            read(
                [
                    ("invoke", dict(transaction=h, obj=obj, operation="Credit",
                                    args=(amount,)))
                    for h in handles
                ]
            )
        read([("commit", {"transaction": h}) for h in handles])
        committed += clients
    return calls, committed


def shard_calls(transactions=SERVED_TRANSACTIONS, clients=SHARD_CALL_CLIENTS):
    """Shard calls per committed transaction on ``drive_core``'s core, by
    ``clients`` transactions multiplexed on one connection."""
    calls, committed = drive_core(transactions, clients)
    return calls / committed


def served_events(clients, transactions=SERVED_TRANSACTIONS):
    """Bus events per committed transaction, by kind, on ``drive_core``'s
    core with the served wiring, the engine on the same bus (the objects'
    ``obj.create`` and the connection's ``server.connect`` are not per
    transaction, and not counted)."""
    kinds = collections.Counter()

    def count(event):
        if event.kind not in ("obj.create", "server.connect"):
            kinds[event.kind] += 1

    with tempfile.TemporaryDirectory() as directory:
        bus = served_bus(directory)
        bus.subscribe(count)
        _, committed = drive_core(transactions, clients, tracer=bus)
    return {kind: number / committed for kind, number in sorted(kinds.items())}


def state_size_calls(items):
    """Python-level calls of one ``execute`` + ``commit`` on a compacting
    FIFOQueue machine holding ``items`` items."""
    adt = get_adt("FIFOQueue")
    machine = CompactingLockMachine(adt.spec, adt.conflict)
    if items:
        machine.restore_version(frozenset({tuple(range(items))}))
    enq = Invocation("Enq", (7,))
    machine.execute("warm", enq)
    machine.commit("warm", 1)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        machine.execute("T", enq)
        machine.commit("T", 2)
    finally:
        sys.setprofile(None)
    return calls


def served_budget(repeats=SERVED_REPEATS):
    """Best no-op-sink vs best served-wiring time for the same events,
    interleaved repeats."""
    bare_best = float("inf")
    wired_best = float("inf")
    with tempfile.TemporaryDirectory() as directory:
        wired = served_bus(directory)
        bare = TraceBus()
        bare.subscribe(lambda event: None)
        for repeat in range(repeats):
            bare_best = min(
                bare_best, served_mix(bare, SERVED_TRANSACTIONS, f"b{repeat}")
            )
            wired_best = min(
                wired_best, served_mix(wired, SERVED_TRANSACTIONS, f"w{repeat}")
            )
    return bare_best, wired_best


def best_of_manager(build, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        manager = build()
        started = time.perf_counter()
        manager_churn(manager)
        best = min(best, time.perf_counter() - started)
    return best


def main():
    adt = make_account_adt()

    def disabled():
        return CompactingLockMachine(adt.spec, adt.conflict)

    def traced():
        machine = CompactingLockMachine(adt.spec, adt.conflict)
        bus = TraceBus()
        bus.subscribe(RegistrySink(MetricsRegistry()))
        machine.tracer = bus
        return machine

    def idle_bus():
        # Attached bus, zero subscribers: emit() must bail immediately.
        machine = CompactingLockMachine(adt.spec, adt.conflict)
        machine.tracer = TraceBus()
        return machine

    def bare_manager():
        manager = TransactionManager()
        manager.create_object("A", adt)
        return manager

    def checked_manager():
        bus = TraceBus()
        bus.subscribe(AtomicityChecker())
        manager = TransactionManager(tracer=bus)
        manager.create_object("A", adt)
        return manager

    # Warm up bytecode caches before timing either variant.
    churn(disabled())
    manager_churn(bare_manager())

    def compiled_relation_machine():
        return LockMachine(adt.spec, adt.conflict)

    def predicate_relation_machine():
        return LockMachine(adt.spec, ACCOUNT_CONFLICT)

    disabled_best = best_of(disabled)
    traced_best = best_of(traced)
    idle_best = best_of(idle_bus)
    manager_best = best_of_manager(bare_manager)
    checked_best = best_of_manager(checked_manager)
    holder_churn = {
        where: best_of_holders(
            (compiled_relation_machine, predicate_relation_machine), amount
        )
        for where, amount in COMPILED_AMOUNTS.items()
    }
    served_counts = served_calls()
    parent_counts = served_calls(transaction=served_parent_transaction)
    wire_counts = wire_calls()
    calls_per_txn = shard_calls()
    events_per_txn = {clients: served_events(clients) for clients in SERVED_EVENTS}
    bare_best, wired_best = served_budget()
    empty_calls, sized_calls = state_size_calls(0), state_size_calls(STATE_SIZE_ITEMS)
    disabled_tps = TRANSACTIONS / disabled_best
    traced_tps = TRANSACTIONS / traced_best
    idle_tps = TRANSACTIONS / idle_best
    manager_tps = TRANSACTIONS / manager_best
    checked_tps = TRANSACTIONS / checked_best

    print(f"disabled: {disabled_best:.6f}s best  ({disabled_tps:,.0f} txn/s)")
    print(f"traced:   {traced_best:.6f}s best  ({traced_tps:,.0f} txn/s)")
    print(f"idle bus: {idle_best:.6f}s best  ({idle_tps:,.0f} txn/s)")
    print(f"manager:  {manager_best:.6f}s best  ({manager_tps:,.0f} txn/s)")
    print(f"checked:  {checked_best:.6f}s best  ({checked_tps:,.0f} txn/s)")
    for where, (compiled_best, predicate_best) in holder_churn.items():
        print(
            f"{COMPILED_HOLDERS}-holder churn {where} the declared universe: "
            f"class table {compiled_best:.6f}s vs predicate "
            f"{predicate_best:.6f}s ({predicate_best / compiled_best:.2f}x)"
        )

    print(
        f"served telemetry: {served_counts[0]:g} Python + {served_counts[1]:g} C "
        f"calls per 15-event transaction; wired {wired_best:.6f}s vs one no-op "
        f"sink {bare_best:.6f}s ({wired_best / bare_best:.2f}x, "
        f"{wired_best / SERVED_TRANSACTIONS * 1e6:.1f} us/txn)"
    )
    print(
        f"served telemetry, process-shard parent: {parent_counts[0]:g} Python + "
        f"{parent_counts[1]:g} C calls per 7-event transaction"
    )
    print(
        f"wire codec: {wire_counts[0]:g} Python + {wire_counts[1]:g} C calls per "
        "served transaction (4 frames decoded and parsed, 4 replies encoded)"
    )
    print(
        f"shard calls: {calls_per_txn:g} per transaction, {SHARD_CALL_CLIENTS} "
        "multiplexed on one connection over one local shard"
    )
    for clients, events in events_per_txn.items():
        print(
            f"served events: {sum(events.values()):g} per transaction, {clients} "
            f"on one connection (server.request {events.get('server.request', 0):g}, "
            f"server.respond {events.get('server.respond', 0):g})"
        )
    print(
        f"state size: {empty_calls} Python calls at 0 items vs {sized_calls} "
        f"Python calls at {STATE_SIZE_ITEMS:,} items per execute + commit"
    )

    failures = []
    if disabled_tps < FLOOR_TXN_PER_SECOND:
        failures.append(
            f"disabled throughput {disabled_tps:,.0f} txn/s is below the "
            f"{FLOOR_TXN_PER_SECOND:,.0f} txn/s floor"
        )
    if disabled_best > traced_best * RELATIVE_TOLERANCE:
        failures.append(
            f"disabled path ({disabled_best:.6f}s) is slower than the traced "
            f"path ({traced_best:.6f}s) beyond tolerance — a tracer guard "
            "was probably dropped"
        )
    if idle_best > traced_best * RELATIVE_TOLERANCE:
        failures.append(
            f"idle-bus path ({idle_best:.6f}s) is slower than the traced "
            f"path ({traced_best:.6f}s) beyond tolerance — emit() is doing "
            "work with no subscribers"
        )
    if checked_tps < CHECKER_FLOOR_TXN_PER_SECOND:
        failures.append(
            f"checker-attached throughput {checked_tps:,.0f} txn/s is below "
            f"the {CHECKER_FLOOR_TXN_PER_SECOND:,.0f} txn/s floor"
        )
    if checked_best > manager_best * CHECKER_TOLERANCE:
        failures.append(
            f"checker-attached churn ({checked_best:.6f}s) exceeds "
            f"{CHECKER_TOLERANCE:.0f}x the bare manager ({manager_best:.6f}s)"
            " — the oracle's per-event work has blown up"
        )

    for where, (compiled_best, predicate_best) in holder_churn.items():
        if compiled_best > predicate_best * COMPILED_TOLERANCE:
            failures.append(
                f"holder churn {where} the declared universe on the class "
                f"table ({compiled_best:.6f}s) exceeds "
                f"{COMPILED_TOLERANCE:.2f}x the hand-written predicate "
                f"({predicate_best:.6f}s) — the table has stopped paying"
            )

    if served_counts != SERVED_CALLS:
        failures.append(
            f"a served transaction's events cost {served_counts[0]:g} Python + "
            f"{served_counts[1]:g} C calls on the repro-serve wiring, not the "
            f"budgeted {SERVED_CALLS[0]} + {SERVED_CALLS[1]} — a sink's "
            "per-event path changed (update SERVED_CALLS if on purpose)"
        )
    if parent_counts != SERVED_PARENT_CALLS:
        failures.append(
            f"a process-shard parent's events cost {parent_counts[0]:g} Python "
            f"+ {parent_counts[1]:g} C calls on the repro-serve wiring, not the "
            f"budgeted {SERVED_PARENT_CALLS[0]} + {SERVED_PARENT_CALLS[1]} — a "
            "sink's server.* path changed (update SERVED_PARENT_CALLS if on "
            "purpose)"
        )
    if wired_best > bare_best * SERVED_TOLERANCE:
        failures.append(
            f"the repro-serve wiring ({wired_best:.6f}s) exceeds "
            f"{SERVED_TOLERANCE:.1f}x one no-op sink ({bare_best:.6f}s) on "
            "the served event mix — the always-on sinks got dearer"
        )

    if wire_counts != WIRE_CALLS:
        failures.append(
            f"a served transaction's frames cost {wire_counts[0]:g} Python + "
            f"{wire_counts[1]:g} C calls in the wire codec, not the budgeted "
            f"{WIRE_CALLS[0]} + {WIRE_CALLS[1]} — repro.server.protocol's "
            "per-frame path changed (update WIRE_CALLS if on purpose)"
        )

    if calls_per_txn != SHARD_CALLS:
        failures.append(
            f"{SHARD_CALL_CLIENTS} transactions multiplexed on one connection "
            f"cost {calls_per_txn:g} shard calls each on a local shard, not the "
            f"budgeted {SHARD_CALLS:g} — a read's run of same-shard frames no "
            "longer runs as one batch (update SHARD_CALLS if on purpose)"
        )

    for clients, events in events_per_txn.items():
        if events != SERVED_EVENTS[clients]:
            failures.append(
                f"{clients} transaction(s) on one connection emit {events} per "
                f"transaction on the served bus, not the budgeted "
                f"{SERVED_EVENTS[clients]} — the serving tier's events are no "
                "longer one per run and one per write (update SERVED_EVENTS if "
                "on purpose)"
            )

    if sized_calls != empty_calls:
        failures.append(
            f"an execute + commit on a {STATE_SIZE_ITEMS:,}-item queue makes "
            f"{sized_calls} Python calls against {empty_calls} on an empty "
            "one — the machine is doing work per item the object holds"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: disabled-path overhead within bounds")
    return 0


def test_overhead_guard():
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
