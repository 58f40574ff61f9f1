"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show registered ADTs and protocols.
``derive <adt>``
    Derive the invalidated-by and failure-to-commute tables for a type
    from its serial specification and print them in the paper's style.
``audit [adt...]``
    The one verifier of the conflict tables: for every declared table
    (the tabulated relations the lock machines run), re-derive the
    relation from the serial specification and report the hand-written
    figure that disagrees.  An unsound table (asymmetric, or failing
    Definition 3) is an error and exits 1; a non-minimal one a warning.
    Lint rule REP107 makes the same call on the source under lint.
``simulate <workload>``
    Run a simulated workload under one or more protocols and print the
    metrics table.  ``--crash-rate`` injects Poisson manager crashes;
    ``--wal-dir`` attaches an on-disk write-ahead log per protocol so the
    run survives a real process kill.
``recover <logdir>``
    Rebuild a transaction manager from a log directory (``--wal-dir``, or
    ``serve --data-dir``'s ``shard<i>``; checkpoint record + WAL replay)
    and print the recovered object states.
``trace <workload>``
    Run one workload under one protocol with the trace bus attached and
    dump the event stream: ``--format jsonl`` (machine-readable, every
    ``lock.conflict`` names the refused/held operation pair), ``spans``
    (per-transaction latency table), ``events`` or ``summary``.
``stats <workload>`` / ``stats --connect HOST:PORT``
    Run one workload and print the metrics-registry view: latency
    histograms, conflict breakdown by operation pair, compaction
    horizon / retained-intentions gauges, and an end-of-run lock-table
    plus waits-for-graph snapshot (``--json`` for machine output).
    With ``--connect``, query a *live* server's in-band ``stats`` op
    instead and render its snapshot (``--prometheus`` for text
    exposition format).
``lint [paths...]``
    Run the AST-based static analyzer (:mod:`repro.lint`) that enforces
    the repo's concurrency-control invariants at rest: registered trace
    kinds and payload keys, symmetric conflict relations, encapsulated
    protocol state, deterministic simulation paths, exception-safe
    resource handling, and no blocking calls in the event loop.  Exits
    nonzero when any rule fires (the CI gate).
``serve``
    Boot the socket serving tier (:mod:`repro.server`): one or more
    shard engines behind the length-prefixed JSON wire
    protocol, with per-connection sessions, bounded work queues (BUSY
    backpressure), and graceful drain on SIGTERM/SIGINT.  ``--trace-file``
    records every ``server.*`` / ``txn.*`` event so the run can be
    certified offline with ``repro check --trace-file``.  ``--processes
    N`` shards the objects across *N* WAL-backed worker processes
    (shared-nothing, group commit, cross-shard 2PC, supervised respawn)
    instead of in-process shards; ``--data-dir`` roots the per-shard
    WALs so a restarted server recovers its state.  ``--profile-dir``
    runs the sampling profiler for the whole serve window and drops
    ``profile.folded`` / ``profile.json`` there on drain.
``profile <dump>``
    Render a profile artifact offline: a ``profile.json`` dump, a
    ``.folded`` collapsed-stack file, or a ``serve --profile-dir``
    directory.  Shows the hottest frames and stacks from the sampler
    (the critical-path budget and the contention table come from
    ``analyze``).  ``--top N`` bounds the tables, ``--json`` dumps the
    raw report.
``top``
    Curses-free live view over a running server's ``stats`` op:
    queue depths, commit/abort/BUSY rates, latency quantiles, hottest
    conflict pairs, flight-recorder status — refreshed on an interval.
``analyze <trace.jsonl>``
    Fold a recorded server trace (or a flight-recorder dump) into a
    postmortem report over its spans: critical-path phase budget with
    what-if estimates, contention table (blocked time per conflict
    pair), shard imbalance, queue-depth timeline, slowest transactions
    with their phase budgets (``--json`` for the raw report).
``check [workload | --trace-file FILE]``
    Certify a run hybrid atomic with the streaming oracle
    (:class:`repro.obs.AtomicityChecker`): either run a workload live
    with the checker attached (any protocol, including ``optimistic``),
    or replay a recorded JSONL trace offline.  Prints the verdict (or
    the full report with ``--json``) and exits nonzero when any checked
    property is violated; each violation carries a minimal witness —
    the smallest event sub-sequence that still reproduces it.

Examples::

    python -m repro list
    python -m repro derive Account
    python -m repro derive FIFOQueue --values 1 2 3
    python -m repro audit
    python -m repro simulate queue --protocol hybrid commutativity
    python -m repro simulate account --duration 500 --seed 3
    python -m repro simulate account --crash-rate 0.01 --wal-dir /tmp/wals
    python -m repro simulate queue --verbose --trace-file /tmp/queue.jsonl
    python -m repro simulate queue --check
    python -m repro recover /tmp/wals/hybrid
    python -m repro trace account --format spans
    python -m repro trace queue --format jsonl --output /tmp/trace.jsonl
    python -m repro stats account --wait-policy block
    python -m repro check account --duration 200
    python -m repro check --trace-file /tmp/trace.jsonl --json
    python -m repro serve --port 7400 --workers 2 --trace-file /tmp/serve.jsonl
    python -m repro stats --connect 127.0.0.1:7400
    python -m repro stats --connect 127.0.0.1:7400 --prometheus
    python -m repro top --connect 127.0.0.1:7400 --iterations 3
    python -m repro analyze /tmp/serve.jsonl
    python -m repro serve --processes 4 --data-dir /tmp/shards
    python -m repro serve --workers 2 --profile-dir /tmp/prof
    python -m repro profile /tmp/prof
    python -m repro profile /tmp/prof/profile.folded --top 5
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from .adts import declared_tables, get_adt, registry
from .analysis import (
    compare_relations,
    concurrency_score,
    derive_commutativity_figure,
    derive_figure,
    generate_report,
)
from .core.compile import default_universe, verify_adt
from .protocols import ALL_PROTOCOLS, OPTIMISTIC, get_protocol
from .sim import (
    AccountWorkload,
    ClientParams,
    DirectoryWorkload,
    FileWorkload,
    QueueWorkload,
    SemiQueueWorkload,
    SetWorkload,
    StackWorkload,
    run_experiment,
)

__all__ = ["main"]

_WORKLOADS = {
    "queue": lambda: QueueWorkload(),
    "semiqueue": lambda: SemiQueueWorkload(),
    "account": lambda: AccountWorkload(),
    "file": lambda: FileWorkload(),
    "set": lambda: SetWorkload(),
    "directory": lambda: DirectoryWorkload(),
    "stack": lambda: StackWorkload(),
}


def _cmd_list(args: argparse.Namespace) -> int:
    print("abstract data types:")
    for name in registry():
        print(f"  {name}")
    print("\nprotocols:")
    for protocol in ALL_PROTOCOLS + [OPTIMISTIC]:
        print(f"  {protocol.name:14s} {protocol.description}")
    print("\nworkloads:")
    for name in sorted(_WORKLOADS):
        print(f"  {name}")
    return 0


def _universe_for(adt, values: Optional[List[str]]):
    if values:
        parsed = [int(v) if v.lstrip("-").isdigit() else v for v in values]
        return adt.universe(tuple(parsed))
    return default_universe(adt)


def _cmd_derive(args: argparse.Namespace) -> int:
    try:
        adt = get_adt(args.adt)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    universe = _universe_for(adt, args.values)
    report = derive_figure(
        adt, universe, f"{adt.name}: invalidated-by (dependency relation)",
        max_h1=args.depth, max_h2=max(1, args.depth - 1),
    )
    print(report.render())
    mc = derive_commutativity_figure(
        adt, universe, f"{adt.name}: failure to commute", max_h=args.depth
    )
    print()
    print(mc.render())
    comparison = compare_relations(adt.conflict, mc.derived, universe)
    print()
    print(f"hybrid vs commutativity conflicts : {comparison}")
    print(
        "concurrency scores                : "
        f"hybrid {concurrency_score(adt.conflict, universe):.3f}, "
        f"commutativity {concurrency_score(adt.commutativity_conflict, universe):.3f}"
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    names = args.adt or registry()
    sound = True
    verified = 0
    for name in names:
        try:
            adt = get_adt(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        tables = declared_tables(name)
        issues = verify_adt(
            adt, tables, check_minimal_dependency=args.minimal
        )
        for issue in issues:
            print(f"audit: {issue}", file=sys.stderr)
        if any(issue.severity == "error" for issue in issues):
            sound = False
            continue
        verified += len(tables)
        print(
            f"{name}: verified {len(tables)} table(s) and the declared "
            f"dependency{' (minimal)' if args.minimal else ''} over "
            f"{len(default_universe(adt))} op(s)"
        )
    print(f"audit: {verified} table(s) of {len(names)} type(s) verified")
    return 0 if sound else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    results = pathlib.Path(args.results) if args.results else None
    text = generate_report(results_dir=results)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _resolve(workload: str, *protocols: str):
    """``(workload factory, [protocol, ...])`` for the names given, or the
    exit code once stderr has been told which name is unknown."""
    factory = _WORKLOADS.get(workload)
    if factory is None:
        print(
            f"unknown workload {workload!r}; "
            f"available: {', '.join(sorted(_WORKLOADS))}",
            file=sys.stderr,
        )
        return 2
    try:
        return factory, [get_protocol(name) for name in protocols]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2


def _observed_run(args, factory, protocol, sinks=(), check=False, registry=None):
    """Run the workload once under ``protocol``, observed on a fresh bus.

    ``sinks`` are subscribed in order, then (``check``) an online
    :class:`~repro.obs.AtomicityChecker` — one per run, because runs reuse
    transaction names and a shared checker would see duplicate histories.
    ``registry`` goes to :func:`run_experiment` as it is.  Returns
    ``(run, checker)``.

    The engine restrictions that are real are decided here and nowhere
    else: crash injection and a write-ahead log need lock machines, so a
    run on the optimistic engine goes without them and says so.
    """
    from .obs import AtomicityChecker, TraceBus
    from .recovery import CrashPlan

    tracer = TraceBus() if sinks or check else None
    for sink in sinks:
        tracer.subscribe(sink)
    checker = tracer.subscribe(AtomicityChecker(emit_to=tracer)) if check else None
    crash_rate, wals = args.crash_rate, ()
    if protocol.engine != "locking":
        if crash_rate > 0 or args.wal_dir:
            print(
                "note: crash/WAL flags apply to locking engines only; "
                "the optimistic engine runs without them",
                file=sys.stderr,
            )
        crash_rate = 0.0
    elif args.wal_dir:
        import os

        from .recovery import FileWAL

        wals = [FileWAL(os.path.join(args.wal_dir, protocol.name))]
    crash_seed = args.seed if args.crash_seed is None else args.crash_seed
    try:
        run = run_experiment(
            factory(),
            protocol,
            duration=args.duration,
            seed=args.seed,
            params=ClientParams(wait_policy=args.wait_policy),
            crashes=CrashPlan.soft(
                crash_seed, ["shard0"], args.duration, rate=crash_rate
            ),
            wals=wals,
            tracer=tracer,
            registry=registry,
        )
    except ValueError as exc:  # e.g. a --wal-dir that already holds a log
        print(f"{args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return run, checker


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .obs import JSONLSink, MetricsRegistry

    resolved = _resolve(args.workload, *args.protocol)
    if isinstance(resolved, int):
        return resolved
    factory, protocols = resolved

    fields = [
        "committed",
        "aborted",
        "conflicts",
        "throughput",
        "mean_latency",
        "abort_rate",
        "validation_failures",
    ]
    if args.crash_rate > 0:
        fields.append("crashes")
    header = f"{'protocol':14s}" + "".join(f"{f:>20s}" for f in fields)
    print(header)
    print("-" * len(header))
    jsonl_sink = JSONLSink(args.trace_file) if args.trace_file else None
    verbose_blocks = []
    check_lines = []
    all_certified = True
    for protocol in protocols:
        registry = MetricsRegistry() if args.verbose else None
        run, checker = _observed_run(
            args,
            factory,
            protocol,
            sinks=[jsonl_sink] if jsonl_sink is not None else [],
            check=args.check,
            registry=registry,
        )
        row = run.metrics.as_row()
        print(
            f"{protocol.name:14s}"
            + "".join(f"{row.get(f, 0):>20}" for f in fields)
        )
        if registry is not None:
            lines = [f"[{protocol.name}]"]
            breakdown = registry.conflict_breakdown()
            if breakdown:
                lines.append("  conflicts by operation pair:")
                for name, value in breakdown.items():
                    lines.append(f"    {name:50s} {value:>8g}")
            for name, gauge in sorted(registry.gauges.items()):
                lines.append(f"  {name:52s} {gauge.value!r:>8}")
            verbose_blocks.append("\n".join(lines))
        if checker is not None:
            all_certified = all_certified and checker.ok
            check_lines.append(f"[{protocol.name}] {checker.render_report()}")
    if jsonl_sink is not None:
        jsonl_sink.close()
        print(f"\ntrace written to {args.trace_file} ({jsonl_sink.written} events)")
    if verbose_blocks:
        print()
        print("\n".join(verbose_blocks))
    if check_lines:
        print()
        print("\n".join(check_lines))
    if args.wal_dir:
        print(f"\nwrite-ahead logs under {args.wal_dir}/<protocol>")
    return 0 if all_certified else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    import os

    from .recovery import FileWAL, recover_manager

    logdir = args.logdir
    if not os.path.isfile(os.path.join(logdir, "wal.jsonl")):
        print(f"no wal.jsonl under {logdir!r}", file=sys.stderr)
        return 2
    from .recovery import RecoveryError, WalCorruption

    wal = FileWAL(logdir)
    tracer = None
    jsonl_sink = None
    ring = None
    if args.verbose or args.trace_file:
        from .obs import JSONLSink, RingBufferSink, TraceBus, render_events

        tracer = TraceBus()
        if args.trace_file:
            jsonl_sink = tracer.subscribe(JSONLSink(args.trace_file))
        if args.verbose:
            ring = tracer.subscribe(RingBufferSink())
    try:
        # A shard's log pins its stride in the meta record; recovery
        # refuses any other generator, so offer the one it names.
        meta = next(iter(wal.records()), {})
        generator = None
        if meta.get("shards") is not None:
            from .server.engine import ShardedTimestampGenerator

            generator = ShardedTimestampGenerator(meta["shard"], meta["shards"])
        # The CLI is the one place wall-clock timing belongs: simulated
        # paths leave ``clock`` unset so reports stay deterministic.
        manager, report = recover_manager(
            wal, tracer=tracer, clock=time.perf_counter, generator=generator
        )
    except (WalCorruption, RecoveryError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if jsonl_sink is not None:
            jsonl_sink.close()
    print(report.summary())
    if ring is not None:
        print()
        print(render_events(ring.events()))
    if args.trace_file:
        print(f"trace written to {args.trace_file} ({jsonl_sink.written} events)")
    print()
    print(f"{'object':20s}{'committed state':>30s}")
    print("-" * 50)
    for name in sorted(manager.objects):
        print(f"{name:20s}{str(manager.object(name).snapshot()):>30s}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        JSONLSink,
        RingBufferSink,
        SpanBuilder,
        render_events,
        render_kind_summary,
        render_spans,
    )

    resolved = _resolve(args.workload, args.protocol)
    if isinstance(resolved, int):
        return resolved
    factory, (protocol,) = resolved

    spans, ring = SpanBuilder(), RingBufferSink()
    sinks = [spans, ring]
    jsonl_sink = None
    if args.format == "jsonl":
        jsonl_sink = JSONLSink(args.output or sys.stdout)
        sinks.append(jsonl_sink)
    _observed_run(args, factory, protocol, sinks=sinks)
    if jsonl_sink is not None:
        jsonl_sink.close()
        if args.output:
            print(f"trace written to {args.output} ({jsonl_sink.written} events)")
    elif args.format == "spans":
        print(render_spans(spans.spans, limit=args.limit))
    elif args.format == "events":
        print(render_events(ring.events(), limit=args.limit))
    else:  # summary
        print(render_kind_summary(ring.events()))
        committed = spans.committed()
        aborted = spans.aborted()
        print()
        print(
            f"{len(spans.spans)} span(s): {len(committed)} committed, "
            f"{len(aborted)} aborted, "
            f"{sum(1 for s in spans.spans if not s.well_formed)} malformed"
        )
    return 0


def _parse_address(spec: str) -> Optional[tuple]:
    """``HOST:PORT`` -> ``(host, port)``, or None if malformed."""
    host, _, port_text = spec.rpartition(":")
    if not host or not port_text.isdigit():
        return None
    return host, int(port_text)


def _cmd_stats_remote(args: argparse.Namespace) -> int:
    import json

    from .obs import MetricsRegistry, render_prometheus
    from .server import SyncClient
    from .server.top import render_top

    address = _parse_address(args.connect)
    if address is None:
        print(f"stats: bad --connect address {args.connect!r}", file=sys.stderr)
        return 2
    try:
        with SyncClient(*address) as client:
            snapshot = client.stats()
    except (OSError, ConnectionError) as exc:
        print(f"stats: cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, default=repr))
        return 0
    if args.prometheus:
        registry = MetricsRegistry.from_snapshot(snapshot.get("metrics") or {})
        sys.stdout.write(render_prometheus(registry))
        return 0
    print(render_top(snapshot))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import (
        MetricsRegistry,
        SpanBuilder,
        manager_lock_tables,
        render_histogram,
        render_lock_tables,
        render_spans,
        render_waits_for,
        waits_for_edges,
    )

    if args.connect and args.workload:
        print("stats: give a workload or --connect, not both", file=sys.stderr)
        return 2
    if args.connect:
        return _cmd_stats_remote(args)
    if not args.workload:
        print("stats: need a workload or --connect", file=sys.stderr)
        return 2
    if args.prometheus:
        print("stats: --prometheus needs --connect", file=sys.stderr)
        return 2

    resolved = _resolve(args.workload, args.protocol)
    if isinstance(resolved, int):
        return resolved
    factory, (protocol,) = resolved

    spans = SpanBuilder()
    registry = MetricsRegistry()
    run, _ = _observed_run(args, factory, protocol, sinks=[spans], registry=registry)
    # The run stops at the duration cutoff, where in-flight transactions
    # still hold their locks — the interesting moment to snapshot.
    (site,) = run.sites.values()
    locks = manager_lock_tables(site.engine.manager)
    waits = waits_for_edges(run.waits)
    if args.json:
        snapshot = registry.snapshot()
        snapshot["lock_tables"] = locks
        snapshot["waits_for"] = waits
        import json

        print(json.dumps(snapshot, indent=2, default=repr))
        return 0

    print(f"workload={args.workload} protocol={protocol.name} "
          f"duration={args.duration:g} seed={args.seed}")
    print()
    for name in ("txn.begun", "txn.committed", "txn.aborted",
                 "lock.conflicts", "lock.blocks", "lock.waits",
                 "lock.deadlocks", "compaction.advances",
                 "compaction.collapsed_ops", "wal.appends"):
        counter = registry.counters.get(name)
        if counter is not None:
            print(f"  {name:28s} {counter.value:>10g}")
    print()
    for name in ("txn.latency", "txn.abort_latency"):
        histogram = registry.histograms.get(name)
        if histogram is not None and histogram.total:
            print(render_histogram(histogram))
            print()
    breakdown = registry.conflict_breakdown()
    if breakdown:
        print("conflicts by operation pair:")
        for name, value in breakdown.items():
            print(f"  {name:52s} {value:>8g}")
        print()
    if registry.gauges:
        print("gauges:")
        for name, gauge in sorted(registry.gauges.items()):
            print(f"  {name:52s} {gauge.value!r:>8}")
        print()
    print("lock tables at the duration cutoff:")
    print(render_lock_tables(locks))
    print()
    print("waits-for graph (waiter -> holder):")
    print(render_waits_for(waits))
    if args.spans:
        print()
        print(render_spans(spans.spans, limit=args.spans))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import (
        WIRE_LATENCY_BUCKETS,
        FlightRecorder,
        JSONLSink,
        MetricsRegistry,
        RegistrySink,
        SamplingProfiler,
        TraceBus,
    )
    from .server import ReproServer

    tracer = TraceBus()
    registry = MetricsRegistry()
    # The server's bus clock is real time, so the registry's latency
    # histograms need real-seconds buckets (the simulator's default
    # buckets would swallow every request into the first one).
    tracer.subscribe(RegistrySink(registry, latency_buckets=WIRE_LATENCY_BUCKETS))
    sinks = []
    if args.trace_file:
        sinks.append(tracer.subscribe(JSONLSink(args.trace_file)))
    profiler = SamplingProfiler() if args.profile_dir else None
    flight = None
    if not args.no_flight:
        flight = tracer.subscribe(
            FlightRecorder(
                args.flight_dir, queue_high_water=args.queue_limit, emit_to=tracer
            )
        )
    pool = None
    if args.processes:
        from pathlib import Path

        from .server import ShardProcessPool

        data_dir = Path(args.data_dir)
        pool = ShardProcessPool(
            args.processes,
            data_dir,
            trace_dir=data_dir / "traces" if args.trace_file else None,
            protocol=args.protocol,
        )
        pool.start()  # its shards take the --object creates below
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        protocol=args.protocol,
        tracer=tracer,
        drain_grace=args.drain_grace,
        flush_on_drain=sinks,
        registry=registry,
        flight=flight,
        profiler=profiler,
        profile_dir=args.profile_dir,
        pool=pool,
    )
    async def run() -> int:
        # Objects are created before start(): from then on a process
        # shard's pipe belongs to the server's worker for it.
        for spec in args.object or []:
            name, _, adt = spec.partition(":")
            try:
                server.create_object(name, adt or "Account")
            except (KeyError, ValueError) as exc:
                print(f"serve: cannot create {spec!r}: {exc}", file=sys.stderr)
                await server.drain()
                return 2
        host, port = await server.start()
        server.install_signal_handlers([signal.SIGTERM, signal.SIGINT])
        tier = (
            f"{args.processes} shard process(es), group commit"
            if pool is not None
            else f"{server.workers} worker(s)"
        )
        print(
            f"serving on {host}:{port} "
            f"({tier}, queue limit {server.queue_limit}); "
            "SIGTERM/SIGINT drains gracefully",
            flush=True,
        )
        await server.serve_forever()
        return 0

    status = asyncio.run(run())
    for sink, exc in tracer.failures:
        print(
            f"serve: trace sink {type(sink).__name__} failed and was "
            f"detached: {exc!r}",
            file=sys.stderr,
        )
    if status:
        return status
    print(
        f"drained: {server.stats['requests']} request(s), "
        f"{server.stats['transactions_committed']} committed, "
        f"{server.stats['transactions_aborted']} aborted, "
        f"{server.stats['busy']} BUSY refusal(s)"
    )
    if args.trace_file:
        print(f"trace written to {args.trace_file}")
    if profiler is not None:
        print(
            f"profile ({profiler.samples} sample(s) @ {profiler.hz:g}Hz) "
            f"written to {args.profile_dir}"
        )
    if flight is not None and flight.dumps:
        print(
            f"flight recorder left {len(flight.dumps)} dump(s) "
            f"in {args.flight_dir} (last: {flight.last_reason})"
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .server import run_top

    address = _parse_address(args.connect)
    if address is None:
        print(f"top: bad --connect address {args.connect!r}", file=sys.stderr)
        return 2
    if args.iterations is not None and args.iterations <= 0:
        print("top: --iterations must be positive", file=sys.stderr)
        return 2
    try:
        frames = run_top(
            *address, interval=args.interval, iterations=args.iterations
        )
    except (OSError, ConnectionError) as exc:
        print(f"top: cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    return 0 if frames else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import os

    from .obs import analyze_trace, read_jsonl, render_postmortem

    if not os.path.isfile(args.trace):
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    if args.slowest < 0:
        print("analyze: --slowest must be non-negative", file=sys.stderr)
        return 2
    report = analyze_trace(read_jsonl(args.trace), slowest=args.slowest)
    if not report["events"]:
        print(f"analyze: {args.trace} holds no events", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, default=repr))
    else:
        sys.stdout.write(render_postmortem(report))
    return 0 if not report["violations"] else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import os

    from .obs import read_profile, render_profile

    if not os.path.exists(args.path):
        print(f"no such profile: {args.path}", file=sys.stderr)
        return 2
    if args.top <= 0:
        print("profile: --top must be positive", file=sys.stderr)
        return 2
    try:
        report = read_profile(args.path)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"profile: cannot load {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, default=repr))
        return 0
    sys.stdout.write(render_profile(report, top=args.top))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from .obs import AtomicityChecker, read_jsonl

    if args.trace_file:
        if args.workload:
            print(
                "check: give a workload or --trace-file, not both",
                file=sys.stderr,
            )
            return 2
        import os

        if not os.path.isfile(args.trace_file):
            print(f"no such trace file: {args.trace_file}", file=sys.stderr)
            return 2
        checker = AtomicityChecker()
        checker.replay(read_jsonl(args.trace_file))
    else:
        if not args.workload:
            print("check: need a workload or --trace-file", file=sys.stderr)
            return 2
        resolved = _resolve(args.workload, args.protocol)
        if isinstance(resolved, int):
            return resolved
        factory, (protocol,) = resolved
        _, checker = _observed_run(args, factory, protocol, check=True)
    report = checker.report()
    if args.json:
        print(json.dumps(report, indent=2, default=repr))
    else:
        print(checker.render_report())
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid concurrency control for abstract data types "
        "(Herlihy & Weihl, 1988).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list ADTs, protocols and workloads")

    derive = commands.add_parser(
        "derive", help="derive dependency/commutativity tables for a type"
    )
    derive.add_argument("adt", help="type name, e.g. Account")
    derive.add_argument(
        "--values", nargs="+", help="value domain for the operation universe"
    )
    derive.add_argument(
        "--depth", type=int, default=3, help="bounded-search depth (default 3)"
    )

    audit = commands.add_parser(
        "audit",
        help="re-derive and verify every declared table (all types by default)",
    )
    audit.add_argument("adt", nargs="*", help="type names (default: all)")
    audit.add_argument(
        "--minimal",
        action="store_true",
        help="also require the declared dependency relation to be minimal",
    )

    report = commands.add_parser(
        "report", help="generate the full reproduction report (markdown)"
    )
    report.add_argument("--output", help="write to a file instead of stdout")
    report.add_argument(
        "--results",
        help="benchmarks/results directory to splice in (optional)",
    )

    simulate = commands.add_parser(
        "simulate", help="run a simulated workload under protocols"
    )
    simulate.add_argument(
        "workload", help="a workload name from `python -m repro list`"
    )
    simulate.add_argument(
        "--protocol",
        nargs="+",
        default=[p.name for p in ALL_PROTOCOLS],
        help="protocols to compare (default: all locking protocols)",
    )
    simulate.add_argument("--duration", type=float, default=300.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="Poisson rate of manager crashes (locking engines only)",
    )
    simulate.add_argument(
        "--crash-seed", type=int, default=None, help="separate seed for crash times"
    )
    simulate.add_argument(
        "--wal-dir",
        default=None,
        help="directory for on-disk write-ahead logs (one subdir per protocol)",
    )
    simulate.add_argument(
        "--verbose",
        action="store_true",
        help="also print per-protocol conflict breakdowns and gauges",
    )
    simulate.add_argument(
        "--trace-file",
        default=None,
        help="write the structured event trace (JSONL) here",
    )
    simulate.add_argument(
        "--check",
        action="store_true",
        help="attach the online atomicity checker and print a verdict "
        "per protocol (exit 1 on any violation)",
    )
    simulate.set_defaults(wait_policy="retry")  # no flag: it compares protocols

    recover = commands.add_parser(
        "recover", help="rebuild a manager from a write-ahead log directory"
    )
    recover.add_argument("logdir", help="directory holding wal.jsonl")
    recover.add_argument(
        "--verbose",
        action="store_true",
        help="print every wal.replay / site.recover event",
    )
    recover.add_argument(
        "--trace-file",
        default=None,
        help="write the recovery event trace (JSONL) here",
    )

    def add_run_options(
        subparser: argparse.ArgumentParser, omit_with: Optional[str] = None
    ) -> None:
        """One observed run: what ``trace``, ``stats`` and ``check`` share
        (``omit_with`` names the flag that replaces the workload)."""
        if omit_with:
            subparser.add_argument(
                "workload", nargs="?", default=None,
                help="a workload name from `python -m repro list` "
                f"(omit with {omit_with})",
            )
        else:
            subparser.add_argument(
                "workload", help="a workload name from `python -m repro list`"
            )
        subparser.add_argument(
            "--protocol", default="hybrid",
            help="one protocol from `python -m repro list`",
        )
        subparser.add_argument("--duration", type=float, default=100.0)
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--crash-rate", type=float, default=0.0,
            help="Poisson rate of injected manager crashes (locking engines)",
        )
        subparser.add_argument(
            "--wait-policy", choices=["retry", "block"], default="retry",
            help="refused-lock handling (block enables the waits-for graph)",
        )
        # What only ``simulate`` has flags for.
        subparser.set_defaults(crash_seed=None, wal_dir=None)

    trace = commands.add_parser(
        "trace", help="run a workload and dump the structured event trace"
    )
    add_run_options(trace)
    trace.add_argument(
        "--format",
        choices=["jsonl", "spans", "events", "summary"],
        default="jsonl",
        help="jsonl (machine-readable), spans (per-transaction table), "
        "events, or summary (counts by kind)",
    )
    trace.add_argument(
        "--output", default=None, help="write JSONL here instead of stdout"
    )
    trace.add_argument(
        "--limit", type=int, default=None, help="show only the last N rows"
    )

    stats = commands.add_parser(
        "stats",
        help="run a workload and print histograms, gauges, and lock "
        "snapshots — or query a live server with --connect",
    )
    add_run_options(stats, omit_with="--connect")
    stats.add_argument(
        "--json", action="store_true", help="dump the registry snapshot as JSON"
    )
    stats.add_argument(
        "--spans", type=int, default=0, metavar="N",
        help="also show the last N per-transaction spans",
    )
    stats.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="query a running server's in-band stats op instead of "
        "running a workload",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="with --connect: render the snapshot's metrics in Prometheus "
        "text exposition format",
    )

    lint = commands.add_parser(
        "lint",
        help="statically check the repo's concurrency-control invariants",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    serve = commands.add_parser(
        "serve", help="boot the socket serving tier (drains on SIGTERM)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7400, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="manager shards (objects are partitioned by name)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-worker queue high-water mark (BUSY beyond it)",
    )
    serve.add_argument(
        "--protocol", default="hybrid",
        choices=[p.name for p in ALL_PROTOCOLS],
        help="locking protocol (conflict relation) for served objects",
    )
    serve.add_argument(
        "--object", action="append", metavar="NAME[:ADT]",
        help="pre-create an object (repeatable; ADT defaults to Account)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds to let in-flight transactions finish on drain",
    )
    serve.add_argument(
        "--trace-file", default=None,
        help="record the event trace (JSONL) for offline certification",
    )
    serve.add_argument(
        "--flight-dir", default="flight",
        help="directory for flight-recorder anomaly dumps (default: flight)",
    )
    serve.add_argument(
        "--no-flight", action="store_true",
        help="disable the always-on flight recorder",
    )
    serve.add_argument(
        "--profile-dir", default=None,
        help="run the sampling wall-clock profiler and dump "
        "profile.folded / profile.json here on drain",
    )
    serve.add_argument(
        "--processes", type=int, default=0, metavar="N",
        help="shard across N WAL-backed worker processes instead of "
        "in-process shards (shared-nothing; survives restarts)",
    )
    serve.add_argument(
        "--data-dir", default="serve_data",
        help="per-shard WAL/trace root for --processes (default: serve_data)",
    )
    serve.add_argument(
        "--durability", choices=["group"], default="group",
        help="accepted for command-line compatibility only: shard "
        "processes always log under group commit (one fsync per batch)",
    )

    profile = commands.add_parser(
        "profile",
        help="render a profile dump: the sampler's hottest frames and stacks",
    )
    profile.add_argument(
        "path",
        help="a profile.json dump, a .folded collapsed-stack file, or a "
        "--profile-dir directory",
    )
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows per table (default 15)",
    )
    profile.add_argument(
        "--json", action="store_true", help="print the raw report as JSON"
    )

    top = commands.add_parser(
        "top",
        help="live refresh view over a running server (rates, queues, "
        "latency quantiles, hottest conflicts)",
    )
    top.add_argument(
        "--connect", default="127.0.0.1:7400", metavar="HOST:PORT",
        help="server address (default 127.0.0.1:7400)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )

    analyze = commands.add_parser(
        "analyze",
        help="postmortem report from a recorded server trace or flight dump",
    )
    analyze.add_argument(
        "trace", help="a JSONL trace file (serve --trace-file or a "
        "flight-recorder dump)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="print the raw report as JSON"
    )
    analyze.add_argument(
        "--slowest", type=int, default=5, metavar="N",
        help="how many slowest transactions to show phase budgets for",
    )

    check = commands.add_parser(
        "check",
        help="certify a run hybrid atomic (live workload or recorded trace)",
    )
    add_run_options(check, omit_with="--trace-file")
    check.add_argument(
        "--trace-file",
        default=None,
        help="replay this recorded JSONL trace instead of running a workload",
    )
    check.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "derive": _cmd_derive,
        "audit": _cmd_audit,
        "report": _cmd_report,
        "simulate": _cmd_simulate,
        "recover": _cmd_recover,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "check": _cmd_check,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "analyze": _cmd_analyze,
        "profile": _cmd_profile,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
