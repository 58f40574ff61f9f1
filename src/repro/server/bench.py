"""Closed- and open-loop load generation against the serving tier.

Boots a :class:`~repro.server.ReproServer` and drives it with real
socket clients on the same event loop:

* **closed loop** — *N* connections each running transactions
  back-to-back; sweeping *N* maps the throughput/latency curve as
  concurrency grows (the classic saturation plot);
* **open loop** — transactions *arrive* at a fixed offered rate
  regardless of completion, so queueing delay shows up in the latency
  tail instead of being hidden by client back-off (closed-loop
  coordinated omission).

Latency is measured per transaction, begin-to-commit-ack, from the
*scheduled arrival* in the open-loop case.  Every run ends with a
graceful drain, and the JSONL trace the server emitted is replayed
through the :class:`~repro.obs.AtomicityChecker` — the throughput
numbers are only reported alongside the oracle's verdict that the served
run was hybrid atomic.  The artifact (``BENCH_serve.json``) is validated
by ``benchmarks/bench_schema.py``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..obs import (
    WIRE_LATENCY_BUCKETS,
    AtomicityChecker,
    FlightRecorder,
    MetricsRegistry,
    RegistrySink,
    SamplingProfiler,
    SpanBuilder,
    TraceBus,
    contention_profile,
    critical_path,
    write_profile,
)
from ..obs.sinks import JSONLSink, read_jsonl
from .client import AsyncClient
from .engine import shard_for
from .protocol import WireError
from .server import ReproServer

__all__ = [
    "run_serve_bench",
    "render_summary",
    "headline",
    "compare_artifacts",
    "render_comparison",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Closed-loop concurrency sweep (the smoke variant still covers the
#: 64-connection acceptance floor).
CLOSED_LOOP_CLIENTS = (1, 8, 32, 64, 128)
SMOKE_CLOSED_LOOP_CLIENTS = (8, 64)

#: Open-loop offered rates (transactions per second).
OPEN_LOOP_RATES = (100.0, 400.0)
SMOKE_OPEN_LOOP_RATES = (150.0,)

ADT_NAME = "Account"
OPERATION = "Credit"
#: Hot-object transactions debit instead of credit: Credit/Credit
#: commutes under the hybrid relation (queueing only), but Debit-Ok
#: holds DEBIT_LOCK, and DEBIT_LOCK × DEBIT_LOCK *conflicts* — so the
#: hot object exercises the real conflict path and the contention
#: profiler has something to attribute.  The hot account is seeded with
#: a large opening balance so every debit lands in its Ok outcome.
HOT_OPERATION = "Debit"
HOT_SEED_BALANCE = 10**9
OPS_PER_TXN = 2
#: Every HOT_EVERY-th transaction runs entirely against one shared
#: object, so the sweep exercises real lock contention.
HOT_EVERY = 8


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def _txn_stats(latencies: List[float], elapsed: float) -> Dict[str, float]:
    ranked = sorted(latencies)
    return {
        "transactions": len(latencies),
        "elapsed_seconds": elapsed,
        "txn_per_second": len(latencies) / elapsed,
        "p50_latency_ms": _percentile(ranked, 0.50) * 1e3,
        "p99_latency_ms": _percentile(ranked, 0.99) * 1e3,
    }


async def _one_transaction(
    client: AsyncClient,
    obj: str,
    ops_per_txn: int,
    counters: Dict[str, int],
    operation: str = OPERATION,
) -> bool:
    """Run one single-operation transaction; True if it committed."""
    try:
        handle = await client.begin()
    except WireError as exc:
        counters[exc.code] = counters.get(exc.code, 0) + 1
        return False
    try:
        for _ in range(ops_per_txn):
            await client.invoke(handle, obj, operation, 1)
        await client.commit(handle)
    except WireError as exc:
        counters[exc.code] = counters.get(exc.code, 0) + 1
        try:
            await client.abort(handle)
        except (WireError, ConnectionError):
            pass
        return False
    return True


async def _closed_loop_client(
    host: str,
    port: int,
    client_index: int,
    objects: Sequence[str],
    hot_object: str,
    duration: float,
    ops_per_txn: int,
    latencies: List[float],
    counters: Dict[str, int],
) -> int:
    """One closed-loop connection: transactions back-to-back until the
    deadline.  Returns the number of committed transactions."""
    client = await AsyncClient.connect(host, port)
    loop = asyncio.get_event_loop()
    deadline = loop.time() + duration
    committed = 0
    iteration = 0
    own = objects[client_index % len(objects)]
    try:
        while loop.time() < deadline:
            hot = iteration % HOT_EVERY == HOT_EVERY - 1
            obj = hot_object if hot else own
            operation = HOT_OPERATION if hot else OPERATION
            started = loop.time()
            if await _one_transaction(
                client, obj, ops_per_txn, counters, operation
            ):
                latencies.append(loop.time() - started)
                committed += 1
            iteration += 1
    finally:
        await client.aclose()
    return committed


async def _closed_loop_level(
    host: str,
    port: int,
    clients: int,
    objects: Sequence[str],
    hot_object: str,
    duration: float,
    ops_per_txn: int,
) -> Dict[str, Any]:
    latencies: List[float] = []
    counters: Dict[str, int] = {}
    loop = asyncio.get_event_loop()
    started = loop.time()
    committed = await asyncio.gather(
        *(
            _closed_loop_client(
                host, port, index, objects, hot_object,
                duration, ops_per_txn, latencies, counters,
            )
            for index in range(clients)
        )
    )
    elapsed = loop.time() - started
    return {
        "clients": clients,
        "committed": sum(committed),
        "errors": dict(sorted(counters.items())),
        "stats": _txn_stats(latencies, elapsed),
    }


async def _open_loop_arrival(
    client: AsyncClient,
    obj: str,
    scheduled: float,
    ops_per_txn: int,
    latencies: List[float],
    counters: Dict[str, int],
) -> int:
    loop = asyncio.get_event_loop()
    if await _one_transaction(client, obj, ops_per_txn, counters):
        # Latency from the *scheduled* arrival: queueing delay counts.
        latencies.append(loop.time() - scheduled)
        return 1
    return 0


async def _open_loop_level(
    host: str,
    port: int,
    rate: float,
    duration: float,
    pool_size: int,
    objects: Sequence[str],
    ops_per_txn: int,
) -> Dict[str, Any]:
    pool = [await AsyncClient.connect(host, port) for _ in range(pool_size)]
    loop = asyncio.get_event_loop()
    latencies: List[float] = []
    counters: Dict[str, int] = {}
    arrivals = max(1, int(rate * duration))
    interval = 1.0 / rate
    started = loop.time()
    tasks = []
    try:
        for index in range(arrivals):
            scheduled = started + index * interval
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(
                    _open_loop_arrival(
                        pool[index % pool_size],
                        objects[index % len(objects)],
                        scheduled,
                        ops_per_txn,
                        latencies,
                        counters,
                    )
                )
            )
        committed = sum(await asyncio.gather(*tasks))
        elapsed = loop.time() - started
    finally:
        for client in pool:
            await client.aclose()
    return {
        "offered_txn_per_second": rate,
        "pool": pool_size,
        "offered": arrivals,
        "committed": committed,
        "errors": dict(sorted(counters.items())),
        "stats": _txn_stats(latencies, elapsed),
    }


async def _run(
    smoke: bool,
    workers: int,
    queue_limit: int,
    duration: float,
    trace_path: Path,
    profile_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    registry = MetricsRegistry()
    bus = TraceBus()
    sink = bus.subscribe(JSONLSink(str(trace_path)))
    bus.subscribe(RegistrySink(registry, latency_buckets=WIRE_LATENCY_BUCKETS))
    profiler = SamplingProfiler() if profile_dir is not None else None
    # Always-on flight recorder: the drain trigger guarantees at least
    # one dump per run, so a failed CI run always has a replayable
    # snapshot to upload next to the full trace.
    flight = bus.subscribe(
        FlightRecorder(
            str(trace_path.parent / "flight"), emit_to=bus, profiler=profiler
        )
    )
    server = ReproServer(
        workers=workers,
        queue_limit=queue_limit,
        tracer=bus,
        drain_grace=2.0,
        flush_on_drain=[sink],
        registry=registry,
        flight=flight,
        profiler=profiler,
    )
    host, port = await server.start()

    client_levels = SMOKE_CLOSED_LOOP_CLIENTS if smoke else CLOSED_LOOP_CLIENTS
    rate_levels = SMOKE_OPEN_LOOP_RATES if smoke else OPEN_LOOP_RATES
    object_count = max(client_levels)
    objects = [f"acct-{index}" for index in range(object_count)]
    hot_object = "acct-hot"
    for name in objects + [hot_object]:
        server.create_object(name, ADT_NAME)
    # Seed the hot account so the concurrent debits always take the Ok
    # outcome (DEBIT_LOCK), the pair the contention profiler measures.
    seed = [(hot_object, "Credit", (HOT_SEED_BALANCE,))]
    server.pool.shards[shard_for(hot_object, workers)].single(
        {"op": "txn", "name": "bench-seed", "steps": seed}
    )

    closed_loop = []
    for clients in client_levels:
        closed_loop.append(
            await _closed_loop_level(
                host, port, clients, objects, hot_object, duration, OPS_PER_TXN
            )
        )
    open_loop = []
    for rate in rate_levels:
        open_loop.append(
            await _open_loop_level(
                host, port, rate, duration, min(16, object_count),
                objects, OPS_PER_TXN,
            )
        )

    drain = await server.drain()

    checker = AtomicityChecker()
    events = read_jsonl(str(trace_path))
    checker.replay(events)
    report = checker.report()

    # End-to-end span breakdown: replay the same trace through the span
    # builder so the artifact records where a committed transaction's
    # wall time went (client wire vs shard queue vs machine execution).
    builder = SpanBuilder()
    for event in events:
        builder(event)
    committed_spans = builder.committed()
    median_phase_ms: Dict[str, Optional[float]] = {}
    for phase in ("client", "queue", "execute", "respond"):
        values = [
            span.phases[phase]
            for span in committed_spans
            if phase in span.phases
        ]
        median_phase_ms[phase] = (
            statistics.median(values) * 1e3 if values else None
        )
    span_breakdown = {
        "committed_spans": len(committed_spans),
        "with_trace": sum(
            1 for span in committed_spans if span.trace is not None
        ),
        "median_phase_ms": median_phase_ms,
    }

    # Phase-budget attribution (milliseconds) over the committed spans,
    # and blocked time attributed per conflict pair — both from the same
    # replayed trace, so they describe exactly the certified run.
    critical = critical_path(committed_spans, scale=1e3)
    contention = contention_profile(events)
    if profile_dir is not None:
        write_profile(
            str(profile_dir),
            profiler=profiler,
            critical=critical,
            contention=contention,
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "adt": ADT_NAME,
        "config": {
            "workers": workers,
            "queue_limit": queue_limit,
            "objects": object_count + 1,
            "ops_per_txn": OPS_PER_TXN,
            "duration_seconds": duration,
        },
        "max_concurrent_clients": max(client_levels),
        "closed_loop": closed_loop,
        "open_loop": open_loop,
        "server": dict(server.stats),
        "drain": drain,
        "span_breakdown": span_breakdown,
        "critical_path": critical,
        "contention": contention,
        "flight": flight.status(),
        "certification": {
            "verdict": report["verdict"],
            "ok": report["ok"],
            "events": report["events"],
            "transactions": report["transactions"],
            "violations": report["violations"],
        },
    }


def run_serve_bench(
    smoke: bool = False,
    workers: int = 2,
    queue_limit: int = 64,
    duration: Optional[float] = None,
    output_dir: Path = REPO_ROOT,
    trace_path: Optional[Path] = None,
    profile_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run the serving benchmark; writes and returns ``BENCH_serve.json``.

    The trace the server emitted is left at ``trace_path`` (default:
    ``serve_trace.jsonl`` next to the artifact) so ``repro check
    --trace-file`` can re-certify the same run out of band.  With
    ``profile_dir`` set, the wall-clock sampler runs for the whole
    serve window and ``profile.folded`` / ``profile.json`` (sampler
    stacks + critical-path + contention reports) land there for
    ``repro profile``.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if trace_path is None:
        trace_path = output_dir / "serve_trace.jsonl"
    if duration is None:
        duration = 0.6 if smoke else 3.0
    result = asyncio.run(
        _run(
            smoke,
            workers,
            queue_limit,
            duration,
            Path(trace_path),
            Path(profile_dir) if profile_dir is not None else None,
        )
    )
    if not result["certification"]["ok"]:
        raise AssertionError(
            f"served run failed certification: {result['certification']}"
        )
    floor = max(
        SMOKE_CLOSED_LOOP_CLIENTS if smoke else CLOSED_LOOP_CLIENTS
    )
    top = next(
        row for row in result["closed_loop"] if row["clients"] == floor
    )
    if top["committed"] <= 0:
        raise AssertionError(
            f"no transactions committed at {floor} concurrent clients"
        )
    (output_dir / "BENCH_serve.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    return result


def render_summary(result: Dict[str, Any]) -> str:
    """A terminal-friendly digest of one ``BENCH_serve.json`` payload."""
    lines = [
        f"serve bench: {result['config']['workers']} worker(s), "
        f"queue limit {result['config']['queue_limit']}, "
        f"{result['config']['objects']} objects"
    ]
    lines.append("closed loop (clients: txn/s, p50/p99 ms):")
    for row in result["closed_loop"]:
        stats = row["stats"]
        lines.append(
            f"  {row['clients']:>4}: {stats['txn_per_second']:>9,.0f} txn/s"
            f"  p50 {stats['p50_latency_ms']:>7.2f}  p99"
            f" {stats['p99_latency_ms']:>7.2f}"
            + (f"  errors {row['errors']}" if row["errors"] else "")
        )
    lines.append("open loop (offered: achieved txn/s, p50/p99 ms):")
    for row in result["open_loop"]:
        stats = row["stats"]
        lines.append(
            f"  {row['offered_txn_per_second']:>7,.0f}: "
            f"{stats['txn_per_second']:>9,.0f} txn/s"
            f"  p50 {stats['p50_latency_ms']:>7.2f}  p99"
            f" {stats['p99_latency_ms']:>7.2f}"
        )
    cert = result["certification"]
    lines.append(
        f"certification: {cert['verdict']!r} over {cert['events']} events, "
        f"{cert['transactions']['committed']} committed /"
        f" {cert['transactions']['aborted']} aborted"
    )
    drain = result["drain"]
    lines.append(
        f"drain: {drain['sessions']} session(s), {drain['aborted']} force-aborted"
    )
    breakdown = result.get("span_breakdown")
    if breakdown:
        medians = breakdown["median_phase_ms"]
        rendered = "  ".join(
            f"{phase} {value:.3f}ms"
            for phase, value in medians.items()
            if value is not None
        )
        lines.append(
            f"span breakdown ({breakdown['committed_spans']} committed, "
            f"{breakdown['with_trace']} traced): {rendered}"
        )
    critical = result.get("critical_path")
    if critical and critical.get("spans"):
        gating = critical.get("gating") or {}
        ranked = sorted(gating.items(), key=lambda item: (-item[1], item[0]))
        lines.append(
            f"critical path ({100.0 * critical['attributed_fraction']:.1f}% "
            "attributed): "
            + "  ".join(f"{phase} x{count}" for phase, count in ranked)
        )
    contention = result.get("contention")
    if contention:
        lines.append(
            f"contention: {contention['events']} blocked event(s), "
            f"{contention['blocked_time'] * 1e3:.1f}ms across "
            f"{contention['pairs']} pair(s)"
        )
        for row in (contention.get("rows") or [])[:3]:
            lines.append(
                f"  {row['blocked_time'] * 1e3:>9.3f}ms  {row['object']}: "
                f"{row['pair']}  [{row['relation']}]"
            )
    flight = result.get("flight")
    if flight:
        lines.append(
            f"flight recorder: {flight['dumps']} dump(s), "
            f"{flight['dropped_events']} event(s) beyond window"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trajectory: headline numbers, history, and regression comparison
# ----------------------------------------------------------------------

#: Regression thresholds for ``repro bench compare``: a new run is a
#: regression when throughput drops more than 20% or p99 inflates more
#: than 50% against the old artifact at the same concurrency level.
THROUGHPUT_REGRESSION = 0.20
P99_REGRESSION = 0.50


def headline(result: Dict[str, Any]) -> Dict[str, Any]:
    """One run's headline numbers: peak-concurrency row + verdict."""
    top = max(result["closed_loop"], key=lambda row: row["clients"])
    stats = top["stats"]
    return {
        "smoke": result.get("smoke", False),
        "clients": top["clients"],
        "txn_per_second": stats["txn_per_second"],
        "p50_latency_ms": stats["p50_latency_ms"],
        "p99_latency_ms": stats["p99_latency_ms"],
        "committed": top["committed"],
        "verdict": result["certification"]["verdict"],
    }


def compare_artifacts(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Dict[str, Any]:
    """Compare two ``BENCH_serve.json`` payloads; flags regressions.

    Returns ``{"ok": bool, "regressions": [...], "old": ..., "new": ...}``
    — ``ok`` is False when the new run's peak-concurrency throughput
    fell more than 20% or its p99 grew more than 50%.
    """
    old_line, new_line = headline(old), headline(new)
    regressions: List[str] = []
    old_tps, new_tps = old_line["txn_per_second"], new_line["txn_per_second"]
    if old_tps > 0 and new_tps < old_tps * (1.0 - THROUGHPUT_REGRESSION):
        regressions.append(
            f"throughput fell {100.0 * (1.0 - new_tps / old_tps):.1f}% "
            f"({old_tps:,.0f} -> {new_tps:,.0f} txn/s; "
            f"budget {100.0 * THROUGHPUT_REGRESSION:.0f}%)"
        )
    old_p99, new_p99 = old_line["p99_latency_ms"], new_line["p99_latency_ms"]
    if old_p99 > 0 and new_p99 > old_p99 * (1.0 + P99_REGRESSION):
        regressions.append(
            f"p99 inflated {100.0 * (new_p99 / old_p99 - 1.0):.1f}% "
            f"({old_p99:.2f}ms -> {new_p99:.2f}ms; "
            f"budget {100.0 * P99_REGRESSION:.0f}%)"
        )
    if old_line["clients"] != new_line["clients"]:
        regressions.append(
            f"incomparable concurrency levels: {old_line['clients']} vs "
            f"{new_line['clients']} clients"
        )
    return {
        "ok": not regressions,
        "regressions": regressions,
        "old": old_line,
        "new": new_line,
    }


def render_comparison(comparison: Dict[str, Any]) -> str:
    """Terminal rendering of a :func:`compare_artifacts` result."""
    old, new = comparison["old"], comparison["new"]
    lines = [
        f"old: {old['txn_per_second']:>9,.0f} txn/s  "
        f"p50 {old['p50_latency_ms']:>7.2f}ms  "
        f"p99 {old['p99_latency_ms']:>7.2f}ms  @ {old['clients']} clients",
        f"new: {new['txn_per_second']:>9,.0f} txn/s  "
        f"p50 {new['p50_latency_ms']:>7.2f}ms  "
        f"p99 {new['p99_latency_ms']:>7.2f}ms  @ {new['clients']} clients",
    ]
    for regression in comparison["regressions"]:
        lines.append(f"REGRESSION: {regression}")
    if comparison["ok"]:
        lines.append("ok: within regression budgets")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--output-dir", default=str(REPO_ROOT))
    parser.add_argument("--profile-dir", default=None)
    args = parser.parse_args(argv)
    result = run_serve_bench(
        smoke=args.smoke,
        workers=args.workers,
        queue_limit=args.queue_limit,
        duration=args.duration,
        output_dir=Path(args.output_dir),
        profile_dir=Path(args.profile_dir) if args.profile_dir else None,
    )
    print(render_summary(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
