"""The traced run's two served legs.

:func:`live_probe` runs against the live, idle server right after the
window: the floor of an inline request, the ``solo-latency`` transaction
through the lean generator (what the ledger's residual is taken from)
and through the shipped ``SyncClient`` (the shipped client's view).

:func:`analyse` reads a ``repro serve --trace-file`` JSONL back (merged
by timestamp with the shard children's files in pool mode, as
``repro.server.shardbench`` does) through the program's own
``SpanBuilder`` / ``critical_path`` for the phase medians, and through
``AtomicityChecker`` for the hybrid-atomicity verdict.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.obs import AtomicityChecker, SpanBuilder, critical_path, read_jsonl
from repro.server import SyncClient

from layers import RefClock
from loadgen import Ledger, LoadGenerator
from metrics import Metric, WindowNumbers, metric
from plans import WORKLOADS, Workload, build_plans
from serverproc import BenchError, ServerTree

PROBE_WINDOW_S = 1.0


def live_probe(
    tree: ServerTree, workload: Workload, ledger: Ledger, spinner: Any
) -> Dict[str, Metric]:
    """Measure the idle server's floors; everything committed here is
    appended to ``ledger`` so the oracle still balances."""
    accounts = tuple(o for o in workload.objects if o[1] == "Account")
    solo = dataclasses.replace(WORKLOADS["solo-latency"], objects=accounts)
    out: Dict[str, Metric] = {}

    lean = LoadGenerator(
        tree.host, tree.port, solo, build_plans(solo, seed=0), tree.cpu_seconds
    )
    try:
        window = lean.run(0.2, PROBE_WINDOW_S)
    finally:
        lean.close()
    spinner.ref_seconds(window.started, window.ended)
    window.timeline = spinner.timeline(window.started)
    ledger.committed.extend(lean.ledger.committed)
    out["server.server.solo_p50_us_ref"] = metric(
        WindowNumbers(window).p50_ms_ref * 1e3, "us"
    )

    plan = build_plans(solo, seed=1, txns=256)[0]
    with SyncClient(tree.host, tree.port) as client:
        began = time.perf_counter()
        pings = []
        for _ in range(200):
            started = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - started)
        ended = time.perf_counter()
        out["server.server.ping_rtt_us_ref"] = metric(
            statistics.median(pings)
            * spinner.ref_seconds(began, ended)
            / (ended - began)
            * 1e6,
            "us",
        )
        began = time.perf_counter()
        txns = []
        for txn in plan:
            started = time.perf_counter()
            handle = client.begin()
            effects = []
            for obj, operation, args in txn:
                effects.append((obj, operation, args, client.invoke(handle, obj, operation, *args)))
            stamp = client.commit(handle)
            txns.append(time.perf_counter() - started)
            ledger.committed.append((stamp, effects))
        ended = time.perf_counter()
        out["server.client.sync_txn_us_ref"] = metric(
            statistics.median(txns)
            * spinner.ref_seconds(began, ended)
            / (ended - began)
            * 1e6,
            "us",
        )
    return out


def analyse(paths: Sequence[Path]) -> Dict[str, Metric]:
    """Phase medians and the checker's verdict from a served trace."""
    events: List[Any] = []
    for path in paths:
        events.extend(read_jsonl(str(path)))
    events.sort(key=lambda event: event.ts)
    builder = SpanBuilder()
    for event in events:
        builder(event)
    budget = critical_path(builder.committed(), scale=1e6)["phase_budget"]
    clock = RefClock()  # the checker runs here, on the generator's CPU
    started = time.perf_counter()
    report = AtomicityChecker().replay(events).report()
    seconds = (time.perf_counter() - started) * clock.scale()
    if not report["ok"]:
        raise BenchError(
            f"AtomicityChecker refuted the served run ({report['verdict']}): "
            f"{report['violations'][:2]}"
        )
    return {
        "server.server.queue_us_p50": metric(budget["queue"]["p50"], "us"),
        "server.server.execute_us_p50": metric(budget["execute"]["p50"], "us"),
        "server.server.respond_us_p50": metric(budget["respond"]["p50"], "us"),
        "server.server.lock_wait_us_p50": metric(budget["lock-wait"]["p50"], "us"),
        "obs.checker_events_per_s_ref": metric(
            len(events) / seconds, "1/s"
        ),
        "obs.certified": metric(1, "count"),
    }
