#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

launches ``python -m repro serve`` as a separate process, drives it over
loopback, checks the answers, and prints one JSON object as the last
line of standard output: the end-to-end metrics (``--trace 0``) or the
per-layer ledger (``--trace 1``).

Suite form::

    python3 benchmarks/e2e/run.py --all [--smoke] [--repeat K] [--out FILE]

runs every workload untraced (``K`` seeds) and traced, prints every
metric by name with its unit and the raw twin of every ``_ref`` number,
and writes the result set ``agree.py`` compares.

Any oracle violation, checker refutation or invalid run exits non-zero
and prints no metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Windows of the suite's smoke mode (same code path, marked ``smoke``).
SMOKE_SECONDS = 3

#: Set-ups timed per untraced run (the median is ``setup_s``).
SETUP_REPEATS = 3

#: Warm-up before every measured window.
WARMUP_S = 2.0


def _bootstrap() -> None:
    """Make ``repro`` and the benchmark's own modules importable, with
    all bytecode kept in the benchmark's scratch directory."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"run.py: {SRC_DIR}/repro is missing - the benchmark drives the "
            "program from source and needs the repository around it",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.pycache_prefix = str(REPO_ROOT / ".bench_build" / "e2e" / "pycache")
    sys.path[:0] = [str(HERE), str(SRC_DIR)]


def stamp(seconds: float, smoke: bool) -> Dict[str, Any]:
    """Provenance every result carries, beside its seed (ROADMAP item
    1(e))."""
    import os

    from spin import REF_SPIN_S

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "seconds": seconds,
        "smoke": smoke,
        "ref_spin_s": REF_SPIN_S,
    }


def run_untraced(workload_name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Set-ups, one measured window, oracle; the end-to-end metrics."""
    import harness
    import metrics
    from plans import WORKLOADS

    workload = WORKLOADS[workload_name]
    with harness.RunDir(f"{workload.name}-e2e") as rundir:
        with harness.Spinner(rundir) as spinner:
            setups = harness.timed_set_ups(workload, rundir, spinner, SETUP_REPEATS)
            outcome = harness.serve_and_measure(
                workload, seed, rundir, spinner, WARMUP_S, seconds
            )
    numbers = metrics.WindowNumbers(outcome.window)
    result = metrics.end_to_end(numbers, setups)
    metrics.check_against("end_to_end", result)
    print(f"== {workload.name} seed {seed}: end to end ({seconds:g} s window) ==")
    print(
        f"  spin median {numbers.spin_ms_median:.2f} ms, range "
        f"{numbers.spin_ms_range:.2f} ms; {numbers.commits} commits; "
        f"abort share {numbers.abort_share:.3f}; generator "
        f"{outcome.window.cpu_share:.2f} of a core"
    )
    raw = {
        "setup_s": None,
        "txn_per_s_ref": numbers.raw_txn_per_s,
        "p50_ms_ref": numbers.raw_p50_ms,
        "cpu_ms_per_txn_ref": numbers.raw_cpu_ms_per_txn,
    }
    for name, entry in result.items():
        twin = f"   (raw wall-clock {raw[name]:.4f})" if raw[name] is not None else ""
        print(f"  {name:<24}{entry['value']:>12.4f} {entry['unit']}{twin}")
    return {
        "correct": True,
        "attempted": outcome.started_txns,
        "failed": sum(outcome.failed.values()),
        "metrics": result,
        "host": {
            "spin_ms_median": numbers.spin_ms_median,
            "spin_ms_range": numbers.spin_ms_range,
        },
    }


def run_traced(
    workload_name: str, seed: int, seconds: float, spans_to: Optional[Path] = None
) -> Dict[str, Any]:
    """The per-layer ledger: a served window read from outside, the same
    workload against ``--trace-file``, and the in-process layer run (its
    spans are written to ``spans_to`` when the run ends)."""
    import harness
    import layers
    import metrics
    import traced
    from plans import WORKLOADS

    workload = WORKLOADS[workload_name]
    with harness.RunDir(f"{workload.name}-layers") as rundir:
        with harness.Spinner(rundir) as spinner:
            plain = rundir / "plain"
            plain.mkdir()
            outcome = harness.serve_and_measure(
                workload,
                seed,
                plain,
                spinner,
                WARMUP_S / 2,
                seconds * 0.4,
                live_probe=traced.live_probe,
            )
            wired = rundir / "traced"
            wired.mkdir()
            traced_outcome = harness.serve_and_measure(
                workload,
                seed,
                wired,
                spinner,
                WARMUP_S / 2,
                seconds * 0.2,
                read_trace=traced.analyse,
            )
        numbers = metrics.WindowNumbers(outcome.window)
        result = metrics.served_layers(outcome, numbers)
        result.update(outcome.live)
        result.update(traced_outcome.trace_metrics)
        traced_numbers = metrics.WindowNumbers(traced_outcome.window)
        result["obs.trace_file_overhead_share"] = metrics.metric(
            1.0 - traced_numbers.txn_per_s_ref / numbers.txn_per_s_ref, "ratio"
        )
        harness.place_alone()
        layer_metrics, ledger, recorder = layers.layer_run(seconds * 0.3, rundir)
    if spans_to is not None:
        recorder.dump(spans_to)
    result.update(layer_metrics)
    solo_p50_us = result["server.server.solo_p50_us_ref"]["value"]
    layer_sum = sum(ledger.values())
    result["server.server.residual_us_per_txn_ref"] = metrics.metric(
        solo_p50_us - layer_sum, "us"
    )
    metrics.check_against("per_layer", result)
    print(f"== {workload.name} seed {seed}: per layer ==")
    for name in sorted(result):
        entry = result[name]
        print(f"  {name:<48}{entry['value']:>14.4f} {entry['unit']}")
    print("  -- the solo transaction's ledger (reference us of self time) --")
    for name in sorted(ledger):
        print(f"  {name:<48}{ledger[name]:>14.2f} us")
    print(
        f"  Σ layers {layer_sum:.2f} us + residual "
        f"{solo_p50_us - layer_sum:.2f} us = solo p50 {solo_p50_us:.2f} us"
    )
    return {
        "correct": True,
        "attempted": outcome.started_txns + traced_outcome.started_txns,
        "failed": sum(outcome.failed.values()) + sum(traced_outcome.failed.values()),
        "metrics": result,
    }


def _raise_exit(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_SECONDS} s windows, results marked smoke")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload (seeds seed..seed+K-1)")
    parser.add_argument("--out", help="write the result set here (nothing is written outside the scratch directory otherwise)")
    args = parser.parse_args(argv)
    _bootstrap()
    # A terminated benchmark must still stop its server tree.
    signal.signal(signal.SIGTERM, _raise_exit)

    import harness
    import metrics
    from loadgen import GeneratorError
    from oracle import OracleViolation
    from plans import WORKLOADS
    from serverproc import BenchError, refuse_strays

    declared = metrics.declared()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else declared["run_seconds"]
    names = list(WORKLOADS) if args.all else [args.workload]
    if names == [None] or any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} (or use --all)")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        print("run.py: BENCHMARK.json workloads differ from plans.py", file=sys.stderr)
        return 2
    jobs = []  # (workload, trace, seed)
    for name in names:
        if args.all:
            jobs += [(name, 0, args.seed + k) for k in range(args.repeat)]
            jobs.append((name, 1, args.seed))
        else:
            jobs.append((name, args.trace, args.seed))
    provenance = stamp(seconds, args.smoke)
    records: List[Dict[str, Any]] = []
    try:
        refuse_strays()
        harness.prepare_build()
        for name, trace, seed in jobs:
            started = time.time()
            if trace:
                spans = Path(f"{args.out}.{name}.spans.tsv") if args.out else None
                result = run_traced(name, seed, seconds, spans)
            else:
                result = run_untraced(name, seed, seconds)
            if result["failed"]:
                print(f"  FAILED transactions: {result['failed']} of {result['attempted']}")
            records.append(
                {
                    "workload": name,
                    "trace": trace,
                    "wall_s": time.time() - started,
                    "stamp": {**provenance, "seed": seed},
                    **result,
                }
            )
            sys.stdout.flush()
    except (OracleViolation, BenchError, GeneratorError, AssertionError) as exc:
        print(f"run.py: INVALID RUN - {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    last = records[-1]
    print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
