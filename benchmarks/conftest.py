"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's artifacts (a figure table
or a concurrency claim), asserts the reproduction checks, and saves the
rendered output under ``benchmarks/results/`` so the numbers behind
EXPERIMENTS.md can be re-created with::

    pytest benchmarks/ --benchmark-only
"""

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def save_artifact():
    """Write a named artifact to benchmarks/results/ and echo it.

    ``data`` (optional) additionally writes ``<name>.json`` next to the
    text artifact — the machine-readable twin EXPERIMENTS.md tooling and
    downstream analysis read instead of re-parsing the table.
    """

    def _save(name: str, text: str, data=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        if data is not None:
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(data, indent=2, sort_keys=True, default=repr) + "\n"
            )
        print(f"\n=== {name} ===\n{text}\n")

    return _save


def run_observed(workload, protocol, **kwargs):
    """``run_experiment`` with a metrics registry attached.

    Returns ``(metrics, registry)`` — the registry carries the
    event-derived conflict breakdown (by operation pair) and compaction
    gauges that benchmark JSON artifacts report.
    """
    from repro.obs import MetricsRegistry
    from repro.sim import run_experiment

    registry = MetricsRegistry()
    metrics = run_experiment(workload, protocol, registry=registry, **kwargs).metrics
    return metrics, registry


def certified_run(workload, protocol, **kwargs):
    """``run_experiment`` with the streaming atomicity checker attached.

    Returns ``(metrics, report)`` where ``report`` is the checker's
    verdict dict; asserts the run certified clean, so every benchmark
    that uses this helper doubles as an end-to-end oracle check.
    """
    from repro.obs import AtomicityChecker, TraceBus
    from repro.sim import run_experiment

    bus = TraceBus()
    checker = bus.subscribe(AtomicityChecker(emit_to=bus))
    metrics = run_experiment(workload, protocol, tracer=bus, **kwargs).metrics
    report = checker.report()
    assert report["ok"], checker.render_report()
    return metrics, report


def certification_data(report):
    """The JSON-artifact verdict block for a checker report."""
    return {
        "verdict": report["verdict"],
        "ok": report["ok"],
        "events": report["events"],
        "transactions": report["transactions"],
        "violations": report["violations"],
    }


def breakdown_data(results):
    """JSON-ready rows from a {protocol: (Metrics, registry)} mapping."""
    data = {}
    for name, (metrics, registry) in results.items():
        data[name] = {
            "metrics": metrics.as_row(),
            "conflicts_by_pair": registry.conflict_breakdown(),
            "gauges": {
                gauge_name: gauge.value
                for gauge_name, gauge in sorted(registry.gauges.items())
            },
        }
    return data


def metrics_table(results, fields=("committed", "conflicts", "throughput", "mean_latency", "abort_rate")):
    """Render a {protocol: Metrics} mapping as an aligned text table."""
    from repro.analysis import render_grid

    rows = []
    for name, metrics in results.items():
        row = metrics.as_row()
        rows.append([name] + [str(row[f]) for f in fields])
    return render_grid(list(fields), rows, corner="protocol")
