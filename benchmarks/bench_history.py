"""Bench history: one headline line per run, append-only.

``repro bench compare OLD.json NEW.json`` answers "did this change
regress the serving tier?" for a single pair; this script keeps the
longitudinal record.  Each invocation reads a benchmark artifact,
extracts its headline numbers, and appends one JSON line to
``benchmarks/results/history.jsonl``.  Headlines dispatch on the
artifact name: ``BENCH_serve.json`` rows carry the peak-concurrency
throughput, p50/p99 and certification verdict (the same row ``compare``
judges); ``BENCH_machine_micro.json`` rows carry the plain-machine
hybrid churn rate and the class table's margin over the hand-written
predicate inside and outside the declared universe, so that margin is
tracked over time too.  The log is append-only on
purpose: a rewritten history is no history at all.

Run directly::

    PYTHONPATH=src python benchmarks/bench_history.py BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_history.py BENCH_machine_micro.json
    PYTHONPATH=src python benchmarks/bench_history.py --show 10

or via pytest, which exercises the append/show round trip in a temp
directory without touching the committed log.
"""

import argparse
import datetime
import json
import sys
from pathlib import Path

from repro.server.bench import headline

HISTORY_PATH = Path(__file__).parent / "results" / "history.jsonl"


def machine_micro_headline(data):
    """Headline row for a ``BENCH_machine_micro.json`` artifact."""
    hybrid = data["results"]["plain machine/hybrid"]
    row = {
        "kind": "machine_micro",
        "smoke": data.get("smoke", False),
        "txn_per_second": hybrid["txn_per_second"],
        "transactions": data["transactions"],
    }
    micro = data.get("relation_micro")
    if isinstance(micro, dict):
        for where in ("inside", "outside"):
            row[f"compiled_over_predicate_{where}"] = micro["calls"][where][
                "compiled_over_predicate"
            ]
    return row


def headline_for(artifact_name, data):
    """The headline extractor for an artifact, dispatched by name."""
    if artifact_name == "BENCH_machine_micro.json":
        return machine_micro_headline(data)
    if artifact_name == "BENCH_shard.json":
        from repro.server.shardbench import shard_headline

        return shard_headline(data)
    return headline(data)


def record(artifact_path, history_path=HISTORY_PATH):
    """Append one artifact's headline row to the history log.

    Returns the row written.  Raises ``OSError`` / ``ValueError`` /
    ``KeyError`` on unreadable or malformed artifacts — callers decide
    whether that is fatal (the CLI does; tests catch).
    """
    artifact_path = Path(artifact_path)
    data = json.loads(artifact_path.read_text())
    row = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "artifact": artifact_path.name,
        **headline_for(artifact_path.name, data),
    }
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_history(history_path=HISTORY_PATH):
    """All recorded rows, oldest first (empty list when no log yet)."""
    history_path = Path(history_path)
    if not history_path.is_file():
        return []
    rows = []
    with open(history_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def render_history(rows, last=10):
    """Terminal table of the most recent ``last`` rows."""
    if not rows:
        return "(no history recorded yet)"
    lines = []
    for row in rows[-last:]:
        smoke = " smoke" if row.get("smoke") else ""
        if row.get("kind") == "shard":
            lines.append(
                f"{row['recorded_at']}  {row['txn_per_second']:>9,.0f} txn/s  "
                f"shard pool @{row['workers']} workers  "
                f"{row['speedup_vs_baseline']:.2f}x vs append  "
                f"{row['fsyncs_per_txn']:.2f} fsync/txn  "
                f"{row['verdict']}{smoke}"
            )
            continue
        if row.get("kind") == "machine_micro":
            if "compiled_over_predicate_inside" in row:
                margin = (
                    "table/predicate "
                    f"{row['compiled_over_predicate_inside']:.2f}x inside "
                    f"{row['compiled_over_predicate_outside']:.2f}x outside"
                )
            elif "compiled_over_memoised" in row:  # rows from before PR 15
                margin = f"bitset/memo {row['compiled_over_memoised']:.2f}x"
            else:
                margin = "no relation micro"
            lines.append(
                f"{row['recorded_at']}  {row['txn_per_second']:>9,.0f} txn/s  "
                f"machine-micro hybrid churn  {margin}{smoke}"
            )
            continue
        lines.append(
            f"{row['recorded_at']}  {row['txn_per_second']:>9,.0f} txn/s  "
            f"p50 {row['p50_latency_ms']:>7.2f}ms  "
            f"p99 {row['p99_latency_ms']:>7.2f}ms  "
            f"@{row['clients']} clients  {row['verdict']}{smoke}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts", nargs="*", help="BENCH_serve.json artifact(s) to record"
    )
    parser.add_argument(
        "--history",
        default=str(HISTORY_PATH),
        help="history log to append to (default: benchmarks/results/history.jsonl)",
    )
    parser.add_argument(
        "--show",
        type=int,
        default=None,
        metavar="N",
        help="print the last N recorded rows (after any appends)",
    )
    args = parser.parse_args(argv)
    if not args.artifacts and args.show is None:
        parser.print_usage(sys.stderr)
        return 2
    for artifact in args.artifacts:
        try:
            row = record(artifact, history_path=args.history)
        except (OSError, ValueError, KeyError) as failure:
            print(f"FAIL {artifact}: {failure}", file=sys.stderr)
            return 1
        if row.get("kind") == "machine_micro":
            print(
                f"recorded {row['artifact']}: "
                f"{row['txn_per_second']:,.0f} txn/s hybrid churn"
            )
        elif row.get("kind") == "shard":
            print(
                f"recorded {row['artifact']}: "
                f"{row['txn_per_second']:,.0f} txn/s "
                f"@ {row['workers']} shard workers "
                f"({row['speedup_vs_baseline']:.2f}x vs append, "
                f"{row['verdict']})"
            )
        else:
            print(
                f"recorded {row['artifact']}: "
                f"{row['txn_per_second']:,.0f} txn/s "
                f"@ {row['clients']} clients ({row['verdict']})"
            )
    if args.show is not None:
        print(render_history(load_history(args.history), last=args.show))
    return 0


def test_history_round_trip(tmp_path):
    """Append + reload + render against a synthetic artifact."""
    artifact = tmp_path / "BENCH_serve.json"
    artifact.write_text(
        json.dumps(
            {
                "smoke": True,
                "closed_loop": [
                    {
                        "clients": 4,
                        "committed": 10,
                        "stats": {
                            "txn_per_second": 100.0,
                            "p50_latency_ms": 1.0,
                            "p99_latency_ms": 2.0,
                        },
                    },
                    {
                        "clients": 64,
                        "committed": 640,
                        "stats": {
                            "txn_per_second": 1500.0,
                            "p50_latency_ms": 3.0,
                            "p99_latency_ms": 9.0,
                        },
                    },
                ],
                "certification": {"verdict": "clean"},
            }
        )
    )
    log = tmp_path / "history.jsonl"
    first = record(artifact, history_path=log)
    assert first["clients"] == 64, "headline must pick peak concurrency"
    assert first["txn_per_second"] == 1500.0
    record(artifact, history_path=log)
    rows = load_history(log)
    assert len(rows) == 2, "the log must append, not overwrite"
    rendered = render_history(rows, last=1)
    assert "1,500 txn/s" in rendered
    assert "clean smoke" in rendered
    assert main([str(artifact), "--history", str(log), "--show", "3"]) == 0
    assert len(load_history(log)) == 3
    assert main(["--history", str(log)]) == 2, "no artifact and no --show"


def test_machine_micro_history_row(tmp_path):
    """The machine-micro artifact records its own headline shape."""
    artifact = tmp_path / "BENCH_machine_micro.json"
    artifact.write_text(
        json.dumps(
            {
                "smoke": False,
                "transactions": 150,
                "results": {
                    "plain machine/hybrid": {
                        "elapsed_seconds": 0.005,
                        "txn_per_second": 30000.0,
                    }
                },
                "relation_micro": {
                    "calls": {
                        "inside": {"compiled_over_predicate": 1.8},
                        "outside": {"compiled_over_predicate": 2.1},
                    },
                },
            }
        )
    )
    log = tmp_path / "history.jsonl"
    row = record(artifact, history_path=log)
    assert row["kind"] == "machine_micro"
    assert row["txn_per_second"] == 30000.0
    assert row["compiled_over_predicate_inside"] == 1.8
    rendered = render_history(load_history(log))
    assert "machine-micro" in rendered
    assert "1.80x" in rendered
    assert main([str(artifact), "--history", str(log)]) == 0


def test_shard_history_row(tmp_path):
    """The shard-pool artifact records its own headline shape."""
    artifact = tmp_path / "BENCH_shard.json"
    artifact.write_text(
        json.dumps(
            {
                "smoke": True,
                "scaling": [
                    {"workers": 1, "txn_per_second": 1400.0},
                    {"workers": 4, "txn_per_second": 4200.0},
                ],
                "speedup_vs_baseline": 3.0,
                "depth_sweep": [
                    {"batch_depth": 1, "fsyncs_per_txn": 1.0},
                    {"batch_depth": 16, "fsyncs_per_txn": 0.07},
                ],
                "certification": {"verdict": "clean"},
            }
        )
    )
    log = tmp_path / "history.jsonl"
    row = record(artifact, history_path=log)
    assert row["kind"] == "shard"
    assert row["workers"] == 4, "headline must pick the top worker row"
    assert row["txn_per_second"] == 4200.0
    assert row["speedup_vs_baseline"] == 3.0
    assert row["fsyncs_per_txn"] == 0.07
    rendered = render_history(load_history(log))
    assert "shard pool @4 workers" in rendered
    assert "3.00x vs append" in rendered
    assert main([str(artifact), "--history", str(log)]) == 0


if __name__ == "__main__":
    sys.exit(main())
