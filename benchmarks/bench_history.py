"""Bench history: one headline line per run, append-only.

``benchmarks/e2e/agree.py A.json B.json`` answers "did this change move
the served numbers?" for a pair of runs; this script keeps the
longitudinal record of the kernel micro-benchmark.  Each invocation
reads a ``BENCH_machine_micro.json`` artifact, extracts its headline
numbers — the plain-machine hybrid churn rate and the class table's
margin over the hand-written predicate inside and outside the declared
universe — and appends one JSON line to
``benchmarks/results/history.jsonl``.  The log is append-only on
purpose: a rewritten history is no history at all, so rows of a kind no
longer recorded stay in the file and render as one generic line.

Run directly::

    python benchmarks/bench_history.py BENCH_machine_micro.json
    python benchmarks/bench_history.py --show 10

or via pytest, which exercises the append/show round trip in a temp
directory without touching the committed log.
"""

import argparse
import datetime
import json
import sys
from pathlib import Path

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


def record(artifact_path, history_path=HISTORY_PATH):
    """Append one artifact's headline row to the history log.

    Returns the row written.  Raises ``OSError`` / ``ValueError`` /
    ``KeyError`` on unreadable or malformed artifacts — callers decide
    whether that is fatal (the CLI does; tests catch).
    """
    artifact_path = Path(artifact_path)
    if artifact_path.name != "BENCH_machine_micro.json":
        raise ValueError(f"no headline is recorded for {artifact_path.name!r}")
    data = json.loads(artifact_path.read_text())
    row = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "artifact": artifact_path.name,
        **machine_micro_headline(data),
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
        if row.get("kind") != "machine_micro":
            lines.append(
                f"{row['recorded_at']}  {row['txn_per_second']:>9,.0f} txn/s  "
                f"{row['artifact']} (kind {row.get('kind')!r}, "
                f"no longer recorded){smoke}"
            )
        else:
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
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts", nargs="*",
        help="BENCH_machine_micro.json artifact(s) to record",
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
        print(
            f"recorded {row['artifact']}: "
            f"{row['txn_per_second']:,.0f} txn/s hybrid churn"
        )
    if args.show is not None:
        print(render_history(load_history(args.history), last=args.show))
    return 0


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
    assert main([str(artifact), "--history", str(log), "--show", "3"]) == 0
    assert len(load_history(log)) == 2, "the log must append, not overwrite"
    assert main(["--history", str(log)]) == 2, "no artifact and no --show"
    other = tmp_path / "BENCH_hot_path.json"
    other.write_text("{}")
    assert main([str(other), "--history", str(log)]) == 1
    assert len(load_history(log)) == 2


def test_committed_history_still_renders():
    """The log is append-only: a row of a kind no longer recorded (the
    2026-08-09 shard-pool row) renders as one generic line."""
    rows = load_history()
    rendered = render_history(rows, last=len(rows)).splitlines()
    assert len(rendered) == len(rows)
    assert any("(kind 'shard', no longer recorded)" in line for line in rendered)


if __name__ == "__main__":
    sys.exit(main())
