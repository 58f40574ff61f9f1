"""CI's count gate over an e2e result set (``benchmarks/check_e2e_counts.py``).

The committed baseline sets are the fixtures: set-A and set-B were taken
before local shards lost their queue (PR 17), and set-B before a full
restart resolved its prepared transactions (PR 14), and both while the
WAL still journalled every invocation and response (PR 24) — so the gate
must flag exactly those and nothing else.  Both also predate a refused
invocation waiting for its holder: every contended refusal aborted.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "check_e2e_counts", BENCHMARKS / "check_e2e_counts.py"
)
check_e2e_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_e2e_counts)

#: What PR 17 changed on purpose; both baseline sets predate it.
PRE_PR17 = [
    "mem-uniform: loadgen.frames_per_recv",
    "solo-latency: server.server.queue_us_p50",
    "mem-uniform: server.server.queue_us_p50",
    "mem-contended: server.server.queue_us_p50",
]
#: One redo record per transaction since PR 24; the sets logged 5.4.
PRE_PR24 = "wal-pool: recovery.wal.records_per_txn"
#: Both sets predate a refused invocation waiting for its holder: every
#: contended refusal aborted (0.21 of attempts, 14.3 frames/txn).
PRE_PARKING = [
    "mem-contended: loadgen.abort_share",
    "mem-contended: server.protocol.frames_per_txn",
]


def baseline(name):
    return json.loads((BENCHMARKS / "e2e" / "baseline" / name).read_text())["runs"]


def flagged(problems):
    """``workload: metric`` of each problem, without the value."""
    return [problem.split(" = ")[0] for problem in problems]


def test_set_a_fails_only_what_pr17_changed():
    problems = check_e2e_counts.check(baseline("set-A.json"))
    assert flagged(problems) == PRE_PR17 + PRE_PARKING + [PRE_PR24]
    assert problems[-1].endswith("expected in [1, 2)")


def test_set_b_also_shows_the_restart_hole():
    # One prepared transaction still held its locks after the restart:
    # the bug PR 14 closed, in a record this repository really produced.
    problems = check_e2e_counts.check(baseline("set-B.json"))
    assert flagged(problems) == PRE_PR17 + PRE_PARKING + [
        PRE_PR24,
        "wal-pool: recovery.recovery.unresolved_locks",
    ]
    assert problems[-1].endswith("= 1, expected 0")


@pytest.mark.parametrize(
    "workload, metric, value",
    [
        ("wal-pool", "server.procpool.fsyncs_per_txn_depth1", 5.0),
        ("wal-pool", "server.procpool.fsyncs_per_txn_depth16", 1.0),
        ("wal-pool", "recovery.recovery.acked_lost", 1.0),
        ("wal-pool", "recovery.recovery.unresolved_locks", 2.0),
        ("wal-pool", "server.procpool.cross_share", 0.0),
        ("mem-contended", "core.lock_machine.conflict_share", 0.0),
        ("wal-pool", "loadgen.failed_share", 0.01),
        ("solo-latency", "loadgen.failed_share", 0.5),
    ],
)
def test_a_doctored_record_trips_its_gate_once(workload, metric, value):
    runs = copy.deepcopy(baseline("set-A.json"))
    for run in runs:
        if run["workload"] == workload and run["trace"]:
            run["metrics"][metric]["value"] = value
    assert sorted(flagged(check_e2e_counts.check(runs))) == sorted(
        PRE_PR17 + PRE_PARKING + [PRE_PR24, f"{workload}: {metric}"]
    )


def test_main_exit_status(tmp_path, capsys):
    main = check_e2e_counts.main
    assert main([]) == 2
    assert main([str(BENCHMARKS / "e2e" / "baseline" / "set-B.json")]) == 1
    assert "unresolved_locks = 1, expected 0" in capsys.readouterr().err
    # Set-A as PRs 17 and 24 would have left it passes every gate.
    runs = baseline("set-A.json")
    for run in runs:
        if run["trace"]:
            run["metrics"]["server.server.queue_us_p50"]["value"] = 0.0
            run["metrics"]["loadgen.frames_per_recv"]["value"] = 8.0
            run["metrics"]["recovery.wal.records_per_txn"]["value"] *= 0.25  # 5.4 -> 1.35
            # ... and as refusals that wait leave the contended row.
            run["metrics"]["loadgen.abort_share"]["value"] = 0.01
            run["metrics"]["server.protocol.frames_per_txn"]["value"] = min(
                8.0, run["metrics"]["server.protocol.frames_per_txn"]["value"]
            )
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps({"runs": runs}))
    assert main([str(clean)]) == 0
    assert "check_e2e_counts: ok" in capsys.readouterr().out
