"""Gate the serving tier's mechanism on counts, not on wall-clock.

Reads a result set written by ``benchmarks/e2e/run.py --all --out F`` and
checks, on its traced records, the counts that say *how* requests were
served — frames per ``recv``, time spent queued, frames and requests per
transaction, fsyncs and WAL records per transaction under group commit,
what a SIGKILL and restart lost or left locked, whether 2PC and the
conflict path were exercised, how often a contended attempt aborted,
certification, transactions that failed
(a hard error, or retries exhausted).  They repeat on a shared
runner where throughput does not, so CI's ``e2e-smoke`` job gates on
them::

    python3 benchmarks/e2e/run.py --all --smoke --out smoke.json
    python3 benchmarks/check_e2e_counts.py smoke.json
"""

import json
import sys
from pathlib import Path

#: Local shards: requests execute in the connection's data_received.
IN_THREAD = ("solo-latency", "mem-uniform", "mem-contended")
#: No conflicts, so no retries: begin + 2 invokes + commit, exactly.
UNIFORM = ("solo-latency", "mem-uniform", "wal-pool")


def check(records):
    """Every violated expectation of the traced ``records``, as text."""
    traced = {run["workload"]: run["metrics"] for run in records if run["trace"]}
    problems = []

    def expect(workload, name, holds, wanted):
        if workload not in traced:
            problems.append(f"{workload}: no traced record")
            return
        value = traced[workload][name]["value"]
        if not holds(value):
            problems.append(f"{workload}: {name} = {value:g}, expected {wanted}")

    # Pipelined requests are answered with one write per read, so the
    # generator's replies arrive several to a recv (1.1 one write each).
    expect("mem-uniform", "loadgen.frames_per_recv", lambda v: v >= 2, ">= 2")
    for workload in IN_THREAD:
        # No queue and no worker task in front of a local shard.
        expect(workload, "server.server.queue_us_p50", lambda v: v == 0, "0")
    for workload in UNIFORM:
        expect(workload, "server.protocol.frames_per_txn", lambda v: v == 8, "8")
        expect(
            workload,
            "server.server.requests_per_txn",
            lambda v: abs(v - 3.0) <= 0.05,
            "3.0 +- 0.05",
        )
    # Group commit: one fsync per pipe batch, so one per transaction
    # submitted alone and a sixteenth each for sixteen submitted together.
    # The log holds one redo record per transaction (its commit; prepare +
    # commit on both shards of a cross-shard one, so ~1.3-1.5 at the plan's
    # 10 % cross share) and none per operation (that would read 5.4).
    # The SIGKILL and restart lost no acknowledged commit and left no
    # prepared transaction holding its locks.  What was certified went
    # through cross-shard 2PC and, contended, through lock refusals —
    # most of which wait for their holder instead of aborting, so few
    # attempts abort and a commit costs little over its 12-frame floor
    # (begin + 4 invokes + commit, each a request and a reply).
    for workload, name, holds, wanted in (
        ("mem-contended", "loadgen.abort_share", lambda v: v <= 0.05, "<= 0.05"),
        (
            "mem-contended",
            "server.protocol.frames_per_txn",
            lambda v: v <= 12.5,
            "<= 12.5",
        ),
        ("wal-pool", "server.procpool.fsyncs_per_txn_depth1", lambda v: v == 1, "1"),
        ("wal-pool", "server.procpool.fsyncs_per_txn_depth16", lambda v: v < 1, "< 1"),
        ("wal-pool", "recovery.wal.records_per_txn", lambda v: 1 <= v < 2, "in [1, 2)"),
        ("wal-pool", "recovery.recovery.acked_lost", lambda v: v == 0, "0"),
        ("wal-pool", "recovery.recovery.unresolved_locks", lambda v: v == 0, "0"),
        ("wal-pool", "server.procpool.cross_share", lambda v: v > 0, "> 0"),
        ("mem-contended", "core.lock_machine.conflict_share", lambda v: v > 0, "> 0"),
    ):
        expect(workload, name, holds, wanted)
    for workload in sorted(traced):
        expect(workload, "obs.certified", lambda v: v == 1, "1")
        # No transaction the generator ran ended in a hard error.
        expect(workload, "loadgen.failed_share", lambda v: v == 0, "0")
    return problems


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_e2e_counts.py RESULT_SET.json", file=sys.stderr)
        return 2
    problems = check(json.loads(Path(argv[0]).read_text())["runs"])
    for problem in problems:
        print(f"check_e2e_counts: {problem}", file=sys.stderr)
    if not problems:
        print("check_e2e_counts: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
