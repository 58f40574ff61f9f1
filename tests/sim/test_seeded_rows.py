"""Seeded §7 rows, pinned to exact values.

Every comparison row is a deterministic function of its seed, so a change
to how clients drive the engine that moves any of these numbers has
changed the experiment, not just its code.  Rows without crashes are
pinned whole; crash-injected rows pin only what a crash cannot recount
(``committed`` and ``crashes``).
"""

import pytest

from repro.protocols import COMMUTATIVITY, HYBRID, OPTIMISTIC
from repro.recovery import CrashPlan, MemoryWAL
from repro.sim import (
    AccountWorkload,
    BankWorkload,
    ClientParams,
    QueueWorkload,
    run_experiment,
)


def row(committed, aborted, conflicts, blocks, throughput, mean_latency,
        conflict_rate, abort_rate, validation_failures=0):
    return {
        "committed": committed,
        "aborted": aborted,
        "conflicts": conflicts,
        "blocks": blocks,
        "throughput": throughput,
        "mean_latency": mean_latency,
        "conflict_rate": conflict_rate,
        "abort_rate": abort_rate,
        "validation_failures": validation_failures,
    }


class TestSingleSiteRows:
    @pytest.mark.parametrize(
        "protocol, expected",
        [
            (HYBRID, row(359, 21, 283, 2, 1.1967, 5.153, 0.1642, 0.0553)),
            (COMMUTATIVITY, row(113, 105, 1841, 2, 0.3767, 9.097, 0.8011, 0.4817)),
        ],
        ids=["hybrid", "commutativity"],
    )
    def test_queue_eight_producers(self, protocol, expected):
        workload = QueueWorkload(producers=8, consumers=1, ops_per_transaction=4)
        metrics = run_experiment(workload, protocol, duration=300, seed=7).metrics
        assert metrics.as_row() == expected

    @pytest.mark.parametrize(
        "protocol, expected",
        [
            (HYBRID, row(150, 0, 417, 0, 0.5, 10.207, 0.4788, 0.0)),
            (COMMUTATIVITY, row(102, 79, 482, 0, 0.34, 11.435, 0.5598, 0.4365)),
        ],
        ids=["hybrid", "commutativity"],
    )
    def test_account_block_policy(self, protocol, expected):
        metrics = run_experiment(
            AccountWorkload(clients=6, accounts=1),
            protocol,
            duration=300,
            seed=2,
            params=ClientParams(wait_policy="block"),
        ).metrics
        assert metrics.as_row() == expected

    def test_queue_optimistic(self):
        metrics = run_experiment(
            QueueWorkload(producers=3, consumers=3), OPTIMISTIC, duration=400, seed=4
        ).metrics
        assert metrics.as_row() == row(
            263, 120, 0, 26, 0.6575, 4.671, 0.0, 0.3133, validation_failures=118
        )


class TestDistributedRows:
    def test_four_sites_spread_two(self):
        run = run_experiment(
            BankWorkload(sites=4, max_spread=2, clients=5), duration=200, seed=7
        )
        assert run.metrics.as_row() == row(
            69, 0, 62, 0, 0.345, 13.452, 0.2263, 0.0
        )
        assert dict(run.network.sent) == {
            "apply_commit": 39,
            "commit": 30,
            "commit-reply": 30,
            "decide": 40,
            "decide-reply": 39,
            "invoke": 278,
            "invoke-reply": 276,
            "prepare": 80,
            "vote": 80,
        }

    def test_crash_rate_with_checkpoints(self):
        names = ["shard0", "shard1", "shard2"]
        run = run_experiment(
            BankWorkload(sites=3, clients=5),
            duration=300,
            seed=7,
            crashes=CrashPlan.seeded(3, names, 300, rate=0.02),
            wals=[MemoryWAL() for _ in names],
            checkpoint_every=25,
        )
        assert (run.metrics.committed, run.metrics.crashes) == (81, 6)
