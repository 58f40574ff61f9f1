"""Extension experiment X-O — optimistic vs hybrid locking engines.

The paper's Discussion points out that dependency relations also drive
*optimistic* type-specific concurrency control ([9]): execute without
locks, certify at commit.  This benchmark runs both engines (same
dependency tables, same workloads, same simulator knobs) across a
consumer-contention sweep on the FIFO queue.

Expected shape: optimistic throughput leads under this cost model
(refused locks cost per-step backoff, failed certifications only cost the
one commit), but its *wasted work* — validation failures — grows with
contention, while the locking engine wastes time in backoff/retry
(conflicts) instead.  Both engines produce hybrid atomic histories; the
trade is where the waste lands.
"""

from conftest import metrics_table

from repro.protocols import HYBRID, OPTIMISTIC
from repro.sim import QueueWorkload, run_experiment

DURATION = 400.0
SEED = 4


def test_optimistic_vs_locking(benchmark, save_artifact):
    benchmark(
        lambda: run_experiment(
            QueueWorkload(producers=2, consumers=3, ops_per_transaction=3),
            OPTIMISTIC,
            duration=DURATION,
            seed=SEED,
        )
    )

    lines = []
    failures = []
    for consumers in (1, 3, 6):
        workload = lambda: QueueWorkload(
            producers=3, consumers=consumers, ops_per_transaction=3
        )
        locking = run_experiment(
            workload(), HYBRID, duration=DURATION, seed=SEED
        ).metrics
        optimistic = run_experiment(
            workload(), OPTIMISTIC, duration=DURATION, seed=SEED
        ).metrics
        lines.append(f"\nconsumers = {consumers}")
        lines.append(
            metrics_table(
                {"hybrid-locking": locking, "optimistic": optimistic},
                fields=(
                    "committed",
                    "conflicts",
                    "validation_failures",
                    "throughput",
                    "abort_rate",
                ),
            )
        )
        failures.append(optimistic.validation_failures)
        # Same guarantee, different waste profile.
        assert locking.validation_failures == 0
        assert optimistic.conflicts == 0

    # Validation failures grow with consumer contention.
    assert failures[0] < failures[1] < failures[2]

    save_artifact(
        "optimistic_vs_locking",
        "X-O: optimistic certification vs hybrid locking on the FIFO queue\n"
        "(producers=3, duration=400, seed=4)\n" + "\n".join(lines),
    )
