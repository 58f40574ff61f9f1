"""Extension experiment X-D — multi-site transactions over a network.

The paper's setting is "database systems, both distributed and
centralized": timestamps generated by logical clocks and "piggybacked on
the messages of a commit protocol" (§3.3).  This benchmark runs the
multi-site bank with 2PC coordination over the latency-simulating
network, sweeping how many sites one transaction touches.

Every site is a ``ShardEngine`` behind the simulated transport, and the
clients drive the same decision procedure ``ShardSet`` runs for the
served tier.  Expected shape: message cost per transaction grows with
the touched-site count (2 messages per operation; ``commit`` + reply for
one site; for k > 1 sites prepare + vote per participant, ``decide`` +
reply on the primary and one ``apply_commit`` per other participant),
commit latency grows with it too, and the recorded global history stays
hybrid atomic — including under periodic site crashes, where 2PC turns
participant failures into clean aborts.
"""

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.recovery import CrashPlan
from repro.sim import BankWorkload, run_experiment

DURATION = 200.0
SEED = 7


def test_distributed_bank(benchmark, save_artifact):
    benchmark(
        lambda: run_experiment(
            BankWorkload(sites=3, clients=4), duration=DURATION, seed=SEED
        )
    )

    lines = [
        f"{'max spread':>10} {'committed':>10} {'aborted':>8} "
        f"{'msgs/txn':>9} {'mean latency':>13}"
    ]
    series = {}
    for spread in (1, 2, 4):
        run = run_experiment(
            BankWorkload(sites=4, max_spread=spread, clients=5),
            duration=DURATION,
            seed=SEED,
            record=True,
        )
        h = run.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, run.specs())
        per_txn = run.network.total_messages / max(1, run.metrics.committed)
        series[spread] = (per_txn, run.metrics.mean_latency)
        lines.append(
            f"{spread:>10} {run.metrics.committed:>10} "
            f"{run.metrics.aborted:>8} {per_txn:>9.1f} "
            f"{run.metrics.mean_latency:>13.2f}"
        )

    # Coordination cost grows with the touched-site count.
    assert series[1][0] < series[4][0]
    assert series[1][1] < series[4][1]

    names = ["shard0", "shard1", "shard2"]
    crash = run_experiment(
        BankWorkload(sites=3, clients=4),
        duration=DURATION,
        seed=SEED,
        crashes=CrashPlan.soft(SEED, names, DURATION, every=20),
        record=True,
    )
    ch = crash.history()
    assert crash.metrics.aborted > 0
    assert is_hybrid_atomic(ch, crash.specs())

    save_artifact(
        "distributed_bank",
        "X-D: multi-site bank, 4 sites, 5 clients, 2PC with piggybacked "
        f"clocks (duration={DURATION}, seed={SEED})\n\n"
        + "\n".join(lines)
        + "\n\nwith a site crash every 20 time units: "
        f"{crash.metrics.committed} committed, {crash.metrics.aborted} "
        "aborted, history hybrid atomic: True",
    )
