"""Extension experiment X-K — keyed dependency relations as free per-key
locking (Directory under Zipf key skew).

The Directory's derived dependency relation never relates operations on
different keys, so the hybrid protocol behaves like per-key locking with
result-aware modes *for free* — no lock manager special-casing, just the
type's specification.  Untyped read/write 2PL locks the whole object.

Expected shape: with uniform keys, hybrid's throughput is a multiple of
rw-2PL's; as Zipf skew concentrates traffic on a hot key, hybrid's
advantage shrinks toward (but stays above) the untyped baseline, whose
throughput is flat — it was already fully serialised.
"""

from conftest import metrics_table

from repro.protocols import HYBRID, TWO_PHASE_RW
from repro.sim import DirectoryWorkload, run_experiment

DURATION = 250.0
SEED = 3


def test_directory_key_skew(benchmark, save_artifact):
    benchmark(
        lambda: run_experiment(
            DirectoryWorkload(skew=1.0), HYBRID, duration=DURATION, seed=SEED
        )
    )

    lines = []
    series = {}
    for skew in (0.0, 1.0, 2.0, 3.0):
        hybrid = run_experiment(
            DirectoryWorkload(skew=skew), HYBRID, duration=DURATION, seed=SEED
        ).metrics
        rw = run_experiment(
            DirectoryWorkload(skew=skew), TWO_PHASE_RW, duration=DURATION, seed=SEED
        ).metrics
        series[skew] = (hybrid, rw)
        lines.append(f"\nzipf skew = {skew:.1f}")
        lines.append(
            metrics_table(
                {"hybrid (per-key)": hybrid, "rw-2pl (whole-object)": rw},
                fields=("committed", "conflicts", "throughput", "abort_rate"),
            )
        )

    # Hybrid dominates at every skew; rw-2pl is flat; hybrid degrades
    # monotonically toward it as the keyspace collapses.
    for skew, (hybrid, rw) in series.items():
        assert hybrid.throughput > rw.throughput, skew
    assert series[0.0][0].throughput > 2 * series[0.0][1].throughput
    throughputs = [series[s][0].throughput for s in (0.0, 1.0, 2.0, 3.0)]
    assert throughputs == sorted(throughputs, reverse=True)
    rw_line = [series[s][1].throughput for s in (0.0, 1.0, 2.0, 3.0)]
    assert max(rw_line) - min(rw_line) < 0.1 * max(rw_line)

    save_artifact(
        "directory_skew",
        "X-K: Directory under Zipf key skew, 6 clients, 16 keys "
        f"(duration={DURATION}, seed={SEED})\n" + "\n".join(lines),
    )
