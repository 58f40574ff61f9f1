"""Extension experiment X-R — durability under fail-stop site crashes.

The LOCK machine's intentions lists double as a redo log (§5.1: "the
intentions list is kept in stable storage"), and the §6 horizon bounds
how much of that log a version snapshot lets recovery skip.  This
benchmark runs the multi-site bank while a seeded crash plan fail-stops
sites with total volatile loss; each victim is rebuilt from its
checkpoint (when enabled) plus write-ahead-log replay.

Reproduction checks: every crashed site recovers within the run and its
recovered committed state-set matches the pre-crash snapshot (asserted
inside the event loop by ``CrashPlan.install``); the global
history recorded across crashes stays hybrid atomic and keeps satisfying
the §3.3 timestamp constraint.  Expected shape: replayed records drop
sharply once periodic horizon checkpoints truncate the logs, and
throughput degrades gracefully as the crash rate rises.
"""

from conftest import certification_data

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.recovery import CrashPlan, MemoryWAL
from repro.sim import BankWorkload, run_experiment

DURATION = 300.0
SEED = 7
CRASH_SEED = 3


def crashy_run(rate, checkpoint_every=0.0, record=False, tracer=None):
    names = ["shard0", "shard1", "shard2"]
    return run_experiment(
        BankWorkload(sites=3, clients=5),
        duration=DURATION,
        seed=SEED,
        crashes=CrashPlan.seeded(CRASH_SEED, names, DURATION, rate=rate),
        wals=[MemoryWAL() for _ in names],
        checkpoint_every=checkpoint_every,
        record=record,
        tracer=tracer,
    )


def certified_crashy_run(rate, checkpoint_every=0.0, record=False):
    """One crashy run with the streaming oracle attached (fresh checker
    per run — transaction names repeat across configurations)."""
    from repro.obs import AtomicityChecker, TraceBus

    bus = TraceBus()
    checker = bus.subscribe(AtomicityChecker(emit_to=bus))
    run = crashy_run(rate, checkpoint_every, record=record, tracer=bus)
    report = checker.report()
    assert report["ok"], checker.render_report()
    return run, report


def test_recovery(benchmark, save_artifact):
    benchmark(lambda: crashy_run(0.02))

    header = (
        f"{'crash rate':>10} {'ckpt every':>10} {'crashes':>8} "
        f"{'recovered':>9} {'replayed':>9} {'recovery s':>10} "
        f"{'committed':>10} {'aborted':>8}"
    )
    lines = [header]
    replayed_by_config = {}
    certifications = {}
    for rate in (0.01, 0.02, 0.04):
        for checkpoint_every in (0.0, 25.0):
            run, cert = certified_crashy_run(rate, checkpoint_every, record=True)
            certifications[f"rate={rate} ckpt={checkpoint_every}"] = (
                certification_data(cert)
            )
            m = run.metrics

            # Every planned crash recovered, in-run, via replay.
            assert m.crashes > 0
            assert m.recoveries == m.crashes
            assert len(run.recovery_reports) == m.recoveries
            assert all(r.recovered_objects for r in run.recovery_reports)
            if checkpoint_every > 0:
                assert any(r.from_checkpoint for r in run.recovery_reports)

            # The post-crash global history is still hybrid atomic.
            history = run.history()
            assert is_hybrid_atomic(history, run.specs())
            assert timestamps_respect_precedes(history)

            replayed_by_config[(rate, checkpoint_every)] = m.replayed_records
            lines.append(
                f"{rate:>10.2f} {checkpoint_every or '-':>10} "
                f"{m.crashes:>8} {m.recoveries:>9} "
                f"{m.replayed_records:>9} {m.recovery_time:>10.3f} "
                f"{m.committed:>10} {m.aborted:>8}"
            )

    # Checkpoints truncate the log: replay shrinks at every crash rate.
    for rate in (0.01, 0.02, 0.04):
        assert replayed_by_config[(rate, 25.0)] < replayed_by_config[(rate, 0.0)]

    save_artifact(
        "recovery",
        "X-R: fail-stop crashes + checkpoint/WAL-replay recovery, 3 sites, "
        f"5 clients (duration={DURATION}, seed={SEED}, "
        f"crash_seed={CRASH_SEED})\n\n" + "\n".join(lines) + "\n\n"
        "every victim recovered in-run; recovered committed state-sets "
        "verified against pre-crash snapshots; post-crash histories hybrid "
        "atomic: True; every run certified by the streaming oracle",
        data={
            "replayed_records": {
                f"rate={rate} ckpt={ckpt}": count
                for (rate, ckpt), count in sorted(replayed_by_config.items())
            },
            "certifications": certifications,
        },
    )
