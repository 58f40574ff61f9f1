"""Fault injection: seeded crash plans and fault-injected distributed runs."""

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.distributed import run_distributed_experiment
from repro.recovery import CrashPlan
from repro.sim import Simulator


class TestCrashPlan:
    def test_seeded_plans_are_deterministic(self):
        a = CrashPlan.seeded(7, ["S0", "S1"], duration=500.0, rate=0.05)
        b = CrashPlan.seeded(7, ["S0", "S1"], duration=500.0, rate=0.05)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = CrashPlan.seeded(1, ["S0", "S1"], duration=500.0, rate=0.05)
        b = CrashPlan.seeded(2, ["S0", "S1"], duration=500.0, rate=0.05)
        assert a.events != b.events

    def test_zero_rate_is_empty(self):
        assert len(CrashPlan.seeded(3, ["S0"], duration=100.0, rate=0.0)) == 0

    def test_every_crash_recovers_within_the_run(self):
        plan = CrashPlan.seeded(5, ["S0"], duration=300.0, rate=0.1, downtime=20.0)
        assert plan.events
        for event in plan:
            assert event.time + event.downtime < 300.0

    def test_events_sorted_by_time(self):
        plan = CrashPlan.seeded(9, ["S0", "S1", "S2"], duration=400.0, rate=0.1)
        times = [e.time for e in plan]
        assert times == sorted(times)

    def test_install_skips_dead_sites(self):
        # Two crashes aimed at the same (already dead) site: one recovery.
        from repro.recovery.faults import CrashEvent

        plan = CrashPlan(
            [
                CrashEvent(time=10.0, site="shard0", downtime=50.0),
                CrashEvent(time=20.0, site="shard0", downtime=50.0),
            ]
        )
        run = _run_with_plan(plan, duration=100.0)
        assert run.metrics.crashes == 1
        assert run.metrics.recoveries == 1


def _run_with_plan(plan, duration=100.0):
    """Drive a durable distributed run under an explicit plan
    (``run_distributed_experiment`` only takes a rate)."""
    import random

    from repro.distributed import DistributedRun, Network, Site
    from repro.recovery import MemoryWAL
    from repro.sim import Client, ClientParams, Metrics

    simulator = Simulator()
    network = Network(simulator, seed=0)
    sites = []
    for s in range(2):
        site = Site(s, 2, wal=MemoryWAL())
        site.single({"op": "create", "name": f"acct{s}", "adt": "Account"})
        sites.append(site)

    def script(index, rng):
        home = rng.randrange(2)
        return [(home, f"acct{home}", "Credit", (rng.randint(1, 5),))]

    metrics = Metrics()
    for index in range(3):
        Client(
            index, simulator, sites, script,
            ClientParams(op_time=0, commit_time=0, max_step_retries=10), metrics,
            random.Random(f"plan/{index}"), network=network,
        ).start()
    by_name = {site.name: site for site in sites}
    plan.install(simulator, by_name, metrics=metrics)
    simulator.run_until(duration)
    metrics.duration = duration
    return DistributedRun(metrics=metrics, network=network, sites=by_name)


class TestFaultInjectedRuns:
    def test_crashed_run_recovers_and_stays_hybrid_atomic(self):
        run = run_distributed_experiment(
            duration=200.0,
            seed=1,
            record=True,
            crash_rate=0.02,
            crash_seed=7,
        )
        metrics = run.metrics
        assert metrics.crashes > 0
        assert metrics.recoveries == metrics.crashes
        assert metrics.replayed_records > 0
        assert len(run.recovery_reports) == metrics.recoveries
        history = run.history()
        assert is_hybrid_atomic(history, run.specs())
        assert timestamps_respect_precedes(history)

    def test_checkpointing_run_recovers_too(self):
        run = run_distributed_experiment(
            duration=200.0,
            seed=1,
            record=True,
            crash_rate=0.02,
            crash_seed=7,
            checkpoint_every=50.0,
        )
        assert run.metrics.recoveries == run.metrics.crashes > 0
        assert any(r.from_checkpoint for r in run.recovery_reports)
        assert is_hybrid_atomic(run.history(), run.specs())

    def test_crash_runs_are_deterministic(self):
        kwargs = dict(
            duration=150.0, seed=4, crash_rate=0.03, crash_seed=2, record=True
        )
        a = run_distributed_experiment(**kwargs)
        b = run_distributed_experiment(**kwargs)
        # Every metric, recovery_time included: simulated recovery takes
        # no wall-clock timings, so the full row is reproducible — and so
        # is the recorded history, event for event.
        assert a.metrics.as_row() == b.metrics.as_row()
        assert a.total_balance() == b.total_balance()
        assert a.events == b.events and len(a.events) > 100

    def test_durable_run_without_crashes_matches_volatile(self):
        volatile = run_distributed_experiment(duration=150.0, seed=3)
        durable = run_distributed_experiment(duration=150.0, seed=3, durable=True)
        assert volatile.metrics.committed == durable.metrics.committed
        assert volatile.total_balance() == durable.total_balance()

    def test_file_backed_crash_run(self, tmp_path):
        run = run_distributed_experiment(
            duration=150.0,
            seed=2,
            crash_rate=0.02,
            crash_seed=5,
            wal_dir=str(tmp_path),
        )
        assert run.metrics.recoveries == run.metrics.crashes > 0
        assert (tmp_path / "shard0" / "wal.jsonl").exists()
