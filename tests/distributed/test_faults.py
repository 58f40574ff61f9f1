"""Fault injection: seeded crash plans and fault-injected distributed runs."""

import pytest

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.obs import AtomicityChecker, MetricsRegistry, TraceBus
from repro.recovery import CrashPlan, FileWAL, MemoryWAL, RecoveryError
from repro.recovery.faults import CrashEvent
from repro.sim import (
    AccountWorkload,
    BankWorkload,
    Metrics,
    Simulator,
    Site,
    run_experiment,
)

SITES = ["shard0", "shard1", "shard2"]


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
        plan = CrashPlan(
            [
                CrashEvent(time=10.0, site="shard0", downtime=50.0),
                CrashEvent(time=20.0, site="shard0", downtime=50.0),
            ]
        )
        run = _run_with_plan(plan, duration=100.0)
        assert run.metrics.crashes == 1
        assert run.metrics.recoveries == 1

    def test_prepared_set_divergence_is_a_recovery_error(self, monkeypatch):
        # A check that ``python -O`` cannot strip: the recovered prepared
        # set differs from the pre-crash one.
        answers = iter([[], ["ghost"]])
        monkeypatch.setattr(Site, "prepared_transactions", lambda site: next(answers))
        simulator = Simulator()
        site = Site(0, 1, wal=MemoryWAL())
        site.single({"op": "create", "name": "A", "adt": "Account"})
        plan = CrashPlan([CrashEvent(time=1.0, site=site.name, downtime=1.0)])
        plan.install(simulator, {site.name: site}, Metrics())
        with pytest.raises(RecoveryError, match="prepared set diverged"):
            simulator.run_until(5.0)

    def test_soft_plan_reproduces_both_streams(self):
        # The single-site Poisson stream and the rotation over the sites.
        import random

        rng = random.Random("crash/4")
        times, now = [], 0.0
        while now <= 100.0:
            now += rng.expovariate(0.05)
            times.append(now)
        poisson = CrashPlan.soft(4, ["shard0"], 100.0, rate=0.05)
        assert [event.time for event in poisson] == times[:-1]
        rotation = CrashPlan.soft(4, SITES, 100.0, every=20.0)
        assert [(e.time, e.site) for e in rotation] == [
            (20.0, "shard0"), (40.0, "shard1"), (60.0, "shard2"),
            (80.0, "shard0"), (100.0, "shard1"),
        ]
        assert not any(event.hard for event in [*poisson, *rotation])


def _run_with_plan(plan, duration=100.0):
    """Drive a durable two-site run under an explicit plan."""
    return run_experiment(
        BankWorkload(sites=2, clients=3),
        duration=duration,
        crashes=plan,
        wals=[MemoryWAL(), MemoryWAL()],
    )


class TestFaultInjectedRuns:
    def test_crashed_run_recovers_and_stays_hybrid_atomic(self):
        run = run_experiment(
            BankWorkload(),
            duration=200.0,
            seed=1,
            record=True,
            crashes=CrashPlan.seeded(7, SITES, 200.0, rate=0.02),
            wals=[MemoryWAL() for _ in SITES],
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
        run = run_experiment(
            BankWorkload(),
            duration=200.0,
            seed=1,
            record=True,
            crashes=CrashPlan.seeded(7, SITES, 200.0, rate=0.02),
            wals=[MemoryWAL() for _ in SITES],
            checkpoint_every=50.0,
        )
        assert run.metrics.recoveries == run.metrics.crashes > 0
        assert any(r.from_checkpoint for r in run.recovery_reports)
        assert is_hybrid_atomic(run.history(), run.specs())

    def test_crash_runs_are_deterministic(self):
        def run():
            return run_experiment(
                BankWorkload(),
                duration=150.0,
                seed=4,
                crashes=CrashPlan.seeded(2, SITES, 150.0, rate=0.03),
                wals=[MemoryWAL() for _ in SITES],
                record=True,
            )

        a = run()
        b = run()
        # Every metric, recovery_time included: simulated recovery takes
        # no wall-clock timings, so the full row is reproducible — and so
        # is the recorded history, event for event.
        assert a.metrics.as_row() == b.metrics.as_row()
        assert a.total_balance() == b.total_balance()
        assert a.events == b.events and len(a.events) > 100

    def test_durable_run_without_crashes_matches_volatile(self):
        volatile = run_experiment(BankWorkload(), duration=150.0, seed=3)
        durable = run_experiment(
            BankWorkload(), duration=150.0, seed=3, wals=[MemoryWAL() for _ in SITES]
        )
        assert volatile.metrics.committed == durable.metrics.committed
        assert volatile.total_balance() == durable.total_balance()

    def test_file_backed_crash_run(self, tmp_path):
        run = run_experiment(
            BankWorkload(),
            duration=150.0,
            seed=2,
            crashes=CrashPlan.seeded(5, SITES, 150.0, rate=0.02),
            wals=[FileWAL(tmp_path / name) for name in SITES],
        )
        assert run.metrics.recoveries == run.metrics.crashes > 0
        assert (tmp_path / "shard0" / "wal.jsonl").exists()


class TestOneDriver:
    def test_rotating_soft_crashes_are_counted_and_traced(self):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        registry = MetricsRegistry()
        run = run_experiment(
            BankWorkload(sites=3, clients=4),
            duration=200,
            seed=7,
            crashes=CrashPlan.soft(7, SITES, 200, every=20),
            tracer=bus,
            registry=registry,
        )
        crashes = [event for event in events if event.kind == "site.crash"]
        assert run.metrics.crashes == len(crashes) == 10
        assert not any(event.data["hard"] for event in crashes)
        assert registry.counter("site.crashes").value == run.metrics.crashes
        assert (run.metrics.committed, run.metrics.aborted) == (51, 11)

    def test_hard_crashes_on_one_site_recover_and_certify(self):
        bus = TraceBus()
        checker = bus.subscribe(AtomicityChecker(emit_to=bus))
        run = run_experiment(
            AccountWorkload(),
            duration=200.0,
            seed=2,
            crashes=CrashPlan.seeded(2, ["shard0"], 200.0, rate=0.03),
            wals=[MemoryWAL()],
            record=True,
            tracer=bus,
        )
        metrics = run.metrics
        assert metrics.recoveries == metrics.crashes > 0
        assert len(run.recovery_reports) == metrics.recoveries
        assert checker.ok, checker.render_report()
        history = run.history()
        assert is_hybrid_atomic(history, run.specs())
        assert timestamps_respect_precedes(history)
