"""Fault injection: seeded crash plans for simulated runs.

A :class:`CrashPlan` is a seeded schedule of crash events (Poisson
arrivals, or a fixed period rotating over the sites), so fault-injected
runs are reproducible bit for bit.  A hard event kills a site with total
volatile loss (:meth:`Site.crash_hard`) and brings it back ``downtime``
later (:meth:`Site.recover`: a fresh engine over its own WAL); a soft one
(:meth:`Site.crash`) aborts the site's unprepared transactions and leaves
it up.  :meth:`CrashPlan.install` wires the schedule into a
:class:`~repro.sim.des.Simulator`, counts crashes and recoveries in the
run's :class:`~repro.sim.metrics.Metrics`, and checks on every restart
that the recovered committed state-sets and prepared set equal the
pre-crash ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, Sequence

from ..sim.des import Simulator
from ..sim.metrics import Metrics
from .recovery import RecoveryError, RecoveryReport, committed_state_sets
from .recovery import verify_recovery

__all__ = ["CrashEvent", "CrashPlan"]


@dataclass(frozen=True)
class CrashEvent:
    """One crash of ``site`` at ``time``: a fail-stop that recovers
    ``downtime`` later (``hard``), or a soft crash (no downtime)."""

    time: float
    site: str
    downtime: float
    hard: bool = True


class CrashPlan:
    """An ordered schedule of :class:`CrashEvent`\\ s."""

    def __init__(self, events: Sequence[CrashEvent]):
        self.events: List[CrashEvent] = sorted(
            events, key=lambda e: (e.time, e.site)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def seeded(
        cls,
        seed: int,
        site_names: Sequence[str],
        duration: float,
        rate: float,
        downtime: float = 10.0,
    ) -> "CrashPlan":
        """Poisson fail-stop arrivals at ``rate`` per time unit over the cluster.

        Events are only generated while a full ``downtime`` (plus slack
        for redelivery) still fits before ``duration`` — every planned
        crash recovers within the run, which the benchmarks assert.
        """
        if rate <= 0:
            return cls([])
        rng = random.Random(f"crashplan/{seed}")
        names = sorted(site_names)
        events: List[CrashEvent] = []
        now = 0.0
        horizon = duration - 2.0 * downtime
        while True:
            now += rng.expovariate(rate)
            if now >= horizon:
                break
            events.append(
                CrashEvent(time=now, site=rng.choice(names), downtime=downtime)
            )
        return cls(events)

    @classmethod
    def soft(
        cls,
        seed: int,
        site_names: Sequence[str],
        duration: float,
        rate: float = 0.0,
        every: float = 0.0,
    ) -> "CrashPlan":
        """Soft crashes up to ``duration``, rotating over ``site_names`` in
        the order given: Poisson arrivals at ``rate``, else one every
        ``every`` time units."""
        if rate <= 0 and every <= 0:
            return cls([])
        rng = random.Random(f"crash/{seed}")
        events: List[CrashEvent] = []
        now = 0.0
        while True:
            now += rng.expovariate(rate) if rate > 0 else every
            if now > duration:
                break
            site = site_names[len(events) % len(site_names)]
            events.append(CrashEvent(time=now, site=site, downtime=0.0, hard=False))
        return cls(events)

    def install(
        self, simulator: Simulator, sites: Mapping[str, object], metrics: Metrics
    ) -> List[RecoveryReport]:
        """Schedule every event; returns the (live) list of reports.

        Every crash of a live site is counted once; one aimed at a dead
        site is skipped (no double-kill, no double-recovery).  A hard
        crash captures the victim's committed state-sets and prepared set
        first and re-checks them after recovery: a divergence raises
        :class:`~repro.recovery.recovery.RecoveryError` out of the loop.
        """
        reports: List[RecoveryReport] = []

        def fire(event: CrashEvent) -> None:
            site = sites[event.site]
            if not site.alive:
                return
            metrics.crashes += 1
            if not event.hard:
                site.crash()
                return
            expected = committed_state_sets(site.machines())
            expected_prepared = site.prepared_transactions()
            site.crash_hard()

            def back() -> None:
                report = site.recover()
                verify_recovery(expected, site.machines())
                recovered_prepared = site.prepared_transactions()
                if recovered_prepared != expected_prepared:
                    raise RecoveryError(
                        f"prepared set diverged at {event.site}: "
                        f"{recovered_prepared} != {expected_prepared}"
                    )
                metrics.recoveries += 1
                metrics.replayed_records += report.replayed_records
                metrics.recovery_time += report.elapsed_seconds
                reports.append(report)

            simulator.schedule_at(event.time + event.downtime, back)

        for event in self.events:
            simulator.schedule_at(event.time, lambda event=event: fire(event))
        return reports
