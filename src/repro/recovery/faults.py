"""Fault injection: seeded crash plans for distributed simulations.

A :class:`CrashPlan` is a deterministic schedule of fail-stop events —
each kills one site with total volatile loss (:meth:`Site.crash_hard`)
and brings it back ``downtime`` later (:meth:`Site.recover`: a fresh
engine over the site's own WAL).  Plans
are generated from a seed (Poisson arrivals across the cluster) so whole
fault-injected runs are reproducible bit for bit, and
:meth:`CrashPlan.install` wires the schedule into a
:class:`~repro.sim.des.Simulator`, updating the run's
:class:`~repro.sim.metrics.Metrics` recovery counters and optionally
checking the recovery invariant (recovered committed state-set equals the
pre-crash one) on every restart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..sim.des import Simulator
from ..sim.metrics import Metrics
from .recovery import RecoveryReport, committed_state_sets, verify_recovery

__all__ = ["CrashEvent", "CrashPlan"]


@dataclass(frozen=True)
class CrashEvent:
    """One fail-stop: ``site`` dies at ``time``, recovers ``downtime`` later."""

    time: float
    site: str
    downtime: float


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
        start: float = 0.0,
    ) -> "CrashPlan":
        """Poisson crash arrivals at ``rate`` per time unit over the cluster.

        Events are only generated while a full ``downtime`` (plus slack
        for redelivery) still fits before ``duration`` — every planned
        crash recovers within the run, which the benchmarks assert.
        """
        if rate <= 0:
            return cls([])
        rng = random.Random(f"crashplan/{seed}")
        names = sorted(site_names)
        events: List[CrashEvent] = []
        now = start
        horizon = duration - 2.0 * downtime
        while True:
            now += rng.expovariate(rate)
            if now >= horizon:
                break
            events.append(
                CrashEvent(time=now, site=rng.choice(names), downtime=downtime)
            )
        return cls(events)

    def install(
        self,
        simulator: Simulator,
        sites: Mapping[str, object],
        metrics: Optional[Metrics] = None,
        verify: bool = True,
    ) -> List[RecoveryReport]:
        """Schedule every event; returns the (live) list of reports.

        Each crash captures the victim's committed state-sets and prepared
        set first; after recovery, ``verify=True`` re-checks them — a
        divergence raises :class:`~repro.recovery.recovery.RecoveryError`
        out of the event loop.  A crash aimed at an already-dead site is
        skipped (no double-kill, no double-recovery).
        """
        reports: List[RecoveryReport] = []

        def fire(event: CrashEvent) -> None:
            site = sites[event.site]
            if not site.alive:
                return
            expected = committed_state_sets(site.machines()) if verify else {}
            expected_prepared = site.prepared_transactions()
            site.crash_hard()
            if metrics is not None:
                metrics.crashes += 1

            def back() -> None:
                report = site.recover()
                if verify:
                    verify_recovery(expected, site.machines())
                    recovered_prepared = site.prepared_transactions()
                    assert recovered_prepared == expected_prepared, (
                        f"prepared set diverged at {event.site}: "
                        f"{recovered_prepared} != {expected_prepared}"
                    )
                if metrics is not None:
                    metrics.recoveries += 1
                    metrics.replayed_records += report.replayed_records
                    metrics.recovery_time += report.elapsed_seconds
                reports.append(report)

            simulator.schedule_at(event.time + event.downtime, back)

        for event in self.events:
            simulator.schedule_at(event.time, lambda event=event: fire(event))
        return reports
