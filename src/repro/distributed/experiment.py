"""Distributed experiments: a multi-site bank over the simulated network.

:func:`run_distributed_experiment` spreads accounts across ``site_count``
sites (each a :class:`~repro.sim.site.Site`: one shard engine on its own
timestamp stride), runs one :class:`~repro.sim.client.Client` per slot
over the simulated network — transactions touch up to ``max_spread``
sites, cross-site ones committed by 2PC — optionally injects site
crashes, and returns the metrics plus the network traffic breakdown —
and, when recording, the globally interleaved event history for the
Section 3 checkers, read off the trace bus every site shares.

Two fault models are available.  ``crash_every`` (X-D's crash row)
soft-crashes a rotating site periodically: unprepared transactions
abort, committed state survives in place.  ``crash_rate`` drives the
full durability path: each site gets a write-ahead log (and optional
periodic horizon checkpoints written into it), a seeded
:class:`~repro.recovery.faults.CrashPlan` fail-stops sites with total
volatile loss, and every victim is rebuilt ``crash_downtime`` later by
checkpoint + WAL replay, with the recovered committed state verified
against the pre-crash snapshot.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.history import History
from ..obs import HistorySink, RegistrySink, TraceBus
from ..recovery import CrashPlan, FileWAL, MemoryWAL
from ..sim.client import Client, ClientParams, SiteStep
from ..sim.des import Simulator
from ..sim.metrics import Metrics
from ..sim.site import Site
from .network import Network

__all__ = ["DistributedRun", "run_distributed_experiment"]

#: The clients' knobs: the network is the only clock, so operations and
#: commits cost nothing on top of their messages.
_PARAMS = ClientParams(op_time=0, commit_time=0, max_step_retries=10)


@dataclass
class DistributedRun:
    """Everything a distributed run produced."""

    metrics: Metrics
    network: Network
    sites: Dict[str, Site]
    events: List[Any] = field(default_factory=list)
    #: One report per completed checkpoint + WAL-replay recovery.
    recovery_reports: List[Any] = field(default_factory=list)

    def history(self) -> History:
        """The recorded global history (empty unless recording was on)."""
        return History(self.events, validate=False)

    def _homes(self):
        return ((site, obj) for site in self.sites.values() for obj in site.objects())

    def specs(self) -> Dict[str, Any]:
        """Object-name → serial-spec map across all sites."""
        return {obj: site.adt(obj).spec for site, obj in self._homes()}

    def total_balance(self) -> Any:
        """Sum of committed balances across every account."""
        return sum(site.snapshot(obj) for site, obj in self._homes())


def run_distributed_experiment(
    site_count: int = 3,
    accounts_per_site: int = 2,
    clients: int = 6,
    ops_per_transaction: int = 3,
    max_spread: int = 2,
    duration: float = 300.0,
    seed: int = 0,
    mean_latency: float = 1.0,
    initial_balance: int = 1000,
    crash_every: float = 0.0,
    record: bool = False,
    crash_rate: float = 0.0,
    crash_seed: Optional[int] = None,
    crash_downtime: float = 10.0,
    durable: bool = False,
    wal_dir: Optional[str] = None,
    checkpoint_every: float = 0.0,
    tracer=None,
    registry=None,
) -> DistributedRun:
    """Run the multi-site banking workload; deterministic per seed.

    ``max_spread`` caps how many distinct sites one transaction touches;
    ``crash_every > 0`` soft-crashes a rotating site at that period
    (victims are un-prepared transactions only — see :meth:`Site.crash`).
    ``crash_rate > 0`` fail-stops sites at that Poisson rate with full
    volatile loss and recovers each from its WAL (plus checkpoint, when
    ``checkpoint_every > 0``) after ``crash_downtime``; ``durable=True``
    attaches logs without injecting faults.  ``wal_dir`` puts the logs on
    disk (one subdirectory per site) instead of in memory.

    ``tracer`` (a :class:`repro.obs.TraceBus`, clock rebound to simulated
    time) is threaded through the network and every site's engine;
    ``registry`` (a :class:`repro.obs.MetricsRegistry`) accumulates
    event-derived counters plus per-object horizon gauges and the final
    ``Metrics`` row.
    """
    simulator = Simulator()
    if tracer is None and (record or registry is not None):
        tracer = TraceBus()
    registry_sink = (
        tracer.subscribe(RegistrySink(registry)) if registry is not None else None
    )
    recorder = tracer.subscribe(HistorySink()) if record else None
    if tracer is not None:
        tracer.clock = lambda: simulator.now
    network = Network(simulator, seed=seed, mean_latency=mean_latency, tracer=tracer)
    durable = durable or crash_rate > 0 or wal_dir is not None or checkpoint_every > 0

    hosts: List[Site] = []
    for s in range(site_count):
        wal = None
        if wal_dir is not None:
            wal = FileWAL(os.path.join(wal_dir, f"shard{s}"))
        elif durable:
            wal = MemoryWAL()
        site = Site(s, site_count, wal=wal, tracer=tracer)
        hosts.append(site)
        # Open every account, then fund them in one local transaction
        # (the engine creates registry types at their initial state).
        accounts = [f"acct{s}_{a}" for a in range(accounts_per_site)]
        for obj in accounts:
            site.single({"op": "create", "name": obj, "adt": "Account"})
        deposits = [(obj, "Credit", (initial_balance,)) for obj in accounts]
        site.single({"op": "txn", "name": f"open{s}", "steps": deposits})
    sites = {site.name: site for site in hosts}

    def script(client_index: int, rng: random.Random) -> List[SiteStep]:
        spread = rng.randint(1, min(max_spread, site_count))
        chosen_sites = rng.sample(range(site_count), spread)
        steps: List[SiteStep] = []
        for _ in range(ops_per_transaction):
            site_index = rng.choice(chosen_sites)
            obj = f"acct{site_index}_{rng.randrange(accounts_per_site)}"
            roll = rng.random()
            if roll < 0.5:
                steps.append((site_index, obj, "Credit", (rng.randint(1, 20),)))
            elif roll < 0.9:
                steps.append((site_index, obj, "Debit", (rng.randint(1, 20),)))
            else:
                steps.append((site_index, obj, "Post", (5,)))
        return steps

    metrics = Metrics()
    for index in range(clients):
        rng = random.Random(f"{seed}/client{index}")
        Client(index, simulator, hosts, script, _PARAMS, metrics, rng, network).start()

    def every(period: float, action) -> None:
        def tick() -> None:
            action()
            simulator.schedule(period, tick)

        simulator.schedule(period, tick)

    if crash_every > 0:
        rotation = itertools.cycle(hosts)
        every(crash_every, lambda: next(rotation).crash())
    if checkpoint_every > 0:

        def checkpoint_all() -> None:
            for site in hosts:
                if site.alive:
                    site.checkpoint()

        every(checkpoint_every, checkpoint_all)

    recovery_reports: List[Any] = []
    if crash_rate > 0:
        plan = CrashPlan.seeded(
            crash_seed if crash_seed is not None else seed,
            sorted(sites),
            duration=duration,
            rate=crash_rate,
            downtime=crash_downtime,
        )
        recovery_reports = plan.install(simulator, sites, metrics=metrics, verify=True)

    simulator.run_until(duration)
    metrics.duration = duration
    if registry_sink is not None:
        for site in hosts:
            for obj, machine in sorted(site.machines().items()):
                registry.gauge(f"compaction.horizon[{obj}]").set(machine.horizon())
                registry.gauge(f"compaction.retained[{obj}]").set(
                    machine.retained_intentions()
                )
        registry.absorb_metrics(metrics)
        tracer.unsubscribe(registry_sink)
    if recorder is not None:
        tracer.unsubscribe(recorder)
    return DistributedRun(
        metrics=metrics,
        network=network,
        sites=sites,
        events=recorder.events if recorder is not None else [],
        recovery_reports=recovery_reports,
    )
