"""Simulated experiments: clients driving sites under a protocol.

:func:`run_experiment` hosts the workload's objects on
``workload.sites`` :class:`~repro.sim.site.Site`\\ s — the shard engine
every deployment runs, each on its own timestamp stride — and spawns one
:class:`~repro.sim.client.Client` per workload slot.  On one site the
clients call it directly, so the :class:`ClientParams` service times are
the only clock; on several they reach the sites over a latency-simulating
:class:`~repro.sim.network.Network`, cross-site transactions committing
by 2PC, and the network is the only clock.  The knobs are identical
across protocols within a comparison, so measured differences come only
from which interleavings each conflict relation admits — the paper's
quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.history import History
from ..obs import HistorySink, RegistrySink, TraceBus
from ..protocols.base import HYBRID, ProtocolSpec
from ..runtime.waiting import WaitRegistry
from .client import Client, ClientParams
from .des import Simulator
from .metrics import Metrics
from .network import Network
from .site import Site
from .workload import Workload

__all__ = ["ClientParams", "Run", "run_experiment", "compare_protocols"]

#: The clients' knobs over a network: the network is the only clock, so
#: operations and commits cost nothing on top of their messages.
NETWORK_PARAMS = ClientParams(op_time=0, commit_time=0, max_step_retries=10)


@dataclass
class Run:
    """Everything one run produced."""

    metrics: Metrics
    sites: Dict[str, Site]
    #: The simulated network (None on one site).
    network: Optional[Network] = None
    #: The waits-for registry (``block`` policy only).
    waits: Optional[WaitRegistry] = None
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


def run_experiment(
    workload: Workload,
    protocol: ProtocolSpec = HYBRID,
    duration: float = 500.0,
    seed: int = 0,
    params: Optional[ClientParams] = None,
    *,
    crashes=None,
    wals: Sequence[Any] = (),
    checkpoint_every: float = 0.0,
    record: bool = False,
    tracer=None,
    registry=None,
) -> Run:
    """Run one workload under one protocol; deterministic per seed.

    ``crashes`` is a :class:`~repro.recovery.faults.CrashPlan` over the
    sites' names (``shard<i>``; locking engine only).  ``wals`` — one
    empty log per site: a log that is not is refused — make the sites
    durable, so a hard crash recovers from its log and the run is
    recoverable with :func:`repro.recovery.recover_manager`;
    ``checkpoint_every > 0`` folds every live site's versions into a
    checkpoint record at that period.  ``record`` keeps the global event
    history (:meth:`Run.history`).

    Observability: ``tracer`` is a :class:`repro.obs.TraceBus` whose
    clock is rebound to simulated time and fed to every instrumented
    component; ``registry`` is a :class:`repro.obs.MetricsRegistry` that
    receives event-derived counters/histograms during the run, plus
    horizon and retained-intentions gauges and the final ``Metrics`` row
    at the end.  Transactions in flight at ``duration`` still hold their
    locks in ``Run.sites`` (what ``repro stats`` snapshots).
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
    if crashes and protocol.engine != "locking":
        raise ValueError("crash injection requires the locking engine")
    for wal in wals:
        if len(wal):
            # A site would recover a log that is not empty, not append to it.
            where = getattr(wal, "path", "the write-ahead log")
            raise ValueError(f"{where} is not empty: a run needs a fresh log")
    count = workload.sites
    network = Network(simulator, seed=seed, tracer=tracer) if count > 1 else None
    if params is None:
        params = NETWORK_PARAMS if network is not None else ClientParams()
    objects = workload.objects()
    hosts: List[Site] = []
    for index in range(count):
        site = Site(index, count, wal=wals[index] if wals else None, tracer=tracer)
        hosts.append(site)
        for name, adt in objects:
            if workload.home(name) == index:
                # Workload ADTs are configured instances, not registry names.
                site.engine.manager.create_object(name, adt, protocol=protocol)
        opening = workload.opening(index)
        if opening:
            site.single({"op": "txn", "name": f"open{index}", "steps": opening})
    sites = {site.name: site for site in hosts}

    def script(index: int, rng):
        steps = workload.script(index, rng)
        return [(workload.home(obj), obj, op, args) for obj, op, args in steps]

    metrics = Metrics()
    waits = WaitRegistry(tracer=tracer) if params.wait_policy == "block" else None
    for index in range(workload.client_count()):
        rng = workload.rng(seed, index)
        Client(
            index, simulator, hosts, script, params, metrics, rng, network, waits
        ).start()
    if waits is not None:

        def release(victims: List[str]) -> None:
            for victim in victims:  # a crash's victims wake their waiters
                waits.release(victim)

        for site in hosts:
            site.watchers.append(release)
    if checkpoint_every > 0:

        def checkpoint_all() -> None:
            for site in hosts:
                if site.alive:
                    site.checkpoint()
            simulator.schedule(checkpoint_every, checkpoint_all)

        simulator.schedule(checkpoint_every, checkpoint_all)
    reports = crashes.install(simulator, sites, metrics) if crashes else []

    simulator.run_until(duration)
    metrics.duration = duration
    live = [site for site in hosts if site.alive]
    machines = dict(sorted(item for site in live for item in site.machines().items()))
    metrics.retained_intentions = sum(
        machine.retained_intentions() for machine in machines.values()
    )
    if registry_sink is not None:
        for name, machine in machines.items():
            registry.gauge(f"compaction.horizon[{name}]").set(machine.horizon())
            registry.gauge(f"compaction.retained[{name}]").set(
                machine.retained_intentions()
            )
            registry.gauge(f"compaction.forgotten_ops[{name}]").set(
                machine.forgotten_operations
            )
        registry.gauge("retained_intentions").set(metrics.retained_intentions)
        registry.absorb_metrics(metrics)
        tracer.unsubscribe(registry_sink)
    if recorder is not None:
        tracer.unsubscribe(recorder)
    for site in hosts:
        if not site.alive and site.wal is not None:
            # A hard crash outlasting the run: read the site back from its
            # log, so the run's views see every object.
            site.recover()
    return Run(
        metrics=metrics,
        sites=sites,
        network=network,
        waits=waits,
        events=recorder.events if recorder is not None else [],
        recovery_reports=reports,
    )


def compare_protocols(
    workload_factory,
    protocols: Sequence[ProtocolSpec],
    duration: float = 500.0,
    seed: int = 0,
    params: Optional[ClientParams] = None,
) -> Dict[str, Metrics]:
    """Run the same workload under several protocols.

    ``workload_factory`` is called once per protocol so stateful workloads
    (unique item counters) start fresh each time.
    """
    return {
        protocol.name: run_experiment(
            workload_factory(), protocol, duration=duration, seed=seed, params=params
        ).metrics
        for protocol in protocols
    }
