"""Simulated experiments: clients driving one site under a protocol.

:func:`run_experiment` hosts the workload's objects on one
:class:`~repro.sim.site.Site` — the shard engine every deployment runs —
and spawns one :class:`~repro.sim.client.Client` per workload slot that
calls it directly (no network), so the :class:`ClientParams` service
times are the only clock.  The knobs are identical across protocols
within a comparison, so measured differences come only from which
interleavings each conflict relation admits — the paper's quantity of
interest.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from ..protocols.base import HYBRID, ProtocolSpec
from .client import Client, ClientParams
from .des import Simulator
from .metrics import Metrics
from .site import Site
from .waiting import WaitRegistry
from .workload import Workload

__all__ = ["ClientParams", "run_experiment", "compare_protocols"]


def run_experiment(
    workload: Workload,
    protocol: ProtocolSpec = HYBRID,
    duration: float = 500.0,
    seed: int = 0,
    params: Optional[ClientParams] = None,
    crash_rate: float = 0.0,
    crash_seed: Optional[int] = None,
    wal=None,
    tracer=None,
    registry=None,
    on_finish=None,
) -> Metrics:
    """Run one workload under one protocol; return the metrics.

    Deterministic for fixed ``(workload, protocol, duration, seed,
    params)``.  ``crash_rate > 0`` injects Poisson soft crashes of the
    site that abort every unprepared transaction (locking engine only);
    ``wal`` — empty: a log that is not is refused — gives the site a
    write-ahead log, so the run is recoverable with
    :func:`repro.recovery.recover_manager`.

    Observability (both engines): ``tracer`` is a
    :class:`repro.obs.TraceBus` whose clock is rebound to simulated time
    and fed to every instrumented component; ``registry`` is a
    :class:`repro.obs.MetricsRegistry` that receives event-derived
    counters/histograms during the run, plus horizon and
    retained-intentions gauges and the final ``Metrics`` row at the end.
    ``on_finish(manager, wait_registry)`` (the site's manager) runs before returning, while
    in-flight transactions still hold locks — the hook ``repro stats``
    uses to snapshot lock tables and the waits-for graph.
    """
    params = params or ClientParams()
    simulator = Simulator()
    registry_sink = None
    if registry is not None:
        from ..obs import RegistrySink, TraceBus

        if tracer is None:
            tracer = TraceBus()
        registry_sink = tracer.subscribe(RegistrySink(registry))
    if tracer is not None:
        tracer.clock = lambda: simulator.now
    if crash_rate > 0 and protocol.engine != "locking":
        raise ValueError("crash injection requires the locking engine")
    if wal is not None and len(wal):
        # A site would recover a log that is not empty, not append to it.
        where = getattr(wal, "path", "the write-ahead log")
        raise ValueError(f"{where} is not empty: a run needs a fresh log")
    site = Site(0, 1, wal=wal, tracer=tracer)
    manager = site.engine.manager
    for name, adt in workload.objects():
        # Workload ADTs are configured instances, not registry names.
        manager.create_object(name, adt, protocol=protocol)
    metrics = Metrics()
    waits = WaitRegistry(tracer=tracer) if params.wait_policy == "block" else None
    if crash_rate > 0:
        crash_rng = random.Random(f"crash/{crash_seed if crash_seed is not None else seed}")

        def crash_tick() -> None:
            victims = site.crash()  # each victim's client counts it
            metrics.crashes += 1
            if tracer is not None:
                tracer.emit("site.crash", site=site.name, hard=False, victims=victims)
            if waits is not None:
                for victim in victims:
                    waits.release(victim)
            simulator.schedule(crash_rng.expovariate(crash_rate), crash_tick)

        simulator.schedule(crash_rng.expovariate(crash_rate), crash_tick)

    def script(index: int, rng: random.Random):
        return [(0, *step) for step in workload.script(index, rng)]

    for index in range(workload.client_count()):
        rng = random.Random(f"{seed}/{index}")
        Client(index, simulator, [site], script, params, metrics, rng, waits=waits).start()
    simulator.run_until(duration)
    metrics.duration = duration
    machines = dict(sorted(site.machines().items()))
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
    if on_finish is not None:
        on_finish(manager, waits)
    return metrics


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
        )
        for protocol in protocols
    }
