"""Simulated experiments: clients driving the runtime under a protocol.

:func:`run_experiment` builds a :class:`~repro.runtime.TransactionManager`
whose objects use the given protocol's conflict relations, spawns one
simulated client per workload slot, and runs the discrete-event loop for a
fixed simulated duration.  Clients repeatedly:

1. draw a transaction script from the workload,
2. execute its steps, each costing ``op_time``; a refused lock costs a
   ``backoff`` delay and a retry of the same step; a would-block partial
   operation likewise waits and retries,
3. after too many consecutive refusals of one step, abort and restart the
   transaction with a fresh script (counting an abort),
4. commit (costing ``commit_time``) and start over after ``think_time``.

The knobs are identical across protocols within a comparison, so measured
differences come only from which interleavings each conflict relation
admits — the paper's quantity of interest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.errors import (
    LockConflict,
    TransactionAborted,
    ValidationFailed,
    WouldBlock,
)
from ..protocols.base import HYBRID, ProtocolSpec
from ..runtime.manager import ManagedObject, TransactionManager
from ..runtime.transaction import Transaction
from .des import Simulator
from .metrics import Metrics
from .waiting import DeadlockDetected, WaitRegistry
from .workload import Step, Workload

__all__ = ["ClientParams", "run_experiment", "compare_protocols"]


@dataclass(frozen=True)
class ClientParams:
    """Timing and scheduling knobs shared by every client in a run.

    ``wait_policy`` selects how a refused lock is handled: ``"retry"``
    polls again after ``backoff`` (deadlock-free); ``"block"`` sleeps
    until the holding transaction completes, with waits-for deadlock
    detection aborting the requester on a cycle.
    """

    op_time: float = 1.0
    commit_time: float = 1.0
    think_time: float = 0.5
    backoff: float = 1.0
    max_step_retries: int = 12
    wait_policy: str = "retry"

    def __post_init__(self):
        if self.wait_policy not in ("retry", "block"):
            raise ValueError("wait_policy must be 'retry' or 'block'")

    def jittered(self, rng: random.Random, base: float) -> float:
        """Exponentially distributed delay with the given mean."""
        return rng.expovariate(1.0 / base) if base > 0 else 0.0


class _Client:
    """One simulated client: a little state machine over the event loop."""

    def __init__(
        self,
        index: int,
        simulator: Simulator,
        manager: TransactionManager,
        workload: Workload,
        params: ClientParams,
        metrics: Metrics,
        rng: random.Random,
        registry: Optional["WaitRegistry"] = None,
    ):
        self.index = index
        self.simulator = simulator
        self.manager = manager
        self.workload = workload
        self.params = params
        self.metrics = metrics
        self.rng = rng
        self.registry = registry
        self.transaction: Optional[Transaction] = None
        self.script: List[Step] = []
        self.position = 0
        self.retries = 0
        self.started_at = 0.0

    # Each method schedules the next; the loop starts with start().

    def start(self) -> None:
        """Begin the first transaction after a think-time stagger."""
        self.simulator.schedule(
            self.params.jittered(self.rng, self.params.think_time), self._begin
        )

    def _begin(self) -> None:
        self.transaction = self.manager.begin()
        self.script = self.workload.script(self.index, self.rng)
        self.position = 0
        self.retries = 0
        self.started_at = self.simulator.now
        self._schedule_step(self.params.jittered(self.rng, self.params.op_time))

    def _schedule_step(self, delay: float) -> None:
        self.simulator.schedule(delay, self._step)

    def _step(self) -> None:
        if self.position >= len(self.script):
            self._commit()
            return
        obj, operation, args = self.script[self.position]
        try:
            self.manager.invoke(self.transaction, obj, operation, *args)
        except TransactionAborted:
            # A crash tick aborted us underneath (already counted there):
            # just restart with a fresh script.
            self._restart_after_crash()
            return
        except LockConflict as conflict:
            self.metrics.conflicts += 1
            if self.registry is not None and conflict.holder:
                self._block_on(conflict.holder)
            else:
                self._handle_retry()
            return
        except WouldBlock:
            self.metrics.blocks += 1
            self._handle_retry()
            return
        self.metrics.operations += 1
        self.position += 1
        self.retries = 0
        self._schedule_step(self.params.jittered(self.rng, self.params.op_time))

    def _block_on(self, holder: str) -> None:
        """Block policy: sleep until the holder completes (deadlock-safe)."""
        try:
            self.registry.wait(
                self.transaction.name,
                holder,
                wake=lambda: self._schedule_step(0.0),
            )
        except DeadlockDetected:
            self.metrics.deadlocks += 1
            self._abort_and_restart()

    def _abort_and_restart(self) -> None:
        self.manager.abort(self.transaction)
        if self.registry is not None:
            self.registry.release(self.transaction.name)
        self.metrics.aborted += 1
        self.simulator.schedule(
            self.params.jittered(self.rng, self.params.think_time), self._begin
        )

    def _handle_retry(self) -> None:
        self.retries += 1
        if self.retries > self.params.max_step_retries:
            self._abort_and_restart()
            return
        self._schedule_step(self.params.jittered(self.rng, self.params.backoff))

    def _restart_after_crash(self) -> None:
        """The manager's crash already aborted (and counted) us."""
        if self.registry is not None:
            self.registry.release(self.transaction.name)
        self.simulator.schedule(
            self.params.jittered(self.rng, self.params.think_time), self._begin
        )

    def _commit(self) -> None:
        try:
            self.manager.commit(self.transaction)
        except ValidationFailed:
            # Optimistic objects only: certification failed; the manager
            # already aborted the transaction — restart with a new script.
            # (Caught first: it is a TransactionAborted.)
            self.metrics.validation_failures += 1
            self.metrics.aborted += 1
            self.simulator.schedule(
                self.params.jittered(self.rng, self.params.think_time),
                self._begin,
            )
            return
        except TransactionAborted:
            self._restart_after_crash()
            return
        if self.registry is not None:
            self.registry.release(self.transaction.name)
        self.metrics.committed += 1
        self.metrics.total_latency += self.simulator.now - self.started_at
        self.simulator.schedule(
            self.params.jittered(self.rng, self.params.think_time)
            + self.params.jittered(self.rng, self.params.commit_time),
            self._begin,
        )


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
    params)``.  ``crash_rate > 0`` injects Poisson manager crashes that
    abort every in-flight transaction (locking engine only); ``wal``
    attaches a write-ahead log to the manager so the run is recoverable
    with :func:`repro.recovery.recover_manager`.

    Observability (both engines): ``tracer`` is a
    :class:`repro.obs.TraceBus` whose clock is rebound to simulated time
    and fed to every instrumented component; ``registry`` is a
    :class:`repro.obs.MetricsRegistry` that receives event-derived
    counters/histograms during the run, plus horizon and
    retained-intentions gauges and the final ``Metrics`` row at the end.
    ``on_finish(manager, wait_registry)`` runs before returning, while
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
    manager = TransactionManager(wal=wal, tracer=tracer)
    for name, adt in workload.objects():
        manager.create_object(name, adt, protocol=protocol)
    metrics = Metrics()
    if crash_rate > 0:
        crash_rng = random.Random(f"crash/{crash_seed if crash_seed is not None else seed}")

        def crash_tick() -> None:
            victims = manager.crash()
            metrics.crashes += 1
            metrics.aborted += len(victims)
            if tracer is not None:
                tracer.emit("site.crash", site="manager", hard=False, victims=victims)
            if waits is not None:
                for victim in victims:
                    waits.release(victim)
            simulator.schedule(crash_rng.expovariate(crash_rate), crash_tick)

        simulator.schedule(crash_rng.expovariate(crash_rate), crash_tick)
    waits = WaitRegistry(tracer=tracer) if params.wait_policy == "block" else None
    for index in range(workload.client_count()):
        client = _Client(
            index,
            simulator,
            manager,
            workload,
            params,
            metrics,
            random.Random(f"{seed}/{index}"),
            registry=waits,
        )
        client.start()
    simulator.run_until(duration)
    metrics.duration = duration
    machines = {
        name: managed.machine
        for name, managed in sorted(manager.objects.items())
        if isinstance(managed, ManagedObject)
    }
    metrics.retained_intentions = sum(
        machine.retained_intentions() for machine in machines.values()
    )
    if registry_sink is not None:
        obs_registry = registry
        for name, machine in machines.items():
            obs_registry.gauge(f"compaction.horizon[{name}]").set(machine.horizon())
            obs_registry.gauge(f"compaction.retained[{name}]").set(
                machine.retained_intentions()
            )
            obs_registry.gauge(f"compaction.forgotten_ops[{name}]").set(
                machine.forgotten_operations
            )
        obs_registry.gauge("retained_intentions").set(metrics.retained_intentions)
        obs_registry.absorb_metrics(metrics)
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
