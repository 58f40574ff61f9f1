"""A simulated message network over the discrete-event simulator.

Delivery is reliable and ordered only by (randomised) latency — messages
between the same pair of sites can overtake each other, which is exactly
the regime in which commit-timestamp serialization has to do real work.
Latencies are exponentially distributed around ``mean_latency`` with a
``floor`` so nothing arrives instantaneously; the generator is seeded, so
whole distributed runs are reproducible.

Messages are Python callbacks (the payload *is* the handler invocation);
``send`` tags each with a label used for the per-kind traffic statistics
the distributed benchmark reports.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable

from ..sim.des import Simulator

__all__ = ["Network"]


class Network:
    """Latency-simulating message fabric."""

    def __init__(
        self,
        simulator: Simulator,
        seed: int = 0,
        mean_latency: float = 1.0,
        floor: float = 0.1,
        tracer=None,
    ):
        if mean_latency <= 0 or floor < 0:
            raise ValueError("latencies must be positive")
        self.simulator = simulator
        self._rng = random.Random(f"net/{seed}")
        self.mean_latency = mean_latency
        self.floor = floor
        #: Messages sent, by label.
        self.sent: Counter = Counter()
        #: Optional :class:`repro.obs.TraceBus` emitting ``net.send``.
        self.tracer = tracer

    def latency(self) -> float:
        """Draw one message latency."""
        return self.floor + self._rng.expovariate(1.0 / self.mean_latency)

    def send(self, label: str, deliver: Callable[[], None]) -> None:
        """Send a message: ``deliver`` runs after a random latency."""
        self.sent[label] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("net.send", label=label)
        self.simulator.schedule(self.latency(), deliver)

    @property
    def total_messages(self) -> int:
        """Total messages sent so far."""
        return sum(self.sent.values())
