"""Metrics collected by simulated workload runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters and derived rates for one simulation run.

    ``conflicts`` counts lock refusals (the quantity the paper's protocol
    minimises); ``blocks`` counts would-block retries of partial
    operations (a property of the workload, not the protocol);
    ``aborts`` counts transactions that gave up after exhausting their
    retry budget and restarted from scratch.
    """

    duration: float = 0.0
    committed: int = 0
    aborted: int = 0
    conflicts: int = 0
    blocks: int = 0
    operations: int = 0
    total_latency: float = 0.0
    #: Operations retained in intentions lists at the end (compaction metric).
    retained_intentions: int = 0
    #: Commit-time certification failures (optimistic engine only).
    validation_failures: int = 0
    #: Fail-stop crashes injected into the run (fault-injection metric).
    crashes: int = 0
    #: Successful checkpoint + WAL-replay recoveries.
    recoveries: int = 0
    #: Log records replayed across all recoveries.
    replayed_records: int = 0
    #: Total wall-clock seconds spent in recovery (not simulated time).
    recovery_time: float = 0.0

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated time unit."""
        return self.committed / self.duration if self.duration else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean begin-to-commit latency of committed transactions."""
        return self.total_latency / self.committed if self.committed else 0.0

    @property
    def conflict_rate(self) -> float:
        """Lock refusals per executed operation attempt."""
        attempts = self.operations + self.conflicts
        return self.conflicts / attempts if attempts else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborts per started transaction."""
        started = self.committed + self.aborted
        return self.aborted / started if started else 0.0

    def as_row(self) -> Dict[str, float]:
        """Flatten to a dict for table rendering."""
        row = {
            "committed": self.committed,
            "aborted": self.aborted,
            "conflicts": self.conflicts,
            "blocks": self.blocks,
            "throughput": round(self.throughput, 4),
            "mean_latency": round(self.mean_latency, 3),
            "conflict_rate": round(self.conflict_rate, 4),
            "abort_rate": round(self.abort_rate, 4),
            "validation_failures": self.validation_failures,
        }
        if self.crashes or self.recoveries:
            row.update(
                {
                    "crashes": self.crashes,
                    "recoveries": self.recoveries,
                    "replayed_records": self.replayed_records,
                    "recovery_time": round(self.recovery_time, 4),
                }
            )
        return row
