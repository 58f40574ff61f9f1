"""Discrete-event simulation of concurrent transaction workloads."""

from .des import Simulator
from .waiting import DeadlockDetected, WaitRegistry
from .client import Client, ClientParams
from .experiment import compare_protocols, run_experiment
from .metrics import Metrics
from .workload import (
    AccountWorkload,
    DirectoryWorkload,
    FileWorkload,
    QueueWorkload,
    SemiQueueWorkload,
    SetWorkload,
    StackWorkload,
    Step,
    Workload,
)

__all__ = [
    "Simulator",
    "WaitRegistry",
    "DeadlockDetected",
    "Metrics",
    "Client",
    "ClientParams",
    "run_experiment",
    "compare_protocols",
    "Workload",
    "Step",
    "QueueWorkload",
    "SemiQueueWorkload",
    "AccountWorkload",
    "FileWorkload",
    "SetWorkload",
    "DirectoryWorkload",
    "StackWorkload",
]
