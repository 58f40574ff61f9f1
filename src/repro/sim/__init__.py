"""Discrete-event simulation of concurrent transaction workloads, on one
site or many."""

from ..runtime.waiting import WaitRegistry
from .des import Simulator
from .client import Client, ClientParams
from .experiment import Run, compare_protocols, run_experiment
from .metrics import Metrics
from .network import Network
from .site import Site
from .workload import (
    AccountWorkload,
    BankWorkload,
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
    "Metrics",
    "Client",
    "ClientParams",
    "Network",
    "Site",
    "Run",
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
    "BankWorkload",
]
