"""Multi-site transactions: simulated network, 2PC, piggybacked clocks."""

from ..sim.site import Site
from .experiment import DistributedRun, run_distributed_experiment
from .network import Network

__all__ = [
    "Network",
    "Site",
    "DistributedRun",
    "run_distributed_experiment",
]
