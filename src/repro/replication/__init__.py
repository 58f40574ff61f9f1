"""Quorum-consensus replication for abstract data types (paper §7.2, [8]):
the replicated participant of :class:`repro.runtime.TransactionManager`."""

from .quorum import QuorumAssignment, QuorumSpec, QuorumViolation
from .replicated import (
    Replica,
    ReplicatedObject,
    ReplicatedTransactionManager,
    Unavailable,
)

__all__ = [
    "QuorumSpec",
    "QuorumAssignment",
    "QuorumViolation",
    "Replica",
    "ReplicatedObject",
    "ReplicatedTransactionManager",
    "Unavailable",
]
