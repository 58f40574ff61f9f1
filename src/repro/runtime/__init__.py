"""Runtime layer: the one transaction manager and two kinds of the objects
it drives — the Section 6 LOCK machine and the optimistic object (the
third kind is :class:`repro.replication.ReplicatedObject`)."""

from .manager import ManagedObject, TransactionContext, TransactionManager
from .optimistic import (
    OptimisticObject,
    OptimisticTransactionManager,
    ValidationFailed,
)
from .transaction import Status, Transaction

__all__ = [
    "TransactionManager",
    "TransactionContext",
    "ManagedObject",
    "Transaction",
    "Status",
    "OptimisticTransactionManager",
    "OptimisticObject",
    "ValidationFailed",
]
