"""Exception hierarchy shared across the library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ProtocolError",
    "LockConflict",
    "WouldBlock",
    "IllegalOperation",
    "TransactionAborted",
    "ValidationFailed",
]


class ReproError(Exception):
    """Base class for every library-specific error."""


class ProtocolError(ReproError):
    """A precondition of the locking protocol was violated by the caller
    (e.g. responding to a transaction with no pending invocation)."""


class LockConflict(ReproError):
    """Another active transaction holds a conflicting lock.

    The paper's protocol *refuses* the lock request; the invocation's
    tentative result is discarded and the invocation is retried later
    (possibly returning a different result).
    """

    def __init__(self, message: str = "", holder: str = "", operation=None):
        super().__init__(message or "lock refused: conflicting lock held")
        #: Transaction currently holding the conflicting lock, if known.
        self.holder = holder
        #: Conflicting operation already executed, if known.
        self.operation = operation


class WouldBlock(ReproError):
    """A partial operation has no legal outcome in the current view.

    Models the paper's blocking partial operations (``Deq`` on an empty
    queue); a live system would wait and retry.
    """


class IllegalOperation(ReproError):
    """The requested result is not legal in the transaction's view."""


class TransactionAborted(ReproError):
    """The transaction was aborted and cannot take further steps."""


class ValidationFailed(TransactionAborted):
    """Commit-time validation found a dependency on a later-committed
    operation that replay could not reconcile; the transaction aborts.

    A participant's veto that is a :class:`TransactionAborted` is final:
    the coordinator aborts everywhere before re-raising it.
    """

    def __init__(self, message: str = "", obj: str = ""):
        super().__init__(message or "optimistic validation failed")
        #: Object at which validation failed.
        self.obj = obj
