"""Blocked-transaction bookkeeping: the waits-for graph and its one rule.

The locking protocol itself only says a refused lock request "is later
retried"; *how* the requester waits is a scheduling policy.  Two users
share this one registry, and its one rule:

* the simulator, under its ``block`` wait policy (its default, ``retry``,
  polls again after a backoff and never waits): a refused transaction
  sleeps until the lock-holding transaction completes;
* the serving tier, which parks a refused invocation on its holder and
  re-executes it when the holder's handle closes.

The rule (:meth:`WaitRegistry.wait`): a transaction waits only on a
holder that is not itself waiting.  A declined wait is answered as an
unwaited refusal — the server answers ``CONFLICT``, the simulated client
abandons its transaction, as a served client does with that answer.

The registry is engine-agnostic: it maps transaction names to wakeup
callbacks and edges, and its users drive it.  A wait's ``lock.wait``
event is emitted when the wait *ends* — at :meth:`release` or
:meth:`cancel` — so the span interval it closes is the wait itself, and
spans charge it to ``lock-wait``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["WaitRegistry"]


class WaitRegistry:
    """Waits-for edges between transactions, with wakeup callbacks.

    A transaction has at most one outstanding wait (transactions are
    single-threaded); a holder may have many waiters.  ``release`` must be
    called when a transaction completes so its waiters resume.
    """

    def __init__(self, tracer=None):
        #: waiter -> holder (at most one outgoing edge per waiter).
        self._waiting_for: Dict[str, str] = {}
        #: holder -> list of (waiter, callback).
        self._waiters: Dict[str, List[tuple]] = {}
        #: Optional :class:`repro.obs.TraceBus` (None = no tracing).
        self.tracer = tracer

    def edges(self) -> Dict[str, str]:
        """A copy of the waits-for graph (waiter → holder)."""
        return dict(self._waiting_for)

    def waiting_for(self, waiter: str) -> Optional[str]:
        """The transaction ``waiter`` is blocked on, if any."""
        return self._waiting_for.get(waiter)

    def waited_on(self, holder: str) -> bool:
        """Is any transaction blocked on ``holder``?"""
        return holder in self._waiters

    def waiter_count(self) -> int:
        """How many transactions are currently blocked."""
        return len(self._waiting_for)

    def wait(self, waiter: str, holder: str, wake: Callable[[], None]) -> bool:
        """Block ``waiter`` on ``holder``; ``wake`` runs at release.

        Returns False, recording nothing, when ``holder`` is itself
        waiting: the caller answers the refusal unwaited.
        """
        if waiter == holder:
            raise ValueError("a transaction cannot wait for itself")
        if waiter in self._waiting_for:
            raise ValueError(f"{waiter} is already waiting")
        # Every edge admitted ends at a transaction that is not waiting,
        # so the graph stays acyclic, and no wait needs a timer to end:
        # a simulated holder always commits, aborts or is abandoned
        # after its retry budget.  Only a served client can go idle
        # holding a lock, which is why the server bounds a wait by
        # ``WAIT_BOUND``.
        if holder in self._waiting_for:
            return False
        self._waiting_for[waiter] = holder
        self._waiters.setdefault(holder, []).append((waiter, wake))
        return True

    def _ended(self, waiter: str, holder: str) -> None:
        """``waiter``'s wait on ``holder`` is over: the ``lock.wait``."""
        if self.tracer is not None:
            self.tracer.emit("lock.wait", transaction=waiter, holder=holder)

    def release(self, completed: str) -> int:
        """Wake everyone blocked on ``completed``; returns the count."""
        entries = self._waiters.pop(completed, None)
        if not entries:
            return 0
        for waiter, wake in entries:
            del self._waiting_for[waiter]
            self._ended(waiter, completed)
            wake()
        return len(entries)

    def cancel(self, waiter: str) -> None:
        """Withdraw a wait (e.g. the waiter was aborted externally)."""
        holder = self._waiting_for.pop(waiter, None)
        if holder is None:
            return
        self._ended(waiter, holder)
        entries = self._waiters[holder]
        entries[:] = [e for e in entries if e[0] != waiter]
        if not entries:
            del self._waiters[holder]
