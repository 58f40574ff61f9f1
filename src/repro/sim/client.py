"""The one simulated client: scripted transactions as engine ops to sites.

Each step names (site index, object, operation, args) and every exchange
with a :class:`~repro.sim.site.Site` is an engine op, as a served
client's would be.  The first touch of a site piggybacks ``begin`` on the
``invoke``; an answered step is followed after ``op_time`` by the next; a
refused lock or a would-block partial operation retries after
``backoff`` (or, under the ``block`` policy, waits for the holder the
``CONFLICT`` names), and the transaction is abandoned after
``max_step_retries`` refusals of one step or when the registry declines
its wait, as a served client abandons a ``CONFLICT`` it was not parked
on.  One site ends with a plain ``commit`` (``ABORTED``: a failed
optimistic validation), several with
:func:`~repro.server.engine.two_phase_commit`.
The next script starts after ``think_time`` (+ ``commit_time``).

Without a ``network`` an op is a direct call and the :class:`ClientParams`
times are the only clock (:func:`~repro.sim.run_experiment`); over one,
each op and each answer is a message (``prepare`` answered by ``vote``),
and verdicts (``apply_commit`` / ``abort``) are resent after ``backoff``
while their site is down.  A transaction a crash kills is counted by the
crash (its site names the victims to the clients watching it); a client
counts only what it abandons itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..runtime.waiting import WaitRegistry
from ..server.engine import ShardDown, two_phase_commit
from .des import Simulator
from .metrics import Metrics

__all__ = ["Client", "ClientParams", "SiteStep"]

#: One step: (site index, object name, operation name, args tuple).
SiteStep = Tuple[int, str, str, Tuple[Any, ...]]

#: Answers that mean the transaction is gone where it ran: abandon it.
_LOST = frozenset({"SHARD_DOWN", "UNKNOWN_TXN", "ABORTED"})


class _Direct:
    """No network: a message is delivered as it is sent."""

    @staticmethod
    def send(label: str, deliver: Callable[[], None]) -> None:
        deliver()


@dataclass(frozen=True)
class ClientParams:
    """Timing and scheduling knobs shared by every client in a run.

    ``wait_policy`` selects how a refused lock is handled: ``"retry"``
    polls again after ``backoff``; ``"block"`` sleeps until the holding
    transaction completes, unless that holder is itself waiting, when the
    requester is abandoned (:meth:`~repro.runtime.waiting.WaitRegistry.wait`).
    A mean of 0 draws nothing.
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


class Client:
    """One simulated client: a little state machine over the event loop."""

    def __init__(
        self,
        index: int,
        simulator: Simulator,
        sites: Sequence[Any],
        script_fn: Callable[[int, random.Random], List[SiteStep]],
        params: ClientParams,
        metrics: Metrics,
        rng: random.Random,
        network: Optional[Any] = None,
        waits: Optional[WaitRegistry] = None,
    ):
        self.index = index
        self.simulator = simulator
        self.sites = sites
        self.script_fn = script_fn
        self.params = params
        self.metrics = metrics
        self.rng = rng
        self.network = network or _Direct
        self.waits = waits
        self._serial = 0
        #: The transaction in progress (None between transactions), and
        #: whether a crash killed (and counted) it.
        self.transaction: Optional[str] = None
        self.lost = False
        self.script: List[SiteStep] = []
        self.position = 0
        self.retries = 0
        #: Site indices in first-touch order; the first is the 2PC primary.
        self.participants: List[int] = []
        self.started_at = 0.0
        for site in sites:
            site.watchers.append(self._crashed)

    def _pause(self, mean: float) -> float:
        return self.params.jittered(self.rng, mean)

    def start(self) -> None:
        """Begin the first transaction after a think-time stagger."""
        self.simulator.schedule(self._pause(self.params.think_time), self._begin)

    def _begin(self) -> None:
        self._serial += 1
        self.transaction = f"C{self.index}.{self._serial}"
        self.lost = False
        self.script = self.script_fn(self.index, self.rng)
        self.position = 0
        self.retries = 0
        self.participants = []
        self.started_at = self.simulator.now
        self._next_step(self.params.op_time)

    def _next_step(self, mean: float) -> None:
        self.simulator.schedule(self._pause(mean), self._step)

    def _crashed(self, victims: List[str]) -> None:
        if self.transaction in victims and not self.lost:
            self.lost = True
            self.metrics.aborted += 1

    def _send(
        self,
        site: int,
        ops: List[Dict[str, Any]],
        on_reply: Optional[Callable[[Optional[Dict[str, Any]]], None]] = None,
    ) -> None:
        """One message carrying ``ops`` to ``site``.

        With ``on_reply``, the reply to the last op (None from a dead
        site) rides back as its own message.  Without, the message is a
        verdict: nothing comes back, and it is sent again after a backoff
        for as long as the site is down.
        """
        label = ops[-1]["op"]

        def at_site() -> None:
            try:
                reply = self.sites[site].call(ops)[-1]
            except ShardDown:
                if on_reply is None:
                    retry = lambda: self._send(site, ops)
                    self.simulator.schedule(self.params.backoff, retry)
                    return
                reply = None
            if on_reply is not None:
                self.network.send(
                    "vote" if label == "prepare" else f"{label}-reply",
                    lambda: on_reply(reply),
                )

        self.network.send(label, at_site)

    # -- operation phase --------------------------------------------------

    def _step(self) -> None:
        if self.position >= len(self.script):
            self._complete()
            return
        site, obj, operation, args = self.script[self.position]
        transaction = self.transaction
        ops = [{"op": "invoke", "txn": transaction, "obj": obj,
                "operation": operation, "args": args}]
        if site not in self.participants:
            # First touch begins the transaction there — quietly off the
            # primary, whose txn.begin is the one loud one.
            quiet = bool(self.participants)
            ops.insert(0, {"op": "begin", "name": transaction, "quiet": quiet})
            self.participants.append(site)
        self._send(site, ops, self._answered)

    def _answered(self, reply: Optional[Dict[str, Any]]) -> None:
        code = "SHARD_DOWN" if reply is None else reply.get("error")
        if code is None:
            self.metrics.operations += 1
            self.position += 1
            self.retries = 0
            self._next_step(self.params.op_time)
            return
        if code == "CONFLICT":
            self.metrics.conflicts += 1
            if self.waits is not None and reply["holder"]:
                # block policy: sleep until the holder completes
                wake = lambda: self._next_step(0)
                if not self.waits.wait(self.transaction, reply["holder"], wake=wake):
                    self._abandon()
                return
        elif code == "WOULD_BLOCK":
            self.metrics.blocks += 1
        elif code in _LOST:  # the site is down, or lost us to a crash
            self._abandon()
            return
        else:
            raise ReproError(f"{self.transaction}: {reply}")
        self.retries += 1
        if self.retries > self.params.max_step_retries:
            self._abandon()
            return
        self._next_step(self.params.backoff)

    def _abandon(self) -> None:
        for site in self.participants:
            self._send(site, [{"op": "abort", "txn": self.transaction}])
        self._finished(None)

    # -- completion ---------------------------------------------------------

    def _complete(self) -> None:
        name, sites = self.transaction, self.participants
        if len(sites) > 1:
            self._run_rounds(two_phase_commit(name, sites, sites[0]))
        elif sites:
            self._send(sites[0], [{"op": "commit", "txn": name}], self._committed)
        else:  # nothing touched (degenerate script)
            self._finished({"ok": None})

    def _committed(self, reply: Optional[Dict[str, Any]]) -> None:
        if reply is not None and reply.get("error") == "ABORTED":
            self.metrics.validation_failures += 1  # optimistic objects only
        self._finished(reply)

    def _run_rounds(self, rounds: Generator, replies: Optional[List] = None) -> None:
        """Drive the decision procedure: one message per op of a round, the
        next round once every question of this one has its answer."""
        try:
            ops = rounds.send(replies)
        except StopIteration as done:
            self._finished(done.value)
            return
        answers: List[Any] = [None] * len(ops)
        if not ops or ops[0][1]["op"] in ("apply_commit", "abort"):
            for site, op in ops:  # verdicts: retransmitted, never answered
                self._send(site, [op])
            self._run_rounds(rounds, answers)
            return
        waiting = set(range(len(ops)))

        def collect(slot: int, reply: Optional[Dict[str, Any]]) -> None:
            answers[slot] = reply
            waiting.discard(slot)
            if not waiting:
                self._run_rounds(rounds, answers)

        for slot, (site, op) in enumerate(ops):
            self._send(site, [op], lambda reply, slot=slot: collect(slot, reply))

    def _finished(self, outcome: Optional[Dict[str, Any]]) -> None:
        """Count the outcome (an ``ok`` reply: committed) and move on."""
        if self.waits is not None:
            self.waits.release(self.transaction)
        pause = self._pause(self.params.think_time)
        if outcome is not None and "ok" in outcome:
            self.metrics.committed += 1
            self.metrics.total_latency += self.simulator.now - self.started_at
            pause += self._pause(self.params.commit_time)
        elif not self.lost:
            self.metrics.aborted += 1
        self.transaction = None
        self.simulator.schedule(pause, self._begin)
