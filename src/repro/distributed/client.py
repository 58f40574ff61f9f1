"""Distributed clients: message scheduling, retries and metrics.

A client runs scripted transactions whose steps name (site index, object,
operation, args).  Every interaction is one simulated message carrying
engine ops to a :class:`~repro.distributed.site.Site` and, where the
answer matters, one carrying the reply back: 2 messages per operation
(the first touch of a site piggybacks ``begin``).  A single-site script
ends with plain ``commit``, as in the server; a multi-site one runs
:func:`repro.server.engine.two_phase_commit` — the decision procedure
``ShardSet`` runs over blocking calls — one message per op of a round:
``prepare`` + ``vote`` per participant, ``decide`` + reply on the
first-touched site (the primary), one ``apply_commit`` per other
participant.  Verdicts (``apply_commit`` / ``abort``) are retransmitted
after a backoff while their site is down, so a site that fail-stops
after voting still learns the outcome.  Lock refusals retry with
backoff; a lost transaction (site crash) or retry exhaustion aborts and
restarts with a fresh script.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..server.engine import ShardDown, two_phase_commit
from ..sim.des import Simulator
from ..sim.metrics import Metrics
from .network import Network
from .site import Site

__all__ = ["DistributedClient", "DistributedStep"]

#: One step: (site index, object name, operation name, args tuple).
DistributedStep = Tuple[int, str, str, Tuple[Any, ...]]


class DistributedClient:
    """A scripted client/coordinator over the simulated network."""

    def __init__(
        self,
        index: int,
        simulator: Simulator,
        network: Network,
        sites: Sequence[Site],
        script_fn: Callable[[int, random.Random], List[DistributedStep]],
        metrics: Metrics,
        rng: random.Random,
        think_time: float = 0.5,
        backoff: float = 1.0,
        max_step_retries: int = 10,
    ):
        self.index = index
        self.simulator = simulator
        self.network = network
        self.sites = sites
        self.script_fn = script_fn
        self.metrics = metrics
        self.rng = rng
        self.think_time = think_time
        self.backoff = backoff
        self.max_step_retries = max_step_retries
        self._serial = 0
        self.transaction = ""
        self.script: List[DistributedStep] = []
        self.position = 0
        self.retries = 0
        #: Site indices in first-touch order; the first is the 2PC primary.
        self.participants: List[int] = []
        self.started_at = 0.0

    def start(self) -> None:
        """Begin the next (or first) transaction after a think time."""
        self.simulator.schedule(
            self.rng.expovariate(1.0 / self.think_time), self._begin
        )

    def _begin(self) -> None:
        self._serial += 1
        self.transaction = f"C{self.index}.{self._serial}"
        self.script = self.script_fn(self.index, self.rng)
        self.position = 0
        self.retries = 0
        self.participants = []
        self.started_at = self.simulator.now
        self._send_step()

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
                    self.simulator.schedule(self.backoff, lambda: self._send(site, ops))
                    return
                reply = None
            if on_reply is not None:
                self.network.send(
                    "vote" if label == "prepare" else f"{label}-reply",
                    lambda: on_reply(reply),
                )

        self.network.send(label, at_site)

    # -- operation phase --------------------------------------------------

    def _send_step(self) -> None:
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
        self._send(site, ops, lambda reply: self._on_invoke_reply(transaction, reply))

    def _on_invoke_reply(self, transaction: str, reply: Optional[Dict]) -> None:
        if transaction != self.transaction:
            return  # stale reply for an earlier incarnation
        code = "SHARD_DOWN" if reply is None else reply.get("error")
        if code is None:
            self.metrics.operations += 1
            self.position += 1
            self.retries = 0
            self._send_step()
            return
        if code == "CONFLICT":
            self.metrics.conflicts += 1
        elif code == "WOULD_BLOCK":
            self.metrics.blocks += 1
        else:  # the site is down, or lost us to a crash: restart
            self._abort_and_restart()
            return
        self.retries += 1
        if self.retries > self.max_step_retries:
            self._abort_and_restart()
            return
        self.simulator.schedule(
            self.rng.expovariate(1.0 / self.backoff), self._send_step
        )

    def _abort_and_restart(self) -> None:
        for site in self.participants:
            self._send(site, [{"op": "abort", "txn": self.transaction}])
        self._finished(None)

    # -- completion ---------------------------------------------------------

    def _complete(self) -> None:
        name, sites = self.transaction, self.participants
        if len(sites) > 1:
            self._run_rounds(two_phase_commit(name, sites, sites[0]))
        elif sites:
            self._send(sites[0], [{"op": "commit", "txn": name}], self._finished)
        else:  # nothing touched (degenerate script)
            self._finished({"ok": None})

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
        if outcome is not None and "ok" in outcome:
            self.metrics.committed += 1
            self.metrics.total_latency += self.simulator.now - self.started_at
        else:
            self.metrics.aborted += 1
        self.start()
