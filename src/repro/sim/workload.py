"""Workload generators for the simulation benchmarks.

A workload declares the objects a run uses and produces, per client, the
*script* of one transaction: a list of ``(object, operation, args)``
steps.  Scripts are regenerated for every transaction (and on restart
after an abort the client draws a fresh script — standard restart
semantics).

The built-in workloads mirror the scenarios the paper argues about:

* :class:`QueueWorkload` — producers enqueue, consumers dequeue; the
  hybrid/Fig 4-2 protocol lets producers run concurrently while
  commutativity locking serialises them (experiment C-Q).
* :class:`SemiQueueWorkload` — the same shape on the non-deterministic
  SemiQueue; both protocols allow concurrency (experiment C-S).
* :class:`AccountWorkload` — banking mix of Credit/Debit/Post over
  several accounts; hybrid lets Post run concurrently with
  Credit/successful Debit, commutativity does not (experiment C-A).
* :class:`FileWorkload` — read/write mix exhibiting the Thomas-write-rule
  generalisation (concurrent blind writes).
* :class:`SetWorkload` — membership/insert/remove mix on a Set.
* :class:`BankWorkload` — accounts spread over several sites; a
  transaction touches up to ``max_spread`` of them (experiment X-D).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from ..adts.account import make_account_adt
from ..adts.base import ADT, get_adt
from ..adts.directory import make_directory_adt
from ..adts.file import make_file_adt
from ..adts.queue import make_queue_adt
from ..adts.semiqueue import make_semiqueue_adt
from ..adts.set import make_set_adt
from ..adts.stack import make_stack_adt

__all__ = [
    "Step",
    "Workload",
    "QueueWorkload",
    "SemiQueueWorkload",
    "AccountWorkload",
    "FileWorkload",
    "SetWorkload",
    "DirectoryWorkload",
    "StackWorkload",
    "BankWorkload",
]

#: One transaction step: (object name, operation name, argument tuple).
Step = Tuple[str, str, Tuple[Any, ...]]


class Workload:
    """Base class: declares objects and per-client transaction scripts."""

    #: Short name used in benchmark tables.
    name: str = "workload"
    #: How many sites host the objects (more than one: over a network).
    sites: int = 1

    def objects(self) -> List[Tuple[str, ADT]]:
        """The (name, ADT) pairs the workload operates on."""
        raise NotImplementedError

    def client_count(self) -> int:
        """How many concurrent clients the workload defines."""
        raise NotImplementedError

    def script(self, client: int, rng: random.Random) -> List[Step]:
        """The steps of the next transaction for ``client``."""
        raise NotImplementedError

    def home(self, obj: str) -> int:
        """The index of the site that hosts ``obj``."""
        return 0

    def opening(self, site: int) -> List[Step]:
        """The steps of a transaction run at ``site`` before any client
        starts (none: the objects start at their initial states)."""
        return []

    def rng(self, seed: int, client: int) -> random.Random:
        """The stream ``client`` draws its scripts and pauses from."""
        return random.Random(f"{seed}/{client}")


@dataclass
class _ProducerConsumer(Workload):
    """Producers add unique items to one shared object; consumers take."""

    producers: int = 4
    consumers: int = 1
    ops_per_transaction: int = 4
    _next_item: int = field(default=0, repr=False)
    #: (object name, producer operation, consumer operation).
    roles = ("Q", "Enq", "Deq")

    def client_count(self) -> int:
        return self.producers + self.consumers

    def script(self, client: int, rng: random.Random) -> List[Step]:
        obj, put, take = self.roles
        if client < self.producers:
            steps: List[Step] = []
            for _ in range(self.ops_per_transaction):
                self._next_item += 1
                steps.append((obj, put, (self._next_item,)))
            return steps
        return [(obj, take, ()) for _ in range(self.ops_per_transaction)]


@dataclass
class QueueWorkload(_ProducerConsumer):
    """Producers enqueue unique items; consumers drain them.

    The paper's motivating scenario: enqueues do not commute, yet under
    the hybrid protocol concurrent producers never conflict (Figure 4-2);
    commit timestamps order their items.
    """

    #: Which minimal dependency relation drives the hybrid protocol:
    #: "fig42" (concurrent enqueues) or "fig43" (commutativity-shaped) —
    #: the ablation knob for the paper's incomparability discussion.
    dependency: str = "fig42"
    name: str = "queue"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [("Q", make_queue_adt(self.dependency))]


@dataclass
class SemiQueueWorkload(_ProducerConsumer):
    """Producers insert unique items; consumers remove some item."""

    name: str = "semiqueue"
    roles = ("S", "Ins", "Rem")

    def objects(self) -> List[Tuple[str, ADT]]:
        return [("S", make_semiqueue_adt())]


@dataclass
class AccountWorkload(Workload):
    """A banking mix over several accounts.

    Each transaction performs ``ops_per_transaction`` operations on
    randomly chosen accounts: credits with probability ``credit_p``,
    interest postings with probability ``post_p``, debits otherwise.
    Debit amounts are drawn small relative to typical balances, so
    overdrafts are rare — the regime in which Figure 4-5's result-aware
    conflicts shine (Credit/Post never wait for successful debits).
    """

    clients: int = 6
    accounts: int = 2
    ops_per_transaction: int = 3
    credit_p: float = 0.4
    post_p: float = 0.2
    max_amount: int = 20
    post_percent: int = 5
    name: str = "account"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [
            (f"A{i}", make_account_adt(initial=1000)) for i in range(self.accounts)
        ]

    def client_count(self) -> int:
        return self.clients

    def script(self, client: int, rng: random.Random) -> List[Step]:
        steps: List[Step] = []
        for _ in range(self.ops_per_transaction):
            account = f"A{rng.randrange(self.accounts)}"
            roll = rng.random()
            if roll < self.credit_p:
                steps.append((account, "Credit", (rng.randint(1, self.max_amount),)))
            elif roll < self.credit_p + self.post_p:
                steps.append((account, "Post", (self.post_percent,)))
            else:
                steps.append((account, "Debit", (rng.randint(1, self.max_amount),)))
        return steps


@dataclass
class FileWorkload(Workload):
    """A read/write mix over register files.

    With a low ``read_p`` this is the blind-write regime where the hybrid
    protocol's Thomas-write-rule generalisation lets writers run
    concurrently.
    """

    clients: int = 6
    files: int = 2
    ops_per_transaction: int = 3
    read_p: float = 0.2
    values: Sequence[Any] = (0, 1, 2, 3)
    name: str = "file"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [(f"F{i}", make_file_adt(initial=0)) for i in range(self.files)]

    def client_count(self) -> int:
        return self.clients

    def script(self, client: int, rng: random.Random) -> List[Step]:
        steps: List[Step] = []
        for _ in range(self.ops_per_transaction):
            name = f"F{rng.randrange(self.files)}"
            if rng.random() < self.read_p:
                steps.append((name, "Read", ()))
            else:
                steps.append((name, "Write", (rng.choice(tuple(self.values)),)))
        return steps


@dataclass
class SetWorkload(Workload):
    """Insert/remove/member mix over a shared Set."""

    clients: int = 6
    ops_per_transaction: int = 3
    member_p: float = 0.3
    values: Sequence[Any] = tuple(range(12))
    name: str = "set"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [("S", make_set_adt())]

    def client_count(self) -> int:
        return self.clients

    def script(self, client: int, rng: random.Random) -> List[Step]:
        steps: List[Step] = []
        for _ in range(self.ops_per_transaction):
            value = rng.choice(tuple(self.values))
            roll = rng.random()
            if roll < self.member_p:
                steps.append(("S", "Member", (value,)))
            elif roll < self.member_p + (1 - self.member_p) / 2:
                steps.append(("S", "Insert", (value,)))
            else:
                steps.append(("S", "Remove", (value,)))
        return steps


@dataclass
class DirectoryWorkload(Workload):
    """A keyed workload over one shared Directory with Zipf-like key skew.

    ``skew = 0`` picks keys uniformly; larger values concentrate traffic
    on a few hot keys (weights proportional to ``1 / rank**skew``).  The
    Directory's dependency relation is keyed, so the hybrid protocol
    degenerates to per-key locking — the skew knob controls how much that
    is worth over untyped whole-object locking.
    """

    clients: int = 6
    ops_per_transaction: int = 3
    key_count: int = 16
    skew: float = 0.0
    lookup_p: float = 0.4
    values: Sequence[Any] = (1, 2, 3)
    name: str = "directory"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [("D", make_directory_adt())]

    def client_count(self) -> int:
        return self.clients

    def _pick_key(self, rng: random.Random) -> str:
        weights = [1.0 / (rank ** self.skew) for rank in range(1, self.key_count + 1)]
        (index,) = rng.choices(range(self.key_count), weights=weights)
        return f"k{index}"

    def script(self, client: int, rng: random.Random) -> List[Step]:
        steps: List[Step] = []
        for _ in range(self.ops_per_transaction):
            key = self._pick_key(rng)
            roll = rng.random()
            if roll < self.lookup_p:
                steps.append(("D", "Lookup", (key,)))
            elif roll < self.lookup_p + 0.3:
                steps.append(("D", "Bind", (key, rng.choice(tuple(self.values)))))
            elif roll < self.lookup_p + 0.5:
                steps.append(("D", "Rebind", (key, rng.choice(tuple(self.values)))))
            else:
                steps.append(("D", "Unbind", (key,)))
        return steps


@dataclass
class StackWorkload(_ProducerConsumer):
    """Producers push unique items; consumers pop (LIFO twin of the
    queue workload; hybrid admits concurrent pushes)."""

    name: str = "stack"
    roles = ("S", "Push", "Pop")

    def objects(self) -> List[Tuple[str, ADT]]:
        return [("S", make_stack_adt())]


@dataclass
class BankWorkload(Workload):
    """A bank spread over ``sites``: ``accounts_per_site`` accounts each,
    funded with ``initial_balance`` by one opening transaction per site.

    A transaction draws up to ``max_spread`` sites and runs a
    Credit/Debit/Post mix on their accounts; one touching several sites
    commits by 2PC, its timestamp floors riding the votes (§3.3).
    """

    sites: int = 3
    accounts_per_site: int = 2
    clients: int = 6
    ops_per_transaction: int = 3
    max_spread: int = 2
    initial_balance: int = 1000
    name = "bank"

    def objects(self) -> List[Tuple[str, ADT]]:
        return [
            (f"acct{s}_{a}", get_adt("Account"))
            for s in range(self.sites)
            for a in range(self.accounts_per_site)
        ]

    def home(self, obj: str) -> int:
        return int(obj[len("acct"):obj.index("_")])

    def opening(self, site: int) -> List[Step]:
        return [
            (f"acct{site}_{a}", "Credit", (self.initial_balance,))
            for a in range(self.accounts_per_site)
        ]

    def client_count(self) -> int:
        return self.clients

    def rng(self, seed: int, client: int) -> random.Random:
        return random.Random(f"{seed}/client{client}")

    def script(self, client: int, rng: random.Random) -> List[Step]:
        spread = rng.randint(1, min(self.max_spread, self.sites))
        chosen = rng.sample(range(self.sites), spread)
        steps: List[Step] = []
        for _ in range(self.ops_per_transaction):
            obj = f"acct{rng.choice(chosen)}_{rng.randrange(self.accounts_per_site)}"
            roll = rng.random()
            if roll < 0.5:
                steps.append((obj, "Credit", (rng.randint(1, 20),)))
            elif roll < 0.9:
                steps.append((obj, "Debit", (rng.randint(1, 20),)))
            else:
                steps.append((obj, "Post", (5,)))
        return steps
