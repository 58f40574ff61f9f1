"""The four workloads and their seeded transaction plans.

A plan is built from ``--seed`` before the clock starts; the server only
ever sees the requests.  Each logical client owns a fixed list of
transactions and walks it in order (cycling when a long window outlasts
it), so the same seed gives the same requests in the same per-client
order whatever the server's speed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.server import shard_for

#: One operation: (object, operation name, argument tuple).  ``Enq``
#: carries no argument in the plan: the generator numbers enqueued
#: values ``client * ENQ_STRIDE + n`` so every value is unique and the
#: oracle can check dequeue order.
Op = Tuple[str, str, Tuple[int, ...]]
Txn = Tuple[Op, ...]

ENQ_STRIDE = 10_000_000

#: Transactions planned per logical client.
PLAN_TXNS = 1024

#: Items each FIFOQueue holds before the window, so a Deq meets an empty
#: queue (WOULD_BLOCK) only if dequeues outrun enqueues.
QUEUE_SEED_ITEMS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Arguments after ``repro serve --port 0`` (data/flight dirs are
    #: added by the launcher).
    server_args: Tuple[str, ...]
    connections: int
    in_flight: int  # logical clients per connection
    objects: Tuple[Tuple[str, str], ...]  # (name, ADT)
    kind: str  # which plan builder
    durable: bool = False
    #: Generator on the server's CPU instead of its own (see README,
    #: "CPU placement").
    colocate: bool = False

    @property
    def clients(self) -> int:
        return self.connections * self.in_flight


def _named(prefix: str, count: int, adt: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((f"{prefix}-{index:03d}", adt) for index in range(count))


ACCOUNTS = _named("acct", 256, "Account")
HOT_OBJECTS = (
    _named("ctr", 32, "Counter")
    + _named("q", 32, "FIFOQueue")
    + _named("hot", 32, "Account")
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="solo-latency",
            why="one client, nothing queues or conflicts: p50 is the "
            "per-request floor (socket, loop wake-up, queue hop, codec)",
            server_args=("--workers", "1"),
            connections=1,
            in_flight=1,
            objects=ACCOUNTS,
            kind="uniform",
            colocate=True,
        ),
        Workload(
            name="mem-uniform",
            why="16 in flight, no contention, no WAL: saturates "
            "server.protocol and server.server, core.* does little",
            server_args=("--workers", "1"),
            connections=2,
            in_flight=8,
            objects=ACCOUNTS,
            kind="uniform",
        ),
        Workload(
            name="mem-contended",
            why="the paper's case: typed hot objects, observers beside "
            "commuting writers, aborts and retries in core.lock_machine",
            server_args=("--workers", "1"),
            connections=2,
            in_flight=8,
            objects=HOT_OBJECTS,
            kind="contended",
        ),
        Workload(
            name="wal-pool",
            why="socket to parent to pipe to child to group-commit WAL, "
            "10% cross-shard 2PC, then SIGKILL and recovery",
            server_args=("--processes", "2", "--durability", "group"),
            connections=2,
            in_flight=16,
            objects=ACCOUNTS,
            kind="sharded",
            durable=True,
        ),
    )
}


def _uniform_txn(rng: random.Random, names: Sequence[str]) -> Txn:
    return tuple(
        (rng.choice(names), "Credit", (rng.randint(1, 100),)) for _ in range(2)
    )


def _contended_op(rng: random.Random, name: str, adt: str) -> Op:
    roll = rng.random()
    if adt == "Counter":
        if roll < 0.90:
            return (name, "Inc", (rng.randint(1, 3),))
        return (name, "Read", ())
    if adt == "FIFOQueue":
        return (name, "Enq", ()) if roll < 0.85 else (name, "Deq", ())
    if roll < 0.70:
        return (name, "Credit", (rng.randint(1, 100),))
    return (name, "Debit", (1,))


def _contended_txn(rng: random.Random, objects: Sequence[Tuple[str, str]]) -> Txn:
    return tuple(_contended_op(rng, *rng.choice(objects)) for _ in range(4))


def _sharded_txn(rng: random.Random, by_shard: Sequence[Sequence[str]]) -> Txn:
    if rng.random() < 0.10:
        homes = (0, 1)
    else:
        home = rng.randrange(2)
        homes = (home, home)
    return tuple(
        (rng.choice(by_shard[home]), "Credit", (rng.randint(1, 100),))
        for home in homes
    )


def build_plans(
    workload: Workload, seed: int, txns: int = PLAN_TXNS
) -> List[List[Txn]]:
    """One transaction list per logical client, from ``seed`` alone."""
    names = [name for name, _adt in workload.objects]
    by_shard = [[n for n in names if shard_for(n, 2) == s] for s in (0, 1)]
    plans: List[List[Txn]] = []
    for client in range(workload.clients):
        rng = random.Random(f"{workload.name}/{seed}/{client}")
        if workload.kind == "uniform":
            plan = [_uniform_txn(rng, names) for _ in range(txns)]
        elif workload.kind == "contended":
            plan = [_contended_txn(rng, workload.objects) for _ in range(txns)]
        else:
            plan = [_sharded_txn(rng, by_shard) for _ in range(txns)]
        plans.append(plan)
    return plans


def plan_bytes(plans: List[List[Txn]]) -> bytes:
    """Canonical serialisation (what "same seed, same inputs" means)."""
    return json.dumps(plans, separators=(",", ":")).encode("utf-8")


def cross_shard(txn: Txn) -> bool:
    return len({shard_for(obj, 2) for obj, _op, _args in txn}) > 1
