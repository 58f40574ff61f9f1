"""The full ADT × protocol matrix: every pairing runs and verifies.

For each registered type and each locking protocol, a canned random
workload is pushed through the LOCK machine and the accepted history is
checked hybrid atomic; the optimistic engine gets the same treatment via
its manager.  This is breadth insurance: any new type or protocol that
breaks a pairing fails here by name.
"""

import random

import pytest

from repro.adts import get_adt, registry
from repro.core import (
    Invocation,
    LockConflict,
    LockMachine,
    WouldBlock,
    is_hybrid_atomic,
)
from repro.obs import HistorySink, TraceBus
from repro.protocols import ALL_PROTOCOLS
from repro.runtime import OptimisticTransactionManager, ValidationFailed

INVOCATION_POOLS = {
    "File": [Invocation("Write", (1,)), Invocation("Write", (2,)), Invocation("Read")],
    "FIFOQueue": [Invocation("Enq", (1,)), Invocation("Enq", (2,)), Invocation("Deq")],
    "BoundedQueue": [Invocation("Enq", (1,)), Invocation("Enq", (2,)), Invocation("Deq")],
    "Stack": [Invocation("Push", (1,)), Invocation("Push", (2,)), Invocation("Pop")],
    "SemiQueue": [Invocation("Ins", (1,)), Invocation("Ins", (2,)), Invocation("Rem")],
    "Account": [
        Invocation("Credit", (3,)),
        Invocation("Post", (50,)),
        Invocation("Debit", (2,)),
    ],
    "Counter": [
        Invocation("Inc", (1,)),
        Invocation("Dec", (1,)),
        Invocation("Read"),
    ],
    "Set": [
        Invocation("Insert", (1,)),
        Invocation("Remove", (1,)),
        Invocation("Member", (1,)),
    ],
    "Directory": [
        Invocation("Bind", ("k", 1)),
        Invocation("Rebind", ("k", 2)),
        Invocation("Unbind", ("k",)),
        Invocation("Lookup", ("k",)),
    ],
}


def drive_machine(machine, pool, seed):
    rng = random.Random(seed)
    stamps = iter(range(1, 100))
    active = []
    counter = 0
    for _ in range(40):
        roll = rng.random()
        if roll < 0.2 and active:
            machine.abort(active.pop(rng.randrange(len(active))))
        elif roll < 0.45 and active:
            machine.commit(active.pop(rng.randrange(len(active))), next(stamps))
        else:
            if len(active) < 3:
                counter += 1
                active.append(f"T{counter}")
            transaction = active[rng.randrange(len(active))]
            try:
                machine.execute(transaction, rng.choice(pool))
            except (LockConflict, WouldBlock):
                pass
    for transaction in active:
        machine.commit(transaction, next(stamps))


@pytest.mark.parametrize("adt_name", sorted(INVOCATION_POOLS))
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.name)
def test_every_type_under_every_locking_protocol(adt_name, protocol):
    adt = get_adt(adt_name)
    machine = LockMachine(adt.spec, protocol.conflict_for(adt))
    drive_machine(machine, INVOCATION_POOLS[adt_name], seed=13)
    history = machine.history()
    assert is_hybrid_atomic(history, {"X": adt.spec})


@pytest.mark.parametrize("adt_name", sorted(INVOCATION_POOLS))
def test_every_type_under_optimistic_engine(adt_name):
    adt = get_adt(adt_name)
    bus = TraceBus()
    recorded = bus.subscribe(HistorySink())
    manager = OptimisticTransactionManager(tracer=bus)
    manager.create_object("X", adt)
    rng = random.Random(17)
    pool = INVOCATION_POOLS[adt_name]
    active = []
    for _ in range(40):
        roll = rng.random()
        if roll < 0.4 and active:
            txn = active.pop(rng.randrange(len(active)))
            try:
                manager.commit(txn)
            except ValidationFailed:
                pass
        else:
            if len(active) < 3:
                active.append(manager.begin())
            txn = active[rng.randrange(len(active))]
            invocation = rng.choice(pool)
            try:
                manager.invoke(txn, "X", invocation.name, *invocation.args)
            except WouldBlock:
                pass
    for txn in active:
        try:
            manager.commit(txn)
        except ValidationFailed:
            pass
    assert is_hybrid_atomic(recorded.history(), manager.specs())


def test_matrix_covers_registry():
    assert set(INVOCATION_POOLS) == set(registry())
