"""Property tests: replicated objects under random failures stay correct."""

import random

from hypothesis import given, settings, strategies as st

from repro.adts import make_account_adt, make_queue_adt
from repro.core import (
    LockConflict,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.replication import (
    QuorumAssignment,
    QuorumSpec,
    ReplicatedTransactionManager,
    Unavailable,
)
from repro.runtime import TransactionManager


def account_assignment():
    return QuorumAssignment(
        5,
        {
            "Credit": QuorumSpec(0, 2),
            "Post": QuorumSpec(0, 2),
            "Debit": QuorumSpec(4, 2),
        },
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_replicated_runs_hybrid_atomic_under_failures(seed):
    rng = random.Random(seed)
    bus = TraceBus()
    recorded = bus.subscribe(HistorySink())
    manager = ReplicatedTransactionManager(tracer=bus)
    manager.create_object("A", make_account_adt(), account_assignment())
    active = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.12:
            obj = manager.object("A")
            if rng.random() < 0.5 and len(obj.live_replicas()) > 2:
                obj.fail_replicas(1)
            else:
                obj.recover_all()
        elif roll < 0.35 and active:
            txn = active.pop(rng.randrange(len(active)))
            try:
                manager.commit(txn)
            except Unavailable:
                manager.abort(txn)
        else:
            if len(active) < 3:
                active.append(manager.begin())
            txn = active[rng.randrange(len(active))]
            op = rng.choice(["Credit", "Debit", "Post"])
            amount = rng.randint(1, 9) if op != "Post" else 50
            try:
                manager.invoke(txn, "A", op, amount)
            except (LockConflict, WouldBlock, Unavailable):
                pass
    manager.object("A").recover_all()
    for txn in active:
        manager.commit(txn)
    h = recorded.history()
    assert timestamps_respect_precedes(h)
    assert is_hybrid_atomic(h, manager.specs())


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_replicated_matches_single_copy(seed):
    """With no failures, the replicated account behaves bit-for-bit like
    the single-copy runtime on the same sequential script."""
    rng = random.Random(seed)
    script = [
        (rng.choice(["Credit", "Debit"]), rng.randint(1, 15))
        for _ in range(20)
    ]
    replicated = ReplicatedTransactionManager()
    replicated.create_object("A", make_account_adt(), account_assignment())
    reference = TransactionManager()
    reference.create_object("A", make_account_adt())
    for op, amount in script:
        a = replicated.run_transaction(lambda ctx: ctx.invoke("A", op, amount))
        b = reference.run_transaction(lambda ctx: ctx.invoke("A", op, amount))
        assert a == b
    assert (
        replicated.object("A").snapshot() == reference.object("A").snapshot()
    )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_committed_effects_never_lost(failures, seed):
    """Any committed credit remains visible to a full-quorum debit after
    arbitrary fail/recover churn (stable logs + quorum intersection)."""
    rng = random.Random(seed)
    manager = ReplicatedTransactionManager()
    manager.create_object("A", make_account_adt(), account_assignment())
    obj = manager.object("A")
    committed_total = 0
    for _ in range(10):
        amount = rng.randint(1, 9)
        try:
            manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", amount))
            committed_total += amount
        except Unavailable:
            pass
        if rng.random() < 0.5:
            obj.fail_replicas(min(failures, len(obj.live_replicas()) - 2))
        else:
            obj.recover_all()
    obj.recover_all()
    assert (
        manager.run_transaction(
            lambda ctx: ctx.invoke("A", "Debit", committed_total)
        )
        == "Ok"
    )
    assert obj.snapshot() == 0
