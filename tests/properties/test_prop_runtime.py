"""Property tests: random runtime executions are always hybrid atomic,
under every protocol, both timestamp generators, and failure injection."""

import random

from hypothesis import given, settings, strategies as st

from repro.adts import (
    make_account_adt,
    make_queue_adt,
    make_semiqueue_adt,
    make_set_adt,
)
from repro.core import (
    LockConflict,
    SkewedTimestampGenerator,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.protocols import ALL_PROTOCOLS
from repro.runtime import TransactionManager

OPS = [
    ("Q", "Enq", lambda rng: (rng.randint(1, 4),)),
    ("Q", "Deq", lambda rng: ()),
    ("S", "Ins", lambda rng: (rng.randint(1, 4),)),
    ("S", "Rem", lambda rng: ()),
    ("A", "Credit", lambda rng: (rng.randint(1, 5),)),
    ("A", "Debit", lambda rng: (rng.randint(1, 5),)),
    ("A", "Post", lambda rng: (50,)),
    ("Z", "Insert", lambda rng: (rng.randint(1, 3),)),
    ("Z", "Member", lambda rng: (rng.randint(1, 3),)),
]


def run_random_workload(protocol, skewed, seed, steps=70):
    rng = random.Random(seed)
    generator = SkewedTimestampGenerator(seed=seed) if skewed else None
    bus = TraceBus()
    recorded = bus.subscribe(HistorySink())
    manager = TransactionManager(tracer=bus, generator=generator)
    manager.create_object("Q", make_queue_adt(), protocol=protocol)
    manager.create_object("S", make_semiqueue_adt(), protocol=protocol)
    manager.create_object("A", make_account_adt(), protocol=protocol)
    manager.create_object("Z", make_set_adt(), protocol=protocol)
    active = []
    counter = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15 and active:
            txn = active.pop(rng.randrange(len(active)))
            manager.abort(txn)  # failure injection
        elif roll < 0.35 and active:
            txn = active.pop(rng.randrange(len(active)))
            manager.commit(txn)
        else:
            if len(active) < 4:
                counter += 1
                active.append(manager.begin(f"T{counter}"))
            txn = active[rng.randrange(len(active))]
            obj, operation, args = OPS[rng.randrange(len(OPS))]
            try:
                manager.invoke(txn, obj, operation, *args(rng))
            except (LockConflict, WouldBlock):
                pass
    for txn in active:
        if rng.random() < 0.5:
            manager.commit(txn)
        else:
            manager.abort(txn)
    return manager, recorded


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(ALL_PROTOCOLS),
)
def test_random_runs_hybrid_atomic_monotone(seed, protocol):
    manager, recorded = run_random_workload(protocol, skewed=False, seed=seed)
    h = recorded.history()
    assert timestamps_respect_precedes(h)
    assert is_hybrid_atomic(h, manager.specs())


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_runs_hybrid_atomic_skewed(seed):
    from repro.protocols import HYBRID

    manager, recorded = run_random_workload(HYBRID, skewed=True, seed=seed)
    h = recorded.history()
    assert timestamps_respect_precedes(h)
    assert is_hybrid_atomic(h, manager.specs())


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_optimistic_random_runs_hybrid_atomic(seed):
    """Random executions on the optimistic engine (no locks, commit-time
    certification) also verify hybrid atomic."""
    from repro.runtime import OptimisticTransactionManager, ValidationFailed

    rng = random.Random(seed)
    bus = TraceBus()
    recorded = bus.subscribe(HistorySink())
    manager = OptimisticTransactionManager(tracer=bus)
    manager.create_object("Q", make_queue_adt())
    manager.create_object("A", make_account_adt())
    active = []
    counter = 0
    for _ in range(60):
        roll = rng.random()
        if roll < 0.3 and active:
            txn = active.pop(rng.randrange(len(active)))
            try:
                manager.commit(txn)
            except ValidationFailed:
                pass  # aborted internally
        else:
            if len(active) < 4:
                counter += 1
                active.append(manager.begin(f"T{counter}"))
            txn = active[rng.randrange(len(active))]
            obj, operation, args = OPS[rng.randrange(len(OPS))]
            if obj in ("S", "Z"):
                continue
            try:
                manager.invoke(txn, obj, operation, *args(rng))
            except WouldBlock:
                pass
    for txn in active:
        try:
            manager.commit(txn)
        except ValidationFailed:
            pass
    h = recorded.history()
    assert timestamps_respect_precedes(h)
    assert is_hybrid_atomic(h, manager.specs())
