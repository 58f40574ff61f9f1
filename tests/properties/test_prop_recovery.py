"""Property tests: checkpoint + WAL replay always reconstructs exactly
the committed prefix of a random workload — crashing teaches the log
nothing and loses nothing durable."""

import random

from hypothesis import given, settings, strategies as st

from repro.adts import make_account_adt, make_queue_adt, make_set_adt
from repro.core import LockConflict, WouldBlock
from repro.recovery import (
    MemoryWAL,
    committed_state_sets,
    recover_manager,
    verify_recovery,
)
from repro.runtime import TransactionManager

#: The record kinds ``recovery._scan`` acts on.
ACTED_ON = {"meta", "create", "prepare", "commit", "abort", "checkpoint"}

OPS = [
    ("Q", "Enq", lambda rng: (rng.randint(1, 4),)),
    ("Q", "Deq", lambda rng: ()),
    ("A", "Credit", lambda rng: (rng.randint(1, 5),)),
    ("A", "Debit", lambda rng: (rng.randint(1, 5),)),
    ("Z", "Insert", lambda rng: (rng.randint(1, 3),)),
    ("Z", "Member", lambda rng: (rng.randint(1, 3),)),
]


def run_random_workload(seed, steps, checkpoint_at=None):
    """Drive a random logged workload; returns its manager."""
    rng = random.Random(f"recovery-prop/{seed}")
    manager = TransactionManager(wal=MemoryWAL())
    manager.create_object("Q", make_queue_adt())
    manager.create_object("A", make_account_adt(initial=30))
    manager.create_object("Z", make_set_adt())
    active = []
    counter = 0
    for step in range(steps):
        if checkpoint_at is not None and step == checkpoint_at:
            manager.checkpoint()
        roll = rng.random()
        if roll < 0.15 and active:
            manager.abort(active.pop(rng.randrange(len(active))))
        elif roll < 0.40 and active:
            manager.commit(active.pop(rng.randrange(len(active))))
        else:
            if len(active) < 3:
                counter += 1
                active.append(manager.begin(f"T{counter}"))
            txn = active[rng.randrange(len(active))]
            obj, operation, make_args = OPS[rng.randrange(len(OPS))]
            try:
                manager.invoke(txn, obj, operation, *make_args(rng))
            except (WouldBlock, LockConflict):
                pass
    # The remaining `active` transactions simply never decided — exactly
    # the state a crash interrupts.  Recovery must presume them aborted.
    return manager


def machines_of(manager):
    return {name: m.machine for name, m in manager.objects.items()}


class TestRecoveryEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(10, 60))
    def test_compacting_recovery_matches_committed_prefix(self, seed, steps):
        manager = run_random_workload(seed, steps)
        # What the manager writes is what recovery reads: no record kind
        # that ``_scan`` merely steps over.
        assert {r["kind"] for r in manager.wal.records()} <= ACTED_ON
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
        verify_recovery(expected, machines_of(recovered))
        assert set(report.recovered_objects) == {"Q", "A", "Z"}

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(20, 60))
    def test_checkpoint_plus_truncated_log_matches(self, seed, steps):
        manager = run_random_workload(seed, steps, checkpoint_at=steps // 2)
        kinds = [r["kind"] for r in manager.wal.records()]
        assert set(kinds) <= ACTED_ON and kinds.count("checkpoint") == 1
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
        verify_recovery(expected, machines_of(recovered))
        assert report.from_checkpoint

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recovered_manager_continues_equivalently(self, seed):
        manager = run_random_workload(seed, steps=30)
        recovered, _ = recover_manager(manager.wal)
        txn = recovered.begin()
        recovered.invoke(txn, "A", "Credit", 2)
        recovered.commit(txn)
        twice, _ = recover_manager(recovered.wal)
        verify_recovery(
            committed_state_sets(machines_of(recovered)), machines_of(twice)
        )
