"""Replicated objects: correctness, failures, availability, verification."""

import random

import pytest

from repro.adts import (
    account_universe,
    make_account_adt,
    make_queue_adt,
    queue_universe,
)
from repro.core import (
    LockConflict,
    TransactionAborted,
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
from repro.runtime import Status, TransactionManager


def account_assignment(replicas=5):
    return QuorumAssignment(
        replicas,
        {
            "Credit": QuorumSpec(0, 2),
            "Post": QuorumSpec(0, 2),
            "Debit": QuorumSpec(4, 2),
        },
    )


def queue_assignment(replicas=3):
    # Enq depends on nothing (Fig 4-2): blind appends; Deq must see all.
    return QuorumAssignment(
        replicas,
        {"Enq": QuorumSpec(0, 2), "Deq": QuorumSpec(2, 2)},
    )


def bank(tracer=None):
    manager = ReplicatedTransactionManager(tracer=tracer)
    manager.create_object("A", make_account_adt(), account_assignment())
    return manager


class TestBasics:
    def test_invalid_assignment_rejected_at_creation(self):
        manager = ReplicatedTransactionManager()
        bad = QuorumAssignment(
            5,
            {
                "Credit": QuorumSpec(0, 1),
                "Post": QuorumSpec(0, 2),
                "Debit": QuorumSpec(4, 2),
            },
        )
        with pytest.raises(ValueError):
            manager.create_object("A", make_account_adt(), bad)

    def test_simple_transactions(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        assert manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 30)) == "Ok"
        assert manager.object("A").snapshot() == 70

    def test_matches_single_copy_reference(self):
        rng = random.Random(4)
        script = [
            ("Credit", rng.randint(1, 20)) if rng.random() < 0.6 else
            ("Debit", rng.randint(1, 20))
            for _ in range(30)
        ]
        replicated = bank()
        reference = TransactionManager()
        reference.create_object("A", make_account_adt())
        for op, amount in script:
            a = replicated.run_transaction(lambda ctx: ctx.invoke("A", op, amount))
            b = reference.run_transaction(lambda ctx: ctx.invoke("A", op, amount))
            assert a == b
        assert replicated.object("A").snapshot() == reference.object("A").snapshot()

    def test_locks_work_across_replication(self):
        manager = bank()
        t = manager.begin()
        assert manager.invoke(t, "A", "Debit", 5) == "Overdraft"
        u = manager.begin()
        with pytest.raises(LockConflict):
            manager.invoke(u, "A", "Credit", 1)
        manager.abort(t)
        assert manager.invoke(u, "A", "Credit", 1) == "Ok"
        manager.commit(u)

    def test_lifecycle_guards(self):
        manager = bank()
        t = manager.begin()
        manager.commit(t)
        with pytest.raises(TransactionAborted):
            manager.invoke(t, "A", "Credit", 1)


class TestFailures:
    def test_blind_credits_survive_heavy_failures(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        manager.object("A").fail_replicas(3)  # 2 of 5 live
        assert manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 5)) == "Ok"

    def test_debits_unavailable_under_heavy_failures(self):
        manager = bank()
        manager.object("A").fail_replicas(3)
        t = manager.begin()
        with pytest.raises(Unavailable):
            manager.invoke(t, "A", "Debit", 1)
        manager.abort(t)

    def test_recovery_restores_service_and_state(self):
        manager = bank()
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 100))
        obj = manager.object("A")
        obj.fail_replicas(3)
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 1))
        obj.recover_all()
        # Stale replicas rejoin; quorum reads still see everything.
        assert manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 101)) == "Ok"
        assert obj.snapshot() == 0

    def test_commit_unavailable_keeps_transaction_active(self):
        manager = bank()
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 5)
        manager.object("A").fail_replicas(4)  # 1 live < fq(Credit)=2
        with pytest.raises(Unavailable):
            manager.commit(t)
        assert t.status is Status.ACTIVE
        manager.object("A").recover_all()
        manager.commit(t)
        assert manager.object("A").snapshot() == 5

    def test_nothing_lost_when_entry_written_to_minimum_quorum(self):
        manager = bank()
        obj = manager.object("A")
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 7))
        # The entry lives on (at least) fq(Credit)=2 replicas; fail the
        # *other* three and the state must still be readable via Debit's
        # initial quorum after recovery of any 4.
        holders = [r for r in obj.replicas if r.entries()]
        assert len(holders) >= 2
        for replica in obj.replicas:
            if replica not in holders:
                replica.fail()
        obj.replicas[4].recover() if not obj.replicas[4].alive else None
        obj.recover_all()
        assert manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 7)) == "Ok"


class TestQueueReplication:
    def test_blind_enqueues_and_ordered_dequeues(self):
        manager = ReplicatedTransactionManager()
        manager.create_object(
            "Q", make_queue_adt(), queue_assignment(), universe=queue_universe()
        )
        manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", "a"))
        manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", "b"))
        assert manager.run_transaction(lambda ctx: ctx.invoke("Q", "Deq")) == "a"
        assert manager.run_transaction(lambda ctx: ctx.invoke("Q", "Deq")) == "b"

    def test_enq_survives_one_failure(self):
        manager = ReplicatedTransactionManager()
        manager.create_object("Q", make_queue_adt(), queue_assignment())
        manager.object("Q").fail_replicas(1)
        manager.run_transaction(lambda ctx: ctx.invoke("Q", "Enq", 1))
        assert manager.run_transaction(lambda ctx: ctx.invoke("Q", "Deq")) == 1

    def test_deq_empty_blocks(self):
        manager = ReplicatedTransactionManager()
        manager.create_object("Q", make_queue_adt(), queue_assignment())
        t = manager.begin()
        with pytest.raises(WouldBlock):
            manager.invoke(t, "Q", "Deq")


class TestVerification:
    def test_random_replicated_run_hybrid_atomic(self):
        rng = random.Random(11)
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = bank(tracer=bus)
        manager.create_object(
            "Q", make_queue_adt(), queue_assignment(), universe=queue_universe()
        )
        active = []
        for step in range(60):
            roll = rng.random()
            if roll < 0.1:
                # Random failure/recovery churn.
                obj = manager.object(rng.choice(["A", "Q"]))
                if rng.random() < 0.5:
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
                obj, op, args = rng.choice(
                    [
                        ("A", "Credit", (rng.randint(1, 9),)),
                        ("A", "Debit", (rng.randint(1, 9),)),
                        ("Q", "Enq", (step,)),
                        ("Q", "Deq", ()),
                    ]
                )
                try:
                    manager.invoke(txn, obj, op, *args)
                except (LockConflict, WouldBlock, Unavailable):
                    pass
        for obj in manager.objects.values():
            obj.recover_all()
        for txn in active:
            manager.commit(txn)
        h = recorded.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, manager.specs())
