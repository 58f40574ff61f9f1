"""Waits-for registry and the block wait-policy."""

import pytest

from repro.protocols import COMMUTATIVITY, HYBRID
from repro.sim import (
    AccountWorkload,
    ClientParams,
    DeadlockDetected,
    QueueWorkload,
    WaitRegistry,
    run_experiment,
)


class TestWaitRegistry:
    def test_wait_and_release(self):
        registry = WaitRegistry()
        woken = []
        registry.wait("A", "B", lambda: woken.append("A"))
        assert registry.waiting_for("A") == "B"
        assert registry.waiter_count() == 1
        assert registry.release("B") == 1
        assert woken == ["A"]
        assert registry.waiter_count() == 0

    def test_many_waiters_one_holder(self):
        registry = WaitRegistry()
        woken = []
        registry.wait("A", "C", lambda: woken.append("A"))
        registry.wait("B", "C", lambda: woken.append("B"))
        assert registry.release("C") == 2
        assert sorted(woken) == ["A", "B"]

    def test_direct_deadlock(self):
        registry = WaitRegistry()
        registry.wait("A", "B", lambda: None)
        with pytest.raises(DeadlockDetected) as info:
            registry.wait("B", "A", lambda: None)
        assert info.value.waiter == "B"
        assert "B" in str(info.value)
        # The refused edge was not recorded.
        assert registry.waiting_for("B") is None

    def test_transitive_deadlock(self):
        registry = WaitRegistry()
        registry.wait("A", "B", lambda: None)
        registry.wait("B", "C", lambda: None)
        with pytest.raises(DeadlockDetected) as info:
            registry.wait("C", "A", lambda: None)
        assert set(info.value.cycle) == {"A", "B", "C"}

    def test_chain_without_cycle_allowed(self):
        registry = WaitRegistry()
        registry.wait("A", "B", lambda: None)
        registry.wait("B", "C", lambda: None)
        registry.wait("D", "A", lambda: None)
        assert registry.waiter_count() == 3

    def test_self_wait_rejected(self):
        registry = WaitRegistry()
        with pytest.raises(ValueError):
            registry.wait("A", "A", lambda: None)

    def test_double_wait_rejected(self):
        registry = WaitRegistry()
        registry.wait("A", "B", lambda: None)
        with pytest.raises(ValueError):
            registry.wait("A", "C", lambda: None)

    def test_cancel(self):
        registry = WaitRegistry()
        woken = []
        registry.wait("A", "B", lambda: woken.append("A"))
        registry.cancel("A")
        assert registry.release("B") == 0
        assert woken == []

    def test_release_unknown_holder_is_noop(self):
        assert WaitRegistry().release("Z") == 0


class TestBlockPolicy:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClientParams(wait_policy="spin")

    def test_block_runs_and_detects_deadlocks(self):
        params = ClientParams(wait_policy="block")
        metrics = run_experiment(
            AccountWorkload(clients=6, accounts=1, post_p=0.2),
            COMMUTATIVITY,
            duration=300,
            seed=2,
            params=params,
        ).metrics
        assert metrics.committed > 0
        assert metrics.deadlocks > 0  # real cycles occur on this workload

    def test_block_beats_retry_under_heavy_contention(self):
        # Blocking wakes exactly when the lock clears; polling wastes
        # backoff time and aborts more.
        workload = lambda: AccountWorkload(clients=6, accounts=1, post_p=0.2)
        retry = run_experiment(
            workload(), COMMUTATIVITY, duration=300, seed=2,
            params=ClientParams(wait_policy="retry"),
        ).metrics
        block = run_experiment(
            workload(), COMMUTATIVITY, duration=300, seed=2,
            params=ClientParams(wait_policy="block"),
        ).metrics
        assert block.throughput > retry.throughput
        assert block.conflicts < retry.conflicts

    def test_retry_policy_never_deadlocks(self):
        metrics = run_experiment(
            QueueWorkload(producers=4, consumers=2),
            HYBRID,
            duration=200,
            seed=5,
            params=ClientParams(wait_policy="retry"),
        ).metrics
        assert metrics.deadlocks == 0

    def test_block_deterministic(self):
        params = ClientParams(wait_policy="block")
        a = run_experiment(QueueWorkload(), HYBRID, duration=150, seed=8, params=params)
        b = run_experiment(QueueWorkload(), HYBRID, duration=150, seed=8, params=params)
        assert a.metrics.as_row() == b.metrics.as_row()
