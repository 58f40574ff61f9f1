"""Waits-for registry and the block wait-policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import AtomicityChecker, TraceBus
from repro.protocols import COMMUTATIVITY, HYBRID
from repro.sim import (
    AccountWorkload,
    ClientParams,
    QueueWorkload,
    WaitRegistry,
    run_experiment,
)



def _calls(size):
    name = st.integers(0, size - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("wait"), name, name),
            st.tuples(st.just("release"), name),
            st.tuples(st.just("cancel"), name),
        ),
        max_size=40,
    )


#: Drawn registry calls over 2–6 transaction names.
_call_lists = st.integers(2, 6).flatmap(_calls)


def _acyclic(edges):
    for start in edges:
        seen, current = set(), start
        while current in edges:
            if current in seen:
                return False
            seen.add(current)
            current = edges[current]
    return True


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

    @settings(max_examples=200, deadline=None)
    @given(calls=_call_lists)
    def test_a_wait_is_declined_exactly_when_its_holder_waits(self, calls):
        registry = WaitRegistry()
        for call in calls:
            before = registry.edges()
            if call[0] == "wait":
                waiter, holder = f"T{call[1]}", f"T{call[2]}"
                if waiter == holder or waiter in before:
                    with pytest.raises(ValueError):
                        registry.wait(waiter, holder, lambda: None)
                    assert registry.edges() == before
                    continue
                admitted = registry.wait(waiter, holder, lambda: None)
                assert admitted == (holder not in before)
                if not admitted:  # a declined wait records nothing
                    assert registry.edges() == before
            elif call[0] == "release":
                completed = f"T{call[1]}"
                woken = registry.release(completed)
                assert completed not in registry.edges().values()
                assert woken == list(before.values()).count(completed)
            else:
                registry.cancel(f"T{call[1]}")
            assert _acyclic(registry.edges())

    def test_chain_without_cycle_allowed(self):
        # A holder that parks later lengthens the chain past one edge;
        # only a wait on a waiter is declined.
        registry = WaitRegistry()
        assert registry.wait("A", "B", lambda: None)
        assert registry.wait("B", "C", lambda: None)
        assert not registry.wait("D", "A", lambda: None)
        assert registry.wait("D", "C", lambda: None)
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

    def test_a_wait_is_traced_when_it_ends(self):
        # lock.wait closes the span interval that *is* the wait: it is
        # emitted at release or cancel, never when the wait begins.
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        registry = WaitRegistry(tracer=bus)
        registry.wait("A", "C", lambda: events.append("woke A"))
        registry.wait("B", "C", lambda: None)
        assert events == []
        registry.cancel("B")
        assert registry.release("C") == 1
        assert [e if type(e) is str else (e.kind, e.data) for e in events] == [
            ("lock.wait", {"transaction": "B", "holder": "C"}),
            ("lock.wait", {"transaction": "A", "holder": "C"}),
            "woke A",
        ]
        assert registry.edges() == {}


class TestBlockPolicy:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClientParams(wait_policy="spin")

    def test_block_runs_and_certifies(self):
        bus = TraceBus()
        checker = bus.subscribe(AtomicityChecker())
        metrics = run_experiment(
            AccountWorkload(clients=6, accounts=1, post_p=0.2),
            COMMUTATIVITY,
            duration=300,
            seed=2,
            params=ClientParams(wait_policy="block"),
            tracer=bus,
        ).metrics
        assert metrics.committed > 0
        assert checker.report()["verdict"] == "clean"

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
        run = run_experiment(
            QueueWorkload(producers=4, consumers=2),
            HYBRID,
            duration=200,
            seed=5,
            params=ClientParams(wait_policy="retry"),
        )
        assert run.waits is None  # no registry: nothing ever waits
        assert run.metrics.committed > 0

    def test_block_deterministic(self):
        params = ClientParams(wait_policy="block")
        a = run_experiment(QueueWorkload(), HYBRID, duration=150, seed=8, params=params)
        b = run_experiment(QueueWorkload(), HYBRID, duration=150, seed=8, params=params)
        assert a.metrics.as_row() == b.metrics.as_row()
