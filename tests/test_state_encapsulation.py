"""Regression tests for the REP103/REP104 fixes.

``repro lint`` (the static analyzer added alongside these tests) found
introspection and recovery code reaching into machine- and site-owned
protocol state, and wall-clock calls leaking nondeterminism into
simulated recovery reports.  These tests pin the public accessors that
replaced the private reaches and the injected-clock behaviour, so the
fixes cannot quietly regress into aliasing again.
"""

import pytest

from repro.adts import make_account_adt
from repro.core import Invocation
from repro.core.compaction import CompactingLockMachine
from repro.sim import Site
from repro.obs.snapshot import lock_table_snapshot, waits_for_edges
from repro.recovery import MemoryWAL, recover_manager
from repro.runtime import TransactionManager
from repro.sim.waiting import WaitRegistry


def account_machine():
    adt = make_account_adt()
    from repro.protocols import HYBRID

    return CompactingLockMachine(
        adt.spec, HYBRID.conflict_for(adt), obj="A"
    )


class TestActiveIntentions:
    """LockMachine.active_intentions() — the implicit lock table."""

    def test_excludes_completed_transactions(self):
        machine = account_machine()
        machine.execute("T1", Invocation("Credit", (5,)))
        machine.execute("T2", Invocation("Credit", (7,)))
        machine.commit("T1", (1, "T1"))
        table = machine.active_intentions()
        assert set(table) == {"T2"}
        assert [op.invocation.name for op in table["T2"]] == ["Credit"]

    def test_returns_a_fresh_map(self):
        machine = account_machine()
        machine.execute("T1", Invocation("Credit", (5,)))
        table = machine.active_intentions()
        table.clear()
        table["T9"] = ()
        # The machine's own view is unaffected by mutating the snapshot.
        assert set(machine.active_intentions()) == {"T1"}
        assert machine.intentions("T1") != ()

    def test_lock_table_snapshot_uses_it(self):
        machine = account_machine()
        machine.execute("T1", Invocation("Credit", (5,)))
        snapshot = lock_table_snapshot(machine)
        assert set(snapshot) == {"T1"}
        snapshot["T1"].append("bogus")
        assert lock_table_snapshot(machine)["T1"] != snapshot["T1"]


class TestHasPin:
    def test_pin_lifecycle(self):
        machine = account_machine()
        assert not machine.has_pin("R1")
        machine.pin("R1", (5, "R1"))
        assert machine.has_pin("R1")
        machine.unpin("R1")
        assert not machine.has_pin("R1")


class TestWaitsForEdges:
    def test_edges_snapshot_does_not_alias(self):
        registry = WaitRegistry()
        registry.wait("T2", "T1", wake=lambda: None)
        edges = waits_for_edges(registry)
        assert edges == {"T2": "T1"}
        edges["T3"] = "T1"
        assert registry.edges() == {"T2": "T1"}

    def test_none_registry(self):
        assert waits_for_edges(None) == {}


class TestSiteAccessors:
    def make_site(self):
        site = Site(wal=MemoryWAL())
        site.single({"op": "create", "name": "A", "adt": "Account"})
        return site

    def test_machines_mapping_is_a_copy(self):
        site = self.make_site()
        machines = site.machines()
        assert set(machines) == {"A"}
        machines.clear()
        assert site.objects() == ["A"]

    def test_prepared_transactions_is_a_copy(self):
        site = self.make_site()
        site.call(
            [
                {"op": "begin", "name": "T1"},
                {"op": "invoke", "txn": "T1", "obj": "A", "operation": "Credit",
                 "args": (5,)},
                {"op": "prepare", "txn": "T1"},
            ]
        )
        prepared = site.prepared_transactions()
        assert prepared == ["T1"]
        prepared.append("T9")
        assert site.prepared_transactions() == ["T1"]


class TestRecoveryClockInjection:
    def run_some(self, manager):
        txn = manager.begin()
        manager.invoke(txn, "A", "Credit", 10)
        manager.commit(txn)

    def manager_with_wal(self):
        manager = TransactionManager(wal=MemoryWAL())
        manager.create_object("A", make_account_adt(initial=100))
        return manager

    def test_no_clock_means_zero_elapsed(self):
        manager = self.manager_with_wal()
        self.run_some(manager)
        _, report = recover_manager(manager.wal)
        assert report.elapsed_seconds == 0.0

    def test_injected_clock_times_the_rebuild(self):
        manager = self.manager_with_wal()
        self.run_some(manager)
        ticks = iter([10.0, 12.5])
        _, report = recover_manager(manager.wal, clock=lambda: next(ticks))
        assert report.elapsed_seconds == pytest.approx(2.5)

    def test_site_recover_defaults_deterministic(self):
        # The simulated host never reads a clock: there is no way to
        # hand it one.
        site = Site(wal=MemoryWAL())
        site.single({"op": "create", "name": "A", "adt": "Account"})
        site.single({"op": "txn", "name": "T1", "steps": [("A", "Credit", (5,))]})
        site.crash_hard()
        report = site.recover()
        assert report.elapsed_seconds == 0.0
        assert site.snapshot("A") == 5
