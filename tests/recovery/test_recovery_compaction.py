"""Recovery must hand back a *compacted* machine.

Replay reinstalls committed intentions one transaction at a time, so a
recovered :class:`~repro.core.compaction.CompactingLockMachine` would
retain every replayed intentions list if the driver never folded — a
recovered site would pay unbounded memory for exactly the history whose
cost Section 6's bookkeeping bounds.  ``recover_machines`` therefore runs
``forget()`` once per machine after the replay is complete (folding
mid-replay would be unsound: prepared transactions' bounds are not
installed until the end).  These tests pin that behaviour by comparing a
crash-recovered machine against a never-crashed peer that executed the
same workload.
"""

from repro.adts import make_account_adt, make_queue_adt
from repro.distributed import Site
from repro.recovery import MemoryWAL, recover_manager
from repro.runtime import TransactionManager


def compacting_manager():
    manager = TransactionManager(wal=MemoryWAL())
    manager.create_object("A", make_account_adt(initial=100))
    manager.create_object("Q", make_queue_adt())
    return manager


def assert_same_compaction(recovered, peer):
    assert recovered.retained_intentions() == peer.retained_intentions()
    assert recovered.version_states == peer.version_states
    assert recovered.version_timestamp == peer.version_timestamp
    assert recovered.committed_transactions == peer.committed_transactions
    assert recovered.forgotten_operations == peer.forgotten_operations


class TestManagerRecoveryCompaction:
    def run_workload(self, manager):
        for i in range(3):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 10 + i)
            manager.invoke(txn, "Q", "Enq", i)
            manager.commit(txn)
        # One transaction is still in flight at crash time.
        active = manager.begin()
        manager.invoke(active, "A", "Debit", 1)
        return active

    def test_recovered_machines_match_never_crashed_peer(self):
        manager, peer = compacting_manager(), compacting_manager()
        self.run_workload(manager)
        peer_active = self.run_workload(peer)
        recovered, _ = recover_manager(manager.wal)
        # The crash lost the in-flight transaction (presumed abort); the
        # peer must abort its own before the comparison is fair.
        peer.abort(peer_active)
        for name, obj in recovered.objects.items():
            assert_same_compaction(obj.machine, peer.objects[name].machine)

    def test_recovered_machines_are_fully_folded(self):
        manager = compacting_manager()
        self.run_workload(manager)
        recovered, _ = recover_manager(manager.wal)
        for obj in recovered.objects.values():
            # Nothing active survives the crash, so the horizon reaches
            # the largest replayed commit timestamp and everything folds.
            assert obj.machine.retained_intentions() == 0
            assert obj.machine.forgotten_operations > 0


class TestSiteRecoveryCompaction:
    """The prepared-survivor path: an in-doubt transaction's replayed
    intentions must be retained (its verdict is still owed) while the
    committed prefix below its bound still folds."""

    @staticmethod
    def site_after_workload():
        site = Site(wal=MemoryWAL())
        site.single({"op": "create", "name": "A", "adt": "Account"})

        def run(txn, operation, amount):
            replies = site.call(
                [
                    {"op": "begin", "name": txn},
                    {"op": "invoke", "txn": txn, "obj": "A", "operation": operation,
                     "args": (amount,)},
                    {"op": "prepare", "txn": txn},
                ]
            )
            assert all("ok" in reply for reply in replies), replies

        run("T1", "Credit", 5)
        site.single({"op": "apply_commit", "txn": "T1", "ts": 3})
        # T2 executes after T1's commit, so its bound rides above it;
        # it prepares but never learns its verdict.
        run("T2", "Debit", 2)
        return site

    def test_prepared_survivor_retained_but_prefix_folds(self):
        site, peer = self.site_after_workload(), self.site_after_workload()
        site.crash_hard()
        report = site.recover()
        assert report.prepared_transactions == ("T2",)
        recovered_machine = site.machines()["A"]
        assert_same_compaction(recovered_machine, peer.machines()["A"])
        # T1 folded into the version, T2's single operation retained.
        assert recovered_machine.commit_timestamp("T1") is None
        assert recovered_machine.version_timestamp == 3
        assert recovered_machine.retained_intentions() == len(
            recovered_machine.intentions("T2")
        ) == 1
        # The verdict can still land, and the machine folds it in turn.
        assert site.single({"op": "apply_commit", "txn": "T2", "ts": 7}) == {"ok": 7}
        assert recovered_machine.retained_intentions() == 0
