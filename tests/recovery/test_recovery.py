"""Recovery: the manager rebuild, and a site host recovering over it."""

import pytest

from repro.adts import make_account_adt, make_queue_adt
from repro.distributed import Site
from repro.recovery import (
    FileCheckpointStore,
    FileWAL,
    MemoryCheckpointStore,
    MemoryWAL,
    RecoveryError,
    committed_state_sets,
    recover_manager,
    verify_recovery,
)
from repro.runtime import TransactionManager
from repro.server import ShardDown


def manager_with_wal(wal=None):
    manager = TransactionManager(wal=wal if wal is not None else MemoryWAL())
    manager.create_object("A", make_account_adt(initial=100))
    manager.create_object("Q", make_queue_adt())
    return manager


def machines_of(manager):
    return {name: m.machine for name, m in manager.objects.items()}


class TestManagerRecovery:
    def run_some(self, manager, commits=3):
        for i in range(commits):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 10 + i)
            manager.invoke(txn, "Q", "Enq", i)
            manager.commit(txn)
        aborted = manager.begin()
        manager.invoke(aborted, "A", "Debit", 1)
        manager.abort(aborted)

    def test_recovered_state_matches(self):
        manager = manager_with_wal()
        self.run_some(manager)
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
        verify_recovery(expected, machines_of(recovered))
        assert set(report.recovered_objects) == {"A", "Q"}
        assert report.replayed_records > 0

    def test_uncommitted_intentions_presumed_aborted(self):
        manager = manager_with_wal()
        txn = manager.begin()
        manager.invoke(txn, "A", "Credit", 500)  # never commits
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
        assert txn.name in report.discarded_transactions
        verify_recovery(expected, machines_of(recovered))

    def test_recovered_manager_keeps_working(self):
        manager = manager_with_wal()
        self.run_some(manager)
        recovered, _ = recover_manager(manager.wal)
        txn = recovered.begin()
        # Fresh names must not collide with replayed ones.
        assert txn.name not in {r["txn"] for r in manager.wal.records() if "txn" in r}
        recovered.invoke(txn, "A", "Credit", 1)
        timestamp = recovered.commit(txn)
        replayed = [
            r for r in manager.wal.records() if r["kind"] == "commit"
        ]
        # New commits serialize after everything recovered (Section 3.3).
        import json

        from repro.recovery import decode_value

        old = max(decode_value(r["ts"]) for r in replayed[:-1])
        assert timestamp > old

    def test_checkpoint_shortens_replay(self):
        manager = manager_with_wal()
        self.run_some(manager, commits=4)
        store = MemoryCheckpointStore()
        manager.checkpoint(store)
        log_after_checkpoint = len(manager.wal)
        self.run_some(manager, commits=2)
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal, store=store)
        verify_recovery(expected, machines_of(recovered))
        assert report.from_checkpoint
        assert report.scanned_records < 40  # prefix was truncated

    def test_a_log_written_with_the_compacting_key_still_opens(self):
        # Record 0 used to say which machine kind wrote the log; the key
        # is no longer written and, where an old log has it, ignored.
        manager = manager_with_wal()
        self.run_some(manager)
        written = manager.wal.records()
        assert "compacting" not in written[0]
        old = MemoryWAL()
        old.append({**written[0], "compacting": True})
        for record in written[1:]:
            old.append(record)
        recovered, _ = recover_manager(old)
        verify_recovery(
            committed_state_sets(machines_of(manager)), machines_of(recovered)
        )

    def test_file_backed_end_to_end(self, tmp_path):
        wal = FileWAL(tmp_path)
        manager = manager_with_wal(wal=wal)
        self.run_some(manager)
        store = FileCheckpointStore(tmp_path)
        manager.checkpoint(store)
        self.run_some(manager, commits=1)
        expected = committed_state_sets(machines_of(manager))
        # Recover from a cold re-open of the same directory.
        recovered, report = recover_manager(
            FileWAL(tmp_path), store=FileCheckpointStore(tmp_path)
        )
        verify_recovery(expected, machines_of(recovered))
        assert report.from_checkpoint

    def test_verify_recovery_catches_divergence(self):
        manager = manager_with_wal()
        self.run_some(manager)
        expected = committed_state_sets(machines_of(manager))
        recovered, _ = recover_manager(manager.wal)
        txn = recovered.begin()
        recovered.invoke(txn, "A", "Credit", 7)
        recovered.commit(txn)
        with pytest.raises(RecoveryError):
            verify_recovery(expected, machines_of(recovered))


def durable_site(store=None):
    site = Site(wal=MemoryWAL(), store=store)
    site.single({"op": "create", "name": "A", "adt": "Account"})
    site.single({"op": "txn", "name": "open", "steps": [("A", "Credit", (100,))]})
    return site


def invoke(site, txn, operation, *args):
    ops = [{"op": "invoke", "txn": txn, "obj": "A", "operation": operation, "args": args}]
    if site.engine.manager.transaction(txn) is None:
        ops.insert(0, {"op": "begin", "name": txn})
    return site.call(ops)[-1]


def commit_2pc(site, txn, timestamp):
    assert "ok" in site.single({"op": "prepare", "txn": txn})
    return site.single({"op": "apply_commit", "txn": txn, "ts": timestamp})


class TestSiteRecovery:
    """What the simulated host adds: hard crash + recover over its own log
    (the replay itself is ``recover_manager``, tested above)."""

    def test_crash_hard_loses_volatile_state(self):
        site = durable_site()
        invoke(site, "T1", "Credit", 5)
        site.crash_hard()
        assert not site.alive
        for op in ("prepare", "apply_commit", "abort", "catalog"):
            with pytest.raises(ShardDown):
                site.single({"op": op, "txn": "T1", "ts": 1})

    def test_committed_state_survives(self):
        site = durable_site()
        invoke(site, "T1", "Credit", 5)
        commit_2pc(site, "T1", 3)
        expected = committed_state_sets(site.machines())
        site.crash_hard()
        report = site.recover()
        verify_recovery(expected, site.machines())
        assert site.snapshot("A") == 105
        # The stride stays above everything recovered.
        assert site.single({"op": "txn", "name": "T2", "steps": []})["ok"] > 3
        assert report.name == "shard0"

    def test_unprepared_transaction_lost_and_tombstoned(self):
        site = durable_site()
        invoke(site, "T1", "Credit", 5)
        site.crash_hard()
        report = site.recover()
        assert report.discarded_transactions == ("T1",)
        # Its volatile intentions are gone: the vote must be no, and the
        # lock it held must be free for others.
        assert site.single({"op": "prepare", "txn": "T1"})["error"] == "NO_VOTE"
        assert invoke(site, "T2", "Debit", 5) == {"ok": "Ok"}

    def test_prepared_transaction_survives_and_commits(self):
        site = durable_site()
        # A failed debit (Overdraft) holds a lock that excludes credits.
        assert invoke(site, "T1", "Debit", 500) == {"ok": "Overdraft"}
        vote = site.single({"op": "prepare", "txn": "T1"})["ok"]
        site.crash_hard()
        report = site.recover()
        assert report.prepared_transactions == ("T1",)
        assert site.prepared_transactions() == ["T1"]
        # The re-derived lock still excludes conflicting operations.
        assert invoke(site, "T2", "Credit", 5)["error"] == "CONFLICT"
        # A repeated PREPARE (coordinator retry) still answers yes.
        assert site.single({"op": "prepare", "txn": "T1"}) == {"ok": vote}
        # The verdict can finally land.
        assert site.single({"op": "apply_commit", "txn": "T1", "ts": vote + 4}) == {
            "ok": vote + 4
        }
        assert site.snapshot("A") == 100

    def test_prepared_transaction_survives_and_aborts(self):
        site = durable_site()
        invoke(site, "T1", "Credit", 7)
        site.single({"op": "prepare", "txn": "T1"})
        site.crash_hard()
        site.recover()
        assert site.single({"op": "abort", "txn": "T1"}) == {"ok": None}
        assert site.snapshot("A") == 100
        assert invoke(site, "T2", "Debit", 1) == {"ok": "Ok"}

    def test_double_crash_recover(self):
        site = durable_site()
        invoke(site, "T1", "Credit", 5)
        commit_2pc(site, "T1", 2)
        site.crash_hard()
        site.recover()
        invoke(site, "T2", "Credit", 6)
        commit_2pc(site, "T2", 4)
        expected = committed_state_sets(site.machines())
        site.crash_hard()
        site.recover()
        verify_recovery(expected, site.machines())
        assert site.snapshot("A") == 111 and site.incarnation == 3

    def test_checkpoint_then_recover(self):
        site = durable_site(store=MemoryCheckpointStore())
        invoke(site, "T1", "Credit", 5)
        commit_2pc(site, "T1", 2)
        assert site.checkpoint() == {"ok": 1}
        invoke(site, "T2", "Credit", 6)
        commit_2pc(site, "T2", 4)
        expected = committed_state_sets(site.machines())
        site.crash_hard()
        report = site.recover()
        verify_recovery(expected, site.machines())
        assert report.from_checkpoint
        assert site.snapshot("A") == 111

    def test_recover_without_wal_rejected(self):
        site = Site()
        site.single({"op": "create", "name": "A", "adt": "Account"})
        with pytest.raises(RecoveryError):
            site.recover()
