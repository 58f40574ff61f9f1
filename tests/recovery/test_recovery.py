"""Recovery: the manager rebuild, and a site host recovering over it."""

import pytest

from repro.adts import make_account_adt, make_queue_adt
from repro.core import LockConflict
from repro.sim import Site
from repro.recovery import (
    FileWAL,
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
        # A failed debit holds a lock that excludes credits; never commits.
        assert manager.invoke(txn, "A", "Debit", 500) == "Overdraft"
        with pytest.raises(LockConflict):
            manager.invoke(manager.begin(), "A", "Credit", 1)
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
        verify_recovery(expected, machines_of(recovered))
        # What presumed abort means: no handle, no intentions, no lock.
        assert recovered.transaction(txn.name) is None
        assert report.prepared_transactions == ()
        for machine in machines_of(recovered).values():
            assert machine.active_transactions() == []
            assert machine.intentions(txn.name) == ()
        assert recovered.invoke(recovered.begin(), "A", "Credit", 1) == "Ok"

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
        manager.checkpoint()
        self.run_some(manager, commits=2)
        expected = committed_state_sets(machines_of(manager))
        recovered, report = recover_manager(manager.wal)
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

    #: A log exactly as the tree before the one-record-per-transaction
    #: change wrote it: an ``invoke`` and a ``respond`` line per operation.
    #: T1 commits, T2 aborts, T3 commits through 2PC, T4 is in flight.
    PARENT_FORMAT_LOG = """\
{"crc": 1223089897, "rec": {"kind": "meta", "name": "manager", "role": "manager"}, "seq": 0}
{"crc": 716563659, "rec": {"adt": "Account", "initial": [{"__fr__": [0, 1]}], "kind": "create", "obj": "A", "protocol": "hybrid"}, "seq": 1}
{"crc": 3420159367, "rec": {"args": {"__t__": [5]}, "kind": "invoke", "obj": "A", "op": "Credit", "txn": "T1"}, "seq": 2}
{"crc": 3012626447, "rec": {"kind": "respond", "obj": "A", "result": "Ok", "txn": "T1"}, "seq": 3}
{"crc": 3951139634, "rec": {"args": {"__t__": [2]}, "kind": "invoke", "obj": "A", "op": "Debit", "txn": "T1"}, "seq": 4}
{"crc": 3012626447, "rec": {"kind": "respond", "obj": "A", "result": "Ok", "txn": "T1"}, "seq": 5}
{"crc": 712302505, "rec": {"intentions": {"A": [{"args": {"__t__": [5]}, "op": "Credit", "result": "Ok"}, {"args": {"__t__": [2]}, "op": "Debit", "result": "Ok"}]}, "kind": "commit", "ts": 1, "txn": "T1"}, "seq": 6}
{"crc": 1100156830, "rec": {"args": {"__t__": [1]}, "kind": "invoke", "obj": "A", "op": "Credit", "txn": "T2"}, "seq": 7}
{"crc": 2983704150, "rec": {"kind": "respond", "obj": "A", "result": "Ok", "txn": "T2"}, "seq": 8}
{"crc": 3637681816, "rec": {"kind": "abort", "txn": "T2"}, "seq": 9}
{"crc": 3931904761, "rec": {"args": {"__t__": [4]}, "kind": "invoke", "obj": "A", "op": "Credit", "txn": "T3"}, "seq": 10}
{"crc": 2954222689, "rec": {"kind": "respond", "obj": "A", "result": "Ok", "txn": "T3"}, "seq": 11}
{"crc": 3802878758, "rec": {"clock": 0, "intentions": {"A": [{"args": {"__t__": [4]}, "op": "Credit", "result": "Ok"}]}, "kind": "prepare", "txn": "T3"}, "seq": 12}
{"crc": 4281610723, "rec": {"intentions": {"A": [{"args": {"__t__": [4]}, "op": "Credit", "result": "Ok"}]}, "kind": "commit", "ts": 7, "txn": "T3"}, "seq": 13}
{"crc": 2389896685, "rec": {"args": {"__t__": [9]}, "kind": "invoke", "obj": "A", "op": "Credit", "txn": "T4"}, "seq": 14}
{"crc": 3042626276, "rec": {"kind": "respond", "obj": "A", "result": "Ok", "txn": "T4"}, "seq": 15}
"""

    def test_a_log_with_per_operation_records_recovers_like_its_twin(self, tmp_path):
        # Nothing writes ``invoke`` / ``respond`` records any more, but a
        # log is input from outside the program: one that has them opens,
        # and they change nothing about what is recovered.
        (tmp_path / FileWAL.FILENAME).write_text(self.PARENT_FORMAT_LOG)
        old = FileWAL(tmp_path)
        assert len(old.records()) == 16
        twin = MemoryWAL()
        for record in old.records():
            if record["kind"] not in ("invoke", "respond"):
                twin.append(record)
        assert len(twin) == 6
        recovered_old, report_old = recover_manager(old)
        recovered_twin, report_twin = recover_manager(twin)
        states = committed_state_sets(machines_of(recovered_old))
        assert states == {"A": frozenset({7})}
        assert states == committed_state_sets(machines_of(recovered_twin))
        assert report_old.decided == report_twin.decided == {"T3": 7}
        assert report_old.prepared_transactions == report_twin.prepared_transactions == ()
        assert report_old.replayed_records == report_twin.replayed_records == 2
        # T4's operations were never part of a completion record: lost.
        assert machines_of(recovered_old)["A"].active_transactions() == []

    def test_no_name_in_the_log_is_reissued(self):
        manager = manager_with_wal()
        self.run_some(manager)                      # T1..T3 commit, T4 aborts
        prepared = manager.begin()                  # T5: prepare record
        manager.invoke(prepared, "A", "Credit", 1)
        manager.prepare(prepared)
        in_flight = manager.begin()                 # T6: nothing on the log
        manager.invoke(in_flight, "Q", "Enq", 9)
        records = manager.wal.records()
        assert {r["kind"] for r in records} == {
            "meta", "create", "prepare", "commit", "abort",
        }
        logged = {r["txn"] for r in records if "txn" in r}
        assert logged == {"T1", "T2", "T3", "T4", "T5"}
        recovered, _ = recover_manager(manager.wal)
        fresh = recovered.begin().name
        assert int(fresh[1:]) > max(int(name[1:]) for name in logged)

    def test_file_backed_end_to_end(self, tmp_path):
        wal = FileWAL(tmp_path)
        manager = manager_with_wal(wal=wal)
        self.run_some(manager)
        manager.checkpoint()
        self.run_some(manager, commits=1)
        expected = committed_state_sets(machines_of(manager))
        # Recover from a cold re-open of the same directory.
        recovered, report = recover_manager(FileWAL(tmp_path))
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


def durable_site():
    site = Site(wal=MemoryWAL())
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
        # A failed debit (Overdraft) holds a lock that excludes credits.
        assert invoke(site, "T1", "Debit", 500) == {"ok": "Overdraft"}
        assert invoke(site, "T2", "Credit", 5)["error"] == "CONFLICT"
        site.crash_hard()
        site.recover()
        # Its volatile intentions are gone: nothing is active, the vote
        # must be no, and the lock it held is free for a conflicting
        # operation.
        assert site.machines()["A"].active_transactions() == []
        assert site.machines()["A"].intentions("T1") == ()
        assert site.prepared_transactions() == []
        assert site.single({"op": "prepare", "txn": "T1"})["error"] == "NO_VOTE"
        assert invoke(site, "T3", "Credit", 5) == {"ok": "Ok"}

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
        site = durable_site()
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
