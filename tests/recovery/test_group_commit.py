"""Group commit and the durable-write contract: one fsync per batch,
crash windows that lose only unacknowledged records, and the stride
metadata that makes a shard's log safe to reopen.
"""

import os

import pytest

from repro.adts import make_account_adt
from repro.obs import AtomicityChecker, TraceBus
from repro.recovery import (
    FileWAL,
    GroupCommitWAL,
    RecoveryError,
    commit_record,
    meta_record,
    recover_manager,
)
from repro.runtime import TransactionManager
from repro.server import ShardedTimestampGenerator


def file_manager(wal, shard=0, shards=1, tracer=None):
    manager = TransactionManager(
        wal=wal,
        generator=ShardedTimestampGenerator(shard, shards),
        tracer=tracer,
        site=f"shard{shard}",
    )
    manager.create_object("A", make_account_adt(initial=100))
    return manager


class TestFileWalDurableWrites:
    """Satellite regression: FileWAL pays one fsync per durable write."""

    def test_one_fsync_per_append(self, tmp_path):
        wal = FileWAL(tmp_path)
        for index in range(5):
            wal.append({"kind": "meta", "n": index})
        assert wal.appends == 5
        assert wal.syncs == 5, "exactly one fsync per append, not several"

    def test_one_fsync_per_batch(self, tmp_path):
        wal = FileWAL(tmp_path)
        sequences = wal.append_batch([{"kind": "meta", "n": n} for n in range(8)])
        assert sequences == list(range(8))
        assert wal.appends == 8
        assert wal.syncs == 1, "a batch shares a single fsync"
        assert [r["n"] for r in wal.records()] == list(range(8))

    def test_append_handle_survives_reads(self, tmp_path):
        # The historical bug was open/flush/fsync/close per record; the
        # persistent handle must keep appending correctly even when a
        # read (which walks the file separately) happens in between.
        wal = FileWAL(tmp_path)
        wal.append({"kind": "meta", "n": 0})
        assert len(wal.records()) == 1
        wal.append({"kind": "meta", "n": 1})
        assert [r["n"] for r in wal.records()] == [0, 1]
        assert wal.syncs == 2


class TestGroupCommitWindow:
    def test_staged_records_are_not_durable_until_flush(self, tmp_path):
        base = FileWAL(tmp_path)
        wal = GroupCommitWAL(base, max_batch=64)
        wal.append({"kind": "meta", "n": 0})
        wal.append({"kind": "meta", "n": 1})
        assert base.syncs == 0, "appends stage in memory"
        # A crash here loses both records: nothing reached the file.
        assert FileWAL(tmp_path)._lines() == []
        assert wal.flush() == 2
        assert base.syncs == 1
        assert len(FileWAL(tmp_path).records()) == 2

    def test_full_buffer_flushes_itself(self, tmp_path):
        base = FileWAL(tmp_path)
        wal = GroupCommitWAL(base, max_batch=3)
        for index in range(3):
            wal.append({"kind": "meta", "n": index})
        assert base.syncs == 1, "max_batch bounds the crash window"
        assert wal.flush() == 0

    def test_reads_force_durability(self, tmp_path):
        wal = GroupCommitWAL(FileWAL(tmp_path), max_batch=64)
        wal.append({"kind": "meta", "n": 0})
        assert len(wal.records()) == 1, "the log never lies about content"
        assert wal.base.syncs == 1

    def test_crash_window_loses_only_unacknowledged_commits(self, tmp_path):
        """The group-commit contract end to end: acknowledged commits
        (flushed) survive the crash; staged ones vanish — and presumed
        abort means that is correct, because they were never acked."""
        base = FileWAL(tmp_path)
        wal = GroupCommitWAL(base, max_batch=256)
        manager = file_manager(wal)
        for index in range(3):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 10)
            manager.commit(txn)
        wal.flush()  # the server acks these three here
        staged = manager.begin()
        manager.invoke(staged, "A", "Credit", 1000)
        manager.commit(staged)  # staged, never flushed, never acked
        # Crash: reopen the directory cold, bypassing the buffer.
        recovered, report = recover_manager(
            FileWAL(tmp_path), generator=ShardedTimestampGenerator(0, 1)
        )
        assert recovered.object("A").snapshot() == 130
        assert staged.name not in {
            record["txn"]
            for record in FileWAL(tmp_path).records()
            if "txn" in record
        }
        assert report.replayed_records > 0

    def test_torn_final_batch_line_recovers_to_prefix(self, tmp_path):
        """Fault injection: a torn write mid-way through the final
        group-commit line truncates to the acknowledged prefix."""
        base = FileWAL(tmp_path)
        wal = GroupCommitWAL(base, max_batch=256)
        manager = file_manager(wal)
        committed = []
        for index in range(3):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 10)
            committed.append(manager.commit(txn))
            wal.flush()
        base.close()
        # Tear the last line in half, as a mid-write power cut would.
        raw = (tmp_path / "wal.jsonl").read_bytes()
        torn = raw[: len(raw) - len(raw.splitlines(keepends=True)[-1]) // 2 - 1]
        (tmp_path / "wal.jsonl").write_bytes(torn)
        bus = TraceBus()
        checker = bus.subscribe(AtomicityChecker())
        recovered, _ = recover_manager(
            FileWAL(tmp_path),
            generator=ShardedTimestampGenerator(0, 1),
            tracer=bus,
        )
        # The torn commit is gone; the two acknowledged before it hold.
        assert recovered.object("A").snapshot() == 120
        txn = recovered.begin()
        recovered.invoke(txn, "A", "Credit", 1)
        timestamp = recovered.commit(txn)
        assert timestamp > committed[1]
        assert checker.report()["verdict"] == "clean"


class TestStridePersistence:
    """Satellite regression: the stride modulus is pinned in the log."""

    def make_history(self, tmp_path, shard=1, shards=4):
        wal = FileWAL(tmp_path)
        manager = file_manager(wal, shard=shard, shards=shards)
        for _ in range(3):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 5)
            manager.commit(txn)
        return wal

    def test_meta_record_carries_stride(self, tmp_path):
        wal = self.make_history(tmp_path)
        meta = wal.records()[0]
        assert meta["kind"] == "meta"
        assert (meta["shard"], meta["shards"]) == (1, 4)

    def test_same_stride_reopens_and_continues_on_residue(self, tmp_path):
        wal = self.make_history(tmp_path)
        recovered, _ = recover_manager(
            wal, generator=ShardedTimestampGenerator(1, 4)
        )
        txn = recovered.begin()
        recovered.invoke(txn, "A", "Credit", 1)
        timestamp = recovered.commit(txn)
        assert timestamp % 4 == 1, "new commits stay on the shard's stride"

    @pytest.mark.parametrize("bad", [(1, 3), (2, 4), (0, 1)])
    def test_different_stride_is_refused(self, tmp_path, bad):
        wal = self.make_history(tmp_path)
        with pytest.raises(RecoveryError, match="strid"):
            recover_manager(wal, generator=ShardedTimestampGenerator(*bad))

    def test_a_one_shard_log_reopens_under_the_monotone_clock(self, tmp_path):
        # Shard 0 of 1 mints what the monotone clock does (a simulated
        # single site writes such logs); a wider stride is still refused.
        wal = FileWAL(tmp_path)
        file_manager(wal, shard=0, shards=1)
        recovered, _ = recover_manager(wal)
        assert sorted(recovered.objects) == ["A"]
        with pytest.raises(RecoveryError, match="strid"):
            recover_manager(wal, generator=ShardedTimestampGenerator(0, 2))

    def test_unsharded_log_refuses_sharded_generator(self, tmp_path):
        wal = FileWAL(tmp_path)
        manager = TransactionManager(wal=wal)
        manager.create_object("A", make_account_adt(initial=1))
        with pytest.raises(RecoveryError, match="strid"):
            recover_manager(wal, generator=ShardedTimestampGenerator(1, 4))


class TestPrepared2PC:
    """Manager-level 2PC: prepare force-writes, the verdict survives."""

    def test_prepare_is_durable_and_commit_prepared_applies(self, tmp_path):
        wal = GroupCommitWAL(FileWAL(tmp_path), max_batch=256)
        manager = file_manager(wal, shard=0, shards=2)
        txn = manager.begin("X")
        # Debit-Ok holds DEBIT_LOCK (Credit commutes and would block
        # nothing), so the resurrected locks are observable below.
        manager.invoke(txn, "A", "Debit", 30)
        vote = manager.prepare(txn)
        wal.flush()
        # Crash after prepare: the resurrection keeps the locks.
        recovered, _ = recover_manager(
            FileWAL(tmp_path), generator=ShardedTimestampGenerator(0, 2)
        )
        assert recovered.prepared_transactions() == ["X"]
        blocked = recovered.begin()
        from repro.core import LockConflict, WouldBlock

        with pytest.raises((LockConflict, WouldBlock)):
            recovered.invoke(blocked, "A", "Debit", 1)
        resurrected = recovered.transaction("X")
        decided = max(vote, 3) + 1  # a coordinator ts above every vote
        recovered.commit_prepared(resurrected, decided)
        assert recovered.object("A").snapshot() == 70
        assert recovered.prepared_transactions() == []

    def test_prepared_abort_releases_locks(self, tmp_path):
        wal = GroupCommitWAL(FileWAL(tmp_path), max_batch=256)
        manager = file_manager(wal, shard=0, shards=2)
        txn = manager.begin("X")
        manager.invoke(txn, "A", "Credit", 50)
        manager.prepare(txn)
        wal.flush()
        recovered, _ = recover_manager(
            FileWAL(tmp_path), generator=ShardedTimestampGenerator(0, 2)
        )
        recovered.abort(recovered.transaction("X"))
        assert recovered.object("A").snapshot() == 100
        txn2 = recovered.begin()
        recovered.invoke(txn2, "A", "Debit", 1)  # the locks are free again
        recovered.commit(txn2)

    def test_finish_clears_transaction_registry(self, tmp_path):
        """Session-hygiene regression at the manager layer: neither a
        commit nor an abort may leak the transaction handle."""
        manager = file_manager(FileWAL(tmp_path))
        txn = manager.begin("T")
        manager.invoke(txn, "A", "Credit", 1)
        manager.commit(txn)
        assert manager.transaction("T") is None
        txn2 = manager.begin("U")
        manager.invoke(txn2, "A", "Credit", 1)
        manager.abort(txn2)
        assert manager.transaction("U") is None
