"""Checkpoints: the version timestamp fence, stores, and WAL truncation."""

import pytest

from repro.adts import ACCOUNT_CONFLICT, AccountSpec, make_account_adt
from repro.core import CompactingLockMachine, Invocation, NEG_INFINITY
from repro.core.errors import ProtocolError
from repro.recovery import (
    Checkpoint,
    FileCheckpointStore,
    MemoryCheckpointStore,
    MemoryWAL,
    commit_record,
    meta_record,
    prepare_record,
    recover_machines,
    take_checkpoint,
    truncate_wal,
)


def account_machine():
    return CompactingLockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")


def commit_one(machine, txn, amount, ts):
    machine.execute(txn, Invocation("Credit", (amount,)))
    machine.commit(txn, ts)


class TestVersionTimestamp:
    def test_starts_at_neg_infinity(self):
        assert account_machine().version_timestamp is NEG_INFINITY

    def test_tracks_largest_folded_commit(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        commit_one(machine, "Q", 7, 8)
        machine.forget()
        assert machine.version_timestamp == 8

    def test_fence_survives_horizon_regression(self):
        # After a full fold the *horizon* regresses to -inf (no committed,
        # no active transactions), but the fence must not: replaying an
        # already-folded commit would double-apply it.
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        machine.forget()
        assert machine.horizon() is NEG_INFINITY
        assert machine.version_timestamp == 3

    def test_export_restore_roundtrip(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        machine.forget()
        fence, clock, version = machine.export_version()
        fresh = account_machine()
        fresh.restore_version(version, clock, fence)
        assert fresh.version_states == version
        assert fresh.version_timestamp == fence
        assert fresh.clock == clock

    def test_restore_rejects_used_machine(self):
        machine = account_machine()
        machine.execute("P", Invocation("Credit", (1,)))
        with pytest.raises(ProtocolError):
            machine.restore_version(frozenset({0}))

    def test_restore_rejects_a_machine_whose_only_transaction_is_gone(self):
        # Nothing of the transaction is retained — no intentions, no
        # commit timestamp, no bound — yet the machine is not pristine.
        folded = account_machine()
        commit_one(folded, "P", 5, 3)
        folded.forget()
        assert folded.committed_transactions == {} and folded.intentions("P") == ()
        aborted = account_machine()
        aborted.execute("P", Invocation("Credit", (1,)))
        aborted.abort("P")
        assert aborted.intentions("P") == ()
        for machine in (folded, aborted):
            with pytest.raises(ProtocolError, match="used machine"):
                machine.restore_version(frozenset({0}))

    def test_restore_rejects_empty_version(self):
        with pytest.raises(ValueError):
            account_machine().restore_version(frozenset())


class TestTakeCheckpoint:
    def test_folds_then_snapshots(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        checkpoint = take_checkpoint({"A": machine}, site_clock=9, taken_at=1.5)
        assert checkpoint.fence("A") == 3
        assert checkpoint.site_clock == 9
        assert checkpoint.objects["A"].version == machine.version_states

    def test_fence_defaults_to_neg_infinity(self):
        checkpoint = take_checkpoint({})
        assert checkpoint.fence("missing") is NEG_INFINITY

    def test_active_transactions_stay_out_of_the_version(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        machine.execute("Q", Invocation("Credit", (100,)))  # active
        checkpoint = take_checkpoint({"A": machine})
        states = checkpoint.objects["A"].version
        assert AccountSpec().run_from(states, ()) == states
        assert machine.intentions("Q")  # Q's intentions survive, unfolded


class TestStores:
    def make_checkpoint(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        return take_checkpoint({"A": machine}, site_clock=4)

    def test_memory_roundtrip(self):
        store = MemoryCheckpointStore()
        assert store.load() is None
        checkpoint = self.make_checkpoint()
        store.save(checkpoint)
        loaded = store.load()
        assert loaded.fence("A") == checkpoint.fence("A")
        assert loaded.objects["A"].version == checkpoint.objects["A"].version
        assert loaded.site_clock == 4

    def test_file_roundtrip(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        assert store.load() is None
        checkpoint = self.make_checkpoint()
        store.save(checkpoint)
        loaded = FileCheckpointStore(tmp_path).load()
        assert loaded.fence("A") == 3
        assert loaded.objects["A"].version == checkpoint.objects["A"].version

    def test_latest_supersedes(self):
        store = MemoryCheckpointStore()
        store.save(self.make_checkpoint())
        store.save(Checkpoint(site_clock=99))
        assert store.load().site_clock == 99


class TestTruncation:
    def build_log(self):
        wal = MemoryWAL()
        wal.append(meta_record("manager", "manager"))
        adt = make_account_adt()
        from repro.recovery import create_record

        wal.append(create_record("A", "Account", "hybrid", adt.spec.initial_states()))
        machine = CompactingLockMachine(adt.spec, adt.conflict, obj="A")
        for i, txn in enumerate(["T1", "T2", "T3"], start=1):
            machine.execute(txn, Invocation("Credit", (i,)))
            wal.append(
                commit_record(txn, i, {"A": machine.intentions(txn)})
            )
            machine.commit(txn, i)
        return wal, machine

    def test_folded_commits_are_dropped(self):
        wal, machine = self.build_log()
        before = len(wal)
        machine.forget()  # everything folds: no active, all committed <= max
        dropped = truncate_wal(wal, {"A": machine})
        assert dropped == before - 2  # meta + create stay
        kinds = [r["kind"] for r in wal.records()]
        assert kinds == ["meta", "create"]

    def test_live_transactions_are_kept(self):
        wal, machine = self.build_log()
        machine.execute("T4", Invocation("Credit", (50,)))  # active
        machine.execute("T5", Invocation("Credit", (2,)))  # bound = 3
        wal.append(prepare_record("T5", 3, {"A": machine.intentions("T5")}))
        machine.commit("T4", 9)  # above T5's bound: stays retained
        wal.append(commit_record("T4", 9, {"A": machine.intentions("T4")}))
        machine.forget()
        truncate_wal(wal, {"A": machine})
        txns = {r.get("txn") for r in wal.records()}
        # T4 (committed at the horizon, retained) and T5 (active) stay;
        # the folded T1..T3 are dropped.
        assert "T4" in txns and "T5" in txns
        assert txns & {"T1", "T2", "T3"} == set()

    def test_truncated_log_plus_checkpoint_still_recovers(self):
        wal, machine = self.build_log()
        checkpoint = take_checkpoint({"A": machine})
        truncate_wal(wal, {"A": machine})
        machines, _, _, report = recover_machines(
            wal.records(), checkpoint=checkpoint
        )
        spec = AccountSpec()
        recovered = machines["A"]
        assert spec.run_from(
            recovered.version_states, recovered.committed_state()
        ) == spec.run_from(machine.version_states, machine.committed_state())
        assert report.replayed_records == 0  # checkpoint held everything


class TestTimestampFloor:
    """Regression: timestamps were reissued after a checkpointed recovery.

    ``truncate_wal`` drops the folded commit records, and the recovered
    generator used to be advanced from the log alone — so after five
    commits on ``A`` (timestamps 1–5), a checkpoint and a recovery, the
    first transaction on an untouched object ``B`` committed at 1 again.
    """

    @pytest.mark.parametrize("stride", [None, (1, 3)], ids=["default", "stride"])
    def test_recovered_generator_clears_the_checkpoint(self, stride):
        from repro.obs import AtomicityChecker, TraceBus
        from repro.recovery import recover_manager
        from repro.runtime import TransactionManager
        from repro.server import ShardedTimestampGenerator

        def generator():
            return ShardedTimestampGenerator(*stride) if stride else None

        bus = TraceBus()
        checker = bus.subscribe(AtomicityChecker())
        manager = TransactionManager(
            generator=generator(), wal=MemoryWAL(), tracer=bus
        )
        manager.create_object("A", make_account_adt())
        manager.create_object("B", make_account_adt())
        before = []
        for _ in range(5):
            txn = manager.begin()
            manager.invoke(txn, "A", "Credit", 1)
            before.append(manager.commit(txn))
        store = MemoryCheckpointStore()
        checkpoint = manager.checkpoint(store)
        assert not [r for r in manager.wal.records() if r["kind"] == "commit"]

        recovered, _ = recover_manager(
            manager.wal, store=store, tracer=bus, generator=generator()
        )
        txn = recovered.begin("after")
        recovered.invoke(txn, "B", "Credit", 1)
        after = recovered.commit(txn)
        assert after > max(before)
        if stride:
            assert after % stride[1] == stride[0]
        # The merged trace certifies: in particular, commit timestamps
        # are unique across the crash.
        assert checker.ok, checker.render_report()
        assert checkpoint.site_clock == max(before)
