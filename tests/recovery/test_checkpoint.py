"""Checkpoints: the version timestamp fence, and the checkpoint record a
fold leaves in the one rewrite of the log."""

import pytest

from repro.adts import ACCOUNT_CONFLICT, AccountSpec, make_account_adt
from repro.core import CompactingLockMachine, Invocation, NEG_INFINITY
from repro.core.errors import ProtocolError
from repro.recovery import (
    FileWAL,
    MemoryWAL,
    RecoveryError,
    commit_record,
    create_record,
    decode_states,
    decode_value,
    meta_record,
    prepare_record,
    recover_machines,
    recover_manager,
    write_checkpoint,
)


def account_machine():
    return CompactingLockMachine(AccountSpec(), ACCOUNT_CONFLICT, obj="A")


def commit_one(machine, txn, amount, ts):
    machine.execute(txn, Invocation("Credit", (amount,)))
    machine.commit(txn, ts)


def build_log(wal):
    """``wal`` holding meta, A's create and T1..T3 (credits of 1, 2, 3
    committed at 1, 2, 3); returns the machine that ran them."""
    wal.append(meta_record("manager", "manager"))
    adt = make_account_adt()
    wal.append(create_record("A", "Account", "hybrid", adt.spec.initial_states()))
    machine = CompactingLockMachine(adt.spec, adt.conflict, obj="A")
    for i, txn in enumerate(["T1", "T2", "T3"], start=1):
        machine.execute(txn, Invocation("Credit", (i,)))
        wal.append(commit_record(txn, i, {"A": machine.intentions(txn)}))
        machine.commit(txn, i)
    return machine


def checkpoints(wal):
    return [r for r in wal.records() if r["kind"] == "checkpoint"]


def committed(machine):
    return AccountSpec().run_from(machine.version_states, machine.committed_state())


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
    def checkpoint(self, machine):
        wal = MemoryWAL()
        wal.append(meta_record("manager", "manager"))
        return write_checkpoint(wal, {"A": machine})

    def test_folds_then_snapshots(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        record = self.checkpoint(machine)
        assert record["kind"] == "checkpoint"
        assert decode_value(record["objects"]["A"]["fence"]) == 3
        assert record["floor"] == 3                   # the largest object clock
        assert decode_states(record["objects"]["A"]["version"]) == machine.version_states

    def test_fence_defaults_to_neg_infinity(self):
        record = self.checkpoint(account_machine())    # nothing ever committed
        assert decode_value(record["objects"]["A"]["fence"]) is NEG_INFINITY
        assert record["floor"] == 0 and record["decided"] == {}

    def test_active_transactions_stay_out_of_the_version(self):
        machine = account_machine()
        commit_one(machine, "P", 5, 3)
        machine.execute("Q", Invocation("Credit", (100,)))  # active
        record = self.checkpoint(machine)
        states = decode_states(record["objects"]["A"]["version"])
        assert AccountSpec().run_from(states, ()) == states
        assert machine.intentions("Q")  # Q's intentions survive, unfolded


class TestCheckpointRecord:
    """The checkpoint lives in the log: it round-trips through both
    backends, and a later one replaces the earlier."""

    def test_memory_roundtrip(self):
        wal = MemoryWAL()
        machine = build_log(wal)
        assert checkpoints(wal) == []
        record = write_checkpoint(wal, {"A": machine})
        assert checkpoints(wal) == [record]
        machines, _, _, report = recover_machines(wal.records())
        assert report.from_checkpoint and report.replayed_records == 0
        assert machines["A"].version_timestamp == 3 and machines["A"].clock == 3
        assert committed(machines["A"]) == committed(machine) == frozenset({6})

    def test_file_roundtrip(self, tmp_path):
        machine = build_log(FileWAL(tmp_path))
        record = write_checkpoint(FileWAL(tmp_path), {"A": machine})
        reopened = FileWAL(tmp_path)
        assert checkpoints(reopened) == [record]
        assert [r["kind"] for r in reopened.records()] == ["meta", "create", "checkpoint"]
        recovered, report = recover_manager(reopened)
        assert report.from_checkpoint
        assert recovered.object("A").machine.version_timestamp == 3
        assert recovered.object("A").snapshot() == 6
        # The log is the one stable store: nothing else is written beside it.
        assert sorted(path.name for path in tmp_path.iterdir()) == [FileWAL.FILENAME]

    def test_latest_supersedes(self):
        wal = MemoryWAL()
        machine = build_log(wal)
        write_checkpoint(wal, {"A": machine})
        machine.execute("T4", Invocation("Credit", (4,)))
        wal.append(commit_record("T4", 9, {"A": machine.intentions("T4")}))
        machine.commit("T4", 9)
        latest = write_checkpoint(wal, {"A": machine})
        assert checkpoints(wal) == [latest]
        assert latest["floor"] == 9
        assert [r["kind"] for r in wal.records()] == ["meta", "create", "checkpoint"]
        machines, _, _, _ = recover_machines(wal.records())
        assert committed(machines["A"]) == frozenset({10})


class TestTruncation:
    def test_folded_commits_are_dropped(self):
        wal = MemoryWAL()
        machine = build_log(wal)
        write_checkpoint(wal, {"A": machine})  # everything folds: none active
        kinds = [r["kind"] for r in wal.records()]
        assert kinds == ["meta", "create", "checkpoint"]

    def test_live_transactions_are_kept(self):
        wal = MemoryWAL()
        machine = build_log(wal)
        machine.execute("T4", Invocation("Credit", (50,)))  # active
        machine.execute("T5", Invocation("Credit", (2,)))  # bound = 3
        wal.append(prepare_record("T5", 3, {"A": machine.intentions("T5")}))
        machine.commit("T4", 9)  # above T5's bound: stays retained
        wal.append(commit_record("T4", 9, {"A": machine.intentions("T4")}))
        write_checkpoint(wal, {"A": machine})
        records = wal.records()
        # The checkpoint sits after meta and creates, before what is live:
        # T4 (committed at the horizon, retained) and T5 (active); the
        # folded T1..T3 are dropped.
        assert [(r["kind"], r.get("txn")) for r in records] == [
            ("meta", None),
            ("create", None),
            ("checkpoint", None),
            ("prepare", "T5"),
            ("commit", "T4"),
        ]

    def test_truncated_log_plus_checkpoint_still_recovers(self):
        wal = MemoryWAL()
        machine = build_log(wal)
        write_checkpoint(wal, {"A": machine})
        machines, _, _, report = recover_machines(wal.records())
        assert committed(machines["A"]) == committed(machine)
        assert report.replayed_records == 0  # checkpoint held everything

    def test_dropped_2pc_decisions_ride_the_checkpoint(self):
        # A 2PC commit's records are folded away like any other's, but a
        # peer resolving its own prepared copy may still ask what was
        # decided: the checkpoint keeps the answer, the next one carries it.
        wal = MemoryWAL()
        machine = build_log(wal)
        machine.execute("X", Invocation("Credit", (7,)))
        wal.append(prepare_record("X", 3, {"A": machine.intentions("X")}))
        wal.append(commit_record("X", 6, {"A": machine.intentions("X")}))
        machine.commit("X", 6)
        assert write_checkpoint(wal, {"A": machine})["decided"] == {"X": 6}
        assert {r.get("txn") for r in wal.records()} == {None}
        assert write_checkpoint(wal, {"A": machine})["decided"] == {"X": 6}
        _, _, _, report = recover_machines(wal.records())
        assert report.decided == {"X": 6}


class TestOlderLayout:
    def test_a_directory_with_a_checkpoint_file_is_refused(self, tmp_path):
        # An older tree saved checkpoints to a second file and truncated
        # the log behind it; replaying that log alone would lose the
        # folded commits, so recovery names the file and stops.
        wal = FileWAL(tmp_path)
        build_log(wal)
        (tmp_path / "checkpoint.json").write_text("{}")
        with pytest.raises(RecoveryError, match="checkpoint.json"):
            recover_manager(FileWAL(tmp_path))


class TestTimestampFloor:
    """Regression: timestamps were reissued after a checkpointed recovery.

    A checkpoint drops the folded commit records, and the recovered
    generator used to be advanced from the log alone — so after five
    commits on ``A`` (timestamps 1–5), a checkpoint and a recovery, the
    first transaction on an untouched object ``B`` committed at 1 again.
    """

    @pytest.mark.parametrize("stride", [None, (1, 3)], ids=["default", "stride"])
    def test_recovered_generator_clears_the_checkpoint(self, stride):
        from repro.obs import AtomicityChecker, TraceBus
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
        checkpoint = manager.checkpoint()
        assert not [r for r in manager.wal.records() if r["kind"] == "commit"]

        recovered, _ = recover_manager(manager.wal, tracer=bus, generator=generator())
        txn = recovered.begin("after")
        recovered.invoke(txn, "B", "Credit", 1)
        after = recovered.commit(txn)
        assert after > max(before)
        if stride:
            assert after % stride[1] == stride[0]
        # The merged trace certifies: in particular, commit timestamps
        # are unique across the crash.
        assert checker.ok, checker.render_report()
        assert checkpoint["floor"] == max(before)
