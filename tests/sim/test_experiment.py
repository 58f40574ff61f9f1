"""Simulation experiments: metrics, determinism, protocol orderings."""

import random

import pytest

from repro.protocols import ALL_PROTOCOLS, COMMUTATIVITY, HYBRID, SERIAL, TWO_PHASE_RW
from repro.sim import (
    AccountWorkload,
    ClientParams,
    FileWorkload,
    Metrics,
    QueueWorkload,
    SemiQueueWorkload,
    SetWorkload,
    compare_protocols,
    run_experiment,
)


class TestMetrics:
    def test_throughput(self):
        m = Metrics(duration=100, committed=50)
        assert m.throughput == 0.5

    def test_zero_division_safe(self):
        m = Metrics()
        assert m.throughput == 0.0
        assert m.mean_latency == 0.0
        assert m.conflict_rate == 0.0
        assert m.abort_rate == 0.0

    def test_rates(self):
        m = Metrics(duration=10, committed=8, aborted=2, conflicts=5, operations=15)
        assert m.abort_rate == 0.2
        assert m.conflict_rate == 0.25

    def test_as_row_keys(self):
        row = Metrics(duration=1).as_row()
        assert {"committed", "throughput", "conflict_rate"} <= set(row)


class TestWorkloads:
    def test_queue_scripts(self):
        w = QueueWorkload(producers=2, consumers=1, ops_per_transaction=3)
        rng = random.Random(0)
        producer = w.script(0, rng)
        consumer = w.script(2, rng)
        assert all(step[1] == "Enq" for step in producer)
        assert all(step[1] == "Deq" for step in consumer)
        assert len(producer) == 3

    def test_queue_items_unique(self):
        w = QueueWorkload(producers=1, consumers=0, ops_per_transaction=5)
        rng = random.Random(0)
        items = [step[2][0] for step in w.script(0, rng) + w.script(0, rng)]
        assert len(set(items)) == len(items)

    def test_account_scripts_cover_operations(self):
        w = AccountWorkload(clients=1, ops_per_transaction=100)
        rng = random.Random(1)
        names = {step[1] for step in w.script(0, rng)}
        assert names == {"Credit", "Debit", "Post"}

    def test_object_declarations(self):
        assert [name for name, _ in QueueWorkload().objects()] == ["Q"]
        assert len(AccountWorkload(accounts=3).objects()) == 3


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(QueueWorkload(), HYBRID, duration=120, seed=9)
        b = run_experiment(QueueWorkload(), HYBRID, duration=120, seed=9)
        assert a.as_row() == b.as_row()

    def test_seed_changes_outcome(self):
        a = run_experiment(AccountWorkload(), HYBRID, duration=120, seed=1)
        b = run_experiment(AccountWorkload(), HYBRID, duration=120, seed=2)
        assert a.as_row() != b.as_row()

    def test_progress_made(self):
        m = run_experiment(QueueWorkload(), HYBRID, duration=200, seed=0)
        assert m.committed > 10
        assert m.operations > m.committed

    def test_custom_params(self):
        params = ClientParams(op_time=0.1, commit_time=0.1, think_time=0.1)
        fast = run_experiment(QueueWorkload(), HYBRID, duration=100, seed=0, params=params)
        slow = run_experiment(QueueWorkload(), HYBRID, duration=100, seed=0)
        assert fast.committed > slow.committed


class TestPaperShapes:
    """The qualitative claims the simulation must reproduce."""

    def test_queue_hybrid_beats_commutativity(self):
        results = compare_protocols(
            lambda: QueueWorkload(producers=4, consumers=1),
            [HYBRID, COMMUTATIVITY, TWO_PHASE_RW],
            duration=300,
            seed=3,
        )
        assert results["hybrid"].throughput > results["commutativity"].throughput
        assert (
            results["commutativity"].throughput
            >= results["rw-2pl"].throughput
        )

    def test_account_hybrid_beats_commutativity(self):
        results = compare_protocols(
            lambda: AccountWorkload(clients=6, accounts=1),
            [HYBRID, COMMUTATIVITY],
            duration=300,
            seed=3,
        )
        assert results["hybrid"].throughput > results["commutativity"].throughput
        assert results["hybrid"].conflicts < results["commutativity"].conflicts

    def test_semiqueue_protocols_tie(self):
        results = compare_protocols(
            lambda: SemiQueueWorkload(producers=4, consumers=1),
            [HYBRID, COMMUTATIVITY],
            duration=300,
            seed=3,
        )
        hybrid, comm = results["hybrid"], results["commutativity"]
        # Identical conflict tables => identical simulations.
        assert hybrid.as_row() == comm.as_row()

    def test_serial_is_slowest_on_contended_account(self):
        results = compare_protocols(
            lambda: AccountWorkload(clients=6, accounts=1),
            [HYBRID, SERIAL],
            duration=300,
            seed=3,
        )
        assert results["hybrid"].throughput > results["serial"].throughput


class TestNewWorkloads:
    def test_directory_scripts_use_configured_keys(self):
        from repro.sim import DirectoryWorkload

        w = DirectoryWorkload(key_count=4, ops_per_transaction=50)
        rng = random.Random(0)
        keys = {step[2][0] for step in w.script(0, rng)}
        assert keys <= {f"k{i}" for i in range(4)}
        assert len(keys) > 1

    def test_directory_skew_concentrates_keys(self):
        from repro.sim import DirectoryWorkload

        rng = random.Random(1)
        uniform = DirectoryWorkload(key_count=16, skew=0.0, ops_per_transaction=300)
        skewed = DirectoryWorkload(key_count=16, skew=3.0, ops_per_transaction=300)
        uniform_keys = [s[2][0] for s in uniform.script(0, rng)]
        skewed_keys = [s[2][0] for s in skewed.script(0, random.Random(1))]
        hot = max(skewed_keys.count(k) for k in set(skewed_keys))
        cold = max(uniform_keys.count(k) for k in set(uniform_keys))
        assert hot > 2 * cold

    def test_stack_scripts(self):
        from repro.sim import StackWorkload

        w = StackWorkload(producers=1, consumers=1, ops_per_transaction=3)
        rng = random.Random(0)
        assert all(step[1] == "Push" for step in w.script(0, rng))
        assert all(step[1] == "Pop" for step in w.script(1, rng))

    def test_stack_experiment_runs(self):
        from repro.sim import StackWorkload

        metrics = run_experiment(StackWorkload(), HYBRID, duration=120, seed=2)
        assert metrics.committed > 5


class TestWorkloadProtocolMatrix:
    """Every workload runs under every locking protocol (smoke breadth)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: QueueWorkload(producers=2, consumers=1),
            lambda: SemiQueueWorkload(producers=2, consumers=1),
            lambda: AccountWorkload(clients=3),
            lambda: FileWorkload(clients=3),
            lambda: SetWorkload(clients=3),
        ],
        ids=["queue", "semiqueue", "account", "file", "set"],
    )
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.name)
    def test_pairing_progresses(self, factory, protocol):
        metrics = run_experiment(factory(), protocol, duration=80, seed=1)
        assert metrics.committed > 0

    def test_directory_and_stack_under_all_protocols(self):
        from repro.sim import DirectoryWorkload, StackWorkload

        for protocol in ALL_PROTOCOLS:
            assert (
                run_experiment(
                    DirectoryWorkload(clients=3), protocol, duration=80, seed=1
                ).committed
                > 0
            )
            assert (
                run_experiment(
                    StackWorkload(producers=2, consumers=1),
                    protocol,
                    duration=80,
                    seed=1,
                ).committed
                > 0
            )

    def test_optimistic_engine_on_every_workload(self):
        from repro.protocols import OPTIMISTIC
        from repro.sim import DirectoryWorkload, StackWorkload

        factories = [
            lambda: QueueWorkload(producers=2, consumers=1),
            lambda: SemiQueueWorkload(producers=2, consumers=1),
            lambda: AccountWorkload(clients=3),
            lambda: FileWorkload(clients=3),
            lambda: SetWorkload(clients=3),
            lambda: DirectoryWorkload(clients=3),
            lambda: StackWorkload(producers=2, consumers=1),
        ]
        for factory in factories:
            metrics = run_experiment(factory(), OPTIMISTIC, duration=80, seed=1)
            assert metrics.committed > 0
            assert metrics.conflicts == 0  # no locks in the optimistic engine


class TestWriteAheadLog:
    def test_a_log_that_is_not_empty_is_refused(self, tmp_path):
        from repro.recovery import FileWAL

        run_experiment(AccountWorkload(), duration=20, seed=1, wal=FileWAL(tmp_path))
        with pytest.raises(ValueError, match="wal.jsonl"):
            run_experiment(
                AccountWorkload(), duration=20, seed=1, wal=FileWAL(tmp_path)
            )
