"""Targeted tests for smaller API surfaces not covered elsewhere."""

import pytest

from repro.adts import FifoQueueSpec, deq, enq, make_account_adt, make_counter_adt
from repro.core import History, HistoryBuilder, Invocation, op
from repro.core.specs import enumerate_legal_with_states
from repro.runtime import OptimisticTransactionManager
from repro.sim import ClientParams, Metrics


class TestHistoryExtras:
    def test_append_returns_new_history(self):
        from repro.core.events import CommitEvent

        h = History([], validate=False)
        h2 = h.append(CommitEvent("P", "X", 1))
        assert len(h) == 0
        assert len(h2) == 1

    def test_repr_contains_events(self):
        h = HistoryBuilder().commit("P", 1).history()
        assert "commit(1)" in repr(h)

    def test_indexing_and_slicing(self):
        h = (
            HistoryBuilder()
            .operation("P", Invocation("Enq", (1,)), "Ok")
            .commit("P", 1)
            .history()
        )
        assert h[0].transaction == "P"
        assert isinstance(h[:2], History)
        assert len(h[:2]) == 2

    def test_hashable(self):
        a = HistoryBuilder().commit("P", 1).history()
        b = HistoryBuilder().commit("P", 1).history()
        assert hash(a) == hash(b)
        assert a == b


class TestSpecsExtras:
    def test_enumerate_with_states_matches_plain(self):
        spec = FifoQueueSpec()
        universe = [enq(1), deq(1)]
        pairs = dict(enumerate_legal_with_states(spec, universe, 3))
        for sequence, states in pairs.items():
            assert spec.run(sequence) == states

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_legal_with_states(FifoQueueSpec(), [], -2))

    def test_run_from_dead_states(self):
        spec = FifoQueueSpec()
        assert spec.run_from(frozenset(), (enq(1),)) == frozenset()


class TestManagerExtras:
    def test_optimistic_counters(self):
        manager = OptimisticTransactionManager()
        manager.create_object("A", make_account_adt())
        obj = manager.object("A")
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Credit", 10))
        assert obj.fast_validations == 1
        t = manager.begin()
        manager.invoke(t, "A", "Debit", 1)
        manager.run_transaction(lambda ctx: ctx.invoke("A", "Debit", 2))
        manager.commit(t)  # slow path: replays, still legal
        assert obj.replay_validations >= 1
        assert obj.failed_validations == 0

    def test_optimistic_intentions_view(self):
        manager = OptimisticTransactionManager()
        manager.create_object("A", make_account_adt())
        t = manager.begin()
        manager.invoke(t, "A", "Credit", 4)
        obj = manager.object("A")
        assert [o.name for o in obj.intentions(t.name)] == ["Credit"]
        assert obj.committed_sequence() == ()


class TestSimExtras:
    def test_jittered_zero_base(self):
        import random

        params = ClientParams(think_time=0.0)
        assert params.jittered(random.Random(0), 0.0) == 0.0

    def test_metrics_retained_intentions_field(self):
        m = Metrics(retained_intentions=7)
        assert m.retained_intentions == 7


class TestReportExtras:
    def test_report_subset_of_types(self):
        from repro.analysis import generate_report

        text = generate_report(types=["File"])
        assert "File" in text
        assert "Account |" not in text

    def test_distributed_run_total_balance(self):
        from repro.distributed import run_distributed_experiment

        run = run_distributed_experiment(
            site_count=2,
            accounts_per_site=1,
            clients=2,
            duration=60,
            seed=3,
            initial_balance=100,
        )
        # Money moves but the committed total only changes through Posts
        # and net credits/debits; at minimum the helper returns a number.
        assert run.total_balance() > 0


class TestOpHelperExtra:
    def test_op_in_relations(self):
        from repro.adts import FILE_CONFLICT

        assert FILE_CONFLICT.related(op("Read", result=0), op("Write", 1))
