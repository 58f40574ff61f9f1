"""End-to-end distributed runs: correctness, determinism, crash handling."""

import pytest

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.distributed import run_distributed_experiment


class TestRuns:
    def test_progress_and_traffic(self):
        run = run_distributed_experiment(
            site_count=3, clients=4, duration=150, seed=1
        )
        assert run.metrics.committed > 20
        sent = run.network.sent
        assert 0 <= sent["prepare"] - sent["vote"] <= 2
        # Every commit the clients counted was decided by one site: a
        # plain commit (single-site) or the primary's decide (2PC).
        assert sent["commit"] + sent["decide"] >= run.metrics.committed

    def test_deterministic(self):
        a = run_distributed_experiment(duration=120, seed=9)
        b = run_distributed_experiment(duration=120, seed=9)
        assert a.metrics.as_row() == b.metrics.as_row()
        assert dict(a.network.sent) == dict(b.network.sent)

    def test_history_hybrid_atomic(self):
        run = run_distributed_experiment(
            site_count=3, clients=4, duration=150, seed=1, record=True
        )
        h = run.history()
        assert len(h) > 100
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, run.specs())

    def test_timestamps_globally_unique(self):
        run = run_distributed_experiment(duration=150, seed=2, record=True)
        stamps = run.history().timestamps()
        assert len(set(stamps.values())) == len(stamps)

    def test_cross_site_transactions_commit_atomically(self):
        run = run_distributed_experiment(
            site_count=4, max_spread=3, clients=5, duration=200, seed=3,
            record=True,
        )
        # Every committed transaction carries one timestamp at every
        # object it touched — atomic commitment across sites.
        h = run.history()
        from repro.core.events import CommitEvent

        per_txn = {}
        for event in h:
            if isinstance(event, CommitEvent):
                per_txn.setdefault(event.transaction, set()).add(event.timestamp)
        assert per_txn
        assert all(len(stamps) == 1 for stamps in per_txn.values())

    def test_latency_grows_with_spread(self):
        narrow = run_distributed_experiment(
            site_count=4, max_spread=1, clients=4, duration=250, seed=5
        )
        wide = run_distributed_experiment(
            site_count=4, max_spread=4, clients=4, duration=250, seed=5
        )
        assert wide.metrics.mean_latency > narrow.metrics.mean_latency


class TestCrashes:
    def test_crashes_cause_aborts_but_not_corruption(self):
        run = run_distributed_experiment(
            site_count=3,
            clients=4,
            duration=200,
            seed=4,
            record=True,
            crash_every=20,
        )
        assert run.metrics.aborted > 0
        h = run.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, run.specs())

    def test_no_transaction_partially_committed_across_crashes(self):
        run = run_distributed_experiment(
            site_count=3,
            max_spread=3,
            clients=5,
            duration=200,
            seed=6,
            record=True,
            crash_every=15,
        )
        from repro.core.events import AbortEvent, CommitEvent

        h = run.history()
        committed = {e.transaction for e in h if isinstance(e, CommitEvent)}
        aborted = {e.transaction for e in h if isinstance(e, AbortEvent)}
        # Commit-or-abort is exclusive: no transaction both commits
        # somewhere and aborts somewhere else.
        assert not (committed & aborted)
