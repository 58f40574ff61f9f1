"""Property tests: distributed runs verify under random seeds/topologies."""

from hypothesis import given, settings, strategies as st

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.recovery import CrashPlan
from repro.sim import BankWorkload, run_experiment


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_distributed_runs_hybrid_atomic(seed, site_count, max_spread):
    run = run_experiment(
        BankWorkload(
            sites=site_count, max_spread=min(max_spread, site_count), clients=3
        ),
        duration=100,
        seed=seed,
        record=True,
    )
    h = run.history()
    assert timestamps_respect_precedes(h)
    assert is_hybrid_atomic(h, run.specs())
    stamps = h.timestamps()
    assert len(set(stamps.values())) == len(stamps)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_distributed_crashes_never_split_commitment(seed):
    from repro.core.events import AbortEvent, CommitEvent

    run = run_experiment(
        BankWorkload(sites=3, max_spread=3, clients=4),
        duration=120,
        seed=seed,
        record=True,
        crashes=CrashPlan.soft(seed, ["shard0", "shard1", "shard2"], 120, every=17),
    )
    h = run.history()
    assert is_hybrid_atomic(h, run.specs())
    committed = {e.transaction for e in h if isinstance(e, CommitEvent)}
    aborted = {e.transaction for e in h if isinstance(e, AbortEvent)}
    assert not (committed & aborted)
