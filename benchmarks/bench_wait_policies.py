"""Ablation A-W — retry/backoff vs block-and-wake lock scheduling.

The protocol leaves the waiting discipline open ("the invocation is later
retried").  This ablation compares the two classic choices on a hot
account under commutativity conflicts (the most lock-hungry typed table),
and confirms hybrid's dominance is robust to the scheduling choice.

Expected shape: blocking wastes no backoff time, so it commits more and
refuses fewer locks; a refused transaction whose holder is itself
waiting is abandoned rather than parked (the one wait rule the server
applies too), which is where blocking's aborts come from.  Hybrid beats
commutativity under either policy.
"""

from conftest import breakdown_data, metrics_table, run_observed

from repro.protocols import COMMUTATIVITY, HYBRID
from repro.sim import ClientParams
from repro.sim import AccountWorkload

DURATION = 300.0
SEED = 2


def run(protocol, policy):
    return run_observed(
        AccountWorkload(clients=6, accounts=1, post_p=0.2),
        protocol,
        duration=DURATION,
        seed=SEED,
        params=ClientParams(wait_policy=policy),
    )


def test_wait_policies(benchmark, save_artifact):
    benchmark(lambda: run(COMMUTATIVITY, "block"))

    observed = {
        f"{protocol.name}/{policy}": run(protocol, policy)
        for protocol in (HYBRID, COMMUTATIVITY)
        for policy in ("retry", "block")
    }
    rows = {name: metrics for name, (metrics, _) in observed.items()}

    # Blocking beats polling for the lock-hungry table ...
    assert (
        rows["commutativity/block"].throughput
        > rows["commutativity/retry"].throughput
    )
    # Hybrid's win is robust to the scheduling policy.
    for policy in ("retry", "block"):
        assert (
            rows[f"hybrid/{policy}"].throughput
            > rows[f"commutativity/{policy}"].throughput
        )

    # The block policy's refusals surface as waits, not polling retries.
    block_registry = observed["commutativity/block"][1]
    assert block_registry.counter("lock.waits").value > 0

    save_artifact(
        "wait_policies",
        "A-W: lock-wait scheduling ablation on a hot account "
        "(clients=6, post share=0.2, duration=300, seed=2)\n\n"
        + metrics_table(
            rows,
            fields=(
                "committed",
                "conflicts",
                "aborted",
                "throughput",
                "mean_latency",
                "abort_rate",
            ),
        ),
        data=breakdown_data(observed),
    )
