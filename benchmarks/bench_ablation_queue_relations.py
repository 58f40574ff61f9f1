"""Ablation A-Q — choosing between the queue's two minimal relations.

DESIGN.md calls out the design choice the paper leaves open: a queue may
run the hybrid protocol with either minimal dependency relation.  This
ablation sweeps the producer:consumer ratio under both choices.

Expected shape: Figure 4-2 (conflict-free enqueues, dequeues exclusive)
wins producer-heavy mixes; Figure 4-3 (dequeues free of enqueue locks,
enqueues exclusive) wins consumer-heavy mixes; neither dominates — the
run-time counterpart of the relations being incomparable.
"""

from conftest import metrics_table

from repro.protocols import HYBRID
from repro.sim import QueueWorkload, run_experiment

DURATION = 400.0
SEED = 13


def run(producers, consumers, dependency):
    return run_experiment(
        QueueWorkload(
            producers=producers,
            consumers=consumers,
            ops_per_transaction=3,
            dependency=dependency,
        ),
        HYBRID,
        duration=DURATION,
        seed=SEED,
    ).metrics


def test_ablation_queue_relation_choice(benchmark, save_artifact):
    benchmark(lambda: run(4, 1, "fig42"))

    lines = []
    outcomes = {}
    for producers, consumers in ((6, 1), (4, 2), (2, 4), (1, 6)):
        fig42 = run(producers, consumers, "fig42")
        fig43 = run(producers, consumers, "fig43")
        outcomes[(producers, consumers)] = (fig42, fig43)
        lines.append(f"\nproducers:consumers = {producers}:{consumers}")
        lines.append(
            metrics_table(
                {"hybrid/fig4-2": fig42, "hybrid/fig4-3": fig43},
                fields=("committed", "conflicts", "blocks", "throughput"),
            )
        )

    # Neither choice dominates: 4-2 wins the producer-heavy end, 4-3 the
    # consumer-heavy end.
    heavy_producers = outcomes[(6, 1)]
    heavy_consumers = outcomes[(1, 6)]
    assert heavy_producers[0].throughput > heavy_producers[1].throughput
    assert heavy_consumers[1].throughput > heavy_consumers[0].throughput

    save_artifact(
        "ablation_queue_relations",
        "A-Q: hybrid protocol with Fig 4-2 vs Fig 4-3 conflicts "
        "(duration=400, seed=13)\n" + "\n".join(lines),
    )
