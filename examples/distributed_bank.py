#!/usr/bin/env python3
"""A multi-site bank: cross-site transfers under simulated network latency.

Accounts live at three sites connected by a latency-simulating network;
each site is the serving tier's shard engine behind a simulated host.
Clients drive the one presumed-abort 2PC procedure over messages: every
PREPARE vote carries the site's timestamp floor and the first-touched
site decides above them all on its own stride (the paper's §3.3
mechanism).  A site crashes every 25 time units; 2PC turns its in-flight
transactions into clean aborts.  At the end, the globally recorded
interleaving is checked hybrid atomic.

Run:  python examples/distributed_bank.py
"""

from repro.core import is_hybrid_atomic, timestamps_respect_precedes
from repro.distributed import run_distributed_experiment


def main() -> None:
    run = run_distributed_experiment(
        site_count=3,
        accounts_per_site=2,
        clients=6,
        max_spread=3,
        duration=300,
        seed=42,
        record=True,
        crash_every=25.0,
    )

    m = run.metrics
    print(f"committed={m.committed} aborted={m.aborted} "
          f"conflicts={m.conflicts} mean-latency={m.mean_latency:.2f}")
    print("network traffic:", dict(run.network.sent))

    for name, site in sorted(run.sites.items()):
        balances = {obj: float(site.snapshot(obj)) for obj in site.objects()}
        stats = site.single({"op": "stats"})["ok"]
        print(f"  {name}: commits={stats['committed']:4d} " +
              " ".join(f"{obj}={bal:9.2f}" for obj, bal in balances.items()))

    history = run.history()
    print(f"\nrecorded events          : {len(history)}")
    print("timestamp constraint ok  :", timestamps_respect_precedes(history))
    print("globally hybrid atomic   :", is_hybrid_atomic(history, run.specs()))


if __name__ == "__main__":
    main()
