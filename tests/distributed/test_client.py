"""Distributed client/coordinator unit tests (driven step by step)."""

import random

from repro.sim import Network, Site
from repro.sim import Client, ClientParams, Metrics, Simulator


def rig(script, max_step_retries=3, site_count=2):
    """Build one client with a fixed script over fresh sites."""
    simulator = Simulator()
    network = Network(simulator, seed=1, mean_latency=0.5, floor=0.1)
    sites = []
    for index in range(site_count):
        site = Site(index, site_count)
        site.single({"op": "create", "name": f"A{index}", "adt": "Account"})
        sites.append(site)
    metrics = Metrics()
    client = Client(
        0,
        simulator,
        sites,
        lambda _index, _rng: list(script),
        ClientParams(op_time=0, commit_time=0, max_step_retries=max_step_retries),
        metrics,
        random.Random(0),
        network=network,
    )
    return simulator, network, sites, metrics, client


class TestHappyPath:
    def test_single_site_commit(self):
        script = [(0, "A0", "Credit", (10,))]
        simulator, network, sites, metrics, client = rig(script)
        client.start()
        simulator.run_until(20)
        assert metrics.committed >= 1
        # (the site may have committed one more than the client has heard of
        # when the run is cut off with the reply still in flight)
        assert sites[0].snapshot("A0") // 10 - metrics.committed in (0, 1)

    def test_cross_site_commit_is_atomic(self):
        script = [(0, "A0", "Credit", (5,)), (1, "A1", "Credit", (7,))]
        simulator, network, sites, metrics, client = rig(script)
        client.start()
        simulator.run_until(30)
        assert metrics.committed >= 1
        # Both sites saw the same number of commits from this client.
        assert sites[0].snapshot("A0") // 5 - metrics.committed in (0, 1)
        assert sites[1].snapshot("A1") // 7 - metrics.committed in (0, 1)
        # 2PC traffic: prepare + vote per participant, one decide on the
        # primary, one apply_commit to the other site.
        # (the run is cut off mid-protocol, hence the inequalities).
        sent = network.sent
        assert 2 * sent["decide"] <= sent["vote"] <= sent["prepare"]
        assert sent["prepare"] <= 2 * (sent["decide"] + 1)
        assert sent["apply_commit"] - metrics.committed in (0, 1)
        assert sent["commit"] == 0

    def test_latency_accrues(self):
        script = [(0, "A0", "Credit", (1,))]
        simulator, network, sites, metrics, client = rig(script)
        client.start()
        simulator.run_until(20)
        assert metrics.mean_latency > 0


def park_rival(site):
    """A rival's failed debit (Overdraft) holds a lock that refuses credits."""
    replies = site.call(
        [
            {"op": "begin", "name": "rival"},
            {"op": "invoke", "txn": "rival", "obj": "A0", "operation": "Debit", "args": (1,)},
        ]
    )
    assert replies[-1] == {"ok": "Overdraft"}


class TestRetriesAndAborts:
    def test_lock_conflict_retries_then_aborts(self):
        # A rival transaction parks an Overdraft lock so the client's
        # credit is refused until retries run out.
        script = [(0, "A0", "Credit", (1,))]
        simulator, network, sites, metrics, client = rig(
            script, max_step_retries=2
        )
        park_rival(sites[0])
        client.start()
        simulator.run_until(60)
        assert metrics.conflicts >= 3  # initial + retries per attempt
        assert metrics.aborted >= 1
        assert metrics.committed == 0

    def test_recovers_once_lock_released(self):
        script = [(0, "A0", "Credit", (1,))]
        simulator, network, sites, metrics, client = rig(script)
        park_rival(sites[0])
        simulator.schedule(
            5.0, lambda: sites[0].single({"op": "abort", "txn": "rival"})
        )
        client.start()
        simulator.run_until(60)
        assert metrics.committed >= 1

    def test_crash_tombstone_aborts_transaction(self):
        script = [(0, "A0", "Credit", (1,)), (0, "A0", "Credit", (1,))]
        simulator, network, sites, metrics, client = rig(script)
        # Crash the site shortly after the first operation lands.
        simulator.schedule(2.0, lambda: sites[0].crash())
        client.start()
        simulator.run_until(80)
        # The first incarnation died (UNKNOWN_TXN at its next step or at
        # commit), later incarnations committed.
        assert metrics.aborted >= 1
        assert metrics.committed >= 1
