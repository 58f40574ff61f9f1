"""Simulated network unit tests."""

import pytest

from repro.sim import Network
from repro.sim import Simulator


class TestNetwork:
    def test_messages_arrive_after_latency(self):
        simulator = Simulator()
        network = Network(simulator, seed=1, mean_latency=2.0, floor=0.5)
        arrived = []
        network.send("ping", lambda: arrived.append(simulator.now))
        simulator.run()
        assert arrived and arrived[0] >= 0.5

    def test_counters_by_label(self):
        simulator = Simulator()
        network = Network(simulator, seed=0)
        network.send("a", lambda: None)
        network.send("a", lambda: None)
        network.send("b", lambda: None)
        assert network.sent["a"] == 2
        assert network.sent["b"] == 1
        assert network.total_messages == 3

    def test_deterministic_latencies(self):
        lat_a = Network(Simulator(), seed=7).latency()
        lat_b = Network(Simulator(), seed=7).latency()
        assert lat_a == lat_b

    def test_messages_can_overtake(self):
        # Two messages sent back to back may arrive out of order — the
        # property commit timestamps exist to survive.
        simulator = Simulator()
        network = Network(simulator, seed=3, mean_latency=5.0, floor=0.0)
        order = []
        for tag in range(12):
            network.send("m", lambda t=tag: order.append(t))
        simulator.run()
        assert order != sorted(order)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Network(Simulator(), mean_latency=0)
        with pytest.raises(ValueError):
            Network(Simulator(), floor=-1)

    def test_same_pair_messages_can_overtake(self):
        # Even messages between one fixed (sender, receiver) pair are only
        # ordered by their random latencies: a later send can arrive
        # first.  The per-label counter still accounts for every one.
        simulator = Simulator()
        network = Network(simulator, seed=11, mean_latency=5.0, floor=0.0)
        arrivals = []
        for tag in range(20):
            network.send("C0->S1", lambda t=tag: arrivals.append(t))
        simulator.run()
        assert sorted(arrivals) == list(range(20))  # reliable: all arrive
        assert arrivals != sorted(arrivals)  # ...but reordered
        assert network.sent["C0->S1"] == 20

    def test_distributed_run_traffic_breakdown(self):
        from repro.sim import BankWorkload, run_experiment

        run = run_experiment(BankWorkload(), duration=100.0, seed=5)
        sent = run.network.sent
        # Every protocol phase shows up in the per-kind breakdown.
        for kind in ("invoke", "invoke-reply", "prepare", "vote", "commit"):
            assert sent[kind] > 0, kind
        # Requests and replies pair off (modulo messages still in flight
        # when the run's duration cut the simulation off).
        assert 0 <= sent["invoke"] - sent["invoke-reply"] <= 1
        assert sent["vote"] <= sent["prepare"]
        assert run.network.total_messages == sum(sent.values())
