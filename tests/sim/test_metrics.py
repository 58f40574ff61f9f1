"""Metrics: derived rates."""

from repro.sim.metrics import Metrics


class TestDerivedRates:
    def test_rates_guard_division_by_zero(self):
        empty = Metrics()
        assert empty.throughput == 0.0
        assert empty.mean_latency == 0.0
        assert empty.conflict_rate == 0.0
        assert empty.abort_rate == 0.0

    def test_as_row_includes_crash_columns_only_when_present(self):
        assert "crashes" not in Metrics(committed=1).as_row()
        assert "crashes" in Metrics(committed=1, crashes=2).as_row()
