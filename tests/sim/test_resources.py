"""Tests for resource specs and proportional-share arbitration."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import NodeSpec, tcp_goodput_factor

from .reference import share_proportionally


class TestNodeSpec:
    def test_defaults_match_ec2_large(self):
        spec = NodeSpec()
        assert spec.cpu_cores == 4.0
        assert spec.memory_mb == pytest.approx(7680.0)

    def test_unit_conversions(self):
        spec = NodeSpec(nic_mbit_s=800.0, disk_read_mb_s=100.0, disk_write_mb_s=50.0)
        assert spec.nic_bytes_s == pytest.approx(1e8)
        assert spec.disk_read_bytes_s == pytest.approx(100 * 1024 * 1024)
        assert spec.disk_write_bytes_s == pytest.approx(50 * 1024 * 1024)


class TestShareProportionally:
    """The reference simulator's CPU share rule (the fleet's oracle)."""

    def test_under_capacity_grants_everything(self):
        assert share_proportionally([1.0, 2.0], capacity=10.0) == [1.0, 2.0]

    def test_over_capacity_scales_equally(self):
        grants = share_proportionally([3.0, 1.0], capacity=2.0)
        assert grants == pytest.approx([1.5, 0.5])

    def test_zero_demand_gets_zero(self):
        assert share_proportionally([0.0, 4.0], capacity=2.0) == [0.0, 2.0]

    def test_negative_demand_treated_as_zero(self):
        assert share_proportionally([-5.0, 4.0], capacity=2.0) == [0.0, 2.0]

    def test_empty_demands(self):
        assert share_proportionally([], capacity=10.0) == []

    @given(
        wanted=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=10),
        capacity=st.floats(0.1, 1e6),
    )
    def test_property_grants_never_exceed_capacity_or_demand(self, wanted, capacity):
        grants = share_proportionally(wanted, capacity)
        assert sum(grants) <= max(capacity, 0.0) + 1e-6 or sum(grants) <= sum(wanted) + 1e-6
        for grant, want in zip(grants, wanted):
            assert grant <= want + 1e-9
            assert grant >= 0.0

    @given(
        wanted=st.lists(st.floats(0.01, 1e4), min_size=2, max_size=6),
        capacity=st.floats(0.01, 1e3),
    )
    def test_property_scaling_preserves_ratios(self, wanted, capacity):
        grants = share_proportionally(wanted, capacity)
        if sum(wanted) > capacity:
            ratios = [g / w for g, w in zip(grants, wanted)]
            assert max(ratios) - min(ratios) < 1e-9


class TestTcpGoodput:
    def test_no_loss_is_full_speed(self):
        assert tcp_goodput_factor(0.0) == 1.0

    def test_total_loss_is_zero(self):
        assert tcp_goodput_factor(1.0) == 0.0

    def test_paper_loss_rate_collapses_throughput(self):
        factor = tcp_goodput_factor(0.5)
        assert factor < 0.1  # roughly a 20x slowdown at 50% loss

    def test_out_of_range_inputs_are_clamped(self):
        assert tcp_goodput_factor(-0.5) == 1.0
        assert tcp_goodput_factor(2.0) == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_property_monotonically_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert tcp_goodput_factor(lo) >= tcp_goodput_factor(hi)
