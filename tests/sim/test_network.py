"""Tests for NIC arbitration and injected packet loss."""

import pytest

from repro.sim import NetworkModel, NodeSpec

from .fleet import OneFleet
from .reference import ReferenceNetwork


def make_fleet(**nic_bytes_s) -> OneFleet:
    """Nodes a, b and c with 1 MB/s NICs unless ``nic_bytes_s`` says otherwise."""
    caps = {"a": 1e6, "b": 1e6, "c": 1e6, **nic_bytes_s}
    return OneFleet(
        tuple(caps),
        specs={name: NodeSpec(nic_mbit_s=cap * 8.0 / 1e6) for name, cap in caps.items()},
    )


def granted(fleet: OneFleet, src: str, dst: str, wanted: float, dt: float = 1.0):
    """One transfer arbitrated alone on ``fleet``."""
    ctx = fleet.context(dt)
    transfer = ctx.demand_transfer(src, dst, wanted)
    ctx.arbitrate()
    return transfer


class TestArbitration:
    def test_single_transfer_within_capacity(self):
        transfer = granted(make_fleet(), "a", "b", 1000.0)
        assert transfer.granted_bytes == pytest.approx(1000.0)
        assert transfer.dropped_bytes == 0.0

    def test_transfer_capped_by_sender_capacity(self):
        transfer = granted(make_fleet(a=1000.0), "a", "b", 5000.0)
        assert transfer.granted_bytes == pytest.approx(1000.0)

    def test_transfer_capped_by_receiver_capacity(self):
        transfer = granted(make_fleet(b=800.0), "a", "b", 5000.0)
        assert transfer.granted_bytes == pytest.approx(800.0)

    def test_competing_senders_share_receiver(self):
        ctx = make_fleet(c=1000.0).context()
        t1 = ctx.demand_transfer("a", "c", 3000.0)
        t2 = ctx.demand_transfer("b", "c", 1000.0)
        ctx.arbitrate()
        assert t1.granted_bytes == pytest.approx(750.0)
        assert t2.granted_bytes == pytest.approx(250.0)

    def test_local_transfer_bypasses_network(self):
        transfer = granted(make_fleet(a=10.0), "a", "a", 1e9)
        assert transfer.granted_bytes == pytest.approx(1e9)
        assert transfer.dropped_bytes == 0.0

    def test_dt_scales_capacity(self):
        transfer = granted(make_fleet(a=1000.0), "a", "b", 5000.0, dt=2.0)
        assert transfer.granted_bytes == pytest.approx(2000.0)

    def test_grant_never_exceeds_demand(self):
        transfer = granted(make_fleet(), "a", "b", 10.0, dt=100.0)
        assert transfer.granted_bytes <= 10.0


class TestPacketLoss:
    def test_loss_reduces_goodput(self):
        fleet = make_fleet()
        fleet.network.set_loss_rate("a", 0.5)
        lossy = granted(fleet, "a", "b", 1000.0)
        assert lossy.granted_bytes < 100.0  # TCP collapse at 50% loss
        assert lossy.dropped_bytes > 0.0

    def test_loss_applies_at_either_endpoint(self):
        fleet = make_fleet()
        fleet.network.set_loss_rate("b", 0.5)
        assert granted(fleet, "a", "b", 1000.0).granted_bytes < 100.0

    def test_unaffected_paths_stay_fast(self):
        fleet = make_fleet()
        fleet.network.set_loss_rate("a", 0.5)
        clean = granted(fleet, "b", "c", 1000.0)
        assert clean.granted_bytes == pytest.approx(1000.0)

    def test_clear_loss_restores_goodput(self):
        fleet = make_fleet()
        fleet.network.set_loss_rate("a", 0.5)
        fleet.network.clear_loss_rate("a")
        assert granted(fleet, "a", "b", 1000.0).granted_bytes == pytest.approx(1000.0)

    def test_loss_rate_is_clamped(self):
        network = NetworkModel()
        network.set_loss_rate("a", 7.0)
        assert network.loss_rate("a") == 1.0
        network.set_loss_rate("a", -1.0)
        assert network.loss_rate("a") == 0.0

    def test_path_goodput_combines_endpoints(self):
        fleet = make_fleet()
        fleet.network.set_loss_rate("a", 0.2)
        fleet.network.set_loss_rate("b", 0.2)
        ctx = fleet.context()
        combined = ctx.demand_transfer("a", "b", 1000.0)
        single = ctx.demand_transfer("a", "c", 1000.0)
        ctx.arbitrate()
        assert combined.granted_bytes < single.granted_bytes


def test_packet_count_helper():
    """The reference network's packet arithmetic (oracle-only helper)."""
    assert ReferenceNetwork.packets(1448.0) == pytest.approx(1.0)
    assert ReferenceNetwork.packets(0.0) == 0.0
