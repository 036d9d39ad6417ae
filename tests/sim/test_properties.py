"""Property-based invariants of the arbitration engine."""

import pytest
from hypothesis import given, settings, strategies as st

from .fleet import OneFleet

NODES = ("a", "b", "c", "d")


def arbitrate_transfers(raw_transfers, loss_on_a: float = 0.0):
    """Declare ``(src, dst, bytes)`` transfers on a fresh fleet, arbitrate."""
    fleet = OneFleet(NODES)
    fleet.network.set_loss_rate("a", loss_on_a)
    ctx = fleet.context()
    transfers = [ctx.demand_transfer(s, d, w) for s, d, w in raw_transfers]
    ctx.arbitrate()
    return transfers


transfer_strategy = st.tuples(
    st.sampled_from(NODES),
    st.sampled_from(NODES),
    st.floats(0.0, 5e8),
)


class TestNetworkConservation:
    @given(st.lists(transfer_strategy, min_size=1, max_size=12))
    @settings(max_examples=30)
    def test_per_node_tx_and_rx_within_capacity(self, raw_transfers):
        transfers = arbitrate_transfers(raw_transfers)
        for node in NODES:
            tx = sum(
                t.granted_bytes + t.dropped_bytes
                for t in transfers
                if t.src == node and t.src != t.dst
            )
            rx = sum(
                t.granted_bytes + t.dropped_bytes
                for t in transfers
                if t.dst == node and t.src != t.dst
            )
            assert tx <= 125e6 * 1.001
            assert rx <= 125e6 * 1.001

    @given(st.lists(transfer_strategy, min_size=1, max_size=12))
    @settings(max_examples=30)
    def test_grants_never_exceed_demand(self, raw_transfers):
        for transfer in arbitrate_transfers(raw_transfers):
            assert transfer.granted_bytes <= transfer.wanted_bytes + 1e-6
            assert transfer.granted_bytes >= 0.0

    @given(
        st.lists(transfer_strategy, min_size=1, max_size=8),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=30)
    def test_loss_only_reduces_goodput(self, raw_transfers, loss):
        clean = arbitrate_transfers(raw_transfers)
        lossy = arbitrate_transfers(raw_transfers, loss_on_a=loss)
        for before, after in zip(clean, lossy):
            assert after.granted_bytes <= before.granted_bytes + 1e-6


class TestCpuDiskConservation:
    @given(st.lists(st.floats(0.0, 32.0), min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_cpu_grants_bounded_by_capacity(self, demands):
        fleet = OneFleet(NODES)
        ctx = fleet.context()
        handles = [ctx.demand_cpu("a", pid=i, cores=d) for i, d in enumerate(demands)]
        ctx.arbitrate()
        total = sum(h.granted for h in handles)
        assert total <= fleet.nodes["a"].spec.cpu_cores * 1.001
        for handle, demand in zip(handles, demands):
            assert handle.granted <= demand + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1e9), st.floats(0.0, 1e9)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30)
    def test_disk_busy_fraction_bounded(self, demands):
        fleet = OneFleet(NODES)
        ctx = fleet.context()
        handles = [
            ctx.demand_disk("a", pid=i, read_bytes=r, write_bytes=w)
            for i, (r, w) in enumerate(demands)
        ]
        ctx.arbitrate()
        spec = fleet.nodes["a"].spec
        busy = sum(
            h.read_granted / spec.disk_read_bytes_s
            + h.write_granted / spec.disk_write_bytes_s
            for h in handles
        )
        assert busy <= 1.001


class TestNodeCounterInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 6.0),   # cpu demand
                st.floats(0.0, 2e8),   # disk read
                st.floats(0.0, 2e8),   # disk write
                st.floats(0.0, 1e8),   # net tx
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=20)
    def test_counters_are_monotonic_and_cpu_conserves(self, ticks):
        fleet = OneFleet(("n",), seed=1)
        node = fleet.nodes["n"]
        previous_total = 0.0
        previous_ctxt = 0.0
        for cpu, read, write, tx in ticks:
            node.account_cpu(1, user_s=cpu)
            node.account_disk(1, read_bytes=read, write_bytes=write)
            node.account_net(tx_bytes=tx)
            fleet.end_tick()
            total = node.procfs.cpu.total()
            # Each tick adds exactly the node's core-seconds of CPU time.
            assert total == pytest.approx(previous_total + node.spec.cpu_cores, rel=1e-6)
            assert node.procfs.stat.ctxt >= previous_ctxt
            previous_total = total
            previous_ctxt = node.procfs.stat.ctxt
            assert node.procfs.mem.free_kb >= 0.0
            assert 0.0 <= node.procfs.loadavg.one < 1000.0
