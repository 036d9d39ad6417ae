"""Production-mode integration: wall-clock time and real TCP daemons.

The paper's deployment runs the fpt-core on a dedicated control node
polling real RPC daemons over the network while the monitored system
advances in wall-clock time.  These tests exercise exactly that stack:
:class:`RpcServer` instances serve sadc/hadoop_log daemons over real
sockets, the collection modules talk to them through
:class:`RpcClient`, and the scheduler runs against :class:`WallClock`.
Intervals are scaled down (tens of milliseconds) so the tests finish in
about a second.
"""

import threading
import time

import pytest

from repro.core import FptCore, WallClock
from repro.hadoop import ClusterConfig, HadoopCluster, JobSpec, MB
from repro.modules import SADC_CHANNEL_SERVICE, standard_registry
from repro.rpc import RpcClient, RpcServer
from repro.rpc.daemons import HadoopLogDaemon, SadcDaemon


@pytest.fixture
def live_cluster():
    """A cluster stepped in near-real time by a background thread."""
    cluster = HadoopCluster(ClusterConfig(num_slaves=3, seed=3))
    cluster.submit_job(
        JobSpec(
            job_id="200807070001_0001",
            name="job",
            input_bytes=256.0 * MB,
            num_reduces=2,
        )
    )
    stop = threading.Event()

    def pump():
        # 1 simulated second every 20 ms of wall time.
        while not stop.is_set():
            cluster.step(1.0)
            time.sleep(0.02)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    yield cluster
    stop.set()
    thread.join(timeout=2.0)


class TestWallClockOverTcp:
    def test_sadc_collection_over_real_sockets(self, live_cluster):
        node = "slave01"
        server = RpcServer(
            SadcDaemon(node, live_cluster.procfs(node)), f"sadc_rpcd@{node}"
        )
        with server:
            host, port = server.address
            client = RpcClient(host, port)
            core = FptCore.from_config(
                f"[sadc]\nid = s\nnodes = {node}\ninterval = 0.05\n\n"
                f"[print]\nid = sink\ninput[a] = s.{node}\n",
                standard_registry(),
                WallClock(),
                services={SADC_CHANNEL_SERVICE: {node: client}},
            )
            core.run_for(0.8)
            sink = core.instance("sink")
            assert len(sink.received) >= 5
            # Samples carry the full 64-metric vector over the wire.
            assert sink.received[0].value.shape == (64,)
            core.close()

    def test_hadoop_log_collection_over_real_sockets(self, live_cluster):
        node = "slave01"
        # The daemon's stability lag is 2 *simulated* seconds; the pump
        # advances ~50 simulated seconds per wall second, so a fraction
        # of wall time exposes plenty of stable seconds.
        server = RpcServer(
            HadoopLogDaemon(node, live_cluster.tt_logs[node], live_cluster.dn_logs[node]),
            f"hl_rpcd@{node}",
        )
        with server:
            host, port = server.address
            client = RpcClient(host, port)
            collected = []
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and len(collected) < 30:
                result = client.call("collect", now=live_cluster.time)
                collected.extend(result["seconds"])
                time.sleep(0.05)
            client.close()
        assert len(collected) >= 30
        assert collected == sorted(collected)

    def test_wall_clock_scheduling_period_is_respected(self):
        registry = standard_registry()
        from repro.core import Module

        class Ticker(Module):
            type_name = "wallclock_ticker"

            def init(self):
                self.times = []
                self.ctx.create_output("t")
                self.ctx.schedule_every(0.05)

            def run(self, reason):
                self.times.append(time.monotonic())

        registry.register(Ticker)
        core = FptCore.from_config(
            "[wallclock_ticker]\nid = t\n", registry, WallClock()
        )
        core.run_for(0.5)
        ticker = core.instance("t")
        assert 8 <= len(ticker.times) <= 13
        gaps = [b - a for a, b in zip(ticker.times, ticker.times[1:])]
        assert max(gaps) < 0.2  # no pathological stalls
