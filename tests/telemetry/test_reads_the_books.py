"""Telemetry reads the books the pipeline keeps; the numbers do not move.

PR 22 stopped re-counting writes, runs and RPC bytes on the hot path:
those series are read from ``Output.total_written``, the scheduler's run
probes and the channels' ``ByteCounter`` when somebody scrapes.  The
Prometheus text of a seeded observed run must equal the parent commit's
(``golden/observed10_400s.prom``) except for one thing the change does
on purpose: an output nobody has written to yet is exported, as 0.
"""

import json
import os
import re
import sys
import threading
import urllib.request

import pytest

from repro.experiments import ScenarioConfig, run_scenario
from repro.flightrec import FlightRecorder
from repro.obsv import Observatory, OpsServer, render_top
from repro.telemetry import Telemetry

from .observed_run import observed_run, stable_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "observed10_400s.prom")
SERIES = re.compile(r'^(\w+)(?:\{(.*)\})? (\S+)$')


def parse(text: str) -> dict:
    """``(family, label text)`` -> value for every sample line."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            family, labels, value = SERIES.match(line).groups()
            values[family, labels or ""] = float(value)
    return values


def family_total(values: dict, family: str, **match: str) -> float:
    wanted = [f'{k}="{v}"' for k, v in match.items()]
    return sum(
        value for (name, labels), value in values.items()
        if name == family and all(w in labels for w in wanted)
    )


@pytest.fixture(scope="module")
def observed():
    result, observatory, recorder = observed_run()
    yield result.handles.core, observatory, recorder
    result.handles.core.close()


@pytest.fixture(scope="module")
def golden() -> str:
    with open(GOLDEN, encoding="utf-8") as fh:
        return fh.read()


class TestPrometheusTextEqualsTheParents:
    def test_only_the_unwritten_outputs_are_new(self, observed, golden):
        core, observatory, _ = observed
        text = stable_text(observatory.telemetry.metrics.render_prometheus())
        unwritten = sorted(
            output.full_name
            for ctx in core.dag.contexts.values()
            for output in ctx.outputs.values() if not output.total_written
        )
        assert "analysis_wb.alarms" in unwritten  # CPUHog: black-box only
        expected_new = {
            f'{family}{{output="{name}"}} 0'
            for name in unwritten
            for family in ("fpt_output_writes_total", "fpt_output_queue_depth",
                           "fpt_output_dropped_total",
                           "fpt_output_skipped_total")
        }
        lines = text.splitlines()
        assert set(lines) - set(golden.splitlines()) == expected_new
        # ...and with those taken out it is the parent's text, in order.
        assert [line for line in lines if line not in expected_new] == \
            golden.splitlines()

    def test_every_read_series_equals_its_book(self, observed):
        core, observatory, recorder = observed
        metrics = observatory.telemetry.metrics
        for ctx in core.dag.contexts.values():
            for output in ctx.outputs.values():
                assert metrics.value(
                    "fpt_output_writes_total", {"output": output.full_name}
                ) == output.total_written
        runs = parse(metrics.render_prometheus())
        for instance, count in core.scheduler.runs_by_instance.items():
            assert family_total(
                runs, "fpt_instance_runs_total", instance=instance
            ) == count
        assert metrics.value("fpt_flightrec_records_total") == \
            recorder.stats()["recorded"] == sum(
                ring.total_recorded for ring in recorder.rings.values())


class TestDerivedViewsReadTheSameValues:
    """``summary_text``, ``run_stats``, ``repro top`` and ``/status``
    against the numbers in the parent's text."""

    def test_summary_text(self, observed, golden):
        _, observatory, _ = observed
        values = parse(golden)
        summary = observatory.telemetry.summary_text(top=1000)
        writes = int(family_total(values, "fpt_output_writes_total"))
        wire = int(family_total(values, "asdf_rpc_wire_bytes_total"))
        assert f"output writes: {writes}" in summary
        assert f"rpc wire bytes: {wire}" in summary
        runs = int(family_total(values, "fpt_instance_runs_total"))
        assert f"across {runs} runs of" in summary

    def test_run_stats_top_and_status(self, observed, golden):
        core, observatory, _ = observed
        values = parse(golden)
        stats = observatory.telemetry.run_stats()
        status = observatory.status_obj()["run_stats"]
        top = render_top(observatory, color=False, top_modules=1000)
        assert sorted(stats) == sorted(core.dag.instances)
        for instance, entry in stats.items():
            expected = family_total(
                values, "fpt_instance_runs_total", instance=instance)
            assert entry.runs == status[instance]["runs"] == expected
            assert entry.errors == 0
            assert re.search(
                rf"^  {re.escape(instance)} +runs={int(expected)} ", top,
                re.MULTILINE)


class TestScrapeWhileItRuns:
    def test_hammered_ops_surface_during_a_run(self):
        observatory = Observatory(Telemetry(trace=True))
        recorder = FlightRecorder(max_samples=16)
        metrics = observatory.telemetry.metrics
        errors, done = [], threading.Event()
        scrapes = [[], []]  # one chronological list per hammering thread
        alarm_totals = [[], []]  # /alarms "total" per scrape, likewise

        def fetch(server, path: str) -> bytes:
            with urllib.request.urlopen(server.url + path, timeout=10.0) as r:
                assert r.status == 200
                return r.read()

        def hammer(server, seen: list, totals: list) -> None:
            try:
                while not done.is_set():
                    seen.append(parse(fetch(server, "/metrics").decode()))
                    json.loads(fetch(server, "/status"))
                    json.loads(fetch(server, "/scoreboard"))
                    alarms = json.loads(fetch(server, "/alarms"))
                    assert alarms["returned"] == len(alarms["alarms"])
                    totals.append(alarms["total"])
                    stats = recorder.stats()
                    assert 0 <= stats["buffered_samples"] <= stats["recorded"]
                    assert stats["buffered_bytes"] >= 0
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        with OpsServer(observatory) as server:
            threads = [threading.Thread(target=hammer, args=(server, *pair))
                       for pair in zip(scrapes, alarm_totals)]
            for thread in threads:
                thread.start()
            try:
                result = run_scenario(
                    ScenarioConfig(num_slaves=4, duration_s=60.0, seed=5,
                                   fault_name="CPUHog", inject_time=20.0),
                    keep_handles=True, observatory=observatory,
                    recorder=recorder,
                )
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=60.0)
                sys.setswitchinterval(interval)
        core = result.handles.core
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(len(seen) >= 2 for seen in scrapes)  # interleaved

        # Nothing that counts ran backwards between two scrapes.
        for seen in scrapes:
            for earlier, later in zip(seen, seen[1:]):
                for key, value in earlier.items():
                    if key[0].endswith(("_total", "_count", "_bucket")):
                        assert later[key] >= value, key

        for totals in alarm_totals:
            assert totals == sorted(totals)

        # After the run every series is its book.
        final = parse(metrics.render_prometheus())
        for ctx in core.dag.contexts.values():
            for output in ctx.outputs.values():
                key = ("fpt_output_writes_total",
                       f'output="{output.full_name}"')
                assert final[key] == output.total_written
        for instance, cell in core.scheduler._cells.items():
            assert family_total(
                final, "fpt_instance_runs_total", instance=instance
            ) == cell.runs
        channels = [
            channel
            for group in (result.handles.sadc_channels,
                          result.handles.hl_tt_channels,
                          result.handles.hl_dn_channels)
            for channel in group.values()
        ]
        for channel in channels:
            assert family_total(
                final, "asdf_rpc_wire_bytes_total", service=channel.service
            ) == channel.counter.tx_wire + channel.counter.rx_wire
            assert family_total(
                final, "asdf_rpc_messages_total", service=channel.service
            ) == channel.counter.messages_sent
        assert final["fpt_flightrec_records_total", ""] == recorder._recorded
        assert final["fpt_flightrec_evictions_total", ""] == \
            recorder._evictions > 0
        core.close()
