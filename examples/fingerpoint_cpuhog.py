"""The paper's headline demo: fingerpoint a CPU hog in a Hadoop cluster.

Reproduces one evaluation run end to end (paper section 4):

1. train the black-box model offline on a fault-free GridMix run;
2. spin up a 10-slave simulated Hadoop cluster running GridMix;
3. inject the CPUHog fault (an external task eating ~70% CPU) on one
   slave, five minutes in;
4. monitor every slave online with the full ASDF deployment (sadc ->
   knn -> analysis_bb and hadoop_log -> analysis_wb, combined);
5. print the alarms and score them against the ground truth.

Run:  python examples/fingerpoint_cpuhog.py        (~30 s)

With ``--trace out.json`` the run is self-instrumented: it writes a
Chrome trace (load ``out.json`` in chrome://tracing or Perfetto), dumps
the core's Prometheus metrics (per-instance run-latency histograms)
next to it, and prints the observatory's alarm records explaining every
verdict.
"""

import argparse
import os

from repro.experiments import ScenarioConfig, run_scenario, shared_model
from repro.obsv import Observatory
from repro.telemetry import Telemetry


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="enable telemetry and write a Chrome trace-event file",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="where to write the Prometheus metrics dump "
             "(default: <trace>.metrics.prom)",
    )
    parser.add_argument(
        "--audit", metavar="FILE", default=None,
        help="where to write the alarm records as JSONL "
             "(default: <trace>.audit.jsonl)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    observatory = (
        Observatory(Telemetry())
        if (args.trace or args.metrics or args.audit) else None
    )
    config = ScenarioConfig(
        num_slaves=10,
        duration_s=900.0,
        seed=7,
        fault_name="CPUHog",
        inject_time=300.0,
    )

    print("training black-box model on fault-free data...")
    model = shared_model(config, training_duration_s=300.0)

    print(
        f"running {config.duration_s:.0f}s of GridMix on "
        f"{config.num_slaves} slaves; CPUHog on the middle slave at "
        f"t={config.inject_time:.0f}s...\n"
    )
    result = run_scenario(config, model=model, observatory=observatory)

    print(f"ground truth: {result.truth.faulty_node} from t={result.truth.inject_time:.0f}s")
    print(f"jobs completed during the run: {result.jobs_completed}\n")

    for alarm in result.alarms_all:
        print("  " + alarm.describe())

    print()
    print(f"black-box  balanced accuracy: {result.counts_bb.balanced_accuracy:.0%}"
          f"  latency: {result.latency_bb}")
    print(f"white-box  balanced accuracy: {result.counts_wb.balanced_accuracy:.0%}"
          f"  latency: {result.latency_wb}")
    print(f"combined   balanced accuracy: {result.counts_all.balanced_accuracy:.0%}"
          f"  latency: {result.latency_all}")

    culprits = {alarm.node for alarm in result.alarms_all}
    assert result.truth.faulty_node in culprits, "culprit not fingerpointed!"
    print("\nASDF fingerpointed the correct culprit node.")

    if observatory is not None:
        telemetry = observatory.telemetry
        stem = args.trace or args.metrics or args.audit
        if args.trace:
            telemetry.tracer.write_chrome_trace(args.trace)
            print(f"\nwrote {len(telemetry.tracer.events)} trace events "
                  f"to {args.trace} (load in chrome://tracing)")
        metrics_path = args.metrics or f"{stem}.metrics.prom"
        os.makedirs(os.path.dirname(metrics_path) or ".", exist_ok=True)
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(telemetry.metrics.render_prometheus())
        print(f"wrote Prometheus metrics to {metrics_path}")
        audit_path = args.audit or f"{stem}.audit.jsonl"
        count = observatory.write_alarms_jsonl(audit_path)
        print(f"wrote {count} alarm records to {audit_path}")
        print("\nwhy each verdict fired:")
        print(observatory.summary_text(limit=15))


if __name__ == "__main__":
    main()
