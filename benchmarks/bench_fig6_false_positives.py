"""Figure 6: false-positive rates on problem-free runs.

(a) black-box FP rate vs the L1 threshold (paper: drops rapidly from
    ~100% at threshold 0 and flattens around threshold 60);
(b) white-box FP rate vs k (paper: under 0.2% with little improvement
    past k = 3).

The shapes to reproduce: both curves are monotonically non-increasing,
fall steeply from their maximum at parameter 0, and flatten -- the knee
is where the paper (and this reproduction) fixes the operating point.
"""

from conftest import BENCH_JOBS, EVAL_CONFIG

from repro.experiments import figure6, pick_knee

THRESHOLDS = list(range(0, 125, 5))
KS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]


def test_figure6_false_positive_sweeps(benchmark, eval_model):
    result = benchmark.pedantic(
        lambda: figure6(
            EVAL_CONFIG,
            thresholds=THRESHOLDS,
            ks=KS,
            model=eval_model,
            jobs=BENCH_JOBS,
        ),
        rounds=1,
        iterations=1,
    )

    print("\n" + result.render())
    bb_knee = pick_knee(result.blackbox)
    wb_knee = pick_knee(result.whitebox)
    print(f"chosen operating points: bb threshold ~{bb_knee:.0f}, wb k ~{wb_knee:.1f}")
    print("(paper operating points on its traces: bb threshold 60, wb k 3)")

    bb_rates = [rate for _, rate in result.blackbox]
    wb_rates = [rate for _, rate in result.whitebox]

    # Monotone non-increasing curves.
    assert all(a >= b - 1e-9 for a, b in zip(bb_rates, bb_rates[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(wb_rates, wb_rates[1:]))
    # Black-box FP is high at threshold 0 and ~0 at the knee.
    assert bb_rates[0] > 50.0
    assert min(bb_rates) < 2.0
    # White-box FP ends below the paper's 0.2% by k = 5.
    assert wb_rates[-1] < 0.2
