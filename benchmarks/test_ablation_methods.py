"""Ablation -- AD criticality vs. the cheaper alternatives.

Compares the AD analysis against the first-touch read-set (activity)
analysis and against multi-probe AD, and measures their relative cost.
These ablations back the design choices of
:mod:`repro.experiments.ablation`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import scrutinize
from repro.experiments import ablation
from repro.npb import registry


@pytest.mark.paper
def test_ablation_ad_vs_read_set(benchmark):
    report = benchmark.pedantic(
        lambda: ablation.run_methods(benchmarks=("BT", "MG", "CG"),
                                     problem_class="S"),
        iterations=1, rounds=1)
    print("\n" + report.text)
    assert report.matches_paper
    agreement = report.data["agreement"]
    # BT and CG coincide exactly; MG's residual shows the read-set
    # over-approximation the paper's AD approach avoids
    assert agreement[("BT", "u")]["only_a"] == 0
    assert agreement[("BT", "u")]["only_b"] == 0
    assert agreement[("MG", "r")]["only_b"] > 0


@pytest.mark.paper
def test_ablation_single_vs_multi_probe(benchmark):
    report = benchmark.pedantic(
        lambda: ablation.run_probes(benchmarks=("BT", "CG"), n_probes=3,
                                    problem_class="S"),
        iterations=1, rounds=1)
    print("\n" + report.text)
    assert report.matches_paper


def test_activity_analysis_is_cheaper_than_ad(benchmark):
    """The read-set pass skips the reverse sweep, so it should not be more
    expensive than the AD analysis it approximates."""
    bench = registry.create("BT", "S")
    state = bench.checkpoint_state(bench.total_steps // 2)

    import time

    start = time.perf_counter()
    scrutinize(bench, state=state, method="ad")
    ad_seconds = time.perf_counter() - start

    result = benchmark(lambda: scrutinize(bench, state=state,
                                          method="activity"))
    assert result.method == "activity"
    benchmark.extra_info["ad_seconds"] = round(ad_seconds, 4)


def test_multi_probe_cost_scales_linearly(benchmark):
    """Three probes cost roughly three reverse sweeps; record the ratio."""
    bench = registry.create("CG", "S")
    state = bench.checkpoint_state(bench.total_steps // 2)

    import time

    start = time.perf_counter()
    single = scrutinize(bench, state=state, n_probes=1)
    single_seconds = time.perf_counter() - start

    multi = benchmark.pedantic(
        lambda: scrutinize(bench, state=state, n_probes=3),
        iterations=1, rounds=2)
    np.testing.assert_array_equal(single.variables["x"].mask,
                                  multi.variables["x"].mask)
    benchmark.extra_info["single_probe_seconds"] = round(single_seconds, 4)
