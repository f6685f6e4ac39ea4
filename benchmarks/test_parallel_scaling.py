"""Parallel scrutiny engine -- scaling and warm-cache regeneration.

Times the full class-S analysis sweep three ways: sequentially (the old
code path), fanned out over a worker pool, and served from a warm
persistent result store.  The pool run must be bitwise-identical to the
sequential one and, on multi-core machines, faster: the two sweeps run
back to back in each timing round
(:func:`benchmarks.conftest.paired_samples`) and the median per-round
``parallel/sequential`` ratio is judged, so load that outlasts a round
cancels out.  The warm-store run must regenerate Tables I-III without a
single AD sweep.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.experiments import table1, table2, table3
from repro.experiments.parallel import (ParallelRunner, ScrutinyJob,
                                        default_workers, run_job)
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry

try:
    from benchmarks.conftest import paired_samples
except ImportError:  # run as a script from inside benchmarks/
    from conftest import paired_samples

ALL_BENCHMARKS = registry.available_benchmarks()


def _sweep_jobs() -> list[ScrutinyJob]:
    return [ScrutinyJob(name, "S") for name in ALL_BENCHMARKS]


#: back-to-back timing rounds of the sequential and the pool sweep
SCALING_ROUNDS = 5


def measure_scaling(rounds: int = SCALING_ROUNDS) -> dict:
    """Sequential and pool sweeps timed back to back in each round, with
    the results of the last round of each."""
    jobs = _sweep_jobs()
    workers = default_workers()
    engine = ParallelRunner(workers=workers)
    last = {}

    def sequential():
        last["sequential"] = [run_job(job) for job in jobs]

    def parallel():
        last["parallel"] = engine.run(jobs)

    samples = paired_samples([sequential, parallel], rounds)
    return {
        "workers": workers,
        "sequential_s": min(s for s, _ in samples),
        "parallel_s": min(p for _, p in samples),
        "parallel_vs_sequential": statistics.median(p / s
                                                    for s, p in samples),
        **last,
    }


@pytest.mark.paper
def test_parallel_sweep_matches_and_scales(benchmark):
    """Pool sweep == sequential sweep, and faster when cores allow."""
    row = benchmark.pedantic(measure_scaling, iterations=1, rounds=1)

    for seq, par in zip(row["sequential"], row["parallel"]):
        assert seq.benchmark == par.benchmark
        assert seq.to_dict() == par.to_dict()

    ratio = row["parallel_vs_sequential"]
    benchmark.extra_info["workers"] = row["workers"]
    benchmark.extra_info["rounds"] = SCALING_ROUNDS
    benchmark.extra_info["sequential_s"] = round(row["sequential_s"], 3)
    benchmark.extra_info["parallel_s"] = round(row["parallel_s"], 3)
    benchmark.extra_info["parallel_vs_sequential"] = round(ratio, 3)
    if row["workers"] >= 2 and (os.cpu_count() or 1) >= 2:
        # with real cores the embarrassingly parallel sweep must win; the
        # median per-round ratio cancels load that outlasts a round, and
        # the slack covers pool start-up on small problems
        assert ratio < 1.10, row


@pytest.mark.paper
def test_warm_store_regenerates_tables_without_sweeps(benchmark, tmp_path):
    """A warm ResultStore serves Tables I-III with zero AD sweeps."""
    cache_dir = tmp_path / "cache"

    t0 = time.perf_counter()
    cold = ExperimentRunner(problem_class="S", cache_dir=cache_dir)
    cold.prefetch(ALL_BENCHMARKS)
    cold_s = time.perf_counter() - t0

    def regenerate():
        warm = ExperimentRunner(problem_class="S", cache_dir=cache_dir)
        reports = [table1.run(warm), table2.run(warm),
                   table3.run(warm, measure_on_disk=False)]
        return warm, reports

    warm, reports = benchmark.pedantic(regenerate, iterations=1, rounds=3)

    assert all(report.matches_paper for report in reports)
    assert warm.store.misses == 0          # not one sweep re-ran
    assert warm.store.hits >= len(set(
        table2.TABLE2_BENCHMARKS) | set(table3.TABLE3_BENCHMARKS))
    warm_s = benchmark.stats.stats.mean
    benchmark.extra_info["cold_sweep_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_regen_s"] = round(warm_s, 4)
    assert warm_s < cold_s
