"""Parallel scrutiny engine: equivalence with the sequential path.

The guarantee the engine makes is bitwise identity: distributing the
per-benchmark jobs over worker processes must not change a single mask
element, uncritical count or region, for any registered benchmark and any
worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ScrutinyResult
from repro.experiments.parallel import (ParallelRunner, ScrutinyJob,
                                        default_workers, run_job)
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry

ALL_BENCHMARKS = registry.available_benchmarks()


def assert_results_identical(a: ScrutinyResult, b: ScrutinyResult) -> None:
    assert a.benchmark == b.benchmark
    assert a.problem_class == b.problem_class
    assert a.step == b.step
    assert a.method == b.method
    assert list(a.variables) == list(b.variables)
    for name, crit in a.variables.items():
        other = b.variables[name]
        assert np.array_equal(crit.mask, other.mask), \
            f"{a.benchmark}({name}): masks differ"
        assert crit.uncritical_rate == other.uncritical_rate
        assert crit.regions() == other.regions()
    assert a.n_uncritical == b.n_uncritical


class TestJob:
    def test_benchmark_name_normalised(self):
        assert ScrutinyJob("bt").benchmark == "BT"

    def test_jobs_deduplicate_as_keys(self):
        assert ScrutinyJob("BT", "T") == ScrutinyJob("bt", "T")
        assert len({ScrutinyJob("BT", "T"), ScrutinyJob("bt", "T")}) == 1

    def test_run_job_matches_direct_scrutinize(self, bt_t_result):
        result = run_job(ScrutinyJob("BT", "T"))
        assert_results_identical(result, bt_t_result)


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_benchmarks_identical(self, workers):
        jobs = [ScrutinyJob(name, "T") for name in ALL_BENCHMARKS]
        sequential = [run_job(job) for job in jobs]
        engine = ParallelRunner(workers=workers)
        parallel = engine.run(jobs)
        assert len(parallel) == len(jobs)
        for seq, par in zip(sequential, parallel):
            assert_results_identical(seq, par)

    def test_class_s_identical_with_two_workers(self, runner_s):
        """Acceptance check: class S, workers=2, every benchmark."""
        parallel = ExperimentRunner(problem_class="S", workers=2)
        results = parallel.results(ALL_BENCHMARKS)
        for name in ALL_BENCHMARKS:
            assert_results_identical(runner_s.result(name), results[name])

    def test_order_is_input_order(self):
        names = ["CG", "EP", "CG", "IS"]
        engine = ParallelRunner(workers=2)
        results = engine.run([ScrutinyJob(n, "T") for n in names])
        assert [r.benchmark for r in results] == names

    def test_duplicate_jobs_share_one_result(self):
        engine = ParallelRunner(workers=1)
        first, second = engine.run([ScrutinyJob("CG", "T")] * 2)
        assert first is second

    def test_multi_probe_identical(self):
        jobs = [ScrutinyJob(name, "T", n_probes=3)
                for name in ("BT", "CG", "FT")]
        sequential = [run_job(job) for job in jobs]
        parallel = ParallelRunner(workers=2).run(jobs)
        for seq, par in zip(sequential, parallel):
            assert_results_identical(seq, par)

    def test_mixed_methods_fan_out_together(self):
        jobs = [ScrutinyJob("CG", "T", method=m)
                for m in ("ad", "activity", "rule")]
        results = ParallelRunner(workers=2).run(jobs)
        assert [r.method for r in results] == ["ad", "activity", "rule"]
        for job, result in zip(jobs, results):
            assert_results_identical(run_job(job), result)


class TestFallbacks:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_bogus_context_falls_back_in_process(self):
        engine = ParallelRunner(workers=2, mp_context="no-such-method")
        results = engine.run([ScrutinyJob("CG", "T"), ScrutinyJob("EP", "T")])
        assert [r.benchmark for r in results] == ["CG", "EP"]

    def test_spawn_context_works(self):
        # spawn is the start method every platform has; jobs must survive it
        engine = ParallelRunner(workers=2, mp_context="spawn")
        results = engine.run([ScrutinyJob("CG", "T"), ScrutinyJob("EP", "T")])
        for result in results:
            assert_results_identical(run_job(ScrutinyJob(result.benchmark,
                                                         "T")), result)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_surfaces(self, workers):
        # a failing job must raise from the pool path too, not be mistaken
        # for a platform limitation and silently retried sequentially
        with pytest.raises(KeyError):
            ParallelRunner(workers=workers).run(
                [ScrutinyJob("CG", "T"), ScrutinyJob("NOPE", "T")])


class TestRunnerFanOut:
    def test_results_batch_uses_engine(self, monkeypatch):
        seen = []
        runner = ExperimentRunner(problem_class="T", workers=2)
        original = runner.engine.run

        def spying(jobs):
            seen.append([job.benchmark for job in jobs])
            return original(jobs)

        monkeypatch.setattr(runner.engine, "run", spying)
        runner.results(["CG", "EP", "IS"])
        assert seen == [["CG", "EP", "IS"]]  # one batch, not three
