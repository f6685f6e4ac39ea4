"""Sweep-strategy plumbing: jobs, store keys, runner and CLI.

The segmented reverse sweep is an execution strategy, not a different
analysis -- its masks and gradients are bitwise-identical to the monolithic
ones -- so since repro 1.9.0 it is carried by every layer (job, runner,
``--sweep``) but is *not* part of the result's identity: jobs differing
only in ``sweep`` deduplicate and share one result-store entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.analysis import scrutinize
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ParallelRunner, ScrutinyJob, run_job
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry


def _assert_same_analysis(expected, got):
    for name, crit in expected.variables.items():
        np.testing.assert_array_equal(crit.mask, got.variables[name].mask)
        for key, grad in crit.gradients.items():
            np.testing.assert_array_equal(grad,
                                          got.variables[name].gradients[key])


class TestScrutinyJobSweep:
    def test_sweep_defaults_to_monolithic(self):
        job = ScrutinyJob("CG", "T")
        assert job.sweep == "monolithic"
        assert "sweep" not in job.key_params()

    def test_jobs_differing_only_in_sweep_are_distinct(self):
        """Distinct in how they run, one analysis in what they compute."""
        mono = ScrutinyJob("CG", "T")
        seg = ScrutinyJob("CG", "T", sweep="segmented")
        assert (mono.sweep, seg.sweep) == ("monolithic", "segmented")
        assert mono == seg
        assert len({mono, seg}) == 1
        assert mono.key_params() == seg.key_params()

    def test_run_job_segmented_matches_monolithic(self):
        mono = run_job(ScrutinyJob("FT", "T"))
        seg = run_job(ScrutinyJob("FT", "T", sweep="segmented"))
        _assert_same_analysis(mono, seg)


class TestStoreSweepKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=1)

    def test_sweep_is_part_of_the_key(self):
        """Not any more: the store key carries result identity only."""
        with pytest.raises(TypeError, match="sweep"):
            cache_key(**self.PARAMS, sweep="segmented", version="1")
        assert cache_key(**self.PARAMS, version="1") == cache_key(
            **ScrutinyJob("CG", "T", sweep="segmented").key_params(),
            version="1")

    def test_default_sweep_key_is_monolithic(self):
        # one key serves both sweeps, the default included
        assert cache_key(**ScrutinyJob("CG", "T").key_params(),
                         version="1") == \
            cache_key(**ScrutinyJob("CG", "T", sweep="segmented")
                      .key_params(), version="1")

    def test_put_fetch_roundtrip_under_segmented_key(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", sweep="segmented"))
        store.put(result, n_probes=1)
        cached = store.fetch(**self.PARAMS)
        assert cached is not None
        _assert_same_analysis(result, cached)

    def test_parallel_runner_persists_under_job_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", sweep="segmented")
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        # a second run -- under either sweep -- is served from the store
        before = store.hits
        engine.run([job])
        engine.run([ScrutinyJob("CG", "T")])
        assert store.hits == before + 2


class TestRunnerSweep:
    def test_runner_forwards_sweep_to_jobs(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        seen = []
        real = parallel_mod.run_job
        monkeypatch.setattr(parallel_mod, "run_job",
                            lambda job: (seen.append(job.sweep),
                                         real(job))[1])
        result = ExperimentRunner(problem_class="T",
                                  sweep="segmented").result("CG")
        assert seen == ["segmented"]
        mono = ExperimentRunner(problem_class="T").result("CG")
        _assert_same_analysis(mono, result)


class TestCliSweep:
    def test_parser_accepts_sweep_flag(self):
        args = build_parser().parse_args(
            ["--sweep", "segmented", "analyze", "CG"])
        assert args.sweep == "segmented"

    def test_parser_default_is_monolithic(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert args.sweep == "monolithic"

    def test_parser_rejects_unknown_sweep(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sweep", "diagonal", "analyze", "CG"])

    def test_analyze_runs_under_segmented_sweep(self, capsys):
        code = main(["--class", "T", "--sweep", "segmented", "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out

    def test_sweeps_share_one_cache_entry(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["--class", "T", "--cache-dir", cache,
                     "--sweep", "monolithic", "analyze", "CG"]) == 0
        cold = capsys.readouterr().out
        assert main(["--class", "T", "--cache-dir", cache,
                     "--sweep", "segmented", "analyze", "CG"]) == 0
        warm = capsys.readouterr().out
        report, _, telemetry = warm.partition("\nfault-tolerance:")
        assert report == cold
        assert "1 cache hit(s)" in telemetry and "0 computed" in telemetry
        assert len(list((tmp_path / "cache" / "CG").glob("*.json"))) == 1
