"""Probe plumbing: jobs, store keys, runner and CLI.

``probe_scale`` is a genuine analysis parameter and every layer between the
analyzer and the user carries it: the picklable job description, the
persistent store key (different perturbation magnitudes never alias), the
experiment runner and ``--probe-scale``.  How the probes execute is not:
since repro 1.9.0 the analyzer always stacks them into one batched sweep
and falls back to one sweep per probe on its own (identical masks), so
``probe_batching`` is gone from every layer; the per-probe loop stays as
the oracle the tests below route to.
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


def _assert_same_masks(expected, got):
    for name, crit in expected.variables.items():
        np.testing.assert_array_equal(crit.mask, got.variables[name].mask)


class TestScrutinyJobProbes:
    def test_defaults(self):
        job = ScrutinyJob("CG", "T")
        assert job.probe_scale == pytest.approx(1.0e-3)
        params = job.key_params()
        assert "probe_batching" not in params
        assert params["probe_scale"] == pytest.approx(1.0e-3)

    def test_jobs_differing_only_in_probe_knobs_are_distinct(self):
        base = ScrutinyJob("CG", "T", n_probes=3)
        wider = ScrutinyJob("CG", "T", n_probes=3, probe_scale=1.0e-2)
        assert len({base, wider}) == 2
        with pytest.raises(TypeError, match="probe_batching"):
            ScrutinyJob("CG", "T", n_probes=3, probe_batching="per-probe")

    def test_run_job_batched_matches_per_probe(self, force_per_probe):
        batched = run_job(ScrutinyJob("CG", "T", n_probes=3))
        force_per_probe()
        looped = run_job(ScrutinyJob("CG", "T", n_probes=3))
        _assert_same_masks(batched, looped)

    def test_run_job_batched_matches_per_probe_segmented(self,
                                                         force_per_probe):
        batched = run_job(ScrutinyJob("FT", "T", n_probes=2,
                                      sweep="segmented"))
        force_per_probe()
        looped = run_job(ScrutinyJob("FT", "T", n_probes=2,
                                     sweep="segmented"))
        _assert_same_masks(batched, looped)


class TestStoreProbeKeys:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=2)

    def test_probe_knobs_are_part_of_the_key(self):
        base = cache_key(**self.PARAMS, version="1")
        assert base != cache_key(**self.PARAMS, probe_scale=5.0e-3,
                                 version="1")
        with pytest.raises(TypeError, match="probe_batching"):
            cache_key(**self.PARAMS, probe_batching="per-probe",
                      version="1")

    def test_put_fetch_roundtrip_under_probe_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", n_probes=2,
                                     probe_scale=5.0e-3))
        store.put(result, n_probes=2, probe_scale=5.0e-3)
        assert store.fetch(**self.PARAMS, probe_scale=5.0e-3) is not None
        assert store.fetch(**self.PARAMS) is None          # default scale

    def test_parallel_runner_persists_under_job_probe_knobs(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", n_probes=2, probe_scale=2.0e-3)
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        before = store.hits
        engine.run([job])
        assert store.hits == before + 1


class TestRunnerProbes:
    def test_runner_forwards_probe_knobs_to_jobs(self, force_per_probe):
        a = ExperimentRunner(problem_class="T", n_probes=3,
                             probe_scale=2.0e-3).result("CG")
        b = scrutinize(registry.create("CG", "T"), n_probes=3,
                       probe_scale=2.0e-3)
        _assert_same_masks(b, a)
        force_per_probe()
        looped = ExperimentRunner(problem_class="T", n_probes=3,
                                  probe_scale=2.0e-3).result("CG")
        _assert_same_masks(a, looped)

    def test_scrutinize_accepts_probe_knobs(self):
        result = scrutinize(registry.create("CG", "T"), n_probes=2,
                            probe_scale=2.0e-3)
        assert result.benchmark == "CG"


class TestCliProbes:
    def test_parser_accepts_probe_flags(self):
        args = build_parser().parse_args(
            ["--probes", "4", "--probe-scale", "0.01", "analyze", "CG"])
        assert args.probes == 4
        assert args.probe_scale == pytest.approx(0.01)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert args.probes == 1
        assert args.probe_scale == pytest.approx(1.0e-3)
        assert not hasattr(args, "probe_batching")

    def test_parser_rejects_unknown_probe_batching(self):
        # the flag itself is gone, for every value
        for value in ("vector", "batched", "per-probe"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["--probe-batching", value, "analyze", "CG"])

    def test_analyze_runs_with_batched_probes(self, capsys):
        code = main(["--class", "T", "--probes", "3", "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out
