"""Where ``trace_cache`` lives: the ``repro.ad`` sweeps, not the layers above.

Plan replay is bitwise-identical to re-tracing, so since repro 1.9.0 the
analyzer always replays (one :class:`~repro.ad.plan.PlanCache` per
analysis) and jobs, store keys, the runner and the CLI carry no trace-cache
choice.  ``trace_cache="off"`` stays on the ``repro.ad`` sweep functions as
the tracer oracle the plan tests compare against.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.core.criticality as criticality_mod
from repro.ad.plan import PlanCache
from repro.ad.segmented import segmented_gradients
from repro.cli import build_parser, main
from repro.core.criticality import CriticalityAnalyzer
from repro.core.store import cache_key
from repro.experiments.parallel import ScrutinyJob
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry


class TestAnalyzerValidation:
    def test_unknown_trace_cache_rejected(self):
        bench = registry.create("CG", "T")
        with pytest.raises(ValueError, match="trace_cache"):
            segmented_gradients(bench, bench.initial_state(),
                                trace_cache="maybe")

    def test_off_requires_segmented(self):
        # the analyzer has no trace-cache knob under either sweep
        for sweep in ("monolithic", "segmented"):
            with pytest.raises(TypeError, match="trace_cache"):
                CriticalityAnalyzer(sweep=sweep, trace_cache="off")

    def test_defaults_construct(self, monkeypatch):
        caches = []
        real = criticality_mod.segmented_gradients

        def spy(*args, **kwargs):
            caches.append(kwargs.get("plan_cache"))
            return real(*args, **kwargs)

        monkeypatch.setattr(criticality_mod, "segmented_gradients", spy)
        CriticalityAnalyzer(sweep="segmented").analyze(
            registry.create("CG", "T"), step=0)
        assert len(caches) == 1 and isinstance(caches[0], PlanCache)
        assert caches[0].hits > 0        # the analysis replayed its plans


class TestStoreKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad",
                  n_probes=1)

    def test_trace_cache_forks_the_key(self):
        """Not any more: replayed and re-traced results are one entry."""
        with pytest.raises(TypeError, match="trace_cache"):
            cache_key(**self.PARAMS, trace_cache="off")

    def test_default_matches_explicit_plan(self):
        assert cache_key(**self.PARAMS) == cache_key(
            **ScrutinyJob("CG", "T", sweep="segmented").key_params())

    def test_version_bumped_to_1_4(self):
        # the key payload changed again in 1.9.0 (execution knobs removed);
        # the bump guarantees no older entry is read back under a new key
        assert tuple(int(p) for p in
                     repro.__version__.split(".")) >= (1, 9, 0)
        assert cache_key(**self.PARAMS) != cache_key(**self.PARAMS,
                                                     version="1.8.0")


class TestJobAndRunner:
    def test_job_key_params_carry_trace_cache(self):
        """Not any more: a job has no trace-cache field."""
        assert "trace_cache" not in ScrutinyJob("cg").key_params()
        with pytest.raises(TypeError, match="trace_cache"):
            ScrutinyJob(benchmark="cg", sweep="segmented", trace_cache="off")

    def test_runner_threads_trace_cache_through(self, sweep_options):
        # the tracer oracle reached through the runner gives the same masks
        planned = ExperimentRunner(problem_class="T",
                                   sweep="segmented").result("EP")
        sweep_options(trace_cache="off")
        traced = ExperimentRunner(problem_class="T",
                                  sweep="segmented").result("EP")
        for name, crit in planned.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          traced.variables[name].mask)
        with pytest.raises(TypeError, match="trace_cache"):
            ExperimentRunner(problem_class="T", trace_cache="off")


class TestCLI:
    def test_flag_accepted_with_segmented(self):
        """The flag is gone; only ``--sweep`` remains."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--sweep", "segmented", "--trace-cache", "off",
                 "analyze", "CG"])

    def test_off_requires_segmented_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "CG", "--trace-cache", "off"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_end_to_end_analyze_with_plan_off(self, capsys, sweep_options):
        sweep_options(trace_cache="off")
        code = main(["--class", "T", "--sweep", "segmented", "analyze", "EP"])
        assert code == 0
        assert "EP" in capsys.readouterr().out
