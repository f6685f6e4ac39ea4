"""Activity-method plumbing: the sweep choice must be honoured, not ignored.

Before repro 1.6.0 ``method="activity"`` silently ignored
``sweep="segmented"`` -- the analysis always traced the monolithic tape.
These are the regression tests: the segmented (chained, plan-replayed)
path actually runs, with identical masks, and unsupported arguments raise
instead of silently degrading.  Since repro 1.9.0 the sweep is the only
execution choice above :mod:`repro.ad` and is not part of the result's
identity; the trace-cache alternative stays on
:func:`repro.ad.activity.segmented_read_masks` as an oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import activity as activity_mod
from repro.ad.plan import PlanCache
from repro.cli import main
from repro.core import criticality as criticality_mod
from repro.core.analysis import scrutinize
from repro.core.criticality import CriticalityAnalyzer
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ScrutinyJob, run_job
from repro.npb import registry


def _assert_same_masks(expected, got, label=""):
    for var, crit in expected.variables.items():
        np.testing.assert_array_equal(crit.mask, got.variables[var].mask,
                                      err_msg=f"{label}.{var}")


class TestAnalyzerHonoursSweepKnobs:
    @pytest.mark.parametrize("name", ["CG", "MG", "LU", "IS"])
    def test_segmented_activity_masks_match_monolithic(self, name,
                                                       sweep_options):
        mono = scrutinize(registry.create(name, "T"), method="activity")
        planned = scrutinize(registry.create(name, "T"), method="activity",
                             sweep="segmented")
        sweep_options(trace_cache="off")
        traced = scrutinize(registry.create(name, "T"), method="activity",
                            sweep="segmented")
        _assert_same_masks(mono, planned, f"{name} planned")
        _assert_same_masks(mono, traced, f"{name} traced")

    def test_segmented_route_actually_runs_the_chained_sweep(self, monkeypatch):
        """The sweep must reach the chained driver -- the original bug."""
        calls = []
        original = activity_mod.segmented_read_masks

        def spy(bench, state, **kwargs):
            calls.append(kwargs)
            return original(bench, state, **kwargs)

        monkeypatch.setattr(criticality_mod.activity_mod,
                            "segmented_read_masks", spy)
        analyzer = CriticalityAnalyzer(method="activity", sweep="segmented")
        analyzer.analyze(registry.create("CG", "T"))
        assert len(calls) == 1
        # the fixed engine: keep-all snapshots, a fresh per-analysis cache
        assert "snapshot_schedule" not in calls[0]
        assert "trace_cache" not in calls[0]
        assert isinstance(calls[0]["plan_cache"], PlanCache)

    def test_monolithic_route_does_not_run_the_chained_sweep(self, monkeypatch):
        """The monolithic sweep is the driver's one-segment walk: one
        ``traced_restart`` tape, no step segment to chain."""
        calls = []
        original = activity_mod.segmented_read_masks

        def spy(bench, state, **kwargs):
            calls.append(kwargs)
            return original(bench, state, **kwargs)

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("monolithic activity used the chained sweep")

        monkeypatch.setattr(criticality_mod.activity_mod,
                            "segmented_read_masks", spy)
        bench = registry.create("CG", "T")
        monkeypatch.setattr(bench, "traced_step", boom)
        result = CriticalityAnalyzer(method="activity").analyze(bench)
        assert result
        assert len(calls) == 1 and calls[0]["tail"] is None

    def test_activity_rejects_probes(self):
        with pytest.raises(ValueError, match="value-independent"):
            CriticalityAnalyzer(method="activity", n_probes=2)
        with pytest.raises(ValueError, match="value-independent"):
            ScrutinyJob("CG", "T", method="activity", n_probes=2)

    def test_activity_rejects_snapshot_knobs_without_segmented(self):
        for sweep in ("monolithic", "segmented"):
            with pytest.raises(TypeError, match="snapshot_schedule"):
                CriticalityAnalyzer(method="activity", sweep=sweep,
                                    snapshot_schedule="binomial")

    def test_activity_rejects_trace_cache_off_without_segmented(self):
        for sweep in ("monolithic", "segmented"):
            with pytest.raises(TypeError, match="trace_cache"):
                CriticalityAnalyzer(method="activity", sweep=sweep,
                                    trace_cache="off")


class TestActivityJobsAndStoreKeys:
    def test_segmented_activity_job_roundtrip(self, sweep_options):
        mono = run_job(ScrutinyJob("CG", "T", method="activity"))
        planned = run_job(ScrutinyJob("CG", "T", method="activity",
                                      sweep="segmented"))
        sweep_options(trace_cache="off")
        traced = run_job(ScrutinyJob("CG", "T", method="activity",
                                     sweep="segmented"))
        _assert_same_masks(mono, planned, "CG planned")
        _assert_same_masks(mono, traced, "CG traced")

    def test_activity_sweep_keys_never_alias(self):
        """Activity keys still never alias the AD keys; the two sweeps of
        one method, computing one result, share a key."""
        mono = ScrutinyJob("CG", "T", method="activity")
        seg = ScrutinyJob("CG", "T", method="activity", sweep="segmented")
        ad = ScrutinyJob("CG", "T", method="ad", sweep="segmented")
        keys = {cache_key(**job.key_params(), version="1")
                for job in (mono, seg, ad)}
        assert len(keys) == 2
        assert cache_key(**mono.key_params(), version="1") \
            == cache_key(**seg.key_params(), version="1")

    def test_version_bump_invalidates_pre_refactor_entries(self):
        # entries written under an older key layout carry an older
        # version; the bumps must address them differently
        base = dict(benchmark="CG", problem_class="T", method="activity",
                    n_probes=1)
        assert cache_key(**base, version="1.5.0") \
            != cache_key(**base, version="1.6.0")
        assert cache_key(**base, version="1.8.0") != cache_key(**base)

    def test_store_roundtrip_under_segmented_activity_key(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", method="activity",
                                     sweep="segmented"))
        store.put(result, n_probes=1)
        assert store.fetch(benchmark="CG", problem_class="T",
                           method="activity", n_probes=1) is not None
        assert store.fetch(benchmark="CG", problem_class="T",
                           method="ad", n_probes=1) is None


class TestActivityCLI:
    def test_segmented_activity_smoke(self, capsys):
        code = main(["--class", "T", "--method", "activity",
                     "--sweep", "segmented", "analyze", "CG"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CG" in out

    def test_activity_with_probes_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--method", "activity", "--probes", "2",
                  "analyze", "CG"])
        assert "value-independent" in capsys.readouterr().err

    def test_activity_snapshot_schedule_without_segmented_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--method", "activity",
                  "--snapshot-schedule", "binomial", "analyze", "CG"])
