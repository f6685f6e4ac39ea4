"""Tests of the figure, verification and ablation experiment drivers."""

from __future__ import annotations

import pytest

from repro.experiments import ablation, figures, verify
from repro.experiments.runner import ExperimentRunner


class TestFigures:
    @pytest.mark.parametrize("figure", sorted(figures.FIGURES))
    def test_every_figure_matches_the_paper(self, runner_s, figure):
        report = figures.run(figure, runner_s)
        assert report.matches_paper, report.text
        result = report.data["figure"]
        assert result.benchmark == figures.FIGURES[figure][0]
        assert result.rendering and result.description

    def test_unknown_figure_rejected(self, runner_s):
        with pytest.raises(KeyError):
            figures.run("figure99", runner_s)

    def test_run_all_aggregates(self, runner_s):
        report = figures.run_all(runner_s)
        assert report.matches_paper
        assert set(report.data["figures"]) == set(figures.FIGURES)

    def test_export_writes_artefacts(self, runner_s, tmp_path):
        report = figures.run("figure6", runner_s, export_dir=tmp_path)
        assert report.matches_paper
        assert list(tmp_path.glob("figure6_cg_x.json"))

    def test_figure_checks_are_all_booleans(self, runner_s):
        report = figures.run("figure3", runner_s)
        assert all(isinstance(v, bool) for v in
                   report.data["checks"].values())


class TestVerify:
    def test_reduced_class_suite_passes(self, tmp_path):
        runner = ExperimentRunner(problem_class="T")
        report = verify.run(runner, benchmarks=("BT", "CG", "FT", "IS"),
                            directory=tmp_path)
        assert report.matches_paper, report.text
        scenarios = report.data["scenarios"]
        assert len(scenarios) == 4
        assert all(s.verification_passed for s in scenarios)

    def test_negative_control_fails_verification(self, tmp_path):
        runner = ExperimentRunner(problem_class="T")
        report = verify.run(runner, benchmarks=("BT",), directory=tmp_path,
                            include_negative_control=True)
        negative = report.data["negative_control"]
        assert negative is not None
        assert not negative.verification_passed
        assert report.matches_paper

    def test_negative_control_can_be_skipped(self, tmp_path):
        runner = ExperimentRunner(problem_class="T")
        report = verify.run(runner, benchmarks=("CG",), directory=tmp_path,
                            include_negative_control=False)
        assert report.data["negative_control"] is None


class TestAblation:
    def test_ad_and_read_set_masks_coincide_for_bt_and_cg(self):
        report = ablation.run_methods(benchmarks=("BT", "CG"),
                                      problem_class="T")
        assert report.matches_paper
        for agreement in report.data["agreement"].values():
            assert agreement["only_a"] == 0 and agreement["only_b"] == 0

    def test_read_set_analysis_misses_impact_through_copies_for_lu(self):
        report = ablation.run_methods(benchmarks=("LU",), problem_class="T")
        agreement = report.data["agreement"][("LU", "u")]
        # elements of u that only influence the output via the copied state
        # of later iterations: invisible to the read-set, caught by AD
        assert agreement["only_a"] > 0

    def test_multi_probe_is_stable(self):
        report = ablation.run_probes(benchmarks=("CG",), n_probes=2,
                                     problem_class="T")
        assert report.matches_paper

    def test_encoding_comparison_lists_pruned_variables(self):
        report = ablation.run_encoding(benchmarks=("BT", "CG"),
                                       problem_class="T")
        rows = report.data["rows"]
        assert ("BT", "u") in rows
        assert ("CG", "x") in rows
        for entry in rows.values():
            assert entry["region_bytes"] == 32 * entry["n_records"]
            assert entry["n_records"] <= entry["n_runs"]
            assert entry["payload_saved"] > 0
