"""Tests of the mixed-precision extension experiment driver."""

from __future__ import annotations

import pytest

from repro import cli
from repro.experiments import precision
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    runner = ExperimentRunner(problem_class="T")
    return precision.run(runner, benchmarks=("BT", "MG", "CG"),
                         directory=tmp_path_factory.mktemp("precision"))


class TestPrecisionExperiment:
    def test_every_tuned_restart_verifies(self, report):
        assert report.matches_paper, report.text
        assert all(entry["verified"] for entry in report.data.values())

    def test_mixed_never_larger_than_pruned_plus_header(self, report):
        for entry in report.data.values():
            assert entry["mixed_nbytes"] <= entry["pruned_nbytes"] + 2048

    def test_tier_counts_partition_the_elements(self, report):
        for name, entry in report.data.items():
            total = sum(entry["tier_counts"].values())
            plans = entry["plans"]
            assert total == sum(p.tiers.size for p in plans.values())

    def test_aggressive_plan_is_reported(self, report):
        for entry in report.data.values():
            assert entry["aggressive_nbytes"] is not None
            assert entry["aggressive_verified"] is not None
        # on the benchmark with a real floating-point payload the aggressive
        # plan undercuts even the pruned checkpoint (container headers
        # dominate the tiny class-T CG files, so only MG is meaningful here)
        assert report.data["MG"]["aggressive_nbytes"] \
            < report.data["MG"]["pruned_nbytes"]

    def test_text_report_lists_every_benchmark(self, report):
        for name in ("BT", "MG", "CG"):
            assert name in report.text

    def test_aggressive_can_be_skipped(self, tmp_path):
        runner = ExperimentRunner(problem_class="T")
        small = precision.run(runner, benchmarks=("CG",),
                              include_aggressive=False, directory=tmp_path)
        assert small.data["CG"]["aggressive_nbytes"] is None


class TestPrecisionCli:
    def test_precision_subcommand(self, capsys):
        code = cli.main(["--class", "T", "precision", "--benchmarks", "CG",
                         "--no-aggressive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mixed-precision" in out


class TestByteAccounting:
    def test_class_s_cg_saving_is_not_negative(self, tmp_path):
        # CG-S prunes 2 of 1402 elements: nothing is worth writing but the
        # full checkpoint, and the report must say 0 % rather than less
        report = precision.run(ExperimentRunner(problem_class="S"),
                               benchmarks=("CG",), include_aggressive=False,
                               directory=tmp_path)
        entry = report.data["CG"]
        assert entry["full_nbytes"] == (tmp_path / "cg_full.ckpt").stat() \
            .st_size
        assert entry["pruned_nbytes"] <= entry["full_nbytes"]
        assert entry["mixed_nbytes"] <= entry["full_nbytes"]
        row = next(line for line in report.text.splitlines()
                   if line.startswith("CG "))
        saved = float(row.split("|")[4].strip().rstrip("%"))
        assert saved >= 0.0
