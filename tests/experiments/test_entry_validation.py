"""Bad arguments fail where they enter, not inside a retried job.

An invalid method, probe count, sweep, problem class or benchmark name
raises ``ValueError`` when the job or runner is built (or the benchmark is
requested), before the fault-tolerant engine could retry and quarantine
it as a poisoned job.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.parallel import ScrutinyJob
from repro.experiments.runner import ExperimentRunner


class TestScrutinyJob:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(method="bogus"), "unknown method"),
        (dict(n_probes=0), "n_probes"),
        (dict(n_probes=1.5), "n_probes"),
        (dict(method="activity", n_probes=2), "value-independent"),
        (dict(sweep="sideways"), "unknown sweep"),
        (dict(problem_class="Z"), "unknown problem class"),
    ])
    def test_invalid_job_raises_on_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScrutinyJob("CG", **{"problem_class": "T", **kwargs})


class TestExperimentRunner:
    def test_invalid_method_raises_before_any_job(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentRunner(problem_class="T", method="bogus",
                             on_failure="record")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(problem_class="Z"), "unknown problem class"),
        (dict(problem_class="T", n_probes=0), "n_probes"),
        (dict(problem_class="T", sweep="sideways"), "unknown sweep"),
    ])
    def test_invalid_configuration_raises_on_construction(self, kwargs,
                                                           match):
        with pytest.raises(ValueError, match=match):
            ExperimentRunner(**kwargs)

    @pytest.mark.parametrize("problem_class, name", [("T", "NOPE"),
                                                     ("A", "BT")])
    def test_unregistered_benchmark_raises_on_request(self, problem_class,
                                                      name):
        runner = ExperimentRunner(problem_class=problem_class,
                                  on_failure="record")
        with pytest.raises(ValueError, match=repr(name)):
            runner.result(name)
        assert runner.fault_stats.jobs == 0      # no job was ever scheduled


class TestCli:
    def test_invalid_configuration_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--probes", "0", "analyze", "CG"])
        assert "n_probes" in capsys.readouterr().err
