"""Bad arguments fail where they enter, not inside a retried job.

An invalid method, probe count, sweep, problem class, benchmark name,
checkpoint step or step count raises ``ValueError`` when the job or runner
is built (or the benchmark is requested), before the fault-tolerant engine
could retry and quarantine it as a poisoned job.
"""

from __future__ import annotations

import numpy as np
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

    @pytest.mark.parametrize("kwargs, match", [
        (dict(step=-1), "step must be an integer of at least 0"),
        (dict(step=1.5), "step must be an integer"),
        (dict(step=True), "step must be an integer"),
        (dict(step="2"), "step must be an integer"),
        (dict(steps=0), "steps must be an integer of at least 1"),
        (dict(steps=2.0), "steps must be an integer"),
    ])
    def test_invalid_step_raises_on_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScrutinyJob("CG", problem_class="T", **kwargs)

    def test_numpy_integer_step_is_the_same_job(self):
        job = ScrutinyJob("CG", problem_class="T", step=np.int64(2),
                          steps=np.int32(1))
        assert job == ScrutinyJob("CG", problem_class="T", step=2, steps=1)
        assert type(job.step) is int and type(job.steps) is int


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

    @pytest.mark.parametrize("step", [-1, 1.5])
    def test_invalid_step_raises_on_construction(self, step):
        with pytest.raises(ValueError, match="step must be an integer"):
            ExperimentRunner(problem_class="T", step=step)

    def test_step_past_the_loop_raises_on_request(self):
        # CG class T runs 4 iterations: step 99 used to be retried twice
        # and then quarantined as a poisoned job
        runner = ExperimentRunner(problem_class="T", step=99,
                                  on_failure="record")
        with pytest.raises(ValueError, match=r"step 99 outside \[0, 4\]"):
            runner.result("CG")
        assert runner.fault_stats.retries == 0
        assert runner.fault_stats.jobs == 0

    def test_last_step_is_accepted(self):
        runner = ExperimentRunner(problem_class="T", step=4)
        runner.check_benchmark("CG")


class TestCli:
    def test_invalid_configuration_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--probes", "0", "analyze", "CG"])
        assert "n_probes" in capsys.readouterr().err

    @pytest.mark.parametrize("step, match", [
        ("99", "step 99 outside [0, 4]"),
        ("-1", "step must be an integer of at least 0"),
    ])
    def test_bad_step_is_a_parser_error(self, capsys, step, match):
        with pytest.raises(SystemExit):
            main(["--class", "T", "analyze", "CG", "--step", step])
        assert match in capsys.readouterr().err
