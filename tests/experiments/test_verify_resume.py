"""The Section IV-C scenarios resume from the analysed checkpoint state.

``verify.run`` starts each checkpointed run from ``ScrutinyResult.state``
after ``ScrutinyResult.step`` iterations instead of from step 0.  The
restart must not notice: for every port at class T, the resumed scenario
and BT's negative control give the same fail step, restart step, steps
replayed, verdict and final state as a scenario run from step 0, and the
checkpoint (and auxiliary) file the restart reads is byte-identical --
with a freshly computed result and with one loaded from a warm
``ResultStore`` -- while the analysed state itself stays untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ckpt.failure import run_failure_scenario
from repro.experiments import verify
from repro.experiments.paper import VERIFY_BENCHMARKS
from repro.experiments.runner import ExperimentRunner


def _state_digest(state) -> str:
    digest = hashlib.sha256()
    for key in sorted(state):
        arr = np.asarray(state[key])
        digest.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _restart_files(directory, scenario) -> dict[str, str]:
    """sha256 of the checkpoint and auxiliary file at the restart step."""
    stem = f"{scenario.benchmark.lower()}_step{scenario.restart_step:06d}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob(stem + ".ckpt*"))}


def _checkpoint_steps(directory) -> list[int]:
    return [int(path.name.split("step")[1].split(".")[0])
            for path in directory.glob("*.ckpt")]


def _from_step_zero(runner, name, directory, **kwargs):
    bench = runner.benchmark(name)
    return run_failure_scenario(
        bench, directory, runner.result(name).variables,
        interval=max(bench.total_steps // 4, 1), mode="pruned",
        corrupt="uncritical", **kwargs)


def _assert_same(resumed, resumed_dir, fresh, fresh_dir):
    assert resumed.fail_step == fresh.fail_step
    assert resumed.restart_step == fresh.restart_step
    assert resumed.outcome.steps_replayed == fresh.outcome.steps_replayed
    assert resumed.verification_passed == fresh.verification_passed
    assert _state_digest(resumed.outcome.final_state) \
        == _state_digest(fresh.outcome.final_state)
    files = _restart_files(resumed_dir, resumed)
    assert any(name.endswith(".ckpt") for name in files)
    assert files == _restart_files(fresh_dir, fresh)


@pytest.fixture(scope="module", params=["computed", "warm-store"])
def resumed(request, tmp_path_factory):
    """``verify.run`` at class T over every port, with the state digests
    of the results it resumed from taken before and after."""
    if request.param == "computed":
        runner = ExperimentRunner(problem_class="T")
    else:
        cache_dir = tmp_path_factory.mktemp("store")
        ExperimentRunner(problem_class="T",
                         cache_dir=cache_dir).prefetch(VERIFY_BENCHMARKS)
        runner = ExperimentRunner(problem_class="T", cache_dir=cache_dir)
    before = {name: _state_digest(runner.result(name).state)
              for name in VERIFY_BENCHMARKS}
    if request.param == "warm-store":
        assert runner.store.misses == 0
        assert runner.store.hits == len(VERIFY_BENCHMARKS)
    directory = tmp_path_factory.mktemp("resumed")
    report = verify.run(runner, directory=directory)
    return runner, report, directory, before


@pytest.mark.parametrize("name", VERIFY_BENCHMARKS)
def test_resumed_scenario_matches_a_run_from_step_zero(resumed, tmp_path,
                                                       name):
    runner, report, directory, _ = resumed
    scenario = next(s for s in report.data["scenarios"]
                    if s.benchmark == name)
    fresh = _from_step_zero(runner, name, tmp_path / "fresh")
    _assert_same(scenario, directory / name.lower(), fresh,
                 tmp_path / "fresh")
    assert scenario.verification_passed
    # the resumed run wrote no checkpoint before the analysed state
    step = runner.result(name).step
    assert min(_checkpoint_steps(directory / name.lower())) >= step


def test_negative_control_matches_a_run_from_step_zero(resumed, tmp_path):
    runner, report, directory, _ = resumed
    negative = report.data["negative_control"]
    assert negative.benchmark == "BT"
    fresh = _from_step_zero(runner, "BT", tmp_path / "fresh",
                            unrecovered="critical")
    _assert_same(negative, directory / "bt_negative", fresh,
                 tmp_path / "fresh")
    assert not negative.verification_passed


def test_analysed_state_is_left_untouched(resumed):
    runner, report, _, before = resumed
    assert report.matches_paper
    assert {name: _state_digest(runner.result(name).state)
            for name in VERIFY_BENCHMARKS} == before


def test_result_analysed_after_the_failure_runs_from_step_zero(tmp_path):
    # BT-T fails at step 6; an analysis at step 8 cannot seed the run
    runner = ExperimentRunner(problem_class="T", step=8)
    report = verify.run(runner, benchmarks=("BT",), directory=tmp_path / "v",
                        include_negative_control=False)
    scenario, = report.data["scenarios"]
    fresh = _from_step_zero(runner, "BT", tmp_path / "fresh")
    _assert_same(scenario, tmp_path / "v" / "bt", fresh, tmp_path / "fresh")
    assert scenario.verification_passed
