"""Tests of failure injection, the Section IV-C harness and storage
measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.failure import (SimulatedFailure, corrupt_state,
                                run_failure_scenario)
from repro.ckpt.manager import CheckpointManager, run_with_checkpoints
from repro.ckpt.storage import measure_checkpoint_storage
from repro.core.analysis import scrutinize
from repro.npb import registry


@pytest.fixture(scope="module")
def bench():
    return registry.create("BT", "T")


@pytest.fixture(scope="module")
def analysis(bt_t_result):
    return bt_t_result


class TestCorruptState:
    def test_uncritical_corruption_leaves_critical_untouched(self, bench,
                                                             analysis, rng):
        state = bench.checkpoint_state(2)
        corrupted = corrupt_state(state, analysis.variables,
                                  where="uncritical", rng=rng)
        mask = analysis.variables["u"].mask
        np.testing.assert_array_equal(corrupted["u"][mask],
                                      state["u"][mask])
        assert np.any(corrupted["u"][~mask] != state["u"][~mask])

    def test_critical_corruption_leaves_uncritical_untouched(self, bench,
                                                             analysis, rng):
        state = bench.checkpoint_state(2)
        corrupted = corrupt_state(state, analysis.variables,
                                  where="critical", rng=rng)
        mask = analysis.variables["u"].mask
        np.testing.assert_array_equal(corrupted["u"][~mask],
                                      state["u"][~mask])
        assert np.any(corrupted["u"][mask] != state["u"][mask])

    def test_all_corruption_touches_everything(self, bench, analysis, rng):
        state = bench.checkpoint_state(2)
        corrupted = corrupt_state(state, analysis.variables, where="all",
                                  rng=rng)
        assert np.all(corrupted["u"] != state["u"])

    def test_unknown_target_rejected(self, bench, analysis):
        with pytest.raises(ValueError):
            corrupt_state(bench.initial_state(), analysis.variables,
                          where="nothing")

    def test_original_state_is_not_modified(self, bench, analysis, rng):
        state = bench.checkpoint_state(2)
        before = state["u"].copy()
        corrupt_state(state, analysis.variables, where="all", rng=rng)
        np.testing.assert_array_equal(state["u"], before)


class TestSimulatedFailure:
    def test_exception_carries_step_and_state(self, tmp_path, bench):
        manager = CheckpointManager(tmp_path, bench, interval=1)
        with pytest.raises(SimulatedFailure) as info:
            run_with_checkpoints(bench, manager, fail_at_step=3)
        assert info.value.step == 3
        assert "u" in info.value.state


class TestFailureScenario:
    def test_pruned_restart_with_garbage_uncritical_passes(self, tmp_path,
                                                           bench, analysis):
        result = run_failure_scenario(bench, tmp_path / "ok",
                                      analysis.variables, interval=2,
                                      corrupt="uncritical")
        assert result.verification_passed
        assert result.restart_step < result.fail_step
        assert "PASSED" in result.summary()

    def test_unrecovered_critical_elements_fail_verification(self, tmp_path,
                                                             bench, analysis):
        result = run_failure_scenario(bench, tmp_path / "bad",
                                      analysis.variables, interval=2,
                                      corrupt="uncritical",
                                      unrecovered="critical")
        assert not result.verification_passed
        assert "FAILED" in result.summary()

    def test_full_checkpoints_also_recover(self, tmp_path, bench, analysis):
        result = run_failure_scenario(bench, tmp_path / "full",
                                      analysis.variables, interval=2,
                                      mode="full", corrupt="all")
        assert result.verification_passed

    def test_failure_before_first_checkpoint_rejected(self, tmp_path, bench,
                                                      analysis):
        with pytest.raises(ValueError, match="before the first checkpoint"):
            run_failure_scenario(bench, tmp_path / "early",
                                 analysis.variables, interval=4,
                                 fail_at_step=2)

    def test_pruned_restart_works_for_complex_pair_variables(self, tmp_path):
        ft = registry.create("FT", "T")
        result = scrutinize(ft)
        scenario = run_failure_scenario(ft, tmp_path / "ft",
                                        result.variables, interval=1,
                                        corrupt="uncritical")
        assert scenario.verification_passed


class TestResumedScenario:
    """``state``/``start_step`` resume the checkpointed run; bad starts are
    rejected before anything runs or is written."""

    def _run(self, tmp_path, bench, analysis, **kwargs):
        kwargs.setdefault("interval", 2)
        return run_failure_scenario(bench, tmp_path / "run",
                                    analysis.variables, **kwargs)

    def test_resumed_run_restarts_like_a_run_from_step_zero(self, tmp_path,
                                                            bench, analysis):
        state = bench.checkpoint_state(4)
        before = {key: np.array(value, copy=True)
                  for key, value in state.items()}
        resumed = self._run(tmp_path / "resumed", bench, analysis,
                            state=state, start_step=4, fail_at_step=5)
        fresh = self._run(tmp_path / "fresh", bench, analysis,
                          fail_at_step=5)
        # step 4 is a checkpoint step: the resumed run writes its start
        assert resumed.restart_step == fresh.restart_step == 4
        assert resumed.outcome.steps_replayed \
            == fresh.outcome.steps_replayed
        assert resumed.verification_passed and fresh.verification_passed
        for key, value in fresh.outcome.final_state.items():
            assert np.asarray(resumed.outcome.final_state[key]).tobytes() \
                == np.asarray(value).tobytes()
        for key, value in before.items():
            assert np.asarray(state[key]).tobytes() == value.tobytes()
        written = tmp_path / "resumed" / "run" / "bt_step000004.ckpt"
        assert written.read_bytes() \
            == (tmp_path / "fresh" / "run" / written.name).read_bytes()

    @pytest.mark.parametrize("start_step", [-1, 6, 7])
    def test_start_outside_the_run_before_the_failure_rejected(
            self, tmp_path, bench, analysis, start_step):
        state = bench.checkpoint_state(2)
        with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
            self._run(tmp_path, bench, analysis, state=state,
                      start_step=start_step, fail_at_step=6)
        assert not (tmp_path / "run").exists()

    def test_start_step_without_a_state_rejected(self, tmp_path, bench,
                                                 analysis):
        with pytest.raises(ValueError, match="without the state"):
            self._run(tmp_path, bench, analysis, start_step=2)

    def test_step_counter_disagreeing_with_the_start_rejected(
            self, tmp_path, bench, analysis):
        state = bench.checkpoint_state(2)
        with pytest.raises(ValueError, match="step counter 'step' is 2, "
                                             "not the start step 4"):
            self._run(tmp_path, bench, analysis, state=state, start_step=4)
        assert not (tmp_path / "run").exists()

    def test_invalid_start_state_rejected(self, tmp_path, bench, analysis):
        state = bench.checkpoint_state(2)
        missing = {key: value for key, value in state.items()
                   if key != "u"}
        with pytest.raises(ValueError, match="missing state entry 'u'"):
            self._run(tmp_path, bench, analysis, state=missing,
                      start_step=2)
        misshaped = dict(state, u=state["u"][:1])
        with pytest.raises(ValueError, match="'u': expected shape"):
            self._run(tmp_path, bench, analysis, state=misshaped,
                      start_step=2)
        assert not (tmp_path / "run").exists()

    def test_resume_past_every_checkpoint_step_rejected(self, tmp_path,
                                                        bench, analysis):
        # interval 4: step 5 is no checkpoint step and the run fails at 7,
        # before step 8, so nothing could be restored
        with pytest.raises(ValueError, match="nothing could be restored"):
            self._run(tmp_path, bench, analysis, interval=4,
                      state=bench.checkpoint_state(5), start_step=5,
                      fail_at_step=7)


ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


@pytest.fixture(scope="module")
def port_results():
    """Class-T scrutiny result per port, computed on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = scrutinize(registry.create(name, "T"))
        return cache[name]

    return get


def _scenario(tmp_path, port_results, name, **kwargs):
    bench = registry.create(name, "T")
    return run_failure_scenario(
        bench, tmp_path / name.lower(), port_results(name).variables,
        interval=max(bench.total_steps // 4, 1), mode="pruned",
        corrupt="uncritical", **kwargs)


class TestNegativeControlAllPorts:
    """The negative control must report a failed verification on every
    port: garbage in the critical elements may crash the replay itself
    (FT's step counter indexing past its sums, IS binning negative keys),
    and that is a failed verification, not an error of the harness."""

    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_control_fails_without_raising(self, tmp_path, port_results,
                                           name):
        result = _scenario(tmp_path, port_results, name,
                           unrecovered="critical")
        assert not result.verification_passed
        assert "FAILED" in result.summary()

    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_plain_scenario_passes(self, tmp_path, port_results, name):
        assert _scenario(tmp_path, port_results, name).verification_passed

    @pytest.mark.parametrize("name,error", (("FT", "IndexError"),
                                            ("IS", "ValueError")))
    def test_crashing_replay_is_named_in_the_notes(self, tmp_path,
                                                   port_results, name,
                                                   error):
        result = _scenario(tmp_path, port_results, name,
                           unrecovered="critical")
        assert f"restart raised {error}" in result.outcome.verification.notes

    def test_without_unrecovered_exceptions_propagate(self, tmp_path,
                                                      monkeypatch):
        bench = registry.create("CG", "T")
        variables = scrutinize(bench).variables

        def boom(state):
            raise ZeroDivisionError("verification exploded")

        monkeypatch.setattr(bench, "verify", boom)
        with pytest.raises(ZeroDivisionError, match="exploded"):
            run_failure_scenario(bench, tmp_path / "cg", variables,
                                 interval=1, corrupt="uncritical")
        result = run_failure_scenario(bench, tmp_path / "cg_control",
                                      variables, interval=1,
                                      corrupt="uncritical",
                                      unrecovered="critical")
        assert not result.verification_passed
        assert "ZeroDivisionError: verification exploded" \
            in result.outcome.verification.notes


class TestStorageMeasurement:
    def test_measured_sizes_are_consistent(self, tmp_path, bench, analysis):
        comparison = measure_checkpoint_storage(bench, analysis, tmp_path)
        assert comparison.full_nbytes > comparison.pruned_nbytes
        assert 0.0 < comparison.saved_fraction < 1.0
        assert comparison.net_saved_fraction <= comparison.saved_fraction
        assert comparison.payload_saved_fraction == pytest.approx(
            analysis.storage_saved_fraction)
        assert bench.name in comparison.summary()

    def test_missing_state_rejected(self, tmp_path, bench, analysis):
        import dataclasses

        empty = dataclasses.replace(analysis, state={})
        with pytest.raises(ValueError, match="no state"):
            measure_checkpoint_storage(bench, empty, tmp_path)


class TestStorageMeasurementCleanup:
    def test_default_removes_measurement_files(self, tmp_path, bench,
                                               analysis):
        before = set(tmp_path.iterdir())
        measure_checkpoint_storage(bench, analysis, tmp_path)
        assert set(tmp_path.iterdir()) == before   # no stale ckpt/aux files

    def test_keep_files_leaves_checkpoints_behind(self, tmp_path, bench,
                                                  analysis):
        measure_checkpoint_storage(bench, analysis, tmp_path,
                                   keep_files=True)
        names = {p.name for p in tmp_path.iterdir()}
        stem = bench.name.lower()
        assert f"{stem}_full.ckpt" in names
        assert f"{stem}_pruned.ckpt" in names

    def test_no_directory_measures_in_a_tempdir(self, bench, analysis,
                                                tmp_path, monkeypatch):
        import tempfile as _tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(_tempfile, "tempdir", None)
        comparison = measure_checkpoint_storage(bench, analysis)
        assert comparison.full_nbytes > comparison.pruned_nbytes
        assert list(tmp_path.iterdir()) == []      # tempdir fully removed

    def test_keep_files_without_directory_rejected(self, bench, analysis):
        with pytest.raises(ValueError, match="keep_files"):
            measure_checkpoint_storage(bench, analysis, keep_files=True)

    def test_repeated_measurements_are_stable(self, tmp_path, bench,
                                              analysis):
        first = measure_checkpoint_storage(bench, analysis, tmp_path)
        second = measure_checkpoint_storage(bench, analysis, tmp_path)
        assert first == second
