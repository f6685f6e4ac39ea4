"""Tests of full/pruned checkpoint writing and reading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.reader import read_checkpoint
from repro.ckpt.writer import write_full_checkpoint, write_pruned_checkpoint
from repro.core.criticality import VariableCriticality
from repro.core.variables import CheckpointVariable, VariableKind


class DummyBench:
    """Minimal stand-in implementing only what the writer consumes."""

    name = "DUMMY"

    class params:  # noqa: D106 - minimal stand-in
        problem_class = "T"

    def step_variable(self):
        return "it"


@pytest.fixture()
def bench():
    return DummyBench()


@pytest.fixture()
def state(rng):
    return {
        "v": rng.random((10, 16)),
        "y_re": rng.random(40),
        "y_im": rng.random(40),
        "it": 3,
    }


@pytest.fixture()
def criticality(state):
    # every row's last six columns (one strided record) and a tail of y
    # (two records): both save more than their records and headers cost
    v_mask = np.ones((10, 16), dtype=bool)
    v_mask[:, 10:] = False
    y_mask = np.array([True] * 3 + [False] + [True] * 2 + [False] * 34)
    return {
        "v": VariableCriticality(CheckpointVariable("v", (10, 16)), v_mask),
        "y": VariableCriticality(
            CheckpointVariable("y", (40,), VariableKind.COMPLEX_PAIR),
            y_mask),
        "it": VariableCriticality(
            CheckpointVariable("it", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True),
            np.ones((), dtype=bool), method="rule"),
    }


class TestFullCheckpoint:
    def test_roundtrip_restores_every_entry(self, tmp_path, bench, state):
        written = write_full_checkpoint(tmp_path / "full.ckpt", bench, state)
        assert written.mode == "full"
        assert written.aux_path is None
        loaded = read_checkpoint(written.path)
        restored = loaded.materialize()
        np.testing.assert_array_equal(restored["v"], state["v"])
        np.testing.assert_array_equal(restored["y_im"], state["y_im"])
        assert restored["it"] == 3 and isinstance(restored["it"], int)

    def test_scalar_materialisation(self, tmp_path, bench):
        # 0-d non-integer records come back as float64, integer records
        # as Python ints
        state = {"s": np.float32(0.1), "flag": np.True_, "it": 3}
        written = write_full_checkpoint(tmp_path / "full.ckpt", bench, state)
        restored = read_checkpoint(written.path).materialize()
        assert np.asarray(restored["s"]).dtype == np.float64
        assert restored["s"] == np.float64(np.float32(0.1))
        assert restored["flag"] == 1.0
        assert restored["it"] == 3 and isinstance(restored["it"], int)

    def test_step_recorded_from_state(self, tmp_path, bench, state):
        written = write_full_checkpoint(tmp_path / "full.ckpt", bench, state)
        assert written.step == 3
        assert read_checkpoint(written.path).step == 3

    def test_explicit_step_overrides(self, tmp_path, bench, state):
        written = write_full_checkpoint(tmp_path / "full.ckpt", bench, state,
                                        step=7)
        assert written.step == 7

    def test_object_state_rejected(self, tmp_path, bench):
        with pytest.raises(TypeError):
            write_full_checkpoint(tmp_path / "x.ckpt", bench,
                                  {"bad": object(), "it": 0})


class TestPrunedCheckpoint:
    def test_pruned_is_smaller_than_full(self, tmp_path, bench, state,
                                         criticality):
        full = write_full_checkpoint(tmp_path / "full.ckpt", bench, state)
        pruned = write_pruned_checkpoint(tmp_path / "pruned.ckpt", bench,
                                         state, criticality)
        assert pruned.nbytes < full.nbytes
        assert pruned.aux_nbytes > 0
        assert pruned.total_nbytes == pruned.nbytes + pruned.aux_nbytes

    def test_roundtrip_restores_critical_elements(self, tmp_path, bench,
                                                  state, criticality, rng):
        written = write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state,
                                          criticality)
        loaded = read_checkpoint(written.path)
        base = {"v": rng.random((10, 16)), "y_re": rng.random(40),
                "y_im": rng.random(40), "it": 0}
        restored = loaded.materialize(base)
        v_mask = criticality["v"].mask
        y_mask = criticality["y"].mask
        np.testing.assert_array_equal(restored["v"][v_mask],
                                      state["v"][v_mask])
        np.testing.assert_array_equal(restored["v"][~v_mask],
                                      base["v"][~v_mask])
        # both components of the complex pair share the variable's mask
        np.testing.assert_array_equal(restored["y_re"][y_mask],
                                      state["y_re"][y_mask])
        np.testing.assert_array_equal(restored["y_im"][~y_mask],
                                      base["y_im"][~y_mask])
        # unpruned integer record comes back exactly
        assert restored["it"] == 3

    def test_materialize_without_base_state_rejected(self, tmp_path, bench,
                                                     state, criticality):
        written = write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state,
                                          criticality)
        loaded = read_checkpoint(written.path)
        with pytest.raises(ValueError, match="base"):
            loaded.materialize()

    def test_base_state_shape_mismatch_rejected(self, tmp_path, bench, state,
                                                criticality):
        written = write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state,
                                          criticality)
        loaded = read_checkpoint(written.path)
        bad_base = {"v": np.zeros((16, 10)), "y_re": np.zeros(40),
                    "y_im": np.zeros(40), "it": 0}
        with pytest.raises(ValueError, match="shape"):
            loaded.materialize(bad_base)

    def test_mask_shape_mismatch_rejected(self, tmp_path, bench, state):
        bad = {"v": VariableCriticality(CheckpointVariable("v", (3, 5)),
                                        np.zeros((3, 5), dtype=bool))}
        with pytest.raises(ValueError, match="mask shape"):
            write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state, bad)

    def test_fully_critical_variables_stored_verbatim(self, tmp_path, bench,
                                                      state, criticality):
        written = write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state,
                                          criticality)
        loaded = read_checkpoint(written.path)
        # "it" is fully critical -> not pruned -> needs no base entry
        assert not loaded.header.record("it").pruned
        assert loaded.header.record("v").pruned

    def test_custom_aux_path(self, tmp_path, bench, state, criticality):
        aux = tmp_path / "custom.regions"
        written = write_pruned_checkpoint(tmp_path / "p.ckpt", bench, state,
                                          criticality, aux_path=aux)
        assert written.aux_path == aux
        loaded = read_checkpoint(written.path, aux_path=aux)
        assert "v" in loaded.masks
