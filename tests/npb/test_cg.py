"""Tests of the CG (conjugate gradient) port."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.core.analysis import scrutinize
from repro.npb.cg import CG


@pytest.fixture(scope="module")
def bench():
    return CG(problem_class="T")


@pytest.fixture(scope="module")
def result(bench):
    return scrutinize(bench)


def _dense(bands, offsets):
    """Dense matrix of a row-aligned DIA band array (test oracle)."""
    n = bands.shape[1]
    a = np.zeros((n, n))
    for band, offset in zip(bands, offsets):
        for i in range(max(0, -offset), min(n, n - offset)):
            a[i, i + offset] = band[i]
    return a


@pytest.fixture(scope="module")
def matrix(bench):
    return _dense(bench._bands, bench._offsets)


class TestMatrix:
    def test_matrix_is_symmetric(self, matrix):
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_matrix_is_strictly_diagonally_dominant(self, matrix):
        diag = np.abs(np.diag(matrix))
        off = np.abs(matrix).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_matrix_is_positive_definite(self, matrix):
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.all(eigenvalues > 0.0)

    def test_matrix_is_deterministic(self):
        a, b = CG(problem_class="T"), CG(problem_class="T")
        np.testing.assert_array_equal(a._bands, b._bands)
        assert a._offsets == b._offsets

    def test_band_layout(self, bench):
        nonzer = bench.params.nonzer
        assert bench._offsets == tuple(range(-nonzer, nonzer + 1))
        assert bench._bands.shape == (2 * nonzer + 1, bench.params.na)

    def test_transposed_bands_are_the_transpose(self, bench, matrix):
        dense_t = _dense(bench._bands_t, [-o for o in bench._offsets])
        np.testing.assert_array_equal(dense_t, matrix.T)

    def test_matvec_matches_dense(self, bench, matrix):
        x = np.random.default_rng(0).random(bench.params.na)
        np.testing.assert_allclose(bench._matvec(x), matrix @ x,
                                   rtol=1e-14)


class TestSolver:
    def test_conj_grad_solves_the_system(self, bench, matrix):
        x = bench.initial_state()["x"][: bench.params.na]
        z, rnorm = bench._conj_grad(x)
        residual = x - matrix @ np.asarray(ops.to_numpy(z))
        assert float(ops.to_numpy(rnorm)) == pytest.approx(
            np.linalg.norm(residual))
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(x)

    def test_advance_normalises_the_iterate(self, bench):
        new = bench._advance(bench.initial_state())
        na = bench.params.na
        assert np.linalg.norm(new["x"][:na]) == pytest.approx(1.0)

    def test_advance_keeps_unused_tail_untouched(self, bench):
        state = bench.initial_state()
        final = bench.run_full()
        na = bench.params.na
        np.testing.assert_array_equal(final["x"][na:], state["x"][na:])

    def test_zeta_stays_above_the_shift(self, bench):
        # zeta = shift + 1/(x . z) with A SPD, so x . z = x . A^{-1} x > 0
        state = bench.initial_state()
        for _ in range(bench.total_steps):
            state = bench._advance(state)
            zeta = float(ops.to_numpy(bench.output(state)))
            assert np.isfinite(zeta)
            assert zeta > bench.params.shift

    def test_run_and_verify_passes(self, bench):
        assert bench.run_and_verify().passed

    def test_verification_fails_on_corrupted_iterate(self, bench):
        final = bench.run_full()
        final["x"] = np.array(final["x"], copy=True)
        final["x"][10] += 0.05
        assert not bench.verify(final).passed


class TestCriticality:
    def test_only_declared_tail_uncritical(self, bench, result):
        mask = result.variables["x"].mask
        na = bench.params.na
        assert mask[:na].all()
        assert not mask[na:].any()
        assert result.variables["x"].n_uncritical == 2

    def test_it_counter_rule_critical(self, result):
        assert result.variables["it"].method == "rule"
        assert result.variables["it"].n_uncritical == 0


class TestClassS:
    def test_paper_table2_row(self, runner_s):
        crit = runner_s.result("CG").variables["x"]
        assert (crit.n_uncritical, crit.n_elements) == (2, 1402)
