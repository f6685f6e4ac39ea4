"""Tests of the FT (3-D FFT) port."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.core.analysis import scrutinize
from repro.npb.ft import FT


@pytest.fixture(scope="module")
def bench():
    return FT(problem_class="T")


@pytest.fixture(scope="module")
def result(bench):
    return scrutinize(bench)


class TestTransforms:
    def test_inverse_transform_matches_numpy_ifftn(self, bench):
        p = bench.params
        state = bench.initial_state()
        t = 2
        chk = bench._checksum(state["y_re"], state["y_im"], t)
        spectrum = (state["y_re"] + 1j * state["y_im"])[:, :, : p.nz] \
            * bench._evolution_factor(t)
        ki, kj, kk = bench._sample_indices
        expected = np.fft.ifftn(spectrum)[ki, kj, kk].sum() \
            / (p.nx * p.ny * p.nz)
        np.testing.assert_allclose(chk[0], expected.real, rtol=1e-13)
        np.testing.assert_allclose(chk[1], expected.imag,
                                   atol=1e-15 * abs(expected.real))

    def test_inverse_of_initial_spectrum_recovers_initial_field(self, bench):
        spec_re, spec_im = bench._initial_spectrum
        p = bench.params
        every_point = np.unravel_index(np.arange(spec_re.size),
                                       spec_re.shape)
        out = ops.ifftn_sampled(spec_re, spec_im, 1.0, every_point)
        # the initial field is real, so the imaginary part must vanish
        np.testing.assert_allclose(out[1], 0.0, atol=1e-9)
        assert out[0].min() >= -1e-12 and out[0].max() < 1.0
        assert out.shape == (2, p.nx * p.ny * p.nz)

    def test_restart_tape_transforms_with_one_fft_per_step(self, bench):
        tape, _, _ = bench.traced_restart(bench.checkpoint_state(0))
        used = [node.op for node in tape.nodes]
        assert "matmul" not in used
        assert used.count("ifftn_sampled") == bench.total_steps

    def test_step_tape_holds_no_stacked_or_transformed_grid(self):
        # the transform samples its own buffer: neither the stacked
        # (2, nx, ny, nz) spectrum nor any (nx, ny, nz) result of it (the
        # evolved planes, the transformed field) is a node of the step
        bench = FT(problem_class="S")
        p = bench.params
        tape, _, _ = bench.traced_step(bench.checkpoint_state(1))
        shapes = [tuple(node.shape) for node in tape.nodes]
        assert (2, p.nx, p.ny, p.nz) not in shapes
        grids = [node.op for node in tape.nodes
                 if tuple(node.shape) == (p.nx, p.ny, p.nz)]
        assert grids == ["getitem", "getitem"]

    def test_builds_no_square_matrix(self):
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)

        bench = FT(problem_class="S")
        for arr in arrays(list(vars(bench).values())):
            assert not (arr.ndim == 2 and arr.shape[0] == arr.shape[1])

    def test_evolution_factor_decays_with_time(self, bench):
        f1 = bench._evolution_factor(1)
        f2 = bench._evolution_factor(2)
        assert np.all(f2 <= f1)
        assert f1.max() <= 1.0


class TestDynamics:
    def test_initial_state_pads_last_plane(self, bench):
        state = bench.initial_state()
        p = bench.params
        assert state["y_re"].shape == p.y_shape
        assert np.all(state["y_re"][:, :, p.nz] == state["y_re"][0, 0, p.nz])

    def test_spectrum_is_never_modified(self, bench):
        state = bench.initial_state()
        final = bench.run_full()
        np.testing.assert_array_equal(final["y_re"], state["y_re"])
        np.testing.assert_array_equal(final["y_im"], state["y_im"])

    def test_sums_accumulate_one_entry_per_iteration(self, bench):
        state = bench.initial_state()
        for t in range(1, bench.total_steps + 1):
            state = bench._advance(state)
            filled = np.flatnonzero(state["sums_re"])
            assert filled.max() == t - 1

    def test_checksums_are_additive_in_the_checkpointed_sums(self, bench):
        # sums is read-modify-write: pre-loading it shifts the final value
        state = bench.initial_state()
        state["sums_re"] = state["sums_re"] + 1.0
        final = bench.run(state, bench.total_steps)
        reference = bench.run_full()
        np.testing.assert_allclose(final["sums_re"],
                                   reference["sums_re"] + 1.0)

    def test_run_and_verify_passes(self, bench):
        assert bench.run_and_verify().passed

    def test_verification_fails_on_corrupted_checksums(self, bench):
        final = bench.run_full()
        final["sums_re"] = np.array(final["sums_re"], copy=True)
        final["sums_re"][0] *= 1.1
        assert not bench.verify(final).passed

    def test_verification_ignores_noise_in_the_imaginary_checksum(self):
        # sums_im is round-off noise (~1e-20 at class S, where sums_re is
        # ~1e-3); NPB judges the complex checksum, so noise of that size
        # must pass even though it changes sums_im itself by ~1000 %
        bench = FT(problem_class="S")
        final = bench.run_full()
        assert np.abs(final["sums_im"]).max() < 1e-18
        final["sums_im"] = np.asarray(final["sums_im"]) + 1e-19
        assert bench.verify(final).passed

    @pytest.mark.parametrize("part", [1.0, 1j])
    def test_verification_fails_on_a_small_complex_change(self, bench, part):
        final = bench.run_full()
        sums = np.asarray(final["sums_re"]) + 1j * np.asarray(final["sums_im"])
        sums[1] += 1e-11 * abs(sums[1]) * part
        final["sums_re"], final["sums_im"] = sums.real.copy(), sums.imag.copy()
        result = bench.verify(final)
        assert not result.passed
        assert result.details["sums[1]"] == pytest.approx(1e-11, rel=1e-3)


class TestSampling:
    def test_checksum_samples_are_a_proper_subset(self, bench):
        # regression: with n_samples >= grid size the old code sampled
        # every grid point, so the checksum only saw the DC coefficient
        # and every other spectral weight was *mathematically* zero --
        # criticality there was decided by round-off noise
        p = bench.params
        ki, _, _ = bench._sample_indices
        assert len(ki) < p.nx * p.ny * p.nz

    def test_no_spectral_coefficient_has_zero_weight(self, bench):
        # the structural weight of coefficient (i, j, k) is the (i, j, k)
        # Fourier coefficient of the sample-indicator field
        p = bench.params
        ki, kj, kk = bench._sample_indices
        indicator = np.zeros((p.nx, p.ny, p.nz))
        np.add.at(indicator, (ki, kj, kk), 1.0)
        assert np.all(indicator <= 1.0)          # no repeated samples
        weights = np.fft.fftn(indicator)
        assert np.abs(weights).min() > 1.0e-6


class TestCriticality:
    def test_only_padding_plane_uncritical(self, bench, result):
        mask = result.variables["y"].mask
        p = bench.params
        assert mask[:, :, : p.nz].all()
        assert not mask[:, :, p.nz:].any()
        assert result.variables["y"].n_uncritical == p.nx * p.ny

    def test_sums_fully_critical(self, result):
        assert result.variables["sums"].n_uncritical == 0

    def test_kt_rule_critical(self, result):
        assert result.variables["kt"].method == "rule"


class TestClassS:
    def test_paper_table2_row(self, runner_s):
        crit = runner_s.result("FT").variables["y"]
        assert (crit.n_uncritical, crit.n_elements) == (4096, 266240)
