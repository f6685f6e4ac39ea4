"""Tests of the shared NPB infrastructure (random stream, norms, records)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.probes import probe_axis
from repro.ad.reverse import backward
from repro.ad.tape import Tape
from repro.npb import common


class TestRandlc:
    def test_returns_uniform_in_unit_interval(self):
        x = common.DEFAULT_SEED
        for _ in range(100):
            u, x = common.randlc(x, common.LCG_MULTIPLIER)
            assert 0.0 < u < 1.0

    def test_state_stays_in_46_bit_range(self):
        x = common.DEFAULT_SEED
        for _ in range(100):
            _, x = common.randlc(x, common.LCG_MULTIPLIER)
            assert 0.0 <= x < 2.0 ** 46
            assert x == float(int(x))  # exactly representable integer

    def test_deterministic(self):
        u1, x1 = common.randlc(common.DEFAULT_SEED, common.LCG_MULTIPLIER)
        u2, x2 = common.randlc(common.DEFAULT_SEED, common.LCG_MULTIPLIER)
        assert u1 == u2 and x1 == x2

    def test_matches_modular_arithmetic_reference(self):
        # the generator is x' = a * x mod 2**46 computed exactly
        x = common.DEFAULT_SEED
        a = common.LCG_MULTIPLIER
        for _ in range(50):
            expected = (int(a) * int(x)) % (2 ** 46)
            u, x = common.randlc(x, a)
            assert int(x) == expected
            assert u == pytest.approx(expected * 2.0 ** -46)


class TestVranlcAndStream:
    def test_vranlc_matches_sequential_randlc(self):
        seq, state = common.vranlc(32, common.DEFAULT_SEED,
                                   common.LCG_MULTIPLIER)
        x = common.DEFAULT_SEED
        expected = []
        for _ in range(32):
            u, x = common.randlc(x, common.LCG_MULTIPLIER)
            expected.append(u)
        assert np.allclose(seq, expected, rtol=0, atol=0)
        assert state == x

    def test_stream_matches_vranlc(self):
        stream = common.RandlcStream(block=64)
        got, got_state = stream.uniforms(common.DEFAULT_SEED)
        ref, ref_state = common.vranlc(64, common.DEFAULT_SEED,
                                       common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)
        assert got_state == ref_state

    def test_stream_partial_block(self):
        stream = common.RandlcStream(block=64)
        got, _ = stream.uniforms(common.DEFAULT_SEED, n=10)
        ref, _ = common.vranlc(10, common.DEFAULT_SEED,
                               common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)

    def test_stream_chaining_matches_one_shot(self):
        stream = common.RandlcStream(block=32)
        first, state = stream.uniforms(common.DEFAULT_SEED)
        second, _ = stream.uniforms(state)
        ref, _ = common.vranlc(64, common.DEFAULT_SEED,
                               common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(np.concatenate([first, second]), ref)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1000, 4097, 2 ** 17])
    def test_power_table_matches_vranlc_bitwise(self, block):
        # the doubling construction must reproduce the sequential
        # generator: a**k mod 2**46 scaled by 2**-46 is the k-th uniform
        # of the stream seeded with 1
        stream = common.RandlcStream(block=block)
        ref, _ = common.vranlc(block - 1, 1.0, common.LCG_MULTIPLIER)
        assert stream._powers[0] == 1.0
        assert (common.R46 * stream._powers[1:]).tobytes() == ref.tobytes()

    def test_stream_rejects_oversized_request(self):
        stream = common.RandlcStream(block=8)
        with pytest.raises(ValueError):
            stream.uniforms(common.DEFAULT_SEED, n=9)

    def test_stream_rejects_bad_block(self):
        with pytest.raises(ValueError):
            common.RandlcStream(block=0)


class TestIpow46:
    def test_zero_exponent_is_identity(self):
        assert common.ipow46(common.LCG_MULTIPLIER, 0) == 1.0

    @pytest.mark.parametrize("exponent", [1, 2, 3, 7, 16, 33, 100])
    def test_matches_repeated_multiplication(self, exponent):
        a = common.LCG_MULTIPLIER
        expected = pow(int(a), exponent, 2 ** 46)
        assert int(common.ipow46(a, exponent)) == expected

    def test_jump_ahead_matches_sequential_stream(self):
        # advancing the seed by ipow46(a, n) equals n sequential draws
        n = 37
        t = common.ipow46(common.LCG_MULTIPLIER, n)
        _, jumped = common.randlc(common.DEFAULT_SEED, t)
        x = common.DEFAULT_SEED
        for _ in range(n):
            _, x = common.randlc(x, common.LCG_MULTIPLIER)
        assert jumped == x


class TestNorms:
    def test_rms_norm_of_constant_field(self):
        field = np.full((4, 4, 4), 2.0)
        # denominator is prod(n - 2) = 2*2*2 = 8
        value = common.rms_norm(field, (4, 4, 4))
        assert value == pytest.approx(np.sqrt(np.sum(field ** 2) / 8.0))

    def test_weighted_abs_sum(self):
        field = np.array([-1.0, 2.0, -3.0])
        weights = np.array([1.0, 0.5, 2.0])
        assert common.weighted_abs_sum(field, weights) == pytest.approx(8.0)


class TestMatmulAlongAxis:
    SHAPE = (4, 5, 3)

    @staticmethod
    def _oracle(matrix, field, axis):
        return np.moveaxis(np.tensordot(matrix, field, axes=(1, axis)),
                           0, axis)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_tensordot_with_a_rectangular_matrix(self, axis):
        rng = np.random.default_rng(axis)
        field = rng.random(self.SHAPE)
        matrix = rng.random((7, self.SHAPE[axis]))
        got = common.matmul_along_axis(matrix, field, axis)
        np.testing.assert_allclose(got, self._oracle(matrix, field, axis),
                                   rtol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gradient_and_probe_batch(self, axis):
        rng = np.random.default_rng(10 + axis)
        matrix = rng.random((2, self.SHAPE[axis]))
        weights = rng.random(self.SHAPE[:axis] + (2,)
                             + self.SHAPE[axis + 1:])
        fields = [rng.random(self.SHAPE) for _ in range(3)]

        def f(x):
            return ops.sum(common.matmul_along_axis(matrix, x, axis)
                           * weights)

        per = []
        for field in fields:
            with Tape() as tape:
                x = tape.watch(field, name="x")
                out = f(x)
            per.append(backward(tape, out, [x])[0])
        # d sum(w * M.x) / dx is M^T applied to w along the axis
        expected = self._oracle(matrix.T, weights, axis)
        np.testing.assert_allclose(per[0], expected, rtol=1e-14)
        with Tape() as tape, probe_axis(3):
            x = tape.watch(np.stack(fields), name="x")
            out = f(x)
        (batched,) = backward(tape, out, [x])
        for p in range(3):
            assert batched[p].tobytes() == per[p].tobytes()


class TestVerificationResult:
    def test_bool_reflects_passed(self):
        good = common.VerificationResult("BT", True, 1e-8)
        bad = common.VerificationResult("BT", False, 1e-8)
        assert good and not bad

    def test_summary_mentions_status_and_details(self):
        result = common.VerificationResult("MG", False, 1e-8,
                                           {"rnm2": 0.5}, notes="blew up")
        text = result.summary()
        assert "UNSUCCESSFUL" in text
        assert "rnm2" in text
        assert "blew up" in text

    def test_relative_error_handles_zero_reference(self):
        assert common.relative_error(0.5, 0.0) == 0.5
        assert common.relative_error(1.0, 2.0) == pytest.approx(0.5)

    def test_within_epsilon(self):
        assert common.within_epsilon(1.0 + 1e-9, 1.0, 1e-8)
        assert not common.within_epsilon(1.1, 1.0, 1e-8)
