"""Tests for forward mode, activity analysis and gradient checks."""

import numpy as np
import pytest

from repro import ad
from repro.ad import activity, checks, forward, ops
from repro.ad.tape import Tape


class TestForwardMode:
    def test_dual_basic_arithmetic(self):
        d = forward.Dual(np.array([2.0]), np.array([1.0]))
        out = d * d + 3.0 * d + 1.0
        assert np.isclose(out.value[0], 11.0)
        assert np.isclose(out.tangent[0], 2 * 2.0 + 3.0)

    def test_dual_division(self):
        d = forward.Dual(np.array([4.0]), np.array([1.0]))
        out = 1.0 / d
        assert np.isclose(out.tangent[0], -1.0 / 16.0)

    def test_dual_chain_of_functions(self):
        d = forward.Dual(np.array([0.5]), np.array([1.0]))
        out = forward.exp(forward.sin(d))
        expected = np.exp(np.sin(0.5)) * np.cos(0.5)
        assert np.isclose(out.tangent[0], expected)

    def test_dual_matmul(self):
        A = np.arange(6.0).reshape(2, 3)
        d = forward.Dual(np.ones(3), np.array([1.0, 0.0, 0.0]))
        out = A @ d
        assert np.allclose(out.tangent, A[:, 0])

    def test_dual_power_and_abs(self):
        d = forward.Dual(np.array([-2.0]), np.array([1.0]))
        assert np.isclose((d ** 2).tangent[0], -4.0)
        assert np.isclose(abs(d).tangent[0], -1.0)

    def test_dual_getitem_and_sum(self):
        d = forward.Dual(np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0]))
        out = forward.sum(d[1:3])
        assert np.isclose(out.tangent, 5.0)

    def test_jvp_matches_reverse_gradient(self):
        x = np.linspace(0.2, 1.5, 8)
        v = np.random.default_rng(3).standard_normal(8)

        def f_rev(z):
            return ops.sum(ops.sqrt(z) * ops.sin(z))

        def f_fwd(z):
            return forward.sum(z.sqrt() * z.sin())

        g = ad.grad(f_rev)(x)
        assert np.isclose(forward.jvp(f_fwd, x, v), float(np.dot(g, v)))

    def test_jvp_scalar_requirement(self):
        with pytest.raises(ValueError):
            forward.jvp(lambda d: d, np.ones(3), np.ones(3))

    def test_jvp_constant_function_is_zero(self):
        assert forward.jvp(lambda d: 3.0, np.ones(2), np.ones(2)) == 0.0

    def test_dual_shape_broadcast_tangent(self):
        d = forward.Dual(np.ones((2, 3)), 0.0)
        assert d.tangent.shape == (2, 3)


class TestForwardModeFixes:
    def test_dual_preserves_float32(self):
        # regression: Dual used to force-cast every entry to float64
        d = forward.Dual(np.ones(3, dtype=np.float32),
                         np.ones(3, dtype=np.float32))
        assert d.value.dtype == np.float32
        assert d.tangent.dtype == np.float32
        out = d * d + 1.0
        assert out.value.dtype == np.float32
        assert out.tangent.dtype == np.float32

    def test_jvp_preserves_float32(self):
        x = np.linspace(0.5, 2.0, 4, dtype=np.float32)
        v = np.ones(4, dtype=np.float32)
        seen = {}

        def f(d):
            seen["value"] = d.value.dtype
            return forward.sum(d * d)

        forward.jvp(f, x, v)
        assert seen["value"] == np.float32

    def test_dual_int_input_promotes_to_float64(self):
        d = forward.Dual(np.arange(3))
        assert d.value.dtype == np.float64

    def test_pow_tangent_finite_at_zero_base(self):
        # regression: e * v**(e-1) emitted inf/nan at v == 0 for
        # fractional exponents
        d = forward.Dual(np.array([0.0, 4.0]), np.array([1.0, 1.0]))
        out = d ** 0.5
        assert np.all(np.isfinite(out.tangent))
        assert out.tangent[0] == 0.0
        assert np.isclose(out.tangent[1], 0.25)

    def test_pow_tangent_unchanged_away_from_zero(self):
        d = forward.Dual(np.array([2.0]), np.array([1.0]))
        assert np.isclose((d ** 3.0).tangent[0], 12.0)

    def _reverse_grad(self, f, x):
        from repro.ad.tape import Tape as _Tape

        with _Tape() as t:
            leaf = t.watch(np.array(x, copy=True), name="x")
            out = f(leaf)
        return t.gradient(out, [leaf])[0]

    def test_maximum_minimum_tie_conventions_match_ops(self):
        # ties send the tangent to the first operand -- the exact av>=bv /
        # av<=bv masks of ops.MINMAX_RULES, pinned bitwise
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        other = np.array([0.0, 0.0, 1.0, 3.0])
        for fwd, op in ((forward.maximum, ops.maximum),
                        (forward.minimum, ops.minimum)):
            g_rev = self._reverse_grad(lambda z: ops.sum(op(z, other)), x)
            d = fwd(forward.Dual(x, np.ones_like(x)), other)
            np.testing.assert_array_equal(d.tangent, g_rev)
            np.testing.assert_array_equal(d.value, op(x, other))

    def test_clip_inclusive_bounds_match_ops(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        g_rev = self._reverse_grad(
            lambda z: ops.sum(ops.clip(z, -1.0, 1.0)), x)
        d = forward.clip(forward.Dual(x, np.ones_like(x)), -1.0, 1.0)
        np.testing.assert_array_equal(d.tangent, g_rev)

    def test_where_condition_not_differentiable(self):
        x = np.array([-1.0, 0.5, 2.0])
        g_rev = self._reverse_grad(
            lambda z: ops.sum(ops.where(z > 0.0, z * 2.0, z * 3.0)), x)
        d = forward.where(x > 0.0,
                          forward.Dual(x, np.ones_like(x)) * 2.0,
                          forward.Dual(x, np.ones_like(x)) * 3.0)
        np.testing.assert_array_equal(d.tangent, g_rev)

    def test_piecewise_helpers_pass_through_plain_arrays(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(forward.maximum(x, 0.0),
                                      np.maximum(x, 0.0))
        np.testing.assert_array_equal(forward.clip(x, -1.0, 1.0),
                                      np.clip(x, -1.0, 1.0))
        np.testing.assert_array_equal(forward.where(x > 0, x, 0.0),
                                      np.where(x > 0, x, 0.0))

    def test_jvp_error_names_output_shape(self):
        with pytest.raises(ValueError, match=r"got output shape \(3,\)"):
            forward.jvp(lambda d: d, np.ones(3), np.ones(3))

    def test_directional_derivative_validates_shapes(self):
        with pytest.raises(ValueError,
                           match=r"direction shape \(2,\).*point shape "
                                 r"\(3,\)"):
            forward.directional_derivative(lambda d: forward.sum(d),
                                           np.ones(3), np.ones(2))

    def test_directional_derivative_still_works(self):
        val = forward.directional_derivative(
            lambda d: forward.sum(d * d), np.arange(3.0), np.ones(3))
        assert np.isclose(val, 6.0)


class TestActivityAnalysis:
    def test_sliced_read_marks_region(self):
        with Tape() as t:
            x = t.watch(np.arange(10.0), name="x")
            ops.sum(x[2:7] * 2.0)
        res = activity.read_mask(t, x)
        assert res.read[2:7].all()
        assert not res.read[:2].any() and not res.read[7:].any()
        assert res.n_read == 5 and res.n_unread == 5

    def test_whole_array_op_marks_everything(self):
        with Tape() as t:
            x = t.watch(np.arange(6.0))
            ops.sum(x * x)
        res = activity.read_mask(t, x)
        assert res.read.all()

    def test_setitem_overwrite_does_not_count_as_read(self):
        with Tape() as t:
            x = t.watch(np.arange(6.0))
            y = x.copy()                 # movement only
            y[0:3] = 0.0
            ops.sum(y)
        res = activity.read_mask(t, x)
        # x itself was only consumed through copy/index_update movement
        assert res.n_read == 0
        assert res.moved.any()

    def test_direct_index_update_complement_moved(self):
        with Tape() as t:
            x = t.watch(np.arange(6.0))
            y = ops.index_update(x, slice(0, 2), 0.0)
            ops.sum(y)
        res = activity.read_mask(t, x)
        assert not res.read.any()
        assert not res.moved[0:2].any()
        assert res.moved[2:].all()

    def test_index_add_addend_is_read(self):
        # regression: a leaf appearing as the *added operand* of index_add
        # is consumed by the addition, not merely moved -- it used to be
        # classified as pure data movement
        with Tape() as t:
            x = t.watch(np.arange(4.0), name="x")
            acc = ops.index_add(np.zeros(8), np.array([1, 2, 3, 4]), x)
            ops.sum(acc)
        res = activity.read_mask(t, x)
        assert res.read.all()
        assert not res.moved.any()

    def test_index_add_target_is_moved_not_read(self):
        with Tape() as t:
            x = t.watch(np.arange(6.0), name="x")
            acc = ops.index_add(x, np.array([0, 1]), np.ones(2))
            ops.sum(acc)
        res = activity.read_mask(t, x)
        # every old value of the target survives into the copy (summed at
        # the updated region): movement, not a read
        assert not res.read.any()
        assert res.moved.all()

    def test_index_add_matches_ad_criticality(self):
        # the AD gradient marks the addend critical; the fixed read-set
        # analysis must agree (it used to report zero reads here)
        with Tape() as t:
            x = t.watch(np.arange(4.0) + 1.0, name="x")
            acc = ops.index_add(np.zeros(8), np.array([1, 2, 3, 4]), x)
            out = ops.sum(acc)
        g = t.gradient(out, [x])[0]
        res = activity.read_mask(t, x)
        assert (g != 0.0).all()
        assert res.read.all()

    def test_index_update_value_operand_is_moved(self):
        # a leaf written *into* another array travels verbatim: movement
        with Tape() as t:
            x = t.watch(np.arange(3.0), name="x")
            y = ops.index_update(np.zeros(6), slice(0, 3), x)
            ops.sum(y)
        res = activity.read_mask(t, x)
        assert not res.read.any()
        assert res.moved.all()

    def test_activity_superset_of_ad_mask(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(20)

        with Tape() as t:
            x = t.watch(base, name="x")
            # read 0..14, but elements 10..14 are multiplied by zero
            used = x[0:15]
            weights = np.concatenate([np.ones(10), np.zeros(5)])
            out = ops.sum(used * weights)
        g = t.gradient(out, [x])[0]
        res = activity.read_mask(t, x)
        ad_critical = g != 0.0
        assert (res.read | ~ad_critical).all()   # read ⊇ ad_critical
        assert res.read[10:15].all()             # read but not critical
        assert not ad_critical[10:15].any()

    def test_gather_via_take_marks_only_taken(self):
        with Tape() as t:
            x = t.watch(np.arange(10.0))
            ops.sum(ops.take(x, np.array([1, 3, 5])) * 2.0)
        res = activity.read_mask(t, x)
        assert res.read[[1, 3, 5]].all()
        assert res.n_read == 3

    def test_advanced_getitem_marks_indexed(self):
        with Tape() as t:
            x = t.watch(np.arange(10.0))
            ops.sum(x[np.array([0, 0, 9])] ** 2)
        res = activity.read_mask(t, x)
        assert res.read[0] and res.read[9]
        assert res.n_read == 2

    def test_read_masks_multiple_leaves(self):
        with Tape() as t:
            x = t.watch(np.arange(4.0), name="x")
            y = t.watch(np.arange(6.0), name="y")
            ops.sum(x * 2.0) + ops.sum(y[0:2])
        rx, ry = activity.read_masks(t, [x, y])
        assert rx.name == "x" and ry.name == "y"
        assert rx.read.all()
        assert ry.n_read == 2

    def test_untraced_leaf_raises(self):
        with Tape() as t:
            t.watch(np.ones(3))
        with pytest.raises(ValueError):
            activity.read_mask(t, ad.ADArray(np.ones(3)))


class TestChecks:
    def test_finite_difference_full(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        g = checks.finite_difference_grad(f, np.arange(4.0))
        assert np.allclose(g, 2.0 * np.arange(4.0), atol=1e-5)

    def test_finite_difference_subset(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        g = checks.finite_difference_grad(f, np.arange(6.0), indices=[1, 4])
        assert np.isnan(g[0]) and np.isnan(g[5])
        assert np.isclose(g[1], 2.0, atol=1e-5)
        assert np.isclose(g[4], 8.0, atol=1e-5)

    def test_check_gradient_passes_for_correct_function(self):
        res = checks.check_gradient(
            lambda x: ops.sum(ops.exp(x) * ops.sin(x)),
            np.linspace(0.1, 1.2, 40))
        assert res.passed
        assert res.n_checked == 20

    def test_check_gradient_detects_wrong_scale(self):
        """A deliberately wrong function of the checked value must fail."""
        def good(x):
            return ops.sum(x * x)

        # compare good AD gradient against finite differences of a different
        # function by wrapping: f used for AD, 3*f used for FD via closure
        class Lying:
            def __init__(self):
                self.calls = 0

            def __call__(self, x):
                self.calls += 1
                if isinstance(x, ad.ADArray):
                    return good(x)
                return 3.0 * float(np.sum(np.asarray(x) ** 2))

        res = checks.check_gradient(Lying(), np.linspace(0.5, 1.5, 10))
        assert not res.passed

    def test_check_against_forward_agreement(self):
        res = checks.check_against_forward(
            lambda x: ops.sum(ops.log(x) * x),
            lambda d: forward.sum(d.log() * d),
            np.linspace(0.5, 2.0, 12))
        assert res.passed

    def test_zero_pattern_agreement_structural(self):
        def f(x):
            return ops.sum(x[:10] ** 2) if isinstance(x, ad.ADArray) \
                else float(np.sum(np.asarray(x)[:10] ** 2))

        frac = checks.zero_pattern_agreement(f, np.ones(20), n_samples=20)
        assert frac == 1.0

    def test_result_repr_and_bool(self):
        res = checks.check_gradient(lambda x: ops.sum(x), np.ones(3))
        assert bool(res)
        assert "passed=True" in repr(res)
