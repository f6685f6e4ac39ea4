"""Unit tests for elementwise primitives and their VJPs.

Every entry of the shared rule tables (``ops.EW_BINARY_RULES``,
``ops.UNARY_RULES``, ``ops.MINMAX_RULES``) is checked against central
finite differences (:func:`repro.ad.checks.finite_difference_grad`), so a
new entry is covered the moment it is added.
"""

import numpy as np
import pytest

from repro import ad
from repro.ad import checks, ops

X = np.linspace(0.3, 2.1, 12).reshape(3, 4)
Y = np.linspace(1.1, 3.0, 12).reshape(3, 4)


class TestBinaryOps:
    @pytest.mark.parametrize("op,ref", [
        (ops.add, np.add),
        (ops.subtract, np.subtract),
        (ops.multiply, np.multiply),
        (ops.divide, np.divide),
        (ops.maximum, np.maximum),
        (ops.minimum, np.minimum),
    ])
    def test_values_match_numpy(self, op, ref):
        assert np.allclose(op(X, Y), ref(X, Y))

    def test_power_constant_exponent(self):
        f = lambda x: ops.sum(ops.power(x, 3.0))
        g = ad.grad(f)(X)
        assert np.allclose(g, 3.0 * X ** 2)

    def test_power_traced_exponent(self):
        f = lambda e: ops.sum(ops.power(X, e))
        g = ad.grad(f)(np.full(X.shape, 2.0))
        assert np.allclose(g, X ** 2 * np.log(X))

    def test_broadcasting_scalar(self):
        f = lambda x: ops.sum(x * 3.0 + 1.0)
        g = ad.grad(f)(X)
        assert np.allclose(g, 3.0)

    def test_broadcasting_row_vector(self):
        row = np.arange(1.0, 5.0)

        def f(r):
            return ops.sum(ops.multiply(X, r))

        g = ad.grad(f)(row)
        assert g.shape == row.shape
        assert np.allclose(g, X.sum(axis=0))

    def test_maximum_gradient_routing(self):
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([3.0, 4.0, 2.0])
        ga, gb = ad.grad(lambda x, y: ops.sum(ops.maximum(x, y)),
                         argnums=(0, 1))(a, b)
        # element 0: b wins; element 1: a wins; element 2: tie goes to a
        assert np.allclose(ga, [0.0, 1.0, 1.0])
        assert np.allclose(gb, [1.0, 0.0, 0.0])

    def test_mod_gradient_wrt_numerator(self):
        g = ad.grad(lambda x: ops.sum(ops.mod(x, 2.5)))(X)
        assert np.allclose(g, 1.0)


class TestUnaryOps:
    @pytest.mark.parametrize("op,ref", [
        (ops.negative, np.negative),
        (ops.absolute, np.abs),
        (ops.sqrt, np.sqrt),
        (ops.exp, np.exp),
        (ops.expm1, np.expm1),
        (ops.log, np.log),
        (ops.log1p, np.log1p),
        (ops.sin, np.sin),
        (ops.cos, np.cos),
        (ops.tan, np.tan),
        (ops.tanh, np.tanh),
        (ops.square, np.square),
        (ops.sign, np.sign),
        (ops.reciprocal, lambda a: 1.0 / a),
    ])
    def test_values_match_numpy(self, op, ref):
        assert np.allclose(op(X), ref(X))

    def test_sign_gradient_is_zero(self):
        g = ad.grad(lambda x: ops.sum(ops.sign(x)))(X)
        assert np.all(g == 0.0)

    def test_clip_passes_gradient_only_inside(self):
        x = np.array([-2.0, 0.5, 3.0])
        g = ad.grad(lambda v: ops.sum(ops.clip(v, 0.0, 1.0)))(x)
        assert np.allclose(g, [0.0, 1.0, 0.0])

    def test_abs_at_negative_values(self):
        x = np.array([-1.5, -0.1, 2.0])
        g = ad.grad(lambda v: ops.sum(ops.absolute(v)))(x)
        assert np.allclose(g, [-1.0, -1.0, 1.0])


#: ``(low, high, signed)`` input ranges keeping each unary rule inside its
#: domain and away from kinks and poles; entries without one draw from
#: [0.5, 2)
UNARY_DOMAINS = {
    "absolute": (0.2, 1.5, True),
    "exp": (-1.0, 1.0, False),
    "expm1": (-1.0, 1.0, False),
    "log1p": (-0.5, 1.5, False),
    "sin": (-2.0, 2.0, False),
    "cos": (-2.0, 2.0, False),
    "tan": (-1.2, 1.2, False),
    "tanh": (-2.0, 2.0, False),
    "sign": (0.2, 1.5, True),
    "square": (-2.0, 2.0, False),
    "reciprocal": (0.3, 2.0, True),
}

FLOAT_DTYPES = (np.float64, np.float32)

#: operand shapes of the binary checks: equal shapes and one broadcast pair
BINARY_SHAPES = (((3, 4), (3, 4)), ((3, 4), (4,)))


def _draw(rng, shape, dtype, low=0.5, high=2.0, signed=False):
    x = rng.uniform(low, high, shape)
    if signed:
        x *= rng.choice([-1.0, 1.0], shape)
    return x.astype(dtype)


def _assert_matches_fd(fun, x):
    """Reverse-mode gradient of ``sum(fun(x))`` against central FD."""
    g = ad.grad(lambda v: ops.sum(fun(v)))(x)
    fd = checks.finite_difference_grad(
        lambda v: float(np.sum(fun(v))), x)
    np.testing.assert_allclose(np.asarray(g, dtype=np.float64), fd,
                               rtol=1e-5, atol=1e-7)


#: every table-driven binary primitive (maximum/minimum carry a tie mask
#: instead of a cotangent rule, but take the same operands)
BINARY_RULES = sorted(ops.EW_BINARY_RULES) + sorted(ops.MINMAX_RULES)


class TestRuleTablesAgainstFiniteDifferences:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("shapes", BINARY_SHAPES,
                             ids=("same", "broadcast"))
    @pytest.mark.parametrize("argnum", (0, 1))
    @pytest.mark.parametrize("name", BINARY_RULES)
    def test_binary_rule(self, name, argnum, shapes, dtype):
        rng = np.random.default_rng(7)
        a, b = (_draw(rng, shape, dtype) for shape in shapes)
        # no pair near a tie, so no finite-difference stencil straddles
        # the maximum/minimum kink
        assert np.min(np.abs(np.subtract(a, b))) > 1e-3
        op = getattr(ops, name)
        if argnum == 0:
            _assert_matches_fd(lambda x: op(x, b), a)
        else:
            _assert_matches_fd(lambda y: op(a, y), b)

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("name", sorted(ops.UNARY_RULES))
    def test_unary_rule(self, name, dtype):
        rng = np.random.default_rng(3)
        x = _draw(rng, (3, 4), dtype, *UNARY_DOMAINS.get(name, ()))
        _assert_matches_fd(getattr(ops, name), x)

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_negative(self, dtype):
        # ``negative`` has its own recorder outside the unary table
        rng = np.random.default_rng(5)
        _assert_matches_fd(ops.negative, _draw(rng, (3, 4), dtype))

    @pytest.mark.parametrize("name", sorted(ops.MINMAX_RULES))
    def test_exact_tie_routes_to_first_operand(self, name):
        # the documented routing: at an exact tie the whole cotangent goes
        # to the first operand, none to the second
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([3.0, 4.0, 2.0])
        ga, gb = ad.grad(lambda x, y: ops.sum(getattr(ops, name)(x, y)),
                         argnums=(0, 1))(a, b)
        a_wins = getattr(np, name)(a, b) == a
        np.testing.assert_array_equal(ga, a_wins.astype(np.float64))
        np.testing.assert_array_equal(gb, (~a_wins).astype(np.float64))
        assert ga[2] == 1.0 and gb[2] == 0.0


class TestNonDifferentiableHelpers:
    def test_isnan_and_isfinite_on_traced(self):
        with ad.Tape() as t:
            x = t.watch(np.array([1.0, np.nan]))
            assert ops.isnan(x).tolist() == [False, True]
            assert ops.isfinite(x).tolist() == [True, False]

    def test_allclose_on_traced(self):
        with ad.Tape() as t:
            x = t.watch(np.ones(3))
            assert ops.allclose(x, np.ones(3))

    def test_comparisons_return_plain_bool_arrays(self):
        with ad.Tape() as t:
            x = t.watch(np.array([1.0, 2.0, 3.0]))
            mask = x > 1.5
        assert isinstance(mask, np.ndarray)
        assert mask.dtype == bool
        assert mask.tolist() == [False, True, True]


class TestUntracedFastPath:
    """Ops on plain numpy inputs must return plain numpy outputs."""

    @pytest.mark.parametrize("result", [
        ops.add(X, Y), ops.multiply(X, 2.0), ops.sqrt(X), ops.sum(X),
        ops.reshape(X, (4, 3)), ops.getitem(X, (slice(0, 2),)),
        ops.matmul(X, Y.T),
    ])
    def test_returns_plain_numpy(self, result):
        assert not isinstance(result, ad.ADArray)

    def test_no_tape_suspends_recording(self):
        with ad.Tape() as t:
            x = t.watch(np.ones(4))
            with ad.no_tape():
                y = x * 2.0
            z = ops.sum(x * 3.0)
        assert not isinstance(y, ad.ADArray) or y.node is None
        assert isinstance(z, ad.ADArray)
