"""Unit tests for reductions and linear-algebra primitives."""

import numpy as np
import pytest

from repro import ad
from repro.ad import ops

rng = np.random.default_rng(7)


class TestReductions:
    def test_sum_all(self):
        x = rng.standard_normal((3, 4))
        g = ad.grad(lambda v: ops.sum(v))(x)
        assert np.allclose(g, 1.0)

    def test_sum_axis_keepdims(self):
        x = rng.standard_normal((3, 4))

        def f(v):
            s = ops.sum(v, axis=1, keepdims=True)
            return ops.sum(s * np.array([[1.0], [2.0], [3.0]]))

        g = ad.grad(f)(x)
        assert np.allclose(g, np.array([[1.0], [2.0], [3.0]]) * np.ones((3, 4)))

    def test_sum_axis_no_keepdims(self):
        x = rng.standard_normal((3, 4))

        def f(v):
            s = ops.sum(v, axis=0)
            return ops.sum(s * np.arange(1.0, 5.0))

        g = ad.grad(f)(x)
        assert np.allclose(g, np.tile(np.arange(1.0, 5.0), (3, 1)))

    def test_mean_gradient(self):
        x = rng.standard_normal((5,))
        g = ad.grad(lambda v: ops.mean(v))(x)
        assert np.allclose(g, 0.2)

    def test_mean_axis_gradient(self):
        x = rng.standard_normal((2, 5))
        g = ad.grad(lambda v: ops.sum(ops.mean(v, axis=1)))(x)
        assert np.allclose(g, 0.2)

    def test_max_routes_to_argmax(self):
        x = np.array([1.0, 7.0, 3.0])
        g = ad.grad(lambda v: ops.max(v))(x)
        assert np.allclose(g, [0.0, 1.0, 0.0])

    def test_min_routes_to_argmin(self):
        x = np.array([1.0, 7.0, 3.0])
        g = ad.grad(lambda v: ops.min(v))(x)
        assert np.allclose(g, [1.0, 0.0, 0.0])

    def test_max_ties_share_gradient(self):
        x = np.array([5.0, 5.0, 1.0])
        g = ad.grad(lambda v: ops.max(v))(x)
        assert np.allclose(g.sum(), 1.0)
        assert np.allclose(g, [0.5, 0.5, 0.0])

    def test_max_axis_gradient(self):
        x = np.array([[1.0, 4.0], [6.0, 2.0]])
        g = ad.grad(lambda v: ops.sum(ops.max(v, axis=1)))(x)
        assert np.allclose(g, [[0.0, 1.0], [1.0, 0.0]])

    def test_prod_gradient(self):
        x = np.array([2.0, 3.0, 4.0])
        g = ad.grad(lambda v: ops.prod(v))(x)
        assert np.allclose(g, [12.0, 8.0, 6.0])

    def test_norm2_gradient(self):
        x = np.array([3.0, 4.0])
        g = ad.grad(lambda v: ops.norm(v))(x)
        assert np.allclose(g, [0.6, 0.8])

    def test_norm1_gradient(self):
        x = np.array([3.0, -4.0])
        g = ad.grad(lambda v: ops.norm(v, ord=1))(x)
        assert np.allclose(g, [1.0, -1.0])

    def test_norm_unsupported_order(self):
        with pytest.raises(ValueError):
            ops.norm(np.ones(3), ord=3)

    def test_reduction_of_empty_gradient_path(self):
        """A watched variable that the output never uses gets a zero grad."""
        with ad.Tape() as t:
            x = t.watch(np.ones(4), name="x")
            y = t.watch(np.ones(4), name="y")
            out = ops.sum(x * 2.0)
        gx, gy = t.gradient(out, [x, y])
        assert np.allclose(gx, 2.0)
        assert np.all(gy == 0.0)


class TestMatmul:
    def test_matmul_2d_values(self):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        assert np.allclose(ops.matmul(a, b), a @ b)

    def test_matmul_2d_gradients(self):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))

        def f(x, y):
            return ops.sum(ops.matmul(x, y) * w)

        ga, gb = ad.grad(f, argnums=(0, 1))(a, b)
        assert np.allclose(ga, w @ b.T)
        assert np.allclose(gb, a.T @ w)

    def test_matmul_vector_vector(self):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        ga, gb = ad.grad(lambda x, y: ops.matmul(x, y), argnums=(0, 1))(a, b)
        assert np.allclose(ga, b)
        assert np.allclose(gb, a)

    def test_matmul_matrix_vector(self):
        a = rng.standard_normal((3, 4))
        v = rng.standard_normal(4)
        w = np.arange(1.0, 4.0)

        def f(m, x):
            return ops.sum(ops.matmul(m, x) * w)

        gm, gv = ad.grad(f, argnums=(0, 1))(a, v)
        assert np.allclose(gm, np.outer(w, v))
        assert np.allclose(gv, a.T @ w)

    def test_matmul_vector_matrix(self):
        a = rng.standard_normal(3)
        m = rng.standard_normal((3, 4))
        w = np.arange(1.0, 5.0)

        def f(x, b):
            return ops.sum(ops.matmul(x, b) * w)

        gx, gb = ad.grad(f, argnums=(0, 1))(a, m)
        assert np.allclose(gx, m @ w)
        assert np.allclose(gb, np.outer(a, w))

    def test_matmul_batched(self):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((5, 4, 2))
        w = rng.standard_normal((5, 3, 2))

        def f(x, y):
            return ops.sum(ops.matmul(x, y) * w)

        ga, gb = ad.grad(f, argnums=(0, 1))(a, b)
        assert np.allclose(ga, np.matmul(w, np.swapaxes(b, -1, -2)))
        assert np.allclose(gb, np.matmul(np.swapaxes(a, -1, -2), w))

    def test_matmul_broadcast_matrix_against_batch(self):
        a = rng.standard_normal((3, 4))            # broadcast over batch
        b = rng.standard_normal((6, 4, 2))
        w = rng.standard_normal((6, 3, 2))

        def f(x, y):
            return ops.sum(ops.matmul(x, y) * w)

        ga, gb = ad.grad(f, argnums=(0, 1))(a, b)
        assert ga.shape == a.shape
        assert gb.shape == b.shape
        assert np.allclose(ga, np.matmul(w, np.swapaxes(b, -1, -2)).sum(axis=0))
        assert np.allclose(gb, np.matmul(a.T[None], w))

    def test_dot_alias(self):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert np.allclose(ops.dot(a, b), a @ b)

    def test_outer_product_gradient(self):
        a = np.arange(1.0, 4.0)
        b = np.arange(1.0, 3.0)
        w = rng.standard_normal((3, 2))

        def f(x, y):
            return ops.sum(ops.outer(x, y) * w)

        ga, gb = ad.grad(f, argnums=(0, 1))(a, b)
        assert np.allclose(ga, w @ b)
        assert np.allclose(gb, w.T @ a)

    def test_adarray_matmul_operator(self):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        with ad.Tape() as t:
            ta = t.watch(a)
            out = ops.sum(ta @ b)
        g = t.gradient(out, [ta])[0]
        assert np.allclose(g, np.ones((2, 2)) @ b.T)


class TestDFTViaMatmul:
    """A DFT written as explicit cosine/sine matrix products: gradients
    through matmul obey Parseval exactly, and padding the product never
    reads gets a zero gradient (FT itself uses ``ops.ifftn_sampled``)."""

    @staticmethod
    def dft_matrices(n):
        k = np.arange(n)
        ang = -2.0 * np.pi * np.outer(k, k) / n
        return np.cos(ang), np.sin(ang)

    def test_real_dft_energy_gradient(self):
        n = 8
        c, s = self.dft_matrices(n)
        x = rng.standard_normal(n)

        def f(v):
            re = ops.matmul(c, v)
            im = ops.matmul(s, v)
            return ops.sum(re * re + im * im)

        g = ad.grad(f)(x)
        # Parseval: sum |X_k|^2 = n * sum x_i^2, so gradient = 2*n*x
        assert np.allclose(g, 2.0 * n * x)

    def test_unused_padded_input_has_zero_gradient(self):
        n = 8
        c, s = self.dft_matrices(n)
        x = rng.standard_normal(n + 2)              # last 2 are padding

        def f(v):
            core = v[:n]
            re = ops.matmul(c, core)
            im = ops.matmul(s, core)
            return ops.sum(re * re + im * im)

        g = ad.grad(f)(x)
        assert np.all(g[n:] == 0.0)
        assert np.all(g[:n] != 0.0)
