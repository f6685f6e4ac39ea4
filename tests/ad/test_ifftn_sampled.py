"""The sampled inverse-FFT primitive (:func:`repro.ad.ops.ifftn_sampled`).

Masks cannot validate this rule: FT's checksum reads every spectral
coefficient through the transform, so a VJP or probe rule that is off by a
factor or a conjugation still marks the same elements critical.  The rule
is therefore checked on *values* against oracles that share no code with
it -- central finite differences and a dense cosine/sine DFT built by the
test itself -- on random non-cubic grids in float32 and float64.  It is
pinned bitwise against the numpy chain it replaced in FT (scale, stack,
``ifftn``, gather; adjoint scatter, ``fftn / N``, scale) on FT's own grids
and sample points.  The kernel's blocked and pruned passes (the forward's
last pass and the adjoint's first run only on the lines that hold a sample)
must reproduce that chain in float32 and float64 for any block budget, and
the forward must stay below one complex grid of memory.  The batch
invariance the probe axis relies on, and plan replay against the tracer,
are pinned bitwise.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.checks import finite_difference_grad
from repro.ad.plan import PlanCache
from repro.ad.probes import probe_axis, segmented_batched_gradients
from repro.ad.reverse import backward
from repro.ad.segmented import segmented_gradients
from repro.ad.tape import Tape
from repro.ad.tensor import value_of
from repro.npb.ft import FT

GRID = (3, 5, 4)


def _pair(seed=0, dtype=np.float64, grid=GRID):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (2,) + grid).astype(dtype)


def _scale(grid=GRID, dtype=np.float64):
    return np.linspace(0.25, 1.25, int(np.prod(grid)),
                       dtype=dtype).reshape(grid)


def _points(grid=GRID, count=None, seed=3):
    """``count`` distinct grid points (every point when ``None``)."""
    size = int(np.prod(grid))
    flat = np.arange(size) if count is None else \
        np.random.default_rng(seed).choice(size, count, replace=False)
    return np.unravel_index(flat, grid)


def _dense_ifftn(z):
    """Inverse DFT of a stacked pair from explicit cosine/sine matrices.

    Per axis of length ``n``, with ``C = cos(2 pi j k / n)`` and
    ``S = sin(2 pi j k / n)``, the inverse DFT ``(C + iS)(a + ib) / n`` is
    ``((C a - S b) / n, (C b + S a) / n)``.
    """
    re, im = (np.asarray(c, dtype=np.float64) for c in z)
    for axis in range(re.ndim):
        n = re.shape[axis]
        j = np.arange(n)
        angle = 2.0 * np.pi * np.outer(j, j) / n
        cos_m, sin_m = np.cos(angle), np.sin(angle)

        def along(mat, field):
            return np.moveaxis(np.tensordot(mat, field, axes=(1, axis)),
                               0, axis)

        re, im = ((along(cos_m, re) - along(sin_m, im)) / n,
                  (along(cos_m, im) + along(sin_m, re)) / n)
    return np.stack([re, im])


def _dense_samples(z, scale, points):
    return _dense_ifftn(z * scale)[(slice(None),) + tuple(points)]


def _sampled(z, scale, points):
    return ops.ifftn_sampled(z[0], z[1], scale, points)


def _weights(n, dtype=np.float64):
    return np.linspace(0.5, 1.5, 2 * n, dtype=dtype).reshape(2, n)


POINTS = _points(count=17)


def _f(z, dtype=np.float64):
    """Nonlinear scalar of the samples, so the gradient depends on ``z``."""
    w = _weights(len(POINTS[0]), dtype)
    return ops.sum(ops.sin(_sampled(z, _scale(dtype=dtype), POINTS)
                           * (w * 4.0)) * w)


def _assert_bitwise(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), f"{label}: bits differ"


def _numpy_chain(re, im, scale, points, g):
    """FT's former checksum chain, spelled in numpy: both planes scaled and
    stacked, ``ifftn`` of the whole field, the samples gathered; its VJP
    scatters ``g`` onto zeros, applies ``fftn / N`` and multiplies by
    ``scale``."""
    field = np.stack([re * scale, im * scale])
    spectrum = np.empty(field.shape[1:],
                        dtype=np.result_type(re, im, scale, np.complex64))
    spectrum.real, spectrum.imag = field[0], field[1]
    inv = np.fft.ifftn(spectrum)
    at = (np.arange(2)[:, None],) + tuple(points)
    samples = np.stack([inv.real, inv.imag])[at]
    scattered = np.zeros(field.shape)
    np.add.at(scattered, at, g)
    adj = np.empty(field.shape[1:], dtype=np.complex128)
    adj.real, adj.imag = scattered[0], scattered[1]
    adj = np.fft.fftn(adj)
    pair = np.stack([adj.real, adj.imag]) / adj.size
    return samples, pair[0] * scale, pair[1] * scale


class TestValues:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13),
                                             (np.float32, 1e-5)])
    @pytest.mark.parametrize("grid", [GRID, (7,), (2, 6)])
    def test_matches_dense_dft(self, dtype, rtol, grid):
        z, scale = _pair(1, dtype, grid), _scale(grid, dtype)
        points = _points(grid, count=5)
        got = _sampled(z, scale, points)
        assert got.dtype == dtype and got.shape == (2, 5)
        np.testing.assert_allclose(got, _dense_samples(z, scale, points),
                                   rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("grid", [GRID, (8, 8, 8), (7,), (2, 6)])
    def test_is_the_numpy_chain_bitwise(self, grid):
        z, scale = _pair(12, grid=grid), _scale(grid)
        points = _points(grid, count=min(9, int(np.prod(grid))))
        g = np.random.default_rng(4).standard_normal((2, len(points[0])))
        samples, g_re, g_im = _numpy_chain(z[0], z[1], scale, points, g)
        _assert_bitwise(_sampled(z, scale, points), samples, "samples")
        got_re, got_im = ops._ifftn_samples_vjp(g[None], scale, points,
                                                grid)
        _assert_bitwise(got_re[0], g_re, "adjoint re")
        _assert_bitwise(got_im[0], g_im, "adjoint im")

    def test_untraced_input_gives_plain_array(self):
        z = _pair()
        assert type(_sampled(z, _scale(), POINTS)) is np.ndarray

    def test_rejects_a_traced_scale(self):
        with Tape() as tape:
            scale = tape.watch(_scale(), name="scale")
            with pytest.raises(TypeError, match="scale"):
                _sampled(_pair(), scale, POINTS)

    @pytest.mark.parametrize("points", [POINTS[:2], POINTS + POINTS[:1],
                                        (POINTS[0], POINTS[1][:3],
                                         POINTS[2]),
                                        tuple(p[:, None] for p in POINTS)])
    def test_rejects_points_that_do_not_match_the_grid(self, points):
        with pytest.raises(ValueError, match="index array"):
            _sampled(_pair(), _scale(), points)
        with Tape() as tape:
            z = tape.watch(_pair(), name="z")
            with pytest.raises(ValueError, match="index array"):
                _sampled(z, _scale(), points)

    def test_rejects_parts_of_different_shapes(self):
        z = _pair()
        with pytest.raises(ValueError, match="imaginary part"):
            ops.ifftn_sampled(z[0], z[1][:, :3], _scale(), POINTS)

    def test_probe_axis_is_not_a_grid_axis(self):
        # under a probe axis of length 3 a (3, 5, 4) leaf is three (5, 4)
        # fields, so three index arrays no longer match its grid
        with Tape() as tape, probe_axis(3):
            re = tape.watch(np.zeros(GRID), name="re")
            with pytest.raises(ValueError, match="index array"):
                ops.ifftn_sampled(re, re, 1.0, POINTS)


class TestReplacesFTChain:
    """Bitwise the chain FT's checksum ran before, on FT's own data."""

    @pytest.fixture(params=["T", "S"], scope="class")
    def ft(self, request):
        bench = FT(problem_class=request.param)
        p = bench.params
        state = bench.checkpoint_state(1)
        return (bench, state["y_re"][:, :, :p.nz], state["y_im"][:, :, :p.nz],
                bench._evolution_factor(2), bench._sample_indices)

    def test_unbatched(self, ft):
        _, re, im, scale, points = ft
        g = np.random.default_rng(5).standard_normal((2, len(points[0])))
        samples, g_re, g_im = _numpy_chain(re, im, scale, points, g)
        with Tape() as tape:
            leaves = [tape.watch(re, name="re"), tape.watch(im, name="im")]
            out = ops.ifftn_sampled(*leaves, scale, points)
        _assert_bitwise(value_of(out), samples, "samples")
        got_re, got_im = tape.nodes[-1].vjp(g)
        _assert_bitwise(got_re, g_re, "cotangent re")
        _assert_bitwise(got_im, g_im, "cotangent im")

    def test_under_a_probe_axis(self, ft):
        _, re, im, scale, points = ft
        res = [re * (1.0 + 1e-3 * k) for k in range(3)]
        ims = [im * (1.0 - 1e-3 * k) for k in range(3)]
        g = np.random.default_rng(6).standard_normal((3, 2, len(points[0])))
        with Tape() as tape, probe_axis(3):
            leaves = [tape.watch(np.stack(res), name="re"),
                      tape.watch(np.stack(ims), name="im")]
            out = ops.ifftn_sampled(*leaves, scale, points)
        got_re, got_im = tape.nodes[-1].vjp(g)
        for k in range(3):
            samples, g_re, g_im = _numpy_chain(res[k], ims[k], scale,
                                               points, g[k])
            _assert_bitwise(value_of(out)[k], samples, f"samples {k}")
            _assert_bitwise(got_re[k], g_re, f"cotangent re {k}")
            _assert_bitwise(got_im[k], g_im, f"cotangent im {k}")


@pytest.fixture(params=["T", "S", "A"], scope="module")
def ft_grid(request):
    """FT's checksum operands at a class: the two ``0:nz`` planes of the
    spectrum, the evolution factor of step 2 and the sample points."""
    bench = FT(problem_class=request.param)
    p = bench.params
    state = bench.checkpoint_state(1)
    return (state["y_re"][:, :, :p.nz], state["y_im"][:, :, :p.nz],
            bench._evolution_factor(2), bench._sample_indices)


class TestPrunedPassesOnFTGrids:
    """The blocked, pruned kernel is bitwise the whole-grid numpy chain on
    FT's class T, S and A grids and sample sets."""

    @staticmethod
    def _operands(ft_grid, dtype, n_probes):
        re, im, scale, points = ft_grid
        res = [(re * (1.0 + 1e-3 * k)).astype(dtype) for k in range(n_probes)]
        ims = [(im * (1.0 - 1e-3 * k)).astype(dtype) for k in range(n_probes)]
        g = np.random.default_rng(7).standard_normal(
            (n_probes, 2, len(points[0])))
        return res, ims, scale.astype(dtype), points, g

    def _check(self, ft_grid, dtype, n_probes):
        # the kernels themselves: a tape would watch the planes in float64
        res, ims, scale, points, g = self._operands(ft_grid, dtype, n_probes)
        out = ops._ifftn_samples(np.stack(res), np.stack(ims), scale, points)
        got_re, got_im = ops._ifftn_samples_vjp(g, scale, points,
                                                res[0].shape)
        for k in range(n_probes):
            samples, g_re, g_im = _numpy_chain(res[k], ims[k], scale,
                                               points, g[k])
            _assert_bitwise(out[k], samples, f"samples {k}")
            _assert_bitwise(got_re[k], g_re, f"cotangent re {k}")
            _assert_bitwise(got_im[k], g_im, f"cotangent im {k}")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_probe(self, ft_grid, dtype):
        self._check(ft_grid, dtype, 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("budget", ["5 rows", "2 grids + 3 rows"])
    def test_three_probes_in_split_blocks(self, monkeypatch, ft_grid, dtype,
                                          budget):
        # 5 rows divide no FT extent, so forward blocks end inside a probe
        # and span two; 2 grids + 3 rows also give the adjoint blocks of two
        # probes and a last one of one
        nx, ny, nz = ft_grid[0].shape
        rows = 5 if budget == "5 rows" else 2 * nx + 3
        monkeypatch.setattr(ops, "_FFT_BLOCK", rows * ny * nz)
        self._check(ft_grid, dtype, 3)

    def test_forward_peaks_below_one_complex_grid(self):
        bench = FT(problem_class="A")
        p = bench.params
        y = bench.initial_state()
        re, im = y["y_re"][:, :, :p.nz], y["y_im"][:, :, :p.nz]
        scale, points = bench._evolution_factor(2), bench._sample_indices
        grid_nbytes = re.size * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            ops.ifftn_sampled(re, im, scale, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_nbytes, f"{peak} B for a {grid_nbytes} B grid"


class TestDerivatives:
    @pytest.mark.parametrize("dtype, eps, rtol", [(np.float64, 1e-6, 1e-7),
                                                  (np.float32, 1e-2, 2e-3)])
    def test_vjp_matches_finite_differences(self, dtype, eps, rtol):
        z0 = _pair(2, dtype)
        with Tape() as tape:
            z = tape.watch(z0, name="z")
            out = _f(z, dtype)
        # the reverse sweep carries cotangents in float64 whatever the
        # value dtype; the float32 forward values still set the gradient
        (g,) = backward(tape, out, [z])
        fd = finite_difference_grad(
            lambda v: value_of(_f(v.astype(dtype), dtype)),
            z0.astype(np.float64), eps=eps)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(g, fd, rtol=rtol, atol=rtol * scale)

    def test_vjp_matches_dense_transpose(self):
        # the gradient of sum(w * samples(z)) is the transposed dense map
        # applied to w, column by column of the identity
        w, scale = _weights(len(POINTS[0])), _scale()
        with Tape() as tape:
            z = tape.watch(_pair(6), name="z")
            out = ops.sum(_sampled(z, scale, POINTS) * w)
        (g,) = backward(tape, out, [z])
        basis = np.eye(2 * scale.size).reshape((-1, 2) + GRID)
        expected = np.array([np.sum(_dense_samples(e, scale, POINTS) * w)
                             for e in basis])
        np.testing.assert_allclose(g.ravel(), expected, rtol=1e-12,
                                   atol=1e-14)

    def test_only_the_traced_part_gets_a_cotangent(self):
        z, scale = _pair(7), _scale()
        with Tape() as tape:
            re = tape.watch(z[0], name="re")
            out = ops.sum(ops.ifftn_sampled(re, z[1], scale, POINTS))
        (g,) = backward(tape, out, [re])
        ones = np.ones((2, len(POINTS[0])))
        _assert_bitwise(g, ops._ifftn_samples_vjp(ones[None], scale, POINTS,
                                                  GRID)[0][0], "re")

    def test_vjp_retains_no_operand(self):
        # the closure keeps ``scale`` and the sample points, no operand,
        # no transformed field and no output
        scale = _scale()
        with Tape() as tape:
            z = tape.watch(_pair(), name="z")
            _sampled(z, scale, POINTS)
        (node,) = [n for n in tape.nodes if n.op == "ifftn_sampled"]
        for cell in node.vjp.__closure__ or ():
            held = cell.cell_contents
            if isinstance(held, np.ndarray):
                assert held is scale
            elif isinstance(held, tuple):
                assert all(not isinstance(x, np.ndarray) or x.shape
                           == POINTS[0].shape for x in held)


class TestBatchInvariance:
    def test_batched_probes_equal_per_probe(self):
        zs = [_pair(s) for s in range(3)]
        per = []
        for z0 in zs:
            with Tape() as tape:
                z = tape.watch(z0, name="z")
                out = _f(z)
            per.append((value_of(out), backward(tape, out, [z])[0]))
        with Tape() as tape, probe_axis(3):
            z = tape.watch(np.stack(zs), name="z")
            out = _f(z)
        (gz,) = backward(tape, out, [z])
        for p, (value, grad) in enumerate(per):
            _assert_bitwise(value, value_of(out)[p], f"value probe {p}")
            _assert_bitwise(grad, gz[p], f"gradient probe {p}")

    def test_constant_part_broadcasts_along_the_probe_axis(self):
        zs, im = np.stack([_pair(s)[0] for s in range(3)]), _pair(9)[1]
        with Tape() as tape, probe_axis(3):
            re = tape.watch(zs, name="re")
            batched = value_of(ops.ifftn_sampled(re, im, _scale(), POINTS))
        for p in range(3):
            _assert_bitwise(ops.ifftn_sampled(zs[p], im, _scale(), POINTS),
                            batched[p], f"probe {p}")

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_blocked_batches_equal_single_slices(self, monkeypatch, block):
        # a budget of ``block`` grids per FFT call splits 5 probes into
        # calls of ``block`` slices (and a shorter last one)
        monkeypatch.setattr(ops, "_FFT_BLOCK", block * int(np.prod(GRID)))
        rng = np.random.default_rng(11)
        zs, g = rng.random((5, 2) + GRID), rng.random((5, 2, 17))
        scale = _scale()
        with Tape() as tape, probe_axis(5):
            stacked = value_of(ops.ifftn_sampled(
                tape.watch(zs[:, 0], name="re"),
                tape.watch(zs[:, 1], name="im"), scale, POINTS))
        adjoint = ops._ifftn_samples_vjp(g, scale, POINTS, GRID)
        for p in range(5):
            _assert_bitwise(_sampled(zs[p], scale, POINTS), stacked[p],
                            f"probe {p}")
            single = ops._ifftn_samples_vjp(g[p:p + 1], scale, POINTS, GRID)
            for part in range(2):
                _assert_bitwise(single[part][0], adjoint[part][p],
                                f"adjoint probe {p} part {part}")


class _FFTBench:
    """Minimal per-iteration benchmark whose step is an inverse FFT sampled
    at every grid point."""

    name = "IFFTN"

    def __init__(self, steps=4):
        self._steps = steps

    def default_watch_keys(self):
        return ["z"]

    def initial_state(self):
        return {"z": _pair(9) * 0.5, "it": 0}

    def _default_remaining_steps(self, state):
        return self._steps - int(state["it"])

    def _advance(self, state):
        z = state["z"]
        field = ops.reshape(_sampled(z, _scale(), _points()), (2,) + GRID)
        return {"z": ops.tanh(field * 4.0), "it": int(state["it"]) + 1}

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["z"] * np.linspace(0.5, 1.5, 2 * np.prod(GRID))
                       .reshape((2,) + GRID))

    def _traced(self, state, watch, body, n_probes=None):
        traced = dict(state)
        leaves = {}
        with Tape() as tape:
            for key in watch or ["z"]:
                leaves[key] = traced[key] = tape.watch(state[key], name=key)
            if n_probes is None:
                return tape, leaves, body(traced)
            with probe_axis(n_probes):
                return tape, leaves, body(traced)

    def traced_step(self, state, watch=None):
        return self._traced(state, watch, self._advance)

    def traced_restart(self, state, watch=None, steps=0):
        return self._traced(state, watch, self._restart_output(steps))

    def traced_step_probes(self, state, n_probes, watch=None):
        return self._traced(state, watch, self._advance, n_probes)

    def traced_restart_probes(self, state, n_probes, watch=None, steps=0):
        return self._traced(state, watch, self._restart_output(steps),
                            n_probes)

    def _restart_output(self, steps):
        return lambda state: self.output(self.run(state, steps))


class TestPlanReplay:
    @pytest.mark.parametrize("plan_optimize", ["fuse", "off"])
    def test_replay_equals_tracer(self, plan_optimize):
        bench = _FFTBench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for sweep in range(3):      # capture, compile, warm replay
            got = segmented_gradients(bench, state, plan_cache=cache,
                                      plan_optimize=plan_optimize)
            _assert_bitwise(reference["z"], got["z"], f"sweep {sweep}")
        assert cache.hits > 0
        assert cache.rejects == 0

    def test_batched_replay_equals_tracer(self):
        bench = _FFTBench()
        base = bench.initial_state()
        states = [dict(base, z=base["z"] + 0.01 * k) for k in range(3)]
        reference = segmented_batched_gradients(bench, states, watch=["z"],
                                                trace_cache="off")
        cache = PlanCache()
        for sweep in range(3):
            got = segmented_batched_gradients(bench, states, watch=["z"],
                                              plan_cache=cache)
            _assert_bitwise(reference["z"], got["z"], f"sweep {sweep}")
        assert cache.hits > 0
        assert cache.rejects == 0
