"""The inverse-FFT pair primitive (:func:`repro.ad.ops.ifftn_pair`).

Masks cannot validate this rule: FT's checksum reads every spectral
coefficient through the transform, so a VJP or probe rule that is off by a
factor or a conjugation still marks the same elements critical.  The rule
is therefore checked on *values* against oracles that share no code with
it -- central finite differences and a dense cosine/sine DFT built by the
test itself -- on random non-cubic grids in float32 and float64.  The batch
invariance the probe axis relies on, and plan replay against the tracer,
are pinned bitwise.
"""

from __future__ import annotations

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

GRID = (3, 5, 4)


def _pair(seed=0, dtype=np.float64, grid=GRID):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (2,) + grid).astype(dtype)


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


def _weights(grid=GRID, dtype=np.float64):
    return np.linspace(0.5, 1.5, 2 * int(np.prod(grid)),
                       dtype=dtype).reshape((2,) + grid)


def _f(z, dtype=np.float64):
    """Nonlinear scalar of the transform, so the gradient depends on ``z``."""
    w = _weights(dtype=dtype)
    return ops.sum(ops.sin(ops.ifftn_pair(z) * (w * 4.0)) * w)


def _assert_bitwise(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), f"{label}: bits differ"


class TestValues:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13),
                                             (np.float32, 1e-5)])
    @pytest.mark.parametrize("grid", [GRID, (7,), (2, 6)])
    def test_matches_dense_dft(self, dtype, rtol, grid):
        z = _pair(1, dtype, grid)
        got = ops.ifftn_pair(z)
        assert got.dtype == dtype and got.shape == z.shape
        np.testing.assert_allclose(got, _dense_ifftn(z), rtol=rtol,
                                   atol=rtol)

    @pytest.mark.parametrize("grid", [GRID, (8, 8, 8), (7,), (2, 6)])
    def test_is_numpy_ifftn_bitwise(self, grid):
        # the forward map is numpy.fft.ifftn and the adjoint fftn / N, bit
        # for bit
        z = _pair(12, grid=grid)
        c = z[0] + 1j * z[1]
        inv, adj = np.fft.ifftn(c), np.fft.fftn(c)
        adj = np.stack([adj.real, adj.imag]) / c.size
        _assert_bitwise(ops.ifftn_pair(z), np.stack([inv.real, inv.imag]),
                        "ifftn")
        _assert_bitwise(ops._fft_pair(z, len(grid), False), adj, "adjoint")

    def test_untraced_input_gives_plain_array(self):
        assert type(ops.ifftn_pair(_pair())) is np.ndarray

    @pytest.mark.parametrize("shape", [(3, 5, 4), (1, 5), (2,), ()])
    def test_rejects_anything_but_a_pair(self, shape):
        with pytest.raises(ValueError, match="pair"):
            ops.ifftn_pair(np.zeros(shape))
        with Tape() as tape:
            z = tape.watch(np.zeros(shape), name="z")
            with pytest.raises(ValueError, match="pair"):
                ops.ifftn_pair(z)

    def test_probe_axis_is_not_the_pair_axis(self):
        # under a probe axis of length 2 the *logical* leading axis is the
        # pair axis: a (2, 3, 4) batch is two length-3 fields, not a pair
        with Tape() as tape, probe_axis(2):
            z = tape.watch(np.zeros((2, 3, 4)), name="z")
            with pytest.raises(ValueError, match="pair"):
                ops.ifftn_pair(z)


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
        # the gradient of sum(w * ifftn(z)) is the transposed dense map
        # applied to w, column by column of the identity
        w = _weights()
        with Tape() as tape:
            z = tape.watch(_pair(6), name="z")
            out = ops.sum(ops.ifftn_pair(z) * w)
        (g,) = backward(tape, out, [z])
        basis = np.eye(w.size).reshape((w.size,) + w.shape)
        expected = np.array([np.sum(_dense_ifftn(e) * w) for e in basis])
        np.testing.assert_allclose(g.ravel(), expected, rtol=1e-12,
                                   atol=1e-14)

    def test_vjp_does_not_retain_the_operand(self):
        with Tape() as tape:
            z = tape.watch(_pair(), name="z")
            ops.ifftn_pair(z)
        (node,) = [n for n in tape.nodes if n.op == "ifftn_pair"]
        cells = node.vjp.__closure__ or ()
        assert not any(isinstance(c.cell_contents, np.ndarray)
                       for c in cells)


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

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_blocked_batches_equal_single_slices(self, monkeypatch, block):
        # a budget of ``block`` grids per FFT call splits 5 probes into
        # calls of ``block`` slices (and a shorter last one)
        monkeypatch.setattr(ops, "_FFT_BLOCK", block * int(np.prod(GRID)))
        zs = np.random.default_rng(11).random((5, 2) + GRID)
        with Tape() as tape, probe_axis(5):
            stacked = value_of(ops.ifftn_pair(tape.watch(zs, name="z")))
        for p in range(5):
            _assert_bitwise(ops.ifftn_pair(zs[p]), stacked[p], f"probe {p}")
            _assert_bitwise(ops._fft_pair(zs[p], 3, False),
                            ops._fft_pair(zs, 3, False)[p],
                            f"adjoint probe {p}")


class _FFTBench:
    """Minimal per-iteration benchmark whose step is an inverse FFT."""

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
        z = ops.tanh(ops.ifftn_pair(state["z"]) * 4.0)
        return {"z": z, "it": int(state["it"]) + 1}

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["z"] * _weights())

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

    def traced_output(self, state, watch=None):
        return self._traced(state, watch, self.output)

    def traced_step_probes(self, state, n_probes, watch=None):
        return self._traced(state, watch, self._advance, n_probes)

    def traced_output_probes(self, state, n_probes, watch=None):
        return self._traced(state, watch, self.output, n_probes)


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
