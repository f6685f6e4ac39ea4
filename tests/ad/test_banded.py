"""The banded matvec primitive (:func:`repro.ad.ops.banded_matvec`).

Masks cannot catch a wrong derivative rule here: CG's matrix is symmetric,
so a VJP that applied ``A`` instead of ``A.T`` would still produce CG's
masks unchanged.  The rule is therefore checked against oracles that share
no code with it -- central finite differences and a dense matrix built by
the test itself -- on random *non-symmetric* bands with uneven offsets,
in float32 and float64.  The batch-invariance the probe axis relies on,
and plan replay against the tracer, are pinned bitwise.
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

N = 11
#: uneven, unsorted, including offsets whose band covers only a few rows
OFFSETS = (2, -3, 0, 5, -1, 9)


def _bands(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (len(OFFSETS), N)).astype(dtype)


def _dense(bands, offsets):
    n = bands.shape[1]
    a = np.zeros((n, n), dtype=bands.dtype)
    for band, offset in zip(bands, offsets):
        for i in range(n):
            if 0 <= i + offset < n:
                a[i, i + offset] = band[i]
    return a


def _matvec(bands, x):
    return ops.banded_matvec(bands, OFFSETS, x,
                             ops.dia_transpose(bands, OFFSETS))


def _f(bands, x):
    """Nonlinear scalar of the matvec, so the gradient depends on ``x``."""
    return ops.sum(ops.sin(_matvec(bands, x)) * np.linspace(0.5, 1.5, N))


def _assert_bitwise(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), f"{label}: bits differ"


class TestValues:
    def test_bands_are_not_symmetric(self):
        a = _dense(_bands(), OFFSETS)
        assert not np.allclose(a, a.T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_matvec(self, dtype):
        bands = _bands(dtype)
        x = np.random.default_rng(1).random(N).astype(dtype)
        got = _matvec(bands, x)
        assert got.dtype == dtype
        rtol = 1e-6 if dtype == np.float32 else 1e-14
        np.testing.assert_allclose(got, _dense(bands, OFFSETS) @ x,
                                   rtol=rtol, atol=rtol)

    def test_transpose_matches_dense_transpose(self):
        bands = _bands()
        bands_t = ops.dia_transpose(bands, OFFSETS)
        np.testing.assert_array_equal(
            _dense(bands_t, [-o for o in OFFSETS]),
            _dense(bands, OFFSETS).T)

    def test_rejects_traced_bands_and_wrong_length(self):
        with Tape() as tape:
            b = tape.watch(_bands(), name="b")
            with pytest.raises(TypeError, match="constant"):
                ops.banded_matvec(b, OFFSETS, np.ones(N), _bands())
        with pytest.raises(ValueError, match="offsets"):
            ops.banded_matvec(_bands(), OFFSETS[:-1], np.ones(N), _bands())
        with pytest.raises(ValueError, match="order-11"):
            ops.banded_matvec(_bands(), OFFSETS, np.ones(N + 1), _bands())


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-7),
                                             (np.float32, 1e-4)])
    def test_vjp(self, dtype, rtol):
        bands = _bands(dtype)
        x0 = np.random.default_rng(2).uniform(-1.0, 1.0, N).astype(dtype)
        with Tape() as tape:
            x = tape.watch(x0, name="x")
            out = _f(bands, x)
        (g,) = backward(tape, out, [x])
        fd = finite_difference_grad(
            lambda v: value_of(_f(bands, v.astype(dtype))), x0, eps=1e-3
            if dtype == np.float32 else 1e-6)
        np.testing.assert_allclose(g, fd, rtol=rtol, atol=rtol)


class TestBatchInvariance:
    def test_batched_probes_equal_per_probe(self):
        bands = _bands()
        xs = [np.random.default_rng(s).random(N) for s in range(3)]
        per = []
        for x0 in xs:
            with Tape() as tape:
                x = tape.watch(x0, name="x")
                out = _f(bands, x)
            per.append((value_of(out), backward(tape, out, [x])[0]))
        with Tape() as tape, probe_axis(3):
            x = tape.watch(np.stack(xs), name="x")
            out = _f(bands, x)
        (gx,) = backward(tape, out, [x])
        for p, (value, grad) in enumerate(per):
            _assert_bitwise(value, value_of(out)[p], f"value probe {p}")
            _assert_bitwise(grad, gx[p], f"gradient probe {p}")

    def test_chunked_probes_equal_single_probe(self, monkeypatch):
        # a 2-row chunk budget splits 5 probes into chunks of 2, 2, 1
        monkeypatch.setattr(ops, "_DIA_CHUNK", 2 * len(OFFSETS) * N)
        bands = _bands()
        xs = np.random.default_rng(7).random((5, N))
        with Tape() as tape, probe_axis(5):
            stacked = value_of(_matvec(bands, tape.watch(xs, name="x")))
        for p in range(5):
            _assert_bitwise(_matvec(bands, xs[p]), stacked[p], f"probe {p}")


class _BandedBench:
    """Minimal per-iteration benchmark whose step is a banded matvec."""

    name = "BANDED"

    def __init__(self, steps=4):
        self._steps = steps
        self._bands = _bands()
        self._bands_t = ops.dia_transpose(self._bands, OFFSETS)

    def default_watch_keys(self):
        return ["x"]

    def initial_state(self):
        return {"x": np.linspace(-1.0, 1.0, N), "it": 0}

    def _default_remaining_steps(self, state):
        return self._steps - int(state["it"])

    def _advance(self, state):
        y = ops.banded_matvec(self._bands, OFFSETS, state["x"],
                              self._bands_t)
        return {"x": ops.tanh(y), "it": int(state["it"]) + 1}

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["x"] * np.linspace(0.5, 1.5, N))

    def _traced(self, state, watch, body, n_probes=None):
        traced = dict(state)
        leaves = {}
        with Tape() as tape:
            for key in watch or ["x"]:
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
    def test_replay_equals_tracer(self):
        bench = _BandedBench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for sweep in range(3):      # capture, compile, warm replay
            got = segmented_gradients(bench, state, plan_cache=cache)
            _assert_bitwise(reference["x"], got["x"], f"sweep {sweep}")
        assert cache.hits > 0
        assert cache.rejects == 0

    def test_batched_replay_equals_tracer(self):
        bench = _BandedBench()
        base = bench.initial_state()
        states = [dict(base, x=base["x"] + 0.01 * k) for k in range(3)]
        reference = segmented_batched_gradients(bench, states, watch=["x"],
                                                trace_cache="off")
        cache = PlanCache()
        for sweep in range(3):
            got = segmented_batched_gradients(bench, states, watch=["x"],
                                              plan_cache=cache)
            _assert_bitwise(reference["x"], got["x"], f"sweep {sweep}")
        assert cache.hits > 0
        assert cache.rejects == 0
