"""Batched multi-probe sweep: equivalence with the per-probe path.

The acceptance bar mirrors the segmented sweep's: the batched probe axis
must reproduce the per-probe gradients *bitwise* (not just the masks) in
both the monolithic and the segmented sweep, for every port, because the
criticality criterion is "derivative exactly 0.0".  Masks are asserted
identical for every port as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.probes import (ProbeBatchingError, probe_axis,
                             probe_axis_size, segmented_batched_gradients,
                             stack_states)
from repro.ad.reverse import backward
from repro.ad.segmented import SweepStats, segmented_gradients
from repro.ad.tape import Tape
from repro.ad.tensor import value_of
from repro.core.criticality import CriticalityAnalyzer
from repro.npb import registry

ALL_BENCHMARKS = registry.available_benchmarks()


def _probe_states(bench, watch, n_probes, seed=1234):
    """Base state plus ``n_probes - 1`` perturbed copies."""
    state = bench.checkpoint_state(bench.total_steps // 2)
    rng = np.random.default_rng(seed)
    states = [dict(state)]
    for _ in range(n_probes - 1):
        probed = dict(state)
        for key in watch:
            base = np.asarray(probed[key], dtype=np.float64)
            probed[key] = base + 1.0e-3 * rng.standard_normal(base.shape)
        states.append(probed)
    return states


def _per_probe_monolithic(bench, states, watch):
    grads = []
    for state in states:
        tape, leaves, out = bench.traced_restart(state, watch=list(watch))
        grads.append(dict(zip(watch, backward(
            tape, out, [leaves[k] for k in watch], strict=False))))
    return grads


def _assert_bitwise(a, b, label):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, label
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: gradients differ bitwise"


# ---------------------------------------------------------------------------
# the probe-axis context
# ---------------------------------------------------------------------------

class TestProbeAxisContext:
    def test_inactive_by_default(self):
        assert probe_axis_size() is None

    def test_active_inside_context(self):
        with probe_axis(3):
            assert probe_axis_size() == 3
        assert probe_axis_size() is None

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with probe_axis(2):
                raise RuntimeError("boom")
        assert probe_axis_size() is None

    def test_rejects_nesting_and_bad_sizes(self):
        with pytest.raises(ValueError):
            with probe_axis(0):
                pass
        with probe_axis(2):
            with pytest.raises(ProbeBatchingError):
                with probe_axis(2):
                    pass

    def test_plain_numpy_unaffected_inside_context(self):
        # ops on untraced data must behave exactly like numpy even while a
        # batched trace is active (constants carry no probe axis)
        with probe_axis(4):
            assert ops.sum(np.ones((2, 3))) == 6.0
            assert ops.reshape(np.arange(6.0), (2, 3)).shape == (2, 3)
            assert np.shape(ops.matmul(np.ones((2, 2)),
                                       np.ones(2))) == (2,)


class TestStackStates:
    def test_stacks_watch_keys_and_shares_rest(self):
        states = [{"a": np.ones(3), "k": 7}, {"a": np.zeros(3), "k": 7}]
        stacked = stack_states(states, ["a"])
        assert stacked["a"].shape == (2, 3)
        assert stacked["k"] == 7

    def test_rejects_empty_and_missing_keys(self):
        with pytest.raises(ValueError):
            stack_states([], ["a"])
        with pytest.raises(KeyError):
            stack_states([{"a": 1.0}, {}], ["a"])


# ---------------------------------------------------------------------------
# primitive-level equivalence on a synthetic kernel medley
# ---------------------------------------------------------------------------

def _medley(x, y, mat):
    """Exercises every probe-sensitive primitive family in one function.

    Constant-matrix matvecs (dense and banded) have their own test.
    """
    g = x[1:5] * 2.0                                # basic getitem
    h = ops.reshape(g, (2, 2))                       # reshape
    t = ops.transpose(h)                             # transpose
    m = ops.ravel(ops.matmul(t, mat[:2, :2]))        # traced matrix @ plain
    s = ops.index_update(x, slice(0, 4), m)          # indexed write
    s2 = ops.index_add(s, np.array([1, 1, 3]), y)    # scatter-add, addend
    fancy = s2[np.array([0, 2, 4, 6])]               # advanced getitem
    mv = ops.moveaxis(ops.reshape(s2, (2, 2, 2)), 2, 0)
    red = ops.sum(ops.square(mv), axis=(0, 2))       # axis reduction
    rolled = ops.roll(s2, 3)                         # axis=None roll
    flipped = ops.flip(ops.reshape(s2, (2, 4)), axis=1)
    padded = ops.pad_zero(fancy, (1, 2))             # pad
    mx = ops.max(ops.reshape(s2, (4, 2)), axis=0)    # minmax reduction
    w = ops.where(value_of(s2) > 0.5, s2, 0.25 * s2)
    taken = ops.take(s2, np.array([0, 3, 5]))        # take, axis=None
    dotv = ops.matmul(ops.ravel(h), ops.ravel(t))    # vector . vector
    em = ops.mean(s2)                                # full mean
    return (ops.sum(red) + ops.sum(rolled * rolled) + ops.sum(flipped)
            + ops.sum(padded) + ops.sum(mx) + ops.sum(w) + ops.sum(taken)
            + ops.sum(fancy) + dotv + em + ops.norm(s2))


def test_medley_batched_matches_per_probe():
    rng = np.random.default_rng(5)
    mat = rng.random((4, 4))
    xs = [rng.random(8) for _ in range(3)]
    ys = [rng.random(3) for _ in range(3)]

    per = []
    for x0, y0 in zip(xs, ys):
        with Tape() as tape:
            x = tape.watch(x0, name="x")
            y = tape.watch(y0, name="y")
            out = _medley(x, y, mat)
        per.append(backward(tape, out, [x, y]))

    with Tape() as tape, probe_axis(3):
        x = tape.watch(np.stack(xs), name="x")
        y = tape.watch(np.stack(ys), name="y")
        out = _medley(x, y, mat)
        assert value_of(out).shape == (3,)
    gx, gy = backward(tape, out, [x, y])

    for p in range(3):
        _assert_bitwise(per[p][0], gx[p], f"medley x probe {p}")
        _assert_bitwise(per[p][1], gy[p], f"medley y probe {p}")


def _medley2(x, y):
    """Second primitive medley: the shape/joining ops _medley leaves out."""
    a = ops.expand_dims(x, 0)                         # (1, 8)
    b = ops.broadcast_to(x, (3, 8))                   # broadcast
    c = ops.concatenate([a, b, np.ones((2, 8))], axis=0)
    d = ops.stack([x, 0.5 * x, np.arange(8.0)], axis=1)
    e = ops.squeeze(ops.expand_dims(y, 1), axis=1)
    f = ops.swapaxes(ops.reshape(x, (2, 4)), 0, 1)
    g = ops.take(ops.reshape(x, (2, 4)), np.array([1, 0, 1]), axis=1)
    h = ops.prod(ops.reshape(1.0 + 0.1 * x, (2, 4)), axis=1)
    i = ops.min(d, axis=0)
    j = ops.clip(x, 0.2, 0.8)
    k = ops.minimum(x, y[0])
    return (ops.sum(c) + ops.sum(d) + ops.sum(e) + ops.sum(f * f)
            + ops.sum(g) + ops.sum(h) + ops.sum(i) + ops.sum(j)
            + ops.sum(k) + ops.mean(f, axis=1).sum())


def test_medley2_batched_matches_per_probe():
    rng = np.random.default_rng(11)
    xs = [rng.random(8) for _ in range(3)]
    ys = [rng.random(3) for _ in range(3)]

    per = []
    for x0, y0 in zip(xs, ys):
        with Tape() as tape:
            x = tape.watch(x0, name="x")
            y = tape.watch(y0, name="y")
            out = _medley2(x, y)
        per.append(backward(tape, out, [x, y]))

    with Tape() as tape, probe_axis(3):
        x = tape.watch(np.stack(xs), name="x")
        y = tape.watch(np.stack(ys), name="y")
        out = _medley2(x, y)
        assert value_of(out).shape == (3,)
    gx, gy = backward(tape, out, [x, y])

    for p in range(3):
        _assert_bitwise(per[p][0], gx[p], f"medley2 x probe {p}")
        _assert_bitwise(per[p][1], gy[p], f"medley2 y probe {p}")


def test_separated_advanced_indices_rejected():
    # numpy places the subspace of slice-separated advanced indices in
    # front of the prepended probe slice, which would silently transpose
    # the probe axis away -- must abort the batched trace instead, even
    # when the subspace length happens to equal the probe count
    idx = (np.array([0, 1]), slice(None), np.array([0, 1]))
    with pytest.raises(ProbeBatchingError, match="separated"):
        with Tape() as tape, probe_axis(2):
            x = tape.watch(np.ones((2, 3, 4, 3)), name="x")
            ops.getitem(x, idx)
    # ... while adjacent advanced groups and int+slice basic indexing are
    # fine (the patterns the NPB kernels actually use)
    with Tape() as tape, probe_axis(2):
        x = tape.watch(np.ones((2, 3, 4, 3)), name="x")
        assert ops.getitem(x, (np.array([0, 1]), np.array([0, 1]))).shape \
            == (2, 2, 3)
        assert ops.getitem(x, (slice(None), 1, np.array([0, 2]))).shape \
            == (2, 3, 2)
        assert ops.getitem(x, (0, slice(None), 1)).shape == (2, 4)


def test_probe_axis_guard_rejects_axis_loss():
    # a primitive that reduces away the probe axis must abort the batched
    # trace (that is what triggers the analyzer's per-probe fallback)
    with pytest.raises(ProbeBatchingError):
        with Tape() as tape, probe_axis(2):
            x = tape.watch(np.ones((2, 3)), name="x")
            ops.sum(x, axis=(-2, -1))  # explicitly reduces the probe axis


def test_constant_matvec_matches_per_probe():
    """Plain matrix @ probe vectors, dense and banded: bitwise per probe.

    Columns the matrix never reads are structural zeros of the gradient in
    both formulations -- exactly the pattern the masks are built from.
    """
    rng = np.random.default_rng(3)
    A = rng.random((6, 6))
    A[:, 4:] = 0.0                  # structural zeros: columns never read
    offsets = (-1, 0, 1)
    bands = rng.random((3, 6))
    bands[:, 3:] = 0.0              # empty rows 3..5: columns 4, 5 unread
    kernels = {
        "dense": lambda v: ops.matmul(A, v),
        "banded": lambda v: ops.banded_matvec(
            bands, offsets, v, ops.dia_transpose(bands, offsets)),
    }
    vs = [rng.random(6) for _ in range(3)]
    for label, kernel in kernels.items():
        per = []
        for v0 in vs:
            with Tape() as tape:
                v = tape.watch(v0, name="v")
                out = ops.sum(ops.square(kernel(v)))
            per.append(backward(tape, out, [v])[0])

        with Tape() as tape, probe_axis(3):
            v = tape.watch(np.stack(vs), name="v")
            out = ops.sum(ops.square(kernel(v)))
        (gv,) = backward(tape, out, [v])

        for p in range(3):
            _assert_bitwise(per[p], gv[p], f"{label} matvec probe {p}")
            assert per[p][4:].tolist() == [0.0, 0.0], label
            assert gv[p][4:].tolist() == [0.0, 0.0], label


def test_scalar_times_array_alignment():
    # a traced logical scalar times a plain array needs the probe axis
    # lifted past the array's dims: (P,) x (m, n) -> (P, m, n)
    c = np.arange(6.0).reshape(2, 3)
    with Tape() as tape, probe_axis(2):
        x = tape.watch(np.array([2.0, 3.0]), name="x")
        out = ops.sum(x * c)
    assert value_of(out).shape == (2,)
    assert np.allclose(value_of(out), [2.0 * c.sum(), 3.0 * c.sum()])
    (gx,) = backward(tape, out, [x])
    assert np.allclose(gx, [c.sum(), c.sum()])


# ---------------------------------------------------------------------------
# per-benchmark equivalence: monolithic and segmented
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_batched_gradients_bitwise_equal_per_probe(name):
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    if not watch:  # IS is all-integer: nothing for the AD sweep to do
        pytest.skip(f"{name} has no floating point checkpoint variables")
    states = _probe_states(bench, watch, n_probes=3)
    per = _per_probe_monolithic(bench, states, watch)
    # tail=None: one output segment traces the whole stacked run
    stacked = segmented_batched_gradients(bench, states, watch=watch,
                                          tail=None)
    for key in watch:
        assert stacked[key].shape == (3,) + np.shape(states[0][key])
        for p in range(3):
            _assert_bitwise(per[p][key], stacked[key][p],
                                f"{name}[{key}] probe {p} (monolithic)")


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_segmented_batched_gradients_bitwise_equal_per_probe(name):
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    if not watch:
        pytest.skip(f"{name} has no floating point checkpoint variables")
    states = _probe_states(bench, watch, n_probes=2)
    per = [segmented_gradients(bench, s, watch=watch) for s in states]
    stacked = segmented_batched_gradients(bench, states, watch=watch)
    for key in watch:
        for p in range(2):
            _assert_bitwise(per[p][key], stacked[key][p],
                                f"{name}[{key}] probe {p} (segmented)")


def test_segmented_batched_peak_tape_is_one_batched_iteration():
    bench = registry.create("CG", "T")
    watch = bench.default_watch_keys()
    states = _probe_states(bench, watch, n_probes=4)
    stats = SweepStats()
    segmented_batched_gradients(bench, states, watch=watch, stats=stats)
    steps = bench.total_steps - bench.total_steps // 2
    # one tape per iteration plus the output segment, regardless of probes
    assert stats.n_segments == steps + 1
    assert stats.peak_nodes * steps <= stats.total_nodes * 2


# ---------------------------------------------------------------------------
# analyzer-level equivalence: masks identical for every port and sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sweep", ("monolithic", "segmented"))
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_masks_identical_batched_vs_per_probe(name, sweep, force_per_probe):
    bench = registry.create(name, "T")
    step = bench.total_steps // 2
    state = bench.checkpoint_state(step)
    kwargs = dict(method="ad", n_probes=3, sweep=sweep)
    batched = CriticalityAnalyzer(**kwargs).analyze(bench, state=state,
                                                    step=step)
    force_per_probe()
    per_probe = CriticalityAnalyzer(**kwargs).analyze(bench, state=state,
                                                      step=step)
    assert list(batched) == list(per_probe)
    for var_name, crit in batched.items():
        ref = per_probe[var_name]
        assert np.array_equal(crit.mask, ref.mask), \
            f"{name}({var_name}) mask differs between probe modes ({sweep})"
        for key in crit.gradients:
            _assert_bitwise(crit.gradients[key],
                                ref.gradients[key],
                                f"{name}({var_name})[{key}] base gradient")


class _Minimal:
    """Bare RestartableApplication: no NPBBenchmark inheritance."""

    name = "MINI"
    total_steps = 2

    def checkpoint_variables(self):
        from repro.core.variables import CheckpointVariable, VariableKind

        return (CheckpointVariable("x", (3,), VariableKind.FLOAT,
                                   description="state"),)

    def traced_restart(self, state, watch=None, steps=None):
        tape = Tape()
        with tape:
            x = tape.watch(state["x"], name="x")
            out = ops.sum(x[:2] * x[:2])
        return tape, {"x": x}, out


def test_analyzer_falls_back_without_probe_api(recwarn):
    """A benchmark without the probe-tracing API uses the per-probe loop
    without a warning and still produces the per-probe masks."""
    bench = _Minimal()
    state = {"x": np.array([1.0, 2.0, 3.0])}
    masks = CriticalityAnalyzer(n_probes=3).analyze(bench, state=state,
                                                    step=1)
    assert masks["x"].mask.tolist() == [True, True, False]
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]


def test_analyzer_logs_the_probe_api_fallback(caplog):
    """The fallback to one sweep per probe is an INFO event naming the
    benchmark, never a warning."""
    state = {"x": np.array([1.0, 2.0, 3.0])}
    with caplog.at_level("INFO", logger="repro.core.criticality"):
        CriticalityAnalyzer(n_probes=3).analyze(_Minimal(), state=state,
                                                step=1)
    records = [rec for rec in caplog.records
               if rec.name == "repro.core.criticality"]
    assert len(records) == 1
    assert records[0].levelname == "INFO"
    assert "'MINI'" in records[0].getMessage()
    assert "one sweep per probe" in records[0].getMessage()


def test_analyzer_warns_and_falls_back_on_broadcast_failure(
        force_per_probe):
    """A kernel that breaks the probe axis mid-trace falls back with a
    RuntimeWarning and still produces the per-probe masks."""
    from repro.npb.base import NPBBenchmark
    from repro.core.variables import CheckpointVariable, VariableKind

    class Hostile(NPBBenchmark):
        name = "HOSTILE"

        def __init__(self):
            pass

        @property
        def total_steps(self):
            return 2

        def checkpoint_variables(self):
            return (CheckpointVariable("x", (3,), VariableKind.FLOAT,
                                       description="state"),)

        def initial_state(self):
            return {"x": np.array([1.0, 2.0, 3.0])}

        def _advance(self, state):
            x = state["x"]
            # float() on a traced scalar cannot broadcast over probes
            shift = float(value_of(ops.sum(x[:2] * x[:2])))
            return {"x": x + 0.001 * shift}

        def output(self, state):
            return ops.sum(state["x"][:2])

    bench = Hostile()
    state = bench.initial_state()
    with pytest.warns(RuntimeWarning, match="falling back"):
        batched = CriticalityAnalyzer(n_probes=2).analyze(bench, state=state,
                                                          step=0)
    force_per_probe()
    per_probe = CriticalityAnalyzer(n_probes=2).analyze(bench, state=state,
                                                        step=0)
    assert np.array_equal(batched["x"].mask, per_probe["x"].mask)
