"""The segmented sweeps' boundary-snapshot store.

Covers :class:`repro.ad.schedule.SnapshotSchedule` itself (it keeps every
boundary; telemetry through :class:`~repro.ad.segmented.SweepStats`) plus
two contracts of the sweeps around it:

* **snapshot aliasing** -- boundaries are kept by reference, so a
  benchmark whose ``run`` mutates arrays in place must be refused with a
  named ``ValueError`` rather than silently corrupt earlier boundaries;
* **cotangent dtype drift** -- returned gradients (and the zero-cotangent
  fallback) were force-cast to float64, upcasting float32 state entries.
"""

from __future__ import annotations

import numpy as np

import pytest

from repro.ad import ops
from repro.ad.probes import segmented_batched_gradients
from repro.ad.reverse import backward
from repro.ad.schedule import (SnapshotSchedule, make_schedule,
                               snapshot_state, state_nbytes)
from repro.ad.segmented import (SweepStats, gradient_dtype,
                                segmented_gradients)
from repro.ad.tape import Tape
from repro.ad.tensor import value_of
from repro.npb import registry

ALL_BENCHMARKS = registry.available_benchmarks()

#: the ports with floating point checkpoint variables (IS is all-integer,
#: so the gradient sweeps have nothing to trace for it)
FLOAT_BENCHMARKS = [name for name in ALL_BENCHMARKS
                    if registry.create(name, "T").default_watch_keys()]


# ---------------------------------------------------------------------------
# fake benchmarks exposing the per-iteration tracing API
# ---------------------------------------------------------------------------

class SquareMapBench:
    """Minimal nonlinear benchmark: ``x <- x * x`` per iteration.

    Nonlinearity matters: the vjp of ``x * x`` *reads the boundary value*,
    so a corrupted (aliased) snapshot changes the gradients instead of
    slipping through unnoticed.  ``inplace=True`` makes the concrete ``run``
    mutate the state array in place -- the aliasing-regression trigger.
    """

    name = "SQUARE"

    def __init__(self, n: int = 5, steps: int = 4, dtype=np.float64,
                 inplace: bool = False) -> None:
        self.n = n
        self.total_steps = steps
        self.dtype = np.dtype(dtype)
        self.inplace = inplace

    def initial_state(self) -> dict:
        x = np.linspace(0.3, 1.1, self.n).astype(self.dtype)
        return {"x": x, "it": 0}

    def default_watch_keys(self) -> list[str]:
        return ["x"]

    def _default_remaining_steps(self, state) -> int:
        return max(self.total_steps - int(value_of(state["it"])), 0)

    def run(self, state, steps: int) -> dict:
        current = dict(state)
        for _ in range(steps):
            x = np.asarray(value_of(current["x"]))
            if self.inplace:
                np.multiply(x, x, out=x)
                current["x"] = x
            else:
                current["x"] = x * x
            current["it"] = int(value_of(current["it"])) + 1
        return current

    def _watched(self, state, watch):
        if watch is None:
            watch = self.default_watch_keys()
        traced = {key: value_of(val) for key, val in state.items()}
        leaves = {}
        tape = Tape()
        with tape:
            for key in watch:
                leaves[key] = tape.watch(traced[key], name=key)
                traced[key] = leaves[key]
        return tape, leaves, traced

    def traced_step(self, state, watch=None):
        tape, leaves, traced = self._watched(state, watch)
        with tape:
            nxt = dict(traced)
            nxt["x"] = traced["x"] * traced["x"]
            nxt["it"] = int(value_of(state["it"])) + 1
        return tape, leaves, nxt

    def traced_restart(self, state, watch=None, steps=None):
        tape, leaves, traced = self._watched(state, watch)
        if steps is None:
            steps = self._default_remaining_steps(state)
        with tape:
            current = dict(traced)
            for _ in range(steps):
                current["x"] = current["x"] * current["x"]
            out = ops.sum(current["x"])
        return tape, leaves, out


def _monolithic(bench, state, watch):
    tape, leaves, out = bench.traced_restart(state, watch=list(watch))
    grads = backward(tape, out, [leaves[k] for k in watch], strict=False)
    return dict(zip(watch, grads))


def _assert_bitwise(a, b, label):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, label
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: gradients differ bitwise"


# ---------------------------------------------------------------------------
# contract: run() must not write into the boundary it is handed
# ---------------------------------------------------------------------------

#: the sweeps' refusal of an in-place run(), naming the benchmark
INPLACE_REFUSAL = r"benchmark 'SQUARE': run\(\) wrote into the state"


def _refused_sweep(bench, state):
    """Run a segmented sweep that must refuse ``bench``; return what it
    handed back (nothing) and check ``state`` kept every byte."""
    before = {key: np.asarray(val).copy() for key, val in state.items()}
    returned = []
    with pytest.raises(ValueError, match=INPLACE_REFUSAL):
        returned.append(segmented_gradients(bench, state, watch=["x"]))
    for key, want in before.items():
        got = np.asarray(state[key])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            f"caller state[{key!r}] mutated"
    return returned


class TestSnapshotAliasing:
    """Boundaries are kept by reference, so an in-place ``run`` is refused
    loudly before it writes, instead of corrupting an earlier boundary."""

    def test_inplace_run_is_refused_by_name(self):
        inplace = SquareMapBench(inplace=True)
        assert _refused_sweep(inplace, inplace.initial_state()) == []
        # a functional run() is served, bitwise equal to the monolithic sweep
        functional = SquareMapBench(inplace=False)
        state = functional.initial_state()
        ref = segmented_gradients(functional, state, watch=["x"])
        _assert_bitwise(_monolithic(functional, state, ["x"])["x"], ref["x"],
                        "functional-vs-mono")

    def test_inplace_run_leaves_caller_state_intact(self):
        bench = SquareMapBench(inplace=True)
        state = bench.initial_state()
        before = state["x"].copy()
        _refused_sweep(bench, state)
        np.testing.assert_array_equal(state["x"], before)
        assert state["x"].flags.writeable

    def test_inplace_run_per_probe_sweeps_are_refused(self):
        inplace = SquareMapBench(inplace=True)
        base = inplace.initial_state()
        probe = dict(base)
        probe["x"] = base["x"] + 1.0e-3
        # the fake has no probe-tracing hooks, so run the per-probe plain
        # sweeps: each must refuse and leave its probe state untouched
        for state in (base, probe):
            assert _refused_sweep(inplace, state) == []


# ---------------------------------------------------------------------------
# regression: cotangent dtype drift on float32 state
# ---------------------------------------------------------------------------

class TestGradientDtype:
    def test_float32_state_gets_float32_gradients(self):
        bench = SquareMapBench(dtype=np.float32)
        state = bench.initial_state()
        assert state["x"].dtype == np.float32
        grads = segmented_gradients(bench, state, watch=["x"])
        assert grads["x"].dtype == np.float32
        # values agree with the (float64-buffered) monolithic sweep up to
        # the declared precision
        mono = _monolithic(bench, state, ["x"])
        np.testing.assert_allclose(grads["x"],
                                   np.asarray(mono["x"], dtype=np.float32),
                                   rtol=1e-6)

    def test_float64_state_still_gets_float64(self):
        bench = SquareMapBench(dtype=np.float64)
        state = bench.initial_state()
        grads = segmented_gradients(bench, state, watch=["x"])
        assert grads["x"].dtype == np.float64

    def test_unchained_watch_key_fallback_preserves_dtype(self):
        # a watched float32 entry the step never produces: its gradient
        # comes from the zero fallback, which must not upcast either
        bench = SquareMapBench(dtype=np.float32)
        state = bench.initial_state()
        state["aux"] = np.ones(3, dtype=np.float32)
        grads = segmented_gradients(bench, state, watch=["x", "aux"])
        assert grads["aux"].dtype == np.float32
        np.testing.assert_array_equal(grads["aux"], np.zeros(3))

    def test_zero_steps_zero_output_fallback_dtype(self):
        # steps=0 with an output that never touches the watched input:
        # the zero-cotangent fallback path must also preserve dtype
        class ConstantOutput(SquareMapBench):
            def traced_restart(self, state, watch=None, steps=None):
                tape, leaves, _traced = self._watched(state, watch)
                return tape, leaves, np.float64(3.0)

        bench = ConstantOutput(dtype=np.float32)
        state = bench.initial_state()
        grads = segmented_gradients(bench, state, watch=["x"], steps=0)
        assert grads["x"].dtype == np.float32
        np.testing.assert_array_equal(grads["x"],
                                      np.zeros(bench.n, dtype=np.float32))

    def test_monolithic_sweep_shares_the_dtype_contract(self):
        # the analyzer's monolithic path must report the same dtypes as the
        # segmented one, or sweep choice would change cached artefacts
        from repro.core.criticality import CriticalityAnalyzer

        bench = SquareMapBench(dtype=np.float32)
        state = bench.initial_state()
        mono = CriticalityAnalyzer()._gradients(bench, state, ["x"])
        seg = CriticalityAnalyzer(sweep="segmented")._gradients(
            bench, state, ["x"])
        assert mono["x"].dtype == np.float32
        assert seg["x"].dtype == np.float32

    def test_gradient_dtype_helper(self):
        assert gradient_dtype(np.ones(2, dtype=np.float32)) == np.float32
        assert gradient_dtype(np.ones(2)) == np.float64
        assert gradient_dtype(np.arange(3)) == np.float64  # integers
        assert gradient_dtype(2.5) == np.float64

    def test_cast_gradient_never_flushes_nonzero_to_zero(self):
        # a float64 derivative below float32's subnormal range must not
        # become exactly 0.0 -- that would flip a critical element to
        # uncritical, the one error the criticality criterion cannot make
        from repro.ad.segmented import cast_gradient

        g = np.array([0.0, 1.0e-300, -1.0e-300, 2.5, 0.25])
        cast = cast_gradient(g, np.float32)
        assert cast.dtype == np.float32
        np.testing.assert_array_equal(cast == 0.0, g == 0.0)
        tiny = np.finfo(np.float32).smallest_subnormal
        assert cast[1] == tiny and cast[2] == -tiny
        np.testing.assert_array_equal(cast[3:], g[3:].astype(np.float32))
        # exact-width casts pass through untouched
        np.testing.assert_array_equal(cast_gradient(g, np.float64), g)


# ---------------------------------------------------------------------------
# the store itself
# ---------------------------------------------------------------------------

class TestScheduleUnits:
    STATE = {"x": np.arange(6.0), "it": 0}

    def test_snapshot_state_copies_arrays(self):
        snap = snapshot_state(self.STATE)
        assert snap["x"] is not self.STATE["x"]
        snap["x"][0] = 99.0
        assert self.STATE["x"][0] == 0.0

    def test_snapshot_state_passes_scalars_through_unchanged(self):
        # scalars must keep their Python types (concrete_state's public
        # contract, which delegates here): no silent 0-d array wrapping
        state = {"it": 3, "f": 0.5, "b": True, "s": np.float32(0.1)}
        snap = snapshot_state(state)
        assert snap["it"] == 3 and isinstance(snap["it"], int)
        assert snap["f"] == 0.5 and isinstance(snap["f"], float)
        assert snap["b"] is True
        assert isinstance(snap["s"], np.float32)

    def test_state_nbytes_counts_arrays_and_scalars(self):
        assert state_nbytes(self.STATE) == self.STATE["x"].nbytes + \
            np.asarray(0).nbytes

    def test_all_schedule_keeps_everything(self):
        sched = SnapshotSchedule(3)
        for k in range(4):
            sched.record(k, {"x": np.full(4, float(k))})
        assert sched.peak_snapshots == 4
        for k in (3, 2, 1, 0):
            assert sched.fetch(k)["x"][0] == float(k)

    def test_zero_steps(self):
        sched = make_schedule(0)
        sched.record(0, {"x": np.arange(3.0)})
        np.testing.assert_array_equal(sched.fetch(0)["x"], np.arange(3.0))
        sched.close()


# ---------------------------------------------------------------------------
# telemetry through SweepStats
# ---------------------------------------------------------------------------

class TestScheduleTelemetry:
    def test_all_policy_peak_is_every_boundary(self):
        bench = SquareMapBench(steps=6)
        stats = SweepStats()
        segmented_gradients(bench, bench.initial_state(), watch=["x"],
                            stats=stats)
        assert stats.peak_snapshots == 7
        assert stats.peak_snapshot_nbytes > 0

    def test_observe_schedule_sums_simultaneous_schedules(self):
        a, b = SnapshotSchedule(1), SnapshotSchedule(1)
        a.record(0, {"x": np.ones(4)})
        b.record(0, {"x": np.ones(8)})
        stats = SweepStats()
        stats.observe_schedule(a, b)
        assert stats.peak_snapshots == 2
        assert stats.peak_snapshot_nbytes == 4 * 8 + 8 * 8


# ---------------------------------------------------------------------------
# NPB acceptance: every boundary kept, nothing else resident or mutated
# ---------------------------------------------------------------------------

def _mid_state(name):
    bench = registry.create(name, "T")
    return bench, bench.checkpoint_state(bench.total_steps // 2)


def _boundary_nbytes(bench, *states):
    """Resident payload of every boundary ``state .. end of loop`` of each
    of ``states``, run forward: each distinct array buffer once (across all
    of them), scalars per boundary."""
    boundaries = []
    for state in states:
        boundaries.append(state)
        for _ in range(bench._default_remaining_steps(state)):
            boundaries.append(bench.run(boundaries[-1], 1))
    distinct, scalars = [], 0
    for boundary in boundaries:
        for val in boundary.values():
            if not isinstance(val, np.ndarray):
                scalars += np.asarray(val).nbytes
            elif not any(np.shares_memory(val, seen) for seen in distinct):
                distinct.append(val)
    return sum(arr.nbytes for arr in distinct) + scalars


def _assert_state_unchanged(before, after, label):
    assert list(before) == list(after), label
    for key, want in before.items():
        got = np.asarray(value_of(after[key]))
        want = np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape, \
            f"{label}[{key}]"
        assert got.tobytes() == want.tobytes(), f"{label}[{key}] mutated"


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_npb_snapshot_peak_is_every_boundary(name):
    # every boundary resident at once, a buffer shared between boundaries
    # (an array a step passes through unchanged) counted once
    bench, state = _mid_state(name)
    stats = SweepStats()
    segmented_gradients(bench, state, stats=stats)
    assert stats.peak_snapshots == bench._default_remaining_steps(state) + 1
    assert stats.peak_snapshot_nbytes == _boundary_nbytes(bench, state)


@pytest.mark.parametrize("name", FLOAT_BENCHMARKS)
def test_npb_batched_snapshot_peak_counts_shared_buffers_once(name):
    # one store per probe, all resident together; a buffer both probes'
    # boundaries reference (all of boundary 0 here, and every array a step
    # passes through) is resident once
    bench, state = _mid_state(name)
    stats = SweepStats()
    probes = [state, dict(state)]
    segmented_batched_gradients(bench, probes, stats=stats)
    assert stats.peak_snapshots == \
        2 * (bench._default_remaining_steps(state) + 1)
    assert stats.peak_snapshot_nbytes == _boundary_nbytes(bench, *probes)


@pytest.mark.parametrize("name", FLOAT_BENCHMARKS)
def test_npb_boundary_snapshot_is_smaller_than_an_iteration_tape(name):
    # the premise of keeping every boundary: one snapshot costs less
    # than the one-iteration tape the segmented sweep holds anyway
    bench, state = _mid_state(name)
    stats = SweepStats()
    segmented_gradients(bench, state, stats=stats)
    assert 0 < state_nbytes(state) < stats.peak_nbytes


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_npb_sweeps_leave_the_caller_state_intact(name):
    bench, state = _mid_state(name)
    before = snapshot_state(state)
    segmented_gradients(bench, state)
    _assert_state_unchanged(before, state, f"{name} segmented")
    if bench.default_watch_keys():
        segmented_batched_gradients(bench, [state])
        _assert_state_unchanged(before, state, f"{name} batched")
