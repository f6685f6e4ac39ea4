"""Snapshot schedules of the segmented sweep: equivalence and robustness.

Covers the :mod:`repro.ad.schedule` policies themselves (retention,
recompute telemetry, spill round-trip and failure modes) plus the
regressions this subsystem's introduction fixed:

* **snapshot aliasing** -- boundary snapshots used to store *references*
  into the running state, so a benchmark whose ``run`` mutates arrays in
  place silently corrupted earlier boundaries;
* **cotangent dtype drift** -- returned gradients (and the zero-cotangent
  fallback) were force-cast to float64, upcasting float32 state entries.

The acceptance bar is the segmented subsystem's usual one: gradients and
masks **bitwise identical** across ``"all"``, ``"binomial"`` and
``"spill"`` for every NPB port, in both the plain and the probe-batched
segmented sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.probes import segmented_batched_gradients
from repro.ad.reverse import backward
from repro.ad.schedule import (SNAPSHOT_SCHEDULES, BinomialSnapshots,
                               SnapshotSchedule, SpillSnapshots,
                               default_snapshot_budget, make_schedule,
                               snapshot_state, state_nbytes)
from repro.ad.segmented import (SweepStats, gradient_dtype,
                                segmented_gradients)
from repro.ad.tape import Tape
from repro.ad.tensor import value_of
from repro.ckpt.format import CheckpointFormatError
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_BENCHMARKS = registry.available_benchmarks()

#: the non-default policies, compared against "all" throughout
ALT_SCHEDULES = ("binomial", "spill")


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

    def traced_output(self, state, watch=None):
        tape, leaves, traced = self._watched(state, watch)
        with tape:
            out = ops.sum(traced["x"])
        return tape, leaves, out

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


class ExplodingOutputBench(SquareMapBench):
    """Forward pass succeeds, the output segment raises."""

    def traced_output(self, state, watch=None):
        raise RuntimeError("output segment exploded")


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
# regression: snapshot aliasing under an in-place-mutating run()
# ---------------------------------------------------------------------------

class TestSnapshotAliasing:
    @pytest.mark.parametrize("policy", SNAPSHOT_SCHEDULES)
    def test_inplace_run_matches_functional_run(self, policy, tmp_path):
        # before the copy-on-snapshot fix, every boundary aliased the same
        # mutated array and the chained gradients came out wrong
        functional = SquareMapBench(inplace=False)
        inplace = SquareMapBench(inplace=True)
        state = functional.initial_state()
        ref = segmented_gradients(functional, state, watch=["x"])
        got = segmented_gradients(inplace, dict(state), watch=["x"],
                                  snapshot_schedule=policy,
                                  snapshot_budget=2,
                                  spill_dir=tmp_path)
        _assert_bitwise(ref["x"], got["x"], f"aliasing[{policy}]")
        # and both match the monolithic sweep
        mono = _monolithic(functional, state, ["x"])
        _assert_bitwise(mono["x"], got["x"], f"aliasing-vs-mono[{policy}]")

    def test_inplace_run_leaves_caller_state_intact(self):
        bench = SquareMapBench(inplace=True)
        state = bench.initial_state()
        before = state["x"].copy()
        segmented_gradients(bench, state, watch=["x"])
        np.testing.assert_array_equal(state["x"], before)

    def test_inplace_run_batched_matches_functional(self, tmp_path):
        functional = SquareMapBench(inplace=False)
        inplace = SquareMapBench(inplace=True)
        base = functional.initial_state()
        probe = dict(base)
        probe["x"] = base["x"] + 1.0e-3
        states = [base, probe]
        # the fake has no probe-tracing hooks, so compare per-probe plain
        # sweeps instead: every probe's segmented gradients must survive
        # in-place mutation under every policy
        for policy in SNAPSHOT_SCHEDULES:
            for state in states:
                ref = segmented_gradients(functional, dict(state),
                                          watch=["x"])
                got = segmented_gradients(inplace, dict(state), watch=["x"],
                                          snapshot_schedule=policy,
                                          snapshot_budget=2,
                                          spill_dir=tmp_path)
                _assert_bitwise(ref["x"], got["x"], f"batched[{policy}]")


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
            def traced_output(self, state, watch=None):
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
# the schedules themselves
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

    def test_default_budget_is_logarithmic(self):
        assert default_snapshot_budget(0) == 2
        assert default_snapshot_budget(1000) <= 12
        assert default_snapshot_budget(10 ** 6) <= 22

    def test_all_schedule_keeps_everything(self):
        sched = SnapshotSchedule(3)
        for k in range(4):
            sched.record(k, {"x": np.full(4, float(k))})
        assert sched.peak_snapshots == 4
        for k in (3, 2, 1, 0):
            assert sched.fetch(k)["x"][0] == float(k)

    def test_binomial_respects_budget_and_recomputes(self):
        advanced = []

        def advance(state):
            advanced.append(int(state["it"]))
            return {"x": state["x"] * 2.0, "it": int(state["it"]) + 1}

        steps = 8
        sched = BinomialSnapshots(steps, advance, budget=3)
        state = {"x": np.ones(4), "it": 0}
        sched.record(0, state)
        for t in range(1, steps + 1):
            state = advance(state)
            sched.record(t, state)
        advanced.clear()
        for k in range(steps, -1, -1):
            got = sched.fetch(k)
            np.testing.assert_array_equal(got["x"], np.full(4, 2.0 ** k))
            assert int(got["it"]) == k
        assert sched.peak_snapshots <= 3
        assert sched.recomputed_steps == len(advanced) > 0
        # the walk must beat replay-from-zero-every-time
        assert sched.recomputed_steps < steps * (steps + 1) // 2

    def test_binomial_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            BinomialSnapshots(4, lambda s: s, budget=1)

    def test_make_schedule_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown snapshot schedule"):
            make_schedule("fifo", steps=3)

    def test_make_schedule_binomial_needs_advance(self):
        with pytest.raises(ValueError, match="advance"):
            make_schedule("binomial", steps=3)

    @pytest.mark.parametrize("policy", SNAPSHOT_SCHEDULES)
    def test_zero_steps(self, policy, tmp_path):
        sched = make_schedule(policy, steps=0, advance=lambda s: s,
                              spill_dir=tmp_path)
        sched.record(0, {"x": np.arange(3.0)})
        np.testing.assert_array_equal(sched.fetch(0)["x"], np.arange(3.0))
        sched.close()


class TestSpillRobustness:
    STATE = {"x": np.arange(4.0), "it": 0}

    def _recorded(self, tmp_path, boundaries=3):
        sched = SpillSnapshots(boundaries - 1, directory=tmp_path)
        for k in range(boundaries):
            sched.record(k, dict(self.STATE, it=k))
        # these tests inspect/tamper with the scratch directory directly,
        # so the asynchronous writes must have landed first
        sched.flush()
        return sched

    def test_roundtrip_is_bitwise(self, tmp_path):
        sched = self._recorded(tmp_path)
        got = sched.fetch(2)
        assert got["it"] == 2
        _assert_bitwise(self.STATE["x"], got["x"], "spill roundtrip")
        sched.close()

    def test_roundtrip_preserves_scalar_and_array_dtypes(self, tmp_path):
        # the checkpoint reader coerces 0-d non-integer records to float64;
        # the spill schedule must hand back the declared dtypes, or a
        # float32 scalar entry would trace at a different precision than
        # under "all"/"binomial" (and a bool would come back as 1.0)
        state = {"x": np.arange(4, dtype=np.float32),
                 "s": np.float32(0.1), "flag": np.True_, "it": 3}
        sched = SpillSnapshots(0, directory=tmp_path)
        sched.record(0, state)
        got = sched.fetch(0)
        assert got["x"].dtype == np.float32
        assert np.asarray(got["s"]).dtype == np.float32
        assert np.float32(got["s"]) == np.float32(0.1)
        assert np.asarray(got["flag"]).dtype == np.bool_
        assert bool(got["flag"]) is True
        assert got["it"] == 3 and isinstance(got["it"], int)
        sched.close()

    def test_batched_partial_schedule_construction_cleans_up(self, tmp_path,
                                                             monkeypatch):
        # a spill mkdtemp failure for probe 2 must still remove probe 1's
        # already-created scratch directory
        import tempfile as _tempfile

        from repro.ad import schedule as schedule_mod

        real_mkdtemp = _tempfile.mkdtemp
        calls = {"n": 0}

        def failing_mkdtemp(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError("no space left on device")
            return real_mkdtemp(*args, **kwargs)

        monkeypatch.setattr(schedule_mod.tempfile, "mkdtemp",
                            failing_mkdtemp)
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(1)
        with pytest.raises(CheckpointFormatError, match="no space"):
            segmented_batched_gradients(bench, [state, dict(state)],
                                        watch=bench.default_watch_keys(),
                                        snapshot_schedule="spill",
                                        spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_spill_file_is_reported(self, tmp_path):
        sched = self._recorded(tmp_path)
        path = sched.directory / "boundary-000002.ckpt"
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            sched.fetch(2)
        sched.close()
        assert not sched.directory.exists()

    def test_unusable_spill_dir_is_wrapped(self, tmp_path):
        # scratch-directory creation failures are spill failures too and
        # must surface under the schedule's one error type
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("a file where a directory must go")
        with pytest.raises(CheckpointFormatError,
                           match="cannot create spill scratch"):
            SpillSnapshots(1, directory=not_a_dir)

    def test_spill_write_failure_is_wrapped(self, tmp_path, monkeypatch):
        # I/O failures of the spill layer surface under the schedule's one
        # error type, distinguishable from unrelated OSErrors elsewhere;
        # with asynchronous writes the error is deferred to the next
        # synchronisation point (flush/fetch/close), never lost
        import repro.ckpt.writer as writer_mod

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(writer_mod, "write_full_checkpoint",
                            failing_write)
        sched = SpillSnapshots(1, directory=tmp_path)
        sched.record(0, dict(self.STATE))
        with pytest.raises(CheckpointFormatError, match="cannot spill"):
            sched.flush()
        sched.close()

    def test_sync_spill_write_failure_raises_in_record(self, tmp_path,
                                                       monkeypatch):
        # the synchronous mode (async_writes=False) keeps the original
        # raise-at-record semantics
        import repro.ckpt.writer as writer_mod

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(writer_mod, "write_full_checkpoint",
                            failing_write)
        sched = SpillSnapshots(1, directory=tmp_path, async_writes=False)
        with pytest.raises(CheckpointFormatError, match="cannot spill"):
            sched.record(0, dict(self.STATE))
        sched.close()

    def test_spill_write_failure_surfaces_at_close(self, tmp_path,
                                                   monkeypatch):
        # a sweep that never fetches (e.g. it failed elsewhere first on a
        # clean path) still learns about a lost spill write at close()
        import repro.ckpt.writer as writer_mod

        monkeypatch.setattr(
            writer_mod, "write_full_checkpoint",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")))
        sched = SpillSnapshots(1, directory=tmp_path)
        sched.record(0, dict(self.STATE))
        with pytest.raises(CheckpointFormatError, match="cannot spill"):
            sched.close()
        # the worker is gone and the scratch directory removed regardless
        assert not sched.directory.exists()

    def test_missing_spill_file_is_reported(self, tmp_path):
        sched = self._recorded(tmp_path)
        for path in sched.directory.glob("boundary-000002.ckpt"):
            path.unlink()
        with pytest.raises(CheckpointFormatError, match="missing"):
            sched.fetch(2)
        sched.close()

    def test_mislabelled_spill_file_is_reported(self, tmp_path):
        import shutil as _shutil

        sched = self._recorded(tmp_path)
        files = sorted(sched.directory.glob("boundary-*.ckpt"))
        _shutil.copy(files[0], files[2])  # boundary 0's bytes under 2's name
        with pytest.raises(CheckpointFormatError, match="expected boundary"):
            sched.fetch(2)
        sched.close()

    def test_close_removes_scratch_directory(self, tmp_path):
        sched = self._recorded(tmp_path)
        scratch = sched.directory
        assert scratch.is_dir() and list(scratch.iterdir())
        sched.close()
        assert not scratch.exists()
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cleans_scratch_on_success(self, tmp_path):
        bench = SquareMapBench()
        segmented_gradients(bench, bench.initial_state(), watch=["x"],
                            snapshot_schedule="spill", spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cleans_scratch_on_exception(self, tmp_path):
        bench = ExplodingOutputBench()
        with pytest.raises(RuntimeError, match="exploded"):
            segmented_gradients(bench, bench.initial_state(), watch=["x"],
                                snapshot_schedule="spill",
                                spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_batched_sweep_cleans_scratch_on_success(self, tmp_path):
        bench = registry.create("CG", "T")
        watch = bench.default_watch_keys()
        state = bench.checkpoint_state(1)
        probe = dict(state)
        probe["x"] = np.asarray(state["x"]) * 1.001
        segmented_batched_gradients(bench, [state, probe], watch=watch,
                                    snapshot_schedule="spill",
                                    spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# telemetry through SweepStats
# ---------------------------------------------------------------------------

class TestScheduleTelemetry:
    def test_all_policy_peak_is_every_boundary(self):
        bench = SquareMapBench(steps=6)
        stats = SweepStats()
        segmented_gradients(bench, bench.initial_state(), watch=["x"],
                            stats=stats)
        assert stats.snapshot_policy == "all"
        assert stats.peak_snapshots == 7
        assert stats.recomputed_steps == 0
        assert stats.spilled_nbytes == 0
        assert stats.peak_snapshot_nbytes > 0

    def test_binomial_policy_stays_within_budget(self):
        bench = SquareMapBench(steps=8)
        stats = SweepStats()
        segmented_gradients(bench, bench.initial_state(), watch=["x"],
                            stats=stats, snapshot_schedule="binomial",
                            snapshot_budget=3)
        assert stats.snapshot_policy == "binomial"
        assert stats.peak_snapshots <= 3
        assert stats.recomputed_steps > 0

    def test_spill_policy_keeps_bounded_residency(self, tmp_path):
        bench = SquareMapBench(steps=6)
        stats = SweepStats()
        segmented_gradients(bench, bench.initial_state(), watch=["x"],
                            stats=stats, snapshot_schedule="spill",
                            spill_dir=tmp_path)
        assert stats.snapshot_policy == "spill"
        # async writes hold up to the bounded queue's copies (plus the one
        # in flight and the one awaiting a slot) resident on top of the
        # one fetched snapshot -- O(1), independent of steps
        assert 1 <= stats.peak_snapshots <= 2 + SpillSnapshots._QUEUE_DEPTH
        assert stats.spilled_nbytes > 0

    def test_sync_spill_keeps_one_resident(self, tmp_path):
        # without the write queue the original exactly-one-resident
        # telemetry still holds
        sched = SpillSnapshots(6, directory=tmp_path, async_writes=False)
        for k in range(7):
            sched.record(k, {"x": np.arange(4.0), "it": k})
        for k in range(6, -1, -1):
            sched.fetch(k)
        assert sched.peak_snapshots == 1
        sched.close()

    def test_observe_schedule_sums_simultaneous_schedules(self):
        a, b = SnapshotSchedule(1), SnapshotSchedule(1)
        a.record(0, {"x": np.ones(4)})
        b.record(0, {"x": np.ones(8)})
        stats = SweepStats()
        stats.observe_schedule(a, b)
        assert stats.peak_snapshots == 2
        assert stats.peak_snapshot_nbytes == 4 * 8 + 8 * 8


# ---------------------------------------------------------------------------
# NPB acceptance: bitwise identity across schedules, plain and batched
# ---------------------------------------------------------------------------

def _probe_states(bench, watch, n_probes, seed=1234):
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


@pytest.mark.parametrize("policy", ALT_SCHEDULES)
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_npb_gradients_bitwise_across_schedules(name, policy, tmp_path):
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    if not watch:  # IS is all-integer: nothing for the AD sweep to do
        pytest.skip(f"{name} has no floating point checkpoint variables")
    state = bench.checkpoint_state(bench.total_steps // 2)
    ref = segmented_gradients(bench, state, watch=watch)
    got = segmented_gradients(bench, state, watch=watch,
                              snapshot_schedule=policy, snapshot_budget=2,
                              spill_dir=tmp_path)
    for key in watch:
        _assert_bitwise(ref[key], got[key], f"{name}[{key}] ({policy})")


@pytest.mark.parametrize("policy", ALT_SCHEDULES)
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_npb_batched_gradients_bitwise_across_schedules(name, policy,
                                                        tmp_path):
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    if not watch:
        pytest.skip(f"{name} has no floating point checkpoint variables")
    states = _probe_states(bench, watch, n_probes=2)
    ref = segmented_batched_gradients(bench, states, watch=watch)
    got = segmented_batched_gradients(bench, states, watch=watch,
                                      snapshot_schedule=policy,
                                      snapshot_budget=2, spill_dir=tmp_path)
    for key in watch:
        _assert_bitwise(ref[key], got[key],
                        f"{name}[{key}] batched ({policy})")


def _policy_kwargs(policy, tmp_path):
    """The sweep options of ``policy`` (only those that apply to it)."""
    if policy == "binomial":
        return {"snapshot_schedule": policy, "snapshot_budget": 2}
    if policy == "spill":
        return {"snapshot_schedule": policy, "spill_dir": str(tmp_path)}
    return {"snapshot_schedule": policy}


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_npb_masks_identical_across_schedules(name, tmp_path,
                                              sweep_options):
    base = scrutinize(registry.create(name, "T"), sweep="segmented")
    for policy in ALT_SCHEDULES:
        sweep_options(**_policy_kwargs(policy, tmp_path))
        other = scrutinize(registry.create(name, "T"), sweep="segmented")
        assert list(base.variables) == list(other.variables)
        for var in base.variables:
            assert np.array_equal(base.variables[var].mask,
                                  other.variables[var].mask), \
                f"{name}({var}): masks differ under {policy}"
            for key, grad in base.variables[var].gradients.items():
                _assert_bitwise(grad, other.variables[var].gradients[key],
                                f"{name}({var}/{key}) ({policy})")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("policy", ALT_SCHEDULES)
def test_npb_multi_probe_batched_masks_identical(policy, tmp_path,
                                                 sweep_options):
    base = scrutinize(registry.create("CG", "T"), n_probes=3,
                      sweep="segmented")
    sweep_options(**_policy_kwargs(policy, tmp_path))
    other = scrutinize(registry.create("CG", "T"), n_probes=3,
                       sweep="segmented")
    for var in base.variables:
        assert np.array_equal(base.variables[var].mask,
                              other.variables[var].mask)
    assert list(tmp_path.iterdir()) == []


class TestBinomialOptimality:
    """The binomial schedule meets the exact Griewank-Walther optimum.

    ``optimal_replay_cost`` is the revolve dynamic program; the schedule's
    forward placement plus in-replay refills must *achieve* its bound --
    not approximate it -- under the schedule's own slot accounting
    (``budget`` = resident snapshots incl. the replay working copy).
    """

    @staticmethod
    def _achieved(steps, budget):
        calls = {"n": 0}

        def advance(state):
            calls["n"] += 1
            return {"n": state["n"] + 1}

        sched = BinomialSnapshots(steps, advance, budget=budget)
        for t in range(steps + 1):
            sched.record(t, {"n": t})
        for k in range(steps, -1, -1):
            got = sched.fetch(k)
            assert got["n"] == k, "binomial replay produced the wrong state"
        sched.close()
        assert sched.recomputed_steps == calls["n"]
        return sched.recomputed_steps, sched.peak_snapshots

    @pytest.mark.parametrize("steps", [2, 3, 4, 6, 8, 12, 15, 16, 30, 47])
    @pytest.mark.parametrize("budget", [2, 3, 4, 6])
    def test_replays_meet_the_binomial_optimum(self, steps, budget):
        from repro.ad.schedule import _forward_plan

        achieved, peak = self._achieved(steps, budget)
        assert achieved == _forward_plan(steps, budget)[0], \
            f"steps={steps} budget={budget}: not revolve-optimal"
        assert peak <= budget

    def test_optimum_matches_exhaustive_search(self):
        # independent ground truth: brute-force the schedule protocol
        # (free forward placement, nearest-kept replays, en-route refills)
        # over every placement strategy for small instances
        import itertools
        from functools import lru_cache

        from repro.ad.schedule import _forward_plan

        def brute(steps, B):
            @lru_cache(maxsize=None)
            def serve(kept, k):
                if k < 0:
                    return 0
                kept = frozenset(x for x in kept if x <= k)
                if k in kept:
                    return serve(frozenset(x for x in kept if x < k), k - 1)
                j = max(x for x in kept if x < k)
                free = (B - 1) - len(kept)
                gap = range(j + 1, k)
                best = None
                for n in range(0, min(max(free, 0), len(gap)) + 1):
                    for placed in itertools.combinations(gap, n):
                        c = (k - j) + serve(kept | frozenset(placed), k - 1)
                        if best is None or c < best:
                            best = c
                return best

            interior = list(range(1, steps))
            best = None
            for n in range(0, min(max(B - 3, 0), len(interior)) + 1):
                for placed in itertools.combinations(interior, n):
                    kept0 = frozenset({0, steps}) | frozenset(placed)
                    c = serve(kept0, steps)
                    if best is None or c < best:
                        best = c
            return best

        for steps in (2, 4, 6, 8, 10):
            for budget in (2, 3, 4):
                assert _forward_plan(steps, budget)[0] == \
                    brute(steps, budget), (steps, budget)

    def test_cg_a_default_budget_never_regresses(self):
        # CG-A (30 steps) at the default budget: the revolve tables give
        # 38 replays where the old even-split + bisection refill needed 41
        # -- recomputed_steps must never increase past that old count
        steps = 30
        budget = default_snapshot_budget(steps)
        achieved, peak = self._achieved(steps, budget)
        assert achieved == 38
        assert achieved <= 41
        assert peak <= budget

    def test_closed_form_binomial_consistency(self):
        # the DP counts a gap's full first replay, so ample slots leave
        # exactly the one pass over the segment (l - 1 steps) and zero
        # slots the quadratic replay-from-base bound
        from repro.ad.schedule import _forward_plan, optimal_replay_cost

        for length in (2, 5, 9):
            assert optimal_replay_cost(length, length) == length - 1
            assert optimal_replay_cost(length, 0) == \
                length * (length - 1) // 2
        assert optimal_replay_cost(1, 3) == 0
        # with free forward placement an ample budget needs no replays
        for length in (2, 5, 9):
            assert _forward_plan(length, length + 3)[0] == 0
        # monotone in both arguments
        for length in (4, 9, 17):
            for slots in (1, 2, 3):
                assert optimal_replay_cost(length, slots + 1) <= \
                    optimal_replay_cost(length, slots)
                assert optimal_replay_cost(length + 1, slots) >= \
                    optimal_replay_cost(length, slots)
