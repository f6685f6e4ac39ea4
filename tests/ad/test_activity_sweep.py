"""Segmented + plan-replayed activity analysis: bitwise identity pins.

The chained activity sweep (:func:`repro.ad.activity.segmented_read_masks`)
and the plan-derived replay may only ever be *performance* transformations:
the read and moved masks must equal the monolithic tape walk bit for bit,
for every NPB port, under both trace-cache policies.
These tests pin that, plus the properties that make the chaining correct:
role-sensitive indexed writes, movement chains crossing a segment boundary
(the documented under-approximation must not start resolving), identity
pass-through accumulation, and the O(1-iteration) memory bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import activity as act
from repro.ad import ops
from repro.ad.plan import PlanCache
from repro.ad.segmented import SweepStats
from repro.ad.tape import Tape
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


def _monolithic_masks(bench, state, watch):
    tape, leaves, _out = bench.traced_restart(state, watch=list(watch))
    results = act.read_masks(tape, [leaves[key] for key in watch])
    return {key: res for key, res in zip(watch, results)}, len(tape)


def _assert_masks_equal(expected, got, label):
    assert np.array_equal(expected.read, got.read), f"{label}: read differs"
    assert np.array_equal(expected.moved, got.moved), \
        f"{label}: moved differs"


# ---------------------------------------------------------------------------
# monolithic vs segmented, all ports, both trace caches
# ---------------------------------------------------------------------------

class TestSegmentedActivityBitwise:
    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_masks_identical_both_trace_caches(self, name):
        bench = registry.create(name, "T")
        state = bench.checkpoint_state(max(bench.total_steps - 3, 0))
        watch = bench.default_watch_keys()
        mono, _ = _monolithic_masks(bench, state, watch)
        for trace_cache in ("off", "plan"):
            stats = SweepStats()
            seg = act.segmented_read_masks(
                bench, state, watch=list(watch),
                trace_cache=trace_cache, stats=stats)
            for key in watch:
                _assert_masks_equal(mono[key], seg[key],
                                    f"{name}[{key}] {trace_cache}")
            assert stats.activity_segments > 0
            assert stats.peak_snapshots == stats.activity_segments
            assert stats.trace_cache == trace_cache
            if trace_cache == "off":
                assert stats.activity_plan_replays == 0
                assert stats.activity_retraces == stats.activity_segments

    def test_explicit_steps_match_monolithic_restart(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(1)
        watch = bench.default_watch_keys()
        for steps in (0, 1, 2):
            tape, leaves, _out = bench.traced_restart(
                state, watch=list(watch), steps=steps)
            mono = dict(zip(watch, act.read_masks(
                tape, [leaves[key] for key in watch])))
            seg = act.segmented_read_masks(bench, state, watch=list(watch),
                                           steps=steps)
            for key in watch:
                _assert_masks_equal(mono[key], seg[key],
                                    f"CG[{key}] steps={steps}")

    def test_watch_subset_matches_full_watch(self):
        bench = registry.create("LU", "T")
        state = bench.checkpoint_state(bench.total_steps - 2)
        full = act.segmented_read_masks(bench, state)
        subset = act.segmented_read_masks(bench, state, watch=["u"])
        assert list(subset) == ["u"]
        _assert_masks_equal(full["u"], subset["u"], "LU[u] subset")


# ---------------------------------------------------------------------------
# plan-derived replay: repeated analyses on a shared cache
# ---------------------------------------------------------------------------

class TestPlanReplayedActivity:
    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_warm_cache_replays_without_tracing(self, name):
        bench = registry.create(name, "T")
        state = bench.checkpoint_state(max(bench.total_steps - 3, 0))
        watch = bench.default_watch_keys()
        mono, _ = _monolithic_masks(bench, state, watch)

        cache = PlanCache()
        runs = []
        for _ in range(3):   # cold (capture), compile, warm replay
            stats = SweepStats()
            got = act.segmented_read_masks(bench, state, watch=list(watch),
                                           trace_cache="plan",
                                           plan_cache=cache, stats=stats)
            for key in watch:
                _assert_masks_equal(mono[key], got[key], f"{name}[{key}]")
            runs.append(stats)
        warm = runs[-1]
        if name in ("FT", "EP"):
            # counter-dependent steps are never planned: all segments trace
            assert warm.activity_plan_replays == 0
            assert warm.activity_retraces == warm.activity_segments
        else:
            # every step segment replays the compiled transfer; only the
            # output segment (never planned) traces
            assert warm.activity_retraces == 1, \
                f"{name}: warm activity sweep still traced a step"
            assert warm.activity_plan_replays == warm.activity_segments - 1
        assert cache.rejects == 0

    def test_activity_and_gradient_sweeps_share_plans(self):
        # the cache key depends only on (probes, watch, structure),
        # so plans compiled by the gradient walk serve the activity walk
        from repro.ad.segmented import segmented_gradients

        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(1)
        cache = PlanCache()
        for _ in range(2):
            segmented_gradients(bench, state, plan_cache=cache)
        compiles_before = cache.compiles
        stats = SweepStats()
        act.segmented_read_masks(bench, state, trace_cache="plan",
                                 plan_cache=cache, stats=stats)
        assert stats.activity_retraces == 1   # the output segment
        assert cache.compiles == compiles_before

    def test_plan_transfer_is_derived_once_per_plan(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(1)
        cache = PlanCache()
        for _ in range(3):
            act.segmented_read_masks(bench, state, trace_cache="plan",
                                     plan_cache=cache)
        transfers = [entry.plan._activity_transfer
                     for entry in cache._entries.values()
                     if entry.plan is not None]
        derived = [t for t in transfers if t is not None]
        assert derived, "no plan ever derived an activity transfer"
        # replays must not mutate the cached transfer masks
        stats = SweepStats()
        before = [(dict((k, v.copy()) for k, v in t.read.items()),
                   dict((k, v.copy()) for k, v in t.moved.items()))
                  for t in derived]
        act.segmented_read_masks(bench, state, trace_cache="plan",
                                 plan_cache=cache, stats=stats)
        for t, (read0, moved0) in zip(derived, before):
            for key in read0:
                assert np.array_equal(t.read[key], read0[key])
                assert np.array_equal(t.moved[key], moved0[key])


# ---------------------------------------------------------------------------
# memory: peak tape bounded by one iteration
# ---------------------------------------------------------------------------

class TestActivityMemoryBounded:
    def test_peak_tape_is_one_iteration(self):
        bench = registry.create("LU", "T")
        state = bench.checkpoint_state(0)
        watch = bench.default_watch_keys()
        steps = bench.total_steps
        mono, mono_nodes = _monolithic_masks(bench, state, watch)
        stats = SweepStats()
        seg = act.segmented_read_masks(bench, state, watch=list(watch),
                                       trace_cache="off", stats=stats)
        for key in watch:
            _assert_masks_equal(mono[key], seg[key], f"LU[{key}]")
        # the monolithic tape holds all iterations plus the output; any
        # single segment tape must be roughly a steps-th of it
        assert stats.peak_nodes * steps <= mono_nodes * 2
        assert stats.activity_peak_mask_nbytes > 0


# ---------------------------------------------------------------------------
# role-sensitive indexed writes and cross-boundary movement chains
# ---------------------------------------------------------------------------

class _MiniBench:
    """Base for hand-built two-variable loop benchmarks."""

    name = "MINI"

    def __init__(self, steps=3):
        self._steps = steps

    def default_watch_keys(self):
        return ["x", "y"]

    def initial_state(self):
        return {"x": np.linspace(0.5, 2.0, 6),
                "y": np.linspace(-1.0, 1.0, 6), "it": 0}

    def _default_remaining_steps(self, state):
        return self._steps - int(state["it"])

    def _advance(self, state):
        raise NotImplementedError

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["y"])

    def _watched(self, state, watch):
        traced = dict(state)
        leaves = {}
        tape = Tape()
        with tape:
            for key in watch:
                leaves[key] = tape.watch(state[key], name=key)
                traced[key] = leaves[key]
        return traced, leaves, tape

    def traced_step(self, state, watch=None):
        traced, leaves, tape = self._watched(state,
                                             watch or self.default_watch_keys())
        with tape:
            nxt = self._advance(traced)
        return tape, leaves, nxt

    def traced_restart(self, state, watch=None, steps=None):
        if steps is None:
            steps = self._default_remaining_steps(state)
        traced, leaves, tape = self._watched(state,
                                             watch or self.default_watch_keys())
        with tape:
            for _ in range(steps):
                traced = self._advance(traced)
            out = self.output(traced)
        return tape, leaves, out

    def monolithic_masks(self, state, watch):
        """The reference: one tape over all remaining iterations."""
        tape, leaves, _out = self.traced_restart(state, watch)
        results = act.read_masks(tape, [leaves[key] for key in watch])
        return {key: res for key, res in zip(watch, results)}


class _RoleBench(_MiniBench):
    """index_add addend vs index_update complement, every iteration."""

    def _advance(self, state):
        x, y, it = state["x"], state["y"], int(state["it"])
        # x is the *addend*: a real read of all of x (role "value")
        y_next = ops.index_add(y, (slice(0, 3),), x[:3] * 0.5)
        # x is the *target* of an indexed overwrite: only the complement
        # of the updated region survives as data movement
        x_next = ops.index_update(x, (slice(0, 2),), 1.25)
        return {"x": x_next, "y": y_next, "it": it + 1}


class _ComplementBench(_MiniBench):
    """x's only child is an index_update with x as the target."""

    def _advance(self, state):
        x, y, it = state["x"], state["y"], int(state["it"])
        return {"x": ops.index_update(x, (slice(0, 2),), 1.25),
                "y": y * 1.0, "it": it + 1}


class _CopyChainBench(_MiniBench):
    """x's values cross a boundary through a copy, then feed the output.

    The monolithic walk does not chase reads through the copy (the
    documented movement under-approximation): x stays read=False even
    though its values reach the output.  The chained sweep must reproduce
    that exactly -- the copy severs the pass-through, so the later
    boundary's read of the copied values must *not* leak back into x.
    """

    def _advance(self, state):
        x, it = state["x"], int(state["it"])
        return {"x": x, "y": ops.copy(x), "it": it + 1}


@pytest.mark.parametrize("bench_cls",
                         [_RoleBench, _ComplementBench, _CopyChainBench])
@pytest.mark.parametrize("trace_cache", ["off", "plan"])
def test_mini_bench_segmented_matches_monolithic(bench_cls, trace_cache):
    bench = bench_cls(steps=3)
    state = bench.initial_state()
    watch = bench.default_watch_keys()
    mono = bench.monolithic_masks(state, watch)
    cache = PlanCache()
    for sweep in range(3):
        seg = act.segmented_read_masks(bench, state, watch=watch,
                                       trace_cache=trace_cache,
                                       plan_cache=cache
                                       if trace_cache == "plan" else None)
        for key in watch:
            _assert_masks_equal(mono[key], seg[key],
                                f"{bench_cls.__name__}[{key}] "
                                f"sweep {sweep}")


def test_role_bench_masks_are_role_sensitive():
    # sanity of the fixture itself: the addend role reads, the target
    # role moves only the complement of the updated region
    bench = _RoleBench(steps=2)
    state = bench.initial_state()
    mono = bench.monolithic_masks(state, ["x", "y"])
    # x[:3] was consumed as the addend via a getitem: read on the slice
    assert mono["x"].read[:3].all()
    # x was also index_update target with region [0:2): complement moved
    assert not mono["x"].moved[:2].any()
    assert mono["x"].moved[2:].all()


def test_copy_chain_under_approximation_is_preserved():
    bench = _CopyChainBench(steps=2)
    state = bench.initial_state()
    mono = bench.monolithic_masks(state, ["x", "y"])
    seg = act.segmented_read_masks(bench, state, watch=["x", "y"])
    # x's values reach the output only through a copy: never read, moved
    for masks in (mono, seg):
        assert not masks["x"].read.any()
        assert masks["x"].moved.all()
        # the original y is overwritten by the first copy and never read
        assert not masks["y"].read.any()
        assert not masks["y"].moved.any()


def test_identity_pass_through_accumulates_across_segments():
    # x passes through every step untouched and the *output* reads it:
    # the read at the final boundary must chain all the way back
    class _PassThroughBench(_MiniBench):
        def _advance(self, state):
            return {"x": state["x"], "y": state["y"] * 1.0,
                    "it": int(state["it"]) + 1}

        def output(self, state):
            return ops.sum(state["x"])

    bench = _PassThroughBench(steps=3)
    state = bench.initial_state()
    mono = bench.monolithic_masks(state, ["x", "y"])
    seg = act.segmented_read_masks(bench, state, watch=["x", "y"])
    assert mono["x"].read.all()
    for key in ("x", "y"):
        _assert_masks_equal(mono[key], seg[key], f"passthrough[{key}]")
