"""Segmented activity analysis: bitwise identity pins.

The chained activity sweep (:func:`repro.ad.activity.segmented_read_masks`)
may only ever be a *memory* transformation: the read and moved masks it
composes from one traced iteration at a time must equal the monolithic
tape walk bit for bit, for every NPB port.  These tests pin that, plus the
properties that make the chaining correct: role-sensitive indexed writes,
movement chains crossing a segment boundary (the documented
under-approximation must not start resolving), identity pass-through
accumulation, and the O(1-iteration) memory bound.  The tape walk itself
(op categories, roles, unknown primitives) is pinned at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import activity as act
from repro.ad import ops
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
# monolithic vs segmented, all ports
# ---------------------------------------------------------------------------

class TestSegmentedActivityBitwise:
    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_masks_identical(self, name):
        bench = registry.create(name, "T")
        state = bench.checkpoint_state(max(bench.total_steps - 3, 0))
        watch = bench.default_watch_keys()
        mono, _ = _monolithic_masks(bench, state, watch)
        stats = SweepStats()
        seg = act.segmented_read_masks(bench, state, watch=list(watch),
                                       stats=stats)
        for key in watch:
            _assert_masks_equal(mono[key], seg[key], f"{name}[{key}]")
        assert stats.activity_segments > 0
        assert stats.peak_snapshots == stats.activity_segments
        # every segment is traced: no plan cache is consulted
        assert stats.n_segments == stats.activity_segments
        assert stats.plan_hits == stats.plan_misses == 0

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
                                       stats=stats)
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
def test_mini_bench_segmented_matches_monolithic(bench_cls):
    bench = bench_cls(steps=3)
    state = bench.initial_state()
    watch = bench.default_watch_keys()
    mono = bench.monolithic_masks(state, watch)
    seg = act.segmented_read_masks(bench, state, watch=watch)
    for key in watch:
        _assert_masks_equal(mono[key], seg[key],
                            f"{bench_cls.__name__}[{key}]")


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


# ---------------------------------------------------------------------------
# the tape walk: unknown primitives and indexed-write roles
# ---------------------------------------------------------------------------

def _leaves_with_children(*ops, meta=None):
    """A tape with one watched leaf per op, each read by one node of it."""
    tape = Tape()
    leaves = [tape.watch(np.ones(4), name=f"x{i}") for i in range(len(ops))]
    for op, leaf in zip(ops, leaves):
        tape.add_node(op, [leaf.node], lambda g: (g,), (4,),
                      np.dtype(np.float64), meta=meta)
    return tape, leaves


def test_unknown_primitive_reads_everything_and_logs_once_per_walk(caplog):
    tape, leaves = _leaves_with_children("mystery", "mystery", "enigma")
    with caplog.at_level("INFO", logger="repro.ad.activity"):
        for res in act.read_masks(tape, leaves):
            assert res.read.all() and not res.moved.any()
    records = [rec for rec in caplog.records
               if rec.name == "repro.ad.activity"]
    assert [rec.levelname for rec in records] == ["INFO", "INFO"]
    assert "'enigma'" in records[0].getMessage()
    assert "'mystery'" in records[1].getMessage()


@pytest.mark.parametrize("op", ["index_update", "index_add"])
def test_indexed_write_without_roles_is_refused(op):
    tape, (x,) = _leaves_with_children(op, meta={"index": (slice(0, 2),)})
    with pytest.raises(ValueError, match="operand roles"):
        act.read_mask(tape, x)
