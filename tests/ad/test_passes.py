"""IR lowering and optimisation passes (:mod:`repro.ad.ir` /
:mod:`repro.ad.passes`): bitwise safety and resource regressions.

The pass pipeline -- elementwise/unary chain fusion, dead-slot
elimination, liveness-driven arena packing -- may only ever be a
*performance* transformation: a fused replay must produce the exact bits
the unfused interpreter produces, forward and reverse, for arbitrary
chain programs.  These tests pin that with randomized chains and pin the
packing invariant (packed arena never exceeds the unpacked arena).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.plan import PlanCache
from repro.ad.segmented import SweepStats, segmented_gradients
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")
FLOAT_PORTS = tuple(p for p in ALL_PORTS if p != "IS")

#: class-T ports whose coarse step plans compile within one sweep (the
#: fine-tier ports FT/EP need repeated same-signature visits instead)
COARSE_PORTS = ("BT", "SP", "MG", "CG", "LU")


def _assert_bitwise(expected, got, label):
    a = np.asarray(expected, dtype=np.float64)
    b = np.asarray(got, dtype=np.float64)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: bits differ"


# ---------------------------------------------------------------------------
# randomized chain programs
# ---------------------------------------------------------------------------

#: chain links drawn by the randomized programs; every one is fusable
#: (elementwise binary against a constant, table unary, or negation), so a
#: long random chain exercises multi-op fusion groups with interior slots
_LINKS = [
    lambda x, c: x * c,
    lambda x, c: x + c,
    lambda x, c: x - c,
    lambda x, c: x / c,
    lambda x, c: ops.sqrt(x * x + c),
    lambda x, c: ops.tanh(x * c),
    lambda x, c: ops.exp(-(x * x) * c),
    lambda x, c: ops.square(x) + c,
    lambda x, c: ops.reciprocal(x * x + c),
    lambda x, c: -x + c,
    lambda x, c: ops.maximum(x * c, x - c),
    lambda x, c: ops.log(x * x + c),
]


class _ChainBench:
    """Synthetic benchmark whose step is a seeded random fusable chain."""

    def __init__(self, seed: int, length: int = 8, steps: int = 3):
        rng = np.random.default_rng(seed)
        self._links = [(_LINKS[rng.integers(len(_LINKS))],
                        float(rng.uniform(0.5, 1.5)))
                       for _ in range(length)]
        self._steps = steps
        self.name = f"CHAIN{seed}"

    def default_watch_keys(self):
        return ["x"]

    def initial_state(self):
        return {"x": np.linspace(0.6, 1.8, 12), "it": 0}

    def _default_remaining_steps(self, state):
        return self._steps - int(state["it"])

    def _advance(self, state):
        x = state["x"]
        for link, const in self._links:
            x = link(x, const)
        return {"x": x, "it": int(state["it"]) + 1}

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["x"] * state["x"])

    def _watched(self, state, watch):
        from repro.ad.tape import Tape

        traced = dict(state)
        leaves = {}
        tape = Tape()
        with tape:
            for key in watch:
                leaves[key] = tape.watch(state[key], name=key)
                traced[key] = leaves[key]
        return traced, leaves, tape

    def traced_step(self, state, watch=None):
        traced, leaves, tape = self._watched(state, watch or ["x"])
        with tape:
            nxt = self._advance(traced)
        return tape, leaves, nxt

    def traced_restart(self, state, watch=None, steps=0):
        traced, leaves, tape = self._watched(state, watch or ["x"])
        with tape:
            out = self.output(self.run(traced, steps))
        return tape, leaves, out


class TestRandomizedChainFusion:
    @pytest.mark.parametrize("seed", range(8))
    def test_fused_matches_unfused_bitwise(self, seed):
        """Forward replay and reverse sweep of a random chain: the fused
        executor and the unfused interpreter must agree bit for bit with
        each other and with the tracer."""
        bench = _ChainBench(seed)
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")

        grads, caches = {}, {}
        for mode in ("fuse", "off"):
            cache = PlanCache(plan_optimize=mode)
            for _ in range(3):   # capture, compile, warm replay
                grads[mode] = segmented_gradients(bench, state,
                                                  plan_cache=cache)
            caches[mode] = cache

        for key in reference:
            _assert_bitwise(reference[key], grads["fuse"][key],
                            f"seed {seed} fuse[{key}]")
            _assert_bitwise(reference[key], grads["off"][key],
                            f"seed {seed} off[{key}]")
        # the chains are built to fuse: a silent no-op pass would hide bugs
        assert caches["fuse"].fused_ops > 0, "fusion never engaged"
        assert caches["off"].fused_ops == 0

    def test_chain_packing_shrinks_the_arena(self):
        """A long single-consumer chain is the best case for liveness
        packing: transient interiors coalesce into a few buffers."""
        bench = _ChainBench(seed=0, length=12)
        state = bench.initial_state()
        cache = PlanCache(plan_optimize="fuse")
        for _ in range(3):
            segmented_gradients(bench, state, plan_cache=cache)
        assert 0 < cache.arena_nbytes_packed < cache.arena_nbytes


# ---------------------------------------------------------------------------
# packing regression over the real ports
# ---------------------------------------------------------------------------

class TestArenaPackingRegression:
    @pytest.mark.parametrize("name", COARSE_PORTS)
    def test_packed_never_exceeds_unpacked(self, name):
        bench = registry.create(name, "T")
        steps = min(3, bench.total_steps)
        state = bench.checkpoint_state(bench.total_steps - steps)
        cache = PlanCache(plan_optimize="fuse")
        stats = SweepStats()
        for _ in range(2):
            segmented_gradients(bench, state, steps=steps,
                                plan_cache=cache, stats=stats)
        assert cache.arena_nbytes > 0, "no plan compiled"
        assert 0 < cache.arena_nbytes_packed <= cache.arena_nbytes
        assert stats.plan_arena_nbytes_packed == cache.arena_nbytes_packed

    @pytest.mark.parametrize("name", COARSE_PORTS)
    def test_off_mode_reports_unpacked_arena(self, name):
        bench = registry.create(name, "T")
        steps = min(3, bench.total_steps)
        state = bench.checkpoint_state(bench.total_steps - steps)
        cache = PlanCache(plan_optimize="off")
        for _ in range(2):
            segmented_gradients(bench, state, steps=steps, plan_cache=cache)
        assert cache.arena_nbytes > 0
        assert cache.arena_nbytes_packed == cache.arena_nbytes
        assert cache.fused_ops == 0
        assert cache.eliminated_slots == 0


# ---------------------------------------------------------------------------
# port gradients and masks, fused vs unfused
# ---------------------------------------------------------------------------

class TestPortParityFuseVsOff:
    @pytest.mark.parametrize("name", FLOAT_PORTS)
    def test_gradients_bitwise_identical(self, name):
        bench = registry.create(name, "T")
        steps = min(3, bench.total_steps)
        state = bench.checkpoint_state(bench.total_steps - steps)
        grads = {}
        for mode in ("fuse", "off"):
            cache = PlanCache(plan_optimize=mode)
            for _ in range(3):
                grads[mode] = segmented_gradients(bench, state, steps=steps,
                                                  plan_cache=cache)
        for key in grads["fuse"]:
            _assert_bitwise(grads["fuse"][key], grads["off"][key],
                            f"{name}[{key}]")

    @pytest.mark.parametrize("name", ("SP", "CG"))
    def test_activity_masks_identical(self, name, sweep_options):
        """Dead-slot elimination only prunes the *executable* program; the
        activity transfer walks the full instruction list, so masks cannot
        depend on the optimisation level."""
        bench = registry.create(name, "T")
        steps = min(3, bench.total_steps)
        state = bench.checkpoint_state(bench.total_steps - steps)
        results = {}
        for mode in ("fuse", "off"):
            sweep_options(plan_cache=PlanCache(plan_optimize=mode))
            results[mode] = scrutinize(registry.create(name, "T"),
                                       state=dict(state), steps=steps,
                                       method="activity", sweep="segmented")
        for var, crit in results["fuse"].variables.items():
            np.testing.assert_array_equal(
                crit.mask, results["off"].variables[var].mask, err_msg=var)
