"""Compiled replay plans (:mod:`repro.ad.plan`): bitwise equivalence.

The trace-once/replay-many engine may only ever be a *performance*
transformation: a replayed segment must produce the exact bits a freshly
traced segment produces, for every NPB port, in the plain and the
probe-batched segmented sweeps, warm or cold.  These tests pin that, plus
the learning rule (one plan from two agreeing step captures; a
counter-dependent step stops learning and keeps nothing) and the safety
properties: a node recorded without a rule rejects the plan instead of
corrupting it, every fallback logs one event, and the reusable arena never aliases anything handed back to the
caller.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.plan import (PlanCache, coarse_signature, fine_signature)
from repro.ad.probes import segmented_batched_gradients
from repro.ad.segmented import SweepStats, segmented_gradients
from repro.ad.tensor import ADArray
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")

#: ports with at least one float checkpoint entry (IS is integer-only and
#: its AD sweep is the empty program)
FLOAT_PORTS = tuple(p for p in ALL_PORTS if p != "IS")

#: ports whose step structure is counter-independent: one plan per sweep
COARSE_PORTS = ("BT", "SP", "MG", "CG", "LU")

#: ports whose step bakes the loop counter into its constants (FT's
#: per-``kt`` evolution factor, EP's per-batch seed): never planned
COUNTER_DEPENDENT_PORTS = ("FT", "EP")


def _assert_bitwise(expected, got, label):
    a = np.asarray(expected, dtype=np.float64)
    b = np.asarray(got, dtype=np.float64)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: bits differ"


# ---------------------------------------------------------------------------
# plan-vs-tracer gradients, all ports, plain segmented sweep
# ---------------------------------------------------------------------------

class TestPlanGradientsBitwise:
    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_plain_segmented_warm_and_cold(self, name):
        bench = registry.create(name, "T")
        state = bench.checkpoint_state(max(bench.total_steps - 3, 0))
        reference = segmented_gradients(bench, state, trace_cache="off")

        cache = PlanCache()
        for sweep in range(3):   # cold (capture), compile, warm replay
            got = segmented_gradients(bench, state, plan_cache=cache)
            for key in reference:
                _assert_bitwise(reference[key], got[key],
                                f"{name}[{key}] sweep {sweep}")
        if name in COARSE_PORTS:
            assert cache.hits > 0, "warm sweeps never replayed"
        assert cache.rejects == 0

    @pytest.mark.parametrize("name", FLOAT_PORTS)
    def test_batched_probe_segmented(self, name):
        bench = registry.create(name, "T")
        base = bench.checkpoint_state(max(bench.total_steps - 2, 0))
        rng = np.random.default_rng(7)
        watch = bench.default_watch_keys()
        states = [dict(base)]
        for _ in range(2):
            probe = dict(base)
            for key in watch:
                arr = np.asarray(probe[key], dtype=np.float64)
                probe[key] = arr + 1e-3 * rng.standard_normal(arr.shape)
            states.append(probe)

        try:
            reference = segmented_batched_gradients(bench, states,
                                                    watch=watch,
                                                    trace_cache="off")
        except Exception:
            pytest.skip(f"{name} cannot probe-batch")
        cache = PlanCache()
        for sweep in range(3):
            got = segmented_batched_gradients(bench, states, watch=watch,
                                              plan_cache=cache)
            for key in watch:
                _assert_bitwise(reference[key], got[key],
                                f"{name}[{key}] batched sweep {sweep}")
        if name in COARSE_PORTS:
            assert cache.hits > 0
        assert cache.rejects == 0


# ---------------------------------------------------------------------------
# plan-vs-tracer masks, all ports, both probe modes
# ---------------------------------------------------------------------------

class TestPlanMasksBitwise:
    @pytest.mark.parametrize("name", ALL_PORTS)
    @pytest.mark.parametrize("probe_batching", ["batched", "per-probe"])
    def test_masks_identical(self, name, probe_batching, force_per_probe,
                             sweep_options):
        if probe_batching == "per-probe":
            force_per_probe()
        on = scrutinize(registry.create(name, "T"), sweep="segmented",
                        n_probes=2)
        sweep_options(trace_cache="off")
        off = scrutinize(registry.create(name, "T"), sweep="segmented",
                         n_probes=2)
        for var, crit in off.variables.items():
            assert np.array_equal(crit.mask, on.variables[var].mask), \
                f"{name}.{var} mask differs under the replay plan"
            for key, grad in crit.gradients.items():
                _assert_bitwise(grad, on.variables[var].gradients[key],
                                f"{name}.{var}[{key}]")


# ---------------------------------------------------------------------------
# learning rule and telemetry
# ---------------------------------------------------------------------------

def _pending(cache):
    """Captures the cache still holds (awaiting a second boundary)."""
    return [e.pending for e in cache._entries.values()
            if e.pending is not None]


class TestPlanLearning:
    def test_counter_independent_port_compiles_one_plan(self):
        # CG's step structure does not depend on the loop counter: two
        # captures at different counters agree, one plan compiles, and
        # every later segment of the same sweep replays
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        stats = SweepStats()
        segmented_gradients(bench, state, stats=stats, plan_cache=cache)
        assert cache.compiles == 1
        assert not _pending(cache)
        assert stats.plan_hits == bench.total_steps - 2
        assert stats.trace_cache == "plan"
        assert stats.plan_arena_slots > 0
        assert stats.plan_arena_nbytes > 0
        # the replayed segments stay on the tape meter: same segment count
        # and node totals as a plan-off sweep
        off = SweepStats()
        segmented_gradients(bench, state, stats=off, trace_cache="off")
        assert stats.n_segments == off.n_segments
        assert stats.segment_nodes == off.segment_nodes

    def test_output_segment_bypasses_the_cache(self):
        # only step segments look the cache up: every one is a hit or a
        # miss, and the traced output segment is neither
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)
        assert cache.hits + cache.misses == bench.total_steps
        assert cache.misses == 2
        assert {key[0] for key in cache._entries} == {None}

    def test_counters_are_the_additive_four(self):
        assert set(PlanCache().counters()) == {"hits", "misses",
                                                "compiles", "rejects"}

    @pytest.mark.parametrize("name", ("CG", "FT"))
    def test_fine_signature_hashed_only_while_learning(self, name,
                                                       monkeypatch):
        # the "different boundary" test runs for the two captures only;
        # once an entry has a plan or has stopped learning it is skipped
        from repro.ad import plan as plan_mod

        calls = []
        real = plan_mod.fine_signature
        monkeypatch.setattr(plan_mod, "fine_signature",
                            lambda state: calls.append(1) or real(state))
        bench = registry.create(name, "T")
        segmented_gradients(bench, bench.checkpoint_state(0),
                            plan_cache=PlanCache())
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# fallback safety
# ---------------------------------------------------------------------------

class _ParityBench:
    """Fake benchmark whose op *sequence* depends on the loop counter."""

    name = "PARITY"

    def __init__(self, steps=4):
        self._steps = steps

    def default_watch_keys(self):
        return ["x"]

    def initial_state(self):
        return {"x": np.linspace(0.5, 2.0, 6), "it": 0}

    def _default_remaining_steps(self, state):
        return self._steps - int(state["it"])

    def _advance(self, state):
        x, it = state["x"], int(state["it"])
        if it % 2 == 0:
            x = x * 1.5 + 0.25          # even steps: two primitives
        else:
            x = ops.sqrt(x * x + 1.0)   # odd steps: a different chain
        return {"x": x, "it": it + 1}

    def run(self, state, steps):
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def output(self, state):
        return ops.sum(state["x"] * state["x"])

    # per-iteration tracing API (mirrors NPBBenchmark)
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


def _scaled_without_rule(x):
    """``2 * x`` recorded straight on the tape, with a VJP but no rule
    spec: a custom primitive no plan can replay."""
    node = x.tape.add_node("custom_scale", [x.node], lambda g: (2.0 * g,),
                           x.shape, x.dtype)
    return ADArray(2.0 * x.value, node=node, tape=x.tape)


class _UnsupportedOpBench(_ParityBench):
    """Fake benchmark using a primitive without a replay rule."""

    name = "NOKERNEL"

    def _advance(self, state):
        x = state["x"] * 1.1
        if isinstance(x, ADArray):
            x = _scaled_without_rule(x)
        else:
            x = 2.0 * x
        return {"x": x, "it": int(state["it"]) + 1}


class TestStructureDivergenceFallback:
    def test_parity_bench_stays_bitwise(self):
        bench = _ParityBench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for _ in range(3):
            got = segmented_gradients(bench, state, plan_cache=cache)
            _assert_bitwise(reference["x"], got["x"], "parity")
        # the two captures (even/odd counters) disagreed, so no plan may
        # exist and every later segment traces
        entries = list(cache._entries.values())
        assert entries and all(e.plan is None for e in entries)
        assert not any(e.learning for e in entries)
        assert cache.hits == 0
        assert cache.rejects == 0

    def test_unsupported_primitive_rejects_plan(self):
        bench = _UnsupportedOpBench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for _ in range(2):
            got = segmented_gradients(bench, state, plan_cache=cache)
            _assert_bitwise(reference["x"], got["x"], "unsupported")
        assert cache.rejects > 0
        assert cache.hits == 0

    def test_fallbacks_log_one_event_per_entry(self, caplog):
        # an entry that stops learning says so once, with its reason, on
        # the plan logger -- however many sweeps then trace its segments
        for bench, reason in ((_ParityBench(), "non-float state"),
                              (_UnsupportedOpBench(), "no replay rule")):
            cache = PlanCache()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.ad.plan"):
                for _ in range(3):
                    segmented_gradients(bench, bench.initial_state(),
                                        plan_cache=cache)
            records = [r for r in caplog.records
                       if r.name == "repro.ad.plan"]
            assert len(records) == len(cache._entries) == 1, bench.name
            assert records[0].levelno == logging.INFO
            assert reason in records[0].getMessage()
            assert repr(bench.name) in records[0].getMessage()

    def test_shape_change_misses_signature(self):
        bench = _ParityBench()
        small = bench.initial_state()
        big = {"x": np.linspace(0.5, 2.0, 9), "it": 0}
        assert coarse_signature(small) != coarse_signature(big)
        cache = PlanCache()
        for state in (small, big, small, big):
            got = segmented_gradients(bench, state, plan_cache=cache)
            ref = segmented_gradients(bench, state, trace_cache="off")
            _assert_bitwise(ref["x"], got["x"], "shape change")

    def test_fine_signature_sees_integer_arrays(self):
        a = {"x": np.ones(3), "keys": np.arange(5)}
        b = {"x": np.ones(3), "keys": np.arange(5)[::-1].copy()}
        assert coarse_signature(a) == coarse_signature(b)
        assert fine_signature(a) != fine_signature(b)

    def test_float32_state_replays_bitwise(self):
        class _F32Bench(_ParityBench):
            name = "F32"

            def initial_state(self):
                return {"x": np.linspace(0.5, 2.0, 6,
                                         dtype=np.float32), "it": 0}

            def _advance(self, state):
                x, it = state["x"], int(state["it"])
                return {"x": x * np.float32(1.25), "it": it + 1}

        bench = _F32Bench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for _ in range(3):
            got = segmented_gradients(bench, state, plan_cache=cache)
            assert got["x"].dtype == reference["x"].dtype
            assert np.array_equal(
                np.asarray(reference["x"]).view(np.uint32),
                np.asarray(got["x"]).view(np.uint32))
        assert cache.hits > 0


# ---------------------------------------------------------------------------
# arena isolation
# ---------------------------------------------------------------------------

class TestArenaIsolation:
    def test_returned_gradients_never_alias_the_arena(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)  # learn
        first = segmented_gradients(bench, state, plan_cache=cache)
        keep = {key: np.array(val, copy=True) for key, val in first.items()}
        # a further replay overwrites every arena buffer; results already
        # handed out must not move
        segmented_gradients(bench, state, plan_cache=cache)
        for key in keep:
            _assert_bitwise(keep[key], first[key], f"aliased[{key}]")

    def test_mutating_a_returned_gradient_does_not_poison_replays(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        reference = segmented_gradients(bench, state, trace_cache="off")
        got = segmented_gradients(bench, state, plan_cache=cache)
        for val in got.values():
            np.asarray(val)[...] = -1.0   # caller scribbles over the result
        again = segmented_gradients(bench, state, plan_cache=cache)
        for key in reference:
            _assert_bitwise(reference[key], again[key], f"poisoned[{key}]")


# ---------------------------------------------------------------------------
# counter-dependent steps: no plan, no capture held, tracer bits
# ---------------------------------------------------------------------------

class TestCounterDependentSteps:
    """FT, EP and the parity bench bake the loop counter into their step:
    the first two captures disagree, so the entry stops learning without
    compiling or keeping anything, and every segment traces."""

    @pytest.mark.parametrize("name", COUNTER_DEPENDENT_PORTS + ("PARITY",))
    def test_no_plan_no_capture_bitwise(self, name):
        bench = _ParityBench() if name == "PARITY" \
            else registry.create(name, "T")
        state = bench.initial_state() if name == "PARITY" \
            else bench.checkpoint_state(0)
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for sweep in range(2):
            got = segmented_gradients(bench, state, plan_cache=cache)
            for key in reference:
                _assert_bitwise(reference[key], got[key],
                                f"{name}[{key}] sweep {sweep}")
            assert not _pending(cache), "a capture outlived the sweep"
        assert cache.compiles == 0
        assert cache.hits == 0
        assert cache.rejects == 0
