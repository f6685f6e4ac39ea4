"""Compiled replay plans (:mod:`repro.ad.plan`): bitwise equivalence.

The trace-once/replay-many engine may only ever be a *performance*
transformation: a replayed segment must produce the exact bits a freshly
traced segment produces, for every NPB port, in the plain and the
probe-batched segmented sweeps, warm or cold.  These tests pin that, plus
the safety properties: structure divergence falls back to fresh tracing,
unsupported primitives reject the plan instead of corrupting it, and the
reusable arena never aliases anything handed back to the caller.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.plan import (PlanCache, coarse_signature, fine_signature)
from repro.ad.probes import segmented_batched_gradients
from repro.ad.segmented import SweepStats, segmented_gradients
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")

#: ports with at least one float checkpoint entry (IS is integer-only and
#: its AD sweep is the empty program)
FLOAT_PORTS = tuple(p for p in ALL_PORTS if p != "IS")


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
        if name not in ("IS",):
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
# cache tiers and telemetry
# ---------------------------------------------------------------------------

class TestPlanCacheTiers:
    def test_counter_independent_port_compiles_coarse(self):
        # CG's step structure does not depend on the loop counter: two
        # captures at different counters agree and every later segment of
        # the same sweep replays
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        stats = SweepStats()
        segmented_gradients(bench, state, stats=stats, plan_cache=cache)
        assert cache.compiles >= 1
        assert stats.plan_hits >= bench.total_steps - 2
        assert stats.trace_cache == "plan"
        assert stats.plan_arena_slots > 0
        assert stats.plan_arena_nbytes > 0
        # the replayed segments stay on the tape meter: same segment count
        # and node totals as a plan-off sweep
        off = SweepStats()
        segmented_gradients(bench, state, stats=off, trace_cache="off")
        assert stats.n_segments == off.n_segments
        assert stats.segment_nodes == off.segment_nodes

    def test_counter_dependent_port_refines_to_fine_tier(self):
        # FT bakes the per-iteration evolution factor into its constants:
        # the coarse captures disagree, per-counter plans compile instead,
        # and the second sweep replays them
        bench = registry.create("FT", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)
        first_hits = cache.hits
        segmented_gradients(bench, state, plan_cache=cache)
        segmented_gradients(bench, state, plan_cache=cache)
        assert first_hits == 0
        assert cache.compiles >= bench.total_steps
        assert cache.hits >= bench.total_steps
        assert cache.rejects == 0

    def test_forward_pass_replays_on_warm_cache(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)
        before = cache.forward_replays
        segmented_gradients(bench, state, plan_cache=cache)
        assert cache.forward_replays > before

    def test_concrete_replay_matches_bench_run_bitwise(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)  # learn plans
        planner = cache.planner(bench, "step", bench.default_watch_keys())
        expected = bench.run(state, 1)
        got = planner.advance(dict(state))
        assert cache.forward_replays >= 1
        assert set(expected) == set(got)
        for key in expected:
            ev, gv = np.asarray(expected[key]), np.asarray(got[key])
            assert ev.dtype == gv.dtype, key
            assert np.array_equal(ev, gv), key
        # integer counters keep their Python type through the increment rule
        assert type(expected["it"]) is type(got["it"])


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

    def traced_output(self, state, watch=None):
        traced, leaves, tape = self._watched(state, watch or ["x"])
        with tape:
            out = self.output(traced)
        return tape, leaves, out


class _UnsupportedOpBench(_ParityBench):
    """Fake benchmark using a primitive without a replay kernel."""

    name = "NOKERNEL"

    def _advance(self, state):
        # ops.clip records a node but carries no plan spec
        return {"x": ops.clip(state["x"] * 1.1, 0.0, 10.0),
                "it": int(state["it"]) + 1}


class TestStructureDivergenceFallback:
    def test_parity_bench_stays_bitwise(self):
        bench = _ParityBench()
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")
        cache = PlanCache()
        for _ in range(3):
            got = segmented_gradients(bench, state, plan_cache=cache)
            _assert_bitwise(reference["x"], got["x"], "parity")
        # the two coarse captures (even/odd counters) disagreed, so no
        # counter-blind plan may exist; the per-counter fine tier replays
        # on the later sweeps instead
        entries = [e for key, e in cache._entries.items()
                   if key[0] == "step"]
        assert entries and all(e.coarse_plan is None for e in entries)
        assert cache.hits > 0

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

    def test_float32_state_replays_bitwise_without_concrete_forward(self):
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
        # the float64 leaf cast is not the identity for float32 chains, so
        # the concrete forward must keep running the benchmark
        assert cache.forward_replays == 0
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

    def test_concrete_replay_next_state_survives_arena_reuse(self):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(0)
        cache = PlanCache()
        segmented_gradients(bench, state, plan_cache=cache)  # learn
        planner = cache.planner(bench, "step", bench.default_watch_keys())
        one = planner.advance(dict(state))
        frozen = np.array(one["x"], copy=True)
        planner.advance(dict(one))
        # replaying again must not mutate the state handed out earlier
        _assert_bitwise(frozen, one["x"], "concrete next state")


# ---------------------------------------------------------------------------
# fine-tier LRU bound
# ---------------------------------------------------------------------------

class TestFinePlanLRUBound:
    """The fine tier (per-fine-signature plans for counter-dependent
    structures) is LRU-bounded so a long-lived analyzer can never grow
    memory without bound; evictions are counted and surfaced through
    :class:`SweepStats`, and an evicted plan simply recompiles on the next
    agreeing pair of visits -- gradients stay bitwise-identical."""

    def test_fine_plans_bounded_and_evictions_counted(self, monkeypatch):
        from repro.ad import plan as plan_mod

        monkeypatch.setattr(plan_mod, "_MAX_FINE_PLANS", 2)
        bench = _ParityBench(steps=6)
        state = bench.initial_state()
        reference = segmented_gradients(bench, state, trace_cache="off")

        cache = PlanCache()
        stats = SweepStats()
        for sweep in range(4):
            got = segmented_gradients(bench, state, plan_cache=cache,
                                      stats=stats)
            for key in reference:
                _assert_bitwise(reference[key], got[key],
                                f"lru[{key}] sweep {sweep}")
        # six distinct step signatures through a two-slot cache must evict
        assert cache.fine_evictions > 0
        assert stats.plan_fine_evictions == cache.fine_evictions
        assert "fine_evictions" in cache.counters()
        for entry in cache._entries.values():
            assert len(entry.fine_plans) <= 2

    def test_unbounded_run_records_no_evictions(self):
        bench = _ParityBench(steps=4)
        state = bench.initial_state()
        cache = PlanCache()
        for _ in range(3):
            segmented_gradients(bench, state, plan_cache=cache)
        assert cache.fine_evictions == 0

    def test_replay_refreshes_lru_recency(self, monkeypatch):
        from repro.ad import plan as plan_mod

        monkeypatch.setattr(plan_mod, "_MAX_FINE_PLANS", 2)
        bench = _ParityBench(steps=2)
        state = bench.initial_state()
        cache = PlanCache()
        for _ in range(3):   # capture, compile, replay both step plans
            segmented_gradients(bench, state, plan_cache=cache)
        assert cache.fine_evictions == 0   # both plans fit and stay hot
        assert cache.hits > 0
