"""Tests of the criticality analysis (AD / activity / rule methods)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.core.analysis import scrutinize
from repro.core.criticality import (CriticalityAnalyzer, VariableCriticality,
                                    criticality_from_gradient,
                                    element_criticality)
from repro.core.variables import CheckpointVariable, VariableKind
from repro.npb import registry


class TestCriticalityFromGradient:
    def test_nonzero_is_critical(self):
        mask = criticality_from_gradient(np.array([0.0, 1.0, -2.0, 0.0]))
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_non_finite_is_critical(self):
        mask = criticality_from_gradient(np.array([np.nan, np.inf, 0.0]))
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_element_criticality_free_function(self):
        def fun(x):
            return ops.sum(x[:3] * x[:3]) + x[4]

        mask = element_criticality(fun, np.arange(1.0, 7.0))
        np.testing.assert_array_equal(mask, [True, True, True, False, True,
                                             False])


class TestVariableCriticality:
    def test_counts_and_regions(self):
        var = CheckpointVariable("v", (6,))
        crit = VariableCriticality(var, np.array([True, True, False, False,
                                                  True, False]))
        assert crit.n_elements == 6
        assert crit.n_critical == 3
        assert crit.n_uncritical == 3
        assert crit.uncritical_rate == pytest.approx(0.5)
        assert len(crit.regions()) == 2
        assert crit.critical_nbytes == 24
        assert crit.full_nbytes == 48
        assert crit.summary().uncritical == 3

    def test_shape_mismatch_rejected(self):
        var = CheckpointVariable("v", (4,))
        with pytest.raises(ValueError):
            VariableCriticality(var, np.ones((5,), dtype=bool))

    def test_complex_pair_byte_accounting(self):
        var = CheckpointVariable("y", (4,), VariableKind.COMPLEX_PAIR)
        crit = VariableCriticality(var, np.array([True, True, True, False]))
        assert crit.full_nbytes == 64
        assert crit.critical_nbytes == 48


class TestAnalyzerConstruction:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            CriticalityAnalyzer(method="magic")

    def test_bad_probe_count_rejected(self):
        with pytest.raises(ValueError):
            CriticalityAnalyzer(n_probes=0)

    @pytest.mark.parametrize("steps", [0, -1, 2.5, True])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            CriticalityAnalyzer(steps=steps)

    def test_steps_past_the_main_loop_rejected_before_any_forward_run(
            self, monkeypatch):
        bench = registry.create("EP", "T")

        def no_forward(*args, **kwargs):
            raise AssertionError("forward run started")

        monkeypatch.setattr(bench, "run", no_forward)
        analyzer = CriticalityAnalyzer(steps=bench.total_steps - 1)
        with pytest.raises(ValueError, match="overruns"):
            analyzer.analyze(bench, step=2)
        with pytest.raises(ValueError, match="overruns"):
            scrutinize(bench, step=2, steps=10 ** 6)

    def test_steps_past_the_loop_rejected_for_an_explicit_state(self):
        bench = registry.create("EP", "T")
        state = bench.checkpoint_state(bench.total_steps - 1)
        with pytest.raises(ValueError, match="overruns"):
            CriticalityAnalyzer(steps=2).analyze(bench, state=state)
        # exactly the remaining iterations is fine
        CriticalityAnalyzer(steps=1).analyze(bench, state=state)

    def test_unknown_probe_batching_rejected(self):
        # probe batching is no longer a choice: the analyzer always batches
        # and falls back per probe on its own, so the knob is refused
        with pytest.raises(TypeError, match="probe_batching"):
            CriticalityAnalyzer(probe_batching="vectorised")

    def test_probe_batching_defaults_to_batched(self, monkeypatch):
        import repro.ad.probes as probes_mod

        calls = []
        real = probes_mod.batched_gradients

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(probes_mod, "batched_gradients", spy)
        CriticalityAnalyzer(n_probes=3).analyze(registry.create("CG", "T"))
        assert calls == [1]          # one stacked sweep for all probes


class TestPerturbStateDtypes:
    """Regression: probe states must keep each entry's declared dtype."""

    def _perturb(self, state, watch):
        analyzer = CriticalityAnalyzer(n_probes=2)
        return analyzer._perturb_state(state, watch, probe=1,
                                       rng=np.random.default_rng(42))

    def test_float32_entry_stays_float32(self):
        state = {"a": np.linspace(0.0, 1.0, 8, dtype=np.float32),
                 "b": np.ones(4, dtype=np.float64)}
        perturbed = self._perturb(state, ["a", "b"])
        assert perturbed["a"].dtype == np.float32
        assert perturbed["b"].dtype == np.float64

    def test_scalar_entries_keep_dtype(self):
        state = {"s": np.float32(1.5), "t": np.float64(2.5)}
        perturbed = self._perturb(state, ["s", "t"])
        assert np.asarray(perturbed["s"]).dtype == np.float32
        assert np.asarray(perturbed["t"]).dtype == np.float64

    def test_non_float_watch_upcasts_to_float64(self):
        # probing an integer-typed entry (possible for traced-as-float
        # integer data) falls back to float64, never an integer dtype
        state = {"i": np.arange(4)}
        perturbed = self._perturb(state, ["i"])
        assert perturbed["i"].dtype == np.float64

    def test_draws_unchanged_by_dtype_fix(self):
        # the noise stream must be identical to the historical float64
        # behaviour (cast happens after the draw), or cached multi-probe
        # masks would silently change
        state = {"a": np.ones(8, dtype=np.float64)}
        analyzer = CriticalityAnalyzer(n_probes=2)
        new = analyzer._perturb_state(state, ["a"], 1,
                                      np.random.default_rng(7))
        rng = np.random.default_rng(7)
        base = np.asarray(state["a"], dtype=np.float64)
        rms = float(np.sqrt(np.mean(base ** 2)))
        legacy = base + analyzer.probe_scale * rms \
            * rng.standard_normal(base.shape)
        np.testing.assert_array_equal(new["a"], legacy)


@pytest.fixture(scope="module")
def bench():
    return registry.create("BT", "T")


class TestAnalyzerMethods:
    def test_ad_and_activity_agree_on_bt(self, bench):
        state = bench.checkpoint_state(4)
        ad_masks = CriticalityAnalyzer("ad").analyze(bench, state=state)
        act_masks = CriticalityAnalyzer("activity").analyze(bench,
                                                            state=state)
        np.testing.assert_array_equal(ad_masks["u"].mask,
                                      act_masks["u"].mask)
        assert ad_masks["u"].method == "ad"
        assert act_masks["u"].method == "activity"

    def test_rule_method_marks_everything_critical(self, bench):
        masks = CriticalityAnalyzer("rule").analyze(bench, step=2)
        for crit in masks.values():
            assert crit.n_uncritical == 0

    def test_integer_variables_always_rule_critical(self, bench):
        masks = CriticalityAnalyzer("ad").analyze(bench, step=2)
        assert masks["step"].method == "rule"
        assert masks["step"].n_uncritical == 0

    def test_default_step_is_mid_run(self, bench):
        masks = CriticalityAnalyzer("ad").analyze(bench)
        assert masks["u"].mask.shape == bench.params.u_shape

    def test_multi_probe_matches_single_probe_on_bt(self, bench):
        state = bench.checkpoint_state(4)
        single = CriticalityAnalyzer("ad", n_probes=1).analyze(bench,
                                                               state=state)
        multi = CriticalityAnalyzer("ad", n_probes=3).analyze(bench,
                                                              state=state)
        np.testing.assert_array_equal(single["u"].mask, multi["u"].mask)

    def test_gradients_are_exposed_for_ad_method(self, bench):
        masks = CriticalityAnalyzer("ad").analyze(bench, step=2)
        grads = masks["u"].gradients
        assert set(grads) == {"u"}
        assert grads["u"].shape == bench.params.u_shape

    def test_step_limited_analysis_is_a_subset(self, bench):
        # analysing only one remaining iteration can only shrink the
        # critical set relative to the full remaining computation
        state = bench.checkpoint_state(2)
        full = CriticalityAnalyzer("ad").analyze(bench, state=state)
        short = CriticalityAnalyzer("ad", steps=1).analyze(bench, state=state)
        assert not np.any(short["u"].mask & ~full["u"].mask)

    def test_preserves_table1_variable_order(self, bench):
        masks = CriticalityAnalyzer("ad").analyze(bench, step=2)
        assert list(masks) == [v.name for v in bench.checkpoint_variables()]


class TestMultiProbeCatchesCoincidentalZero:
    def test_probing_reveals_masked_dependence(self):
        """A derivative that vanishes at the base point but not nearby."""

        class Coincidental:
            """f(v) = v0^2 / 2 with v0 = 0 at the checkpoint state."""

            name = "COINC"
            total_steps = 2

            class params:  # noqa: D106 - minimal stand-in
                problem_class = "T"
                niter = 2

            def checkpoint_variables(self):
                return (CheckpointVariable("v", (2,)),)

            def checkpoint_state(self, step):
                return {"v": np.array([0.0, 1.0])}

            def traced_restart(self, state, watch=None, steps=None):
                from repro.ad.tape import Tape

                with Tape() as tape:
                    leaf = tape.watch(np.asarray(state["v"],
                                                 dtype=np.float64), name="v")
                    out = ops.sum(leaf * leaf) * 0.5
                return tape, {"v": leaf}, out

        bench = Coincidental()
        single = CriticalityAnalyzer("ad", n_probes=1).analyze(bench, step=1)
        multi = CriticalityAnalyzer("ad", n_probes=4).analyze(bench, step=1)
        # the single sweep misses v[0] (gradient v0 == 0 at the base point)
        assert not single["v"].mask[0]
        # probing perturbs the base point and recovers the dependence
        assert multi["v"].mask[0]
        assert multi["v"].mask[1]


class TestPerAnalysisProbeGenerator:
    """The probe noise must depend only on *what* is analysed.

    Regression for a reuse bug: the analyzer used to draw probe noise from
    one mutable generator shared across ``analyze()`` calls, so with
    ``n_probes > 1`` a benchmark's mask depended on what the same analyzer
    instance had analysed before it.  A reused sequential analyzer must be
    indistinguishable from the parallel engine's fresh-analyzer-per-job
    path.
    """

    @staticmethod
    def _masks(result):
        return {name: crit.mask for name, crit in result.items()}

    def test_reused_analyzer_matches_fresh_analyzers(self):
        cg = registry.create("CG", "T")
        ep = registry.create("EP", "T")

        reused = CriticalityAnalyzer("ad", n_probes=3)
        first_cg = reused.analyze(cg, step=2)
        _ = reused.analyze(ep, step=2)       # interleaved other work
        second_cg = reused.analyze(cg, step=2)

        fresh_cg = CriticalityAnalyzer("ad", n_probes=3).analyze(cg, step=2)

        for name in fresh_cg:
            np.testing.assert_array_equal(first_cg[name].mask,
                                          fresh_cg[name].mask)
            np.testing.assert_array_equal(second_cg[name].mask,
                                          fresh_cg[name].mask)

    def test_analysis_order_does_not_leak_between_benchmarks(self):
        cg = registry.create("CG", "T")
        ep = registry.create("EP", "T")

        forward_order = CriticalityAnalyzer("ad", n_probes=2)
        a_then_b = (forward_order.analyze(cg, step=1),
                    forward_order.analyze(ep, step=1))

        reverse_order = CriticalityAnalyzer("ad", n_probes=2)
        b_second = reverse_order.analyze(ep, step=1)
        a_second = reverse_order.analyze(cg, step=1)

        for name in a_then_b[0]:
            np.testing.assert_array_equal(a_then_b[0][name].mask,
                                          a_second[name].mask)
        for name in a_then_b[1]:
            np.testing.assert_array_equal(a_then_b[1][name].mask,
                                          b_second[name].mask)

    def test_explicit_generator_keeps_legacy_stateful_behaviour(self):
        bench = registry.create("CG", "T")
        rng = np.random.default_rng(7)
        analyzer = CriticalityAnalyzer("ad", n_probes=2, rng=rng)
        result = analyzer.analyze(bench, step=1)
        assert analyzer.rng is rng           # caller still owns the stream
        assert result["x"].mask.shape == (bench.params.x_len,)


class TestSweepOption:
    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            CriticalityAnalyzer(sweep="sideways")

    def test_segmented_analyzer_masks_match_monolithic(self, bench):
        state = bench.checkpoint_state(4)
        mono = CriticalityAnalyzer("ad").analyze(bench, state=state)
        seg = CriticalityAnalyzer("ad", sweep="segmented").analyze(
            bench, state=state)
        for name in mono:
            np.testing.assert_array_equal(mono[name].mask, seg[name].mask)

    def test_scrutinize_with_explicit_state_matches_direct_analyze(self):
        # both public entry points must derive the same probe noise for
        # the same analysis (scrutinize must not inject its mid-run
        # default step into the rng derivation when given a state)
        from repro.core.analysis import scrutinize

        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(3)
        via_scrutinize = scrutinize(bench, state=state, n_probes=3)
        direct = CriticalityAnalyzer("ad", n_probes=3).analyze(bench,
                                                               state=state)
        for name in direct:
            np.testing.assert_array_equal(
                via_scrutinize.variables[name].mask, direct[name].mask)
