"""Class A: the enlarged scenario unlocked by the segmented reverse sweep.

Class A is deliberately sized so the *monolithic* tape of a full remaining
loop is an order of magnitude larger than one iteration's tape; the
segmented sweep analyses it with per-iteration memory.  The smoke tests run
one class-A analysis end-to-end and check that the paper's structural
findings survive the larger size (CG's two trailing slack slots, FT's
padding plane).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad.segmented import SweepStats, segmented_gradients
from repro.core.analysis import scrutinize
from repro.npb import registry
from repro.npb.params import CLASSES, params_for


class TestClassARegistration:
    def test_class_a_is_a_known_class(self):
        assert "A" in CLASSES

    @pytest.mark.parametrize("name", ["CG", "FT", "MG", "SP", "EP", "IS"])
    def test_class_a_params_registered(self, name):
        params = params_for(name, "A")
        assert params.problem_class == "A"

    def test_class_a_is_larger_than_class_s(self):
        assert params_for("CG", "A").na > params_for("CG", "S").na
        assert params_for("CG", "A").niter > params_for("CG", "S").niter
        a, s = params_for("FT", "A"), params_for("FT", "S")
        assert a.nx * a.ny * a.nz_pad > s.nx * s.ny * s.nz_pad

    def test_class_a_mg_is_larger_than_class_t(self):
        # MG's class A grows the stencil hierarchy (not past class S, whose
        # 46480-slot tape is out of reach for a pure-numpy port) and doubles
        # the V-cycle count -- the dense-tape regime the segmented sweep is
        # for
        a, t = params_for("MG", "A"), params_for("MG", "T")
        assert a.used_elements > t.used_elements
        assert a.niter > t.niter
        assert a.levels > t.levels
        assert a.used_elements <= a.nr

    def test_class_a_sp_is_larger_than_class_s(self):
        # SP's class A grows the ADI grid past class S (same one-plane
        # padding layout) and keeps a longer loop than class T
        a = params_for("SP", "A")
        s = params_for("SP", "S")
        t = params_for("SP", "T")
        assert a.grid_points > s.grid_points
        assert a.jmax == a.grid_points + 1 and a.imax == a.grid_points + 1
        assert a.niter > t.niter

    def test_class_a_simple_ports_have_longer_loops(self):
        # EP and IS scale by main-loop length (many boundary snapshots),
        # not by array size
        assert params_for("EP", "A").n_batches > params_for("EP", "S").n_batches
        assert params_for("IS", "A").niter > params_for("IS", "S").niter
        assert params_for("IS", "A").total_keys \
            > params_for("IS", "S").total_keys

    def test_unregistered_benchmark_gets_actionable_error(self):
        with pytest.raises(KeyError, match="no class-A parameters"):
            params_for("BT", "A")

    def test_truly_unknown_benchmark_still_reported_as_unknown(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            params_for("XX", "A")


class TestClassAEndToEnd:
    def test_cg_class_a_segmented_scrutiny(self):
        """Full end-to-end class-A analysis under the segmented sweep."""
        bench = registry.create("CG", "A")
        result = scrutinize(bench, sweep="segmented")
        assert result.problem_class == "A"
        # the paper's CG finding scales with NA: the two trailing slots of
        # the declared NA + 2 iterate are still the only uncritical elements
        assert result.variables["x"].n_uncritical == 2
        assert not result.variables["x"].mask[-2:].any()
        assert result.variables["x"].mask[: bench.params.na].all()

    def test_ft_class_a_padding_plane_uncritical(self):
        """FT's structural finding at class A (analysis depth limited to
        keep the suite fast; the padding plane is step-independent)."""
        bench = registry.create("FT", "A")
        state = bench.checkpoint_state(bench.total_steps - 2)
        result = scrutinize(bench, state=state, steps=2, sweep="segmented")
        p = bench.params
        for comp in ("y_re", "y_im"):
            grad = result.variables["y"].gradients[comp]
            assert grad.shape == p.y_shape
        mask = result.variables["y"].mask
        assert not mask[:, :, p.nz:].any()      # padding plane uncritical
        assert result.variables["sums"].mask.all()

    def test_cg_class_a_peak_tape_is_per_iteration(self):
        bench = registry.create("CG", "A")
        state = bench.checkpoint_state(bench.total_steps - 5)
        stats = SweepStats()
        segmented_gradients(bench, state, stats=stats)
        assert stats.n_segments == 6            # 5 iterations + output
        # a monolithic tape would hold all segments at once; the segmented
        # peak must stay close to the largest single segment
        assert stats.peak_nodes <= max(stats.segment_nodes)
        assert stats.peak_nodes * 3 < stats.total_nodes

    def test_mg_class_a_segmented_scrutiny(self):
        """MG's stencil class A under the segmented sweep (analysis depth
        limited to keep the suite fast; the declared-but-unused tail of the
        flat hierarchy is step-independent)."""
        bench = registry.create("MG", "A")
        assert bench.total_steps == 8
        state = bench.checkpoint_state(bench.total_steps - 2)
        result = scrutinize(bench, state=state, steps=2, sweep="segmented")
        assert result.problem_class == "A"
        p = bench.params
        # the class-S structural finding survives the resize: the slack
        # slots past the flat level layout are never touched
        for name in ("u", "r"):
            mask = result.variables[name].mask
            assert mask.shape == (p.nr,)
            assert not mask[p.used_elements:].any()
        assert result.variables["u"].mask[: p.used_elements].any()

    def test_mg_class_a_peak_tape_is_per_iteration(self):
        bench = registry.create("MG", "A")
        state = bench.checkpoint_state(bench.total_steps - 2)
        stats = SweepStats()
        segmented_gradients(bench, state, stats=stats)
        assert stats.n_segments == 3            # 2 V-cycles + output
        assert stats.peak_nodes <= max(stats.segment_nodes)
        assert stats.peak_nodes * 2 < stats.total_nodes

    @pytest.mark.parametrize("trace_cache", ["off", "plan"])
    def test_mg_class_a_segmented_activity_matches_monolithic(
            self, trace_cache, sweep_options):
        """The chained activity sweep on the stencil class A: bitwise the
        same read masks as the monolithic tape walk."""
        mono = registry.create("MG", "A")
        state = mono.checkpoint_state(mono.total_steps - 2)
        mono_result = scrutinize(mono, state=dict(state), steps=2,
                                 method="activity")
        sweep_options(trace_cache=trace_cache)
        seg = registry.create("MG", "A")
        seg_result = scrutinize(seg, state=dict(state), steps=2,
                                method="activity", sweep="segmented")
        for name, crit in mono_result.variables.items():
            np.testing.assert_array_equal(
                crit.mask, seg_result.variables[name].mask, err_msg=name)

    def test_sp_class_a_segmented_scrutiny(self):
        """SP's ADI class A under the segmented sweep (analysis depth
        limited to keep the suite fast; the padding planes are
        step-independent)."""
        bench = registry.create("SP", "A")
        assert bench.total_steps == 20
        state = bench.checkpoint_state(bench.total_steps - 2)
        result = scrutinize(bench, state=state, steps=2, sweep="segmented")
        assert result.problem_class == "A"
        p = bench.params
        mask = result.variables["u"].mask.reshape(p.u_shape)
        # the class-S/T structural finding survives the resize: the one
        # jmax/imax padding plane past the used grid is never read
        assert not mask[:, p.grid_points:, :, :].any()
        assert not mask[:, :, p.grid_points:, :].any()
        assert mask[: p.grid_points, : p.grid_points,
                    : p.grid_points, :].all()

    def test_sp_class_a_segmented_activity_matches_monolithic(self):
        """The chained activity sweep on the ADI class A: bitwise the same
        read masks as the monolithic tape walk, with plan replay on."""
        mono = registry.create("SP", "A")
        state = mono.checkpoint_state(mono.total_steps - 2)
        mono_result = scrutinize(mono, state=dict(state), steps=2,
                                 method="activity")
        seg = registry.create("SP", "A")
        seg_result = scrutinize(seg, state=dict(state), steps=2,
                                method="activity", sweep="segmented")
        for name, crit in mono_result.variables.items():
            np.testing.assert_array_equal(
                crit.mask, seg_result.variables[name].mask, err_msg=name)

    def test_ep_class_a_segmented_smoke(self):
        """EP's long-loop class A end-to-end under the segmented sweep
        (analysis depth limited to keep the suite fast; EP's accumulators
        are structurally critical at every step)."""
        bench = registry.create("EP", "A")
        assert bench.total_steps == 512
        state = bench.checkpoint_state(bench.total_steps - 3)
        result = scrutinize(bench, state=state, steps=3, sweep="segmented")
        assert result.problem_class == "A"
        # sums and annulus counts are read-modify-write accumulators:
        # every element stays critical, exactly as at class S
        for name in ("sx", "sy", "q"):
            assert result.variables[name].mask.all()

    def test_is_class_a_segmented_smoke(self):
        """IS's enlarged class A: integer-only state stays critical by
        rule and the segmented sweep degrades gracefully to zeros."""
        bench = registry.create("IS", "A")
        assert bench.total_steps == 40
        state = bench.checkpoint_state(bench.total_steps - 2)
        result = scrutinize(bench, state=state, steps=2, sweep="segmented")
        assert result.problem_class == "A"
        for name, crit in result.variables.items():
            assert crit.method == "rule", name
            assert crit.mask.all(), name
