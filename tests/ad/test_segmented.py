"""Segmented reverse sweep: bitwise equivalence and bounded tape memory.

The acceptance bar of the segmented subsystem is *bitwise* identity with the
monolithic sweep -- not approximate agreement -- because the criticality
criterion is "derivative exactly 0.0"; any rounding drift between the two
strategies could flip an element between critical and uncritical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.activity import read_masks, segmented_read_masks
from repro.ad.probes import ProbeBatchingError, segmented_batched_gradients
from repro.ad.reverse import backward, backward_from_seeds
from repro.ad.segmented import (SweepStats, float_state_keys,
                                segmented_gradients)
from repro.ad.tape import Tape
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_BENCHMARKS = registry.available_benchmarks()


def _monolithic_gradients(bench, state, watch):
    tape, leaves, out = bench.traced_restart(state, watch=list(watch))
    grads = backward(tape, out, [leaves[k] for k in watch], strict=False)
    return dict(zip(watch, grads)), len(tape)


def _monolithic_masks(bench, state, watch):
    tape, leaves, _out = bench.traced_restart(state, watch=list(watch))
    return dict(zip(watch, read_masks(tape, [leaves[k] for k in watch])))


def _assert_bitwise_equal(a, b, label):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, label
    # view as raw bits so -0.0 vs 0.0 or NaN payload drift also fails
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: gradients differ bitwise"


# ---------------------------------------------------------------------------
# gradient-level equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_segmented_gradients_bitwise_equal_monolithic(name):
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    if not watch:  # IS is all-integer: nothing for the AD sweep to do
        pytest.skip(f"{name} has no floating point checkpoint variables")
    state = bench.checkpoint_state(bench.total_steps // 2)
    mono, _ = _monolithic_gradients(bench, state, watch)
    seg = segmented_gradients(bench, state, watch=watch)
    assert list(seg) == list(watch)
    for key in watch:
        _assert_bitwise_equal(mono[key], seg[key], f"{name}[{key}]")


def test_segmented_matches_for_watch_subset():
    # chaining must cover unwatched float auxiliaries (LU recomputes
    # rho_i/qs from u), so asking only for "u" still matches exactly
    bench = registry.create("LU", "T")
    state = bench.checkpoint_state(2)
    mono, _ = _monolithic_gradients(bench, state, ["u"])
    seg = segmented_gradients(bench, state, watch=["u"])
    assert list(seg) == ["u"]
    _assert_bitwise_equal(mono["u"], seg["u"], "LU[u] (watch subset)")


def test_segmented_explicit_steps_and_zero_steps():
    bench = registry.create("CG", "T")
    state = bench.checkpoint_state(1)
    for steps in (0, 1, 2):
        tape, leaves, out = bench.traced_restart(state, watch=["x"],
                                                 steps=steps)
        mono = backward(tape, out, [leaves["x"]], strict=False)[0]
        seg = segmented_gradients(bench, state, watch=["x"], steps=steps)
        _assert_bitwise_equal(mono, seg["x"], f"CG steps={steps}")


def test_segmented_default_steps_follow_state_counter():
    bench = registry.create("EP", "T")
    state = bench.checkpoint_state(bench.total_steps - 3)
    stats = SweepStats()
    segmented_gradients(bench, state, stats=stats)
    # 3 remaining iterations + the output segment
    assert stats.n_segments == 4


def _sweep(kind, bench, state, steps=None, probes=1, **kwargs):
    """Run one of the three ``repro.ad`` sweeps over ``steps`` iterations
    (the batched one over ``probes`` copies of ``state``)."""
    if kind == "segmented":
        return segmented_gradients(bench, state, steps=steps, **kwargs)
    if kind == "batched":
        return segmented_batched_gradients(bench, [state] * probes,
                                           steps=steps, **kwargs)
    return segmented_read_masks(bench, state, steps=steps, **kwargs)


SWEEP_KINDS = ("segmented", "batched", "activity")


class TestStepsCheck:
    """Every sweep rejects a ``steps`` it cannot honour before running."""

    @staticmethod
    def _no_forward(bench, monkeypatch):
        def run(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("a forward step ran before the check")

        monkeypatch.setattr(bench, "run", run)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_overrunning_the_main_loop_is_rejected(self, kind, monkeypatch):
        bench = registry.create("CG", "T")
        state = bench.initial_state()     # 4 iterations remain
        mid = bench.checkpoint_state(1)   # 3 iterations remain
        self._no_forward(bench, monkeypatch)
        with pytest.raises(ValueError, match="overruns the main loop"):
            _sweep(kind, bench, state, 7)
        with pytest.raises(ValueError, match="overruns the main loop"):
            _sweep(kind, bench, mid, 4)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_port_knows_its_remaining_steps(self, name):
        # the overrun check trusts this count: a checkpoint after k
        # iterations leaves exactly total_steps - k of the main loop
        bench = registry.create(name, "T")
        total = bench.total_steps
        for k in (0, 1, total // 2, total):
            state = bench.checkpoint_state(k)
            assert bench._default_remaining_steps(state) == total - k, \
                f"{name}: checkpoint after {k} of {total} iterations"

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_port_rejects_one_step_too_many(self, name, kind,
                                                  monkeypatch):
        bench = registry.create(name, "T")
        k = bench.total_steps // 2
        state = bench.checkpoint_state(k)
        self._no_forward(bench, monkeypatch)
        with pytest.raises(ValueError, match="overruns the main loop"):
            _sweep(kind, bench, state, bench.total_steps - k + 1)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("steps", (2.5, True, "2", -1))
    def test_non_integer_steps_are_rejected(self, kind, steps, monkeypatch):
        bench = registry.create("CG", "T")
        state = bench.initial_state()
        self._no_forward(bench, monkeypatch)
        with pytest.raises(ValueError, match="non-negative integer"):
            _sweep(kind, bench, state, steps)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_every_remaining_iteration_is_accepted(self, kind):
        bench = registry.create("CG", "T")
        state = bench.checkpoint_state(1)
        full = _sweep(kind, bench, state, np.int64(3))
        default = _sweep(kind, bench, state, None)
        for key in default:
            got, want = full[key], default[key]
            if kind == "activity":
                got, want = got.read, want.read
            _assert_bitwise_equal(want, got, f"CG[{key}] {kind}")

    def test_bench_without_a_loop_length_takes_any_steps(self):
        # a benchmark that cannot say how many iterations remain gets only
        # the integer check
        class NoLoopLength:
            def __init__(self, bench):
                self._bench = bench

            def __getattr__(self, name):
                if name == "_default_remaining_steps":
                    raise AttributeError(name)
                return getattr(self._bench, name)

        bench = registry.create("CG", "T")
        state = bench.initial_state()
        grads = segmented_gradients(NoLoopLength(bench), state,
                                    watch=["x"], steps=5)
        assert grads["x"].shape == np.shape(state["x"])
        with pytest.raises(ValueError, match="non-negative integer"):
            segmented_gradients(NoLoopLength(bench), state, steps=2.5)


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_entry_points_validate_alike(kind, monkeypatch):
    """The three entry points share one driver, so they refuse the same
    arguments -- and every refusal comes before the first forward step."""
    probes = 2 if kind == "batched" else 1
    hook = "_probes" if kind == "batched" else ""
    refused = ProbeBatchingError if kind == "batched" else TypeError

    class NoHooks:
        name = "NOHOOKS"

    # per-iteration segments need the step hook; the batched sweep needs
    # the probe hooks even for a single state
    for n in sorted({1, probes}):
        with pytest.raises(refused, match=f"traced_step{hook}") as err:
            _sweep(kind, NoHooks(), {"x": np.ones(3)}, probes=n)
    if kind == "batched":
        # the per-probe fallback is the analyzer's, not an option
        assert "CriticalityAnalyzer falls back to one sweep per probe" \
            in str(err.value)
        assert "probe_batching" not in str(err.value)
    else:
        assert "sweep='monolithic'" in str(err.value)
    # one segment needs only the restart hook
    with pytest.raises(refused, match=f"traced_restart{hook}"):
        _sweep(kind, NoHooks(), {"x": np.ones(3)}, probes=probes,
               tail=None)

    class NoStepHook:
        """CG without its per-iteration tracing hooks."""

        def __init__(self, bench):
            self._bench = bench

        def __getattr__(self, name):
            if name.startswith("traced_step"):
                raise AttributeError(name)
            return getattr(self._bench, name)

    bench = registry.create("CG", "T")
    state = bench.initial_state()     # 4 iterations remain
    one_segment = _sweep(kind, NoStepHook(bench), state, probes=probes,
                         watch=["x"], tail=None)
    assert list(one_segment) == ["x"]

    def run(*args, **kwargs):  # pragma: no cover - must not be hit
        raise AssertionError("a forward step ran before the check")

    monkeypatch.setattr(bench, "run", run)
    with pytest.raises(refused, match=f"traced_step{hook}"):
        _sweep(kind, NoStepHook(bench), state, probes=probes)
    with pytest.raises(KeyError, match="unknown state entry"):
        _sweep(kind, bench, state, probes=probes, watch=["nope"])
    # the activity sweep traces every segment and takes no trace_cache
    with pytest.raises(TypeError if kind == "activity" else ValueError,
                       match="trace_cache"):
        _sweep(kind, bench, state, probes=probes, trace_cache="sometimes")
    with pytest.raises(ValueError, match="non-negative"):
        _sweep(kind, bench, state, -1, probes=probes)
    with pytest.raises(ValueError, match="overruns the main loop"):
        _sweep(kind, bench, state, 5, probes=probes)
    for tail in (-1, 5, 1.5, True):
        with pytest.raises(ValueError, match="tail must be"):
            _sweep(kind, bench, state, probes=probes, tail=tail)


def test_float_state_keys_filters_integers():
    state = {"x": np.ones(3), "it": 4, "keys": np.arange(5),
             "s": np.float64(2.0)}
    assert float_state_keys(state) == ["x", "s"]


# ---------------------------------------------------------------------------
# mask-level equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_segmented_masks_bitwise_identical_all_benchmarks(name):
    bench = registry.create(name, "T")
    mono = scrutinize(bench, sweep="monolithic")
    seg = scrutinize(registry.create(name, "T"), sweep="segmented")
    assert list(mono.variables) == list(seg.variables)
    for var in mono.variables:
        assert np.array_equal(mono.variables[var].mask,
                              seg.variables[var].mask), \
            f"{name}({var}): masks differ between sweeps"
        for key, grad in mono.variables[var].gradients.items():
            _assert_bitwise_equal(grad, seg.variables[var].gradients[key],
                                  f"{name}({var}/{key})")
    assert mono.n_uncritical == seg.n_uncritical


def test_segmented_multi_probe_masks_identical():
    mono = scrutinize(registry.create("CG", "T"), n_probes=3,
                      sweep="monolithic")
    seg = scrutinize(registry.create("CG", "T"), n_probes=3,
                     sweep="segmented")
    for var in mono.variables:
        assert np.array_equal(mono.variables[var].mask,
                              seg.variables[var].mask)


# ---------------------------------------------------------------------------
# a multi-iteration output segment chained into step segments
# ---------------------------------------------------------------------------

def _probe_states(bench, watch, n_probes):
    """The step-0 state plus ``n_probes - 1`` perturbed copies."""
    state = bench.checkpoint_state(0)
    rng = np.random.default_rng(1234)
    states = [state]
    for _ in range(n_probes - 1):
        probed = dict(state)
        for key in watch:
            base = np.asarray(state[key], dtype=np.float64)
            probed[key] = base + 1.0e-3 * rng.standard_normal(base.shape)
        states.append(probed)
    return states


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_multi_iteration_output_segment_matches_one_tape(name):
    """``tail = steps // 2``: the output segment traces several iterations
    and hands its carry to per-iteration step segments -- the junction
    neither ``tail=0`` nor ``tail=steps`` crosses.  Gradients (1 and 3
    probes, all keys and the first key alone, whose dependences may cross
    the junction through unwatched entries) and activity masks must equal
    the one-tape oracles bitwise."""
    bench = registry.create(name, "T")
    watch = bench.default_watch_keys()
    steps = bench.total_steps
    tail = steps // 2
    assert 0 < tail < steps

    for n_probes, keys in ((1, watch), (1, watch[:1]), (3, watch)):
        states = _probe_states(bench, watch, n_probes)
        stats = SweepStats()
        if n_probes == 1:
            got = {key: grad[None] for key, grad in segmented_gradients(
                bench, states[0], watch=keys, tail=tail,
                stats=stats).items()}
        else:
            got = segmented_batched_gradients(bench, states, watch=keys,
                                              tail=tail, stats=stats)
        # the output segment plus one segment per untraced-tail iteration
        assert stats.n_segments == steps - tail + 1
        assert list(got) == list(keys)
        for p, state in enumerate(states):
            want, _ = _monolithic_gradients(bench, state, keys)
            for key in keys:
                _assert_bitwise_equal(want[key], got[key][p],
                                      f"{name}[{key}] probe {p}/{n_probes}")

    state = bench.checkpoint_state(0)
    masks = segmented_read_masks(bench, state, watch=watch, tail=tail)
    for key, want in _monolithic_masks(bench, state, watch).items():
        assert np.array_equal(want.read, masks[key].read), f"{name}[{key}]"
        assert np.array_equal(want.moved, masks[key].moved), \
            f"{name}[{key}]"


# ---------------------------------------------------------------------------
# memory bound
# ---------------------------------------------------------------------------

def test_peak_tape_bounded_by_single_iteration():
    bench = registry.create("CG", "T")
    state = bench.checkpoint_state(0)  # analyse the whole main loop
    steps = bench.total_steps

    _, mono_nodes = _monolithic_gradients(bench, state,
                                          bench.default_watch_keys())
    stats = SweepStats()
    segmented_gradients(bench, state, stats=stats)

    assert stats.n_segments == steps + 1
    # every per-segment tape must be no bigger than the largest single
    # iteration, i.e. peak ~ monolithic / steps (with slack for the output
    # segment, which re-runs one solve for CG)
    assert stats.peak_nodes * steps <= mono_nodes * 2
    assert stats.peak_nodes < mono_nodes
    # and the total work recorded is the same order as the monolithic tape
    assert stats.total_nodes >= mono_nodes


def test_sweep_stats_observe_tracks_peaks():
    stats = SweepStats()
    with Tape() as t1:
        x = t1.watch(np.ones(4))
        (x * 2.0).sum()
    with Tape() as t2:
        y = t2.watch(np.ones(8))
        ops.sum(ops.square(y) + y)
    stats.observe(t1)
    stats.observe(t2)
    assert stats.n_segments == 2
    assert stats.peak_nodes == max(len(t1), len(t2))
    assert stats.total_nodes == len(t1) + len(t2)
    assert stats.segment_nodes == [len(t1), len(t2)]
    assert stats.peak_nbytes >= 8 * 8


# ---------------------------------------------------------------------------
# backward_from_seeds
# ---------------------------------------------------------------------------

class TestBackwardFromSeeds:
    def test_single_seed_matches_backward(self):
        with Tape() as tape:
            x = tape.watch(np.arange(1.0, 5.0), name="x")
            y = ops.sum(ops.square(x))
        expected = backward(tape, y, [x], seed=3.0)[0]
        got = backward_from_seeds(tape, [(y, np.float64(3.0))], [x])[0]
        np.testing.assert_array_equal(expected, got)

    def test_multiple_outputs_accumulate(self):
        with Tape() as tape:
            x = tape.watch(np.arange(1.0, 4.0), name="x")
            a = x * 2.0
            b = ops.square(x)
        ga = backward_from_seeds(tape, [(a, np.ones(3))], [x])[0]
        gb = backward_from_seeds(tape, [(b, np.ones(3))], [x])[0]
        both = backward_from_seeds(tape, [(a, np.ones(3)), (b, np.ones(3))],
                                   [x])[0]
        np.testing.assert_array_equal(both, ga + gb)

    def test_same_output_seeded_twice_accumulates(self):
        with Tape() as tape:
            x = tape.watch(np.ones(3), name="x")
            y = x * 5.0
        g = backward_from_seeds(tape, [(y, np.ones(3)), (y, np.ones(3))],
                                [x])[0]
        np.testing.assert_array_equal(g, np.full(3, 10.0))

    def test_seeding_a_leaf_directly(self):
        # the pass-through case: the seeded "output" is the leaf itself
        with Tape() as tape:
            x = tape.watch(np.ones(4), name="x")
            ops.sum(x * 3.0)  # extra consumer, not seeded
        g = backward_from_seeds(tape, [(x, np.arange(4.0))], [x])[0]
        np.testing.assert_array_equal(g, np.arange(4.0))

    def test_caller_seed_array_not_mutated(self):
        seed = np.ones(3)
        with Tape() as tape:
            x = tape.watch(np.ones(3), name="x")
            y = x + x
        g = backward_from_seeds(tape, [(x, seed), (y, seed)], [x])[0]
        np.testing.assert_array_equal(seed, np.ones(3))
        np.testing.assert_array_equal(g, np.full(3, 3.0))

    def test_untraced_output_rejected(self):
        with Tape() as tape:
            x = tape.watch(np.ones(2), name="x")
        with pytest.raises(ValueError, match="traced"):
            backward_from_seeds(tape, [(np.ones(2), np.ones(2))], [x])

    def test_foreign_tape_rejected(self):
        with Tape() as tape:
            x = tape.watch(np.ones(2), name="x")
            y = x * 2.0
        with Tape() as other:
            z = other.watch(np.ones(2), name="z")
        with pytest.raises(ValueError, match="different tape"):
            backward_from_seeds(other, [(y, np.ones(2))], [z])

    def test_no_seeds_yield_zeros(self):
        with Tape() as tape:
            x = tape.watch(np.ones(3), name="x")
            x * 2.0
        g = backward_from_seeds(tape, [], [x])[0]
        np.testing.assert_array_equal(g, np.zeros(3))
