"""Tests of the NPBBenchmark base class using a minimal toy benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.probes import stack_states
from repro.ad.tape import read_only_view
from repro.core.variables import CheckpointVariable, VariableKind
from repro.npb import registry
from repro.npb.base import NPBBenchmark, concrete_state, copy_state
from repro.npb.common import VerificationResult


@dataclass(frozen=True)
class ToyParams:
    problem_class: str = "T"
    niter: int = 4
    n: int = 6


class ToyBenchmark(NPBBenchmark):
    """Doubles the first half of a vector each step; second half unused."""

    name = "TOY"
    step_name = "it"

    def checkpoint_variables(self):
        return (
            CheckpointVariable("v", (self.params.n,), VariableKind.FLOAT),
            CheckpointVariable("it", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True),
        )

    def initial_state(self):
        return {"v": np.arange(1.0, self.params.n + 1.0), "it": 0}

    def _advance(self, state):
        half = self.params.n // 2
        v = state["v"]
        updated = ops.index_update(v, slice(0, half), v[0:half] * 1.5)
        return {"v": updated, "it": int(state["it"]) + 1}

    def output(self, state):
        half = self.params.n // 2
        return ops.sum(state["v"][0:half])

    def verify(self, state):
        value = float(ops.to_numpy(self.output(state)))
        expected = 1.5 ** self.params.niter * sum(
            range(1, self.params.n // 2 + 1))
        passed = abs(value - expected) / expected < 1e-12
        return VerificationResult(self.name, passed, 1e-12)


@pytest.fixture()
def toy():
    return ToyBenchmark(ToyParams())


class TestStateHelpers:
    def test_concrete_state_copies_arrays(self):
        state = {"a": np.ones(3), "n": 5}
        out = concrete_state(state)
        out["a"][0] = 99.0
        assert state["a"][0] == 1.0
        assert out["n"] == 5

    def test_copy_state_equivalent(self):
        state = {"a": np.ones(3)}
        assert np.array_equal(copy_state(state)["a"], state["a"])


class TestMainLoopDrivers:
    def test_run_zero_steps_is_identity(self, toy):
        state = toy.initial_state()
        out = toy.run(state, 0)
        np.testing.assert_array_equal(out["v"], state["v"])

    def test_run_negative_steps_rejected(self, toy):
        with pytest.raises(ValueError):
            toy.run(toy.initial_state(), -1)

    def test_run_full_and_verify(self, toy):
        assert toy.run_and_verify().passed

    def test_checkpoint_state_bounds(self, toy):
        with pytest.raises(ValueError):
            toy.checkpoint_state(-1)
        with pytest.raises(ValueError):
            toy.checkpoint_state(toy.total_steps + 1)

    def test_checkpoint_state_is_concrete(self, toy):
        state = toy.checkpoint_state(2)
        assert isinstance(state["v"], np.ndarray)
        assert state["it"] == 2

    def test_step_variable_detected(self, toy):
        assert toy.step_variable() == "it"

    def test_remaining_steps(self, toy):
        assert toy.remaining_steps(1) == toy.total_steps - 1

    def test_restart_output_defaults_to_remaining_steps(self, toy):
        # restarting from step k and finishing must give the full-run output
        full = float(ops.to_numpy(toy.output(toy.run_full())))
        mid = toy.checkpoint_state(2)
        restarted = float(ops.to_numpy(toy.restart_output(mid)))
        assert restarted == pytest.approx(full)

    def test_describe_lists_variables(self, toy):
        text = toy.describe()
        assert "TOY" in text
        assert "v" in text and "it" in text


class TestTracedRestart:
    def test_traced_restart_returns_gradients_for_watched_keys(self, toy):
        state = toy.checkpoint_state(2)
        tape, leaves, out = toy.traced_restart(state)
        assert set(leaves) == {"v"}
        (grad,) = tape.gradient(out, [leaves["v"]])
        half = toy.params.n // 2
        assert np.all(grad[:half] != 0.0)
        assert np.all(grad[half:] == 0.0)

    def test_traced_restart_unknown_watch_key(self, toy):
        with pytest.raises(KeyError):
            toy.traced_restart(toy.checkpoint_state(1), watch=["nope"])

    def test_traced_restart_explicit_steps(self, toy):
        state = toy.checkpoint_state(1)
        tape, leaves, out = toy.traced_restart(state, steps=1)
        (grad,) = tape.gradient(out, [leaves["v"]])
        # one step of x *= 1.5 followed by a sum: derivative is exactly 1.5
        assert np.allclose(grad[: toy.params.n // 2], 1.5)


def _assert_state_bitwise(before, after, label):
    assert list(before) == list(after), label
    for key, want in before.items():
        got = after[key]
        assert type(got) is type(want), f"{label}[{key}]"
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape \
                and got.tobytes() == want.tobytes(), f"{label}[{key}]"
        else:
            assert got == want, f"{label}[{key}]"


@pytest.mark.parametrize("name", registry.available_benchmarks())
def test_tracing_hooks_leave_the_passed_state_unchanged(name):
    # the hooks trace the state they are handed without copying it (each
    # leaf is a view of its entry), so no port may write into it, whether
    # traced plainly or probe-batched, directly or through a leaf
    bench = registry.create(name, "T")
    state = bench.checkpoint_state(bench.total_steps // 2)
    watch = bench.default_watch_keys()
    stacked = stack_states([state, state], watch)
    calls = {
        "traced_restart": (state, lambda s: bench.traced_restart(s)),
        "traced_step": (state, lambda s: bench.traced_step(s)),
        "traced_restart_probes":
            (stacked, lambda s: bench.traced_restart_probes(s, 2)),
        "traced_step_probes":
            (stacked, lambda s: bench.traced_step_probes(s, 2)),
    }
    for hook, (passed, call) in calls.items():
        before = copy_state(passed)
        call(passed)
        _assert_state_bitwise(before, passed, f"{name}.{hook}")


@pytest.mark.parametrize("name,cls", [
    *((name, "T") for name in registry.available_benchmarks()),
    ("FT", "S"), ("IS", "S")])
def test_run_never_writes_into_the_state_it_is_handed(name, cls):
    # the segmented sweeps keep every boundary by reference and step from
    # it with run(), so run() must return new arrays: a write into a
    # read-only input raises, and the caller's arrays keep every byte
    bench = registry.create(name, cls)
    step = bench.total_steps // 2
    state = bench.checkpoint_state(step)
    for t in range(step, min(step + 2, bench.total_steps)):
        before = copy_state(state)
        after = bench.run({key: read_only_view(val)
                           if isinstance(val, np.ndarray) else val
                           for key, val in state.items()}, 1)
        _assert_state_bitwise(before, state, f"{name}-{cls}.run@{t}")
        state = after


class TestHooksAreAbstract:
    def test_base_class_raises_not_implemented(self):
        bench = NPBBenchmark(ToyParams())
        with pytest.raises(NotImplementedError):
            bench.checkpoint_variables()
        with pytest.raises(NotImplementedError):
            bench.initial_state()
        with pytest.raises(NotImplementedError):
            bench._advance({})
        with pytest.raises(NotImplementedError):
            bench.output({})
