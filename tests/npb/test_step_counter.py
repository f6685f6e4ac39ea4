"""Every port names the checkpoint variable that counts main-loop iterations.

IS checkpoints two scalar integers: ``passed_verification`` (spot checks
passed so far) and ``iteration`` (the main-loop index).  They agree on a
clean run, so only a state where they differ shows which one the remaining
step count, the resume check and the checkpoint header read.
"""

from __future__ import annotations

import pytest

from repro.ckpt.failure import _check_start, default_fail_step
from repro.ckpt.writer import header_meta
from repro.core.variables import VariableKind
from repro.npb import registry

COUNTERS = {"BT": "step", "SP": "step", "LU": "istep", "MG": "it",
            "CG": "it", "FT": "kt", "EP": "k", "IS": "iteration"}


def test_every_port_is_covered():
    assert sorted(COUNTERS) == sorted(registry.available_benchmarks())


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counter_is_a_scalar_integer_that_counts_iterations(name):
    bench = registry.create(name, "T")
    counter = bench.step_variable()
    assert counter == COUNTERS[name]
    (var,) = [v for v in bench.checkpoint_variables() if v.name == counter]
    assert var.kind is VariableKind.INTEGER and var.is_scalar
    assert int(bench.checkpoint_state(1)[counter]) == 1


class TestISCountersDisagree:
    """An IS state after 2 iterations whose spot check failed once."""

    @pytest.fixture()
    def case(self):
        bench = registry.create("IS", "T")
        state = bench.checkpoint_state(2)
        state["passed_verification"] = 1
        return bench, state

    def test_remaining_steps_follow_the_iteration(self, case):
        bench, state = case
        assert bench._default_remaining_steps(state) \
            == bench.total_steps - 2

    def test_resume_check_follows_the_iteration(self, case):
        bench, state = case
        fail = default_fail_step(bench, 1)
        _check_start(bench, state, 2, fail)
        with pytest.raises(ValueError, match="'iteration' is 2, not the "
                                             "start step 1"):
            _check_start(bench, state, 1, fail)

    def test_checkpoint_header_follows_the_iteration(self, case):
        bench, state = case
        assert header_meta(bench, state, None)["step"] == 2
