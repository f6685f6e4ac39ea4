"""The masks do not depend on the analysed checkpoint step.

Section IV-C analyses one checkpoint (the middle of the main loop), writes
every periodic checkpoint with that analysis' masks and restarts from the
latest checkpoint before the failure -- a later step than the analysed
one (CG-S restarts at step 9, analysed at 7; IS-S at 6, analysed at 5).
That is only safe when the masks are step-independent, which the paper
states and these tests pin: the 1-probe ``scrutinize`` masks at
``total_steps // 4``, ``total_steps // 2`` and the scenario's restart step
are equal, for every port at class T and for CG, LU and IS at class S.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.failure import default_fail_step
from repro.core.analysis import scrutinize
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


def _scenario_restart_step(bench) -> int:
    """The step ``experiments.verify`` restarts from: the latest checkpoint
    before the failure.  Checkpoints fall on positive multiples of the
    interval, plus the analysed start step when it precedes the failure."""
    interval = max(bench.total_steps // 4, 1)
    fail = default_fail_step(bench, interval)
    latest = interval * ((fail - 1) // interval)
    analysed = bench.total_steps // 2
    return max(latest, analysed) if analysed < fail else latest


def _assert_step_independent(name: str, problem_class: str) -> None:
    bench = registry.create(name, problem_class)
    total = bench.total_steps
    steps = sorted({total // 4, total // 2, _scenario_restart_step(bench)})
    results = {step: scrutinize(registry.create(name, problem_class),
                                step=step)
               for step in steps}
    first, *others = steps
    for step in others:
        for var, crit in results[first].variables.items():
            np.testing.assert_array_equal(
                crit.mask, results[step].variables[var].mask,
                err_msg=f"{name}-{problem_class}.{var}: step {step} "
                        f"differs from step {first}")


@pytest.mark.parametrize("name", ALL_PORTS)
def test_masks_are_step_independent_at_class_t(name):
    _assert_step_independent(name, "T")


@pytest.mark.parametrize("name", ("CG", "LU", "IS"))
def test_masks_are_step_independent_at_class_s(name):
    _assert_step_independent(name, "S")


@pytest.mark.parametrize("name,problem_class,restart",
                         [("CG", "S", 9), ("IS", "S", 6)])
def test_restart_step_is_later_than_the_analysed_step(name, problem_class,
                                                      restart):
    bench = registry.create(name, problem_class)
    assert _scenario_restart_step(bench) == restart > bench.total_steps // 2
