"""Failure injection and the restart-correctness harness (Section IV-C).

The paper validates the AD analysis by checkpointing only the critical
elements, failing the run, restarting from the pruned checkpoint and letting
the benchmark's own verification phase judge the result: *"In principle, the
uncritical elements should not impact the computation correctness even if
their values are altered by system failures."*

This module provides the pieces of that experiment:

* :class:`SimulatedFailure` -- the exception the main-loop driver raises at
  the configured failure step (standing in for a node crash);
* :func:`corrupt_state` -- overwrite the uncritical (or, for the negative
  control, the critical) elements of a state with garbage, modelling the
  data loss a failure causes in memory regions that were not checkpointed;
* :func:`run_failure_scenario` -- the end-to-end harness: run with periodic
  (pruned or full) checkpoints, from step 0 or resumed from a given state
  (the analysed checkpoint state), fail, rebuild a base state with
  corrupted non-checkpointed data, restart from the latest checkpoint and
  verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.criticality import VariableCriticality
from repro.core.variables import validate_state
from repro.npb.base import concrete_state
from repro.npb.common import VerificationResult

from .manager import CheckpointManager, run_with_checkpoints
from .restart import RestartOutcome, restore_state

__all__ = [
    "SimulatedFailure",
    "corrupt_state",
    "FailureScenarioResult",
    "default_fail_step",
    "run_failure_scenario",
]


class SimulatedFailure(RuntimeError):
    """Raised by the main-loop driver to model a crash at a step boundary."""

    def __init__(self, step: int, state: Mapping[str, Any]) -> None:
        super().__init__(f"simulated failure after main-loop step {step}")
        self.step = int(step)
        self.state = dict(state)


def corrupt_state(state: Mapping[str, Any],
                  criticality: Mapping[str, VariableCriticality],
                  where: str = "uncritical",
                  magnitude: float = 1.0e3,
                  rng: np.random.Generator | None = None) -> dict[str, Any]:
    """Overwrite selected elements of a state copy with garbage.

    Parameters
    ----------
    state:
        The state to corrupt (not modified; a corrupted copy is returned).
    criticality:
        Per-variable criticality masks.
    where:
        ``"uncritical"`` corrupts only uncritical elements (the paper's
        claim: this must not matter), ``"critical"`` corrupts only critical
        elements (the negative control: this must break verification),
        ``"all"`` corrupts everything.
    magnitude:
        Scale of the uniform garbage written into the selected elements.
    rng:
        Source of garbage values (fixed default for reproducibility).
    """
    if where not in ("uncritical", "critical", "all"):
        raise ValueError(f"unknown corruption target {where!r}")
    rng = rng or np.random.default_rng(13)
    corrupted = concrete_state(state)
    for crit in criticality.values():
        if where == "uncritical":
            target = ~crit.mask
        elif where == "critical":
            target = crit.mask
        else:
            target = np.ones_like(crit.mask)
        if not target.any():
            continue
        for key in crit.variable.state_keys():
            if key not in corrupted:
                continue
            arr = np.array(np.asarray(corrupted[key], dtype=np.float64),
                           copy=True)
            if arr.shape != target.shape:
                continue
            garbage = magnitude * (rng.random(arr.shape) - 0.5)
            arr = np.where(target, garbage, arr)
            if np.issubdtype(np.asarray(corrupted[key]).dtype, np.integer):
                corrupted[key] = arr.astype(np.asarray(corrupted[key]).dtype)
            else:
                corrupted[key] = arr
    return corrupted


@dataclass
class FailureScenarioResult:
    """Outcome of one end-to-end failure/restart scenario."""

    benchmark: str
    mode: str
    corrupted: str
    unrecovered: str | None
    fail_step: int
    restart_step: int
    outcome: RestartOutcome

    @property
    def verification_passed(self) -> bool:
        """Did the post-restart verification pass?"""
        return self.outcome.passed

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "PASSED" if self.verification_passed else "FAILED"
        unrecovered = (f", {self.unrecovered} elements left unrecovered"
                       if self.unrecovered else "")
        return (f"{self.benchmark}: {self.mode} checkpoints, failure after "
                f"step {self.fail_step}, corrupted {self.corrupted} "
                f"elements{unrecovered}, restarted at step "
                f"{self.restart_step}: verification {status}")


def default_fail_step(bench, interval: int) -> int:
    """The failure step :func:`run_failure_scenario` injects by default:
    about 3/4 of the run, but always after the first checkpoint."""
    fail_at_step = max((3 * bench.total_steps) // 4, interval + 1)
    return min(fail_at_step, bench.total_steps)


def _check_start(bench, state: Mapping[str, Any] | None, start_step: int,
                 fail_at_step: int) -> None:
    """Raise ``ValueError`` unless ``state`` is a valid state of ``bench``
    after ``start_step`` iterations, before the failure."""
    if not 0 <= start_step < fail_at_step:
        raise ValueError(f"start step {start_step} outside [0, "
                         f"{fail_at_step}): the run must start before the "
                         f"failure at step {fail_at_step}")
    if state is None:
        if start_step:
            raise ValueError(f"start step {start_step} given without the "
                             f"state to resume from")
        return
    validate_state(bench.checkpoint_variables(), state)
    counter = bench.step_variable()
    if counter is not None:
        done = int(np.asarray(state[counter]).item())
        if done != start_step:
            raise ValueError(f"start state's step counter {counter!r} is "
                             f"{done}, not the start step {start_step}")


def run_failure_scenario(bench, directory: str | Path,
                         criticality: Mapping[str, VariableCriticality],
                         interval: int = 1,
                         mode: str = "pruned",
                         fail_at_step: int | None = None,
                         corrupt: str = "uncritical",
                         unrecovered: str | None = None,
                         magnitude: float = 1.0e3,
                         rng: np.random.Generator | None = None,
                         state: Mapping[str, Any] | None = None,
                         start_step: int = 0) -> FailureScenarioResult:
    """The Section IV-C experiment for one benchmark.

    Runs ``bench`` with periodic checkpoints of the requested ``mode``,
    injects a failure after ``fail_at_step`` (default: ~3/4 of the run,
    :func:`default_fail_step`), rebuilds a restart base state whose
    non-checkpointed memory is corrupted according to ``corrupt``, restores
    the latest checkpoint on top of it, finishes the run and verifies.

    ``state``/``start_step`` resume the checkpointed run from a clean state
    after ``start_step`` iterations (as for :func:`run_with_checkpoints`)
    instead of from step 0: :mod:`repro.experiments.verify` passes the
    state the analysis already computed.  The start state is written as a
    checkpoint when the interval makes ``start_step`` a checkpoint step, as
    a run from step 0 would have written it, so the restart sees the same
    checkpoints either way.  ``ValueError`` is raised when ``start_step``
    is not in ``[0, fail_at_step)``, when the state is missing or
    mis-shapes a checkpoint variable, or when its step counter
    (``bench.step_variable()``) is not ``start_step``.  ``state`` is not
    modified.

    ``unrecovered`` models a checkpoint that fails to bring back part of the
    state: the named element class (``"critical"`` for the paper's negative
    control) is re-corrupted *after* the restore, so the restart proceeds
    without those values.  The verification is then expected to fail, which
    is exactly the evidence that those elements were critical.  Garbage in
    those elements may also crash the replay or the verification itself
    (FT indexing with a garbage step counter, IS binning negative keys);
    with ``unrecovered`` set, such an exception counts as a failed
    verification whose notes name it.  Without ``unrecovered`` exceptions
    propagate.
    """
    directory = Path(directory)
    if fail_at_step is None:
        fail_at_step = default_fail_step(bench, interval)
    _check_start(bench, state, start_step, fail_at_step)
    manager = CheckpointManager(directory, bench, interval=interval,
                                mode=mode, criticality=criticality)
    # the first checkpoint step the run reaches: steps before the failure
    # are checkpointed, the start itself only when resumed from it
    first = interval * max(-(-start_step // interval), 1)
    if fail_at_step <= first:
        raise ValueError(
            f"failure at step {fail_at_step} happens before the first "
            f"checkpoint (interval {interval}, start step {start_step}); "
            f"nothing could be restored")
    if state is not None:
        manager.maybe_checkpoint(state, start_step)
    try:
        run_with_checkpoints(bench, manager, fail_at_step=fail_at_step,
                             state=state, start_step=start_step)
    except SimulatedFailure:
        pass
    else:  # pragma: no cover - defensive guard
        raise RuntimeError("failure was configured but never triggered")

    latest = manager.latest()
    if latest is None:
        raise RuntimeError(
            f"no checkpoint available before the failure at step "
            f"{fail_at_step}; lower the interval")

    # the restart base: a fresh initial state whose selected elements are
    # garbage -- whatever was not checkpointed cannot be trusted
    base_state = corrupt_state(bench.initial_state(), criticality,
                               where=corrupt, magnitude=magnitude, rng=rng)
    state = restore_state(latest, bench, base_state=base_state)
    if unrecovered is not None:
        state = corrupt_state(state, criticality, where=unrecovered,
                              magnitude=magnitude, rng=rng)
    remaining = max(bench.total_steps - latest.step, 0)
    # replaying from a deliberately corrupted state may legitimately blow up
    # (that is what the negative control demonstrates); keep it quiet
    with np.errstate(all="ignore"):
        try:
            final_state = bench.run(state, remaining)
            verification = bench.verify(final_state)
        except Exception as exc:
            if unrecovered is None:
                raise
            final_state = state
            verification = VerificationResult(
                bench.name, False, getattr(bench, "epsilon", float("nan")),
                notes=f"restart raised {type(exc).__name__}: {exc}")
    outcome = RestartOutcome(
        benchmark=bench.name,
        mode=latest.mode,
        restart_step=int(latest.step),
        steps_replayed=int(remaining),
        verification=verification,
        final_state=concrete_state(final_state),
    )
    return FailureScenarioResult(
        benchmark=bench.name,
        mode=mode,
        corrupted=corrupt,
        unrecovered=unrecovered,
        fail_step=int(fail_at_step),
        restart_step=int(latest.step),
        outcome=outcome,
    )
