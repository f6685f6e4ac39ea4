"""Restarting benchmarks from checkpoints.

This is the consumer side of the paper's Section III-B / IV-C: load the
latest checkpoint (full or pruned), rebuild the application state (for
pruned checkpoints the uncritical slots are filled from a freshly
constructed initial state -- their values are irrelevant by construction),
run the remaining main-loop iterations and hand the final state to the
benchmark's own verification phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.npb.common import VerificationResult

from .reader import LoadedCheckpoint, read_checkpoint

__all__ = ["RestartOutcome", "restore_state", "restart_benchmark"]


@dataclass
class RestartOutcome:
    """Result of restarting a benchmark from a checkpoint."""

    benchmark: str
    mode: str
    restart_step: int
    steps_replayed: int
    verification: VerificationResult
    final_state: dict[str, Any]

    @property
    def passed(self) -> bool:
        """Did the benchmark's own verification phase succeed?"""
        return bool(self.verification)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "PASSED" if self.passed else "FAILED"
        return (f"{self.benchmark}: restart from {self.mode} checkpoint at "
                f"step {self.restart_step}, replayed {self.steps_replayed} "
                f"iterations, verification {status}")


def restore_state(checkpoint: LoadedCheckpoint | str | Path, bench,
                  base_state: Mapping[str, Any] | None = None
                  ) -> dict[str, Any]:
    """Rebuild an application state dict from a checkpoint.

    For pruned and mixed-precision checkpoints the ``base_state`` defaults
    to ``bench.initial_state()``; only its uncritical slots survive into the
    restored state, so any garbage there must not change the outcome (the
    property the verification experiments check).
    """
    if not isinstance(checkpoint, LoadedCheckpoint):
        checkpoint = read_checkpoint(checkpoint)
    if checkpoint.mode in ("pruned", "mixed") and base_state is None:
        base_state = bench.initial_state()
    return checkpoint.materialize(base_state)


def restart_benchmark(bench, checkpoint: LoadedCheckpoint | str | Path,
                      base_state: Mapping[str, Any] | None = None,
                      steps: int | None = None) -> RestartOutcome:
    """Restore, run the remaining iterations and verify.

    Parameters
    ----------
    bench:
        The benchmark instance to restart (must match the checkpoint's
        benchmark name).
    checkpoint:
        A loaded checkpoint or a path to one.
    base_state:
        Optional explicit base state for pruned checkpoints (e.g. a
        deliberately corrupted one from the failure-injection harness).
    steps:
        Number of iterations to replay; defaults to every remaining
        iteration implied by the checkpoint's step.
    """
    if not isinstance(checkpoint, LoadedCheckpoint):
        checkpoint = read_checkpoint(checkpoint)
    if checkpoint.header.benchmark != bench.name:
        raise ValueError(
            f"checkpoint was written by {checkpoint.header.benchmark!r}, "
            f"cannot restart {bench.name!r} from it")
    state = restore_state(checkpoint, bench, base_state)
    remaining = steps if steps is not None \
        else max(bench.total_steps - checkpoint.step, 0)
    final_state = bench.run(state, remaining)
    verification = bench.verify(final_state)
    return RestartOutcome(
        benchmark=bench.name,
        mode=checkpoint.mode,
        restart_step=int(checkpoint.step),
        steps_replayed=int(remaining),
        verification=verification,
        final_state={k: (np.array(v, copy=True)
                         if isinstance(v, np.ndarray) else v)
                     for k, v in final_state.items()},
    )
