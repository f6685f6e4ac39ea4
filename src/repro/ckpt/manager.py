"""Versioned checkpoint management.

``CheckpointManager`` owns a checkpoint directory for one benchmark run: it
decides when to write a checkpoint (a fixed main-loop interval, as HPC users
configure in practice), rotates old versions (users "tend to save several
versions of checkpoint files", Section II-A), and finds the latest restorable
version after a failure.  It writes either conventional full checkpoints or
pruned ones driven by a criticality analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.criticality import VariableCriticality

from .reader import LoadedCheckpoint, read_checkpoint
from .writer import (WrittenCheckpoint, write_full_checkpoint,
                     write_pruned_checkpoint)

__all__ = ["CheckpointManager", "run_with_checkpoints"]


class CheckpointManager:
    """Write, rotate and locate checkpoints for one benchmark run.

    Parameters
    ----------
    directory:
        Directory the checkpoint (and auxiliary) files live in; created on
        first use.
    bench:
        The benchmark instance being checkpointed.
    interval:
        Write a checkpoint every ``interval`` main-loop iterations.
    mode:
        ``"full"`` or ``"pruned"``.
    criticality:
        Required for pruned mode: the per-variable criticality masks
        (``ScrutinyResult.variables``).
    keep:
        Number of checkpoint versions to retain (older ones are deleted),
        mimicking multi-version checkpoint retention.
    """

    def __init__(self, directory: str | Path, bench, interval: int = 1,
                 mode: str = "full",
                 criticality: Mapping[str, VariableCriticality] | None = None,
                 keep: int = 3) -> None:
        if mode not in ("full", "pruned"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        if mode == "pruned" and criticality is None:
            raise ValueError("pruned mode needs a criticality analysis")
        if interval < 1:
            raise ValueError("checkpoint interval must be positive")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint version")
        self.directory = Path(directory)
        self.bench = bench
        self.interval = int(interval)
        self.mode = mode
        self.criticality = dict(criticality) if criticality else None
        self.keep = int(keep)
        self.written: list[WrittenCheckpoint] = []

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _path_for(self, step: int) -> Path:
        return self.directory / f"{self.bench.name.lower()}_step{step:06d}.ckpt"

    def should_checkpoint(self, step: int) -> bool:
        """True when a checkpoint is due after main-loop iteration ``step``."""
        return step > 0 and step % self.interval == 0

    def checkpoint(self, state: Mapping[str, Any], step: int
                   ) -> WrittenCheckpoint:
        """Write a checkpoint of ``state`` taken after iteration ``step``."""
        path = self._path_for(step)
        if self.mode == "full":
            written = write_full_checkpoint(path, self.bench, state, step=step)
        else:
            written = write_pruned_checkpoint(path, self.bench, state,
                                              self.criticality, step=step)
        self.written.append(written)
        self._rotate()
        return written

    def maybe_checkpoint(self, state: Mapping[str, Any], step: int
                         ) -> WrittenCheckpoint | None:
        """Checkpoint if the interval says so; returns the record or None."""
        if self.should_checkpoint(step):
            return self.checkpoint(state, step)
        return None

    def _rotate(self) -> None:
        """Delete checkpoint versions beyond the retention count."""
        while len(self.written) > self.keep:
            old = self.written.pop(0)
            old.path.unlink(missing_ok=True)
            if old.aux_path is not None:
                old.aux_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # locating / restoring
    # ------------------------------------------------------------------
    def list_checkpoints(self) -> list[Path]:
        """Checkpoint files currently on disk, oldest first."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob(
            f"{self.bench.name.lower()}_step*.ckpt"))

    def latest(self) -> LoadedCheckpoint | None:
        """Load the newest checkpoint on disk, or None when there is none."""
        paths = self.list_checkpoints()
        if not paths:
            return None
        return read_checkpoint(paths[-1])

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def total_nbytes(self) -> int:
        """Bytes currently consumed on disk (checkpoints + auxiliary files)."""
        total = 0
        for path in self.list_checkpoints():
            total += path.stat().st_size
            aux = path.with_name(path.name + ".aux")
            if aux.exists():
                total += aux.stat().st_size
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CheckpointManager({self.bench.name}, mode={self.mode!r}, "
                f"interval={self.interval}, keep={self.keep})")


def run_with_checkpoints(bench, manager: CheckpointManager,
                         steps: int | None = None,
                         fail_at_step: int | None = None,
                         state: Mapping[str, Any] | None = None,
                         start_step: int = 0) -> dict[str, Any]:
    """Run the benchmark main loop, checkpointing through ``manager``.

    Parameters
    ----------
    bench, manager:
        The benchmark and its checkpoint manager.
    steps:
        Number of iterations to run; defaults to the benchmark's full run.
    fail_at_step:
        When given, raise :class:`repro.ckpt.failure.SimulatedFailure` right
        after completing that iteration (before any further checkpoint) --
        the failure-injection harness uses this to interrupt a run.
    state, start_step:
        Optional starting state / step for resumed runs: the loop continues
        from ``state`` after ``start_step`` iterations (not modified) and
        checkpoints only the steps after it.  The Section IV-C scenario
        resumes from the analysed checkpoint state this way
        (:func:`repro.ckpt.failure.run_failure_scenario`), writing the
        start checkpoint itself.

    Returns
    -------
    dict
        The state after the last completed iteration.
    """
    from .failure import SimulatedFailure  # local import to avoid a cycle

    total = bench.total_steps if steps is None else int(steps)
    current = dict(state) if state is not None else bench.initial_state()
    for step in range(start_step + 1, total + 1):
        current = bench._advance(current)
        if fail_at_step is not None and step == fail_at_step:
            raise SimulatedFailure(step=step, state=current)
        manager.maybe_checkpoint(current, step)
    return current
