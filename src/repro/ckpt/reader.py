"""Reading full and pruned checkpoints back into state dicts.

Full checkpoints materialise directly.  Pruned checkpoints only contain the
critical elements, so materialising them needs a *base state* to supply
values for the uncritical slots -- any values will do for correctness (that
is the paper's claim, exercised by the failure-injection experiments), and
the natural choice on a restart is the application's freshly constructed
initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.regions import Region

from .auxfile import read_aux_file
from .format import CheckpointFormatError, CheckpointHeader, read_container

__all__ = ["LoadedCheckpoint", "read_checkpoint", "scatter_regions"]


def scatter_regions(target: np.ndarray, regions: list[Region],
                    values: np.ndarray) -> np.ndarray:
    """Scatter packed critical values back into a (flattened) array copy."""
    out = np.array(target, copy=True)
    flat = out.reshape(-1)
    cursor = 0
    for region in regions:
        count = len(region)
        flat[region.start:region.stop] = values[cursor:cursor + count]
        cursor += count
    if cursor != values.size:
        raise CheckpointFormatError(
            f"pruned record holds {values.size} values but the auxiliary "
            f"regions cover {cursor} elements")
    return out


@dataclass
class LoadedCheckpoint:
    """A checkpoint read from disk, before materialisation.

    ``arrays`` holds, per state key, either the full array (unpruned
    records) or the packed critical values (pruned records, whose regions
    are in ``regions``).
    """

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    regions: dict[str, list[Region]]
    path: Path
    aux_path: Path | None

    @property
    def mode(self) -> str:
        """"full" or "pruned"."""
        return self.header.mode

    @property
    def step(self) -> int:
        """Main-loop step the checkpoint was taken at."""
        return self.header.step

    def materialize(self, base_state: Mapping[str, Any] | None = None
                    ) -> dict[str, Any]:
        """Reconstruct a state dict.

        Parameters
        ----------
        base_state:
            Required for pruned checkpoints: supplies the array shells whose
            uncritical slots keep their (irrelevant) values.  Ignored for
            full checkpoints.

        0-d records come back as Python ``int`` (integer records) or
        ``numpy.float64`` (everything else).
        """
        state: dict[str, Any] = {}
        for rec in self.header.records:
            data = self.arrays[rec.key]
            if not rec.pruned:
                state[rec.key] = self._restore_scalar(rec, data)
                continue
            if base_state is None or rec.key not in base_state:
                raise ValueError(
                    f"materialising pruned record {rec.key!r} needs a base "
                    f"state providing that key")
            base = np.asarray(base_state[rec.key], dtype=rec.numpy_dtype)
            if tuple(base.shape) != rec.shape:
                raise ValueError(
                    f"base state entry {rec.key!r} has shape {base.shape}, "
                    f"checkpoint expects {rec.shape}")
            restored = scatter_regions(base, self.regions[rec.key], data)
            state[rec.key] = restored.reshape(rec.shape)
        return state

    @staticmethod
    def _restore_scalar(rec, data: np.ndarray):
        """Unwrap 0-d records to Python scalars (loop counters etc.)."""
        if rec.shape == ():
            value = data.reshape(())[()]
            if np.issubdtype(rec.numpy_dtype, np.integer):
                return int(value)
            return np.float64(value)
        return data.reshape(rec.shape)


def read_checkpoint(path: str | Path,
                    aux_path: str | Path | None = None) -> LoadedCheckpoint:
    """Read a checkpoint (and, for pruned ones, its auxiliary file)."""
    path = Path(path)
    header, arrays = read_container(path)
    regions: dict[str, list[Region]] = {}
    resolved_aux: Path | None = None
    if header.mode == "pruned":
        if aux_path is None:
            aux_name = header.extra.get("aux_file")
            if aux_name is None:
                raise CheckpointFormatError(
                    f"{path} is pruned but names no auxiliary file")
            resolved_aux = path.with_name(aux_name)
        else:
            resolved_aux = Path(aux_path)
        regions = read_aux_file(resolved_aux)
        missing = [rec.key for rec in header.records
                   if rec.pruned and rec.key not in regions]
        if missing:
            raise CheckpointFormatError(
                f"auxiliary file {resolved_aux} is missing regions for "
                f"pruned records: {missing}")
    return LoadedCheckpoint(header=header, arrays=arrays, regions=regions,
                            path=path, aux_path=resolved_aux)
