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

from .auxfile import read_masks
from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     read_container)

__all__ = ["LoadedCheckpoint", "read_checkpoint", "read_region_masks",
           "restore_verbatim"]


def restore_verbatim(rec: RecordSpec, data: np.ndarray):
    """A record stored whole, in its shape; 0-d records come back as Python
    ``int`` (integer records) or ``numpy.float64`` (loop counters etc.)."""
    if rec.shape == ():
        value = data.reshape(())[()]
        if np.issubdtype(rec.numpy_dtype, np.integer):
            return int(value)
        return np.float64(value)
    return data.reshape(rec.shape)


@dataclass
class LoadedCheckpoint:
    """A checkpoint read from disk, before materialisation.

    ``arrays`` holds, per state key, either the full array (unpruned
    records) or the packed critical values (pruned records).  ``masks``
    holds the flat critical-element mask of each region list the pruned
    records name (:attr:`RecordSpec.region_list`).
    """

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
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
                state[rec.key] = restore_verbatim(rec, data)
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
            restored = np.array(base, order="C")
            restored.reshape(-1)[self.masks[rec.region_list]] = data
            state[rec.key] = restored
        return state

def read_region_masks(path: Path, header: CheckpointHeader,
                      aux_path: str | Path | None = None
                      ) -> tuple[Path | None, dict[str, np.ndarray]]:
    """The auxiliary file of the checkpoint at ``path`` and the masks of its
    region lists, or ``(None, {})`` when no record is pruned.

    The file is ``aux_path`` when given, else the one the header names; bad
    region records raise :class:`CheckpointFormatError`.
    """
    if not any(rec.pruned for rec in header.records):
        return None, {}
    if aux_path is None:
        aux_name = header.extra.get("aux_file")
        if aux_name is None:
            raise CheckpointFormatError(
                f"{path} has pruned records but names no auxiliary file")
        aux_path = path.with_name(aux_name)
    return Path(aux_path), read_masks(Path(aux_path), header)


def read_checkpoint(path: str | Path,
                    aux_path: str | Path | None = None) -> LoadedCheckpoint:
    """Read a checkpoint and, when it has pruned records, its auxiliary
    file; bad region records raise :class:`CheckpointFormatError`."""
    path = Path(path)
    header, arrays = read_container(path)
    aux_path, masks = read_region_masks(path, header, aux_path)
    return LoadedCheckpoint(header=header, arrays=arrays, masks=masks,
                            path=path, aux_path=aux_path)
