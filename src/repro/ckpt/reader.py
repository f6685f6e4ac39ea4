"""Reading checkpoints back into state dicts.

Full checkpoints materialise directly.  Every other checkpoint stores some
variables as only their critical (or changed) elements, so materialising it
needs a *base state* to supply values for the other slots -- for a pruned
checkpoint any values will do for correctness (that is the paper's claim,
exercised by the failure-injection experiments), and the natural choice on
a restart is the application's freshly constructed initial state.  Where
each stored element goes is decoded once, by :mod:`repro.ckpt.codec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .codec import is_tiered, record_masks, stored_entry
from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     read_container)

__all__ = ["LoadedCheckpoint", "read_checkpoint", "read_mode",
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

    ``arrays`` holds, per record key, either the full array (verbatim
    records) or the packed stored values (pruned, delta and tier records).
    ``masks`` holds the flat mask of the elements each stored record holds,
    decoded from its region list or tier map.
    """

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    path: Path
    aux_path: Path | None

    @property
    def mode(self) -> str:
        """"full", "pruned", "incremental" or "mixed"."""
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
            Required when records are stored partially: supplies the array
            shells whose other slots keep their values.  Ignored for full
            checkpoints.

        0-d records come back as Python ``int`` (integer records) or
        ``numpy.float64`` (everything else); tier records restore their
        state entry in double precision.
        """
        maps = {rec.region_list for rec in self.header.records
                if rec.pruned and is_tiered(rec)}
        state: dict[str, Any] = {}
        for rec in self.header.records:
            data = self.arrays[rec.key]
            if not rec.pruned:
                if rec.key not in maps:
                    state[rec.key] = restore_verbatim(rec, data)
                continue
            key, dtype = stored_entry(rec)
            if key not in state:
                if base_state is None or key not in base_state:
                    raise ValueError(
                        f"materialising stored record {rec.key!r} needs a "
                        f"base state providing {key!r}")
                base = np.asarray(base_state[key], dtype=dtype)
                if tuple(base.shape) != rec.shape:
                    raise ValueError(
                        f"base state entry {key!r} has shape {base.shape}, "
                        f"checkpoint expects {rec.shape}")
                state[key] = np.array(base, order="C")
            state[key].reshape(-1)[self.masks[rec.key]] = data
        return state


def read_checkpoint(path: str | Path,
                    aux_path: str | Path | None = None) -> LoadedCheckpoint:
    """Read a checkpoint of any mode and, when it has region records, its
    auxiliary file; bad region records or tier maps raise
    :class:`CheckpointFormatError`."""
    path = Path(path)
    header, arrays = read_container(path)
    aux_path, masks = record_masks(path, header, arrays, aux_path)
    return LoadedCheckpoint(header=header, arrays=arrays, masks=masks,
                            path=path, aux_path=aux_path)


def read_mode(path: str | Path, modes: tuple[str, ...], what: str,
              aux_path: str | Path | None = None) -> LoadedCheckpoint:
    """:func:`read_checkpoint`, raising :class:`CheckpointFormatError` unless
    the checkpoint's mode is one of ``modes`` (``what`` names them)."""
    loaded = read_checkpoint(path, aux_path)
    if loaded.mode not in modes:
        raise CheckpointFormatError(
            f"{loaded.path} is a {loaded.mode!r} checkpoint, not {what}")
    return loaded
