"""Writing full and pruned checkpoints.

The writer operates on the same state dicts the benchmarks produce.  A
*full* checkpoint stores every state entry verbatim.  A *pruned* checkpoint
stores, for every variable worth pruning, only its critical elements, and
records where they sit in the auxiliary file: the paper's start/end region
records, generalised to strided ``(start, length, stride, count)`` records,
one list per variable (see :mod:`repro.ckpt.auxfile`).

A variable is worth pruning when its critical data plus its records are
smaller than its data stored verbatim (:func:`repro.core.regions.
prune_records`); fully critical variables are stored verbatim.  When no
variable is worth pruning, or the pruned file plus its auxiliary file would
not be smaller than the full checkpoint, the pruned writer writes exactly
the full checkpoint and no auxiliary file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.criticality import VariableCriticality
# ``encode_mask`` stays importable from here: profilers hook the region
# encoders by that name (see perfbench/spans.py)
from repro.core.regions import encode_mask, prune_records  # noqa: F401

from .auxfile import encode_aux, write_aux_file
from .format import (CheckpointHeader, RecordSpec, container_nbytes,
                     write_container)

__all__ = ["WrittenCheckpoint", "write_full_checkpoint",
           "write_pruned_checkpoint"]


@dataclass(frozen=True)
class WrittenCheckpoint:
    """Paths and sizes of one checkpoint on disk."""

    path: Path
    mode: str
    step: int
    nbytes: int
    aux_path: Path | None = None
    aux_nbytes: int = 0

    @property
    def total_nbytes(self) -> int:
        """Checkpoint file plus auxiliary file."""
        return self.nbytes + self.aux_nbytes


def _as_array(value: Any) -> np.ndarray:
    """State entry as a contiguous numpy array (scalars become 0-d)."""
    arr = np.asarray(value)
    if arr.dtype == object:
        raise TypeError(f"cannot checkpoint object-dtype state entry "
                        f"({type(value).__name__})")
    # ascontiguousarray promotes 0-d arrays to shape (1,); keep the original
    # shape so scalar records round-trip as scalars
    return np.ascontiguousarray(arr).reshape(arr.shape)


def verbatim_record(key: str, arr: np.ndarray) -> RecordSpec:
    """The record of a state entry stored whole."""
    return RecordSpec(key=key, dtype=arr.dtype.str, shape=tuple(arr.shape),
                      pruned=False, offset=0, nbytes=arr.nbytes,
                      n_stored=int(arr.size))


def pruned_record(key: str, arr: np.ndarray, values: np.ndarray,
                  regions: str | None = None) -> RecordSpec:
    """The record of the ``values`` kept of state entry ``arr``."""
    return RecordSpec(key=key, dtype=values.dtype.str,
                      shape=tuple(arr.shape), pruned=True, offset=0,
                      nbytes=values.nbytes, n_stored=int(values.size),
                      regions=regions)


def write_with_aux(path: Path, aux_path: Path, header: CheckpointHeader,
                   payloads: Mapping[str, Any],
                   lists: Mapping[str, np.ndarray]) -> WrittenCheckpoint:
    """Write a checkpoint and, when it has region lists, its auxiliary file.

    Without lists no auxiliary file is written, and a stale one at
    ``aux_path`` is removed.
    """
    if lists:
        header.extra["aux_file"] = aux_path.name
    nbytes = write_container(path, header, payloads)
    if not lists:
        aux_path.unlink(missing_ok=True)
        return WrittenCheckpoint(path, header.mode, header.step, nbytes)
    return WrittenCheckpoint(path, header.mode, header.step, nbytes,
                             aux_path, write_aux_file(aux_path, lists))


def default_aux_path(path: Path, aux_path: str | Path | None) -> Path:
    """``aux_path``, defaulting to ``path`` with ``.aux`` appended."""
    return Path(aux_path) if aux_path is not None \
        else path.with_name(path.name + ".aux")


def _header_meta(bench, state: Mapping[str, Any], step: int | None) -> dict:
    if step is None:
        step_name = bench.step_variable() if hasattr(bench, "step_variable") \
            else None
        step = int(np.asarray(state[step_name])) if step_name else 0
    return {
        "benchmark": getattr(bench, "name", "unknown"),
        "problem_class": str(getattr(getattr(bench, "params", None),
                                     "problem_class", "?")),
        "step": int(step),
    }


def _full_layout(state: Mapping[str, Any], meta: dict
                 ) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    arrays = {key: _as_array(value) for key, value in state.items()}
    header = CheckpointHeader(
        mode="full", records=[verbatim_record(key, arr)
                              for key, arr in arrays.items()], **meta)
    return header, arrays


def write_full_checkpoint(path: str | Path, bench, state: Mapping[str, Any],
                          step: int | None = None) -> WrittenCheckpoint:
    """Write every state entry verbatim (the conventional checkpoint)."""
    meta = _header_meta(bench, state, step)
    header, payloads = _full_layout(state, meta)
    nbytes = write_container(path, header, payloads)
    return WrittenCheckpoint(Path(path), "full", meta["step"], nbytes)


def write_pruned_checkpoint(path: str | Path, bench,
                            state: Mapping[str, Any],
                            criticality: Mapping[str, VariableCriticality],
                            aux_path: str | Path | None = None,
                            step: int | None = None) -> WrittenCheckpoint:
    """Write only critical elements, with the regions in the auxiliary file.

    Parameters
    ----------
    path, aux_path:
        Checkpoint and auxiliary file paths; ``aux_path`` defaults to
        ``path`` with an ``.aux`` suffix appended.
    bench, state:
        The benchmark and the state to checkpoint.
    criticality:
        Per-variable criticality (``{variable name: VariableCriticality}``),
        e.g. ``ScrutinyResult.variables`` from :func:`repro.core.scrutinize`.

    When nothing is worth pruning the file is byte-identical to
    :func:`write_full_checkpoint`'s, ``mode`` is ``"full"`` and
    ``aux_nbytes`` is 0.
    """
    path = Path(path)
    aux_path = default_aux_path(path, aux_path)
    meta = _header_meta(bench, state, step)
    full_header, full_payloads = _full_layout(state, meta)

    # one region list per variable; a dcomplex pair's keys share it
    lists: dict[str, np.ndarray] = {}
    key_masks: dict[str, tuple[str, np.ndarray]] = {}
    for crit in criticality.values():
        keys = [key for key in crit.variable.state_keys() if key in state]
        records = prune_records(crit.mask, sum(full_payloads[key].itemsize
                                               for key in keys))
        if records is None:
            continue
        for key in keys:
            if crit.mask.shape != full_payloads[key].shape:
                raise ValueError(
                    f"criticality mask shape {crit.mask.shape} does not "
                    f"match state entry {key!r} of shape "
                    f"{full_payloads[key].shape}")
            key_masks[key] = (crit.name, crit.mask.reshape(-1))
        lists[crit.name] = records

    records_out = []
    payloads = dict(full_payloads)
    for rec in full_header.records:
        if rec.key in key_masks:
            name, mask = key_masks[rec.key]
            arr = full_payloads[rec.key]
            payloads[rec.key] = arr.reshape(-1)[mask]
            rec = pruned_record(rec.key, arr, payloads[rec.key], name)
        records_out.append(rec)
    header = CheckpointHeader(mode="pruned", records=records_out, **meta)
    header.extra["aux_file"] = aux_path.name

    if not lists or (container_nbytes(header, payloads)
                     + len(encode_aux(lists))
                     >= container_nbytes(full_header, full_payloads)):
        return write_with_aux(path, aux_path, full_header, full_payloads, {})
    return write_with_aux(path, aux_path, header, payloads, lists)
