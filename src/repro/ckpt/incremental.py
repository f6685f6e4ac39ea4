"""Incremental (delta) checkpointing, composable with criticality pruning.

The paper's related-work section cites page-based incremental checkpointing
(Vasavada et al.) as an orthogonal way of shrinking checkpoints: only write
what changed since the last checkpoint.  This module implements an
element-level version of that idea so the two reductions can be compared
and *combined*:

* :func:`changed_mask` -- which elements of a state differ from the
  previously checkpointed state;
* :func:`write_incremental_checkpoint` -- store only the changed elements
  (optionally intersected with the critical elements of a criticality
  analysis), with their regions recorded in the usual auxiliary file (one
  list per state key; an entry whose delta would not pay is stored whole);
* :func:`apply_incremental` / :func:`restore_chain` -- rebuild the state by
  replaying a base checkpoint plus its chain of deltas.

The NPB access patterns make the combination interesting: BT/SP/LU/MG only
ever *write* interior points, so an incremental checkpoint is automatically
close to the pruned one; FT never rewrites its spectrum at all, so after the
first checkpoint the deltas collapse to the accumulator variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.criticality import VariableCriticality
from repro.core.regions import prune_records

from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     read_container)
from .reader import read_checkpoint, read_region_masks, restore_verbatim
from .restart import restore_state
from .writer import (WrittenCheckpoint, _as_array, _header_meta,
                     default_aux_path, pruned_record, verbatim_record,
                     write_with_aux)

__all__ = [
    "changed_mask",
    "write_incremental_checkpoint",
    "IncrementalDelta",
    "read_incremental_checkpoint",
    "apply_incremental",
    "restore_chain",
]


def changed_mask(previous: Mapping[str, Any], current: Mapping[str, Any],
                 key: str) -> np.ndarray:
    """Boolean mask of the elements of ``key`` that changed between states.

    Comparison is exact (bitwise on the float values): an element whose
    value is reproduced exactly does not need to be rewritten.
    """
    prev = np.asarray(previous[key])
    curr = np.asarray(current[key])
    if prev.shape != curr.shape:
        raise ValueError(f"state entry {key!r} changed shape between "
                         f"checkpoints: {prev.shape} vs {curr.shape}")
    with np.errstate(invalid="ignore"):
        changed = prev != curr
    # NaNs compare unequal to themselves; treat NaN -> NaN as unchanged
    both_nan = _isnan_safe(prev) & _isnan_safe(curr)
    return np.asarray(changed & ~both_nan)


def _isnan_safe(arr: np.ndarray) -> np.ndarray:
    if np.issubdtype(arr.dtype, np.floating):
        return np.isnan(arr)
    return np.zeros(arr.shape, dtype=bool)


def write_incremental_checkpoint(
        path: str | Path, bench, state: Mapping[str, Any],
        previous: Mapping[str, Any],
        criticality: Mapping[str, VariableCriticality] | None = None,
        aux_path: str | Path | None = None,
        step: int | None = None,
        base_step: int | None = None) -> WrittenCheckpoint:
    """Write only the elements that changed since ``previous``.

    Parameters
    ----------
    state, previous:
        The state to checkpoint and the state captured by the previous
        checkpoint in the chain (base or delta).
    criticality:
        Optional criticality analysis; when given, unchanged *and* uncritical
        elements are both excluded (the combined reduction).
    base_step:
        Step of the previous checkpoint in the chain (defaults to
        ``previous``'s step counter when the benchmark exposes one).
    """
    path = Path(path)
    aux_path = default_aux_path(path, aux_path)
    meta = _header_meta(bench, state, step)
    if base_step is None:
        base_step = _header_meta(bench, previous, None)["step"]

    key_masks: dict[str, np.ndarray] = {}
    if criticality:
        for crit in criticality.values():
            for key in crit.variable.state_keys():
                key_masks[key] = crit.mask

    records: list[RecordSpec] = []
    payloads: dict[str, np.ndarray] = {}
    lists: dict[str, np.ndarray] = {}
    for key, value in state.items():
        arr = _as_array(value)
        if key not in previous:
            raise KeyError(f"previous state is missing entry {key!r}")
        delta = changed_mask(previous, state, key)
        mask = key_masks.get(key)
        if mask is not None:
            delta = delta & mask.reshape(delta.shape)
        # scalars (loop counters) are tiny: always store them verbatim
        runs = None if arr.shape == () \
            else prune_records(delta, arr.itemsize)
        if runs is None:
            records.append(verbatim_record(key, arr))
            payloads[key] = arr
            continue
        values = arr.reshape(-1)[delta.reshape(-1)]
        lists[key] = runs
        records.append(pruned_record(key, arr, values))
        payloads[key] = values

    header = CheckpointHeader(mode="incremental", records=records, **meta)
    header.extra["base_step"] = int(base_step)
    return write_with_aux(path, aux_path, header, payloads, lists)


@dataclass
class IncrementalDelta:
    """An incremental checkpoint read back from disk."""

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    path: Path

    @property
    def step(self) -> int:
        """Step the delta brings the state up to."""
        return self.header.step

    @property
    def base_step(self) -> int:
        """Step of the checkpoint this delta applies on top of."""
        return int(self.header.extra.get("base_step", -1))


def read_incremental_checkpoint(path: str | Path,
                                aux_path: str | Path | None = None
                                ) -> IncrementalDelta:
    """Read one incremental checkpoint and its auxiliary region file."""
    path = Path(path)
    header, arrays = read_container(path)
    if header.mode != "incremental":
        raise CheckpointFormatError(
            f"{path} is a {header.mode!r} checkpoint, not an incremental "
            f"delta")
    _, masks = read_region_masks(path, header, aux_path)
    return IncrementalDelta(header=header, arrays=arrays, masks=masks,
                            path=path)


def apply_incremental(state: Mapping[str, Any],
                      delta: IncrementalDelta) -> dict[str, Any]:
    """Apply one delta to a state dict, returning the updated copy."""
    out: dict[str, Any] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            out[key] = np.array(value, copy=True)
        else:
            out[key] = value
    for rec in delta.header.records:
        if not rec.pruned:
            out[rec.key] = restore_verbatim(
                rec, delta.arrays[rec.key])
            continue
        if rec.key not in out:
            raise KeyError(f"state has no entry {rec.key!r} to apply the "
                           f"delta to")
        current_shape = tuple(np.asarray(out[rec.key]).shape)
        if current_shape != tuple(rec.shape):
            raise CheckpointFormatError(
                f"delta record {rec.key!r} has shape {tuple(rec.shape)} but "
                f"the state entry has shape {current_shape}; the delta was "
                f"written against a different problem configuration")
        target = np.ascontiguousarray(out[rec.key])
        target.reshape(-1)[delta.masks[rec.region_list]] = \
            delta.arrays[rec.key]
        out[rec.key] = target
    return out


def restore_chain(bench, base_path: str | Path,
                  delta_paths: Sequence[str | Path],
                  base_state: Mapping[str, Any] | None = None
                  ) -> dict[str, Any]:
    """Restore a state from a base checkpoint plus its ordered deltas.

    The base may be a full or pruned checkpoint (pruned bases restore on
    top of ``base_state`` / the benchmark's initial state as usual); each
    delta must chain onto the step reached so far.
    """
    base = read_checkpoint(base_path)
    state = restore_state(base, bench, base_state=base_state)
    reached = base.step
    for delta_path in delta_paths:
        delta = read_incremental_checkpoint(delta_path)
        if delta.base_step != reached:
            raise CheckpointFormatError(
                f"delta {delta.path} applies on top of step "
                f"{delta.base_step}, but the chain is at step {reached}")
        state = apply_incremental(state, delta)
        reached = delta.step
    return state
