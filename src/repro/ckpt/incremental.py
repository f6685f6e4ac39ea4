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
  analysis): each state key's mask of changed elements goes to the codec
  (:mod:`repro.ckpt.codec`), which stores the entry as region records in
  the usual auxiliary file (one list per state key) or, when its delta
  would not pay, whole;
* :func:`read_incremental_checkpoint` -- read a delta back as a
  :class:`~repro.ckpt.reader.LoadedCheckpoint` of mode ``"incremental"``;
* :func:`apply_incremental` / :func:`restore_chain` -- rebuild the state by
  replaying a base checkpoint plus its chain of deltas, each materialised
  on top of the state reached so far.

The NPB access patterns make the combination interesting: BT/SP/LU/MG only
ever *write* interior points, so an incremental checkpoint is automatically
close to the pruned one; FT never rewrites its spectrum at all, so after the
first checkpoint the deltas collapse to the accumulator variables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.criticality import VariableCriticality

from .codec import (WrittenCheckpoint, as_arrays, default_aux_path,
                    encode_checkpoint, write_smallest)
from .format import CheckpointFormatError
from .reader import LoadedCheckpoint, read_checkpoint, read_mode
from .restart import restore_state
from .writer import header_meta

__all__ = [
    "changed_mask",
    "write_incremental_checkpoint",
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

    When the delta would not be smaller than every entry stored verbatim,
    every entry is (still a delta of mode ``"incremental"``).
    """
    path = Path(path)
    aux_path = default_aux_path(path, aux_path)
    meta = header_meta(bench, state, step)
    if base_step is None:
        base_step = header_meta(bench, previous, None)["step"]

    key_masks: dict[str, np.ndarray] = {}
    if criticality:
        for crit in criticality.values():
            for key in crit.variable.state_keys():
                key_masks[key] = crit.mask

    arrays = as_arrays(state)
    variables = []
    for key, arr in arrays.items():
        if key not in previous:
            raise KeyError(f"previous state is missing entry {key!r}")
        delta = changed_mask(previous, state, key)
        mask = key_masks.get(key)
        if mask is not None:
            delta = delta & mask.reshape(delta.shape)
        # scalars (loop counters) are tiny: always store them verbatim
        variables.append((key, [key], None if arr.shape == () else delta,
                          None))
    extra = {"base_step": int(base_step)}
    return write_smallest(path, aux_path, [
        encode_checkpoint(meta, "incremental", arrays, extra=extra),
        encode_checkpoint(meta, "incremental", arrays, variables,
                          aux_path.name, extra)])


def read_incremental_checkpoint(path: str | Path,
                                aux_path: str | Path | None = None
                                ) -> LoadedCheckpoint:
    """Read one incremental checkpoint and its auxiliary region file."""
    return read_mode(path, ("incremental",), "an incremental delta",
                     aux_path)


def apply_incremental(state: Mapping[str, Any],
                      delta: LoadedCheckpoint) -> dict[str, Any]:
    """Apply one delta to a state dict, returning the updated copy.

    Raises ``KeyError`` when the state lacks an entry the delta updates,
    and :class:`CheckpointFormatError` when the entry's shape differs from
    the delta's (a delta written against another problem configuration).
    """
    for rec in delta.header.records:
        if not rec.pruned:
            continue
        if rec.key not in state:
            raise KeyError(f"state has no entry {rec.key!r} to apply the "
                           f"delta to")
        current_shape = tuple(np.shape(state[rec.key]))
        if current_shape != rec.shape:
            raise CheckpointFormatError(
                f"delta record {rec.key!r} has shape {rec.shape} but "
                f"the state entry has shape {current_shape}; the delta was "
                f"written against a different problem configuration")
    return {**state, **delta.materialize(state)}


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
        base_step = int(delta.header.extra.get("base_step", -1))
        if base_step != reached:
            raise CheckpointFormatError(
                f"delta {delta.path} applies on top of step {base_step}, "
                f"but the chain is at step {reached}")
        state = apply_incremental(state, delta)
        reached = delta.step
    return state
