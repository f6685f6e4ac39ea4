"""Mixed-precision checkpoints (the paper's future-work extension).

A mixed-precision checkpoint is a pruned checkpoint whose stored elements
are additionally down-converted according to a
:class:`~repro.core.impact.PrecisionPlan`: high-impact elements keep full
double precision, low-impact elements are stored as single or half
precision, and uncritical elements are dropped entirely.  Every state key
contributes one payload record per storable tier, ``"<state key>@<tier>"``;
the tier's regions go to the same auxiliary file format the pruned
checkpoints use, one list per variable and tier (``"<variable>@<tier>"``,
shared by the two keys of a dcomplex pair).

Restoring casts every tier back to the state's working precision, so the
restart path of the rest of the library is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.impact import (TIER_DOUBLE, TIER_DTYPES, TIER_HALF,
                               TIER_SINGLE, PrecisionPlan)
from repro.core.regions import encode_records

from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     read_container)
from .reader import read_region_masks, restore_verbatim
from .writer import (WrittenCheckpoint, _as_array, _header_meta,
                     default_aux_path, pruned_record, verbatim_record,
                     write_with_aux)

__all__ = [
    "STORABLE_TIERS",
    "tier_key",
    "write_mixed_precision_checkpoint",
    "read_mixed_precision_checkpoint",
    "MixedPrecisionCheckpoint",
]


#: tiers that occupy payload bytes, cheapest first
STORABLE_TIERS = (TIER_HALF, TIER_SINGLE, TIER_DOUBLE)


def tier_key(state_key: str, tier: int) -> str:
    """Record / auxiliary-file key of one (state key, tier) payload."""
    return f"{state_key}@{tier}"


def write_mixed_precision_checkpoint(
        path: str | Path, bench, state: Mapping[str, Any],
        plans: Mapping[str, PrecisionPlan],
        aux_path: str | Path | None = None,
        step: int | None = None) -> WrittenCheckpoint:
    """Write a checkpoint whose elements are stored per the precision plan.

    Variables without a plan (or whose plan keeps every element in double
    precision with nothing dropped) are stored verbatim, like the pruned
    writer does for fully critical variables.
    """
    path = Path(path)
    aux_path = default_aux_path(path, aux_path)
    meta = _header_meta(bench, state, step)

    key_plans: dict[str, PrecisionPlan] = {}
    for plan in plans.values():
        counts = plan.tier_counts()
        lossless_full = (counts[TIER_HALF] == 0 and counts[TIER_SINGLE] == 0
                         and counts[0] == 0)
        if lossless_full:
            continue
        for key in plan.variable.state_keys():
            key_plans[key] = plan

    records: list[RecordSpec] = []
    payloads: dict[str, np.ndarray] = {}
    lists: dict[str, np.ndarray] = {}

    for key, value in state.items():
        arr = _as_array(value)
        plan = key_plans.get(key)
        if plan is None:
            records.append(verbatim_record(key, arr))
            payloads[key] = arr
            continue
        if plan.tiers.shape != arr.shape:
            raise ValueError(
                f"precision plan shape {plan.tiers.shape} does not match "
                f"state entry {key!r} of shape {arr.shape}")
        for tier in STORABLE_TIERS:
            mask = plan.tier_mask(tier).reshape(-1)
            if not mask.any():
                continue
            list_name = tier_key(plan.variable.name, tier)
            if list_name not in lists:
                lists[list_name] = encode_records(mask)
            values = arr.reshape(-1)[mask].astype(TIER_DTYPES[tier])
            record_name = tier_key(key, tier)
            records.append(pruned_record(record_name, arr, values,
                                         list_name))
            payloads[record_name] = values

    header = CheckpointHeader(mode="mixed", records=records, **meta)
    header.extra["planned_keys"] = sorted(key_plans)
    return write_with_aux(path, aux_path, header, payloads, lists)


@dataclass
class MixedPrecisionCheckpoint:
    """A mixed-precision checkpoint read back from disk."""

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    path: Path
    aux_path: Path | None

    @property
    def step(self) -> int:
        """Main-loop step the checkpoint was taken at."""
        return self.header.step

    def materialize(self, base_state: Mapping[str, Any]) -> dict[str, Any]:
        """Rebuild a state dict on top of ``base_state``.

        Stored tiers are cast back to the base entry's dtype; dropped
        elements keep the base values (they are uncritical by construction).
        """
        state: dict[str, Any] = {}
        for key in self.header.extra.get("planned_keys", []):
            if key not in base_state:
                raise ValueError(
                    f"materialising mixed-precision checkpoint needs a base "
                    f"state providing {key!r}")
            state[key] = np.array(base_state[key], dtype=np.float64,
                                  order="C")
        for rec in self.header.records:
            if not rec.pruned:
                state[rec.key] = restore_verbatim(
                    rec, self.arrays[rec.key])
                continue
            target = state[rec.key.rpartition("@")[0]]
            if target.shape != rec.shape:
                raise ValueError(
                    f"base state entry for {rec.key!r} has shape "
                    f"{target.shape}, checkpoint expects {rec.shape}")
            target.reshape(-1)[self.masks[rec.region_list]] = \
                self.arrays[rec.key]
        return state


def read_mixed_precision_checkpoint(path: str | Path,
                                    aux_path: str | Path | None = None
                                    ) -> MixedPrecisionCheckpoint:
    """Read a mixed-precision checkpoint and its auxiliary region file."""
    path = Path(path)
    header, arrays = read_container(path)
    if header.mode != "mixed":
        raise CheckpointFormatError(
            f"{path} is a {header.mode!r} checkpoint, not a mixed-precision "
            f"one; use repro.ckpt.read_checkpoint")
    resolved_aux, masks = read_region_masks(path, header, aux_path)
    return MixedPrecisionCheckpoint(header=header, arrays=arrays,
                                    masks=masks, path=path,
                                    aux_path=resolved_aux)
