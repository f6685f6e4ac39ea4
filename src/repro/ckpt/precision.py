"""Mixed-precision checkpoints (the paper's future-work extension).

A mixed-precision checkpoint is a pruned checkpoint whose stored elements
are additionally down-converted according to a
:class:`~repro.core.impact.PrecisionPlan`: high-impact elements keep full
double precision, low-impact elements are stored as single or half
precision, and uncritical elements are dropped entirely.  Every state key
contributes one payload record per storable tier, ``"<state key>@<tier>"``.
Which element sits in which tier is the variable's *tier map*, one more
record (``"<variable>@map"``, shared by the two keys of a dcomplex pair)
holding the plan's tiers at two bits per element.  Impact tiers interleave
element by element, so the map is far smaller than the start/length
region records pruned checkpoints keep in their auxiliary file, and a
mixed-precision checkpoint needs no auxiliary file.

A variable is stored this way only when its tiers plus its map take fewer
bytes than the variable verbatim, and the checkpoint as a whole only when
its file is smaller than the full checkpoint's; otherwise the writer
writes the full checkpoint, which the reader reads as well.  Restoring
casts every tier back to the state's working precision, so the restart
path of the rest of the library is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.impact import (TIER_DOUBLE, TIER_DTYPES, TIER_HALF,
                               TIER_SINGLE, PrecisionPlan)

from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     container_nbytes, read_container, write_container)
from .reader import restore_verbatim
from .writer import (WrittenCheckpoint, _full_layout, _header_meta,
                     pruned_record, verbatim_record)

__all__ = [
    "STORABLE_TIERS",
    "tier_key",
    "map_key",
    "pack_tiers",
    "unpack_tiers",
    "write_mixed_precision_checkpoint",
    "read_mixed_precision_checkpoint",
    "MixedPrecisionCheckpoint",
]


#: tiers that occupy payload bytes, cheapest first
STORABLE_TIERS = (TIER_HALF, TIER_SINGLE, TIER_DOUBLE)

#: bit offsets of the four 2-bit tiers packed into one map byte
_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def tier_key(state_key: str, tier: int) -> str:
    """Record key of one (state key, tier) payload."""
    return f"{state_key}@{tier}"


def map_key(variable: str) -> str:
    """Record key of a variable's packed tier map."""
    return f"{variable}@map"


def pack_tiers(tiers: np.ndarray) -> np.ndarray:
    """Flat tiers at two bits each, four per byte, first in the low bits."""
    flat = np.zeros(-(-tiers.size // 4) * 4, dtype=np.uint8)
    flat[:tiers.size] = tiers.reshape(-1)
    return np.bitwise_or.reduce(flat.reshape(-1, 4) << _SHIFTS, axis=1)


def unpack_tiers(packed: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_tiers`: the first ``size`` flat tiers."""
    return (packed[:, None] >> _SHIFTS & 3).reshape(-1)[:size]


def write_mixed_precision_checkpoint(
        path: str | Path, bench, state: Mapping[str, Any],
        plans: Mapping[str, PrecisionPlan],
        step: int | None = None) -> WrittenCheckpoint:
    """Write a checkpoint whose elements are stored per the precision plan.

    A planned variable is stored verbatim when its tiers plus its tier map
    would not be smaller, as are variables without a plan.  When the file
    would not be smaller than the full checkpoint, the full checkpoint is
    written (``mode`` ``"full"``).
    """
    path = Path(path)
    meta = _header_meta(bench, state, step)
    full_header, full_payloads = _full_layout(state, meta)

    records: list[RecordSpec] = []
    payloads: dict[str, np.ndarray] = {}
    #: state key -> (tier map record key, flat tiers)
    key_tiers: dict[str, tuple[str, np.ndarray]] = {}
    for plan in plans.values():
        keys = [key for key in plan.variable.state_keys()
                if key in full_payloads]
        for key in keys:
            if plan.tiers.shape != full_payloads[key].shape:
                raise ValueError(
                    f"precision plan shape {plan.tiers.shape} does not "
                    f"match state entry {key!r} of shape "
                    f"{full_payloads[key].shape}")
        packed = pack_tiers(plan.tiers)
        counts = plan.tier_counts()
        nbytes = packed.nbytes + len(keys) * sum(
            counts[tier] * TIER_DTYPES[tier].itemsize
            for tier in STORABLE_TIERS)
        if nbytes >= sum(full_payloads[key].nbytes for key in keys):
            continue
        name = map_key(plan.variable.name)
        records.append(verbatim_record(name, packed))
        payloads[name] = packed
        flat = plan.tiers.reshape(-1)
        key_tiers.update((key, (name, flat)) for key in keys)

    for key, arr in full_payloads.items():
        if key not in key_tiers:
            records.append(verbatim_record(key, arr))
            payloads[key] = arr
            continue
        name, flat = key_tiers[key]
        for tier in STORABLE_TIERS:
            mask = flat == tier
            if not mask.any():
                continue
            values = arr.reshape(-1)[mask].astype(TIER_DTYPES[tier])
            record_name = tier_key(key, tier)
            records.append(pruned_record(record_name, arr, values, name))
            payloads[record_name] = values

    header = CheckpointHeader(mode="mixed", records=records, **meta)
    header.extra["planned_keys"] = sorted(key_tiers)
    if not key_tiers or (container_nbytes(header, payloads)
                         >= container_nbytes(full_header, full_payloads)):
        header, payloads = full_header, full_payloads
    nbytes = write_container(path, header, payloads)
    return WrittenCheckpoint(path, header.mode, header.step, nbytes)


def _tier_masks(path: Path, header: CheckpointHeader,
                arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Flat element mask of every tier record, from the tier maps.

    Raises :class:`CheckpointFormatError` when a tier record's map is
    missing or of the wrong length, or when the map puts a different
    number of elements in the tier than the record stores.
    """
    masks: dict[str, np.ndarray] = {}
    for rec in header.records:
        if not rec.pruned:
            continue
        packed = arrays.get(rec.region_list)
        if packed is None or packed.size != -(-rec.n_elements // 4):
            raise CheckpointFormatError(
                f"{path}: tier record {rec.key!r} has no tier map "
                f"{rec.region_list!r} of {rec.n_elements} elements")
        tier = int(rec.key.rpartition("@")[2])
        masks[rec.key] = unpack_tiers(packed, rec.n_elements) == tier
        if int(np.count_nonzero(masks[rec.key])) != rec.n_stored:
            raise CheckpointFormatError(
                f"{path}: tier map {rec.region_list!r} puts "
                f"{int(np.count_nonzero(masks[rec.key]))} elements in tier "
                f"{tier}, record {rec.key!r} stores {rec.n_stored}")
    return masks


@dataclass
class MixedPrecisionCheckpoint:
    """A mixed-precision checkpoint read back from disk."""

    header: CheckpointHeader
    arrays: dict[str, np.ndarray]
    #: flat element mask of every tier record
    masks: dict[str, np.ndarray]
    path: Path

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
        maps = {rec.region_list for rec in self.header.records if rec.pruned}
        for rec in self.header.records:
            if rec.key in maps:
                continue
            if not rec.pruned:
                state[rec.key] = restore_verbatim(
                    rec, self.arrays[rec.key])
                continue
            target = state[rec.key.rpartition("@")[0]]
            if target.shape != rec.shape:
                raise ValueError(
                    f"base state entry for {rec.key!r} has shape "
                    f"{target.shape}, checkpoint expects {rec.shape}")
            target.reshape(-1)[self.masks[rec.key]] = self.arrays[rec.key]
        return state


def read_mixed_precision_checkpoint(path: str | Path
                                    ) -> MixedPrecisionCheckpoint:
    """Read a mixed-precision checkpoint, or the full one the writer falls
    back to."""
    path = Path(path)
    header, arrays = read_container(path)
    if header.mode not in ("mixed", "full"):
        raise CheckpointFormatError(
            f"{path} is a {header.mode!r} checkpoint, not a mixed-precision "
            f"or full one; use repro.ckpt.read_checkpoint")
    return MixedPrecisionCheckpoint(header=header, arrays=arrays,
                                    masks=_tier_masks(path, header, arrays),
                                    path=path)
