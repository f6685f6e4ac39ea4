"""Mixed-precision checkpoints (the paper's future-work extension).

A mixed-precision checkpoint stores each variable according to a
:class:`~repro.core.impact.PrecisionPlan`: high-impact elements keep full
double precision, low-impact elements are stored as single or half
precision, and uncritical elements are dropped entirely.  The plan's tiers
go to the codec (:mod:`repro.ckpt.codec`), which stores each variable in
the cheapest of its three encodings: verbatim; the kept elements in double
precision with their regions as strided records in the auxiliary ``.aux``
file, as a pruned checkpoint would; or the tiered elements, one record
``"<state key>@<tier>"`` per storable tier, with the variable's 2-bit tier
map as one more record ``"<variable>@map"`` in the file.  A checkpoint has
an auxiliary file only when some variable is stored as region records.

The writer writes the smallest of the mixed checkpoint, the same
checkpoint without tier maps and the full checkpoint, so a mixed-precision
checkpoint is never bigger than the pruned one of the same kept elements
nor than the full one; the reader reads all of them.  Restoring casts
every tier back to double precision, so the restart path of the rest of
the library is unchanged.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.core.impact import TIER_DROP, PrecisionPlan

# the tier-map helpers stay importable from here
from .codec import (WrittenCheckpoint, as_arrays,  # noqa: F401
                    default_aux_path, encode_checkpoint, map_key, pack_tiers,
                    tier_key, unpack_tiers, write_smallest)
from .reader import LoadedCheckpoint, read_mode
from .writer import header_meta

__all__ = [
    "write_mixed_precision_checkpoint",
    "read_mixed_precision_checkpoint",
]


def write_mixed_precision_checkpoint(
        path: str | Path, bench, state: Mapping[str, Any],
        plans: Mapping[str, PrecisionPlan],
        step: int | None = None) -> WrittenCheckpoint:
    """Write a checkpoint whose elements are stored per the precision plan.

    Variables without a plan are stored verbatim.  ``mode`` is ``"mixed"``,
    or ``"full"`` when the full checkpoint is not bigger.
    """
    path = Path(path)
    aux_path = default_aux_path(path, None)
    meta = header_meta(bench, state, step)
    arrays = as_arrays(state)
    tiered = [(plan.variable.name, plan.variable.state_keys(), None,
               plan.tiers) for plan in plans.values()]
    kept = [(name, keys, tiers != TIER_DROP, None)
            for name, keys, _, tiers in tiered]
    return write_smallest(path, aux_path, [
        encode_checkpoint(meta, "full", arrays),
        encode_checkpoint(meta, "mixed", arrays, kept, aux_path.name),
        encode_checkpoint(meta, "mixed", arrays, tiered, aux_path.name)])


def read_mixed_precision_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Read a mixed-precision checkpoint, or the full one the writer falls
    back to."""
    return read_mode(path, ("mixed", "full"),
                     "a mixed-precision or full one")
