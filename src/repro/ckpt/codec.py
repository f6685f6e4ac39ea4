"""The per-variable checkpoint codec: how each variable is stored and read.

Every writer hands each variable -- its state entries (both keys of a
dcomplex pair) and the mask of the elements to keep, or for mixed
precision a tier per element -- to :func:`encode_variable`, which stores
it in the cheapest of three encodings, counting payload bytes:

* **verbatim** -- every element, one record per state key;
* **region records** -- the kept elements, one record per state key, and
  where they sit as the paper's start/end regions, generalised to strided
  ``(start, length, stride, count)`` records of 32 bytes, one list per
  variable in the auxiliary ``.aux`` file (:mod:`repro.ckpt.auxfile`);
  chosen by the break-even of :func:`repro.core.regions.prune_records`;
* **tier map** -- the kept elements split by precision tier, one record
  ``"<key>@<tier>"`` per stored tier, plus the variable's tiers at two
  bits per element as a record ``"<variable>@map"`` in the file.  An
  element whose finite value its planned tier cannot hold (beyond
  float16's 65504, say) is stored in the narrowest wider tier that can.

A writer offers whole-checkpoint candidates (:func:`encode_checkpoint`,
e.g. the full and the pruned checkpoint) and :func:`write_smallest` writes
the one with the fewest bytes, file plus auxiliary file, which exists only
when some variable is stored as region records.  :func:`record_masks` is
the one decoder: the flat mask of the elements every stored record holds,
from its region list or its tier map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.impact import (TIER_DOUBLE, TIER_DROP, TIER_DTYPES,
                               TIER_HALF, TIER_SINGLE)
from repro.core.regions import RECORD_NBYTES, decode_records, prune_records

from .auxfile import encode_aux, read_aux_file, write_aux_file
from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     container_nbytes, write_container)

__all__ = ["STORABLE_TIERS", "tier_key", "map_key", "pack_tiers",
           "unpack_tiers", "as_arrays", "verbatim_record", "encode_variable",
           "Layout", "encode_checkpoint", "WrittenCheckpoint",
           "default_aux_path", "write_smallest", "is_tiered", "stored_entry",
           "record_masks"]


#: tiers that occupy payload bytes, cheapest first
STORABLE_TIERS = (TIER_HALF, TIER_SINGLE, TIER_DOUBLE)

_MAP_SUFFIX = "@map"

#: bit offsets of the four 2-bit tiers packed into one map byte
_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def tier_key(state_key: str, tier: int) -> str:
    """Record key of one (state key, tier) payload."""
    return f"{state_key}@{tier}"


def map_key(variable: str) -> str:
    """Record key of a variable's packed tier map."""
    return variable + _MAP_SUFFIX


def pack_tiers(tiers: np.ndarray) -> np.ndarray:
    """Flat tiers at two bits each, four per byte, first in the low bits."""
    flat = np.zeros(-(-tiers.size // 4) * 4, dtype=np.uint8)
    flat[:tiers.size] = tiers.reshape(-1)
    return np.bitwise_or.reduce(flat.reshape(-1, 4) << _SHIFTS, axis=1)


def unpack_tiers(packed: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_tiers`: the first ``size`` flat tiers."""
    return (packed[:, None] >> _SHIFTS & 3).reshape(-1)[:size]


def as_arrays(state: Mapping[str, Any]) -> dict[str, np.ndarray]:
    """Every state entry as a contiguous numpy array (scalars stay 0-d)."""
    arrays = {}
    for key, value in state.items():
        arr = np.asarray(value)
        if arr.dtype == object:
            raise TypeError(f"cannot checkpoint object-dtype state entry "
                            f"({type(value).__name__})")
        # ascontiguousarray promotes 0-d arrays to shape (1,); keep the
        # original shape so scalar records round-trip as scalars
        arrays[key] = np.ascontiguousarray(arr).reshape(arr.shape)
    return arrays


def verbatim_record(key: str, arr: np.ndarray) -> RecordSpec:
    """The record of a state entry stored whole."""
    return RecordSpec(key=key, dtype=arr.dtype.str, shape=tuple(arr.shape),
                      pruned=False, offset=0, nbytes=arr.nbytes,
                      n_stored=int(arr.size))


def _stored(key: str, arr: np.ndarray, values: np.ndarray,
            where: str) -> tuple[RecordSpec, np.ndarray]:
    """The record of the ``values`` kept of ``arr``, located by ``where``
    (a region list or a tier map), with its payload."""
    return RecordSpec(key=key, dtype=values.dtype.str,
                      shape=tuple(arr.shape), pruned=True, offset=0,
                      nbytes=values.nbytes, n_stored=int(values.size),
                      regions=where), values


def _fit_tiers(tiers: np.ndarray, flats: Sequence[np.ndarray]
               ) -> np.ndarray:
    """``tiers`` with every element that some of ``flats`` holds finite but
    its tier's dtype would not (beyond float16's 65504, say) moved to the
    narrowest wider tier that holds it: half, then single, then double.
    ``tiers`` itself is not modified."""
    for narrow, wide in zip(STORABLE_TIERS, STORABLE_TIERS[1:]):
        at = np.flatnonzero(tiers == narrow)
        over = np.zeros(at.size, dtype=bool)
        for flat in flats:
            values = flat[at]
            with np.errstate(over="ignore"):
                cast = values.astype(TIER_DTYPES[narrow])
            over |= np.isfinite(values) & ~np.isfinite(cast)
        if over.any():
            tiers = tiers.copy()
            tiers[at[over]] = wide
    return tiers


#: per state key, its records with their payloads
Records = dict[str, list[tuple[RecordSpec, np.ndarray]]]

#: ``(name, state keys, keep, tiers)`` of one variable to encode
Variable = tuple[str, Sequence[str], np.ndarray | None, np.ndarray | None]


def encode_variable(name: str, values: Mapping[str, np.ndarray],
                    keep: np.ndarray | None = None,
                    tiers: np.ndarray | None = None
                    ) -> tuple[Records, np.ndarray | None]:
    """Variable ``name`` in the cheapest encoding: per state key its records
    and payloads (a tier map rides with the first key), and its region
    list when it is stored as region records.

    ``values`` maps the variable's state keys to their arrays; ``keep``
    marks the elements to store (``None``: all, stored verbatim), or
    ``tiers`` gives every element a ``TIER_*`` precision, keeping those it
    does not drop; an element its tier cannot hold finite is stored in a
    wider one.  Region records need
    :func:`~repro.core.regions.prune_records`' break-even against verbatim;
    the tier map (floating-point data only) must be cheaper than both.
    """
    if tiers is not None:
        keep = tiers != TIER_DROP
    records: Records = {key: [(verbatim_record(key, arr), arr)]
                        for key, arr in values.items()}
    if keep is None or not values:
        return records, None
    for key, arr in values.items():
        if keep.shape != arr.shape:
            what = "criticality mask" if tiers is None else "precision plan"
            raise ValueError(f"{what} shape {keep.shape} does not match "
                             f"state entry {key!r} of shape {arr.shape}")
    element_nbytes = sum(arr.itemsize for arr in values.values())
    flat = keep.reshape(-1)
    regions = prune_records(flat, element_nbytes)
    best = flat.size * element_nbytes if regions is None \
        else RECORD_NBYTES * len(regions) \
        + int(np.count_nonzero(flat)) * element_nbytes
    if tiers is not None and all(np.issubdtype(arr.dtype, np.floating)
                                 for arr in values.values()):
        flat_tiers = _fit_tiers(tiers.reshape(-1), [
            arr.reshape(-1) for arr in values.values()])
        counts = np.bincount(flat_tiers, minlength=4)
        packed = pack_tiers(flat_tiers)
        if packed.nbytes + len(values) * sum(
                int(counts[tier]) * TIER_DTYPES[tier].itemsize
                for tier in STORABLE_TIERS) < best:
            where = map_key(name)
            for key, arr in values.items():
                flat_arr = arr.reshape(-1)
                records[key] = [
                    _stored(tier_key(key, tier), arr, flat_arr[
                        flat_tiers == tier].astype(TIER_DTYPES[tier]), where)
                    for tier in STORABLE_TIERS if counts[tier]]
            first = next(iter(records))
            records[first].insert(0, (verbatim_record(where, packed), packed))
            return records, None
    if regions is not None:
        for key, arr in values.items():
            records[key] = [_stored(key, arr, arr.reshape(-1)[flat], name)]
    return records, regions


@dataclass
class Layout:
    """A whole checkpoint before writing: header, payloads and the region
    lists of its auxiliary file."""

    header: CheckpointHeader
    payloads: dict[str, np.ndarray]
    lists: dict[str, np.ndarray] = field(default_factory=dict)

    def nbytes(self) -> int:
        """Bytes of the checkpoint file plus its auxiliary file."""
        return container_nbytes(self.header, self.payloads) \
            + (len(encode_aux(self.lists)) if self.lists else 0)


def encode_checkpoint(meta: Mapping[str, Any], mode: str,
                      arrays: Mapping[str, np.ndarray],
                      variables: Iterable[Variable] = (),
                      aux_name: str | None = None,
                      extra: Mapping[str, Any] | None = None) -> Layout:
    """The checkpoint of ``arrays`` with each of ``variables`` encoded by
    :func:`encode_variable` and every other entry verbatim, records in
    state order.  ``aux_name`` is the auxiliary
    file the header names when some variable is stored as region
    records."""
    by_key: Records = {}
    lists: dict[str, np.ndarray] = {}
    for name, keys, keep, tiers in variables:
        records, regions = encode_variable(
            name, {key: arrays[key] for key in keys if key in arrays},
            keep, tiers)
        by_key.update(records)
        if regions is not None:
            lists[name] = regions
    header = CheckpointHeader(mode=mode, extra=dict(extra or {}), **meta)
    payloads: dict[str, np.ndarray] = {}
    for key, arr in arrays.items():
        for rec, payload in by_key.get(key, [(verbatim_record(key, arr),
                                              arr)]):
            header.records.append(rec)
            payloads[rec.key] = payload
    if lists:
        header.extra["aux_file"] = aux_name
    return Layout(header, payloads, lists)


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


def default_aux_path(path: Path, aux_path: str | Path | None) -> Path:
    """``aux_path``, defaulting to ``path`` with ``.aux`` appended."""
    return Path(aux_path) if aux_path is not None \
        else path.with_name(path.name + ".aux")


def write_smallest(path: Path, aux_path: Path,
                   candidates: Sequence[Layout]) -> WrittenCheckpoint:
    """Write the candidate with the fewest bytes (the first among equals)
    and, when it has region lists, its auxiliary file at ``aux_path``;
    otherwise a stale auxiliary file there is removed."""
    best = min(candidates, key=Layout.nbytes)
    header = best.header
    nbytes = write_container(path, header, best.payloads)
    if not best.lists:
        aux_path.unlink(missing_ok=True)
        return WrittenCheckpoint(path, header.mode, header.step, nbytes)
    return WrittenCheckpoint(path, header.mode, header.step, nbytes,
                             aux_path, write_aux_file(aux_path, best.lists))


def is_tiered(rec: RecordSpec) -> bool:
    """Whether a pruned record's elements are given by a tier map."""
    return rec.region_list.endswith(_MAP_SUFFIX)


def stored_entry(rec: RecordSpec) -> tuple[str, np.dtype]:
    """State key and restored dtype of a stored record: tier records
    restore their state key in double precision."""
    if is_tiered(rec):
        return rec.key.rpartition("@")[0], TIER_DTYPES[TIER_DOUBLE]
    return rec.key, rec.numpy_dtype


def record_masks(path: Path, header: CheckpointHeader,
                 arrays: Mapping[str, np.ndarray],
                 aux_path: str | Path | None = None
                 ) -> tuple[Path | None, dict[str, np.ndarray]]:
    """The auxiliary file and the flat element mask of every stored record.

    Region lists are read from ``aux_path`` when given, else from the file
    the header names (``None`` when no record uses one); tier maps from
    ``arrays``.  Raises :class:`CheckpointFormatError`, naming the file and
    the list or map, when it is missing or invalid for the record's array
    (region records: negative, empty, unsorted, overlapping, out of range
    or with a stride shorter than the run) or when it covers a different
    number of elements than the record stores.
    """
    stored = [rec for rec in header.records if rec.pruned]
    lists: dict[str, np.ndarray] = {}
    if any(not is_tiered(rec) for rec in stored):
        if aux_path is None:
            aux_name = header.extra.get("aux_file")
            if aux_name is None:
                raise CheckpointFormatError(
                    f"{path} has pruned records but names no auxiliary file")
            aux_path = path.with_name(aux_name)
        aux_path = Path(aux_path)
        lists = read_aux_file(aux_path)
    else:
        aux_path = None
    decoded: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for rec in stored:
        name = rec.region_list
        if is_tiered(rec):
            packed = arrays.get(name)
            if packed is None or packed.size != -(-rec.n_elements // 4):
                raise CheckpointFormatError(
                    f"{path}: tier record {rec.key!r} has no tier map "
                    f"{name!r} of {rec.n_elements} elements")
            tier = int(rec.key.rpartition("@")[2])
            where = f"{path}: the tier {tier} elements of tier map {name!r}"
            mask = unpack_tiers(packed, rec.n_elements) == tier
        else:
            where = f"auxiliary file {aux_path}, region list {name!r}"
            if name not in decoded:
                if name not in lists:
                    raise CheckpointFormatError(
                        f"auxiliary file {aux_path} has no region list "
                        f"{name!r} for pruned record {rec.key!r}")
                try:
                    decoded[name] = decode_records(lists[name],
                                                   rec.n_elements)
                except ValueError as exc:
                    raise CheckpointFormatError(f"{where}: {exc}") from None
            mask = decoded[name]
            where += ": the records"
        n_covered = int(np.count_nonzero(mask))
        if mask.size != rec.n_elements or n_covered != rec.n_stored:
            raise CheckpointFormatError(
                f"{where} cover {n_covered} of {mask.size} elements but "
                f"record {rec.key!r} stores {rec.n_stored} of "
                f"{rec.n_elements}")
        masks[rec.key] = mask
    return aux_path, masks
