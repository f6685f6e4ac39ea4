"""Region encodings of criticality masks.

The paper's auxiliary file "only records the start and end locations of the
region of continuous critical elements" (Section III-B).  This module holds
two forms of that encoding over the *flattened* (C-order) element index
space of a variable:

* :func:`encode_mask` -- the maximal half-open ``[start, stop)``
  :class:`Region` runs, for reports and plots;
* :func:`encode_records` -- the pruned-checkpoint records.  Each record is
  ``(start, length, stride, count)``: ``count`` runs of ``length`` elements
  whose starts are ``stride`` apart.  A plain start/end run is the case
  ``count == 1``, so the records strictly generalise the paper's; the
  regular patterns the paper observes (a padding plane in every row, a
  stripe per block) collapse to one record per progression.

:func:`prune_records` is the one break-even rule shared by the checkpoint
codec (:mod:`repro.ckpt.codec`) and the storage model: a variable is
pruned only when its critical data plus its records are smaller than the
variable stored verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Region",
    "RECORD_NBYTES",
    "encode_mask",
    "decode_regions",
    "n_elements",
    "encode_records",
    "decode_records",
    "prune_records",
    "aux_record_nbytes",
]


#: bytes of one ``(start, length, stride, count)`` record (four int64)
RECORD_NBYTES = 32


@dataclass(frozen=True, order=True)
class Region:
    """A half-open run ``[start, stop)`` of flat element indices."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid region [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.stop

    def overlaps(self, other: "Region") -> bool:
        """True when the two runs share at least one element."""
        return self.start < other.stop and other.start < self.stop

    def as_slice(self) -> slice:
        """The equivalent ``slice`` over a flattened array."""
        return slice(self.start, self.stop)


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the maximal ``True`` runs (C order)."""
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    padded = np.concatenate(([False], flat, [False])).view(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    return edges[0::2], edges[1::2] - edges[0::2]


def encode_mask(mask: np.ndarray) -> list[Region]:
    """Encode the ``True`` runs of a boolean mask (any shape, C order).

    Returns the maximal runs in increasing index order.  An all-``False``
    mask encodes to an empty list; an all-``True`` mask to a single run.
    """
    starts, lengths = _runs(mask)
    return [Region(int(a), int(a + n)) for a, n in zip(starts, lengths)]


def decode_regions(regions: Iterable[Region], size: int) -> np.ndarray:
    """Inverse of :func:`encode_mask`: a flat boolean mask of length ``size``."""
    mask = np.zeros(int(size), dtype=bool)
    for region in regions:
        if region.stop > size:
            raise ValueError(
                f"region [{region.start}, {region.stop}) exceeds size {size}")
        mask[region.start:region.stop] = True
    return mask


def n_elements(regions: Iterable[Region]) -> int:
    """Total number of elements covered by the runs."""
    return sum(len(r) for r in regions)


def encode_records(mask: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` int64 ``(start, length, stride, count)`` records of a
    boolean mask (any shape, C order).

    Runs are grouped greedily from the left: a run joins the progression of
    the run before it when it has the same length and, from the third run
    on, the same start-to-start distance.  A single run gets
    ``stride == length``.  All-``False`` masks encode to zero records.
    """
    starts, lengths = _runs(mask)
    n = starts.size
    if n == 0:
        return np.zeros((0, 4), dtype=np.int64)
    gaps = np.diff(starts)
    same_length = np.zeros(n, dtype=bool)
    same_length[1:] = lengths[1:] == lengths[:-1]
    same_gap = np.zeros(n, dtype=bool)
    same_gap[2:] = gaps[1:] == gaps[:-1]
    # joins[k] = same_length[k] & (not joins[k-1] or same_gap[k]): it is
    # fixed wherever the lengths differ or the gap repeats, and alternates
    # from the last fixed run in between
    fixed = ~same_length | same_gap
    index = np.arange(n)
    last_fixed = np.maximum.accumulate(np.where(fixed, index, 0))
    joins = (same_length & same_gap)[last_fixed] \
        ^ ((index - last_fixed) % 2 == 1)
    heads = np.flatnonzero(~joins)
    counts = np.diff(np.append(heads, n))
    strides = lengths[heads].copy()
    many = counts > 1
    strides[many] = gaps[heads[many]]
    return np.stack([starts[heads], lengths[heads], strides, counts],
                    axis=1).astype(np.int64)


def decode_records(records: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`encode_records`: a flat boolean mask of ``size``.

    Raises ``ValueError`` unless every field is non-negative, every record
    covers at least one element, ``stride >= length`` wherever
    ``count > 1``, and the runs are sorted, disjoint and inside the array.
    """
    records = np.asarray(records, dtype=np.int64).reshape(-1, 4)
    start, length, stride, count = records.T
    if (records < 0).any():
        raise ValueError("a record has a negative field")
    if ((length == 0) | (count == 0)).any():
        raise ValueError("a record covers no element")
    if ((count > 1) & (stride < length)).any():
        raise ValueError("a record's stride is shorter than its length")
    misplaced = (f"the records are unsorted, overlap or run past the array "
                 f"of {size} elements")
    # disjoint non-empty runs number at most ``size``: bounding the fields
    # first keeps the expansion below O(size) and free of overflow
    if (records[:, [0, 1, 3]] > size).any() \
            or ((count > 1) & (stride > size)).any() \
            or int(count.sum()) > size:
        raise ValueError(misplaced)
    owner = np.repeat(np.arange(len(records)), count)
    nth = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
    run_start = start[owner] + stride[owner] * nth
    run_length = length[owner]
    # alternating gap / run lengths, ending with the gap up to ``size``
    pieces = np.empty(2 * owner.size + 1, dtype=np.int64)
    pieces[0::2] = np.append(run_start, size) \
        - np.append(0, run_start + run_length)
    pieces[1::2] = run_length
    if (pieces[0::2] < 0).any():
        raise ValueError(misplaced)
    is_run = np.zeros(pieces.size, dtype=bool)
    is_run[1::2] = True
    return np.repeat(is_run, pieces)


def prune_records(mask: np.ndarray, element_nbytes: int) -> np.ndarray | None:
    """The records a pruned checkpoint stores for one variable, or ``None``
    when the variable is stored verbatim.

    ``element_nbytes`` is the bytes per element over all the variable's
    state keys (16 for a dcomplex pair).  Fully critical variables, and
    variables whose critical data plus records would not be smaller than
    the verbatim data (the break-even fallback), give ``None``.
    """
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    n_uncritical = flat.size - int(np.count_nonzero(flat))
    if n_uncritical == 0:
        return None
    records = encode_records(flat)
    if RECORD_NBYTES * len(records) >= n_uncritical * element_nbytes:
        return None
    return records


def aux_record_nbytes(mask: np.ndarray, element_nbytes: int) -> int:
    """Bytes of the records a pruned checkpoint stores for one variable
    (0 when :func:`prune_records` stores it verbatim).

    This is the in-memory storage model of the auxiliary file;
    :mod:`repro.ckpt.auxfile` adds a small fixed header on disk.
    """
    records = prune_records(mask, element_nbytes)
    return 0 if records is None else RECORD_NBYTES * len(records)
