"""Boundary-snapshot store of the segmented sweeps.

The segmented sweeps (:mod:`repro.ad.segmented`, :mod:`repro.ad.probes`,
and the chained activity analysis of
:func:`repro.ad.activity.segmented_read_masks`) bound the *tape* to one
iteration, but they still have to remember the concrete state at every
main-loop boundary so each segment can be re-traced during the reverse
walk.  :class:`SnapshotSchedule` keeps every boundary in memory: O(steps x
state) resident, no recomputation and no disk.  For the NPB kernels the
state is smaller than one iteration's tape (2x for EP to 44x for MG at
class T).

Access protocol: :meth:`~SnapshotSchedule.record` is called once per
boundary ``k = 0 .. steps`` in increasing order during the forward pass;
:meth:`~SnapshotSchedule.fetch` is called once per boundary in **strictly
decreasing** order (``steps`` first for the output segment, then
``steps-1 .. 0``); :meth:`~SnapshotSchedule.close` is always called last.
Because access is strictly decreasing, a fetched boundary -- and every
boundary above it -- is dead and its snapshot is released.

Snapshots are kept *by reference*, never copied.  Boundary 0 is the
caller's own state; every later boundary is the dict ``run`` returned.  The
forward pass hands ``run`` read-only views of each boundary
(:func:`repro.ad.segmented._segmented_sweep`), so an array a step passes
through unchanged is shared by every later boundary, and a ``run`` that
writes into its input fails loudly instead of corrupting a boundary.  The
resident-bytes meter counts each shared buffer once.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .tensor import ADArray, value_of

__all__ = [
    "SnapshotSchedule",
    "make_schedule",
    "snapshot_state",
    "state_nbytes",
]


def snapshot_state(state: Mapping[str, Any]) -> dict[str, Any]:
    """Deep copy of a concrete state dict.

    Array entries (float *and* integer -- an in-place kernel may mutate
    either) are copied; scalars are immutable and pass through *unchanged*
    (a Python ``int`` stays an ``int``, never a 0-d array).  AD wrappers
    are stripped, so the snapshot is always plain numpy data.
    """
    out: dict[str, Any] = {}
    for key, val in state.items():
        if isinstance(val, ADArray):
            val = val.value
        if isinstance(val, np.ndarray):
            out[key] = np.array(val, copy=True)
        else:
            out[key] = val
    return out


def state_nbytes(state: Mapping[str, Any]) -> int:
    """Bytes of array/scalar payload one state snapshot holds resident."""
    total = 0
    for val in state.values():
        total += np.asarray(value_of(val)).nbytes
    return total


def _owner(array: np.ndarray) -> np.ndarray:
    """The array at the root of ``array``'s view chain: the buffer that
    stays resident while any view of it does."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class SnapshotSchedule:
    """Keep-everything boundary store of one segmented sweep.

    Attributes
    ----------
    peak_snapshots:
        Largest number of simultaneously resident snapshots.
    peak_snapshot_nbytes:
        Largest resident snapshot payload, in bytes.  A buffer shared by
        several boundaries (an array a step passes through unchanged, or
        views of it) counts once, at its owner's size.
    """

    def __init__(self, steps: int) -> None:
        self.steps = int(steps)
        self._kept: dict[int, Mapping[str, Any]] = {}
        # id(owner) -> [owner, boundaries referencing it]
        self._owners: dict[int, list] = {}
        self._resident_nbytes = 0
        self.peak_snapshots = 0
        self.peak_snapshot_nbytes = 0

    def _account(self, snap: Mapping[str, Any], sign: int) -> None:
        """Add (``sign=1``) or drop (``-1``) one boundary's payload."""
        for val in snap.values():
            val = value_of(val)
            if not isinstance(val, np.ndarray):
                self._resident_nbytes += sign * np.asarray(val).nbytes
                continue
            owner = _owner(val)
            entry = self._owners.setdefault(id(owner), [owner, 0])
            if entry[1] == 0:
                self._resident_nbytes += owner.nbytes
            entry[1] += sign
            if entry[1] == 0:
                self._resident_nbytes -= owner.nbytes
                del self._owners[id(owner)]

    def _take(self, k: int) -> Mapping[str, Any]:
        snap = self._kept.pop(k)
        self._account(snap, -1)
        return snap

    def record(self, k: int, state: Mapping[str, Any]) -> None:
        """Keep ``state`` itself as boundary ``k`` (called in increasing
        ``k``); nothing may write into it while the sweep runs."""
        self._kept[k] = state
        self._account(state, 1)
        self.peak_snapshots = max(self.peak_snapshots, len(self._kept))
        self.peak_snapshot_nbytes = max(self.peak_snapshot_nbytes,
                                        self._resident_nbytes)

    def fetch(self, k: int) -> Mapping[str, Any]:
        """Hand out boundary ``k`` (called once, in decreasing ``k``)."""
        # strictly decreasing access: boundaries above ``k`` are dead
        for dead in [b for b in self._kept if b > k]:
            self._take(dead)
        return self._take(k)

    def close(self) -> None:
        """Release every retained snapshot."""
        self._kept.clear()
        self._owners.clear()
        self._resident_nbytes = 0


def make_schedule(steps: int) -> SnapshotSchedule:
    """The boundary store for one segmented sweep over ``steps`` iterations."""
    return SnapshotSchedule(steps)
