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

Every snapshot the forward pass records is a *real copy* of the state
(:func:`snapshot_state`): a benchmark whose ``run`` mutates arrays in place
must not be able to corrupt earlier boundaries through aliasing.  Boundary
0 is the caller's own state, kept uncopied: the forward steps from a copy
of it, and the tracing hooks write into no state they are handed.
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


class SnapshotSchedule:
    """Keep-everything boundary store of one segmented sweep.

    Attributes
    ----------
    peak_snapshots:
        Largest number of simultaneously resident snapshots.
    peak_snapshot_nbytes:
        Largest resident snapshot payload, in bytes.
    """

    def __init__(self, steps: int) -> None:
        self.steps = int(steps)
        self._kept: dict[int, dict[str, Any]] = {}
        self._resident_nbytes = 0
        self.peak_snapshots = 0
        self.peak_snapshot_nbytes = 0

    def _take(self, k: int) -> dict[str, Any]:
        snap = self._kept.pop(k)
        self._resident_nbytes -= state_nbytes(snap)
        return snap

    def record(self, k: int, state: Mapping[str, Any],
               copy: bool = True) -> None:
        """Store the boundary-``k`` snapshot (called in increasing ``k``).

        ``copy=False`` keeps ``state`` itself, for a plain-numpy state that
        nothing writes into while the sweep runs.
        """
        snap = snapshot_state(state) if copy else state
        self._kept[k] = snap
        self._resident_nbytes += state_nbytes(snap)
        self.peak_snapshots = max(self.peak_snapshots, len(self._kept))
        self.peak_snapshot_nbytes = max(self.peak_snapshot_nbytes,
                                        self._resident_nbytes)

    def fetch(self, k: int) -> dict[str, Any]:
        """Hand out boundary ``k`` (called once, in decreasing ``k``)."""
        # strictly decreasing access: boundaries above ``k`` are dead
        for dead in [b for b in self._kept if b > k]:
            self._take(dead)
        return self._take(k)

    def close(self) -> None:
        """Release every retained snapshot."""
        self._kept.clear()
        self._resident_nbytes = 0


def make_schedule(steps: int) -> SnapshotSchedule:
    """The boundary store for one segmented sweep over ``steps`` iterations."""
    return SnapshotSchedule(steps)
