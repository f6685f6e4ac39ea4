"""Pluggable snapshot schedules for the segmented sweeps.

The segmented sweeps (:mod:`repro.ad.segmented`, :mod:`repro.ad.probes`,
and the chained activity analysis of
:func:`repro.ad.activity.segmented_read_masks` -- all three share this
module unchanged) bound the *tape* to one iteration, but they still have to
remember the concrete state at every main-loop boundary so each segment can
be re-traced during the reverse walk.  Stored naively that costs O(steps x state) memory
-- the next cap on analysable problem sizes after the tape itself.  This
module makes the retention policy pluggable:

``"all"`` (the default)
    Keep every boundary snapshot in memory.  Fastest reverse walk, memory
    O(steps x state) -- exactly the original behaviour.

``"binomial"``
    Griewank & Walther's *revolve* schedule: keep only O(log steps)
    snapshots in memory -- placed by the exact binomial tables
    (:func:`optimal_replay_cost`) -- and recompute the missing boundaries
    forward from the nearest kept one during the reverse walk, re-filling
    freed slots with the binomial splits of the gap being replayed.
    Memory O(budget x state) for a budget that defaults to ~log2(steps);
    the replay work meets the revolve optimum for the budget and is
    counted in the schedule's ``recomputed_steps`` telemetry (surfaced
    through :class:`~repro.ad.segmented.SweepStats`).

``"spill"``
    Write every boundary through the :mod:`repro.ckpt` writer to a scratch
    directory and read it back (through the :mod:`repro.ckpt` reader) when
    the reverse walk needs it.  Resident memory is O(1) in the step count
    -- one fetched snapshot plus the background write queue's bounded
    copies -- and disk holds the rest.  Truncated or missing spill files are detected by the
    container format's size checks and raised as
    :class:`~repro.ckpt.format.CheckpointFormatError` -- never deserialised
    into garbage -- and the scratch directory is removed on :meth:`close`
    (the sweeps call it from a ``finally`` block, so cleanup happens on
    success and on exception alike).

Memory and time per policy (the criticality analyzer always runs
``"all"``; the others are parameters of the ``repro.ad`` sweep functions):

============  ===========================  ===================  ==========
schedule      resident snapshots           extra forward        disk
                                           replay
============  ===========================  ===================  ==========
``all``       steps + 1                    none                 none
``binomial``  ~log2(steps) (the budget)    ~steps x log(steps)  none
                                           at the default
                                           budget (quadratic
                                           at the minimum
                                           budget of 2)
``spill``     O(1): 1 fetched + the        none                 steps + 1
              async write queue (exactly                        checkpoint
              1 with ``async_writes=                            containers
              False``)                                          (auto-
                                                                cleaned)
============  ===========================  ===================  ==========

Access protocol (what the sweeps guarantee and the policies exploit):
:meth:`~SnapshotSchedule.record` is called once per boundary ``k = 0 ..
steps`` in increasing order during the forward pass; :meth:`fetch` is called
once per boundary in **strictly decreasing** order (``steps`` first for the
output segment, then ``steps-1 .. 0``); :meth:`close` is always called
last.  Because access is strictly decreasing, a fetched boundary -- and
every boundary above it -- is dead and its slot can be reused.

All three policies hand out snapshots holding the *same bits* the forward
pass produced (copies for "all"/"binomial", a byte-exact container
round-trip for "spill"; "binomial" recomputes with the same concrete numpy
calls), so the chained gradients are bitwise-identical across schedules --
pinned for all eight NPB ports by ``tests/ad/test_schedule.py``.

Every snapshot is a *real copy* of the state (:func:`snapshot_state`): a
benchmark whose ``run`` mutates arrays in place must not be able to corrupt
earlier boundaries through aliasing, and a kept or spilled snapshot has to
own its buffers anyway.
"""

from __future__ import annotations

import math
import queue
import shutil
import tempfile
import threading
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .tensor import ADArray, value_of

__all__ = [
    "SNAPSHOT_SCHEDULES",
    "DEFAULT_SNAPSHOT_SCHEDULE",
    "SnapshotSchedule",
    "BinomialSnapshots",
    "SpillSnapshots",
    "make_schedule",
    "snapshot_state",
    "state_nbytes",
    "default_snapshot_budget",
    "optimal_replay_cost",
]

#: recognised snapshot-retention policies of the segmented sweep
SNAPSHOT_SCHEDULES = ("all", "binomial", "spill")

#: the policy used when none is requested (the original behaviour)
DEFAULT_SNAPSHOT_SCHEDULE = "all"


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


def default_snapshot_budget(steps: int) -> int:
    """In-memory snapshot budget of the binomial schedule: O(log steps)."""
    return max(2, int(math.ceil(math.log2(steps + 1))) + 1)


@lru_cache(maxsize=None)
def optimal_replay_cost(length: int, slots: int) -> int:
    """Minimal forward replays to serve one segment's reverse fetches.

    The segment spans ``length`` boundaries above a stored base; every
    boundary strictly between base and top is fetched once in decreasing
    order (the top itself is handed out by the caller), and ``slots``
    snapshots may be stored inside the segment while replaying.  This is
    the Griewank-Walther binomial checkpointing optimum, expressed as the
    dynamic program their closed form solves:

    ``cost(l, c) = min over m of  m + cost(l - m, c - 1) + cost(m, c)``

    -- advance ``m`` steps to place the next snapshot, reverse the upper
    part with one slot fewer, then the lower part with the slot back.
    ``tests/ad/test_schedule.py`` pins the DP against the closed-form
    binomial counts ``r*l - beta(c + 1, r - 1)``.
    """
    if length <= 1:
        return 0
    if slots <= 0:
        # no interior snapshots: every fetch replays from the base
        return length * (length - 1) // 2
    best = None
    for m in range(1, length):
        cost = m + optimal_replay_cost(length - m, slots - 1) \
            + optimal_replay_cost(m, slots)
        if best is None or cost < best:
            best = cost
    return best


@lru_cache(maxsize=None)
def _optimal_split(length: int, slots: int) -> int:
    """Offset of the next snapshot inside a ``length``-step segment.

    The smallest argmin of the :func:`optimal_replay_cost` recursion;
    ``0`` when no snapshot should (or can) be placed.
    """
    if length <= 1 or slots <= 0:
        return 0
    best, best_m = None, 0
    for m in range(1, length):
        cost = m + optimal_replay_cost(length - m, slots - 1) \
            + optimal_replay_cost(m, slots)
        if best is None or cost < best:
            best, best_m = cost, m
    return best_m


@lru_cache(maxsize=None)
def _forward_plan(length: int, budget: int) -> tuple[int, tuple[int, ...]]:
    """Optimal forward-pass snapshot chain and its total replay cost.

    The forward pass stores snapshots for free as it passes every
    boundary, so its placement problem differs from the in-replay split:
    chain element ``i`` (counted from the base) leaves the segment above
    it ``budget - 2 - i`` free replay slots, and up to ``budget - 3``
    interior elements may be placed.  Returns ``(total_replays, chain)``
    with chain offsets ascending from the base -- together with the
    :func:`_optimal_split` refills this meets the exact protocol optimum
    (pinned against an exhaustive search in ``tests/ad/test_schedule.py``).
    """

    @lru_cache(maxsize=None)
    def best(l: int, i: int) -> tuple[int, int]:
        free = budget - 2 - i
        cost, split = optimal_replay_cost(l, free), 0
        if i < budget - 3:
            for m in range(1, l):
                c = optimal_replay_cost(m, free) + best(l - m, i + 1)[0]
                if c < cost:
                    cost, split = c, m
        return cost, split

    chain: list[int] = []
    remaining, i, base = length, 0, 0
    total = best(length, 0)[0]
    while True:
        split = best(remaining, i)[1]
        if split <= 0:
            break
        base += split
        chain.append(base)
        remaining -= split
        i += 1
    return total, tuple(chain)


class SnapshotSchedule:
    """Keep-everything boundary store (policy ``"all"``) and policy base.

    Subclasses override :meth:`record` / :meth:`fetch` to retain fewer
    snapshots; the telemetry counters below are maintained by the shared
    ``_keep``/``_drop`` helpers so every policy reports through the same
    meter (:meth:`repro.ad.segmented.SweepStats.observe_schedule`).

    Attributes
    ----------
    peak_snapshots:
        Largest number of simultaneously resident in-memory snapshots.
    peak_snapshot_nbytes:
        Largest resident in-memory snapshot payload, in bytes.
    recomputed_steps:
        Forward iterations re-run to rebuild missing boundaries (binomial).
    spilled_nbytes:
        Bytes written to the spill scratch directory (spill).
    """

    policy = "all"

    def __init__(self, steps: int) -> None:
        self.steps = int(steps)
        self._kept: dict[int, dict[str, Any]] = {}
        self._resident_nbytes = 0
        self.peak_snapshots = 0
        self.peak_snapshot_nbytes = 0
        self.recomputed_steps = 0
        self.spilled_nbytes = 0

    # -- shared retention helpers --------------------------------------
    def _keep(self, k: int, state: Mapping[str, Any]) -> None:
        snap = snapshot_state(state)
        self._kept[k] = snap
        self._resident_nbytes += state_nbytes(snap)
        self.peak_snapshots = max(self.peak_snapshots, len(self._kept))
        self.peak_snapshot_nbytes = max(self.peak_snapshot_nbytes,
                                        self._resident_nbytes)

    def _drop(self, k: int) -> None:
        snap = self._kept.pop(k, None)
        if snap is not None:
            self._resident_nbytes -= state_nbytes(snap)

    def _take(self, k: int) -> dict[str, Any]:
        snap = self._kept.pop(k)
        self._resident_nbytes -= state_nbytes(snap)
        return snap

    def _drop_above(self, k: int) -> None:
        # strictly decreasing access: boundaries above ``k`` are dead
        for dead in [b for b in self._kept if b > k]:
            self._drop(dead)

    # -- the schedule protocol -----------------------------------------
    def record(self, k: int, state: Mapping[str, Any]) -> None:
        """Store the boundary-``k`` snapshot (called in increasing ``k``)."""
        self._keep(k, state)

    def fetch(self, k: int) -> dict[str, Any]:
        """Hand out boundary ``k`` (called once, in decreasing ``k``)."""
        self._drop_above(k)
        return self._take(k)

    def close(self) -> None:
        """Release every retained snapshot (and any scratch storage)."""
        self._kept.clear()
        self._resident_nbytes = 0


class BinomialSnapshots(SnapshotSchedule):
    """Revolve-optimal schedule: O(log steps) snapshots, recompute the rest.

    The forward pass keeps boundary 0, boundary ``steps`` (consumed first
    by the output segment) and the interior chain the exact
    Griewank-Walther binomial tables prescribe (:func:`optimal_replay_cost`
    / :func:`_optimal_split`).  When the reverse walk asks for a boundary
    that was not kept, the state is recomputed forward from the nearest
    kept boundary below it with ``advance``; slots freed by the walk's
    descent are re-filled with the same binomial splits of the gap being
    replayed, so the total replay count meets the revolve optimum for the
    schedule's slot accounting (pinned by ``tests/ad/test_schedule.py``)
    instead of the even-split + bisection heuristic's O(steps log steps).

    Parameters
    ----------
    steps:
        Number of main-loop boundaries minus one (boundaries ``0..steps``).
    advance:
        ``advance(state) -> state`` running exactly one concrete iteration;
        it receives a private copy and may mutate it freely.
    budget:
        Maximum number of *schedule-resident* states -- kept snapshots plus
        the replay working copy -- at any instant (>= 2); ``None`` uses
        :func:`default_snapshot_budget`.  The sweep's own forward running
        state is outside this cap (and outside the telemetry): it exists
        identically under every policy, so excluding it everywhere keeps
        cross-policy comparisons apples-to-apples.
    """

    policy = "binomial"

    def __init__(self, steps: int,
                 advance: Callable[[dict[str, Any]], dict[str, Any]],
                 budget: int | None = None) -> None:
        super().__init__(steps)
        if budget is None:
            budget = default_snapshot_budget(self.steps)
        budget = int(budget)
        if budget < 2:
            raise ValueError("snapshot budget must be at least 2 "
                             "(boundary 0 plus one working slot)")
        self.budget = budget
        self._advance = advance
        self._plan = self._placement(self.steps, budget)

    @staticmethod
    def _chain_positions(lo: int, hi: int, free: int) -> frozenset[int]:
        """Revolve-optimal snapshot chain strictly inside ``(lo, hi)``.

        The replayed gap is the tail of a segment reaching one past ``hi``
        (boundary ``hi + 1`` was consumed immediately before the miss), so
        the Griewank-Walther split is taken for length ``hi - lo + 1``;
        the recursion then descends into the *upper* part with one slot
        fewer -- exactly the nested state an optimal reverse walk holds.
        """
        keep: set[int] = set()
        while free > 0 and hi - lo > 1:
            m = _optimal_split(hi - lo + 1, free)
            if m <= 0 or lo + m >= hi:
                # a split at the consumed top boundary stores nothing useful
                break
            keep.add(lo + m)
            lo += m
            free -= 1
        return frozenset(keep)

    @staticmethod
    def _placement(steps: int, budget: int) -> frozenset[int]:
        """Boundaries kept during the forward pass.

        Boundary 0 (fetched last) and ``steps`` (fetched first) are always
        kept; up to ``budget - 3`` further slots hold the chain
        :func:`_forward_plan` prescribes.  One slot stays unplaced so the
        topmost gap has a free refill slot the moment ``steps`` pops.
        """
        if steps <= 0:
            return frozenset({0, steps})
        return frozenset({0, steps} | set(_forward_plan(steps, budget)[1]))

    def _refill_positions(self, j: int, k: int, free: int) -> frozenset[int]:
        """Revolve-optimal refill of the replayed gap ``(j, k)``.

        ``k`` itself is excluded: it is handed to the caller and dead right
        after, so storing it would waste a slot.
        """
        return self._chain_positions(j, k, min(free, k - j - 1))

    def record(self, k: int, state: Mapping[str, Any]) -> None:
        if k in self._plan:
            self._keep(k, state)

    def fetch(self, k: int) -> dict[str, Any]:
        self._drop_above(k)
        if k in self._kept:
            return self._take(k)
        j = max(b for b in self._kept if b < k)
        # one budget slot stays reserved for the replay's working copy, so
        # kept snapshots + the in-flight state never exceed the budget
        free = self.budget - len(self._kept) - 1
        targets = self._refill_positions(j, k, free)
        current = snapshot_state(self._kept[j])
        for t in range(j + 1, k + 1):
            current = self._advance(current)
            self.recomputed_steps += 1
            if t in targets:
                self._keep(t, current)
            # meter the working copy alongside the kept set (the spill
            # schedule meters its handed-out snapshot the same way)
            self.peak_snapshots = max(self.peak_snapshots,
                                      len(self._kept) + 1)
            self.peak_snapshot_nbytes = max(
                self.peak_snapshot_nbytes,
                self._resident_nbytes + state_nbytes(current))
        # ``current`` is private to this replay (seeded from a copy, and
        # ``_keep`` stores copies), so it can be handed out directly
        return current


class SpillSnapshots(SnapshotSchedule):
    """On-disk schedule: boundaries round-trip through :mod:`repro.ckpt`.

    Every recorded boundary is written as a *full* checkpoint container to a
    private scratch directory (a fresh ``mkdtemp`` inside ``directory``, or
    the system temp dir); :meth:`fetch` reads it back through the checkpoint
    reader and deletes the file, so resident memory is bounded by one
    fetched snapshot plus the bounded write queue's in-flight copies
    (``_QUEUE_DEPTH + 2``; exactly one snapshot with ``async_writes=False``)
    and at most ``steps + 1`` containers live on disk.  :meth:`close`
    removes the whole scratch directory.

    A truncated, corrupted or missing spill file surfaces as
    :class:`~repro.ckpt.format.CheckpointFormatError` (the container format
    validates magic, header and per-record byte counts), never as silently
    wrong state.

    Scalar round-trip convention: boundaries are materialised with the
    reader's ``exact_scalars`` mode -- 0-d integer records come back as
    ``int`` (convenient for loop counters, and exact), every other 0-d
    record as a numpy scalar of its *declared* dtype with the exact stored
    bits.  The reader's default float64 coercion would make a float32
    scalar trace at a different precision than the in-memory schedules
    (and retype bools), breaking cross-schedule bitwise identity.

    Asynchronous writes: by default (``async_writes=True``) the container
    writes run on a single background worker thread fed by a bounded
    queue, overlapping the spill I/O with the next segment's concrete
    forward step instead of stalling between segments.  ``record`` hands
    the worker a private deep copy, so the caller may mutate its state
    freely; the first ``fetch`` joins the queue before reading anything
    back, and a failed write re-raises its
    :class:`~repro.ckpt.format.CheckpointFormatError` at the next
    ``record``/``fetch``/``close`` -- the same error type, just deferred
    to the synchronisation point.
    """

    policy = "spill"

    #: bounded write queue: caps the extra resident copies async mode holds
    _QUEUE_DEPTH = 4

    def __init__(self, steps: int, directory: str | Path | None = None,
                 bench: Any = None, async_writes: bool = True) -> None:
        from repro.ckpt.format import CheckpointFormatError

        super().__init__(steps)
        self._bench = bench
        try:
            if directory is not None:
                Path(directory).mkdir(parents=True, exist_ok=True)
            self.directory = Path(tempfile.mkdtemp(prefix="repro-spill-",
                                                   dir=directory))
        except OSError as exc:
            # construction failures are spill failures too: wrapped so
            # callers can tell them apart from unrelated OSErrors
            raise CheckpointFormatError(
                f"cannot create spill scratch directory under "
                f"{directory if directory is not None else 'the system temp dir'}: "
                f"{exc}") from exc
        self._files: dict[int, Path] = {}
        self._async = bool(async_writes)
        self._queue: queue.Queue | None = None
        self._worker: threading.Thread | None = None
        self._write_error: BaseException | None = None
        #: queued-but-unwritten copies (async) -- metered as resident;
        #: updated from both the caller and the writer thread, so the
        #: read-modify-write must be locked or the counters drift
        self._pending = 0
        self._pending_nbytes = 0
        self._pending_lock = threading.Lock()

    def _path(self, k: int) -> Path:
        return self.directory / f"boundary-{k:06d}.ckpt"

    # -- background writer ---------------------------------------------
    def _ensure_worker(self) -> None:
        if self._worker is not None:
            return
        self._queue = queue.Queue(maxsize=self._QUEUE_DEPTH)
        self._worker = threading.Thread(target=self._drain_writes,
                                        name="repro-spill-writer",
                                        daemon=True)
        self._worker.start()

    def _drain_writes(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                k, state, nbytes = item
                if self._write_error is None:
                    try:
                        self._write_one(k, state)
                    except BaseException as exc:  # noqa: BLE001 - deferred
                        # re-raised at the next synchronisation point;
                        # later queued writes are skipped (fail fast)
                        self._write_error = exc
                with self._pending_lock:
                    self._pending -= 1
                    self._pending_nbytes -= nbytes
            finally:
                self._queue.task_done()

    def _write_one(self, k: int, state: Mapping[str, Any]) -> None:
        from repro.ckpt.format import CheckpointFormatError
        from repro.ckpt.writer import write_full_checkpoint

        try:
            written = write_full_checkpoint(self._path(k), self._bench,
                                            state, step=k)
        except OSError as exc:
            # surface spill I/O failures under the schedule's one error
            # type, so callers can tell them apart from unrelated OSErrors
            # (e.g. an allocation failure elsewhere in the sweep)
            raise CheckpointFormatError(
                f"cannot spill boundary {k} to {self._path(k)}: "
                f"{exc}") from exc
        self._files[k] = written.path
        self.spilled_nbytes += written.nbytes

    def flush(self) -> None:
        """Wait for every queued write; re-raise a deferred write error.

        ``fetch`` and ``close`` flush implicitly; call this directly only
        to synchronise with the scratch directory from outside (tests,
        external inspection).
        """
        if self._queue is not None:
            self._queue.join()
        if self._write_error is not None:
            error, self._write_error = self._write_error, None
            raise error

    _flush = flush

    def record(self, k: int, state: Mapping[str, Any]) -> None:
        if not self._async:
            self._write_one(k, state)
            return
        self._ensure_worker()
        if self._write_error is not None:
            self._flush()
        # the worker outlives this call: hand it a private copy so the
        # caller's state (the sweep's running ``current``) stays mutable
        snap = snapshot_state(state)
        nbytes = state_nbytes(snap)
        with self._pending_lock:
            self._pending += 1
            self._pending_nbytes += nbytes
            self.peak_snapshots = max(self.peak_snapshots, self._pending)
            self.peak_snapshot_nbytes = max(self.peak_snapshot_nbytes,
                                            self._pending_nbytes)
        self._queue.put((k, snap, nbytes))

    def fetch(self, k: int) -> dict[str, Any]:
        from repro.ckpt.format import CheckpointFormatError
        from repro.ckpt.reader import read_checkpoint

        self._flush()
        for dead in [b for b in self._files if b > k]:
            self._files.pop(dead).unlink(missing_ok=True)
        path = self._files.pop(k, None)
        if path is None or not path.is_file():
            raise CheckpointFormatError(
                f"spilled snapshot of boundary {k} is missing from "
                f"{self.directory} (interrupted spill or external cleanup)")
        try:
            loaded = read_checkpoint(path)
        except OSError as exc:
            raise CheckpointFormatError(
                f"cannot read spilled boundary {k} from {path}: "
                f"{exc}") from exc
        if loaded.step != k:
            raise CheckpointFormatError(
                f"spill file {path} holds boundary {loaded.step}, "
                f"expected boundary {k}")
        # exact_scalars: the default float64 scalar coercion would retype
        # bools and narrow wider floats, breaking cross-schedule bitwise
        # identity; integer records still come back as ``int`` (exact)
        state = loaded.materialize(exact_scalars=True)
        path.unlink(missing_ok=True)
        self.peak_snapshots = max(self.peak_snapshots, 1)
        self.peak_snapshot_nbytes = max(self.peak_snapshot_nbytes,
                                        state_nbytes(state))
        return state

    def close(self) -> None:
        # join the writer before removing its target directory, and
        # re-raise a deferred write error so a failed spill can never be
        # mistaken for a clean sweep (the sweeps call close() last)
        try:
            if self._worker is not None:
                self._flush()
        finally:
            if self._queue is not None:
                self._queue.put(None)
                self._worker.join()
                self._queue = None
                self._worker = None
            super().close()
            self._files.clear()
            shutil.rmtree(self.directory, ignore_errors=True)


def make_schedule(policy: str, *, steps: int,
                  advance: Callable[[dict[str, Any]], dict[str, Any]]
                  | None = None,
                  budget: int | None = None,
                  spill_dir: str | Path | None = None,
                  bench: Any = None,
                  spill_async: bool = True) -> SnapshotSchedule:
    """Instantiate the snapshot schedule for one segmented sweep.

    Parameters
    ----------
    policy:
        One of :data:`SNAPSHOT_SCHEDULES`.
    steps:
        Number of main-loop iterations the sweep covers.
    advance:
        One-iteration concrete stepper, required by ``"binomial"`` (ignored
        by the other policies).
    budget:
        In-memory snapshot budget of ``"binomial"`` (``None`` = O(log
        steps) default); ignored by the other policies.
    spill_dir:
        Parent directory of ``"spill"``'s private scratch directory
        (``None`` = the system temp dir); ignored by the other policies.
    bench:
        Benchmark whose metadata labels the spill containers (optional).
    spill_async:
        Whether ``"spill"`` overlaps its container writes with the next
        segment on a background worker thread (the default); ``False``
        forces the synchronous writes (the pre-async behaviour, and the
        baseline the spill benchmark compares against).
    """
    if policy not in SNAPSHOT_SCHEDULES:
        raise ValueError(f"unknown snapshot schedule {policy!r}; "
                         f"choose from {SNAPSHOT_SCHEDULES}")
    if policy == "binomial":
        if advance is None:
            raise ValueError("the binomial schedule needs an advance() "
                             "stepper to recompute dropped boundaries")
        return BinomialSnapshots(steps, advance, budget=budget)
    if policy == "spill":
        return SpillSnapshots(steps, directory=spill_dir, bench=bench,
                              async_writes=spill_async)
    return SnapshotSchedule(steps)
