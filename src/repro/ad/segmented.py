"""Segmented reverse sweep: bound tape memory to a single iteration.

The monolithic AD path (:meth:`repro.npb.base.NPBBenchmark.traced_restart` +
:func:`repro.ad.reverse.backward`) records every primitive of *all* remaining
main-loop iterations on one tape before sweeping it, so peak tape memory
grows linearly with the number of remaining steps.  That linear growth is
what caps the analysable problem sizes.

This module implements the standard fix -- checkpointing the reverse sweep at
iteration granularity (Griewank's *revolve* idea, at its simplest schedule):

1. run the remaining iterations **forward on concrete numpy state**, keeping
   the (cheap) state snapshot at every iteration boundary;
2. trace only the final output reduction and sweep it, producing the
   cotangent of every state entry of the last boundary;
3. walk the boundaries backwards: re-trace *one* iteration, seed the traced
   next-state entries with the chained cotangents
   (:func:`repro.ad.reverse.backward_from_seeds`), sweep, and free the tape
   before tracing the previous iteration.

Peak tape memory is therefore O(1 iteration) instead of O(remaining steps).
The boundary snapshots themselves are held by a
:class:`repro.ad.schedule.SnapshotSchedule`, which keeps every boundary in
memory (O(steps x state) -- for the NPB kernels one state is smaller
than one iteration's tape).

Bitwise equivalence
-------------------
The chained sweep reproduces the monolithic gradients **bit for bit**, not
just approximately:

* the concrete forward values at every boundary equal the traced forward
  values (the ops compute with the same numpy calls either way);
* the tape is append-only and swept in strictly decreasing node order, so
  all cotangent contributions from later iterations accumulate into a
  boundary value *before* any same-iteration contribution -- which is
  exactly the order in which the segmented sweep applies them: the chained
  seed first, then the segment's own contributions;
* seeds are injected by buffer copy and in-place addition, the same float
  operations the monolithic sweep performs.

``tests/ad/test_segmented.py`` pins the bitwise identity of both the
gradients and the criticality masks for all eight NPB ports.

Every floating-point entry of the state dict is chained across segment
boundaries -- not only the keys the caller asked for -- because a dependence
may flow through an auxiliary float entry (e.g. LU's recomputed ``rho_i``)
even when that entry itself is not under analysis.  Integer entries advance
concretely, exactly as in the monolithic trace.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .plan import (DEFAULT_PLAN_OPTIMIZE, DEFAULT_TRACE_CACHE, TRACE_CACHES,
                   PlanCache)
from .reverse import backward, backward_from_seeds
from .schedule import SnapshotSchedule, make_schedule, snapshot_state
from .tape import Tape
from .tensor import ADArray, value_of

__all__ = ["SweepStats", "float_state_keys", "gradient_dtype",
           "cast_gradient", "segmented_gradients"]


@dataclass
class SweepStats:
    """Peak/total tape telemetry of one (segmented or monolithic) sweep.

    Pass an instance to :func:`segmented_gradients` to observe how large the
    per-segment tapes actually get; :meth:`observe` also works on the single
    tape of a monolithic sweep, so the memory benchmark
    (``benchmarks/test_segmented_memory.py``) reports both sides with the
    same meter.
    """

    #: number of tapes observed (segments + the output segment)
    n_segments: int = 0
    #: largest node count of any single observed tape
    peak_nodes: int = 0
    #: largest gradient-buffer footprint estimate of any single tape (bytes)
    peak_nbytes: int = 0
    #: node count summed over all observed tapes
    total_nodes: int = 0
    #: per-segment node counts, in observation order (output segment first
    #: for a segmented sweep)
    segment_nodes: list[int] = field(default_factory=list)
    #: largest number of simultaneously resident boundary snapshots
    peak_snapshots: int = 0
    #: largest resident boundary-snapshot payload of the sweep (bytes)
    peak_snapshot_nbytes: int = 0
    #: trace-cache policy of the observed sweep ("" = none observed)
    trace_cache: str = ""
    #: step segments served by a compiled replay plan (no tracer run)
    plan_hits: int = 0
    #: step segments that ran the tracer (plan capture or fallback)
    plan_misses: int = 0
    #: replay plans compiled from matching captures
    plan_compiles: int = 0
    #: plan-cache entries rejected (unsupported op, compile/replay error)
    plan_rejects: int = 0
    #: largest slot count of any compiled plan's reusable arena
    plan_arena_slots: int = 0
    #: largest gradient-buffer footprint estimate of any plan arena (bytes)
    plan_arena_nbytes: int = 0
    #: largest liveness-packed arena footprint estimate (bytes; same meter
    #: as ``plan_arena_nbytes``, after dead-slot elimination, view sharing
    #: and lifetime coalescing)
    plan_arena_nbytes_packed: int = 0
    #: most primitives any compiled plan runs inside fused kernels
    plan_fused_ops: int = 0
    #: most dead instructions eliminated from any compiled plan
    plan_eliminated_slots: int = 0
    #: segments processed by a segmented activity (read-set) sweep
    activity_segments: int = 0
    #: activity segments served by a plan-derived transfer (no tracer run)
    activity_plan_replays: int = 0
    #: activity segments that ran the tracer (plan capture or fallback)
    activity_retraces: int = 0
    #: largest resident read/moved mask payload of an activity sweep (bytes)
    activity_peak_mask_nbytes: int = 0

    def observe(self, tape: Tape) -> None:
        """Record one tape's size before it is freed."""
        nodes = len(tape)
        self.n_segments += 1
        self.total_nodes += nodes
        self.segment_nodes.append(nodes)
        self.peak_nodes = max(self.peak_nodes, nodes)
        self.peak_nbytes = max(self.peak_nbytes, tape.nbytes())

    def observe_plan_segment(self, n_slots: int, nbytes: int) -> None:
        """Record one *replayed* segment with the tape meter's semantics.

        A replayed segment has no tape, but its plan's slot count and
        gradient-buffer estimate are exactly what the equivalent tape would
        report, so replays and traces stay comparable on one meter.
        """
        self.n_segments += 1
        self.total_nodes += n_slots
        self.segment_nodes.append(n_slots)
        self.peak_nodes = max(self.peak_nodes, n_slots)
        self.peak_nbytes = max(self.peak_nbytes, nbytes)

    def observe_plan(self, cache: "PlanCache",
                     since: dict | None = None) -> None:
        """Fold one sweep's plan-cache telemetry in.

        ``since`` is a :meth:`PlanCache.counters` snapshot taken when the
        sweep started; passing it makes the fold a *delta*, so a plan cache
        shared across sweeps (the analyzer's per-analysis cache) is never
        double-counted.
        """
        counts = cache.counters()
        base = since or {}
        self.plan_hits += counts["hits"] - base.get("hits", 0)
        self.plan_misses += counts["misses"] - base.get("misses", 0)
        self.plan_compiles += counts["compiles"] - base.get("compiles", 0)
        self.plan_rejects += counts["rejects"] - base.get("rejects", 0)
        self.plan_arena_slots = max(self.plan_arena_slots,
                                    cache.arena_slots)
        self.plan_arena_nbytes = max(self.plan_arena_nbytes,
                                     cache.arena_nbytes)
        self.plan_arena_nbytes_packed = max(self.plan_arena_nbytes_packed,
                                            cache.arena_nbytes_packed)
        self.plan_fused_ops = max(self.plan_fused_ops, cache.fused_ops)
        self.plan_eliminated_slots = max(self.plan_eliminated_slots,
                                         cache.eliminated_slots)

    def observe_schedule(self, *schedules: SnapshotSchedule) -> None:
        """Fold one sweep's snapshot-store telemetry in.

        The batched probe sweep keeps one schedule per probe and their
        snapshots are resident simultaneously, so per-schedule peaks *add*
        before being folded into this collector's running maximum.
        """
        self.peak_snapshots = max(
            self.peak_snapshots, sum(s.peak_snapshots for s in schedules))
        self.peak_snapshot_nbytes = max(
            self.peak_snapshot_nbytes,
            sum(s.peak_snapshot_nbytes for s in schedules))


def float_state_keys(state: Mapping[str, Any]) -> list[str]:
    """Keys of every floating-point entry of ``state``, in dict order.

    These are the entries the segmented sweep must chain cotangents for;
    integer entries (loop counters, key arrays) carry no derivative and pass
    between segments concretely.
    """
    keys: list[str] = []
    for key, value in state.items():
        arr = np.asarray(value_of(value))
        if np.issubdtype(arr.dtype, np.floating):
            keys.append(key)
    return keys


def gradient_dtype(value: Any) -> np.dtype:
    """Dtype a returned gradient of state entry ``value`` must carry.

    Floating entries keep their declared precision -- a float32 variable's
    gradient comes back as float32, exactly as ``_perturb_state`` preserves
    the dtype of probed states -- and everything else (integer entries a
    caller explicitly watched) reports in float64.
    """
    dtype = np.asarray(value_of(value)).dtype
    if np.issubdtype(dtype, np.floating):
        return dtype
    return np.dtype(np.float64)


def cast_gradient(grad: Any, dtype: np.dtype | type) -> np.ndarray:
    """Cast a gradient to its entry's declared dtype, zero-pattern safely.

    The sweeps compute in float64; narrowing to a declared float32 could
    flush a tiny-but-nonzero derivative to exactly ``0.0``, silently
    flipping a critical element to uncritical -- the one error class the
    criticality criterion ("derivative exactly 0") must never make.  Values
    the narrow dtype cannot distinguish from zero are clamped to its
    smallest subnormal instead, preserving sign and, above all, the
    nonzero pattern.
    """
    grad = np.asarray(grad)
    out = np.asarray(grad, dtype=dtype)
    if out.dtype != grad.dtype and np.issubdtype(out.dtype, np.floating) \
            and np.issubdtype(grad.dtype, np.floating):
        wide = np.asarray(grad, dtype=np.float64)
        flushed = (out == 0.0) & (wide != 0.0)
        if np.any(flushed):
            tiny = np.finfo(out.dtype).smallest_subnormal
            out = np.where(flushed,
                           np.copysign(tiny, wide).astype(out.dtype), out)
    return out


def _default_steps(bench, state: Mapping[str, Any]) -> int:
    """Remaining iterations implied by the state's step counter."""
    default = getattr(bench, "_default_remaining_steps", None)
    if callable(default):
        return int(default(state))
    return 1


def _check_steps(bench, state: Mapping[str, Any], steps: Any) -> int:
    """The iterations a sweep analyses, checked before any forward run.

    ``None`` derives them from the state's step counter.  An explicit
    ``steps`` must be an integer >= 0 and, for a benchmark that knows its
    remaining iterations (``_default_remaining_steps``), must not overrun
    the main loop: a restart from ``state`` never runs more iterations.
    """
    if steps is None:
        return _default_steps(bench, state)
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) \
            or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, "
                         f"got {steps!r}")
    if callable(getattr(bench, "_default_remaining_steps", None)):
        remaining = _default_steps(bench, state)
        if steps > remaining:
            raise ValueError(
                f"steps={steps} overruns the main loop of "
                f"{getattr(bench, 'name', bench)!r}: {remaining} "
                f"iterations remain from this state")
    return int(steps)


def segmented_gradients(bench, state: Mapping[str, Any],
                        watch: Sequence[str] | None = None,
                        steps: int | None = None,
                        stats: SweepStats | None = None,
                        trace_cache: str = DEFAULT_TRACE_CACHE,
                        plan_cache: PlanCache | None = None,
                        plan_optimize: str | None = None
                        ) -> dict[str, np.ndarray]:
    """Gradients of the restart output w.r.t. ``watch``, one tape at a time.

    Drop-in replacement for the monolithic ``traced_restart`` + ``backward``
    pair: returns the derivative of the benchmark's scalar verification
    output (after ``steps`` more iterations) with respect to every watched
    entry of ``state``, but never materialises more than one iteration's
    tape.

    Parameters
    ----------
    bench:
        A benchmark exposing the per-iteration tracing API
        (:meth:`~repro.npb.base.NPBBenchmark.traced_step` /
        :meth:`~repro.npb.base.NPBBenchmark.traced_output`).
    state:
        Concrete checkpoint state the analysis is based on.
    watch:
        State keys to return gradients for; defaults to the benchmark's
        default watch list (every float component of every checkpoint
        variable).  Internally every float entry of the state dict is
        chained regardless, so cross-iteration dependences through
        unwatched auxiliaries are never severed.
    steps:
        Remaining iterations to analyse; ``None`` derives them from the
        state's step counter (the monolithic default).  An integer that
        overruns the main loop raises ``ValueError``.
    stats:
        Optional :class:`SweepStats` collector observing every segment tape
        (and the snapshot store's telemetry).
    trace_cache:
        ``"plan"`` (default) compiles the step to a replay plan
        (:mod:`repro.ad.plan`) once two step traces agree and replays it
        for the remaining segments -- bitwise-identical gradients; a step
        whose structure depends on the loop counter (FT, EP) is traced
        every time.  ``"off"`` traces every segment afresh.  The forward
        pass and the output segment always run the benchmark and the
        tracer.
    plan_cache:
        Optional :class:`~repro.ad.plan.PlanCache` shared across sweeps
        (the criticality analyzer shares one per analysis, so per-probe
        sweeps replay each other's plans); ``None`` uses a private cache
        for this sweep.
    plan_optimize:
        IR optimisation policy of a freshly created plan cache
        (:data:`repro.ad.passes.PLAN_OPTIMIZES`): ``"fuse"`` (default)
        fuses elementwise/unary chains, eliminates dead slots and packs
        the arena; ``"off"`` interprets every captured primitive
        unoptimised.  Ignored when ``plan_cache`` is supplied (the cache
        already fixed its policy).

    Returns
    -------
    dict mapping each watched key to its gradient array (the entry's shape,
    in the entry's declared floating dtype -- float32 state entries get
    float32 gradients).
    """
    for hook in ("traced_step", "traced_output"):
        if not callable(getattr(bench, hook, None)):
            raise TypeError(
                f"benchmark {getattr(bench, 'name', bench)!r} does not "
                f"expose {hook}(); the segmented sweep needs the "
                f"per-iteration tracing API (use sweep='monolithic')")

    state = {key: value_of(value) for key, value in state.items()}
    if watch is None:
        watch = bench.default_watch_keys() if callable(
            getattr(bench, "default_watch_keys", None)) \
            else float_state_keys(state)
    watch = list(watch)
    for key in watch:
        if key not in state:
            raise KeyError(f"cannot watch unknown state entry {key!r}")

    steps = _check_steps(bench, state, steps)
    if trace_cache not in TRACE_CACHES:
        raise ValueError(f"unknown trace_cache {trace_cache!r}; "
                         f"choose from {TRACE_CACHES}")

    # chain every float entry, not just the requested keys (see module docs)
    chain = float_state_keys(state)

    planner = cache = plan_base = None
    if trace_cache == "plan":
        cache = plan_cache if plan_cache is not None \
            else PlanCache(
                plan_optimize=plan_optimize if plan_optimize is not None
                else DEFAULT_PLAN_OPTIMIZE)
        plan_base = cache.counters()
        planner = cache.planner(bench, chain)

    schedule = make_schedule(steps)
    try:
        # -- forward pass: a snapshot at every boundary ---------------------
        # ``record`` copies every array entry, so a benchmark whose ``run``
        # mutates arrays in place cannot corrupt earlier boundaries through
        # aliasing; the initial copy also shields the caller's state.
        current = snapshot_state(state)
        schedule.record(0, current)
        for t in range(1, steps + 1):
            current = bench.run(current, 1)
            schedule.record(t, current)
        del current

        # -- output segment: trace and sweep only the final reduction -----
        last = schedule.fetch(steps)
        tape, leaves, out = bench.traced_output(last, watch=chain)
        if stats is not None:
            stats.observe(tape)
        if isinstance(out, ADArray) and out.node is not None:
            grads = backward(tape, out, [leaves[key] for key in chain],
                             strict=False)
            cotangents = dict(zip(chain, grads))
        else:
            cotangents = None
        del tape, leaves, out
        if cotangents is None:
            # the output never touched a watched input (the monolithic
            # strict=False case): every gradient is exactly zero
            cotangents = {key: np.zeros(np.shape(last[key]),
                                        dtype=gradient_dtype(state[key]))
                          for key in chain}
        del last

        # -- reverse walk: one iteration's tape (or plan replay) at a time -
        for k in range(steps - 1, -1, -1):
            boundary = schedule.fetch(k)
            if planner is not None:
                cotangents = planner.step_cotangents(boundary, cotangents,
                                                     stats=stats)
                del boundary
                continue
            tape, leaves, next_state = bench.traced_step(boundary,
                                                         watch=chain)
            if stats is not None:
                stats.observe(tape)
            seeds: list[tuple[ADArray, np.ndarray]] = []
            for key in chain:
                produced = next_state.get(key)
                if isinstance(produced, ADArray) and produced.node is not None:
                    seeds.append((produced, cotangents[key]))
                # a next-state entry that is a plain constant does not depend
                # on this segment's inputs; its cotangent dies here, exactly
                # as it would on the monolithic tape
            grads = backward_from_seeds(tape, seeds,
                                        [leaves[key] for key in chain])
            cotangents = dict(zip(chain, grads))
            del tape, leaves, next_state, boundary
    finally:
        if stats is not None:
            stats.observe_schedule(schedule)
            stats.trace_cache = trace_cache
            if cache is not None:
                stats.observe_plan(cache, since=plan_base)
        schedule.close()

    # each gradient reports in its entry's declared floating dtype: casting
    # everything to float64 would silently upcast float32 variables (the
    # drift class _perturb_state guards against on the probing side)
    return {key: cast_gradient(cotangents[key], gradient_dtype(state[key]))
            if key in cotangents
            else np.zeros(np.shape(state[key]),
                          dtype=gradient_dtype(state[key]))
            for key in watch}
