"""Segmented reverse sweep: bound tape memory to a single iteration.

Tracing every primitive of *all* remaining main-loop iterations on one tape
(:meth:`repro.npb.base.NPBBenchmark.traced_restart` +
:func:`repro.ad.reverse.backward`) makes peak tape memory grow linearly
with the number of remaining steps.  That linear growth is what caps the
analysable problem sizes.

This module implements the standard fix -- checkpointing the reverse sweep at
iteration granularity (Griewank's *revolve* idea, at its simplest schedule):

1. run the first ``steps - tail`` iterations **forward on concrete numpy
   state**, keeping the state at every iteration boundary by reference;
2. trace the output segment -- the last ``tail`` iterations together with
   the final output reduction (``traced_restart(..., steps=tail)``) -- and
   sweep it, producing the cotangent of every state entry of its boundary;
3. walk the boundaries backwards: re-trace *one* iteration, seed the traced
   next-state entries with the chained cotangents
   (:func:`chain_cotangents`), sweep, and free the tape before tracing the
   previous iteration.

With ``tail = 0`` (the segmented sweep) peak tape memory is O(1 iteration)
instead of O(remaining steps).  With ``tail = steps`` (the monolithic
sweep) the output segment is the whole run: nothing runs forward
concretely, no step is walked back and one tape is swept.  The boundaries
are held by a :class:`repro.ad.schedule.SnapshotSchedule`, which keeps every
one in memory, uncopied: ``run`` steps from read-only views, so an array an
iteration passes through unchanged is resident once however many boundaries
share it, and at most O(steps x state) in all -- for the NPB kernels one
state is smaller than one iteration's tape.

One driver, three sweeps
------------------------
That walk is written once, in the private ``_segmented_sweep`` driver;
:func:`segmented_gradients`,
:func:`repro.ad.probes.segmented_batched_gradients` (one schedule per
probe, boundaries stacked along a leading probe axis) and
:func:`repro.ad.activity.segmented_read_masks` are short entry points over
it, and each takes ``tail``.  A sweep kind is a small ``_Walk``: how the
output segment seeds the carry and how a traced step chains it
(:func:`chain_cotangents` here, :func:`~repro.ad.activity.chain_step_masks`
for read/moved masks).  Only the two gradient sweeps replay compiled step
plans (:mod:`repro.ad.plan`); the activity sweep traces every segment.

Bitwise equivalence
-------------------
Every ``tail`` gives the same gradients **bit for bit**, not just
approximately:

* the concrete forward values at every boundary equal the traced forward
  values (the ops compute with the same numpy calls either way);
* the tape is append-only and swept in strictly decreasing node order, so
  all cotangent contributions from later iterations accumulate into a
  boundary value *before* any same-iteration contribution -- which is
  exactly the order in which the segmented sweep applies them: the chained
  seed first, then the segment's own contributions;
* seeds are injected by buffer copy and in-place addition, the same float
  operations a single tape's sweep performs.

``tests/ad/test_segmented.py`` pins the bitwise identity of both the
gradients and the criticality masks for all eight NPB ports, at
``tail = 0``, ``steps // 2`` and ``steps``.

Across a segment boundary every floating-point entry of the state dict is
chained -- not only the keys the caller asked for -- because a dependence
may flow through an auxiliary float entry (e.g. LU's recomputed ``rho_i``)
even when that entry itself is not under analysis.  Integer entries advance
concretely, exactly as on one tape.  A one-segment walk has no boundary to
chain across, so it watches only the requested keys.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .plan import (DEFAULT_PLAN_OPTIMIZE, DEFAULT_TRACE_CACHE, TRACE_CACHES,
                   PlanCache)
from .reverse import backward, backward_from_seeds
from .schedule import SnapshotSchedule, make_schedule
from .tape import Tape, read_only_view
from .tensor import ADArray, value_of

__all__ = ["SweepStats", "float_state_keys", "gradient_dtype",
           "cast_gradient", "chain_cotangents", "segmented_gradients"]


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
    #: segments traced by a segmented activity (read-set) sweep
    activity_segments: int = 0
    #: largest resident read/moved mask payload of an activity sweep (bytes)
    activity_peak_mask_nbytes: int = 0

    def observe(self, tape: Tape) -> None:
        """Record one tape's size before it is freed."""
        self.observe_plan_segment(len(tape), tape.nbytes())

    def observe_plan_segment(self, n_slots: int, nbytes: int) -> None:
        """Record one segment of ``n_slots`` nodes and ``nbytes`` buffers.

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

    def observe_activity(self, segments: int,
                         masks: Mapping[str, Any]) -> None:
        """Fold one segmented activity sweep's telemetry in.

        It traced ``segments`` tapes; ``masks`` is the walk's fixed
        resident payload.
        """
        self.activity_segments += segments
        self.activity_peak_mask_nbytes = max(
            self.activity_peak_mask_nbytes,
            sum(res.read.nbytes + res.moved.nbytes for res in masks.values()))

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


def chain_cotangents(tape: Tape, leaves: Mapping[str, ADArray],
                     next_state: Mapping[str, Any], chain: Sequence[str],
                     cotangents: Mapping[str, np.ndarray]
                     ) -> dict[str, np.ndarray]:
    """Chain the next boundary's cotangents back through one traced step.

    The gradient twin of :func:`repro.ad.activity.chain_step_masks`: every
    traced next-state entry is seeded with its cotangent and one
    :func:`~repro.ad.reverse.backward_from_seeds` sweep returns the
    cotangent of every chain key at this step's boundary.  A next-state
    entry that is a plain constant does not depend on the step's inputs;
    its cotangent dies here, exactly as it would on the monolithic tape.
    """
    seeds: list[tuple[ADArray, np.ndarray]] = []
    for key in chain:
        produced = next_state.get(key)
        if isinstance(produced, ADArray) and produced.node is not None:
            seeds.append((produced, cotangents[key]))
    grads = backward_from_seeds(tape, seeds, [leaves[key] for key in chain])
    return dict(zip(chain, grads))


def _require_hooks(bench, hooks: Sequence[str], batched: bool) -> None:
    """Refuse, before any forward run, a benchmark missing a tracing hook."""
    for hook in hooks:
        if callable(getattr(bench, hook, None)):
            continue
        missing = (f"benchmark {getattr(bench, 'name', bench)!r} does not "
                   f"expose {hook}()")
        if batched:
            from .probes import ProbeBatchingError
            raise ProbeBatchingError(
                f"{missing}; the batched probe sweep needs the probe-tracing "
                f"API (CriticalityAnalyzer falls back to one sweep per "
                f"probe)")
        if hook == "traced_restart":
            raise TypeError(f"{missing}; every sweep traces its output "
                            f"segment with it")
        raise TypeError(
            f"{missing}; a sweep over per-iteration segments needs the "
            f"per-iteration tracing API (use sweep='monolithic')")


def _check_tail(tail: Any, steps: int) -> int:
    """The iterations the output segment traces: ``None`` means all."""
    if tail is None:
        return steps
    if isinstance(tail, bool) or not isinstance(tail, numbers.Integral) \
            or not 0 <= tail <= steps:
        raise ValueError(f"tail must be an integer in [0, steps={steps}], "
                         f"got {tail!r}")
    return int(tail)


def _run_step(bench, state: Mapping[str, Any]) -> dict[str, Any]:
    """One concrete iteration from a boundary the sweep keeps.

    ``run`` gets read-only views, so one that writes into its input fails
    before anything is written instead of corrupting the boundary.
    """
    try:
        return bench.run({key: read_only_view(val)
                          if isinstance(val, np.ndarray) else val
                          for key, val in state.items()}, 1)
    except ValueError as exc:
        if "read-only" not in str(exc):
            raise
        raise ValueError(
            f"benchmark {getattr(bench, 'name', bench)!r}: run() wrote into "
            f"the state it was handed ({exc}); the sweeps keep every "
            f"boundary by reference, so run() must return new arrays "
            f"instead of updating its input in place") from exc


class _Walk(NamedTuple):
    """What one kind of segmented sweep carries backwards, and how.

    ``seed(tape, leaves, out, chain)`` makes the last boundary's carry from
    the traced output segment; ``chain(tape, leaves, next_state, chain,
    carry)`` moves it back through one traced step.  ``observe(stats,
    segments, carry)``, if set, folds the kind's telemetry in at the end.
    A compiled step replays only cotangents
    (:meth:`~repro.ad.plan.CompiledPlan.replay_step`).
    """

    seed: Callable[..., Any]
    chain: Callable[..., Any]
    observe: Callable[..., None] | None = None


def _seed_cotangents(tape: Tape, leaves: Mapping[str, ADArray], out: Any,
                     chain: Sequence[str]) -> dict[str, np.ndarray]:
    """Cotangents of the last boundary: the output segment's sweep.

    An output that never touched a chained input (the monolithic
    ``strict=False`` case) gives exact float64 zeros, as it would there.
    """
    grads = backward(tape, out, [leaves[key] for key in chain], strict=False)
    return dict(zip(chain, grads))


_GRADIENTS = _Walk(_seed_cotangents, chain_cotangents)


def _segmented_sweep(bench, states: Sequence[Mapping[str, Any]],
                     watch: Sequence[str] | None, steps: Any, tail: Any,
                     stats: SweepStats | None, trace_cache: str,
                     plan_cache: PlanCache | None, plan_optimize: str | None,
                     walk: _Walk, n_probes: int | None = None
                     ) -> tuple[list[str], dict[str, Any], dict[str, Any]]:
    """The segmented walk (module docs) behind every sweep.

    ``states`` holds one state per probe, base first.  ``n_probes=None``
    sweeps ``states[0]`` through the plain hooks; an integer sweeps through
    the ``*_probes`` hooks with boundaries stacked along a probe axis.  The
    output segment traces the last ``tail`` iterations (``None``: all of
    them, one segment).  ``trace_cache="plan"`` replays compiled steps;
    only the gradient walks ask for it.  Returns the resolved watch list,
    the base state and boundary 0's carry.
    """
    states = [{key: value_of(value) for key, value in state.items()}
              for state in states]
    base = states[0]
    if watch is None:
        watch = bench.default_watch_keys() if callable(
            getattr(bench, "default_watch_keys", None)) \
            else float_state_keys(base)
    watch = list(watch)
    for key in watch:
        if key not in base:
            raise KeyError(f"cannot watch unknown state entry {key!r}")

    steps = _check_steps(bench, base, steps)
    tail = _check_tail(tail, steps)
    if trace_cache not in TRACE_CACHES:
        raise ValueError(f"unknown trace_cache {trace_cache!r}; "
                         f"choose from {TRACE_CACHES}")
    # the iterations run concretely and walked back one tape at a time
    head = steps - tail

    if n_probes is None:
        restart_hook, step_hook, probe = "traced_restart", "traced_step", ()
    else:
        from .probes import stack_states
        restart_hook, step_hook, probe = ("traced_restart_probes",
                                          "traced_step_probes", (n_probes,))
    _require_hooks(bench, ((step_hook, "run") if head else ())
                   + (restart_hook,), batched=n_probes is not None)

    def trace_step(state, watch):
        return getattr(bench, step_hook)(state, *probe, watch=watch)

    # across a boundary chain every float entry, not just the requested
    # keys (see module docs); one segment has no boundary to chain across
    chain = float_state_keys(base) if head else watch

    planner = cache = plan_base = None
    if trace_cache == "plan" and head:
        cache = plan_cache if plan_cache is not None else PlanCache(
            DEFAULT_PLAN_OPTIMIZE if plan_optimize is None else plan_optimize)
        plan_base = cache.counters()
        planner = cache.planner(bench, chain, n_probes, trace_step)

    # one schedule per probe; a batched boundary is stacked on fetch
    schedules = [make_schedule(head) for _ in states]

    def boundary(k: int) -> dict[str, Any]:
        per_probe = [schedule.fetch(k) for schedule in schedules]
        return per_probe[0] if n_probes is None \
            else stack_states(per_probe, chain)

    try:
        # -- forward pass: a snapshot at every boundary ---------------------
        # every boundary is kept by reference, boundary 0 being the
        # caller's state; ``run`` steps from read-only views of it, so an
        # array a step passes through is shared by every later boundary
        # and a ``run`` that writes into its input raises before writing.
        # The concrete forward is recording-free numpy, run per probe.
        for schedule, state in zip(schedules, states):
            schedule.record(0, state)
            for t in range(1, head + 1):
                state = _run_step(bench, state)
                schedule.record(t, state)
            del state

        # -- output segment: the last ``tail`` iterations and the output --
        tape, leaves, out = getattr(bench, restart_hook)(
            boundary(head), *probe, watch=chain, steps=tail)
        if stats is not None:
            stats.observe(tape)
        carry = walk.seed(tape, leaves, out, chain)
        del tape, leaves, out

        # -- reverse walk: one iteration's tape (or plan replay) at a time -
        for k in range(head - 1, -1, -1):
            state = boundary(k)
            if planner is not None:
                carry = planner.step(state, carry, walk.chain,
                                     stats=stats)
            else:
                tape, leaves, next_state = trace_step(state, watch=chain)
                if stats is not None:
                    stats.observe(tape)
                carry = walk.chain(tape, leaves, next_state, chain, carry)
                del tape, leaves, next_state
            del state

        if stats is not None and walk.observe is not None:
            walk.observe(stats, head + 1, carry)
    finally:
        if stats is not None:
            stats.observe_schedule(*schedules)
            stats.trace_cache = trace_cache
            if cache is not None:
                stats.observe_plan(cache, since=plan_base)
        for schedule in schedules:
            schedule.close()
    return watch, base, carry


def segmented_gradients(bench, state: Mapping[str, Any],
                        watch: Sequence[str] | None = None,
                        steps: int | None = None,
                        stats: SweepStats | None = None,
                        trace_cache: str = DEFAULT_TRACE_CACHE,
                        plan_cache: PlanCache | None = None,
                        plan_optimize: str | None = None,
                        tail: int | None = 0
                        ) -> dict[str, np.ndarray]:
    """Gradients of the restart output w.r.t. ``watch``, one tape at a time.

    Returns the derivative of the benchmark's scalar verification output
    (after ``steps`` more iterations) with respect to every watched entry
    of ``state`` -- bitwise what ``traced_restart`` + ``backward`` give --
    but by default never materialises more than one iteration's tape.

    Parameters
    ----------
    bench:
        A benchmark exposing
        :meth:`~repro.npb.base.NPBBenchmark.traced_restart` and, unless
        ``tail`` covers every step, the per-iteration tracing API
        (:meth:`~repro.npb.base.NPBBenchmark.traced_step` and ``run``).
    state:
        Concrete checkpoint state the analysis is based on.
    watch:
        State keys to return gradients for; defaults to the benchmark's
        default watch list (every float component of every checkpoint
        variable).  Across a segment boundary every float entry of the
        state dict is chained regardless, so cross-iteration dependences
        through unwatched auxiliaries are never severed.
    steps:
        Remaining iterations to analyse; ``None`` derives them from the
        state's step counter.  An integer that overruns the main loop
        raises ``ValueError``.
    stats:
        Optional :class:`SweepStats` collector observing every segment tape
        (and the snapshot store's telemetry).
    trace_cache:
        ``"plan"`` (default) replays a compiled step plan
        (:mod:`repro.ad.plan`) once two step traces agree -- bitwise-
        identical gradients; a step whose structure depends on the loop
        counter (FT, EP) is traced every time.  ``"off"`` traces every
        segment, as a test oracle.
    plan_cache:
        Optional :class:`~repro.ad.plan.PlanCache` shared across sweeps
        (the analyzer shares one per analysis); ``None`` uses a private one.
    plan_optimize:
        IR policy (:data:`repro.ad.passes.PLAN_OPTIMIZES`) of that private
        cache: ``"fuse"`` (default) or the unoptimised ``"off"`` oracle.
    tail:
        Trailing iterations the output segment traces on one tape together
        with the output reduction: ``0`` (default) traces only the
        reduction, ``None`` every step (the monolithic sweep: one tape, no
        concrete forward, no plan).

    Returns
    -------
    dict mapping each watched key to its gradient array (the entry's shape,
    in the entry's declared floating dtype -- float32 state entries get
    float32 gradients).
    """
    watch, base, cotangents = _segmented_sweep(
        bench, [state], watch, steps, tail, stats, trace_cache, plan_cache,
        plan_optimize, _GRADIENTS)
    return _declared_gradients(cotangents, watch, base)


def _declared_gradients(cotangents: Mapping[str, np.ndarray],
                        watch: Sequence[str], base: Mapping[str, Any],
                        lead: tuple[int, ...] = ()) -> dict[str, np.ndarray]:
    """Each watched gradient in its entry's declared dtype (never a silent
    float64 upcast of a float32 variable); unchained entries get zeros."""
    return {key: cast_gradient(cotangents[key], gradient_dtype(base[key]))
            if key in cotangents
            else np.zeros(lead + np.shape(base[key]),
                          dtype=gradient_dtype(base[key]))
            for key in watch}
