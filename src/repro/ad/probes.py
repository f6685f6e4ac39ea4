"""Batched multi-probe sweeps: all probe gradients from a single trace.

The criticality analysis guards against coincidental zero derivatives by
probing the derivative at several perturbed base states and OR-ing the
nonzero masks (``CriticalityAnalyzer(n_probes=...)``).  Executed naively,
``n_probes`` probes cost ``n_probes`` full traced forward runs and reverse
sweeps -- the recording overhead (the expensive, Python-level part of the
tape engine) is paid once per probe even though every probe records the
*same* primitives on slightly different values.

This module amortises that overhead with a **batched probe axis**, in the
spirit of vectorised-trace engines such as ``udiff``'s diff-array container:

1. the base state and all perturbed states are stacked along a new leading
   ``probe`` axis (:func:`stack_states`);
2. **one** traced forward run executes with the probe axis active
   (:func:`probe_axis`); every primitive in :mod:`repro.ad.ops` consults the
   active probe context and broadcasts over the leading axis -- elementwise
   operations are free, while reductions, shape manipulation, indexing and
   ``matmul`` shift their axis/index semantics so the probe axis is never
   reduced, reshaped away or indexed into;
3. **one** reverse sweep propagates cotangent buffers that carry the probe
   axis, yielding the gradients of *all* probes at once.  Probe slices never
   interact (no adjusted primitive mixes data across the leading axis), so
   seeding the batched scalar output with ones is exactly the per-probe
   gradient stack.

Both sweep strategies are supported: :func:`batched_gradients` is the
batched counterpart of ``traced_restart`` + ``backward`` (monolithic tape),
:func:`segmented_batched_gradients` the counterpart of
:func:`repro.ad.segmented.segmented_gradients` -- it snapshots *batched*
boundary states and re-traces one iteration at a time, so peak tape memory
stays O(1 iteration) regardless of the probe count.

Benchmarks whose kernels cannot broadcast over a leading axis (data-
dependent control flow on traced scalars, shape introspection that does not
go through :func:`repro.ad.ops.logical_shape`, ...) raise -- typically a
:class:`ProbeBatchingError` or a numpy shape error -- and the criticality
analyzer falls back to the per-probe loop automatically.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .plan import DEFAULT_TRACE_CACHE, TRACE_CACHES, PlanCache
from .reverse import backward, backward_from_seeds
from .schedule import make_schedule, snapshot_state
from .segmented import (SweepStats, _check_steps, cast_gradient,
                        float_state_keys, gradient_dtype)
from .tensor import ADArray, value_of

__all__ = [
    "ProbeBatchingError",
    "probe_axis",
    "probe_axis_size",
    "stack_states",
    "batched_gradients",
    "segmented_batched_gradients",
]


class ProbeBatchingError(RuntimeError):
    """A primitive (or benchmark) cannot broadcast over the probe axis.

    Raised during batched tracing when an operation would break the
    leading-probe-axis invariant; callers treat it as "use the per-probe
    path instead", never as data corruption.
    """


class _ProbeState(threading.local):
    """Thread-local probe-batch context (``None`` = inactive)."""

    def __init__(self) -> None:
        self.size: int | None = None


_PROBE = _ProbeState()


def probe_axis_size() -> int | None:
    """Size of the active probe axis, or ``None`` outside batched tracing."""
    return _PROBE.size


@contextmanager
def probe_axis(n: int) -> Iterator[None]:
    """Activate probe-batched semantics for all traced primitives.

    While active, every traced array is understood to carry a leading probe
    axis of length ``n``; the primitives in :mod:`repro.ad.ops` adjust their
    axis/index handling so the probe axis is preserved end to end.  Contexts
    do not nest: the probe axis is a property of one whole trace.
    """
    n = int(n)
    if n < 1:
        raise ValueError("probe axis size must be at least 1")
    if _PROBE.size is not None:
        raise ProbeBatchingError("probe-batched traces cannot nest")
    _PROBE.size = n
    try:
        yield
    finally:
        _PROBE.size = None


def stack_states(states: Sequence[Mapping[str, Any]],
                 keys: Sequence[str]) -> dict[str, Any]:
    """Stack ``keys`` of several state dicts along a new leading probe axis.

    Returns a copy of ``states[0]`` whose ``keys`` entries are replaced by
    ``(n_probes,) + shape`` float64 stacks; all other entries (integer
    counters, unperturbed auxiliaries) are shared from the base state,
    exactly as the per-probe path shares them.  The float64 cast mirrors
    :meth:`repro.ad.tape.Tape.watch`, which casts every watched leaf to
    float64 in the per-probe path too -- both strategies trace identical
    float64 values regardless of the state's declared dtypes (the dtype
    preservation in ``_perturb_state`` matters for the *concrete* forward
    runs and the stored state, not for the traced leaves).
    """
    if not states:
        raise ValueError("need at least one probe state")
    stacked = dict(states[0])
    for key in keys:
        parts = []
        for state in states:
            if key not in state:
                raise KeyError(f"probe state is missing entry {key!r}")
            parts.append(np.asarray(value_of(state[key]), dtype=np.float64))
        stacked[key] = np.stack(parts)
    return stacked


def _require_hooks(bench, hooks: Sequence[str]) -> None:
    for hook in hooks:
        if not callable(getattr(bench, hook, None)):
            raise ProbeBatchingError(
                f"benchmark {getattr(bench, 'name', bench)!r} does not "
                f"expose {hook}(); the batched probe sweep needs the "
                f"probe-tracing API (use probe_batching='per-probe')")


def batched_gradients(bench, states: Sequence[Mapping[str, Any]],
                      watch: Sequence[str] | None = None,
                      steps: int | None = None,
                      stats: SweepStats | None = None
                      ) -> dict[str, np.ndarray]:
    """All probes' gradients from one monolithic trace and one sweep.

    Batched counterpart of ``bench.traced_restart`` + ``backward``: the
    states in ``states`` (base state first, perturbed probes after) are
    stacked along a leading probe axis, the remaining computation is traced
    once, and a single reverse sweep returns, for every watched key, the
    stacked gradient array of shape ``(len(states),) + entry_shape`` --
    slice ``[p]`` is bitwise what a separate sweep over ``states[p]`` would
    produce for every primitive whose batched numpy kernel matches its
    unbatched one (all elementwise operations; the NPB kernels' matmul
    shapes are pinned equivalent by ``tests/ad/test_probes.py``).

    Parameters
    ----------
    bench:
        Benchmark exposing ``traced_restart_probes`` (see
        :class:`repro.npb.base.NPBBenchmark`).
    states:
        One concrete state dict per probe; unwatched entries are taken from
        ``states[0]``.
    watch:
        State keys to differentiate; defaults to the benchmark's default
        watch list.
    steps:
        Remaining iterations to analyse (``None`` = the state's default).
    stats:
        Optional :class:`~repro.ad.segmented.SweepStats` observing the tape.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one probe state")
    _require_hooks(bench, ("traced_restart_probes",))
    tape, leaves, out = bench.traced_restart_probes(states, watch=watch,
                                                    steps=steps)
    if stats is not None:
        stats.observe(tape)
    keys = list(leaves)
    grads = backward(tape, out, [leaves[key] for key in keys], strict=False)
    # same dtype contract as the segmented sweeps: report each gradient in
    # its state entry's declared floating dtype
    return {key: cast_gradient(g, gradient_dtype(states[0][key]))
            for key, g in zip(keys, grads)}


def segmented_batched_gradients(bench, states: Sequence[Mapping[str, Any]],
                                watch: Sequence[str] | None = None,
                                steps: int | None = None,
                                stats: SweepStats | None = None,
                                trace_cache: str = DEFAULT_TRACE_CACHE,
                                plan_cache: PlanCache | None = None
                                ) -> dict[str, np.ndarray]:
    """All probes' gradients, one *batched* iteration tape at a time.

    Batched counterpart of :func:`repro.ad.segmented.segmented_gradients`:
    the concrete forward runs per probe (cheap, recording-free numpy),
    boundary snapshots are stacked along the probe axis, and each segment is
    re-traced and swept exactly once with batched cotangent buffers.  Peak
    tape memory stays bounded by one iteration's (batched) tape no matter
    how many probes are carried.

    Boundary snapshots are held by one
    :class:`~repro.ad.schedule.SnapshotSchedule` per probe, which keeps
    every boundary.

    Returns a dict mapping each watched key to its stacked gradient array of
    shape ``(len(states),) + entry_shape`` in the entry's declared floating
    dtype.

    ``trace_cache="plan"`` (the default) compiles the batched step to a
    replay plan (:mod:`repro.ad.plan`) once two step traces agree and
    replays further segments without tracing; the forward runs and the
    output segment are never planned.  Gradients are bitwise-identical
    either way.
    """
    states = [{key: value_of(val) for key, val in state.items()}
              for state in states]
    if not states:
        raise ValueError("need at least one probe state")
    _require_hooks(bench, ("traced_step_probes", "traced_output_probes",
                           "run"))
    if trace_cache not in TRACE_CACHES:
        raise ValueError(f"unknown trace_cache {trace_cache!r}; "
                         f"choose from {TRACE_CACHES}")
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
    n_probes = len(states)

    # chain every float entry, not just the requested keys (a dependence may
    # flow through an unwatched auxiliary -- see repro.ad.segmented)
    chain = float_state_keys(base)

    planner = cache = plan_base = None
    if trace_cache == "plan":
        cache = plan_cache if plan_cache is not None else PlanCache()
        plan_base = cache.counters()
        planner = cache.planner(bench, chain, n_probes=n_probes)

    # one schedule per probe: the per-probe boundary states are what the
    # schedules store; stacking happens on fetch
    schedules = [make_schedule(steps) for _ in states]
    try:
        # -- forward pass: concrete per-probe runs, stored ----------------
        # snapshots (real copies, so an in-place-mutating ``run`` cannot
        # corrupt earlier boundaries).  The concrete forward is recording-
        # free numpy; the batching win is in the traced segments below,
        # where the per-primitive recording overhead is paid once instead
        # of once per probe.
        for schedule, probe_state in zip(schedules, states):
            current = snapshot_state(probe_state)
            schedule.record(0, current)
            for t in range(1, steps + 1):
                current = bench.run(current, 1)
                schedule.record(t, current)
            del current

        def stacked_boundary(k: int) -> dict[str, Any]:
            per_probe = [schedule.fetch(k) for schedule in schedules]
            boundary = dict(per_probe[0])
            for key in chain:
                boundary[key] = np.stack(
                    [np.asarray(bounds[key], dtype=np.float64)
                     for bounds in per_probe])
            return boundary

        # -- output segment ------------------------------------------------
        last = stacked_boundary(steps)
        tape, leaves, out = bench.traced_output_probes(last, n_probes,
                                                       watch=chain)
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
            cotangents = {key: np.zeros(np.shape(last[key]),
                                        dtype=gradient_dtype(base[key]))
                          for key in chain}
        del last

        # -- reverse walk: one batched iteration tape at a time ------------
        for k in range(steps - 1, -1, -1):
            boundary = stacked_boundary(k)
            if planner is not None:
                cotangents = planner.step_cotangents(boundary, cotangents,
                                                     stats=stats)
                del boundary
                continue
            tape, leaves, next_state = bench.traced_step_probes(
                boundary, n_probes, watch=chain)
            if stats is not None:
                stats.observe(tape)
            seeds: list[tuple[ADArray, np.ndarray]] = []
            for key in chain:
                produced = next_state.get(key)
                if isinstance(produced, ADArray) and produced.node is not None:
                    seeds.append((produced, cotangents[key]))
            grads = backward_from_seeds(tape, seeds,
                                        [leaves[key] for key in chain])
            cotangents = dict(zip(chain, grads))
            del tape, leaves, next_state, boundary
    finally:
        if stats is not None:
            stats.observe_schedule(*schedules)
            stats.trace_cache = trace_cache
            if cache is not None:
                stats.observe_plan(cache, since=plan_base)
        for schedule in schedules:
            schedule.close()

    # preserve each entry's declared floating dtype (no silent float64
    # upcast of float32 variables -- see repro.ad.segmented)
    return {key: cast_gradient(cotangents[key], gradient_dtype(base[key]))
            if key in cotangents
            else np.zeros((n_probes,) + np.shape(base[key]),
                          dtype=gradient_dtype(base[key]))
            for key in watch}
