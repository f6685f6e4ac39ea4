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

:func:`segmented_batched_gradients` is the batched counterpart of
:func:`repro.ad.segmented.segmented_gradients`, run by the same driver
with every boundary stacked along the probe axis: with ``tail=0`` peak
tape memory stays O(1 iteration) regardless of the probe count, and with
``tail=None`` (the monolithic sweep) the one output segment traces every
remaining iteration of the stacked state.

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

from .plan import DEFAULT_TRACE_CACHE, PlanCache
from .segmented import (_GRADIENTS, SweepStats, _declared_gradients,
                        _segmented_sweep)
from .tensor import value_of

__all__ = [
    "ProbeBatchingError",
    "probe_axis",
    "probe_axis_size",
    "stack_states",
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


def segmented_batched_gradients(bench, states: Sequence[Mapping[str, Any]],
                                watch: Sequence[str] | None = None,
                                steps: int | None = None,
                                stats: SweepStats | None = None,
                                trace_cache: str = DEFAULT_TRACE_CACHE,
                                plan_cache: PlanCache | None = None,
                                tail: int | None = 0
                                ) -> dict[str, np.ndarray]:
    """All probes' gradients, one *batched* iteration tape at a time.

    Batched counterpart of :func:`repro.ad.segmented.segmented_gradients`,
    run by the same driver: the concrete forward runs per probe (one
    snapshot store each), each boundary is stacked along the probe axis on
    fetch, and each segment is traced (or plan-replayed) once with batched
    cotangents, so peak tape memory stays one (batched) iteration whatever
    the probe count.  ``tail=None`` traces the whole remaining run of the
    stacked states on one tape instead (the monolithic sweep).  The
    probe-tracing hooks are required even for a single state (else
    :class:`ProbeBatchingError`).  Parameters mirror
    ``segmented_gradients`` (no ``plan_optimize``); gradients are
    bitwise-identical under either ``trace_cache`` and every ``tail``, and
    slice ``[p]`` is bitwise what a separate sweep over ``states[p]``
    gives (``tests/ad/test_probes.py``).

    Returns a dict mapping each watched key to its stacked gradient array of
    shape ``(len(states),) + entry_shape`` in the entry's declared floating
    dtype.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one probe state")
    watch, base, cotangents = _segmented_sweep(
        bench, states, watch, steps, tail, stats, trace_cache, plan_cache,
        None, _GRADIENTS, n_probes=len(states))
    return _declared_gradients(cotangents, watch, base, (len(states),))
