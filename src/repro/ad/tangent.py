"""Forward-mode (JVP) tangent sweep over the NPB restart computation.

The third production engine next to the monolithic reverse sweep
(:func:`repro.npb.base.NPBBenchmark.traced_restart` + ``backward``) and the
segmented reverse sweep (:func:`repro.ad.segmented.segmented_gradients`).
Every probe of the criticality analysis is a directional derivative, and a
directional derivative needs *no tape at all*: the benchmark's own ``run``
loop is executed on :class:`~repro.ad.dual.TangentArray` state, which pushes
a *stacked tangent axis* -- one slice per direction -- forward through the
primitive library.  Peak memory is a single (value, tangent) state,
independent of how many loop iterations are differentiated through; no
segmentation, boundary snapshot or replay plan is involved.

Cost model versus the reverse sweeps: one forward pass carries up to
``max_directions`` directions at ``O(n_directions)`` state memory, and the
full gradient of a scalar output with respect to ``D`` watched elements
needs ``ceil(D / max_directions)`` passes -- forward mode pays per *input*
element where reverse mode pays per *loop iteration* of tape.  The
crossover is measured in ``benchmarks/test_tangent_sweep.py``.

The gradients agree with the reverse sweeps on the criticality criterion:
both modes share the primitive rule tables of :mod:`repro.ad.ops`, so
structural zeros (the "uncritical" pattern) are produced by the same
conventions and the resulting masks match bitwise (pinned for all eight NPB
ports in ``tests/ad/test_tangent.py``).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .dual import TangentArray
from .segmented import (SweepStats, _check_steps, cast_gradient,
                        float_state_keys, gradient_dtype)
from .tensor import value_of

__all__ = ["tangent_gradients"]


def _tangent_state_nbytes(state: Mapping[str, Any]) -> int:
    """Resident payload of a tangent-mode state dict (values + tangents)."""
    total = 0
    for value in state.values():
        if isinstance(value, TangentArray):
            total += value.value.nbytes + value.tangent.nbytes
        else:
            total += np.asarray(value_of(value)).nbytes
    return total


def tangent_gradients(bench, state: Mapping[str, Any],
                      watch: Sequence[str] | None = None,
                      steps: int | None = None,
                      stats: SweepStats | None = None,
                      max_directions: int | None = None
                      ) -> dict[str, np.ndarray]:
    """Gradients of the restart output w.r.t. ``watch``, without any tape.

    Drop-in replacement for ``segmented_gradients`` built on forward mode:
    returns the derivative of the benchmark's scalar verification output
    (after ``steps`` more iterations) with respect to every watched entry
    of ``state``, computed by seeding one identity tangent direction per
    watched element and running the benchmark's plain ``run`` loop on
    stacked-tangent state.  Nothing is ever recorded on a tape.

    Parameters
    ----------
    bench:
        A benchmark exposing the concrete restart API (``run(state, n)``
        advancing a state dict and ``output(state)`` reducing it to the
        scalar verification quantity) -- the base NPB surface, no tracing
        hooks required.
    state:
        Concrete checkpoint state the analysis is based on.
    watch:
        State keys to return gradients for; defaults to the benchmark's
        default watch list (every float component of every checkpoint
        variable).
    steps:
        Remaining iterations to analyse; ``None`` derives them from the
        state's step counter (the monolithic default).  An integer that
        overruns the main loop raises ``ValueError``.
    stats:
        Optional :class:`SweepStats` collector; each forward pass reports
        its direction count and peak resident state payload through
        :meth:`SweepStats.observe_tangent`.
    max_directions:
        Upper bound on the directions stacked into one forward pass
        (``None`` = all watched elements in a single pass).  Tangent memory
        scales linearly with the stack width, so capping it trades passes
        for peak footprint; every chunking produces bitwise-identical
        gradients (the stacked axis never mixes directions).

    Returns
    -------
    dict mapping each watched key to its gradient array (the entry's shape,
    in the entry's declared floating dtype -- float32 state entries get
    float32 gradients).
    """
    for hook in ("run", "output"):
        if not callable(getattr(bench, hook, None)):
            raise TypeError(
                f"benchmark {getattr(bench, 'name', bench)!r} does not "
                f"expose {hook}(); the tangent sweep needs the concrete "
                f"restart API (run/output)")

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

    # Watched primals get the Tape.watch cast (float64 working precision,
    # fresh copy) so every data-dependent branch and tie mask sees exactly
    # the values the reverse sweep's watched leaves see.
    primals = {key: np.array(state[key], dtype=np.float64, copy=True)
               for key in watch}
    offsets: dict[str, int] = {}
    total = 0
    for key in watch:
        offsets[key] = total
        total += primals[key].size

    flat_grads = {key: np.zeros(primals[key].size, dtype=np.float64)
                  for key in watch}
    if max_directions is None or max_directions >= total:
        max_directions = max(total, 1)
    if max_directions < 1:
        raise ValueError("max_directions must be positive")

    for start in range(0, total, max_directions):
        nc = min(max_directions, total - start)
        current = dict(state)
        for key in watch:
            p = primals[key]
            tangent = np.zeros((nc,) + p.shape, dtype=np.float64)
            lo = max(start, offsets[key])
            hi = min(start + nc, offsets[key] + p.size)
            if lo < hi:
                rows = np.arange(lo - start, hi - start)
                cols = np.arange(lo - offsets[key], hi - offsets[key])
                tangent.reshape(nc, -1)[rows, cols] = 1.0
            current[key] = TangentArray(np.array(p, copy=True), tangent)
        peak = _tangent_state_nbytes(current)
        for _ in range(steps):
            current = bench.run(current, 1)
            peak = max(peak, _tangent_state_nbytes(current))
        out = bench.output(current)
        if isinstance(out, TangentArray):
            if out.shape != ():
                raise ValueError(
                    f"tangent sweep expects a scalar output; got output "
                    f"shape {out.shape}")
            chunk = np.asarray(out.tangent, dtype=np.float64).reshape(nc)
        else:
            # the output never touched a tangent entry: all-zero derivative
            chunk = np.zeros(nc, dtype=np.float64)
        for key in watch:
            lo = max(start, offsets[key])
            hi = min(start + nc, offsets[key] + primals[key].size)
            if lo < hi:
                flat_grads[key][lo - offsets[key]:hi - offsets[key]] = \
                    chunk[lo - start:hi - start]
        if stats is not None:
            stats.observe_tangent(nc, peak)

    return {key: cast_gradient(
                flat_grads[key].reshape(np.shape(state[key])),
                gradient_dtype(state[key]))
            for key in watch}

