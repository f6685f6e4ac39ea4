"""Reverse sweep: propagate cotangents backwards through a recorded tape.

This module provides the low-level :func:`backward` routine (operating on an
explicit :class:`~repro.ad.tape.Tape`) and the convenience functional API
:func:`grad` / :func:`value_and_grad` used throughout the tests and the
criticality analysis.

The reverse sweep visits the tape once, from the output node down to node 0,
maintaining a dictionary of gradient buffers keyed by node index.  Memory is
bounded by the live cotangents; buffers are released (popped) as soon as a
node has been processed.  Following the engine-wide convention, a watched
input element whose gradient buffer is never touched has derivative exactly
``0.0`` -- the signal the checkpoint pruning analysis looks for.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .tape import Tape
from .tensor import ADArray, value_of

__all__ = ["backward", "backward_from_seeds", "grad", "value_and_grad",
           "gradient"]


def _run_sweep(tape: Tape, grads: dict[int, np.ndarray],
               owned: dict[int, bool], start_index: int) -> None:
    """Propagate the seeded cotangents in ``grads`` down to the leaves.

    ``grads``/``owned`` are updated in place; after the sweep they hold one
    buffer per *leaf* node that received a cotangent, with ``owned`` marking
    buffers private to this sweep (safe to hand out without copying).

    The compiled replay plans (:mod:`repro.ad.plan`) call the same
    per-primitive VJP rules (:data:`repro.ad.ops.RULES`) but keep their own
    copy of this loop -- visit order, accumulation arithmetic and the
    ownership discipline -- bit for bit; a semantic change here must be
    reflected there (the plan-vs-tracer bitwise tests in
    ``tests/ad/test_plan.py`` catch a divergence).
    """
    for index in range(start_index, -1, -1):
        if index not in grads:
            continue
        g = grads.pop(index)
        g_owned = owned.pop(index, False)
        node = tape.nodes[index]
        if not node.parents:
            # leaf: stash the final gradient (and its ownership) back so
            # inputs can read it after the sweep
            grads[index] = g
            owned[index] = g_owned
            continue
        parent_grads = node.vjp(g)
        if len(parent_grads) != len(node.parents):  # pragma: no cover - guard
            raise RuntimeError(
                f"primitive {node.op!r} returned {len(parent_grads)} "
                f"cotangents for {len(node.parents)} traced parents")
        for parent, pg in zip(node.parents, parent_grads):
            pidx = parent.index
            if pidx in grads:
                if owned.get(pidx, False):
                    grads[pidx] += pg
                else:
                    grads[pidx] = grads[pidx] + pg
                    owned[pidx] = True
            else:
                grads[pidx] = pg
                owned[pidx] = False


def _collect_results(grads: dict[int, np.ndarray], owned: dict[int, bool],
                     inputs: Sequence[ADArray]) -> list[np.ndarray]:
    """Read the leaf gradients for ``inputs`` out of a finished sweep.

    Buffers that are not owned by the sweep may alias arrays captured by vjp
    closures (a primitive's saved operand, or a view of the caller's seed),
    so the caller mutating a returned gradient could corrupt a later sweep
    over the same tape; such buffers are defensively copied exactly once.
    """
    results: list[np.ndarray] = []
    for x in inputs:
        if not isinstance(x, ADArray) or x.node is None:
            raise ValueError("inputs must be traced ADArrays (use Tape.watch)")
        idx = x.node.index
        g = grads.get(idx)
        if g is None:
            g = np.zeros(x.node.shape, dtype=np.float64)
        elif not owned.get(idx, False):
            g = np.array(g, dtype=np.float64, copy=True)
            # duplicate inputs share the single defensive copy
            grads[idx] = g
            owned[idx] = True
        results.append(np.asarray(g, dtype=np.float64).reshape(x.node.shape))
    return results


def backward(tape: Tape, output: ADArray, inputs: Sequence[ADArray],
             seed: np.ndarray | float | None = None,
             strict: bool = True) -> list[np.ndarray]:
    """Run the reverse sweep and return gradients for ``inputs``.

    Parameters
    ----------
    tape:
        The tape on which ``output`` and ``inputs`` were recorded.
    output:
        Traced array whose (summed) value is differentiated.  For a faithful
        reproduction of the paper's analysis the output is the scalar
        verification quantity of an NPB kernel.
    inputs:
        Traced leaf arrays created with :meth:`Tape.watch`.
    seed:
        Initial cotangent for ``output``.  Defaults to ``1.0`` broadcast to
        the output shape, i.e. the gradient of ``sum(output)``.
    strict:
        When true, raise :class:`ValueError` if ``output`` is not traced on
        ``tape`` (e.g. the function under analysis never touched a watched
        input).

    Returns
    -------
    list of numpy.ndarray
        One gradient array per input, each with the input's shape.  Inputs
        that do not influence the output get an all-zero gradient.
    """
    if not isinstance(output, ADArray) or output.node is None:
        if strict:
            raise ValueError(
                "output is not a traced ADArray; the differentiated function "
                "never touched a watched input")
        return [np.zeros(value_of(x).shape, dtype=np.float64) for x in inputs]

    out_node = output.node
    if out_node.index >= len(tape.nodes) or tape.nodes[out_node.index] is not out_node:
        raise ValueError("output was recorded on a different tape")

    if seed is None:
        seed_arr = np.ones(out_node.shape, dtype=np.float64)
    else:
        seed_arr = np.broadcast_to(np.asarray(seed, dtype=np.float64),
                                   out_node.shape).copy()

    # gradient buffers keyed by node index; ``owned`` tracks whether the
    # buffer is private to this sweep and may be updated in place.
    grads: dict[int, np.ndarray] = {out_node.index: seed_arr}
    owned: dict[int, bool] = {out_node.index: True}

    _run_sweep(tape, grads, owned, out_node.index)
    return _collect_results(grads, owned, inputs)


def backward_from_seeds(tape: Tape,
                        seeds: Sequence[tuple[ADArray, np.ndarray]],
                        inputs: Sequence[ADArray]) -> list[np.ndarray]:
    """Reverse sweep seeded at several traced outputs at once.

    This is the multi-output counterpart of :func:`backward` used by the
    segmented sweep (:mod:`repro.ad.segmented`): instead of differentiating
    one scalar, every ``(output, cotangent)`` pair in ``seeds`` injects its
    cotangent at the output's node and a single sweep propagates the sum of
    all of them down to the leaves -- exactly the chain-rule contraction
    ``J^T @ c`` of one recorded segment.

    Parameters
    ----------
    tape:
        The tape on which the seeded outputs and ``inputs`` were recorded.
    seeds:
        Pairs of a traced output and its incoming cotangent (broadcastable
        to the output's shape).  Seeding the same node twice accumulates.
        Caller-provided cotangents are copied, never mutated.
    inputs:
        Traced leaf arrays whose gradients are returned (zeros for leaves
        no seeded output depends on).
    """
    grads: dict[int, np.ndarray] = {}
    owned: dict[int, bool] = {}
    start_index = -1
    for output, cotangent in seeds:
        if not isinstance(output, ADArray) or output.node is None:
            raise ValueError("seeded outputs must be traced ADArrays")
        node = output.node
        if node.index >= len(tape.nodes) or tape.nodes[node.index] is not node:
            raise ValueError("a seeded output was recorded on a different "
                             "tape")
        seed_arr = np.broadcast_to(
            np.asarray(cotangent, dtype=np.float64), node.shape)
        if node.index in grads:
            grads[node.index] = grads[node.index] + seed_arr
        else:
            grads[node.index] = np.array(seed_arr, dtype=np.float64,
                                         copy=True)
        owned[node.index] = True
        start_index = max(start_index, node.index)

    _run_sweep(tape, grads, owned, start_index)
    return _collect_results(grads, owned, inputs)


def gradient(output: ADArray, inputs: Sequence[ADArray],
             seed: np.ndarray | float | None = None) -> list[np.ndarray]:
    """Gradient of ``output`` w.r.t. ``inputs`` using the output's own tape."""
    if not isinstance(output, ADArray) or output.tape is None:
        raise ValueError("output is not attached to a tape")
    return backward(output.tape, output, list(inputs), seed=seed)


def grad(fun: Callable, argnums: int | Sequence[int] = 0) -> Callable:
    """Return a function computing the gradient of ``fun``.

    ``fun`` must accept numpy arrays (or scalars) and return a scalar.  The
    returned callable evaluates the gradient with respect to the positional
    argument(s) selected by ``argnums``, mirroring the familiar JAX/autograd
    API so the test-suite can express derivative checks concisely.
    """
    single = isinstance(argnums, int)
    selected = (argnums,) if single else tuple(argnums)

    def grad_fun(*args, **kwargs):
        with Tape() as tape:
            traced_args = list(args)
            watched = []
            for i in selected:
                watched.append(tape.watch(np.asarray(args[i], dtype=np.float64),
                                          name=f"arg{i}"))
                traced_args[i] = watched[-1]
            out = fun(*traced_args, **kwargs)
        grads = backward(tape, out, watched)
        if single:
            g = grads[0]
            return g if np.ndim(args[selected[0]]) else float(g)
        return tuple(grads)

    return grad_fun


def value_and_grad(fun: Callable, argnums: int | Sequence[int] = 0) -> Callable:
    """Like :func:`grad`, but also return the function value."""
    single = isinstance(argnums, int)
    selected = (argnums,) if single else tuple(argnums)

    def vag_fun(*args, **kwargs):
        with Tape() as tape:
            traced_args = list(args)
            watched = []
            for i in selected:
                watched.append(tape.watch(np.asarray(args[i], dtype=np.float64),
                                          name=f"arg{i}"))
                traced_args[i] = watched[-1]
            out = fun(*traced_args, **kwargs)
        grads = backward(tape, out, watched)
        value = float(value_of(out)) if np.ndim(value_of(out)) == 0 \
            else value_of(out)
        if single:
            g = grads[0]
            return value, (g if np.ndim(args[selected[0]]) else float(g))
        return value, tuple(grads)

    return vag_fun
