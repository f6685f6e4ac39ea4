"""Primitive array operations with their vector-Jacobian products (VJPs).

This module is both

* the **primitive library** of the reverse-mode AD engine -- every function
  here knows how to compute its value with NumPy *and* how to pull a
  cotangent back to its inputs -- and
* the **numpy-like facade** the NPB mini-apps are written against: every
  function accepts either plain numpy arrays (in which case it behaves
  exactly like the corresponding :mod:`numpy` function and returns plain
  numpy data) or traced :class:`~repro.ad.tensor.ADArray` objects (in which
  case the operation is recorded on the tape of its traced operands).

The design follows the guidance of the HPC-Python coding guides used for
this project: hot paths stay fully vectorised (the tape records *array*
operations, never per-element ones), gradient buffers are reused in place
during the reverse sweep, and no Python-level loop runs over array elements.

Only the primitives required by the NPB kernels and the checkpoint analysis
are implemented; adding a new primitive means adding one function following
the ``_record`` pattern below.
"""

from __future__ import annotations

import builtins
import math
from typing import Any, Callable, Sequence

import numpy as np

from .plan import _CAPTURE
from .probes import ProbeBatchingError, probe_axis_size
from .tape import Tape, _TAPES, get_active_tape
from .tensor import ADArray, value_of

__all__ = [
    # elementwise binary
    "add", "subtract", "multiply", "divide", "power", "maximum", "minimum",
    "mod",
    # elementwise unary
    "negative", "absolute", "sqrt", "exp", "log", "log1p", "expm1",
    "sin", "cos", "tan", "tanh", "sign", "square", "reciprocal", "clip",
    # reductions
    "sum", "mean", "max", "min", "prod", "norm",
    # shape manipulation
    "reshape", "transpose", "swapaxes", "broadcast_to", "concatenate",
    "stack", "moveaxis", "squeeze", "expand_dims", "ravel", "flip", "roll",
    "pad_zero",
    # selection / indexing
    "getitem", "take", "index_update", "index_add", "where", "copy",
    "astype", "detach",
    # linear algebra
    "matmul", "dot", "outer", "banded_matvec", "dia_transpose",
    "ifftn_pair",
    # constructors / passthrough helpers
    "zeros", "ones", "full", "zeros_like", "ones_like", "arange", "linspace",
    "asarray", "array",
    # misc
    "isnan", "isfinite", "allclose", "to_numpy", "logical_shape",
]


# ---------------------------------------------------------------------------
# recording machinery
# ---------------------------------------------------------------------------

def _traced_parents(*operands: Any) -> list[ADArray]:
    """Return the operands that are traced ADArrays, in order."""
    return [x for x in operands if isinstance(x, ADArray) and x.node is not None]


def _target_tape(parents: Sequence[ADArray]) -> Tape | None:
    """Pick the tape new nodes should be recorded on.

    Preference order: the innermost *active* tape (if any), falling back to
    the tape of the first traced parent.  When tracing is suspended with
    :class:`repro.ad.tape.no_tape`, returns ``None`` and the operation is
    not recorded.
    """
    if _TAPES.stack:
        return _TAPES.stack[-1]  # may be None inside ``no_tape``
    if parents:
        return parents[0].tape
    return None


def _record(op: str, value: np.ndarray, parents: Sequence[ADArray],
            vjp: Callable[[np.ndarray], tuple],
            meta: dict | None = None, spec: tuple | None = None) -> Any:
    """Record one primitive and wrap its output.

    If there are no traced parents, or tracing is suspended, the plain numpy
    value is returned so untraced code pays no overhead.  ``spec`` is the
    primitive's replay description, supplied only while a plan capture
    (:mod:`repro.ad.plan`) is active; a recorded node without one marks the
    capture as unreplayable (the plan cache then falls back to tracing).
    """
    parents = list(parents)
    if not parents:
        return value
    tape = _target_tape(parents)
    if tape is None:
        return value
    nb = probe_axis_size()
    if nb is not None and (np.ndim(value) == 0 or np.shape(value)[0] != nb):
        # a traced result lost the probe axis: abort the batched trace so
        # the caller falls back to the per-probe path instead of silently
        # mixing probes
        raise ProbeBatchingError(
            f"primitive {op!r} produced shape {np.shape(value)} without a "
            f"leading probe axis of length {nb}")
    node = tape.add_node(op, [p.node for p in parents], vjp,
                         np.shape(value), np.asarray(value).dtype, meta=meta)
    capture = _CAPTURE.capture
    if capture is not None:
        capture.on_node(node, spec)
    return ADArray(value, node=node, tape=tape)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted cotangent ``g`` back down to ``shape``."""
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    # sum over leading broadcast dimensions
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    # sum over axes that were size-1 in the original shape
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def to_numpy(x: Any) -> np.ndarray:
    """Concrete numpy value of ``x`` (identity for plain arrays)."""
    return value_of(x)


# ---------------------------------------------------------------------------
# probe-batching support (see repro.ad.probes)
#
# Inside a ``probes.probe_axis(n)`` context every *traced* array carries a
# leading probe axis of length ``n``; plain numpy operands never do.  The
# helpers below implement the two adjustments the primitives need to keep
# that invariant:
#
# * value alignment for elementwise broadcasting (numpy aligns shapes from
#   the right, the probe axis sits on the left, so a batched operand of
#   lower logical rank gains singleton logical axes just after the probe
#   axis);
# * axis/index shifting for reductions, shape manipulation and indexing
#   (logical axis ``k`` lives at position ``k + 1`` of a batched array;
#   negative axes are untouched because the trailing dimensions are
#   unchanged).
# ---------------------------------------------------------------------------

def _is_traced(x: Any) -> bool:
    return isinstance(x, ADArray) and x.node is not None


def _probe_batch(*operands: Any) -> int | None:
    """Probe-axis size when batched tracing is active for these operands."""
    n = probe_axis_size()
    if n is None:
        return None
    for x in operands:
        if _is_traced(x):
            return n
    return None


def logical_shape(x: Any) -> tuple:
    """Shape of ``x`` with the probe axis stripped.

    Identical to ``numpy.shape(value_of(x))`` outside batched tracing (and
    for plain operands inside it); kernels that introspect traced shapes to
    build reshape targets must use this instead of the raw value shape so
    they work unchanged under a batched probe sweep.
    """
    shape = tuple(np.shape(value_of(x)))
    if probe_axis_size() is not None and _is_traced(x):
        return shape[1:]
    return shape


def _probe_align(nb: int, *pairs: tuple[Any, bool]) -> list[np.ndarray]:
    """Lift batched operands so elementwise broadcasting stays per-probe.

    ``pairs`` are ``(value, traced)`` tuples; traced values carry the probe
    axis.  Every traced value is reshaped to
    ``(nb,) + (1,)*(L - logical_ndim) + logical_shape`` where ``L`` is the
    largest logical rank among all operands, which makes numpy's
    right-aligned broadcasting match the unbatched semantics with the probe
    axis on the left.  Plain operands are returned untouched.
    """
    values = [np.asarray(value) for value, _ in pairs]
    target = 0
    for value, traced in zip(values, (t for _, t in pairs)):
        target = builtins.max(target, value.ndim - 1 if traced else value.ndim)
    lifted = []
    for value, (_, traced) in zip(values, pairs):
        if traced and value.ndim - 1 < target:
            value = value.reshape(value.shape[:1]
                                  + (1,) * (target - (value.ndim - 1))
                                  + value.shape[1:])
        lifted.append(value)
    return lifted


def _probe_reduce_axis(axis: Any, ndim: int, nb: int | None) -> Any:
    """Map logical reduction axes onto a batched array (keep the probe axis)."""
    if nb is None:
        return axis
    if axis is None:
        return tuple(range(1, ndim))
    if isinstance(axis, (tuple, list)):
        return tuple(ax + 1 if ax >= 0 else ax for ax in axis)
    return axis + 1 if axis >= 0 else axis


def _probe_shift_axis(axis: Any, nb: int | None) -> Any:
    """Shift non-negative logical axes past the probe axis (None unchanged)."""
    if nb is None or axis is None:
        return axis
    if isinstance(axis, (tuple, list, np.ndarray)):
        return tuple(int(ax) + 1 if int(ax) >= 0 else int(ax) for ax in axis)
    return axis + 1 if axis >= 0 else axis


def _probe_index(index: Any, nb: int | None) -> Any:
    """Prepend a full probe-axis slice to a logical index expression.

    Advanced indices separated by a slice/ellipsis are rejected: numpy
    moves their broadcast subspace *in front of* the prepended probe
    slice, which would silently transpose the probe axis away (the
    ``_record`` shape guard cannot catch it when the subspace length
    coincides with the probe count).  No NPB kernel uses the pattern; a
    custom kernel that does falls back to the per-probe path.
    """
    if nb is None:
        return index
    if isinstance(index, tuple):
        if _has_separated_advanced(index):
            raise ProbeBatchingError(
                "advanced indices separated by slices place their "
                "subspace in front of the probe axis; this index "
                "expression cannot be probe-batched")
        return (slice(None),) + index
    return (slice(None), index)


def _has_separated_advanced(index: tuple) -> bool:
    """True when ``index`` holds advanced entries split by a basic one.

    Mirrors numpy's placement rule: advanced indexing is only in play
    when an array/list entry is present; integers then join the advanced
    group for adjacency purposes (they broadcast as 0-d indices).
    """
    if not builtins.any(isinstance(entry, (np.ndarray, list))
                        for entry in index):
        return False     # ints + slices only: basic indexing, no reorder

    def is_advanced(entry: Any) -> bool:
        return isinstance(entry, (np.ndarray, list)) \
            or (isinstance(entry, (int, np.integer))
                and not isinstance(entry, bool))

    flags = [is_advanced(entry) for entry in index]
    if builtins.sum(flags) < 2:
        return False
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    return not builtins.all(flags[first:last + 1])


def _unbroadcast_keep_probe(g: np.ndarray, shape: tuple,
                            batched: bool) -> np.ndarray:
    """:func:`_unbroadcast`, but never collapse a leading probe axis.

    When ``batched``, ``g`` and ``shape`` both start with the probe axis;
    surplus broadcast dimensions are summed just *after* it instead of at
    axis 0.
    """
    if not batched:
        return _unbroadcast(g, shape)
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=1)
    for axis, dim in enumerate(shape):
        if axis > 0 and dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise binary primitives
# ---------------------------------------------------------------------------

def _probe_restore(g: np.ndarray, true_shape: tuple) -> np.ndarray:
    """Collapse a lifted-shape cotangent back to the operand's node shape."""
    g = np.asarray(g)
    if g.shape == tuple(true_shape):
        return g
    return g.reshape(true_shape)


def _power_grad_b(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        loga = np.where(av > 0, np.log(np.where(av > 0, av, 1.0)), 0.0)
    return g * (av ** bv) * loga


#: shared compute/VJP rules of the elementwise binary primitives -- the
#: single source the tracer *and* the compiled replay plans
#: (:mod:`repro.ad.plan`) execute, so replayed values and cotangents are
#: bitwise-identical by construction
EW_BINARY_RULES: dict[str, tuple] = {
    "add": (lambda av, bv: av + bv,
            lambda g, av, bv: g,
            lambda g, av, bv: g),
    "subtract": (lambda av, bv: av - bv,
                 lambda g, av, bv: g,
                 lambda g, av, bv: -g),
    "multiply": (lambda av, bv: av * bv,
                 lambda g, av, bv: g * bv,
                 lambda g, av, bv: g * av),
    "divide": (lambda av, bv: av / bv,
               lambda g, av, bv: g / bv,
               lambda g, av, bv: -g * av / (bv * bv)),
    "power": (lambda av, bv: av ** bv,
              lambda g, av, bv: g * bv * av ** (bv - 1.0),
              _power_grad_b),
}


def _elementwise_binary(op: str, a: Any, b: Any,
                        compute: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        grad_a: Callable[..., np.ndarray],
                        grad_b: Callable[..., np.ndarray]) -> Any:
    """Record one elementwise binary primitive with probe-aware broadcasting.

    ``compute(av, bv)`` produces the value; ``grad_a(g, av, bv)`` /
    ``grad_b(g, av, bv)`` produce the raw cotangents, which are then
    unbroadcast to the (possibly probe-lifted) operand shape and restored to
    the operand's true node shape.
    """
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = compute(av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if _is_traced(a):
            grads.append(_probe_restore(
                _unbroadcast(grad_a(g, av, bv), a_lift), a_shape))
        if _is_traced(b):
            grads.append(_probe_restore(
                _unbroadcast(grad_b(g, av, bv), b_lift), b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None and op in EW_BINARY_RULES:
        spec = ("ewbinary", op, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record(op, out, parents, vjp, spec=spec)


def add(a: Any, b: Any) -> Any:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    return _elementwise_binary("add", a, b, *EW_BINARY_RULES["add"])


def subtract(a: Any, b: Any) -> Any:
    """Elementwise ``a - b`` with NumPy broadcasting."""
    return _elementwise_binary("subtract", a, b,
                               *EW_BINARY_RULES["subtract"])


def multiply(a: Any, b: Any) -> Any:
    """Elementwise ``a * b`` with NumPy broadcasting."""
    return _elementwise_binary("multiply", a, b,
                               *EW_BINARY_RULES["multiply"])


def divide(a: Any, b: Any) -> Any:
    """Elementwise true division ``a / b``."""
    return _elementwise_binary("divide", a, b, *EW_BINARY_RULES["divide"])


def power(a: Any, b: Any) -> Any:
    """Elementwise ``a ** b``.

    The exponent may be traced, but the usual use in the kernels is a
    constant scalar exponent, for which the VJP reduces to
    ``g * b * a**(b-1)``.
    """
    return _elementwise_binary("power", a, b, *EW_BINARY_RULES["power"])


#: shared compute/tie-mask rules of maximum/minimum (tracer + replay plans)
MINMAX_RULES: dict[str, tuple] = {
    "maximum": (np.maximum, lambda av, bv: av >= bv),
    "minimum": (np.minimum, lambda av, bv: av <= bv),
}


def _minmax_binary(op: str, a: Any, b: Any, compute, mask_of) -> Any:
    """Shared maximum/minimum recorder; the tie mask is computed once at
    trace time and shared by both cotangents."""
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = compute(av, bv)
    mask_a = mask_of(av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if _is_traced(a):
            grads.append(_probe_restore(
                _unbroadcast(g * mask_a, a_lift), a_shape))
        if _is_traced(b):
            grads.append(_probe_restore(
                _unbroadcast(g * ~mask_a, b_lift), b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("minmax", op, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record(op, out, parents, vjp, spec=spec)


def maximum(a: Any, b: Any) -> Any:
    """Elementwise maximum; ties send the cotangent to the first operand."""
    return _minmax_binary("maximum", a, b, *MINMAX_RULES["maximum"])


def minimum(a: Any, b: Any) -> Any:
    """Elementwise minimum; ties send the cotangent to the first operand."""
    return _minmax_binary("minimum", a, b, *MINMAX_RULES["minimum"])


def mod(a: Any, b: Any) -> Any:
    """Elementwise ``a % b``; derivative taken w.r.t. ``a`` only."""
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = np.mod(av, bv)
    parents = _traced_parents(a)
    a_shape, a_lift = np.shape(av0), np.shape(av)

    def vjp(g: np.ndarray) -> tuple:
        return (_probe_restore(_unbroadcast(g, a_lift), a_shape),)

    return _record("mod", out, parents, vjp)


# ---------------------------------------------------------------------------
# elementwise unary primitives
# ---------------------------------------------------------------------------

#: shared compute/derivative rules of the unary primitives, as
#: ``(compute(av), dydx(av, out))`` pairs -- executed by the tracer and by
#: the compiled replay plans alike (bitwise-identical by construction)
UNARY_RULES: dict[str, tuple] = {
    "absolute": (np.abs, lambda av, out: np.sign(av)),
    "sqrt": (np.sqrt, lambda av, out: 0.5 / np.where(out == 0, np.inf, out)),
    "exp": (np.exp, lambda av, out: out),
    "expm1": (np.expm1, lambda av, out: np.exp(av)),
    "log": (np.log, lambda av, out: 1.0 / av),
    "log1p": (np.log1p, lambda av, out: 1.0 / (1.0 + av)),
    "sin": (np.sin, lambda av, out: np.cos(av)),
    "cos": (np.cos, lambda av, out: -np.sin(av)),
    "tan": (np.tan, lambda av, out: 1.0 / np.cos(av) ** 2),
    "tanh": (np.tanh, lambda av, out: 1.0 - out ** 2),
    "sign": (np.sign, lambda av, out: np.zeros_like(av)),
    "square": (lambda av: av * av, lambda av, out: 2.0 * av),
    "reciprocal": (lambda av: 1.0 / av, lambda av, out: -1.0 / (av * av)),
}


def _unary(op: str, a: Any, out: np.ndarray,
           dydx: Callable[[], np.ndarray],
           spec: tuple | None = None) -> Any:
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (g * dydx(),)

    return _record(op, out, parents, vjp, spec=spec)


def _rule_unary(op: str, a: Any) -> Any:
    """Record one table-driven unary primitive (see :data:`UNARY_RULES`)."""
    compute, dydx = UNARY_RULES[op]
    av = value_of(a)
    out = compute(av)
    spec = ("unary", op) if _CAPTURE.capture is not None else None
    return _unary(op, a, out, lambda: dydx(av, out), spec=spec)


def negative(a: Any) -> Any:
    """Elementwise negation."""
    av = value_of(a)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (-g,)

    spec = ("negative",) if _CAPTURE.capture is not None else None
    return _record("negative", -av, parents, vjp, spec=spec)


def absolute(a: Any) -> Any:
    """Elementwise absolute value (subgradient ``sign(a)`` at 0)."""
    return _rule_unary("absolute", a)


def sqrt(a: Any) -> Any:
    """Elementwise square root."""
    return _rule_unary("sqrt", a)


def exp(a: Any) -> Any:
    """Elementwise exponential."""
    return _rule_unary("exp", a)


def expm1(a: Any) -> Any:
    """Elementwise ``exp(a) - 1``."""
    return _rule_unary("expm1", a)


def log(a: Any) -> Any:
    """Elementwise natural logarithm."""
    return _rule_unary("log", a)


def log1p(a: Any) -> Any:
    """Elementwise ``log(1 + a)``."""
    return _rule_unary("log1p", a)


def sin(a: Any) -> Any:
    """Elementwise sine."""
    return _rule_unary("sin", a)


def cos(a: Any) -> Any:
    """Elementwise cosine."""
    return _rule_unary("cos", a)


def tan(a: Any) -> Any:
    """Elementwise tangent."""
    return _rule_unary("tan", a)


def tanh(a: Any) -> Any:
    """Elementwise hyperbolic tangent."""
    return _rule_unary("tanh", a)


def sign(a: Any) -> Any:
    """Elementwise sign; derivative is zero almost everywhere."""
    return _rule_unary("sign", a)


def square(a: Any) -> Any:
    """Elementwise square."""
    return _rule_unary("square", a)


def reciprocal(a: Any) -> Any:
    """Elementwise ``1 / a``."""
    return _rule_unary("reciprocal", a)


def clip(a: Any, lo: float, hi: float) -> Any:
    """Clamp values to ``[lo, hi]``; cotangent passes only inside the range."""
    av = value_of(a)
    out = np.clip(av, lo, hi)
    inside = (av >= lo) & (av <= hi)
    return _unary("clip", a, out, lambda: inside.astype(av.dtype))


def isnan(a: Any) -> np.ndarray:
    """Non-differentiable NaN test on the concrete value."""
    return np.isnan(value_of(a))


def isfinite(a: Any) -> np.ndarray:
    """Non-differentiable finiteness test on the concrete value."""
    return np.isfinite(value_of(a))


def allclose(a: Any, b: Any, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """Non-differentiable closeness test on concrete values."""
    return bool(np.allclose(value_of(a), value_of(b), rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Sum of elements over the given axis."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.sum(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    spec = ("sum", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("sum", out, parents, vjp, spec=spec)


def mean(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Arithmetic mean over the given axis."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.mean(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    count = av.size if axis is None else np.prod(
        [av.shape[ax] for ax in np.atleast_1d(axis)], dtype=np.int64)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    spec = ("mean", axis, keepdims, count, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("mean", out, parents, vjp, spec=spec)


def _minmax_vjp(av: np.ndarray, out: np.ndarray, axis, keepdims: bool):
    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        out_k = out
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            out_k = np.expand_dims(out, axis=axis)
        mask = (av == out_k)
        # split the cotangent equally across ties to keep the VJP a linear map
        denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return (mask * g / denom,)

    return vjp


def max(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Maximum over the given axis (ties share the cotangent equally)."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.max(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    spec = ("redminmax", "max", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("max", out, parents, _minmax_vjp(av, out, axis, keepdims),
                   spec=spec)


def min(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Minimum over the given axis (ties share the cotangent equally)."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.min(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)
    spec = ("redminmax", "min", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("min", out, parents, _minmax_vjp(av, out, axis, keepdims),
                   spec=spec)


def _prod_partials(av: np.ndarray, out_k: np.ndarray, axis) -> np.ndarray:
    """Partial derivatives of a product over ``axis`` (``out_k`` keeps the
    reduced axes): the product of the other elements of each lane,
    ``out / a`` where the lane holds no zero and exact where it does."""
    zero = av == 0
    safe = np.where(zero, 1.0, av)
    partials = out_k / safe
    if zero.any():
        others = np.prod(safe, axis=axis, keepdims=True)
        lone = np.sum(zero, axis=axis, keepdims=True) == 1
        partials = np.where(zero, np.where(lone, others, 0.0), partials)
    return partials


def prod(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Product over the given axis; its derivative is exact at zeros."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    out = np.prod(av, axis=axis, keepdims=keepdims)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        out_k = out
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            out_k = np.expand_dims(out, axis=axis)
        return (g * _prod_partials(av, out_k, axis),)

    spec = ("prod", axis, keepdims, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("prod", out, parents, vjp, spec=spec)


def norm(a: Any, ord: int = 2) -> Any:
    """Flattened vector norm built from differentiable primitives.

    Only ``ord in (1, 2)`` is supported; the NPB verification norms are
    2-norms and max-norms (use :func:`max` with :func:`absolute` for the
    latter).
    """
    flat = reshape(a, (-1,))
    if ord == 1:
        return sum(absolute(flat))
    if ord == 2:
        return sqrt(sum(flat * flat))
    raise ValueError(f"unsupported norm order: {ord!r}")


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Any, shape) -> Any:
    """Reshape to ``shape`` (a view-like differentiable operation).

    ``shape`` is the *logical* target shape; under a batched probe sweep the
    probe axis is preserved in front of it.
    """
    av = value_of(a)
    if _probe_batch(a) is not None:
        shape = (av.shape[0],) + ((shape,) if np.ndim(shape) == 0
                                  else tuple(shape))
    out = np.reshape(av, shape)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("reshape", np.shape(out), av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("reshape", out, parents, vjp, spec=spec)


def ravel(a: Any) -> Any:
    """Flatten to one dimension."""
    return reshape(a, (-1,))


def transpose(a: Any, axes=None) -> Any:
    """Permute array axes (the probe axis, when present, stays in front)."""
    av = value_of(a)
    if _probe_batch(a) is not None:
        if axes is None:
            axes = (0,) + tuple(range(av.ndim - 1, 0, -1))
        else:
            axes = (0,) + tuple(ax + 1 if ax >= 0 else av.ndim + ax
                                for ax in axes)
    out = np.transpose(av, axes)
    parents = _traced_parents(a)
    if axes is None:
        inv_axes = None
    else:
        inv_axes = np.argsort(axes)

    def vjp(g: np.ndarray) -> tuple:
        return (np.transpose(g, inv_axes),)

    spec = ("transpose", None if axes is None else tuple(axes), inv_axes) \
        if _CAPTURE.capture is not None else None
    return _record("transpose", out, parents, vjp, spec=spec)


def swapaxes(a: Any, axis1: int, axis2: int) -> Any:
    """Interchange two axes."""
    nb = _probe_batch(a)
    axis1 = _probe_shift_axis(axis1, nb)
    axis2 = _probe_shift_axis(axis2, nb)
    av = value_of(a)
    out = np.swapaxes(av, axis1, axis2)
    parents = _traced_parents(a)

    spec = ("swapaxes", axis1, axis2) \
        if _CAPTURE.capture is not None else None

    def vjp(g: np.ndarray) -> tuple:
        return (np.swapaxes(g, axis1, axis2),)

    return _record("swapaxes", out, parents, vjp, spec=spec)


def moveaxis(a: Any, source, destination) -> Any:
    """Move array axes to new positions."""
    nb = _probe_batch(a)
    source = _probe_shift_axis(source, nb)
    destination = _probe_shift_axis(destination, nb)
    av = value_of(a)
    out = np.moveaxis(av, source, destination)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.moveaxis(g, destination, source),)

    spec = ("moveaxis", source, destination) \
        if _CAPTURE.capture is not None else None
    return _record("moveaxis", out, parents, vjp, spec=spec)


def broadcast_to(a: Any, shape) -> Any:
    """Broadcast to a new (logical) shape."""
    av = value_of(a)
    if _probe_batch(a) is not None:
        shape = tuple(shape)
        if av.ndim - 1 < len(shape):
            # numpy aligns shapes from the right, the probe axis sits on
            # the left: give the operand the target's logical rank first
            a = reshape(a, (1,) * (len(shape) - av.ndim + 1) + av.shape[1:])
            av = value_of(a)
        shape = (av.shape[0],) + shape
    out = np.broadcast_to(av, shape)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (_unbroadcast(g, av.shape),)

    spec = ("broadcast_to", np.shape(out), av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("broadcast_to", np.array(out), parents, vjp, spec=spec)


def squeeze(a: Any, axis=None) -> Any:
    """Remove size-1 dimensions (never the probe axis)."""
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None:
        if axis is None:
            axis = tuple(ax for ax in range(1, av.ndim)
                         if av.shape[ax] == 1)
        else:
            axis = _probe_shift_axis(axis, nb)
    out = np.squeeze(av, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("squeeze", axis, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("squeeze", out, parents, vjp, spec=spec)


def expand_dims(a: Any, axis) -> Any:
    """Insert a size-1 dimension at (logical) ``axis``."""
    axis = _probe_shift_axis(axis, _probe_batch(a))
    av = value_of(a)
    out = np.expand_dims(av, axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.reshape(g, av.shape),)

    spec = ("expand_dims", axis, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("expand_dims", out, parents, vjp, spec=spec)


def concatenate(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along an existing (logical) axis."""
    arrays = list(arrays)
    values = [value_of(a) for a in arrays]
    nb = _probe_batch(*arrays)
    if nb is not None:
        axis = _probe_shift_axis(axis, nb)
        # plain operands gain the probe axis so every part is batched
        values = [v if _is_traced(arr)
                  else np.broadcast_to(v, (nb,) + np.shape(v))
                  for arr, v in zip(arrays, values)]
    out = np.concatenate(values, axis=axis)
    parents = _traced_parents(*arrays)
    # offsets of every *traced* input along the concat axis
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        for arr, val, start, stop in zip(arrays, values, offsets[:-1], offsets[1:]):
            if isinstance(arr, ADArray) and arr.node is not None:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                grads.append(g[tuple(index)])
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        parts = tuple(("t", None) if _is_traced(arr) else ("c", val)
                      for arr, val in zip(arrays, values))
        spec = ("concat", axis, parts, tuple(int(o) for o in offsets))
    return _record("concatenate", out, parents, vjp, spec=spec)


def stack(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along a new (logical) axis."""
    arrays = list(arrays)
    values = [value_of(a) for a in arrays]
    nb = _probe_batch(*arrays)
    if nb is not None:
        axis = _probe_shift_axis(axis, nb)
        values = [v if _is_traced(arr)
                  else np.broadcast_to(v, (nb,) + np.shape(v))
                  for arr, v in zip(arrays, values)]
    out = np.stack(values, axis=axis)
    parents = _traced_parents(*arrays)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        for i, arr in enumerate(arrays):
            if isinstance(arr, ADArray) and arr.node is not None:
                grads.append(np.take(g, i, axis=axis))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        parts = tuple(("t", None) if _is_traced(arr) else ("c", val)
                      for arr, val in zip(arrays, values))
        spec = ("stack", axis, parts)
    return _record("stack", out, parents, vjp, spec=spec)


def flip(a: Any, axis=None) -> Any:
    """Reverse element order along the given (logical) axis."""
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None:
        axis = tuple(range(1, av.ndim)) if axis is None \
            else _probe_shift_axis(axis, nb)
    out = np.flip(av, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.flip(g, axis=axis),)

    spec = ("flip", axis) if _CAPTURE.capture is not None else None
    return _record("flip", out, parents, vjp, spec=spec)


def roll(a: Any, shift, axis=None) -> Any:
    """Circularly shift elements along a (logical) axis."""
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None and axis is None:
        # numpy's axis=None rolls the flattened array; per probe that means
        # rolling each flattened probe slice
        flat_shape = (av.shape[0], -1)
        out = np.roll(av.reshape(flat_shape), shift, axis=1).reshape(av.shape)
        parents = _traced_parents(a)

        def vjp_flat(g: np.ndarray) -> tuple:
            g2 = np.asarray(g).reshape(flat_shape)
            return (np.roll(g2, -np.asarray(shift) if np.ndim(shift)
                            else -shift, axis=1).reshape(av.shape),)

        spec = ("roll_flat", shift, flat_shape, av.shape) \
            if _CAPTURE.capture is not None else None
        return _record("roll", out, parents, vjp_flat, spec=spec)
    axis = _probe_shift_axis(axis, nb)
    out = np.roll(av, shift, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.roll(g, -np.asarray(shift) if np.ndim(shift) else -shift,
                        axis=axis),)

    spec = ("roll", shift, axis) if _CAPTURE.capture is not None else None
    return _record("roll", out, parents, vjp, spec=spec)


def pad_zero(a: Any, pad_width) -> Any:
    """Zero-pad an array (``numpy.pad`` with constant zeros).

    ``pad_width`` refers to the logical dimensions; the probe axis (when
    present) is never padded.
    """
    av = value_of(a)
    nb = _probe_batch(a)
    lndim = av.ndim - 1 if nb is not None else av.ndim
    norm_pad = np.asarray(np.broadcast_to(np.asarray(pad_width, dtype=np.int64)
                                          .reshape(-1, 2) if np.ndim(pad_width) > 0
                                          else [[pad_width, pad_width]],
                                          (lndim, 2)))
    if nb is not None:
        norm_pad = np.vstack([[[0, 0]], norm_pad])
    out = np.pad(av, norm_pad, mode="constant")
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        index = tuple(slice(before, before + size)
                      for (before, _after), size in zip(norm_pad, av.shape))
        return (g[index],)

    spec = ("pad_zero", norm_pad, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("pad_zero", out, parents, vjp, spec=spec)


# ---------------------------------------------------------------------------
# selection and indexing
# ---------------------------------------------------------------------------

def _index_values(index: Any) -> Any:
    """Strip AD wrappers from an index expression (indices are data)."""
    if isinstance(index, ADArray):
        return index.value
    if isinstance(index, tuple):
        return tuple(_index_values(i) for i in index)
    return index


def _is_advanced(index: Any) -> bool:
    """True when the index expression uses integer/boolean array indexing."""
    if isinstance(index, (np.ndarray, list)):
        return True
    if isinstance(index, tuple):
        return builtins.any(isinstance(i, (np.ndarray, list)) for i in index)
    return False


def getitem(a: Any, index: Any) -> Any:
    """Differentiable ``a[index]`` (basic slicing or advanced indexing).

    Index expressions always address the logical dimensions; under a
    batched probe sweep a full slice of the probe axis is prepended, so
    every probe slice is indexed identically.
    """
    av = value_of(a)
    idx = _index_values(index)
    nb = _probe_batch(a)
    full_idx = _probe_index(idx, nb)
    out = av[full_idx]
    if nb is not None and _is_advanced(idx):
        # numpy places the advanced-index subspace before the probe slice in
        # memory; restore C order so every probe row is laid out exactly
        # like the unbatched gather (downstream reductions then use the
        # same summation order, keeping probe slices bitwise faithful)
        out = np.ascontiguousarray(out)
    parents = _traced_parents(a)
    advanced = _is_advanced(idx)

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(av.shape, dtype=np.result_type(g, np.float64))
        if advanced:
            np.add.at(grad, full_idx, g)
        else:
            grad[full_idx] += g
        return (grad,)

    spec = ("getitem", full_idx, advanced,
            nb is not None and advanced, av.shape) \
        if _CAPTURE.capture is not None else None
    return _record("getitem", out, parents, vjp, meta={"index": idx},
                   spec=spec)


def take(a: Any, indices: Any, axis=None) -> Any:
    """Differentiable ``numpy.take`` (``axis`` addresses logical dims)."""
    av = value_of(a)
    idx = _index_values(indices)
    nb = _probe_batch(a)
    if nb is not None:
        if axis is None:
            # numpy's axis=None takes from the flattened array; per probe
            # that means taking from each flattened probe slice
            flat = av.reshape(av.shape[0], -1)
            out = np.take(flat, idx, axis=1)
            parents = _traced_parents(a)

            def vjp_flat(g: np.ndarray) -> tuple:
                grad = np.zeros(av.shape,
                                dtype=np.result_type(g, np.float64))
                gflat = grad.reshape(grad.shape[0], -1)
                np.add.at(gflat, (slice(None),
                                  np.asarray(idx).reshape(-1)),
                          np.asarray(g).reshape(g.shape[0] if np.ndim(g)
                                                else 1, -1))
                return (grad,)

            return _record("take", out, parents, vjp_flat,
                           meta={"indices": np.asarray(idx), "axis": axis})
        # a single advanced index at `axis` is exactly np.take(..., axis);
        # a negative axis counts from the end of the batched array
        ax1 = _probe_shift_axis(axis, nb) % av.ndim
        take_idx = (slice(None),) * ax1 + (np.asarray(idx),)
        out = np.ascontiguousarray(av[take_idx])
        parents = _traced_parents(a)

        def vjp_axis(g: np.ndarray) -> tuple:
            grad = np.zeros(av.shape, dtype=np.result_type(g, np.float64))
            np.add.at(grad, take_idx, g)
            return (grad,)

        return _record("take", out, parents, vjp_axis,
                       meta={"indices": np.asarray(idx), "axis": axis})
    out = np.take(av, idx, axis=axis)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(av.shape, dtype=np.result_type(g, np.float64))
        if axis is None:
            np.add.at(grad.reshape(-1), np.asarray(idx).reshape(-1),
                      np.asarray(g).reshape(-1))
        else:
            grad_moved = np.moveaxis(grad, axis, 0)
            g_moved = np.moveaxis(np.asarray(g), axis, 0) \
                if np.ndim(idx) > 0 else np.asarray(g)[None]
            np.add.at(grad_moved, np.asarray(idx).reshape(-1),
                      g_moved.reshape((-1,) + grad_moved.shape[1:]))
        return (grad,)

    return _record("take", out, parents, vjp,
                   meta={"indices": np.asarray(idx), "axis": axis})


def _index_roles(a: Any, b: Any) -> tuple[str, ...]:
    """Operand roles of an indexed-write primitive, aligned with parents.

    Consumed by the activity analysis (:mod:`repro.ad.activity`), which
    must distinguish a leaf appearing as the written-into *target* from a
    leaf appearing as the *value/addend* operand.
    """
    return tuple(role for role, x in (("target", a), ("value", b))
                 if _is_traced(x))


def index_update(a: Any, index: Any, b: Any) -> Any:
    """Functional update: a copy of ``a`` with ``a[index] = b``.

    This is the primitive behind ``ADArray.__setitem__``.  The cotangent of
    ``a`` is the incoming cotangent with the updated region zeroed out (those
    elements of ``a`` were overwritten, so they no longer influence the
    output); the cotangent of ``b`` is the cotangent of the updated region.
    """
    av, bv = value_of(a), value_of(b)
    idx = _index_values(index)
    nb = _probe_batch(a, b)
    full_idx = _probe_index(idx, nb)
    spec = None
    if _CAPTURE.capture is not None:
        lift = (nb,) + np.shape(av) \
            if nb is not None and not _is_traced(a) else None
        spec = ("index_update", full_idx, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                np.shape(bv), nb is not None, lift)
    if nb is not None and not _is_traced(a):
        # plain target written with batched values: the copy gains the axis.
        # Copy in C order -- an order-'K' copy of the broadcast view would
        # give the probe axis the smallest stride, changing downstream
        # reduction orders away from the per-probe layout.
        av = np.broadcast_to(av, (nb,) + np.shape(av))
        out = np.array(av, copy=True, order="C")
    else:
        out = np.array(av, copy=True)
    out[full_idx] = bv
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            ga = np.array(g, copy=True)
            ga[full_idx] = 0.0
            grads.append(ga)
        if isinstance(b, ADArray) and b.node is not None:
            gb = np.asarray(g)[full_idx]
            grads.append(_unbroadcast_keep_probe(gb, np.shape(bv),
                                                 nb is not None))
        return tuple(grads)

    return _record("index_update", out, parents, vjp,
                   meta={"index": idx, "roles": _index_roles(a, b)},
                   spec=spec)


def index_add(a: Any, index: Any, b: Any) -> Any:
    """Functional scatter-add: a copy of ``a`` with ``a[index] += b``
    (unbuffered, i.e. repeated indices accumulate as ``np.add.at`` does)."""
    av, bv = value_of(a), value_of(b)
    idx = _index_values(index)
    nb = _probe_batch(a, b)
    full_idx = _probe_index(idx, nb)
    spec = None
    if _CAPTURE.capture is not None:
        lift = (nb,) + np.shape(av) \
            if nb is not None and not _is_traced(a) else None
        spec = ("index_add", full_idx, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                np.shape(bv), nb is not None, lift)
    if nb is not None and not _is_traced(a):
        # see index_update: lift the plain target in C order
        av = np.broadcast_to(av, (nb,) + np.shape(av))
        out = np.array(av, copy=True, order="C")
    else:
        out = np.array(av, copy=True)
    np.add.at(out, full_idx, bv)
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(np.asarray(g))
        if isinstance(b, ADArray) and b.node is not None:
            gb = np.asarray(g)[full_idx]
            grads.append(_unbroadcast_keep_probe(gb, np.shape(bv),
                                                 nb is not None))
        return tuple(grads)

    return _record("index_add", out, parents, vjp,
                   meta={"index": idx, "roles": _index_roles(a, b)},
                   spec=spec)


def where(cond: Any, a: Any, b: Any) -> Any:
    """Elementwise select; the condition is treated as non-differentiable."""
    cv = value_of(cond).astype(bool)
    av0, bv0 = value_of(a), value_of(b)
    nb = _probe_batch(a, b)
    if nb is not None:
        av, bv = _probe_align(nb, (av0, _is_traced(a)), (bv0, _is_traced(b)))
    else:
        av, bv = av0, bv0
    out = np.where(cv, av, bv)
    parents = _traced_parents(a, b)
    a_shape, b_shape = np.shape(av0), np.shape(bv0)
    a_lift, b_lift = np.shape(av), np.shape(bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(_probe_restore(_unbroadcast(g * cv, a_lift),
                                        a_shape))
        if isinstance(b, ADArray) and b.node is not None:
            grads.append(_probe_restore(_unbroadcast(g * (~cv), b_lift),
                                        b_shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("where", cv, _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv,
                a_shape, b_shape, a_lift, b_lift)
    return _record("where", out, parents, vjp, spec=spec)


def copy(a: Any) -> Any:
    """Differentiable identity copy."""
    av = value_of(a)
    out = np.array(av, copy=True)
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (g,)

    spec = ("copy",) if _CAPTURE.capture is not None else None
    return _record("copy", out, parents, vjp, spec=spec)


def astype(a: Any, dtype) -> Any:
    """Cast to ``dtype``.

    Casting to a floating dtype keeps the trace (identity VJP); casting to an
    integer or boolean dtype detaches the result, because derivatives through
    integer data are identically zero.
    """
    av = value_of(a)
    dtype = np.dtype(dtype)
    out = av.astype(dtype)
    if not np.issubdtype(dtype, np.floating):
        return out
    parents = _traced_parents(a)

    def vjp(g: np.ndarray) -> tuple:
        return (np.asarray(g, dtype=av.dtype),)

    spec = ("astype", dtype.str, av.dtype.str) \
        if _CAPTURE.capture is not None else None
    return _record("astype", out, parents, vjp, spec=spec)


def detach(a: Any) -> np.ndarray:
    """Return the concrete value, cutting the AD graph."""
    return np.array(value_of(a), copy=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Any, b: Any) -> Any:
    """Matrix product following :func:`numpy.matmul` semantics.

    Supports 1-D and 2-D operands and batched stacks of matrices (the cases
    exercised by the NPB kernels: transfer matrices applied along one grid
    axis, block solves and dot products).  Under a batched probe sweep the
    traced operands' *logical* ranks decide the vector/matrix semantics and
    the probe axis broadcasts as a leading batch dimension.
    """
    nb = _probe_batch(a, b)
    if nb is not None:
        return _probe_matmul(a, b, nb)
    av, bv = value_of(a), value_of(b)
    out = np.matmul(av, bv)
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        grads = []
        if isinstance(a, ADArray) and a.node is not None:
            grads.append(_matmul_grad_a(g, av, bv))
        if isinstance(b, ADArray) and b.node is not None:
            grads.append(_matmul_grad_b(g, av, bv))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("matmul", _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv)
    return _record("matmul", out, parents, vjp, spec=spec)


def _probe_matmul(a: Any, b: Any, nb: int) -> Any:
    """Probe-batched matmul: logical vectors are lifted to matrices, the
    probe axis broadcasts as a batch dimension, and the inserted singleton
    axes are squeezed back out of both the value and the cotangents."""
    av, bv = value_of(a), value_of(b)
    la = av.ndim - 1 if _is_traced(a) else av.ndim
    lb = bv.ndim - 1 if _is_traced(b) else bv.ndim
    if la == 0 or lb == 0:
        raise ProbeBatchingError("matmul operands must be at least 1-D")
    av_m = av[..., None, :] if la == 1 else av
    bv_m = bv[..., :, None] if lb == 1 else bv
    out_m = np.matmul(av_m, bv_m)
    if la == 1 and lb == 1:
        out = out_m[..., 0, 0]
    elif la == 1:
        out = out_m[..., 0, :]
    elif lb == 1:
        out = out_m[..., :, 0]
    else:
        out = out_m
    parents = _traced_parents(a, b)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        if la == 1 and lb == 1:
            g_m = g[..., None, None]
        elif la == 1:
            g_m = g[..., None, :]
        elif lb == 1:
            g_m = g[..., :, None]
        else:
            g_m = g
        grads = []
        if _is_traced(a):
            ga = np.matmul(g_m, np.swapaxes(bv_m, -1, -2))
            grads.append(_unbroadcast_keep_probe(ga, av_m.shape,
                                                 True).reshape(av.shape))
        if _is_traced(b):
            gb = np.matmul(np.swapaxes(av_m, -1, -2), g_m)
            grads.append(_unbroadcast_keep_probe(gb, bv_m.shape,
                                                 True).reshape(bv.shape))
        return tuple(grads)

    spec = None
    if _CAPTURE.capture is not None:
        spec = ("matmul_probe", _is_traced(a), _is_traced(b),
                None if _is_traced(a) else av,
                None if _is_traced(b) else bv, la, lb)
    return _record("matmul", out, parents, vjp, spec=spec)


def _matmul_grad_a(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.ndim == 1 and bv.ndim == 1:          # vector . vector -> scalar
        return g * bv
    if av.ndim == 1:                            # (k,) @ (..., k, n)
        ga = np.matmul(np.expand_dims(g, -2), np.swapaxes(bv, -1, -2))
        ga = np.squeeze(ga, axis=-2)
        return _unbroadcast(ga, av.shape)
    if bv.ndim == 1:                            # (..., m, k) @ (k,)
        ga = np.matmul(np.expand_dims(g, -1), np.expand_dims(bv, 0))
        return _unbroadcast(ga, av.shape)
    ga = np.matmul(g, np.swapaxes(bv, -1, -2))
    return _unbroadcast(ga, av.shape)


def _matmul_grad_b(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.ndim == 1 and bv.ndim == 1:
        return g * av
    if av.ndim == 1:                            # (k,) @ (..., k, n)
        gb = np.matmul(np.expand_dims(av, -1), np.expand_dims(g, -2))
        return _unbroadcast(gb, bv.shape)
    if bv.ndim == 1:                            # (..., m, k) @ (k,)
        gb = np.matmul(np.swapaxes(av, -1, -2), np.expand_dims(g, -1))
        gb = np.squeeze(gb, axis=-1)
        return _unbroadcast(gb, bv.shape)
    gb = np.matmul(np.swapaxes(av, -1, -2), g)
    return _unbroadcast(gb, bv.shape)


def dot(a: Any, b: Any) -> Any:
    """Alias of :func:`matmul` for 1-D/2-D operands."""
    return matmul(a, b)


def outer(a: Any, b: Any) -> Any:
    """Outer product of two vectors."""
    a2 = reshape(a, (-1, 1))
    b2 = reshape(b, (1, -1))
    return multiply(a2, b2)


#: elements of the gathered ``(rows, k, n)`` product block of one banded
#: matvec chunk (4 MB of float64): a vector or a few probes take one
#: chunk, the probes of a large matrix take several
_DIA_CHUNK = 1 << 19


def _dia_kernel(bands: np.ndarray, offsets: tuple, shape: tuple,
                dtype) -> Callable[[np.ndarray], np.ndarray]:
    """The banded matvec ``x -> y`` for operands of one ``shape``, with
    ``y[..., i] = sum_d bands[d, i] * x[..., i + offsets[d]]``; the buffers
    are built once.

    Each leading-axis slice of ``x`` (a probe) is copied into a
    zero-padded row, so every diagonal reads a full-length window of it (a
    column outside the matrix meets a padded zero).  The
    ``k`` shifted windows are gathered as a fresh ``(rows, k, n)`` block,
    multiplied by the bands and summed over ``k``: numpy reduces a
    non-inner axis row by row from ``0.0``, so each ``y[..., i]`` is
    accumulated in ``offsets`` order and no slice's bits depend on the
    other slices or on how they are chunked.
    """
    n = shape[-1]
    lead = math.prod(shape[:-1])
    chunk = builtins.max(1, builtins.min(lead, _DIA_CHUNK // (len(offsets)
                                                              * n)))
    lo = builtins.max(0, -builtins.min(offsets))
    hi = builtins.max(0, builtins.max(offsets))
    padded = np.zeros((chunk, lo + n + hi), dtype=dtype)
    inner = padded[:, lo:lo + n]
    windows = np.ndarray((chunk, lo + hi + 1, n), padded.dtype,
                         buffer=padded,
                         strides=padded.strides + padded.strides[-1:])
    index = np.array([o + lo for o in offsets])

    def apply(x: np.ndarray) -> np.ndarray:
        x = x.reshape(lead, n)
        out = np.empty((lead, n), dtype=dtype)
        for start in range(0, lead, chunk):
            m = builtins.min(chunk, lead - start)
            np.copyto(inner[:m], x[start:start + m])
            rows = windows[:m, index]
            np.multiply(rows, bands, out=rows)
            np.add.reduce(rows, axis=1, out=out[start:start + m])
        return out.reshape(shape)

    return apply


def _dia_matvec(bands: np.ndarray, offsets: tuple,
                x: np.ndarray) -> np.ndarray:
    """One application of :func:`_dia_kernel`."""
    x = np.asarray(x)
    return _dia_kernel(bands, offsets, x.shape,
                       np.result_type(bands, x))(x)


def dia_transpose(bands: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """Bands of ``A.T`` for the negated offsets.

    With ``bands[d, i] = A[i, i + offsets[d]]`` the transpose has
    ``A.T[i, i - offsets[d]] = A[i - offsets[d], i]``, so its band ``d`` is
    band ``d`` of ``A`` shifted by ``offsets[d]`` (zero where the shifted
    row leaves the matrix).
    """
    bands = np.asarray(bands)
    n = bands.shape[1]
    out = np.zeros_like(bands)
    for d, o in enumerate(offsets):
        lo, hi = builtins.max(0, o), builtins.min(n, n + o)
        if lo < hi:
            out[d, lo:hi] = bands[d, lo - o:hi - o]
    return out


def banded_matvec(bands: np.ndarray, offsets: Sequence[int], x: Any,
                  bands_t: np.ndarray) -> Any:
    """Constant banded matrix times a (traced) vector.

    The matrix is stored by diagonals (DIA, row-aligned): ``bands`` has
    shape ``(k, n)`` and ``bands[d, i] = A[i, i + offsets[d]]``; finite
    entries whose column falls outside ``[0, n)`` are ignored.  The result is
    ``A @ x`` with each row accumulated over the diagonals in ``offsets``
    order.  The VJP applies ``A.T``, whose bands for the negated offsets
    are ``bands_t = dia_transpose(bands, offsets)``, built once by the
    caller that owns the matrix.

    The kernel is batch-invariant: under a probe axis every slice is
    computed bitwise as an unbatched call would.
    """
    if _is_traced(bands):
        raise TypeError("banded_matvec: the bands must be constant")
    bands = np.asarray(bands)
    offsets = tuple(int(o) for o in offsets)
    if bands.ndim != 2 or bands.shape[0] != len(offsets):
        raise ValueError(f"banded_matvec: bands of shape {bands.shape} do "
                         f"not match {len(offsets)} offsets")
    n = bands.shape[1]
    shape = logical_shape(x)
    if shape != (n,):
        raise ValueError(f"banded_matvec: vector of shape {shape} for an "
                         f"order-{n} matrix")
    out = _dia_matvec(bands, offsets, value_of(x))
    offsets_t = tuple(-o for o in offsets)

    def vjp(g: np.ndarray) -> tuple:
        return (_dia_matvec(bands_t, offsets_t, g),)

    spec = ("banded", bands, bands_t, offsets) \
        if _CAPTURE.capture is not None else None
    return _record("banded_matvec", out, _traced_parents(x), vjp, spec=spec)


#: complex elements per numpy FFT call: a batch of small grids shares one
#: call (the per-call overhead dominates there), a large grid goes one
#: slice at a time (its buffer then stays in cache between the copies)
_FFT_BLOCK = 1 << 16


def _fft_pair(z: np.ndarray, k: int, inverse: bool) -> np.ndarray:
    """The complex DFT over the last ``k`` axes of stacked real/imaginary
    pairs.

    The pair sits on axis ``-(k + 1)``; axes in front of it (a probe
    axis) are batch axes, transformed in blocks of up to
    :data:`_FFT_BLOCK` elements, in place in one complex buffer.  numpy
    transforms every slice of a call independently, so each is computed
    exactly as an unbatched call would.  ``inverse`` gives
    ``numpy.fft.ifftn``; otherwise ``fftn(.) / N`` with ``N`` the grid
    size, the adjoint of ``ifftn``.
    """
    z = np.asarray(z)
    grid = z.shape[z.ndim - k:]
    size = math.prod(grid)
    pairs = z.reshape((-1, 2) + grid)
    step = builtins.max(1, _FFT_BLOCK // size)
    field = np.empty((builtins.min(step, len(pairs)),) + grid,
                     dtype=np.result_type(z.dtype, np.complex64))
    out = np.empty(pairs.shape, dtype=field.real.dtype)
    transform = np.fft.ifftn if inverse else np.fft.fftn
    axes = tuple(range(1, k + 1))
    for start in range(0, len(pairs), step):
        block = pairs[start:start + step]
        buf = field[:len(block)]
        buf.real = block[:, 0]
        buf.imag = block[:, 1]
        transform(buf, axes=axes, out=buf)
        out[start:start + step, 0] = buf.real
        out[start:start + step, 1] = buf.imag
    if not inverse:
        out /= size
    return out.reshape(z.shape)


def ifftn_pair(z: Any) -> Any:
    """Inverse DFT over every logical axis after axis 0 of a complex field.

    The field is carried as a stacked pair: ``z[0]`` is the real part and
    ``z[1]`` the imaginary part of a complex array of shape ``z.shape[1:]``;
    the result is ``numpy.fft.ifftn`` of it in the same layout.  The map is
    linear, so the VJP needs no forward operand: it applies the adjoint,
    ``fftn(g[0] + 1j * g[1]) / N`` with ``N`` the grid size.  Under a probe
    axis every slice is transformed bitwise as an unbatched call would.
    """
    shape = logical_shape(z)
    if len(shape) < 2 or shape[0] != 2:
        raise ValueError(f"ifftn_pair: expected a (2, *grid) real/imaginary "
                         f"pair, got shape {shape}")
    k = len(shape) - 1
    out = _fft_pair(np.asarray(value_of(z)), k, True)

    def vjp(g: np.ndarray) -> tuple:
        return (_fft_pair(np.asarray(g), k, False),)

    spec = ("ifftn", k) if _CAPTURE.capture is not None else None
    return _record("ifftn_pair", out, _traced_parents(z), vjp, spec=spec)


# ---------------------------------------------------------------------------
# constructors / passthrough helpers (never traced on their own)
# ---------------------------------------------------------------------------

def zeros(shape, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.zeros`` (constants are never traced)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.ones``."""
    return np.ones(shape, dtype=dtype)


def full(shape, fill_value, dtype=np.float64) -> np.ndarray:
    """Plain ``numpy.full``."""
    return np.full(shape, fill_value, dtype=dtype)


def zeros_like(a: Any) -> np.ndarray:
    """Zeros with the shape/dtype of ``a``'s concrete value."""
    return np.zeros_like(value_of(a))


def ones_like(a: Any) -> np.ndarray:
    """Ones with the shape/dtype of ``a``'s concrete value."""
    return np.ones_like(value_of(a))


def arange(*args, **kwargs) -> np.ndarray:
    """Plain ``numpy.arange``."""
    return np.arange(*args, **kwargs)


def linspace(*args, **kwargs) -> np.ndarray:
    """Plain ``numpy.linspace``."""
    return np.linspace(*args, **kwargs)


def asarray(a: Any, dtype=None) -> Any:
    """Identity on ADArrays; ``numpy.asarray`` otherwise."""
    if isinstance(a, ADArray):
        return a if dtype is None else astype(a, dtype)
    return np.asarray(a, dtype=dtype)


def array(a: Any, dtype=None) -> Any:
    """Copying variant of :func:`asarray`."""
    if isinstance(a, ADArray):
        out = copy(a)
        return out if dtype is None else astype(out, dtype)
    return np.array(a, dtype=dtype)
