"""Primitive array operations with their vector-Jacobian products (VJPs).

This module is both

* the **primitive library** of the reverse-mode AD engine -- every
  primitive is one *rule* in :data:`RULES`, computing its value with NumPy
  *and* a VJP that pulls a cotangent back to its inputs -- and
* the **numpy-like facade** the NPB mini-apps are written against: every
  function accepts either plain numpy arrays (in which case it behaves
  exactly like the corresponding :mod:`numpy` function and returns plain
  numpy data) or traced :class:`~repro.ad.tensor.ADArray` objects (in which
  case the operation is recorded on the tape of its traced operands).

A rule is ``rule(spec, vals) -> (out, vjp)`` over plain arrays: ``spec`` is
a tuple, its kind first, holding every constant operand and every shape,
axis, index and probe-axis decision; ``vals`` are the traced operands'
values.  A facade function resolves the spec from its arguments, calls the
rule and records a node carrying the spec, so the VJP closes over plain
values only and a tape is freed by reference counting.  The compiled replay
plans (:mod:`repro.ad.exec`) call the same rules on the recorded specs, so
a replayed value or cotangent is bitwise what the tracer produces.

The design follows the guidance of the HPC-Python coding guides used for
this project: hot paths stay fully vectorised (the tape records *array*
operations, never per-element ones), gradient buffers are reused in place
during the reverse sweep, and no Python-level loop runs over array elements.

Only the primitives required by the NPB kernels and the checkpoint analysis
are implemented; adding a new primitive means adding one rule with
:func:`_rule` and one facade function that resolves its spec and calls
:func:`_apply`.
"""

from __future__ import annotations

import builtins
import math
from typing import Any, Callable, Sequence

import numpy as np

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
    "ifftn_sampled",
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
            vjp: Callable[[np.ndarray], tuple], spec: tuple,
            meta: dict | None = None) -> Any:
    """Record one primitive and wrap its output.

    If there are no traced parents, or tracing is suspended, the plain numpy
    value is returned so untraced code pays no tape overhead.
    """
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
                         np.shape(value), np.asarray(value).dtype, meta=meta,
                         spec=spec)
    return ADArray(value, node=node, tape=tape)


#: spec kind -> ``rule(spec, vals) -> (out, vjp)`` (see the module
#: docstring); ``vals`` holds the traced operands' values in parent order,
#: and a one-operand rule always receives its operand
RULES: dict[str, Callable[[tuple, list], tuple]] = {}


def _rule(kind: str) -> Callable:
    """Register the decorated function as the rule of spec ``kind``."""
    def register(rule: Callable) -> Callable:
        RULES[kind] = rule
        return rule

    return register


def _apply(op: str, spec: tuple, parents: Sequence[ADArray], vals: list,
           meta: dict | None = None) -> Any:
    """Run the rule of ``spec`` on ``vals`` and record its node as ``op``."""
    out, vjp = RULES[spec[0]](spec, vals)
    return _record(op, out, parents, vjp, spec, meta)


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


#: compute/VJP lambdas of the elementwise binary primitives, shared by
#: their rule and the plan executor's fused-chain generator
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


def _lifted_spec(kind: str, op: Any, a: Any, b: Any) -> tuple:
    """Spec of a probe-aware elementwise binary primitive.

    ``(kind, op, a_traced, b_traced, a_const, b_const, a_shape, b_shape,
    a_lift, b_lift)``: the constants are the untraced operands' values, the
    shapes are the operands' node shapes and the lifts the shapes
    :func:`_probe_align` gives them under a probe axis.
    """
    av, bv = value_of(a), value_of(b)
    a_tr, b_tr = _is_traced(a), _is_traced(b)
    a_shape = a_lift = av.shape
    b_shape = b_lift = bv.shape
    nb = probe_axis_size() if a_tr or b_tr else None
    if nb is not None:
        av, bv = _probe_align(nb, (av, a_tr), (bv, b_tr))
        a_lift, b_lift = av.shape, bv.shape
    return (kind, op, a_tr, b_tr, None if a_tr else av, None if b_tr else bv,
            a_shape, b_shape, a_lift, b_lift)


def _lifted_values(spec: tuple, vals: list) -> tuple:
    """The two operands of a :func:`_lifted_spec` rule, lifted."""
    (_, _, a_tr, b_tr, av, bv, a_shape, b_shape, a_lift, b_lift) = spec
    if a_tr:
        av = vals[0] if a_lift == a_shape else vals[0].reshape(a_lift)
    if b_tr:
        bv = vals[-1] if b_lift == b_shape else vals[-1].reshape(b_lift)
    return av, bv


def _lifted_vjp(spec: tuple, grad_a: Callable, grad_b: Callable) -> Callable:
    """VJP of a :func:`_lifted_spec` rule from its raw operand cotangents:
    each is unbroadcast to the operand's lift and restored to its shape."""
    (_, _, a_tr, b_tr, _, _, a_shape, b_shape, a_lift, b_lift) = spec

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if a_tr:
            grads.append(_probe_restore(_unbroadcast(grad_a(g), a_lift),
                                        a_shape))
        if b_tr:
            grads.append(_probe_restore(_unbroadcast(grad_b(g), b_lift),
                                        b_shape))
        return tuple(grads)

    return vjp


@_rule("ewbinary")
def _ewbinary_rule(spec: tuple, vals: list) -> tuple:
    compute, grad_a, grad_b = EW_BINARY_RULES[spec[1]]
    av, bv = _lifted_values(spec, vals)
    return compute(av, bv), _lifted_vjp(spec, lambda g: grad_a(g, av, bv),
                                        lambda g: grad_b(g, av, bv))


def _binary(op: str, kind: str, a: Any, b: Any) -> Any:
    """Record one probe-aware elementwise binary primitive."""
    parents = _traced_parents(a, b)
    return _apply(op, _lifted_spec(kind, op, a, b), parents,
                  [p.value for p in parents])


def add(a: Any, b: Any) -> Any:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    return _binary("add", "ewbinary", a, b)


def subtract(a: Any, b: Any) -> Any:
    """Elementwise ``a - b`` with NumPy broadcasting."""
    return _binary("subtract", "ewbinary", a, b)


def multiply(a: Any, b: Any) -> Any:
    """Elementwise ``a * b`` with NumPy broadcasting."""
    return _binary("multiply", "ewbinary", a, b)


def divide(a: Any, b: Any) -> Any:
    """Elementwise true division ``a / b``."""
    return _binary("divide", "ewbinary", a, b)


def power(a: Any, b: Any) -> Any:
    """Elementwise ``a ** b``.

    The exponent may be traced, but the usual use in the kernels is a
    constant scalar exponent, for which the VJP reduces to
    ``g * b * a**(b-1)``.
    """
    return _binary("power", "ewbinary", a, b)


#: compute/tie-mask pairs of maximum/minimum (rule + fused-chain generator)
MINMAX_RULES: dict[str, tuple] = {
    "maximum": (np.maximum, lambda av, bv: av >= bv),
    "minimum": (np.minimum, lambda av, bv: av <= bv),
}


@_rule("minmax")
def _minmax_rule(spec: tuple, vals: list) -> tuple:
    """The tie mask is computed once, in the forward, and shared by both
    cotangents."""
    compute, mask_of = MINMAX_RULES[spec[1]]
    av, bv = _lifted_values(spec, vals)
    mask_a = mask_of(av, bv)
    return compute(av, bv), _lifted_vjp(spec, lambda g: g * mask_a,
                                        lambda g: g * ~mask_a)


def maximum(a: Any, b: Any) -> Any:
    """Elementwise maximum; ties send the cotangent to the first operand."""
    return _binary("maximum", "minmax", a, b)


def minimum(a: Any, b: Any) -> Any:
    """Elementwise minimum; ties send the cotangent to the first operand."""
    return _binary("minimum", "minmax", a, b)


@_rule("mod")
def _mod_rule(spec: tuple, vals: list) -> tuple:
    av, bv = _lifted_values(spec, vals)
    return np.mod(av, bv), _lifted_vjp(spec, lambda g: g, None)


def mod(a: Any, b: Any) -> Any:
    """Elementwise ``a % b``; derivative taken w.r.t. ``a`` only.

    A traced divisor enters as a constant: the spec keeps its (lifted)
    value and it is no parent of the node.
    """
    spec = _lifted_spec("mod", None, a, b)
    if spec[3]:
        spec = spec[:3] + (False, spec[4],
                           value_of(b).reshape(spec[9])) + spec[6:]
    parents = _traced_parents(a)
    return _apply("mod", spec, parents, [p.value for p in parents])


# ---------------------------------------------------------------------------
# elementwise unary primitives
# ---------------------------------------------------------------------------

#: ``(compute(av), dydx(av, out))`` pairs of the table-driven unary
#: primitives (rule + fused-chain generator)
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


@_rule("unary")
def _unary_rule(spec: tuple, vals: list) -> tuple:
    compute, dydx = UNARY_RULES[spec[1]]
    av = vals[0]
    out = compute(av)

    def vjp(g: np.ndarray) -> tuple:
        return (g * dydx(av, out),)

    return out, vjp


def _unary(op: str, spec: tuple, a: Any, meta: dict | None = None) -> Any:
    """Record a one-operand primitive: its rule always gets the operand."""
    return _apply(op, spec, _traced_parents(a), [value_of(a)], meta)


def _rule_unary(op: str, a: Any) -> Any:
    """Record one table-driven unary primitive (see :data:`UNARY_RULES`)."""
    return _unary(op, ("unary", op), a)


@_rule("negative")
def _negative_rule(spec: tuple, vals: list) -> tuple:
    return -vals[0], lambda g: (-g,)


def negative(a: Any) -> Any:
    """Elementwise negation."""
    return _unary("negative", ("negative",), a)


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


@_rule("clip")
def _clip_rule(spec: tuple, vals: list) -> tuple:
    _, lo, hi = spec
    av = vals[0]
    inside = (av >= lo) & (av <= hi)

    def vjp(g: np.ndarray) -> tuple:
        return (g * inside.astype(av.dtype),)

    return np.clip(av, lo, hi), vjp


def clip(a: Any, lo: float, hi: float) -> Any:
    """Clamp values to ``[lo, hi]``; cotangent passes only inside the range."""
    return _unary("clip", ("clip", lo, hi), a)


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

def _keep_reduced(g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """A reduction's cotangent with its reduced axes kept (size 1)."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    return g


@_rule("sum")
def _sum_rule(spec: tuple, vals: list) -> tuple:
    _, axis, keepdims, in_shape = spec

    def vjp(g: np.ndarray) -> tuple:
        return (np.broadcast_to(_keep_reduced(g, axis, keepdims),
                                in_shape).copy(),)

    return np.sum(vals[0], axis=axis, keepdims=keepdims), vjp


def sum(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Sum of elements over the given axis."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    return _unary("sum", ("sum", axis, keepdims, av.shape), a)


@_rule("mean")
def _mean_rule(spec: tuple, vals: list) -> tuple:
    _, axis, keepdims, count, in_shape = spec

    def vjp(g: np.ndarray) -> tuple:
        return (np.broadcast_to(_keep_reduced(np.asarray(g) / count, axis,
                                              keepdims), in_shape).copy(),)

    return np.mean(vals[0], axis=axis, keepdims=keepdims), vjp


def mean(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Arithmetic mean over the given axis."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    count = av.size if axis is None else np.prod(
        [av.shape[ax] for ax in np.atleast_1d(axis)], dtype=np.int64)
    return _unary("mean", ("mean", axis, keepdims, count, av.shape), a)


@_rule("redminmax")
def _redminmax_rule(spec: tuple, vals: list) -> tuple:
    _, op, axis, keepdims, _in_shape = spec
    av = vals[0]
    out = (np.max if op == "max" else np.min)(av, axis=axis,
                                              keepdims=keepdims)

    def vjp(g: np.ndarray) -> tuple:
        g = _keep_reduced(g, axis, keepdims)
        mask = av == _keep_reduced(out, axis, keepdims)
        # split the cotangent equally across ties to keep the VJP a linear map
        denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return (mask * g / denom,)

    return out, vjp


def max(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Maximum over the given axis (ties share the cotangent equally)."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    return _unary("max", ("redminmax", "max", axis, keepdims, av.shape), a)


def min(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Minimum over the given axis (ties share the cotangent equally)."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    return _unary("min", ("redminmax", "min", axis, keepdims, av.shape), a)


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


@_rule("prod")
def _prod_rule(spec: tuple, vals: list) -> tuple:
    _, axis, keepdims, _in_shape = spec
    av = vals[0]
    out = np.prod(av, axis=axis, keepdims=keepdims)

    def vjp(g: np.ndarray) -> tuple:
        return (_keep_reduced(g, axis, keepdims)
                * _prod_partials(av, _keep_reduced(out, axis, keepdims),
                                 axis),)

    return out, vjp


def prod(a: Any, axis=None, keepdims: bool = False) -> Any:
    """Product over the given axis; its derivative is exact at zeros."""
    av = value_of(a)
    axis = _probe_reduce_axis(axis, av.ndim, _probe_batch(a))
    return _unary("prod", ("prod", axis, keepdims, av.shape), a)


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

@_rule("reshape")
def _reshape_rule(spec: tuple, vals: list) -> tuple:
    _, shape, in_shape = spec
    return np.reshape(vals[0], shape), lambda g: (np.reshape(g, in_shape),)


def reshape(a: Any, shape) -> Any:
    """Reshape to ``shape`` (a view-like differentiable operation).

    ``shape`` is the *logical* target shape; under a batched probe sweep the
    probe axis is preserved in front of it.
    """
    av = value_of(a)
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if _probe_batch(a) is not None:
        shape = (av.shape[0],) + shape
    return _unary("reshape", ("reshape", shape, av.shape), a)


def ravel(a: Any) -> Any:
    """Flatten to one dimension."""
    return reshape(a, (-1,))


@_rule("transpose")
def _transpose_rule(spec: tuple, vals: list) -> tuple:
    _, axes, inv_axes = spec
    return np.transpose(vals[0], axes), \
        lambda g: (np.transpose(g, inv_axes),)


def transpose(a: Any, axes=None) -> Any:
    """Permute array axes (the probe axis, when present, stays in front)."""
    av = value_of(a)
    if _probe_batch(a) is not None:
        if axes is None:
            axes = (0,) + tuple(range(av.ndim - 1, 0, -1))
        else:
            axes = (0,) + tuple(ax + 1 if ax >= 0 else av.ndim + ax
                                for ax in axes)
    spec = ("transpose", None, None) if axes is None \
        else ("transpose", tuple(axes), np.argsort(axes))
    return _unary("transpose", spec, a)


@_rule("swapaxes")
def _swapaxes_rule(spec: tuple, vals: list) -> tuple:
    _, axis1, axis2 = spec
    return np.swapaxes(vals[0], axis1, axis2), \
        lambda g: (np.swapaxes(g, axis1, axis2),)


def swapaxes(a: Any, axis1: int, axis2: int) -> Any:
    """Interchange two axes."""
    nb = _probe_batch(a)
    return _unary("swapaxes", ("swapaxes", _probe_shift_axis(axis1, nb),
                               _probe_shift_axis(axis2, nb)), a)


@_rule("moveaxis")
def _moveaxis_rule(spec: tuple, vals: list) -> tuple:
    _, source, destination = spec
    return np.moveaxis(vals[0], source, destination), \
        lambda g: (np.moveaxis(g, destination, source),)


def moveaxis(a: Any, source, destination) -> Any:
    """Move array axes to new positions."""
    nb = _probe_batch(a)
    return _unary("moveaxis", ("moveaxis", _probe_shift_axis(source, nb),
                               _probe_shift_axis(destination, nb)), a)


@_rule("broadcast_to")
def _broadcast_to_rule(spec: tuple, vals: list) -> tuple:
    _, shape, in_shape = spec
    return np.array(np.broadcast_to(vals[0], shape)), \
        lambda g: (_unbroadcast(g, in_shape),)


def broadcast_to(a: Any, shape) -> Any:
    """Broadcast to a new (logical) shape."""
    av = value_of(a)
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if _probe_batch(a) is not None:
        if av.ndim - 1 < len(shape):
            # numpy aligns shapes from the right, the probe axis sits on
            # the left: give the operand the target's logical rank first
            a = reshape(a, (1,) * (len(shape) - av.ndim + 1) + av.shape[1:])
            av = value_of(a)
        shape = (av.shape[0],) + shape
    return _unary("broadcast_to", ("broadcast_to", shape, av.shape), a)


@_rule("squeeze")
def _squeeze_rule(spec: tuple, vals: list) -> tuple:
    _, axis, in_shape = spec
    return np.squeeze(vals[0], axis=axis), \
        lambda g: (np.reshape(g, in_shape),)


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
    return _unary("squeeze", ("squeeze", axis, av.shape), a)


@_rule("expand_dims")
def _expand_dims_rule(spec: tuple, vals: list) -> tuple:
    _, axis, in_shape = spec
    return np.expand_dims(vals[0], axis), \
        lambda g: (np.reshape(g, in_shape),)


def expand_dims(a: Any, axis) -> Any:
    """Insert a size-1 dimension at (logical) ``axis``."""
    axis = _probe_shift_axis(axis, _probe_batch(a))
    return _unary("expand_dims",
                  ("expand_dims", axis, value_of(a).shape), a)


def _parts(arrays: list, nb: int | None) -> tuple:
    """Per-operand ``("t", None)`` / ``("c", value)`` records of a joining
    primitive; under a probe axis plain operands gain it."""
    return tuple(("t", None) if _is_traced(x)
                 else ("c", value_of(x) if nb is None
                       else np.broadcast_to(value_of(x),
                                            (nb,) + np.shape(value_of(x))))
                 for x in arrays)


def _joined(parts: tuple, vals: list) -> list:
    """The operands of a joining primitive: traced values fill the
    ``"t"`` parts in order."""
    it = iter(vals)
    return [next(it) if tag == "t" else value for tag, value in parts]


@_rule("concat")
def _concat_rule(spec: tuple, vals: list) -> tuple:
    _, axis, parts, offsets = spec
    spans = [(start, stop) for (tag, _), start, stop
             in zip(parts, offsets[:-1], offsets[1:]) if tag == "t"]

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        for start, stop in spans:
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            grads.append(g[tuple(index)])
        return tuple(grads)

    return np.concatenate(_joined(parts, vals), axis=axis), vjp


def concatenate(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along an existing (logical) axis."""
    arrays = list(arrays)
    nb = _probe_batch(*arrays)
    axis = _probe_shift_axis(axis, nb)
    parents = _traced_parents(*arrays)
    vals = [p.value for p in parents]
    parts = _parts(arrays, nb)
    # offsets of every input along the concat axis
    sizes = [np.shape(v)[axis] for v in _joined(parts, vals)]
    offsets = tuple(int(o) for o in np.cumsum([0] + sizes))
    return _apply("concatenate", ("concat", axis, parts, offsets), parents,
                  vals)


@_rule("stack")
def _stack_rule(spec: tuple, vals: list) -> tuple:
    _, axis, parts = spec
    traced = [i for i, (tag, _) in enumerate(parts) if tag == "t"]
    return np.stack(_joined(parts, vals), axis=axis), \
        lambda g: tuple(np.take(g, i, axis=axis) for i in traced)


def stack(arrays: Sequence[Any], axis: int = 0) -> Any:
    """Join arrays along a new (logical) axis."""
    arrays = list(arrays)
    nb = _probe_batch(*arrays)
    parents = _traced_parents(*arrays)
    return _apply("stack", ("stack", _probe_shift_axis(axis, nb),
                            _parts(arrays, nb)), parents,
                  [p.value for p in parents])


@_rule("flip")
def _flip_rule(spec: tuple, vals: list) -> tuple:
    axis = spec[1]
    return np.flip(vals[0], axis=axis), lambda g: (np.flip(g, axis=axis),)


def flip(a: Any, axis=None) -> Any:
    """Reverse element order along the given (logical) axis."""
    nb = _probe_batch(a)
    if nb is not None:
        axis = tuple(range(1, value_of(a).ndim)) if axis is None \
            else _probe_shift_axis(axis, nb)
    return _unary("flip", ("flip", axis), a)


def _negated(shift):
    return -np.asarray(shift) if np.ndim(shift) else -shift


@_rule("roll")
def _roll_rule(spec: tuple, vals: list) -> tuple:
    _, shift, axis = spec
    return np.roll(vals[0], shift, axis=axis), \
        lambda g: (np.roll(g, _negated(shift), axis=axis),)


@_rule("roll_flat")
def _roll_flat_rule(spec: tuple, vals: list) -> tuple:
    """``roll`` with ``axis=None`` under a probe axis: each flattened probe
    slice rolls on its own."""
    _, shift, flat_shape, in_shape = spec

    def vjp(g: np.ndarray) -> tuple:
        return (np.roll(np.asarray(g).reshape(flat_shape), _negated(shift),
                        axis=1).reshape(in_shape),)

    return np.roll(vals[0].reshape(flat_shape), shift,
                   axis=1).reshape(in_shape), vjp


def roll(a: Any, shift, axis=None) -> Any:
    """Circularly shift elements along a (logical) axis."""
    av = value_of(a)
    nb = _probe_batch(a)
    if nb is not None and axis is None:
        spec = ("roll_flat", shift, (av.shape[0], -1), av.shape)
    else:
        spec = ("roll", shift, _probe_shift_axis(axis, nb))
    return _unary("roll", spec, a)


@_rule("pad_zero")
def _pad_zero_rule(spec: tuple, vals: list) -> tuple:
    _, pad, in_shape = spec
    index = tuple(slice(before, before + size)
                  for (before, _after), size in zip(pad, in_shape))
    return np.pad(vals[0], pad, mode="constant"), lambda g: (g[index],)


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
    return _unary("pad_zero", ("pad_zero", norm_pad, av.shape), a)


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


@_rule("getitem")
def _getitem_rule(spec: tuple, vals: list) -> tuple:
    _, idx, advanced, contig, in_shape = spec
    out = vals[0][idx]
    if contig:
        out = np.ascontiguousarray(out)

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(in_shape, dtype=np.result_type(g, np.float64))
        if advanced:
            np.add.at(grad, idx, g)
        else:
            grad[idx] += g
        return (grad,)

    return out, vjp


def getitem(a: Any, index: Any) -> Any:
    """Differentiable ``a[index]`` (basic slicing or advanced indexing).

    Index expressions always address the logical dimensions; under a
    batched probe sweep a full slice of the probe axis is prepended, so
    every probe slice is indexed identically.  The advanced gather of a
    batched operand is made C-contiguous: numpy places the advanced-index
    subspace before the probe slice in memory, and restoring C order lays
    every probe row out like the unbatched gather (downstream reductions
    then use the same summation order, keeping probe slices bitwise
    faithful).
    """
    idx = _index_values(index)
    nb = _probe_batch(a)
    advanced = _is_advanced(idx)
    return _unary("getitem", ("getitem", _probe_index(idx, nb), advanced,
                              nb is not None and advanced,
                              value_of(a).shape), a, meta={"index": idx})


@_rule("take")
def _take_rule(spec: tuple, vals: list) -> tuple:
    _, idx, axis, in_shape = spec

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(in_shape, dtype=np.result_type(g, np.float64))
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

    return np.take(vals[0], idx, axis=axis), vjp


@_rule("take_flat")
def _take_flat_rule(spec: tuple, vals: list) -> tuple:
    """``take`` with ``axis=None`` under a probe axis: each flattened probe
    slice is taken from on its own."""
    _, idx, in_shape = spec

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(in_shape, dtype=np.result_type(g, np.float64))
        gflat = grad.reshape(grad.shape[0], -1)
        np.add.at(gflat, (slice(None), np.asarray(idx).reshape(-1)),
                  np.asarray(g).reshape(g.shape[0] if np.ndim(g) else 1, -1))
        return (grad,)

    return np.take(vals[0].reshape(in_shape[0], -1), idx, axis=1), vjp


def take(a: Any, indices: Any, axis=None) -> Any:
    """Differentiable ``numpy.take`` (``axis`` addresses logical dims)."""
    av = value_of(a)
    idx = _index_values(indices)
    nb = _probe_batch(a)
    if nb is None:
        spec = ("take", idx, axis, av.shape)
    elif axis is None:
        spec = ("take_flat", idx, av.shape)
    else:
        # a single advanced index at `axis` is exactly np.take(..., axis),
        # gathered C-contiguous like every batched advanced getitem; a
        # negative axis counts from the end of the batched array
        ax1 = _probe_shift_axis(axis, nb) % av.ndim
        spec = ("getitem", (slice(None),) * ax1 + (np.asarray(idx),), True,
                True, av.shape)
    return _unary("take", spec, a,
                  meta={"indices": np.asarray(idx), "axis": axis})


def _index_roles(a: Any, b: Any) -> tuple[str, ...]:
    """Operand roles of an indexed-write primitive, aligned with parents.

    Consumed by the activity analysis (:mod:`repro.ad.activity`), which
    must distinguish a leaf appearing as the written-into *target* from a
    leaf appearing as the *value/addend* operand.
    """
    return tuple(role for role, x in (("target", a), ("value", b))
                 if _is_traced(x))


def _indexed_write(op: str, a: Any, index: Any, b: Any) -> Any:
    """Record ``index_update``/``index_add``; their spec is
    ``(op, index, a_traced, b_traced, a_const, b_const, b_shape, batched,
    lift)``, with ``lift`` the probe-batched shape a plain target gains."""
    idx = _index_values(index)
    nb = _probe_batch(a, b)
    a_tr, b_tr = _is_traced(a), _is_traced(b)
    av, bv = value_of(a), value_of(b)
    lift = (nb,) + av.shape if nb is not None and not a_tr else None
    spec = (op, _probe_index(idx, nb), a_tr, b_tr, None if a_tr else av,
            None if b_tr else bv, bv.shape, nb is not None, lift)
    parents = _traced_parents(a, b)
    return _apply(op, spec, parents, [p.value for p in parents],
                  meta={"index": idx, "roles": _index_roles(a, b)})


def _write_target(spec: tuple, vals: list) -> tuple:
    """A fresh copy of an indexed write's target, and its written value.

    A plain target written with batched values gains the probe axis, in C
    order: an order-'K' copy of the broadcast view would give the probe
    axis the smallest stride, changing downstream reduction orders away
    from the per-probe layout.
    """
    _, _, a_tr, b_tr, a_const, b_const, _, _, lift = spec
    if a_tr:
        out = np.array(vals[0], copy=True)
    elif lift is not None:
        out = np.array(np.broadcast_to(a_const, lift), copy=True, order="C")
    else:
        out = np.array(a_const, copy=True)
    return out, (vals[-1] if b_tr else b_const)


def _value_cotangent(spec: tuple, g: np.ndarray) -> np.ndarray:
    """The cotangent of an indexed write's traced value operand."""
    _, idx, _, _, _, _, b_shape, batched, _ = spec
    return _unbroadcast_keep_probe(np.asarray(g)[idx], b_shape, batched)


@_rule("index_update")
def _index_update_rule(spec: tuple, vals: list) -> tuple:
    """The target's cotangent is the incoming one with the written region
    zeroed (those elements were overwritten); the value's is the written
    region's."""
    idx, a_tr, b_tr = spec[1:4]
    out, bv = _write_target(spec, vals)
    out[idx] = bv

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if a_tr:
            ga = np.array(g, copy=True)
            ga[idx] = 0.0
            grads.append(ga)
        if b_tr:
            grads.append(_value_cotangent(spec, g))
        return tuple(grads)

    return out, vjp


@_rule("index_add")
def _index_add_rule(spec: tuple, vals: list) -> tuple:
    idx, a_tr, b_tr = spec[1:4]
    out, bv = _write_target(spec, vals)
    np.add.at(out, idx, bv)

    def vjp(g: np.ndarray) -> tuple:
        grads = []
        if a_tr:
            grads.append(np.asarray(g))
        if b_tr:
            grads.append(_value_cotangent(spec, g))
        return tuple(grads)

    return out, vjp


def index_update(a: Any, index: Any, b: Any) -> Any:
    """Functional update: a copy of ``a`` with ``a[index] = b``.

    This is the primitive behind ``ADArray.__setitem__``.  The cotangent of
    ``a`` is the incoming cotangent with the updated region zeroed out (those
    elements of ``a`` were overwritten, so they no longer influence the
    output); the cotangent of ``b`` is the cotangent of the updated region.
    """
    return _indexed_write("index_update", a, index, b)


def index_add(a: Any, index: Any, b: Any) -> Any:
    """Functional scatter-add: a copy of ``a`` with ``a[index] += b``
    (unbuffered, i.e. repeated indices accumulate as ``np.add.at`` does)."""
    return _indexed_write("index_add", a, index, b)


@_rule("where")
def _where_rule(spec: tuple, vals: list) -> tuple:
    cv = spec[1]
    av, bv = _lifted_values(spec, vals)
    return np.where(cv, av, bv), _lifted_vjp(spec, lambda g: g * cv,
                                             lambda g: g * (~cv))


def where(cond: Any, a: Any, b: Any) -> Any:
    """Elementwise select; the condition is treated as non-differentiable."""
    spec = _lifted_spec("where", value_of(cond).astype(bool), a, b)
    parents = _traced_parents(a, b)
    return _apply("where", spec, parents, [p.value for p in parents])


@_rule("copy")
def _copy_rule(spec: tuple, vals: list) -> tuple:
    return np.array(vals[0], copy=True), lambda g: (g,)


def copy(a: Any) -> Any:
    """Differentiable identity copy."""
    return _unary("copy", ("copy",), a)


@_rule("astype")
def _astype_rule(spec: tuple, vals: list) -> tuple:
    _, dtype, src = spec
    return vals[0].astype(dtype), lambda g: (np.asarray(g, dtype=src),)


def astype(a: Any, dtype) -> Any:
    """Cast to ``dtype``.

    Casting to a floating dtype keeps the trace (identity VJP); casting to an
    integer or boolean dtype detaches the result, because derivatives through
    integer data are identically zero.
    """
    av = value_of(a)
    dtype = np.dtype(dtype)
    if not np.issubdtype(dtype, np.floating):
        return av.astype(dtype)
    return _unary("astype", ("astype", dtype.str, av.dtype.str), a)


def detach(a: Any) -> np.ndarray:
    """Return the concrete value, cutting the AD graph."""
    return np.array(value_of(a), copy=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _operand_pair(spec: tuple, vals: list) -> tuple:
    """The two operands of a ``(kind, a_traced, b_traced, a_const,
    b_const, ...)`` spec."""
    _, a_tr, b_tr, av, bv = spec[:5]
    return (vals[0] if a_tr else av), (vals[-1] if b_tr else bv)


def _matmul_spec(kind: str, a: Any, b: Any) -> tuple:
    a_tr, b_tr = _is_traced(a), _is_traced(b)
    return (kind, a_tr, b_tr, None if a_tr else value_of(a),
            None if b_tr else value_of(b))


@_rule("matmul")
def _matmul_rule(spec: tuple, vals: list) -> tuple:
    a_tr, b_tr = spec[1:3]
    av, bv = _operand_pair(spec, vals)

    def vjp(g: np.ndarray) -> tuple:
        g = np.asarray(g)
        grads = []
        if a_tr:
            grads.append(_matmul_grad_a(g, av, bv))
        if b_tr:
            grads.append(_matmul_grad_b(g, av, bv))
        return tuple(grads)

    return np.matmul(av, bv), vjp


def matmul(a: Any, b: Any) -> Any:
    """Matrix product following :func:`numpy.matmul` semantics.

    Supports 1-D and 2-D operands and batched stacks of matrices (the cases
    exercised by the NPB kernels: transfer matrices applied along one grid
    axis, block solves and dot products).  Under a batched probe sweep the
    traced operands' *logical* ranks decide the vector/matrix semantics and
    the probe axis broadcasts as a leading batch dimension.
    """
    parents = _traced_parents(a, b)
    if _probe_batch(a, b) is None:
        spec = _matmul_spec("matmul", a, b)
    else:
        av, bv = value_of(a), value_of(b)
        la = av.ndim - 1 if _is_traced(a) else av.ndim
        lb = bv.ndim - 1 if _is_traced(b) else bv.ndim
        if la == 0 or lb == 0:
            raise ProbeBatchingError("matmul operands must be at least 1-D")
        spec = _matmul_spec("matmul_probe", a, b) + (la, lb)
    return _apply("matmul", spec, parents, [p.value for p in parents])


@_rule("matmul_probe")
def _matmul_probe_rule(spec: tuple, vals: list) -> tuple:
    """Probe-batched matmul: logical vectors are lifted to matrices, the
    probe axis broadcasts as a batch dimension, and the inserted singleton
    axes are squeezed back out of both the value and the cotangents."""
    _, a_tr, b_tr, _, _, la, lb = spec
    av, bv = _operand_pair(spec, vals)
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
        if a_tr:
            ga = np.matmul(g_m, np.swapaxes(bv_m, -1, -2))
            grads.append(_unbroadcast_keep_probe(ga, av_m.shape,
                                                 True).reshape(av.shape))
        if b_tr:
            gb = np.matmul(np.swapaxes(av_m, -1, -2), g_m)
            grads.append(_unbroadcast_keep_probe(gb, bv_m.shape,
                                                 True).reshape(bv.shape))
        return tuple(grads)

    return out, vjp


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




@_rule("banded")
def _banded_rule(spec: tuple, vals: list) -> tuple:
    _, bands, bands_t, offsets = spec
    offsets_t = tuple(-o for o in offsets)
    return _dia_matvec(bands, offsets, vals[0]), \
        lambda g: (_dia_matvec(bands_t, offsets_t, g),)


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
    return _unary("banded_matvec", ("banded", bands, bands_t, offsets), x)


#: complex elements per numpy FFT call: a batch of small grids shares one
#: call (the per-call overhead dominates there), a large grid goes one
#: slice at a time (its buffer then stays in cache between the copies)
_FFT_BLOCK = 1 << 16


def _ifftn_samples(re: np.ndarray, im: np.ndarray, scale: np.ndarray,
                   points: tuple) -> np.ndarray:
    """``(B, 2, n)`` samples at ``points`` of ``ifftn((re + i im) * scale)``.

    ``re``/``im`` are ``(B, *grid)`` batches.  Each block of up to
    :data:`_FFT_BLOCK` elements is scaled straight into the complex buffer,
    transformed in place and sampled; numpy transforms every slice of a
    call independently, so each is computed exactly as an unbatched call
    would.
    """
    grid = re.shape[1:]
    step = builtins.max(1, _FFT_BLOCK // math.prod(grid))
    buf = np.empty((builtins.min(step, len(re)),) + grid,
                   dtype=np.result_type(re, im, scale, np.complex64))
    out = np.empty((len(re), 2, len(points[0])), dtype=buf.real.dtype)
    axes = tuple(range(1, len(grid) + 1))
    at = (slice(None),) + points
    for start in range(0, len(re), step):
        stop = builtins.min(start + step, len(re))
        blk = buf[:stop - start]
        np.multiply(re[start:stop], scale, out=blk.real)
        np.multiply(im[start:stop], scale, out=blk.imag)
        np.fft.ifftn(blk, axes=axes, out=blk)
        out[start:stop, 0] = blk.real[at]
        out[start:stop, 1] = blk.imag[at]
    return out


def _ifftn_samples_vjp(g: np.ndarray, scale: np.ndarray, points: tuple,
                       grid: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The adjoint of :func:`_ifftn_samples` for a ``(B, 2, n)`` cotangent.

    Scatters ``g`` onto zeros at ``points`` (``0.0 + g``, as the gather's
    own VJP would), applies ``fftn(.) / N`` with ``N`` the grid size and
    multiplies by ``scale``: ``(B, *grid)`` cotangents of ``re`` and ``im``.
    """
    size = math.prod(grid)
    step = builtins.max(1, _FFT_BLOCK // size)
    buf = np.zeros((builtins.min(step, len(g)),) + grid,
                   dtype=np.result_type(g, np.float64, np.complex64))
    dtype = np.result_type(buf.real.dtype, scale)
    g_re = np.empty((len(g),) + grid, dtype=dtype)
    g_im = np.empty((len(g),) + grid, dtype=dtype)
    axes = tuple(range(1, len(grid) + 1))
    at = (slice(None),) + points
    for start in range(0, len(g), step):
        stop = builtins.min(start + step, len(g))
        blk = buf[:stop - start]
        if start:
            blk.fill(0)
        np.add.at(blk.real, at, g[start:stop, 0])
        np.add.at(blk.imag, at, g[start:stop, 1])
        np.fft.fftn(blk, axes=axes, out=blk)
        for part, dst in ((blk.real, g_re), (blk.imag, g_im)):
            np.divide(part, size, out=dst[start:stop])
            np.multiply(dst[start:stop], scale, out=dst[start:stop])
    return g_re, g_im


@_rule("ifftn_sampled")
def _ifftn_sampled_rule(spec: tuple, vals: list) -> tuple:
    """Under a probe axis of ``nb`` the traced parts carry it and the
    constant ones are broadcast along it."""
    _, traced, consts, scale, points, nb = spec
    lead = (1,) if nb is None else (nb,)
    k = len(points)
    it = iter(vals)
    re, im = (np.broadcast_to(v, lead + np.shape(v)[np.ndim(v) - k:])
              for v in [next(it) if t else c for t, c in zip(traced, consts)])
    grid = re.shape[1:]
    out = _ifftn_samples(re, im, scale, points)
    batch_shape = out.shape

    def vjp(g: np.ndarray) -> tuple:
        grads = _ifftn_samples_vjp(np.reshape(g, batch_shape), scale,
                                   points, grid)
        return tuple(gr if nb is not None else gr[0]
                     for gr, t in zip(grads, traced) if t)

    return (out if nb is not None else out[0]), vjp


def ifftn_sampled(re: Any, im: Any, scale: Any, points: Sequence) -> Any:
    """Samples of the inverse DFT of a scaled complex field.

    Returns the ``(2, n)`` real and imaginary parts of
    ``numpy.fft.ifftn((re + 1j * im) * scale)`` at the ``n`` grid points
    ``points`` (one index array per axis), and never materialises the
    transformed field beyond one work buffer.  ``scale`` is a constant
    broadcast against the grid.  The map is linear, so the VJP keeps no
    forward operand, only ``scale`` and ``points``: it scatters the
    cotangent onto the sample points, applies the adjoint transform
    ``fftn(.) / N`` with ``N`` the grid size and multiplies by ``scale``.
    Under a probe axis every slice is computed bitwise as an unbatched call
    would.
    """
    if _is_traced(scale):
        raise TypeError("ifftn_sampled: the scale must be constant")
    grid = logical_shape(re)
    if logical_shape(im) != grid:
        raise ValueError(f"ifftn_sampled: real part of shape {grid} and "
                         f"imaginary part of shape {logical_shape(im)}")
    points = tuple(np.asarray(p, dtype=np.intp) for p in points)
    if not grid or len(points) != len(grid) \
            or {p.shape for p in points} != {points[0].shape} \
            or points[0].ndim != 1:
        raise ValueError(f"ifftn_sampled: expected one 1-D index array of "
                         f"equal length per axis of the grid {grid}")
    traced = (_is_traced(re), _is_traced(im))
    consts = tuple(None if t else value_of(v)
                   for t, v in zip(traced, (re, im)))
    parents = _traced_parents(re, im)
    return _apply("ifftn_sampled", ("ifftn_sampled", traced, consts,
                                    np.asarray(scale), points,
                                    _probe_batch(re, im)),
                  parents, [p.value for p in parents])


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
