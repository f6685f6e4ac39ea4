"""Shared infrastructure for the NPB mini-app ports.

This module reimplements the pieces of the original NPB common code the
ports rely on:

* the NPB linear congruential pseudo-random number generator ``randlc``
  (x_{k+1} = a * x_k mod 2**46) including the exact double-double arithmetic
  of the reference implementation, the sequential ``vranlc`` and the
  ``ipow46`` jump-ahead, which stay as the reference the exact-integer
  :class:`RandlcStream` and :func:`jump_ahead` are tested against;
* the seeds: :data:`DEFAULT_SEED` of CG, FT and IS and :data:`EP_SEED`;
* root-mean-square norms in the style of the BT/SP/LU ``error_norm`` and
  ``rhs_norm`` routines, written against :mod:`repro.ad.ops` so they are
  differentiable when handed traced arrays;
* :func:`matmul_along_axis`, the differentiable transfer-matrix product
  along one grid axis that MG and LU share;
* a small :class:`VerificationResult` record mirroring the pass/fail
  verification output every NPB benchmark prints.

The generator follows the reference semantics bit-for-bit (it is exercised
against the published first values of the sequence in the test-suite), which
matters because EP's verification sums are defined by this exact stream:
EP checks them against NPB's published values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.ad import ops

__all__ = [
    "R23", "R46", "T23", "T46", "DEFAULT_SEED", "EP_SEED", "LCG_MULTIPLIER",
    "randlc", "vranlc", "ipow46", "jump_ahead", "RandlcStream",
    "rms_norm", "weighted_abs_sum", "matmul_along_axis",
    "VerificationResult", "relative_error", "within_epsilon",
]


# Constants of the NPB generator: 2**-23, 2**-46, 2**23, 2**46.
R23 = 2.0 ** -23
R46 = R23 * R23
T23 = 2.0 ** 23
T46 = T23 * T23

#: NPB's seed of CG, FT and IS (``seed = 314159265``)
DEFAULT_SEED = 314159265.0

#: NPB's seed of EP (``S = 271828183``)
EP_SEED = 271828183.0

#: multiplier ``a = 5**13`` of the NPB generator
LCG_MULTIPLIER = 1220703125.0

# 2**46 - 1: the low 46 bits, i.e. reduction mod 2**46 of an integer state
_MASK46 = (1 << 46) - 1


def randlc(x: float, a: float) -> tuple[float, float]:
    """One step of the NPB generator.

    Computes ``x_new = a * x mod 2**46`` using the reference double-double
    decomposition and returns ``(uniform, x_new)`` where ``uniform`` is
    ``x_new * 2**-46`` in ``(0, 1)``.

    Parameters mirror the original: ``x`` is the current 46-bit state stored
    in a float, ``a`` the multiplier.
    """
    t1 = R23 * a
    a1 = float(int(t1))
    a2 = a - T23 * a1

    t1 = R23 * x
    x1 = float(int(t1))
    x2 = x - T23 * x1

    t1 = a1 * x2 + a2 * x1
    t2 = float(int(R23 * t1))
    z = t1 - T23 * t2
    t3 = T23 * z + a2 * x2
    t4 = float(int(R46 * t3))
    x_new = t3 - T46 * t4
    return R46 * x_new, x_new


def vranlc(n: int, x: float, a: float) -> tuple[np.ndarray, float]:
    """Generate ``n`` uniforms sequentially, returning ``(array, new_state)``.

    This is the reference sequential algorithm (a Python loop).  It is used
    for moderate ``n`` and as the ground truth the vectorised
    :class:`RandlcStream` is tested against.
    """
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i], x = randlc(x, a)
    return out, x


def ipow46(a: float, exponent: int) -> float:
    """Compute ``a ** exponent mod 2**46`` with the NPB square-and-multiply.

    Jumps the generator ahead by ``exponent`` steps in O(log n) ``randlc``
    calls, the way NPB's EP seeds every batch; here it is the reference the
    exact-integer :func:`jump_ahead` is tested against.
    """
    result = 1.0
    if exponent == 0:
        return result
    q = a
    r = 1.0
    n = exponent
    while n > 1:
        n2 = n // 2
        if 2 * n2 == n:
            _, q = randlc(q, q)
            n = n2
        else:
            _, r = randlc(r, q)
            n = n - 1
    _, r = randlc(r, q)
    return r


def jump_ahead(x: float, offset: int, a: float = LCG_MULTIPLIER) -> float:
    """Generator state ``offset`` steps after ``x``: ``a**offset * x mod 2**46``.

    Exact integer arithmetic (Python's three-argument ``pow``); it equals
    ``randlc(x, ipow46(a, offset))[1]``, the reference jump-ahead.
    """
    return float(pow(int(a), offset, 1 << 46) * int(x) & _MASK46)


class RandlcStream:
    """Vectorised NPB random stream with jump-ahead.

    The sequential recurrence ``x_{k+1} = a * x_k mod 2**46`` implies
    ``x_k = (a**k mod 2**46) * x_0 mod 2**46``.  The constructor builds the
    table ``a**k mod 2**46`` for ``k < block`` once, in ``uint64``, by
    doubling: ``a**(f + j) = a**j * a**f`` fills ``[f, 2f)`` from
    ``[0, f)`` in one vectorised product.  :meth:`uniforms` then produces
    any block of the stream with one more product.  Both products are exact:
    a ``uint64`` product wraps modulo ``2**64``, and since ``2**46`` divides
    ``2**64`` its low 46 bits are the true product's, so the table and the
    stream match the sequential ``randlc`` reference bitwise.
    """

    def __init__(self, block: int, a: float = LCG_MULTIPLIER) -> None:
        if block < 1:
            raise ValueError("block size must be positive")
        self.block = int(block)
        self.a = float(a)
        powers = np.empty(self.block, dtype=np.uint64)
        powers[0] = 1
        filled, a_filled = 1, int(a)          # a_filled = a**filled mod 2**46
        while filled < self.block:
            count = min(filled, self.block - filled)
            chunk = powers[filled:filled + count]
            np.multiply(powers[:count], np.uint64(a_filled), out=chunk)
            chunk &= _MASK46
            a_filled = a_filled * a_filled & _MASK46
            filled += count
        self._powers = powers

    def uniforms(self, seed_state: float, n: int | None = None) -> tuple[np.ndarray, float]:
        """Return ``n`` uniforms starting from ``seed_state``.

        ``seed_state`` is the generator state *before* the block (the value
        ``x`` such that the first returned uniform is ``a * x mod 2**46``
        scaled to (0,1)), matching ``vranlc`` semantics.  Also returns the
        state after the block, so blocks can be chained.
        """
        n = self.block if n is None else int(n)
        if n > self.block:
            raise ValueError(f"requested {n} numbers from a stream with "
                             f"block size {self.block}")
        # x_k = a^(k-1) * (a * seed) mod 2**46 for k = 1..n
        first = int(self.a) * int(seed_state) & _MASK46
        states = self._powers[:n] * np.uint64(first)
        states &= _MASK46
        new_state = float(states[-1]) if n > 0 else seed_state
        return R46 * states, new_state


# ---------------------------------------------------------------------------
# differentiable norms used by the verification phases
# ---------------------------------------------------------------------------

def rms_norm(field: Any, n_points: Sequence[int]):
    """Root-mean-square norm in the style of BT/SP ``error_norm``.

    ``field`` is the (possibly traced) array of pointwise differences already
    restricted to the accessed index range; ``n_points`` are the grid extents
    the original code divides by (``grid_points[d] - 2``).
    """
    total = ops.sum(ops.square(field))
    denom = 1.0
    for n in n_points:
        denom *= float(n - 2)
    return ops.sqrt(ops.divide(total, denom))


def weighted_abs_sum(field: Any, weights: Any):
    """Differentiable ``sum(|field| * weights)`` helper for scalar outputs."""
    return ops.sum(ops.absolute(field) * weights)


def matmul_along_axis(matrix: np.ndarray, field: Any, axis: int) -> Any:
    """Apply a constant ``(m, n)`` matrix along one logical axis of a field.

    ``out[..., i, ...] = sum_j matrix[i, j] * field[..., j, ...]``: the
    axis of length ``n`` becomes one of length ``m``.  The field is viewed
    as ``(pre, n, post)`` (a reshape, no copy) and multiplied by one
    broadcast matmul; on the last axis the view is ``(pre, n)`` and the
    product is the single GEMM ``(pre, n) @ matrix.T``.
    """
    shape = tuple(ops.logical_shape(field))
    n = shape[axis]
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    if axis == len(shape) - 1:
        mixed = ops.matmul(ops.reshape(field, (pre, n)), matrix.T)
    else:
        mixed = ops.matmul(matrix, ops.reshape(field, (pre, n, post)))
    return ops.reshape(mixed, shape[:axis] + (matrix.shape[0],)
                       + shape[axis + 1:])


# ---------------------------------------------------------------------------
# verification records
# ---------------------------------------------------------------------------

def relative_error(value: Any, reference: Any) -> np.ndarray:
    """NPB-style relative error ``|value - reference| / |reference|``.

    Elementwise over arrays (complex ones included, where ``|.|`` is the
    complex magnitude); a zero reference element gives ``|value|``.
    """
    reference = np.asarray(reference)
    scale = np.abs(reference)
    return np.abs(np.asarray(value) - reference) / np.where(scale == 0.0,
                                                             1.0, scale)


def within_epsilon(value: float, reference: float, epsilon: float) -> bool:
    """True when ``value`` matches ``reference`` within relative ``epsilon``."""
    return bool(relative_error(value, reference) <= epsilon)


@dataclass
class VerificationResult:
    """Outcome of a benchmark's verification phase.

    Mirrors the ``verified`` flag the NPB codes print, with enough structure
    for the restart-correctness experiments to report per-quantity errors.
    """

    benchmark: str
    passed: bool
    epsilon: float
    details: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def summary(self) -> str:
        """One-line, human-readable summary of the verification outcome."""
        status = "SUCCESSFUL" if self.passed else "UNSUCCESSFUL"
        parts = [f"{self.benchmark}: verification {status} "
                 f"(epsilon={self.epsilon:g})"]
        for key, err in sorted(self.details.items()):
            parts.append(f"  {key}: rel.err={err:.3e}")
        if self.notes:
            parts.append(f"  note: {self.notes}")
        return "\n".join(parts)
