"""Shared infrastructure for the NPB mini-app ports.

This module reimplements the pieces of the original NPB common code the
ports rely on:

* the NPB linear congruential pseudo-random number generator ``randlc``
  (x_{k+1} = a * x_k mod 2**46) including the exact double-double arithmetic
  of the reference implementation, a vectorised ``vranlc`` and the
  ``ipow46`` jump-ahead used by EP to seed independent batches;
* root-mean-square norms in the style of the BT/SP/LU ``error_norm`` and
  ``rhs_norm`` routines, written against :mod:`repro.ad.ops` so they are
  differentiable when handed traced arrays;
* :func:`matmul_along_axis`, the differentiable transfer-matrix product
  along one grid axis that MG and LU share;
* a small :class:`VerificationResult` record mirroring the pass/fail
  verification output every NPB benchmark prints.

The generator follows the reference semantics bit-for-bit (it is exercised
against the published first values of the sequence in the test-suite), which
matters because EP's verification sums are defined by this exact stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.ad import ops

__all__ = [
    "R23", "R46", "T23", "T46", "DEFAULT_SEED", "LCG_MULTIPLIER",
    "randlc", "vranlc", "ipow46", "RandlcStream",
    "rms_norm", "weighted_abs_sum", "matmul_along_axis",
    "VerificationResult", "relative_error", "within_epsilon",
]


# Constants of the NPB generator: 2**-23, 2**-46, 2**23, 2**46.
R23 = 2.0 ** -23
R46 = R23 * R23
T23 = 2.0 ** 23
T46 = T23 * T23

#: default seed used across the suite (``seed = 314159265``)
DEFAULT_SEED = 314159265.0

#: multiplier ``a = 5**13`` of the NPB generator
LCG_MULTIPLIER = 1220703125.0


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

    Used to jump the generator ahead by ``exponent`` steps in O(log n)
    ``randlc`` calls; EP seeds every batch this way so batches can be
    generated independently (and, here, vectorised).
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


class RandlcStream:
    """Vectorised NPB random stream with jump-ahead.

    The sequential recurrence ``x_{k+1} = a * x_k mod 2**46`` implies
    ``x_k = (a**k mod 2**46) * x_0 mod 2**46``.  The constructor builds the
    table ``a**k mod 2**46`` for ``k < block`` once, by doubling:
    ``a**(f + j) = a**j * a**f`` fills ``[f, 2f)`` from ``[0, f)`` in one
    vectorised product.  :meth:`uniforms` then produces any block of the
    stream with pure NumPy arithmetic.  Both use the same 23-bit split
    modular product as ``randlc``, which is exact integer arithmetic, so
    the table and the stream match the sequential reference bitwise.
    """

    def __init__(self, block: int, a: float = LCG_MULTIPLIER) -> None:
        if block < 1:
            raise ValueError("block size must be positive")
        self.block = int(block)
        self.a = float(a)
        powers = np.empty(self.block, dtype=np.float64)
        powers[0] = 1.0
        filled, a_filled = 1, self.a          # a_filled = a**filled mod 2**46
        while filled < self.block:
            count = min(filled, self.block - filled)
            powers[filled:filled + count] = self._mod_mul(powers[:count],
                                                          a_filled)
            a_filled = float(self._mod_mul(np.array([a_filled]), a_filled)[0])
            filled += count
        self._powers = powers

    @staticmethod
    def _mod_mul(a: np.ndarray, x: float) -> np.ndarray:
        """Vectorised ``a * x mod 2**46`` with the reference bit splitting."""
        a = np.asarray(a, dtype=np.float64)
        a1 = np.floor(R23 * a)
        a2 = a - T23 * a1
        x1 = float(int(R23 * x))
        x2 = x - T23 * x1
        t1 = a1 * x2 + a2 * x1
        t2 = np.floor(R23 * t1)
        z = t1 - T23 * t2
        t3 = T23 * z + a2 * x2
        t4 = np.floor(R46 * t3)
        return t3 - T46 * t4

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
        # x_k = a^k * seed mod 2**46 for k = 1..n
        states = self._mod_mul(self._powers[:n], self._mod_mul(
            np.array([self.a]), seed_state)[0])
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

def relative_error(value: float, reference: float) -> float:
    """NPB-style relative error ``|(value - reference) / reference|``."""
    if reference == 0.0:
        return abs(value)
    return abs((value - reference) / reference)


def within_epsilon(value: float, reference: float, epsilon: float) -> bool:
    """True when ``value`` matches ``reference`` within relative ``epsilon``."""
    return relative_error(value, reference) <= epsilon


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
