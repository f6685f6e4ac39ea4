"""CG -- Conjugate Gradient (eigenvalue estimation) port.

Checkpoint variables (paper Table I, class S)::

    double x[1402]
    int    it

The benchmark estimates the smallest eigenvalue of a sparse symmetric
positive-definite matrix with inverse power iteration; every outer (main
loop) iteration solves ``A z = x`` with a fixed number of conjugate-gradient
iterations, updates ``zeta = shift + 1 / (x . z)`` and normalises ``x`` for
the next iteration.

The paper's finding this port reproduces (Table II, Figure 6): the iterate
vector is declared with ``NA + 2 = 1402`` slots but only the first
``NA = 1400`` participate in any computation, so exactly 2 trailing elements
are uncritical (0.1 %).

The class-S sparse matrix of the original is generated by ``makea`` from the
``randlc`` stream; here the matrix is a deterministic function of the
problem parameters with the same structural properties (symmetric positive
definite, ``nonzer`` off-diagonal couplings on each side of the diagonal plus
a diagonal shift), built once in the constructor -- it is not application
state and therefore not a checkpoint variable, exactly as in the original.
Like the original's compressed rows, it is stored sparse: by diagonals, with
every matvec (and its transpose in the reverse sweep) running through the
:func:`repro.ad.ops.banded_matvec` primitive in ``O(nonzer * NA)``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark

__all__ = ["CG"]


class CG(NPBBenchmark):
    """Conjugate Gradient benchmark surrogate (see module docstring)."""

    name = "CG"
    step_name = "it"
    #: verification tolerance on zeta (NPB uses 1e-10 for CG)
    epsilon = 1.0e-10

    def __init__(self, params=None, problem_class: str = "S") -> None:
        from .params import params_for

        super().__init__(params or params_for("CG", problem_class))
        self._bands, self._offsets = self._make_matrix()
        self._bands_t = ops.dia_transpose(self._bands, self._offsets)

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        return (
            CheckpointVariable("x", (self.params.x_len,), VariableKind.FLOAT,
                               description="iterate of the inverse power "
                                           "iteration (declared NA + 2, "
                                           "only NA used)"),
            CheckpointVariable("it", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop index"),
        )

    # ------------------------------------------------------------------
    # constant data
    # ------------------------------------------------------------------
    def _make_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Deterministic SPD matrix with ``nonzer`` couplings per row.

        Stands in for the original ``makea``: a symmetric band matrix with
        ``nonzer`` random off-diagonals on each side, made strictly
        diagonally dominant so the embedded conjugate-gradient solves
        converge quickly.  Returned by diagonals, the layout
        :func:`repro.ad.ops.banded_matvec` consumes: ``bands[d, i] =
        A[i, i + offsets[d]]`` for the ``2 * nonzer + 1`` offsets
        ``-nonzer .. nonzer``, so a matvec costs ``O(nonzer * na)`` and no
        ``na x na`` array is ever built.  The access pattern the
        criticality analysis cares about -- "the first NA entries of ``x``
        are read, the last two never" -- does not depend on the storage.
        """
        n = self.params.na
        nonzer = self.params.nonzer
        offsets = tuple(range(-nonzer, nonzer + 1))
        bands = np.zeros((len(offsets), n), dtype=np.float64)
        rng = np.random.default_rng(19940704)
        for offset in range(1, nonzer + 1):
            coupling = 0.5 ** offset
            values = coupling * (0.5 + rng.random(n - offset))
            # A[i, i + offset] = A[i + offset, i] = values[i]
            bands[nonzer + offset, :n - offset] = values
            bands[nonzer - offset, offset:] = values
        bands[nonzer] = np.abs(bands).sum(axis=0) + self.params.shift
        return bands, offsets

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        x = np.ones(self.params.x_len, dtype=np.float64)
        # the two trailing slots keep their declared-but-unused fill value
        x[self.params.na:] = 1.0
        return {"x": x, "it": 0}

    # ------------------------------------------------------------------
    # solver pieces
    # ------------------------------------------------------------------
    def _matvec(self, v: Any) -> Any:
        """``A @ v`` through the banded primitive."""
        return ops.banded_matvec(self._bands, self._offsets, v,
                                 self._bands_t)

    def _conj_grad(self, x_used: Any) -> tuple[Any, Any]:
        """Run ``cgit`` conjugate-gradient iterations on ``A z = x``.

        Returns ``(z, rnorm)`` where ``rnorm`` is the final residual norm
        (the quantity the original prints per iteration).  Written entirely
        against :mod:`repro.ad.ops` so the whole solve is differentiable with
        respect to the right-hand side ``x_used``.
        """
        z = ops.zeros(self.params.na)
        r = ops.copy(x_used)
        p = ops.copy(x_used)
        rho = ops.sum(ops.square(r))
        for _ in range(self.params.cgit):
            q = self._matvec(p)
            alpha = rho / ops.sum(p * q)
            z = z + alpha * p
            r = r - alpha * q
            rho_new = ops.sum(ops.square(r))
            beta = rho_new / rho
            p = r + beta * p
            rho = rho_new
        resid = x_used - self._matvec(z)
        rnorm = ops.sqrt(ops.sum(ops.square(resid)))
        return z, rnorm

    def _zeta(self, x_used: Any, z: Any):
        """``zeta = shift + 1 / (x . z)`` -- the benchmark's output value."""
        return self.params.shift + 1.0 / ops.sum(x_used * z)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        na = self.params.na
        x = state["x"]
        x_used = x[0:na]
        z, _rnorm = self._conj_grad(x_used)
        norm = ops.sqrt(ops.sum(ops.square(z)))
        x_next_used = z / norm
        x_new = ops.index_update(x, slice(0, na), x_next_used)
        return {"x": x_new, "it": int(state["it"]) + 1}

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def output(self, state: Mapping[str, Any]):
        """Scalar output: zeta of one more solve from the current iterate."""
        na = self.params.na
        x_used = state["x"][0:na]
        z, rnorm = self._conj_grad(x_used)
        return self._zeta(x_used, z) + 1.0e-6 * rnorm

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        return {"zeta": float(ops.to_numpy(self.output(final)))}
