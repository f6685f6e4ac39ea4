"""MG -- MultiGrid (V-cycle Poisson solver) port.

Checkpoint variables (paper Table I, class S)::

    double u[46480]
    double r[46480]
    int    it

The original NPB MG stores the whole multigrid hierarchy of the solution
``u`` and the residual ``r`` in flat arrays addressed through per-level
offset tables; class S declares 46480 slots.  The paper's findings this port
reproduces (Table II, Figures 4 and 5):

* ``u``: 7176 of 46480 elements uncritical.  Only the finest level -- a
  34x34x34 block of 39304 elements at offset 0 -- is ever *read* between a
  restart point and the verification output; the coarser-level blocks and
  the allocation tail are (re)written by the V-cycle before any read, so
  their checkpointed values cannot influence the output (Figure 4: one
  critical prefix followed by one uncritical tail).
* ``r``: 10543 of 46480 elements uncritical.  The first consumer of the
  checkpointed residual is the restriction sweep at the top of the V-cycle,
  which (like the original ``rprj3`` loop bounds) only reads indices
  ``0 .. 32`` of each dimension of the finest 34x34x34 block -- a 33x33x33
  sub-block of 35937 elements.  In the flat layout this produces the
  repetitive critical/uncritical stripe pattern of Figure 5 (33 critical, 1
  uncritical, repeating, with whole uncritical planes every 34 stripes),
  and leaves the coarser levels and the tail uncritical exactly as for
  ``u``.

Per-iteration structure mirroring the original ``mg3P`` + ``resid`` loop:

1. restrict the current (checkpointed, on the first restart iteration)
   residual down the level hierarchy, *writing* every coarser-level block of
   ``r``;
2. smooth a correction on every coarser level, *writing* the coarser-level
   blocks of ``u``;
3. prolongate the corrections back to the finest grid and update the finest
   block of ``u``;
4. recompute the finest-level residual ``r = v - A u`` with the 27-point
   operator, overwriting the full finest block of ``r``.

The right-hand side ``v`` is a deterministic function of the problem
parameters (the original regenerates it with ``zran3`` from a fixed seed),
so it is not a checkpoint variable.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark, concrete_state
from .common import VerificationResult, matmul_along_axis

__all__ = ["MG"]


#: value stored in never-written slots of the flat arrays at initialisation
_FILL = 0.0


def _stencil_weights() -> np.ndarray:
    """Weights of the 27-point discrete Laplacian used by the port.

    The original MG ``resid`` operator couples the centre point to all 26
    neighbours with one weight per neighbour class (centre, face, edge,
    corner).  Any strictly-nonzero weight per class reproduces the access
    pattern; the values below give a diagonally dominant operator so the
    V-cycle iteration stays bounded.
    """
    w = np.empty((3, 3, 3), dtype=np.float64)
    for dk in range(3):
        for dj in range(3):
            for di in range(3):
                dist = abs(dk - 1) + abs(dj - 1) + abs(di - 1)
                w[dk, dj, di] = {0: -3.0, 1: 0.25, 2: 0.125, 3: 0.0625}[dist]
    return w


class MG(NPBBenchmark):
    """MultiGrid V-cycle solver surrogate (see module docstring)."""

    name = "MG"
    #: verification tolerance (NPB uses 1e-8 for MG's residual norm check)
    epsilon = 1.0e-8
    #: weight of the prolongated coarse corrections (negative because the
    #: 27-point operator has a negative diagonal, like a Jacobi step)
    correction_weight = -0.05
    #: weight of the fine-grid smoothing step (damped Jacobi, 1/diag < 0)
    smoothing_weight = -0.3

    def __init__(self, params=None, problem_class: str = "S") -> None:
        from .params import params_for

        super().__init__(params or params_for("MG", problem_class))
        p = self.params
        sizes = p.level_sizes()
        self._fine = sizes[0]
        self._coarse_sizes = sizes[1:]
        self._offsets = p.level_offsets()
        self._weights = _stencil_weights()
        self._v = self._right_hand_side()
        self._restriction = [self._transfer_matrix(self._fine - 1, n)
                             for n in self._coarse_sizes]
        self._prolongation = [self._transfer_matrix(n, self._fine)
                              for n in self._coarse_sizes]
        self._reference: dict[str, float] | None = None

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        nr = self.params.nr
        return (
            CheckpointVariable("u", (nr,), VariableKind.FLOAT,
                               description="solution of the 3-D discrete "
                                           "Poisson equation (flat "
                                           "multigrid hierarchy)"),
            CheckpointVariable("r", (nr,), VariableKind.FLOAT,
                               description="residual of the equation (flat "
                                           "multigrid hierarchy)"),
            CheckpointVariable("it", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop (V-cycle) index"),
        )

    # ------------------------------------------------------------------
    # constant data
    # ------------------------------------------------------------------
    def _right_hand_side(self) -> np.ndarray:
        """Deterministic +/-1 charge distribution standing in for ``zran3``.

        The original places +1 / -1 charges at the extrema of a fixed random
        field; the locations are reproducible from the seed, so ``v`` is a
        constant of the problem, not a checkpoint variable.  We place an
        equal number of positive and negative unit charges at pseudo-random
        interior positions drawn from a fixed-seed generator, plus a smooth
        low-amplitude background that breaks any accidental symmetry (so no
        finite difference of the solution is coincidentally zero).
        """
        n = self._fine
        rng = np.random.default_rng(20240314)
        v = np.zeros((n, n, n), dtype=np.float64)
        n_charges = 10
        interior = rng.choice((n - 2) ** 3, size=2 * n_charges, replace=False)
        for rank, flat in enumerate(interior):
            k, rem = divmod(int(flat), (n - 2) ** 2)
            j, i = divmod(rem, n - 2)
            v[k + 1, j + 1, i + 1] = 1.0 if rank < n_charges else -1.0
        axis = np.linspace(0.0, 1.0, n)
        background = (1.0e-3 * np.sin(2.3 * axis[:, None, None] + 0.1)
                      * np.cos(1.7 * axis[None, :, None] + 0.2)
                      * np.sin(1.1 * axis[None, None, :] + 0.3))
        return v + background

    def _transfer_matrix(self, n_from: int, n_to: int) -> np.ndarray:
        """Dense inter-grid transfer operator along one axis.

        Rows are normalised tent (hat) weights centred on the target points,
        widened so every source point receives a strictly positive weight --
        the property that guarantees every restricted element influences the
        coarse correction (and hence the output), mirroring how the original
        full-weighting stencils touch every fine point.
        """
        src = np.linspace(0.0, 1.0, n_from)
        dst = np.linspace(0.0, 1.0, n_to)
        width = max(1.0 / max(n_to - 1, 1), 1.0 / max(n_from - 1, 1))
        weights = np.maximum(1.0 - np.abs(dst[:, None] - src[None, :]) / width,
                             0.0) + 1.0e-3
        return weights / weights.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        nr = self.params.nr
        n = self._fine
        u_flat = np.full(nr, _FILL, dtype=np.float64)
        r_flat = np.full(nr, _FILL, dtype=np.float64)
        # initial guess: zero solution, so the initial residual equals v
        u0 = np.zeros((n, n, n), dtype=np.float64)
        r0 = self._v - self._apply_operator(u0)
        u_flat[: n ** 3] = u0.reshape(-1)
        r_flat[: n ** 3] = np.asarray(r0).reshape(-1)
        return {"u": u_flat, "r": r_flat, "it": 0}

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _apply_operator(self, u3: Any) -> Any:
        """27-point operator ``A u`` on the interior, zero on the boundary.

        Evaluating the stencil at every interior point reads all ``n**3``
        elements of ``u3`` (the corner elements are reached through the
        diagonal couplings), which is what makes the whole finest block of
        ``u`` critical.
        """
        n = self._fine
        total = None
        for dk in range(3):
            for dj in range(3):
                for di in range(3):
                    w = self._weights[dk, dj, di]
                    term = w * u3[dk:n - 2 + dk, dj:n - 2 + dj, di:n - 2 + di]
                    total = term if total is None else total + term
        out = ops.index_update(
            np.zeros((n, n, n), dtype=np.float64),
            (slice(1, n - 1), slice(1, n - 1), slice(1, n - 1)), total)
        return out

    def _axis_map(self, matrix: np.ndarray, field: Any) -> Any:
        """Apply ``matrix`` along every axis of a cubic 3-D field."""
        for axis in range(3):
            field = matmul_along_axis(matrix, field, axis)
        return field

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        n = self._fine
        nr = self.params.nr
        u_flat, r_flat = state["u"], state["r"]

        u_fine = ops.reshape(u_flat[0: n ** 3], (n, n, n))
        # 1. restriction: rprj3-style loop bounds read only indices 0..n-2 of
        #    each dimension of the finest residual block (Figure 5).
        r_fine = ops.reshape(r_flat[0: n ** 3], (n, n, n))
        work = r_fine[0: n - 1, 0: n - 1, 0: n - 1]

        new_u = ops.copy(u_flat) if isinstance(u_flat, np.ndarray) else u_flat
        new_r = ops.copy(r_flat) if isinstance(r_flat, np.ndarray) else r_flat

        correction = None
        for level, n_c in enumerate(self._coarse_sizes):
            coarse = self._axis_map(self._restriction[level], work)
            offset = self._offsets[level + 1]
            # write the restricted residual into the coarser-level block
            new_r = ops.index_update(new_r,
                                     slice(offset, offset + n_c ** 3),
                                     ops.ravel(coarse))
            # smooth a correction on this level (damped-Jacobi single sweep;
            # the weight carries the 1/diag sign of the operator)
            smooth = self.correction_weight * coarse
            new_u = ops.index_update(new_u,
                                     slice(offset, offset + n_c ** 3),
                                     ops.ravel(smooth))
            # prolongate back to the finest grid and accumulate
            prolonged = self._axis_map(self._prolongation[level], smooth)
            correction = prolonged if correction is None \
                else correction + prolonged

        # 3. fine-grid update: prolongated corrections + one smoothing step
        residual_now = self._v - self._apply_operator(u_fine)
        u_new_fine = (u_fine + correction
                      + self.smoothing_weight * residual_now)

        # 4. recompute the finest residual from the updated solution,
        #    overwriting the whole finest block of r
        r_new_fine = self._v - self._apply_operator(u_new_fine)

        new_u = ops.index_update(new_u, slice(0, n ** 3),
                                 ops.ravel(u_new_fine))
        new_r = ops.index_update(new_r, slice(0, n ** 3),
                                 ops.ravel(r_new_fine))
        # the allocation tail beyond the level layout is never touched
        del nr
        return {"u": new_u, "r": new_r, "it": int(state["it"]) + 1}

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _residual_norm(self, u_flat: Any):
        """L2 norm of ``v - A u`` over the finest grid (the MG verification
        value ``rnm2``)."""
        n = self._fine
        u_fine = ops.reshape(u_flat[0: n ** 3], (n, n, n))
        resid = self._v - self._apply_operator(u_fine)
        return ops.sqrt(ops.sum(ops.square(resid)) / float(n ** 3))

    def _solution_norm(self, u_flat: Any):
        """Weighted solution norm; reads every element of the finest block."""
        n = self._fine
        u_fine = ops.reshape(u_flat[0: n ** 3], (n, n, n))
        axis = np.linspace(0.5, 1.5, n)
        weights = (axis[:, None, None] * axis[None, :, None]
                   * axis[None, None, :])
        return ops.sum(ops.square(u_fine) * weights) / float(n ** 3)

    def output(self, state: Mapping[str, Any]):
        u_flat = state["u"]
        return self._residual_norm(u_flat) + 0.01 * self._solution_norm(u_flat)

    def _reference_values(self) -> dict[str, float]:
        if self._reference is None:
            final = concrete_state(self.run(self.initial_state(),
                                            self.total_steps))
            self._reference = {
                "rnm2": float(ops.to_numpy(self._residual_norm(final["u"]))),
                "unorm": float(ops.to_numpy(self._solution_norm(final["u"]))),
            }
        return self._reference

    def verify(self, state: Mapping[str, Any]) -> VerificationResult:
        reference = self._reference_values()
        final = concrete_state(state)
        got = {
            "rnm2": float(ops.to_numpy(self._residual_norm(final["u"]))),
            "unorm": float(ops.to_numpy(self._solution_norm(final["u"]))),
        }
        details: dict[str, float] = {}
        passed = True
        for key, ref in reference.items():
            denom = abs(ref) if ref != 0.0 else 1.0
            rel = abs(got[key] - ref) / denom
            details[key] = float(rel)
            if not np.isfinite(rel) or rel > self.epsilon:
                passed = False
        return VerificationResult(self.name, passed, self.epsilon, details)
