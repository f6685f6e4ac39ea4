"""Common driver for the BT and SP structured-grid pseudo-applications.

BT (Block Tri-diagonal) and SP (Scalar Pentadiagonal) share their data
layout, their checkpoint variables (Table I: ``u[12][13][13][5]`` plus the
main-loop index) and their verification structure; they differ in the
implicit solver used between the shared ``compute_rhs`` / ``error_norm``
phases.  For the purposes of the checkpoint-criticality analysis what matters
is *which elements are read between a restart point and the verification
output*; this driver reproduces those access patterns with an explicit
relaxation solver whose per-iteration work mirrors the original structure:

1. a full-grid auxiliary sweep (``rho_i`` / ``qs`` / ``speed`` in the
   originals) that reads every component of ``u`` on ``[0:gp, 0:gp, 0:gp]``;
2. an interior right-hand-side evaluation (7-point stencil + nonlinear term
   + forcing);
3. an interior solution update;
4. at verification time, an ``error_norm`` over the full used sub-grid and a
   residual norm over the interior.

The padded slots at ``j == 12`` and ``i == 12`` are never touched by any of
these phases, which is exactly what makes them uncritical (Figure 3 of the
paper).

Subclasses (:class:`repro.npb.bt.BT`, :class:`repro.npb.sp.SP`) only supply
their constants.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark
from .pde_common import (exact_field, forcing_field, initial_field,
                         laplacian_interior)

__all__ = ["StructuredPDEBenchmark"]


class StructuredPDEBenchmark(NPBBenchmark):
    """Shared implementation of the BT/SP ports (see module docstring)."""

    #: name of the integer main-loop counter ("step" for BT and SP)
    step_name: str = "step"
    #: strength of the quadratic coupling term in the right-hand side
    nonlinear_coeff: float = 0.1
    #: verification tolerance (NPB uses 1e-8 for the pseudo-applications)
    epsilon: float = 1.0e-8
    #: ``details`` keys ``error[m]``/``residual[m]`` of the two norms
    detail_labels = {"error_rms": "error", "residual_rms": "residual"}

    def __init__(self, params) -> None:
        super().__init__(params)
        gp = params.grid_points
        self._exact = exact_field(params.u_shape, gp)
        self._forcing = forcing_field(params.u_shape, gp, self.nonlinear_coeff)

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        return (
            CheckpointVariable(
                name="u", shape=self.params.u_shape, kind=VariableKind.FLOAT,
                description="solution of the nonlinear PDE system"),
            CheckpointVariable(
                name=self.step_name, shape=(), kind=VariableKind.INTEGER,
                dtype=np.int64, critical_by_rule=True,
                description="main-loop index"),
        )

    # ------------------------------------------------------------------
    # state and dynamics
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        return {"u": initial_field(self.params.u_shape,
                                   self.params.grid_points),
                self.step_name: 0}

    def _auxiliary_sweep(self, u: Any) -> tuple[Any, Any]:
        """Full-grid auxiliary quantities (the rho_i / qs / speed sweep).

        Reads every component of ``u`` on the used sub-grid, like the first
        loop of the original ``compute_rhs``.
        """
        gp = self.params.grid_points
        block = u[0:gp, 0:gp, 0:gp, :]
        rho_inv = 1.0 / block[..., 0:1]
        qs = 0.5 * (ops.square(block[..., 1:2]) + ops.square(block[..., 2:3])
                    + ops.square(block[..., 3:4])) * rho_inv
        speed = ops.sqrt(ops.absolute(block[..., 4:5]) * rho_inv + 1.0)
        return qs, speed

    def _rhs_interior(self, u: Any, qs: Any) -> Any:
        """Interior right-hand side: stencil + nonlinear coupling + forcing."""
        gp = self.params.grid_points
        lap = laplacian_interior(u, gp)
        center = u[1:gp - 1, 1:gp - 1, 1:gp - 1, :]
        q_int = qs[1:gp - 1, 1:gp - 1, 1:gp - 1, :]
        nonlinear = self.nonlinear_coeff * center * (q_int - center)
        forcing = self._forcing[1:gp - 1, 1:gp - 1, 1:gp - 1, :]
        return lap + nonlinear + forcing

    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        gp = self.params.grid_points
        u = state["u"]
        qs, speed = self._auxiliary_sweep(u)
        rhs = self._rhs_interior(u, qs)
        damping = self._solver_damping(speed)
        update = self.params.dt * damping * rhs
        # functional update: keeps the derivative trace regardless of which
        # subset of the state is being watched by the analysis
        interior = (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1),
                    slice(None))
        u_new = ops.index_update(u, interior, u[interior] + update)
        return {"u": u_new,
                self.step_name: int(state[self.step_name]) + 1}

    def _solver_damping(self, speed: Any) -> Any:
        """Solver-specific interior damping factor built from ``speed``.

        The default (used by BT) is a block-style constant factor; SP
        overrides this with a speed-dependent scalar factor, mirroring the
        scalar-pentadiagonal character of its solver.
        """
        gp = self.params.grid_points
        del speed, gp
        return 1.0

    # ------------------------------------------------------------------
    # verification output
    # ------------------------------------------------------------------
    def _error_rms(self, u: Any):
        """Per-component RMS of ``u - exact`` over the full used sub-grid."""
        gp = self.params.grid_points
        diff = u[0:gp, 0:gp, 0:gp, :] - self._exact[0:gp, 0:gp, 0:gp, :]
        denom = float((gp - 2) ** 3)
        return ops.sqrt(ops.sum(ops.square(diff), axis=(0, 1, 2)) / denom)

    def _residual_rms(self, u: Any):
        """Per-component RMS of the interior right-hand side."""
        gp = self.params.grid_points
        qs, _speed = self._auxiliary_sweep(u)
        rhs = self._rhs_interior(u, qs)
        denom = float((gp - 2) ** 3)
        return ops.sqrt(ops.sum(ops.square(rhs), axis=(0, 1, 2)) / denom)

    def output(self, state: Mapping[str, Any]):
        """Scalar verification output: summed error and residual norms."""
        u = state["u"]
        return ops.sum(self._error_rms(u)) + ops.sum(self._residual_rms(u))

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        """Per-component error and residual norms (NPB's ``xce``/``xcr``)."""
        u = final["u"]
        return {
            "error_rms": np.asarray(ops.to_numpy(self._error_rms(u))),
            "residual_rms": np.asarray(ops.to_numpy(self._residual_rms(u))),
        }
