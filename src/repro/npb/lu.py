"""LU -- Lower-Upper symmetric Gauss-Seidel pseudo-application port.

Checkpoint variables (paper Table I, class S)::

    double u[12][13][13][5]
    double rho_i[12][13][13]
    double qs[12][13][13]
    double rsd[12][13][13][5]
    int    istep

The paper's findings this port reproduces (Table II, Figures 3 and 7):

* ``rho_i`` and ``qs``: 300 of 2028 elements uncritical -- the padded
  ``j == 12`` / ``i == 12`` planes (the SSOR sweep consumes the full
  ``[0:12, 0:12, 0:12]`` block).
* ``rsd``: 1500 of 10140 uncritical -- same planes for all five components.
* ``u``: 1628 of 10140 uncritical.  Components 0-3 follow the Figure 3
  pattern (they are read on the full used sub-grid when ``rho_i``/``qs`` are
  recomputed at the end of each iteration), while component 4 (total energy)
  is only read by the three directional energy-flux ranges
  ``u[1:11][1:11][0:12][4]``, ``u[1:11][0:12][1:11][4]`` and
  ``u[0:12][1:11][1:11][4]`` and is therefore uncritical on an additional 128
  edge elements (Figure 7).

Per-iteration structure mirroring the original ``ssor`` loop:

1. lower/upper triangular sweeps that consume ``rsd`` scaled by a diagonal
   factor built from ``rho_i`` and ``qs`` (so every element of the three
   arrays on the used sub-grid influences the interior update);
2. directional energy-flux differences reading ``u[..., 4]`` on the three box
   ranges;
3. interior update of ``u``;
4. end-of-iteration recomputation of ``rho_i``, ``qs`` (full used sub-grid,
   reading ``u`` components 0-3 everywhere) and of ``rsd`` (interior
   residual);
5. the verification output combines interior error norms, the residual norm
   and a flux-consistency term built from the recomputed auxiliary fields.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark
from .common import matmul_along_axis
from .params import LUParams, params_for
from .pde_common import (PADDING_FILL, exact_field, forcing_field,
                         initial_field, laplacian_interior)

__all__ = ["LU"]


class LU(NPBBenchmark):
    """Lower-Upper symmetric Gauss-Seidel solver surrogate."""

    name = "LU"
    step_name = "istep"
    #: verification tolerance (NPB uses 1e-8 for LU)
    epsilon = 1.0e-8
    #: strength of the quadratic coupling in the residual
    nonlinear_coeff = 0.08
    #: explicit relaxation factor applied to the interior residual update
    #: (kept well inside the stability limit of the 7-point stencil)
    relaxation = 0.05
    #: coupling constants of the sweep and energy-flux contributions; small
    #: enough to keep the explicit iteration stable, nonzero so every element
    #: they touch influences the output
    sweep_coupling = 2.0e-3
    energy_coupling = 1.0e-3
    #: geometric decay of the triangular substitution factors
    sweep_decay = 0.35

    def __init__(self, params: LUParams | None = None,
                 problem_class: str = "S") -> None:
        super().__init__(params or params_for("LU", problem_class))
        p = self.params
        self._exact = exact_field(p.u_shape, p.grid_points)
        self._forcing = forcing_field(p.u_shape, p.grid_points,
                                      self.nonlinear_coeff)
        self._lower = self._triangular_factor(lower=True)
        self._upper = self._triangular_factor(lower=False)

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        p = self.params
        return (
            CheckpointVariable("u", p.u_shape, VariableKind.FLOAT,
                               description="solution of the nonlinear PDE "
                                           "system"),
            CheckpointVariable("rho_i", p.scalar_field_shape,
                               VariableKind.FLOAT,
                               description="reciprocal density used by the "
                                           "SSOR relaxation"),
            CheckpointVariable("qs", p.scalar_field_shape, VariableKind.FLOAT,
                               description="dynamic-pressure field used for "
                                           "the flux differences"),
            CheckpointVariable("rsd", p.u_shape, VariableKind.FLOAT,
                               description="steady-state residual"),
            CheckpointVariable("istep", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop index"),
        )

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        u = initial_field(self.params.u_shape, self.params.grid_points)
        rho_i, qs = self._auxiliary_fields(u)
        rsd = self._residual(u)
        return {"u": u, "rho_i": rho_i, "qs": qs, "rsd": rsd, "istep": 0}

    def _triangular_factor(self, lower: bool) -> np.ndarray:
        """Decaying triangular substitution matrix for one sweep direction."""
        gp = self.params.grid_points
        idx = np.arange(gp)
        lag = idx[:, None] - idx[None, :]
        if not lower:
            lag = -lag
        factor = np.where(lag >= 0, self.sweep_decay ** lag, 0.0)
        return factor

    # ------------------------------------------------------------------
    # physics pieces
    # ------------------------------------------------------------------
    def _auxiliary_fields(self, u: Any) -> tuple[Any, Any]:
        """Recompute ``rho_i`` and ``qs`` from ``u`` (full used sub-grid).

        Mirrors the first loop of the original ``rhs``: reads components 0-3
        of ``u`` on ``[0:gp, 0:gp, 0:gp]`` and writes full declared-size
        fields whose padding keeps its initialisation value.
        """
        gp = self.params.grid_points
        block = u[0:gp, 0:gp, 0:gp, :]
        rho_inv = 1.0 / block[..., 0]
        q = 0.5 * (ops.square(block[..., 1]) + ops.square(block[..., 2])
                   + ops.square(block[..., 3])) * rho_inv
        rho_full = ops.index_update(
            np.full(self.params.scalar_field_shape, PADDING_FILL),
            (slice(0, gp), slice(0, gp), slice(0, gp)), rho_inv)
        qs_full = ops.index_update(
            np.full(self.params.scalar_field_shape, PADDING_FILL),
            (slice(0, gp), slice(0, gp), slice(0, gp)), q)
        return rho_full, qs_full

    def _residual(self, u: Any) -> Any:
        """Interior residual ``rsd`` of the relaxation dynamics."""
        gp = self.params.grid_points
        lap = laplacian_interior(u, gp)
        center = u[1:gp - 1, 1:gp - 1, 1:gp - 1, :]
        q_int = 0.5 * (ops.square(u[1:gp - 1, 1:gp - 1, 1:gp - 1, 1:2])
                       + ops.square(u[1:gp - 1, 1:gp - 1, 1:gp - 1, 2:3]))
        nonlinear = self.nonlinear_coeff * center * (q_int - center)
        forcing = self._forcing[1:gp - 1, 1:gp - 1, 1:gp - 1, :]
        interior = lap + nonlinear + forcing
        rsd = ops.index_update(
            np.full(self.params.u_shape, PADDING_FILL),
            (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1),
             slice(None)), interior)
        return rsd

    def _sweep(self, rsd: Any, rho_i: Any, qs: Any) -> Any:
        """Lower/upper triangular substitution surrogate.

        Consumes ``rsd`` scaled by a diagonal factor built from ``rho_i`` and
        ``qs`` over the full used sub-grid, then propagates along the three
        grid directions with decaying triangular factors (forward along k,
        backward along j, forward along i), so *every* consumed element --
        boundary corners included -- influences the interior update, exactly
        like the original forward/backward substitutions.
        """
        gp = self.params.grid_points
        block = rsd[0:gp, 0:gp, 0:gp, :]
        diag = 1.0 / (1.0 + 0.2 * rho_i[0:gp, 0:gp, 0:gp]
                      + 0.1 * qs[0:gp, 0:gp, 0:gp])
        d = block * ops.expand_dims(diag, -1)
        # forward (lower-triangular) followed by backward (upper-triangular)
        # substitution along every grid direction, as in the original SSOR;
        # the composition is a dense positive coupling, so every consumed
        # element -- boundary corners included -- reaches the interior update.
        for axis in range(3):
            d = matmul_along_axis(self._lower, d, axis)
            d = matmul_along_axis(self._upper, d, axis)
        return d

    def _energy_flux(self, u: Any) -> Any:
        """Directional energy-flux differences reading ``u[..., 4]`` on the
        three box ranges of Figure 7."""
        gp = self.params.grid_points
        flux_i = u[1:gp - 1, 1:gp - 1, 0:gp, 4]
        flux_j = u[1:gp - 1, 0:gp, 1:gp - 1, 4]
        flux_k = u[0:gp, 1:gp - 1, 1:gp - 1, 4]
        d_i = flux_i[:, :, 2:gp] - flux_i[:, :, 0:gp - 2]
        d_j = flux_j[:, 2:gp, :] - flux_j[:, 0:gp - 2, :]
        d_k = flux_k[2:gp, :, :] - flux_k[0:gp - 2, :, :]
        return d_i + d_j + d_k

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        p = self.params
        gp = p.grid_points
        u, rsd = state["u"], state["rsd"]
        rho_i, qs = state["rho_i"], state["qs"]

        # 1.-2. SSOR sweeps and energy-flux differences
        d = self._sweep(rsd, rho_i, qs)
        ener = self._energy_flux(u)

        # 3. interior update of u (the "add" phase)
        interior = (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1),
                    slice(None))
        update = (self.relaxation * self._residual(u)[interior]
                  + p.omega * self.sweep_coupling * d[1:gp - 1, 1:gp - 1,
                                                      1:gp - 1, :])
        # functional updates keep the derivative trace regardless of which
        # subset of the state is being watched by the analysis
        u_new = ops.index_update(u, interior, u[interior] + update)
        # energy component receives the flux coupling on top
        energy_slot = (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1), 4)
        u_new = ops.index_update(u_new, energy_slot,
                                 u_new[energy_slot]
                                 + self.energy_coupling * ener)

        # 4. recompute the auxiliary fields and the residual from the new u
        rho_new, qs_new = self._auxiliary_fields(u_new)
        rsd_new = self._residual(u_new)

        return {"u": u_new, "rho_i": rho_new, "qs": qs_new, "rsd": rsd_new,
                "istep": int(state["istep"]) + 1}

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _error_rms_interior(self, u: Any):
        """Per-component RMS of ``u - exact`` over the interior (the original
        LU ``error`` routine only visits interior points)."""
        gp = self.params.grid_points
        interior = (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1),
                    slice(None))
        diff = u[interior] - self._exact[interior]
        denom = float((gp - 2) ** 3)
        return ops.sqrt(ops.sum(ops.square(diff), axis=(0, 1, 2)) / denom)

    def _rsd_rms(self, rsd: Any):
        """Per-component RMS of the interior residual."""
        gp = self.params.grid_points
        interior = (slice(1, gp - 1), slice(1, gp - 1), slice(1, gp - 1),
                    slice(None))
        denom = float((gp - 2) ** 3)
        return ops.sqrt(ops.sum(ops.square(rsd[interior]), axis=(0, 1, 2))
                        / denom)

    def _flux_consistency(self, rho_i: Any, qs: Any):
        """Mean of the recomputed auxiliary fields over the used sub-grid
        (plays the role of the original surface-integral check)."""
        gp = self.params.grid_points
        block = (slice(0, gp), slice(0, gp), slice(0, gp))
        return ops.mean(rho_i[block]) + ops.mean(qs[block])

    def output(self, state: Mapping[str, Any]):
        u = state["u"]
        rho_i, qs = self._auxiliary_fields(u)
        rsd = self._residual(u)
        return (ops.sum(self._error_rms_interior(u))
                + ops.sum(self._rsd_rms(rsd))
                + 0.01 * self._flux_consistency(rho_i, qs))

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        u = final["u"]
        rho_i, qs = self._auxiliary_fields(u)
        return {
            "error_rms": np.asarray(ops.to_numpy(self._error_rms_interior(u))),
            "rsd_rms": np.asarray(ops.to_numpy(
                self._rsd_rms(self._residual(u)))),
            # one element, so its details key stays "flux[0]"
            "flux": np.atleast_1d(ops.to_numpy(
                self._flux_consistency(rho_i, qs))),
        }
