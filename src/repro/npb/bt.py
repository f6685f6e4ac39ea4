"""BT -- Block Tri-diagonal pseudo-application port.

Checkpoint variables (paper Table I, class S)::

    double u[12][13][13][5]
    int    step

The paper finds 1500 of the 10140 elements of ``u`` uncritical (14.8 %):
exactly the padded planes at ``j == 12`` and ``i == 12`` that the
``error_norm`` and solver loops never touch (Figures 2 and 3).  This port
reproduces that access structure; see :mod:`repro.npb.structured` for the
shared BT/SP driver.
"""

from __future__ import annotations

from .params import BTParams, params_for
from .structured import StructuredPDEBenchmark

__all__ = ["BT"]


class BT(StructuredPDEBenchmark):
    """Block Tri-diagonal solver surrogate.

    The block character of the original ADI solver is represented by a
    uniform (component-coupled) damping of the interior update; the data
    accesses -- which drive the criticality analysis -- follow the original
    ``compute_rhs`` / ``add`` / ``error_norm`` index ranges.
    """

    name = "BT"
    step_name = "step"
    nonlinear_coeff = 0.1

    def __init__(self, params: BTParams | None = None,
                 problem_class: str = "S") -> None:
        super().__init__(params or params_for("BT", problem_class))

    def _solver_damping(self, speed):
        # Block tri-diagonal solve: one implicit factor shared by all five
        # components; a constant under-relaxation models its effect on the
        # explicit update without changing which elements are read.
        del speed
        return 0.9
