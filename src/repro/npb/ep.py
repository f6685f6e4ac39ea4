"""EP -- Embarrassingly Parallel (Gaussian deviate) benchmark port.

Checkpoint variables (paper Table I, class S)::

    double sx, sy
    double q[10]
    int    k

Every main-loop iteration draws a batch of ``2**nk`` pairs of uniform
deviates from the NPB ``randlc`` stream seeded with NPB's EP seed
``271828183`` (each batch seeded independently by jumping the generator
ahead, which is what makes the benchmark embarrassingly parallel), converts
accepted pairs to independent Gaussian deviates with the Marsaglia polar
method, and accumulates

* ``sx`` / ``sy`` -- the sums of the Gaussian deviates in X and Y,
* ``q[l]``       -- the count of pairs whose largest coordinate magnitude
  falls in annulus ``l``.

All three are read-modify-write accumulators, so every element is critical
for checkpointing (EP therefore has no rows in the paper's Table II); the
loop counter ``k`` is critical by rule.  This port exists so the analysis,
the checkpoint library and the Section IV-C restart-verification experiment
cover the full 8-benchmark suite.

The uniform stream is the exact NPB generator (:mod:`repro.npb.common`), so
batches are bit-reproducible and restarting from a checkpoint continues the
identical stream.  Class S is NPB's class S, so :meth:`EP.verify` checks the
final ``sx`` and ``sy`` against NPB's published values with NPB's criterion
(relative error at most ``1e-8``) and the accepted-pair count against NPB's
class-S run.  Classes T and A have no published values; they are verified
against the values recorded from this port's own full runs (see
:mod:`repro.npb.reference`).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark
from .common import EP_SEED, RandlcStream, jump_ahead

__all__ = ["EP"]


class EP(NPBBenchmark):
    """Embarrassingly Parallel benchmark surrogate (see module docstring)."""

    name = "EP"
    step_name = "k"
    #: verification tolerance on the accumulated sums (NPB uses 1e-8)
    epsilon = 1.0e-8

    def __init__(self, params=None, problem_class: str = "S") -> None:
        from .params import params_for

        super().__init__(params or params_for("EP", problem_class))
        #: uniforms drawn per batch (two per candidate pair)
        self._batch_draws = 2 * (2 ** self.params.nk)
        self._stream = RandlcStream(self._batch_draws)

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        return (
            CheckpointVariable("sx", (), VariableKind.FLOAT,
                               description="sum of Gaussian deviates, X "
                                           "dimension"),
            CheckpointVariable("sy", (), VariableKind.FLOAT,
                               description="sum of Gaussian deviates, Y "
                                           "dimension"),
            CheckpointVariable("q", (self.params.nq,), VariableKind.FLOAT,
                               description="per-annulus pair counts"),
            CheckpointVariable("k", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop (batch) index"),
        )

    @property
    def total_steps(self) -> int:
        return self.params.n_batches

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        return {
            "sx": np.float64(0.0),
            "sy": np.float64(0.0),
            "q": np.zeros(self.params.nq, dtype=np.float64),
            "k": 0,
        }

    # ------------------------------------------------------------------
    # batch generation
    # ------------------------------------------------------------------
    def _batch_seed(self, batch: int) -> float:
        """Generator state immediately before batch ``batch`` (0-based).

        Batch ``b`` starts ``b * 2 * 2**nk`` draws after :data:`EP_SEED`;
        the jump-ahead multiplies ``a ** offset mod 2**46`` onto the seed,
        exactly as the original does per parallel chunk.
        """
        return jump_ahead(EP_SEED, batch * self._batch_draws)

    def _batch_sums(self, batch: int) -> tuple[float, float, np.ndarray]:
        """Gaussian sums and annulus counts contributed by one batch."""
        uniforms, _ = self._stream.uniforms(self._batch_seed(batch))
        x = 2.0 * uniforms[0::2] - 1.0
        y = 2.0 * uniforms[1::2] - 1.0
        t = x * x + y * y
        # one index array gathered three times beats three boolean masks
        accept = np.flatnonzero((t <= 1.0) & (t > 0.0))
        xa, ya, ta = x.take(accept), y.take(accept), t.take(accept)
        factor = np.sqrt(-2.0 * np.log(ta) / ta)
        gx = xa * factor
        gy = ya * factor
        annulus = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
        annulus = np.clip(annulus, 0, self.params.nq - 1)
        counts = np.bincount(annulus, minlength=self.params.nq).astype(
            np.float64)
        return float(gx.sum()), float(gy.sum()), counts

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        batch = int(state["k"])
        bsx, bsy, counts = self._batch_sums(batch)
        return {
            "sx": state["sx"] + bsx,
            "sy": state["sy"] + bsy,
            "q": state["q"] + counts,
            "k": batch + 1,
        }

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def output(self, state: Mapping[str, Any]):
        """Scalar output combining the sums and the annulus histogram."""
        weights = np.arange(1, self.params.nq + 1, dtype=np.float64)
        return (state["sx"] + state["sy"]
                + 1.0e-3 * ops.sum(state["q"] * weights))

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        """The Gaussian sums and the accepted-pair count ``gc``."""
        return {"sx": float(final["sx"]), "sy": float(final["sy"]),
                "gc": float(np.sum(final["q"]))}
