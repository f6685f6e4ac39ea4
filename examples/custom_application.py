#!/usr/bin/env python3
"""Scrutinizing your own application's checkpoint variables.

The NPB ports are just one family of workloads; any restartable simulation
can be analysed by implementing the four :class:`repro.npb.base.NPBBenchmark`
hooks against :mod:`repro.ad.ops`.  This example builds a small 2-D
heat-diffusion solver with a halo-padded temperature field and a
history buffer of which only a sampled subset is ever consumed -- two
realistic sources of uncritical checkpoint data -- and then:

* identifies the critical/uncritical elements with AD,
* visualises the distribution,
* writes a pruned checkpoint and restarts from it.

Run with::

    python examples/custom_application.py
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro import ckpt
from repro.ad import ops
from repro.core import CheckpointVariable, VariableKind, scrutinize
from repro.npb.base import NPBBenchmark
from repro.npb.common import VerificationResult
from repro.viz import describe_mask, legend, render_mask_2d


@dataclass(frozen=True)
class HeatParams:
    """Problem description of the toy heat solver."""

    problem_class: str = "demo"
    #: interior grid points per dimension (the array is padded by a halo of
    #: 2 on each side, but only a halo of 1 is ever read -- a deliberate
    #: "imperfect coding" pattern like the paper's padded NPB arrays)
    n: int = 24
    #: halo width actually allocated
    halo: int = 2
    #: number of time steps
    niter: int = 40
    #: diffusion number (stability requires <= 0.25 in 2-D)
    alpha: float = 0.2
    #: length of the history buffer; only every 4th entry is consumed
    history_len: int = 32

    @property
    def field_shape(self) -> tuple[int, int]:
        """Declared shape of the temperature field including the halo."""
        return (self.n + 2 * self.halo, self.n + 2 * self.halo)


class HeatDiffusion(NPBBenchmark):
    """Explicit 2-D heat diffusion with a sampled history buffer."""

    name = "HEAT"
    step_name = "step"
    epsilon = 1.0e-10

    def __init__(self, params: HeatParams | None = None) -> None:
        super().__init__(params or HeatParams())
        p = self.params
        y, x = np.meshgrid(np.linspace(0, 1, p.field_shape[0]),
                           np.linspace(0, 1, p.field_shape[1]),
                           indexing="ij")
        #: fixed heat source (regenerated at restart, not checkpointed)
        self._source = 0.05 * np.exp(-60.0 * ((x - 0.3) ** 2
                                              + (y - 0.6) ** 2))
        self._reference: float | None = None

    # -- Table-I-style inventory ---------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        p = self.params
        return (
            CheckpointVariable("temp", p.field_shape, VariableKind.FLOAT,
                               description="temperature field with a 2-cell "
                                           "halo of which only 1 is used"),
            CheckpointVariable("history", (p.history_len,),
                               VariableKind.FLOAT,
                               description="mean-temperature history; only "
                                           "every 4th entry is consumed"),
            CheckpointVariable("step", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="time-step counter"),
        )

    # -- dynamics -------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        p = self.params
        temp = np.zeros(p.field_shape)
        inner = slice(p.halo, -p.halo)
        temp[inner, inner] = 1.0 + 0.1 * np.sin(
            np.linspace(0, 3 * np.pi, p.n))[None, :]
        return {"temp": temp,
                "history": np.zeros(p.history_len),
                "step": 0}

    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        p = self.params
        lo, hi = p.halo, p.halo + p.n
        temp = state["temp"]
        center = temp[lo:hi, lo:hi]
        lap = (temp[lo - 1:hi - 1, lo:hi] + temp[lo + 1:hi + 1, lo:hi]
               + temp[lo:hi, lo - 1:hi - 1] + temp[lo:hi, lo + 1:hi + 1]
               - 4.0 * center)
        updated = center + p.alpha * lap + self._source[lo:hi, lo:hi]
        new_temp = ops.index_update(temp, (slice(lo, hi), slice(lo, hi)),
                                    updated)
        step = int(state["step"]) + 1
        new_history = ops.index_update(state["history"],
                                       (step - 1) % p.history_len,
                                       ops.mean(updated))
        return {"temp": new_temp, "history": new_history, "step": step}

    # -- output / verification -------------------------------------------
    def output(self, state: Mapping[str, Any]):
        p = self.params
        lo, hi = p.halo, p.halo + p.n
        # only every 4th history entry feeds the output (sampling)
        sampled = state["history"][0:p.history_len:4]
        return ops.sum(ops.square(state["temp"][lo:hi, lo:hi])) \
            + ops.sum(sampled)

    def verify(self, state: Mapping[str, Any]) -> VerificationResult:
        if self._reference is None:
            final = self.run(self.initial_state(), self.total_steps)
            self._reference = float(ops.to_numpy(self.output(final)))
        value = float(ops.to_numpy(self.output(state)))
        rel = abs(value - self._reference) / abs(self._reference)
        return VerificationResult(self.name, rel <= self.epsilon,
                                  self.epsilon, {"output": rel})


def main() -> int:
    bench = HeatDiffusion()
    print(bench.describe())

    print("\n[1/3] element-level criticality analysis")
    result = scrutinize(bench)
    print(result.describe())

    temp_mask = result.variables["temp"].mask
    history_mask = result.variables["history"].mask
    print("\n" + legend())
    print("temperature field (note the unused outer halo ring):")
    print(render_mask_2d(temp_mask))
    print("\nhistory buffer:", describe_mask(history_mask))

    print("\n[2/3] pruned checkpoint")
    workdir = Path(tempfile.mkdtemp(prefix="repro_heat_"))
    written = ckpt.write_pruned_checkpoint(
        workdir / "heat.ckpt", bench, result.state, result.variables,
        step=result.step)
    print(f"wrote {written.path} ({written.nbytes} bytes; full checkpoint "
          f"would be {result.full_nbytes} bytes, "
          f"{100 * result.storage_saved_fraction:.1f}% saved)")

    print("\n[3/3] restart from the pruned checkpoint")
    outcome = ckpt.restart_benchmark(bench, written.path)
    print(outcome.summary())
    return 0 if outcome.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
