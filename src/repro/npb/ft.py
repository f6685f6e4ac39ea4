"""FT -- 3-D Fast Fourier Transform benchmark port.

Checkpoint variables (paper Table I, class S)::

    dcomplex y[64][64][65]
    dcomplex sums[6]
    int      kt

``dcomplex`` is the NPB struct of two doubles; in the state dict every
dcomplex variable is carried as a pair of float arrays ``<name>_re`` /
``<name>_im`` (see :class:`repro.core.variables.VariableKind.COMPLEX_PAIR`).

The benchmark computes the spectrum ``y`` of a random initial field once,
then for every main-loop iteration ``t`` evolves the spectrum with the
analytic heat-kernel factor, transforms back to physical space and
accumulates a checksum over a fixed set of sample points into ``sums[t]``.
``y`` itself is never modified, so it must be checkpointed; ``sums`` is
accumulated into (read-modify-write), so every entry of its checkpointed
value is critical.

The paper's finding this port reproduces (Table II, Figure 8): ``y`` is
declared ``64 x 64 x 65`` -- one padding plane on the last dimension -- but
only ``k = 0 .. 63`` is ever read, leaving exactly the ``64 x 64`` top layer
(4096 elements, 1.5 %) uncritical.

Substitutions: the random initial field uses a fixed-seed NumPy generator
instead of ``vranlc``; the inverse transform is, as in NPB, a 3-D FFT --
NumPy's, through the differentiable primitive
:func:`repro.ad.ops.ifftn_sampled`, which scales the real/imaginary planes
by the evolution factor into a small complex buffer one cache-sized slab at
a time, transforms the slab's last two axes, runs the first-axis pass only
on the lines that hold a checksum sample and returns only the samples, and
pulls cotangents back with the adjoint forward FFT, whose last-axis pass
likewise runs only on the sampled lines -- rather than the original Stockham
kernel; the checksum sample points are a fixed pseudo-random *proper* subset
instead of the original arithmetic progression, verified at construction so
that no spectral coefficient has an exactly-zero structural weight in the
checksum (see :meth:`FT._make_sample_indices`; sampling every grid point
would zero out every non-DC weight, since the full-field sum only sees the
DC coefficient).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad import ops
from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark

__all__ = ["FT"]


#: value stored in the padding plane ``y[:, :, nz]`` at initialisation
_PAD_FILL = 0.5


class FT(NPBBenchmark):
    """3-D FFT benchmark surrogate (see module docstring)."""

    name = "FT"
    step_name = "kt"
    #: verification tolerance on the per-iteration checksums (NPB uses 1e-12)
    epsilon = 1.0e-12
    #: number of checksum sample points per iteration (as in the original)
    n_samples = 1024

    def __init__(self, params=None, problem_class: str = "S") -> None:
        from .params import params_for

        super().__init__(params or params_for("FT", problem_class))
        p = self.params
        self._sample_indices = self._make_sample_indices()
        self._k_squared = self._wavenumber_squared()
        self._initial_spectrum = self._make_initial_spectrum()
        del p

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        p = self.params
        return (
            CheckpointVariable("y", p.y_shape, VariableKind.COMPLEX_PAIR,
                               description="spectrum of the initial field "
                                           "(padded to 65 on the last "
                                           "dimension)"),
            CheckpointVariable("sums", (p.niter,), VariableKind.COMPLEX_PAIR,
                               description="accumulated per-iteration "
                                           "checksums"),
            CheckpointVariable("kt", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop index"),
        )

    # ------------------------------------------------------------------
    # constant data
    # ------------------------------------------------------------------
    def _make_sample_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fixed pseudo-random checksum sample coordinates.

        The subset is drawn deterministically and *verified* to give every
        spectral coefficient a nonzero structural weight in the checksum:
        the weight of coefficient ``(i, j, k)`` is exactly the ``(i, j, k)``
        Fourier coefficient of the sample-indicator field, so a single
        ``fftn`` checks all of them at once.  Sampling the full grid (or any
        subset whose indicator has spectral zeros) would make the checksum
        mathematically independent of those coefficients, and whether a
        sweep then flags them critical would be decided by round-off noise
        rather than structure.  The subset is therefore capped to half the
        grid and redrawn until the verification passes.
        """
        p = self.params
        rng = np.random.default_rng(65537)
        total = p.nx * p.ny * p.nz
        count = min(self.n_samples, total // 2)
        while True:
            flat = rng.choice(total, size=count, replace=False)
            indicator = np.zeros(total, dtype=np.float64)
            indicator[flat] = 1.0
            weights = np.fft.fftn(indicator.reshape(p.nx, p.ny, p.nz))
            # exact spectral zeros show up at float noise (~count * eps);
            # genuine weights are O(sqrt(count)) random-walk sums
            if np.abs(weights).min() > 1.0e-6:
                break
        ki, rem = np.divmod(flat, p.ny * p.nz)
        kj, kk = np.divmod(rem, p.nz)
        return ki, kj, kk

    def _wavenumber_squared(self) -> np.ndarray:
        """Squared (signed) wavenumber magnitude on the logical grid."""
        p = self.params

        def freq(n: int) -> np.ndarray:
            k = np.arange(n)
            return np.where(k <= n // 2, k, k - n).astype(np.float64)

        fx = freq(p.nx)[:, None, None]
        fy = freq(p.ny)[None, :, None]
        fz = freq(p.nz)[None, None, :]
        return fx ** 2 + fy ** 2 + fz ** 2

    def _make_initial_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Forward 3-D DFT of the fixed random initial field (real/imag)."""
        p = self.params
        rng = np.random.default_rng(271828183)
        field = rng.random((p.nx, p.ny, p.nz))
        spectrum = np.fft.fftn(field)
        return np.ascontiguousarray(spectrum.real), \
            np.ascontiguousarray(spectrum.imag)

    def _evolution_factor(self, t: int) -> np.ndarray:
        """Heat-kernel damping factor ``exp(-4 alpha pi^2 t k^2)``, built in
        one grid-sized array."""
        factor = np.multiply(-4.0 * self.params.alpha * np.pi ** 2 * float(t),
                             self._k_squared)
        return np.exp(factor, out=factor)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        p = self.params
        y_re = np.full(p.y_shape, _PAD_FILL, dtype=np.float64)
        y_im = np.full(p.y_shape, _PAD_FILL, dtype=np.float64)
        spec_re, spec_im = self._initial_spectrum
        y_re[:, :, : p.nz] = spec_re
        y_im[:, :, : p.nz] = spec_im
        return {
            "y_re": y_re, "y_im": y_im,
            "sums_re": np.zeros(p.niter, dtype=np.float64),
            "sums_im": np.zeros(p.niter, dtype=np.float64),
            "kt": 0,
        }

    # ------------------------------------------------------------------
    # transform and checksum
    # ------------------------------------------------------------------
    def _checksum(self, y_re: Any, y_im: Any, t: int) -> Any:
        """Evolve the spectrum to time ``t``, transform it back to physical
        space and sum the field over the sample points: ``(re, im)``."""
        p = self.params
        # the evolution factor scales the spectrum inside the transform, and
        # only the sample points leave it: no evolved, stacked or
        # transformed grid reaches the tape
        samples = ops.ifftn_sampled(y_re[:, :, 0: p.nz], y_im[:, :, 0: p.nz],
                                    self._evolution_factor(t),
                                    self._sample_indices)
        return ops.sum(samples, axis=1) / float(p.nx * p.ny * p.nz)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        t = int(state["kt"]) + 1
        chk = self._checksum(state["y_re"], state["y_im"], t)
        sums_re = ops.index_update(state["sums_re"], t - 1,
                                   state["sums_re"][t - 1] + chk[0])
        sums_im = ops.index_update(state["sums_im"], t - 1,
                                   state["sums_im"][t - 1] + chk[1])
        return {
            "y_re": state["y_re"], "y_im": state["y_im"],
            "sums_re": sums_re, "sums_im": sums_im,
            "kt": t,
        }

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def output(self, state: Mapping[str, Any]):
        """Scalar output: magnitude of every accumulated checksum."""
        sums_re, sums_im = state["sums_re"], state["sums_im"]
        weights = np.linspace(1.0, 2.0, self.params.niter)
        return ops.sum((ops.square(sums_re) + ops.square(sums_im)) * weights)

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        """The complex checksums: NPB FT judges each one's relative error.

        ``sums_im`` alone is round-off noise (the initial field is real), so
        it is only judged against the magnitude of the complex checksum.
        """
        return {"sums": np.asarray(final["sums_re"], dtype=np.float64)
                + 1j * np.asarray(final["sums_im"], dtype=np.float64)}
