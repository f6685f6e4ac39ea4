"""Problem-class parameters for the NPB mini-app ports.

The paper evaluates with input class **S** because its array sizes are small
enough to visualise element-by-element.  This module records, per benchmark,
the class-S shapes from Table I of the paper (which match the SNU C version
of NPB 3.3) plus a reduced "T" (tiny) class used by the unit tests so the
full suite stays fast.  Class S is the default everywhere the paper's numbers
are reproduced (experiments and benchmarks).

Only the parameters the ports actually consume are modelled; compile-time
constants of the original codes that do not influence the checkpoint
analysis (cache-blocking factors, timer switches, ...) are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ProblemClass",
    "BTParams", "SPParams", "LUParams", "MGParams", "CGParams",
    "FTParams", "EPParams", "ISParams",
    "params_for",
    "check_problem_class",
    "CLASSES",
]


#: recognised problem classes; "S" reproduces the paper, "T" is a reduced
#: size for fast unit testing, "A" is the enlarged scenario unlocked by the
#: segmented reverse sweep (registered for the benchmarks where the larger
#: size is interesting: CG, FT, MG and SP scale their arrays, EP and IS
#: their main-loop length)
CLASSES = ("T", "S", "A")


class ProblemClass(str):
    """Thin string subtype for problem classes (documentation purposes)."""


@dataclass(frozen=True)
class BTParams:
    """Block Tri-diagonal solver (BT) parameters."""

    problem_class: str = "S"
    #: number of grid points per dimension actually used by the solver
    grid_points: int = 12
    #: leading (k) dimension of ``u``; equals ``grid_points``
    kmax: int = 12
    #: padded j/i dimensions of ``u`` (``IMAXP + 1`` in the C source)
    jmax: int = 13
    imax: int = 13
    #: main-loop iterations (``niter_default``)
    niter: int = 60
    #: pseudo-time step
    dt: float = 0.010
    #: number of PDE components
    ncomp: int = 5

    @property
    def u_shape(self) -> tuple[int, int, int, int]:
        """Shape of the solution array ``u`` (Table I: u[12][13][13][5])."""
        return (self.kmax, self.jmax, self.imax, self.ncomp)


@dataclass(frozen=True)
class SPParams:
    """Scalar Pentadiagonal solver (SP) parameters (same layout as BT)."""

    problem_class: str = "S"
    grid_points: int = 12
    kmax: int = 12
    jmax: int = 13
    imax: int = 13
    niter: int = 100
    dt: float = 0.015
    ncomp: int = 5

    @property
    def u_shape(self) -> tuple[int, int, int, int]:
        """Shape of the solution array ``u`` (Table I: u[12][13][13][5])."""
        return (self.kmax, self.jmax, self.imax, self.ncomp)


@dataclass(frozen=True)
class LUParams:
    """Lower-Upper symmetric Gauss-Seidel solver (LU) parameters."""

    problem_class: str = "S"
    grid_points: int = 12
    kmax: int = 12
    jmax: int = 13
    imax: int = 13
    niter: int = 50
    dt: float = 0.5
    #: SSOR relaxation factor
    omega: float = 1.2
    ncomp: int = 5

    @property
    def u_shape(self) -> tuple[int, int, int, int]:
        """Shape of ``u`` and ``rsd`` (Table I: [12][13][13][5])."""
        return (self.kmax, self.jmax, self.imax, self.ncomp)

    @property
    def scalar_field_shape(self) -> tuple[int, int, int]:
        """Shape of ``rho_i`` and ``qs`` (Table I: [12][13][13])."""
        return (self.kmax, self.jmax, self.imax)


@dataclass(frozen=True)
class MGParams:
    """MultiGrid (MG) parameters.

    The NPB MG code stores the whole multigrid hierarchy of ``u`` and ``r``
    in flat arrays; class S declares them with 46480 elements (the value the
    paper reports).  The finest level is a 34x34x34 block at offset 0 and
    each coarser level follows contiguously; the tail of the allocation is
    never touched, exactly as in the original code.
    """

    problem_class: str = "S"
    #: problem size of the finest grid (32**3 for class S)
    nx: int = 32
    #: number of multigrid levels (lt); level k has (2**k + 2)**3 points
    levels: int = 5
    #: declared length of the flat ``u`` and ``r`` arrays
    nr: int = 46480
    #: main-loop (V-cycle) iterations
    niter: int = 4
    #: smoother weights (c / a coefficient flavour of the original)
    smoother_weight: float = -0.25
    residual_weight: float = -0.5

    def level_sizes(self) -> list[int]:
        """Per-dimension padded size of each level, finest first."""
        return [2 ** k + 2 for k in range(self.levels, 0, -1)]

    def level_offsets(self) -> list[int]:
        """Flat-array offset of each level, finest first (finest at 0)."""
        offsets = []
        off = 0
        for n in self.level_sizes():
            offsets.append(off)
            off += n ** 3
        return offsets

    @property
    def used_elements(self) -> int:
        """Number of flat elements actually covered by the level layout."""
        return sum(n ** 3 for n in self.level_sizes())


@dataclass(frozen=True)
class CGParams:
    """Conjugate Gradient (CG) parameters."""

    problem_class: str = "S"
    #: order of the linear system (NA); ``x`` is declared with NA + 2 slots
    na: int = 1400
    #: declared length of the iterate vector ``x``
    x_len: int = 1402
    #: nonzeros per row used when generating the sparse matrix
    nonzer: int = 7
    #: outer (main-loop) iterations
    niter: int = 15
    #: inner conjugate-gradient iterations per outer iteration
    cgit: int = 25
    #: eigenvalue shift used by the benchmark
    shift: float = 10.0
    #: reference zeta for class S (used by the verification phase)
    zeta_verify: float = 8.5971775078648


@dataclass(frozen=True)
class FTParams:
    """3-D Fast Fourier Transform (FT) parameters.

    Class S uses a 64x64x64 grid; the checkpointed spectrum array ``y`` is
    declared 64x64x65 (one plane of padding on the last dimension), which is
    what creates the uncritical top layer of Figure 8.
    """

    problem_class: str = "S"
    nx: int = 64
    ny: int = 64
    #: padded extent of the last dimension of ``y``
    nz_pad: int = 65
    #: logical extent of the last dimension
    nz: int = 64
    #: main-loop iterations (number of checksums)
    niter: int = 6
    #: evolution constant alpha of the benchmark
    alpha: float = 1.0e-6

    @property
    def y_shape(self) -> tuple[int, int, int]:
        """Shape of ``y`` in dcomplex elements (Table I: [64][64][65])."""
        return (self.nx, self.ny, self.nz_pad)


@dataclass(frozen=True)
class EPParams:
    """Embarrassingly Parallel (EP) parameters.

    Class S draws ``2**m`` pairs of uniform deviates in batches of ``2**nk``
    and converts them to Gaussian pairs with the Marsaglia polar method,
    accumulating the sums ``sx`` and ``sy`` and the annulus counts ``q``.
    """

    problem_class: str = "S"
    #: log2 of the total number of pairs
    m: int = 24
    #: log2 of the batch size
    nk: int = 16
    #: number of annuli counted in ``q``
    nq: int = 10
    #: NPB's published class-S sums; NaN where NPB publishes none, and
    #: verification then compares against a reference run instead
    sx_verify: float = -3.247834652034740e3
    sy_verify: float = -6.958407078382297e3
    #: accepted-pair count ``sum(q)`` of NPB's class-S run
    gc_verify: float = 13176389.0

    @property
    def n_batches(self) -> int:
        """Number of main-loop iterations (batches of ``2**nk`` pairs)."""
        return 2 ** (self.m - self.nk)


@dataclass(frozen=True)
class ISParams:
    """Integer Sort (IS) parameters (Table I sizes for class S)."""

    problem_class: str = "S"
    #: number of keys to sort
    total_keys: int = 65536
    #: keys are drawn from [0, max_key)
    max_key: int = 2048
    #: number of buckets used by the bucketised ranking
    num_buckets: int = 512
    #: main-loop iterations
    niter: int = 10
    #: number of (rank, key) pairs spot-checked per iteration
    test_array_size: int = 5


_S_PARAMS = {
    "BT": BTParams(),
    "SP": SPParams(),
    "LU": LUParams(),
    "MG": MGParams(),
    "CG": CGParams(),
    "FT": FTParams(),
    "EP": EPParams(),
    "IS": ISParams(),
}

# A reduced problem class so unit tests exercise every code path quickly.
_T_PARAMS = {
    "BT": BTParams(problem_class="T", grid_points=6, kmax=6, jmax=7, imax=7,
                   niter=8),
    "SP": SPParams(problem_class="T", grid_points=6, kmax=6, jmax=7, imax=7,
                   niter=8),
    "LU": LUParams(problem_class="T", grid_points=6, kmax=6, jmax=7, imax=7,
                   niter=8),
    "MG": MGParams(problem_class="T", nx=8, levels=3, nr=1400, niter=2),
    "CG": CGParams(problem_class="T", na=60, x_len=62, nonzer=4, niter=4,
                   cgit=10, zeta_verify=float("nan")),
    "FT": FTParams(problem_class="T", nx=8, ny=8, nz_pad=9, nz=8, niter=3),
    "EP": EPParams(problem_class="T", m=12, nk=8,
                   sx_verify=float("nan"), sy_verify=float("nan"),
                   gc_verify=float("nan")),
    "IS": ISParams(problem_class="T", total_keys=2048, max_key=256,
                   num_buckets=64, niter=4),
}


# The enlarged "A" scenario: larger arrays and/or more main-loop iterations
# than class S.  Sized so a *segmented* reverse sweep analyses them
# comfortably while a monolithic tape of the whole remaining loop is an
# order of magnitude more memory-hungry -- the problem sizes the segmented
# sweep unlocks.  (The original NPB class-A dimensions are larger still;
# these keep the pure-numpy ports tractable while preserving the paper's
# structural findings: CG's two trailing slack slots, FT's padding plane.)
_A_PARAMS = {
    "CG": CGParams(problem_class="A", na=2800, x_len=2802, nonzer=9,
                   niter=30, cgit=25, shift=20.0,
                   zeta_verify=float("nan")),
    "FT": FTParams(problem_class="A", nx=96, ny=96, nz_pad=65, nz=64,
                   niter=10),
    # MG is the first stencil port with a class A: a 16**3 finest grid over
    # four V-cycle levels (the flat hierarchy uses 7112 of 7400 declared
    # slots) with twice the class-S iteration count -- the dense-stencil
    # tape regime the segmented sweep and the chained activity analysis
    # are for
    "MG": MGParams(problem_class="A", nx=16, levels=4, nr=7400, niter=8),
    # SP is the first ADI port with a class A: a 16**3 grid (past the
    # class-S 12**3, with the same one-plane jmax/imax padding) and a
    # 2.5x class-T iteration count -- per-iteration tapes dense enough
    # that the compiled replay plans' fusion/packing passes have real
    # elementwise chains to work on.  (BT stays class S/T only, keeping
    # the params_for error path for unregistered classes exercised.)
    "SP": SPParams(problem_class="A", grid_points=16, kmax=16, jmax=17,
                   imax=17, niter=20),
    # the two simple ports scale by loop length, not array size: EP's
    # class A doubles the class-S batch count (smaller batches keep the
    # per-iteration cost test-friendly), IS quadruples the ranked key
    # volume and the iteration count -- both are the long-main-loop regime
    # where the segmented sweep holds many boundary snapshots
    "EP": EPParams(problem_class="A", m=19, nk=10,
                   sx_verify=float("nan"), sy_verify=float("nan"),
                   gc_verify=float("nan")),
    "IS": ISParams(problem_class="A", total_keys=131072, max_key=4096,
                   num_buckets=1024, niter=40),
}


def check_problem_class(problem_class: str) -> None:
    """Raise ``ValueError`` unless ``problem_class`` is in :data:`CLASSES`."""
    if problem_class not in CLASSES:
        raise ValueError(f"unknown problem class {problem_class!r}; "
                         f"supported classes: {CLASSES}")


def params_for(benchmark: str, problem_class: str = "S"):
    """Return the parameter dataclass for ``benchmark`` and ``problem_class``.

    Raises ``KeyError`` for unknown benchmarks (or for benchmarks the
    requested class is not registered for) and ``ValueError`` for unknown
    classes, so callers get precise error messages.
    """
    benchmark = benchmark.upper()
    problem_class = problem_class.upper()
    if problem_class == "S":
        table = _S_PARAMS
    elif problem_class == "T":
        table = _T_PARAMS
    elif problem_class == "A":
        table = _A_PARAMS
    else:
        raise ValueError(f"unknown problem class {problem_class!r}; "
                         f"supported classes: {CLASSES}")
    if benchmark not in table:
        if benchmark in _S_PARAMS:
            raise KeyError(
                f"benchmark {benchmark!r} has no class-{problem_class} "
                f"parameters; class {problem_class} is registered for: "
                f"{sorted(table)}")
        raise KeyError(f"unknown benchmark {benchmark!r}; "
                       f"known: {sorted(_S_PARAMS)}")
    return table[benchmark]
