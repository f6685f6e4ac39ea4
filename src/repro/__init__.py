"""repro -- reproduction of "Scrutinizing Variables for Checkpoint Using
Automatic Differentiation" (SC 2024).

The package is organised as layered subsystems (see the Layout section of
README.md):

``repro.ad``
    Reverse-mode automatic differentiation engine over NumPy arrays (the
    Enzyme substitute), plus activity analysis and gradient checking.
``repro.npb``
    Python ports of the NAS Parallel Benchmarks kernels (BT, SP, LU, MG, CG,
    FT, EP, IS) at class-S layouts, restartable from an explicit state.
``repro.core``
    The paper's contribution: element-level criticality analysis of
    checkpoint variables, region encoding and reporting.
``repro.ckpt``
    The "homemade checkpointing library": pruned/full checkpoint files,
    auxiliary region files, restart and failure injection.
``repro.viz``
    Text-based visualisation of critical/uncritical distributions.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper.
"""

from . import ad, ckpt, core, experiments, npb, viz
from .core import ScrutinyResult, scrutinize

__version__ = "1.12.0"

__all__ = [
    "ad",
    "core",
    "npb",
    "ckpt",
    "viz",
    "experiments",
    "scrutinize",
    "ScrutinyResult",
    "__version__",
]
