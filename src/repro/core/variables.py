"""Checkpoint variable specifications and the restartable-application protocol.

The paper's unit of analysis is a *variable necessary for checkpointing*
(Table I): a named array or scalar that must be saved so the application can
restart from the latest checkpoint.  This module defines

* :class:`VariableKind` -- how a variable is treated by the analysis
  (differentiable floating point data, paired real/imaginary floating point
  data standing in for the NPB ``dcomplex`` struct, or integer data that is
  classified by rules rather than derivatives);
* :class:`CheckpointVariable` -- the static description of one such variable;
* :class:`RestartableApplication` -- the protocol every NPB port implements
  so the criticality analysis, the checkpoint library and the experiment
  drivers can treat all benchmarks uniformly.

It intentionally has no dependencies on the rest of :mod:`repro.core` so the
application layer (:mod:`repro.npb`) can import it without creating an
import cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "VariableKind",
    "CheckpointVariable",
    "RestartableApplication",
    "state_nbytes",
    "validate_state",
]


class VariableKind(enum.Enum):
    """How the criticality analysis should treat a checkpoint variable."""

    #: floating point array or scalar; criticality from AD derivatives
    FLOAT = "float"

    #: pair of floating point arrays (``<name>_re`` / ``<name>_im`` in the
    #: state dict) representing the NPB ``dcomplex`` struct; an element is
    #: critical if either component is critical
    COMPLEX_PAIR = "complex_pair"

    #: integer array or scalar (loop counters, keys, bucket pointers);
    #: reverse-mode AD does not apply, criticality comes from rules
    INTEGER = "integer"


@dataclass(frozen=True)
class CheckpointVariable:
    """Static description of one variable necessary for checkpointing.

    Parameters
    ----------
    name:
        The variable's name as it appears in the application's state dict
        (and in the paper's Table I).
    shape:
        Logical element shape.  For :attr:`VariableKind.COMPLEX_PAIR` this is
        the shape in *dcomplex elements*; the state dict stores two float
        arrays of this shape.
    kind:
        How the analysis treats the variable.
    dtype:
        Storage dtype of one component (``float64`` for floats and complex
        pairs, an integer dtype for integers).
    critical_by_rule:
        Force-classify every element as critical without AD.  Used for loop
        indices and the integer data of EP/IS, mirroring the paper's manual
        treatment ("its impact is obvious as the index variable of a
        for-loop").
    description:
        One-line human description (used in reports and Table I output).
    """

    name: str
    shape: tuple[int, ...]
    kind: VariableKind = VariableKind.FLOAT
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    critical_by_rule: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    # -- sizes -----------------------------------------------------------
    @property
    def n_elements(self) -> int:
        """Number of logical elements (dcomplex counts as one element)."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def element_nbytes(self) -> int:
        """Bytes per logical element (16 for a dcomplex pair)."""
        if self.kind is VariableKind.COMPLEX_PAIR:
            return 2 * self.dtype.itemsize
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total bytes of the variable when checkpointed in full."""
        return self.n_elements * self.element_nbytes

    @property
    def is_scalar(self) -> bool:
        """True for 0-dimensional variables (loop counters, accumulators)."""
        return self.shape == ()

    # -- state-dict helpers -----------------------------------------------
    def state_keys(self) -> tuple[str, ...]:
        """Keys under which this variable's data lives in a state dict."""
        if self.kind is VariableKind.COMPLEX_PAIR:
            return (f"{self.name}_re", f"{self.name}_im")
        return (self.name,)

    def extract(self, state: Mapping[str, Any]) -> list[np.ndarray]:
        """Pull this variable's concrete component arrays out of ``state``."""
        arrays = []
        for key in self.state_keys():
            if key not in state:
                raise KeyError(f"state is missing component {key!r} of "
                               f"variable {self.name!r}")
            arrays.append(np.asarray(state[key]))
        return arrays

    def __str__(self) -> str:
        dims = "" if self.is_scalar else \
            "[" + "][".join(str(s) for s in self.shape) + "]"
        type_name = {"float": "double", "complex_pair": "dcomplex",
                     "integer": "int"}[self.kind.value]
        return f"{type_name} {self.name}{dims}"


@runtime_checkable
class RestartableApplication(Protocol):
    """Protocol implemented by every NPB port (see :mod:`repro.npb.base`).

    The criticality analysis only needs four capabilities: know the
    checkpoint variables, produce the state at a checkpoint step, run the
    remaining computation from a given state to the scalar verification
    output, and verify a final result.
    """

    #: short benchmark name (``"BT"``, ``"MG"``, ...)
    name: str

    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        """Variables necessary for checkpointing (the paper's Table I)."""
        ...

    def initial_state(self) -> dict[str, Any]:
        """State dict at step 0 (before any main-loop iteration)."""
        ...

    def run(self, state: Mapping[str, Any], steps: int) -> dict[str, Any]:
        """Advance ``state`` by ``steps`` main-loop iterations.

        Must return a new dict and never write into ``state``'s arrays: the
        segmented sweeps keep every boundary by reference and hand ``run``
        read-only views of it.  An array the iterations leave unchanged
        may be returned as is.
        """
        ...

    def output(self, state: Mapping[str, Any]):
        """Scalar verification output computed from a (possibly traced) state."""
        ...

    def verify(self, state: Mapping[str, Any]) -> bool:
        """Benchmark's own verification phase on a concrete final state."""
        ...


def state_nbytes(variables: Sequence[CheckpointVariable]) -> int:
    """Total checkpoint size, in bytes, of a set of variables saved in full."""
    return sum(v.nbytes for v in variables)


def validate_state(variables: Sequence[CheckpointVariable],
                   state: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` if ``state`` is missing or mis-shapes a variable."""
    problems: list[str] = []
    for var in variables:
        for key in var.state_keys():
            if key not in state:
                problems.append(f"missing state entry {key!r}")
                continue
            arr = np.asarray(state[key])
            if var.is_scalar:
                if arr.shape not in ((), (1,)):
                    problems.append(
                        f"{key!r}: expected scalar, got shape {arr.shape}")
            elif tuple(arr.shape) != var.shape:
                problems.append(
                    f"{key!r}: expected shape {var.shape}, got {arr.shape}")
    if problems:
        raise ValueError("invalid state: " + "; ".join(problems))
