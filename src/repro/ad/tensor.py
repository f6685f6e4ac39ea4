"""Traced array type used by the reverse-mode AD engine.

:class:`ADArray` wraps a plain :class:`numpy.ndarray` value together with a
reference to the :class:`repro.ad.tape.Node` that produced it.  Arithmetic on
``ADArray`` objects records primitive operations on the active tape (see
:mod:`repro.ad.ops`) while computing the numerical result eagerly with NumPy,
so traced code runs at ordinary vectorised NumPy speed plus a small,
per-operation recording overhead.

Mutation semantics
------------------
The NPB kernels are most naturally written with in-place updates
(``u[1:-1, 1:-1, 1:-1] += du``).  Reverse-mode AD, however, needs the value
that was overwritten.  ``ADArray`` therefore implements ``__setitem__`` with
*copy-on-write* functional-update semantics: the assignment builds a new
buffer (``index_update``) and re-binds the Python object to the new value and
node.  Any previously derived results keep referencing the old node through
the tape, so gradients remain correct, while kernel code reads like ordinary
imperative NumPy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .tape import Node, Tape, get_active_tape

__all__ = ["ADArray", "value_of", "is_traced"]


class ADArray:
    """A numpy array paired with its provenance on an AD tape.

    Parameters
    ----------
    value:
        The concrete numpy value of this array.
    node:
        Tape node that produced the value, or ``None`` for an untraced
        constant wrapper.
    tape:
        The tape the node belongs to.  Kept so that in-place updates recorded
        after the original tape context exited still land on the right tape.
    """

    __slots__ = ("value", "node", "tape")

    __array_priority__ = 200.0  # ensure ndarray defers to our reflected ops

    def __init__(self, value: np.ndarray, node: Node | None = None,
                 tape: Tape | None = None) -> None:
        self.value = np.asarray(value)
        self.node = node
        self.tape = tape

    # ------------------------------------------------------------------
    # ndarray-like metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying value."""
        return self.value.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying value."""
        return self.value.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.value.size

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying value."""
        return self.value.dtype

    @property
    def T(self) -> "ADArray":
        """Transpose (records a ``transpose`` primitive)."""
        from . import ops

        return ops.transpose(self)

    def __len__(self) -> int:
        return len(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        traced = "traced" if self.node is not None else "const"
        return f"ADArray({traced}, shape={self.shape}, dtype={self.dtype})"

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Return the concrete value as a numpy array (no copy)."""
        return self.value

    def item(self) -> float:
        """Return the value of a size-1 array as a Python scalar."""
        return float(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def copy(self) -> "ADArray":
        """Return a traced copy (identity with respect to derivatives)."""
        from . import ops

        return ops.copy(self)

    def astype(self, dtype) -> "ADArray":
        """Cast the value.  Casting to float keeps the trace; casting to an
        integer dtype detaches (derivatives through integers are zero)."""
        from . import ops

        return ops.astype(self, dtype)

    # ------------------------------------------------------------------
    # arithmetic operators (delegate to the primitive library)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    def __radd__(self, other):
        from . import ops

        return ops.add(other, self)

    def __sub__(self, other):
        from . import ops

        return ops.subtract(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.subtract(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.multiply(self, other)

    def __rmul__(self, other):
        from . import ops

        return ops.multiply(other, self)

    def __truediv__(self, other):
        from . import ops

        return ops.divide(self, other)

    def __rtruediv__(self, other):
        from . import ops

        return ops.divide(other, self)

    def __pow__(self, other):
        from . import ops

        return ops.power(self, other)

    def __rpow__(self, other):
        from . import ops

        return ops.power(other, self)

    def __neg__(self):
        from . import ops

        return ops.negative(self)

    def __pos__(self):
        return self

    def __abs__(self):
        from . import ops

        return ops.absolute(self)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)

    def __rmatmul__(self, other):
        from . import ops

        return ops.matmul(other, self)

    # in-place operators: functional rebinding (copy-on-write)
    def __iadd__(self, other):
        from . import ops

        result = ops.add(self, other)
        self._rebind(result)
        return self

    def __isub__(self, other):
        from . import ops

        result = ops.subtract(self, other)
        self._rebind(result)
        return self

    def __imul__(self, other):
        from . import ops

        result = ops.multiply(self, other)
        self._rebind(result)
        return self

    def __itruediv__(self, other):
        from . import ops

        result = ops.divide(self, other)
        self._rebind(result)
        return self

    # ------------------------------------------------------------------
    # comparisons (not differentiable; return plain boolean arrays)
    # ------------------------------------------------------------------
    def __lt__(self, other):
        return self.value < _raw(other)

    def __le__(self, other):
        return self.value <= _raw(other)

    def __gt__(self, other):
        return self.value > _raw(other)

    def __ge__(self, other):
        return self.value >= _raw(other)

    def __eq__(self, other):  # type: ignore[override]
        return self.value == _raw(other)

    def __ne__(self, other):  # type: ignore[override]
        return self.value != _raw(other)

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "ADArray":
        from . import ops

        return ops.getitem(self, index)

    def __setitem__(self, index, value) -> None:
        from . import ops

        updated = ops.index_update(self, index, value)
        self._rebind(updated)

    def index_add(self, index, value) -> None:
        """In-place scatter-add ``self[index] += value`` with copy-on-write
        semantics (NumPy ``np.add.at`` analogue, unbuffered)."""
        from . import ops

        updated = ops.index_add(self, index, value)
        self._rebind(updated)

    # ------------------------------------------------------------------
    # reductions and shape ops as methods (mirroring ndarray API)
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "ADArray":
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "ADArray":
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "ADArray":
        from . import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "ADArray":
        from . import ops

        return ops.min(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "ADArray":
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def ravel(self) -> "ADArray":
        from . import ops

        return ops.reshape(self, (-1,))

    def flatten(self) -> "ADArray":
        return self.ravel()

    def transpose(self, *axes) -> "ADArray":
        from . import ops

        if len(axes) == 0:
            axes_arg = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_arg = tuple(axes[0])
        else:
            axes_arg = axes
        return ops.transpose(self, axes_arg)

    def dot(self, other) -> "ADArray":
        from . import ops

        return ops.matmul(self, other)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rebind(self, other: "ADArray") -> None:
        """Point this Python object at the value/node of ``other``.

        Implements the copy-on-write in-place semantics described in the
        module docstring.
        """
        self.value = other.value
        self.node = other.node
        self.tape = other.tape


def value_of(x: Any) -> np.ndarray:
    """Return the concrete numpy value of ``x``.

    Accepts :class:`ADArray` and plain array-likes.
    """
    if isinstance(x, ADArray):
        return x.value
    return np.asarray(x)


def is_traced(x: Any) -> bool:
    """True when ``x`` is an :class:`ADArray` attached to a tape node."""
    return isinstance(x, ADArray) and x.node is not None


def _raw(x: Any) -> Any:
    return x.value if isinstance(x, ADArray) else x
