"""Tape (Wengert list) machinery for reverse-mode automatic differentiation.

The AD engine in :mod:`repro.ad` mirrors, at array granularity, what Enzyme
does at LLVM-IR granularity in the paper: the *forward sweep* records every
primitive operation executed together with enough information to later run
the *reverse sweep* and obtain the derivative of a scalar output with respect
to every element of every watched input array.

A :class:`Tape` is a linear record (a Wengert list) of :class:`Node` objects.
Each node corresponds to one primitive array operation (``add``, ``matmul``,
``getitem`` ...).  Nodes reference their parent nodes, forming a DAG that is
already topologically ordered because the list is append-only and operations
can only consume values that already exist.

Typical usage (normally hidden behind :func:`repro.ad.reverse.gradient`)::

    with Tape() as tape:
        x = tape.watch(np.ones(10), name="x")
        y = (x * 3.0).sum()
    grads = tape.gradient(y, [x])

Design notes
------------
* The tape stores *array-level* operations, not element-level ones, so the
  memory cost is proportional to the number of primitive calls, not to the
  number of floating point operations.  One reverse sweep yields the
  gradient with respect to **all** elements of **all** watched inputs -- the
  property the paper relies on to scrutinise every element of a checkpoint
  variable in a single AD pass.
* Nodes hold a ``vjp`` callable (vector-Jacobian product) and the ``spec``
  of the primitive rule that created them (:data:`repro.ad.ops.RULES`).
  Both close over plain arrays only, never over traced arrays, so a tape
  holds no reference cycle and is freed as soon as its last reference
  goes.  Constants (plain numpy arrays or scalars) never appear as nodes;
  their gradient is simply discarded.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Node",
    "Tape",
    "get_active_tape",
    "push_tape",
    "pop_tape",
    "no_tape",
    "read_only_view",
]


class Node:
    """A single recorded primitive operation.

    Parameters
    ----------
    op:
        Human readable primitive name (``"mul"``, ``"getitem"`` ...).  Used
        only for debugging and tape statistics.
    parents:
        The :class:`Node` objects whose outputs feed this operation.  Only
        *traced* inputs appear here; constant operands live in ``spec``.
    vjp:
        Callable mapping the incoming cotangent (gradient of the final
        output with respect to this node's output) to a tuple of cotangents
        aligned with ``parents``.
    shape, dtype:
        Shape and dtype of the node's output value, kept for gradient buffer
        allocation during the reverse sweep.
    meta:
        Optional primitive-specific metadata (e.g. the index expression of a
        ``getitem``).  Consumed by the activity analysis in
        :mod:`repro.ad.activity`, never by the reverse sweep itself.
    spec:
        The primitive's rule spec (kind first, then its constants and
        geometry), or ``None`` for a node recorded without a rule.  The
        replay-plan capture (:mod:`repro.ad.plan`) reads it off the tape.
    """

    __slots__ = ("op", "parents", "vjp", "shape", "dtype", "index", "meta",
                 "spec")

    def __init__(
        self,
        op: str,
        parents: Sequence["Node"],
        vjp: Callable[[np.ndarray], tuple],
        shape: tuple,
        dtype: np.dtype,
        index: int,
        meta: dict | None = None,
        spec: tuple | None = None,
    ) -> None:
        self.op = op
        self.parents = tuple(parents)
        self.vjp = vjp
        self.shape = shape
        self.dtype = dtype
        self.index = index
        self.meta = meta
        self.spec = spec

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Node(#{self.index}, op={self.op!r}, shape={self.shape}, "
            f"nparents={len(self.parents)})"
        )


class _TapeStack(threading.local):
    """Thread-local stack of active tapes (innermost last)."""

    def __init__(self) -> None:
        self.stack: list["Tape | None"] = []


_TAPES = _TapeStack()


def get_active_tape() -> "Tape | None":
    """Return the innermost active tape, or ``None`` when not tracing."""
    if not _TAPES.stack:
        return None
    return _TAPES.stack[-1]


def push_tape(tape: "Tape | None") -> None:
    """Push ``tape`` (or ``None`` to suspend tracing) onto the active stack."""
    _TAPES.stack.append(tape)


def pop_tape() -> "Tape | None":
    """Pop and return the innermost entry of the active tape stack."""
    return _TAPES.stack.pop()


class no_tape:
    """Context manager that temporarily disables tracing.

    Useful for auxiliary computations (diagnostics, convergence monitors)
    inside a traced kernel whose derivatives are irrelevant.
    """

    def __enter__(self) -> None:
        push_tape(None)

    def __exit__(self, *exc: Any) -> None:
        pop_tape()


class Tape:
    """Records primitive operations for a later reverse sweep.

    The tape also owns the *watched inputs*: arrays whose element-wise
    derivatives the caller wants.  :meth:`watch` wraps a plain numpy array
    into a traced :class:`repro.ad.tensor.ADArray` rooted at a leaf node.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.watched: dict[int, str] = {}  # node index -> name
        self._entered = False

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Tape":
        push_tape(self)
        self._entered = True
        return self

    def __exit__(self, *exc: Any) -> None:
        pop_tape()
        self._entered = False

    # -- recording -------------------------------------------------------
    def add_node(
        self,
        op: str,
        parents: Sequence[Node],
        vjp: Callable[[np.ndarray], tuple],
        shape: tuple,
        dtype: np.dtype,
        meta: dict | None = None,
        spec: tuple | None = None,
    ) -> Node:
        """Append a new node to the tape and return it.

        Node indices are dense and append-only; the replay-plan capture
        (:mod:`repro.ad.plan`) relies on them as stable buffer-slot ids,
        so nodes must never be reordered or removed from a live tape.
        """
        node = Node(op, parents, vjp, shape, dtype, index=len(self.nodes),
                    meta=meta, spec=spec)
        self.nodes.append(node)
        return node

    def leaf(self, shape: tuple, dtype: np.dtype, name: str | None = None) -> Node:
        """Create a leaf (input) node with no parents."""
        node = self.add_node("leaf", (), _leaf_vjp, shape, dtype,
                             spec=("leaf",))
        if name is not None:
            self.watched[node.index] = name
        return node

    def watch(self, value: np.ndarray, name: str | None = None):
        """Wrap ``value`` in a traced :class:`ADArray` rooted at a new leaf.

        Returns the traced array; its gradient can be queried after the
        reverse sweep with :meth:`gradient`.  A float64 ``value`` is not
        copied: the leaf holds a read-only view of it, so the trace shares
        the caller's buffer and cannot write into it.
        """
        from .tensor import ADArray  # local import to avoid cycle

        # Derivatives only make sense for floating point data; integer
        # checkpoint variables (loop counters, index arrays) are handled by
        # the activity analysis / criticality rules instead of the tape.
        arr = read_only_view(np.asarray(value, dtype=np.float64))
        node = self.leaf(arr.shape, arr.dtype, name=name)
        return ADArray(arr, node=node, tape=self)

    # -- reverse sweep ---------------------------------------------------
    def gradient(self, output, inputs: Iterable, strict: bool = True):
        """Convenience wrapper around :func:`repro.ad.reverse.backward`.

        Parameters
        ----------
        output:
            A traced scalar :class:`ADArray` (or an array that will be
            summed) produced while this tape was active.
        inputs:
            Traced arrays previously created with :meth:`watch`.
        strict:
            When true, raise if ``output`` is not connected to this tape.
        """
        from .reverse import backward

        return backward(self, output, list(inputs), strict=strict)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def op_counts(self) -> dict[str, int]:
        """Return a histogram of primitive names recorded on the tape."""
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def nbytes(self) -> int:
        """Rough upper bound of the memory held by node output shapes.

        This estimates the *gradient buffer* footprint of a reverse sweep
        (one float64 buffer per node), which is the dominant cost.
        """
        total = 0
        for node in self.nodes:
            total += int(np.prod(node.shape, dtype=np.int64)) * 8
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tape(nodes={len(self.nodes)}, watched={len(self.watched)})"


def read_only_view(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that nothing can write through."""
    view = array.view()
    view.flags.writeable = False
    return view


def _leaf_vjp(g: np.ndarray) -> tuple:
    """Leaves have no parents; their VJP propagates nothing."""
    return ()
