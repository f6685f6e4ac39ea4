"""Primitive-coverage audit: no dispatch table may silently miss an op.

The AD engine routes every primitive through three dispatch layers: the
plan executor's emitters (:data:`repro.ad.exec._EMITTERS`, each of which
embeds the primitive's VJP rule), the activity classification of tape op
names (:data:`repro.ad.activity.CONSUMING_OPS` / ``MOVEMENT_OPS`` /
``INDEXING_OPS``) and the shared reverse-mode rule tables.  A new
primitive that lands in one table but not another produces wrong masks or
a crash only on the benchmark that happens to exercise it -- these audits
fail immediately instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.activity import CONSUMING_OPS, INDEXING_OPS, MOVEMENT_OPS
from repro.ad.exec import _EMITTERS
from repro.ad.ir import Instr
from repro.ad.probes import stack_states
from repro.ad.segmented import float_state_keys
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


def _recorded_ops(name: str) -> set[str]:
    """Op names of every node the tracing hooks record for one class-T
    port: the whole restart from step 0, and one plain and one
    probe-batched step watching every chained float entry."""
    bench = registry.create(name, "T")
    state = bench.checkpoint_state(0)
    chain = float_state_keys(state)
    recorded = set()
    tape, _leaves, _out = bench.traced_restart(state)
    recorded.update(node.op for node in tape.nodes)
    tape, _leaves, _next = bench.traced_step(state, watch=chain)
    recorded.update(node.op for node in tape.nodes)
    tape, _leaves, _next = bench.traced_step_probes(
        stack_states([state, state], chain), 2, watch=chain)
    recorded.update(node.op for node in tape.nodes)
    return recorded


class TestActivityClassification:
    @pytest.mark.parametrize("name", ALL_PORTS)
    def test_every_recorded_op_is_in_exactly_one_category(self, name):
        categories = (CONSUMING_OPS, MOVEMENT_OPS, INDEXING_OPS)
        counts = {op: sum(op in cat for cat in categories)
                  for op in _recorded_ops(name)}
        wrong = {op: n for op, n in counts.items() if n != 1}
        assert not wrong, (
            f"{name}: tape ops in no or several activity categories "
            f"(op: count) {wrong} -- add each to exactly one of "
            f"CONSUMING_OPS/MOVEMENT_OPS/INDEXING_OPS, or the activity "
            f"walk falls back to reading every element")

    def test_tape_op_categories_are_disjoint(self):
        assert not CONSUMING_OPS & MOVEMENT_OPS
        assert not CONSUMING_OPS & INDEXING_OPS
        assert not MOVEMENT_OPS & INDEXING_OPS


# ---------------------------------------------------------------------------
# VJP coverage: every emitter kind replays forward AND reverse
# ---------------------------------------------------------------------------
#
# One minimal, valid capture spec per kind.  Each entry is
# (spec, out_shape, vals, grad_shapes): the traced operand values handed to
# the compiled kernel and the cotangent shapes its VJP must hand back.

_A = np.linspace(0.5, 2.0, 6).reshape(2, 3)
_B = np.linspace(1.0, 2.5, 6).reshape(2, 3)
_COND = np.array([[True, False, True], [False, True, False]])

_VJP_EXAMPLES = {
    "ewbinary": (("ewbinary", "add", True, True, None, None,
                  (2, 3), (2, 3), (2, 3), (2, 3)),
                 (2, 3), [_A, _B], [(2, 3), (2, 3)]),
    "minmax": (("minmax", "maximum", True, True, None, None,
                (2, 3), (2, 3), (2, 3), (2, 3)),
               (2, 3), [_A, _B], [(2, 3), (2, 3)]),
    "unary": (("unary", "sqrt"), (2, 3), [_A], [(2, 3)]),
    "negative": (("negative",), (2, 3), [_A], [(2, 3)]),
    "copy": (("copy",), (2, 3), [_A], [(2, 3)]),
    "astype": (("astype", "float64", "float64"),
               (2, 3), [_A], [(2, 3)]),
    "sum": (("sum", 1, False, (2, 3)), (2,), [_A], [(2, 3)]),
    "mean": (("mean", 1, False, 3, (2, 3)), (2,), [_A], [(2, 3)]),
    "redminmax": (("redminmax", "max", 1, False, (2, 3)),
                  (2,), [_A], [(2, 3)]),
    "prod": (("prod", 1, False, (2, 3)), (2,), [_A], [(2, 3)]),
    "getitem": (("getitem", (slice(0, 1),), False, False, (2, 3)),
                (1, 3), [_A], [(2, 3)]),
    "index_update": (("index_update", 0, True, True, None, None,
                      (3,), False, None),
                     (2, 3), [_A, _B[0]], [(2, 3), (3,)]),
    "index_add": (("index_add", 0, True, True, None, None,
                   (3,), False, None),
                  (2, 3), [_A, _B[0]], [(2, 3), (3,)]),
    "where": (("where", _COND, True, True, None, None,
               (2, 3), (2, 3), (2, 3), (2, 3)),
              (2, 3), [_A, _B], [(2, 3), (2, 3)]),
    "matmul": (("matmul", True, True, None, None),
               (2, 2), [_A, _B.T], [(2, 3), (3, 2)]),
    "matmul_probe": (("matmul_probe", True, True, None, None, 1, 1),
                     (), [_A[0], _B[0]], [(3,), (3,)]),
    "banded": (("banded", _A, ops.dia_transpose(_A, (-1, 1)), (-1, 1)),
               (3,), [_B[0]], [(3,)]),
    "ifftn_sampled": (("ifftn_sampled", (True, True), (None, None), _B,
                       (np.array([0, 1]), np.array([2, 0])), None),
                      (2, 2), [_A, _B], [(2, 3), (2, 3)]),
    "reshape": (("reshape", (3, 2), (2, 3)), (3, 2), [_A], [(2, 3)]),
    "transpose": (("transpose", (1, 0), (1, 0)), (3, 2), [_A], [(2, 3)]),
    "swapaxes": (("swapaxes", 0, 1), (3, 2), [_A], [(2, 3)]),
    "moveaxis": (("moveaxis", 0, 1), (3, 2), [_A], [(2, 3)]),
    "broadcast_to": (("broadcast_to", (2, 3), (1, 3)),
                     (2, 3), [_A[:1]], [(1, 3)]),
    "squeeze": (("squeeze", 0, (1, 3)), (3,), [_A[:1]], [(1, 3)]),
    "expand_dims": (("expand_dims", 0, (2, 3)), (1, 2, 3), [_A], [(2, 3)]),
    "flip": (("flip", 0), (2, 3), [_A], [(2, 3)]),
    "roll": (("roll", 1, 0), (2, 3), [_A], [(2, 3)]),
    "roll_flat": (("roll_flat", 1, (2, 3), (2, 3)),
                  (2, 3), [_A], [(2, 3)]),
    "pad_zero": (("pad_zero", ((1, 1), (0, 0)), (2, 3)),
                 (4, 3), [_A], [(2, 3)]),
    "concat": (("concat", 0, (("t", None), ("t", None)), (0, 2, 4)),
               (4, 3), [_A, _B], [(2, 3), (2, 3)]),
    "stack": (("stack", 0, (("t", None), ("t", None))),
              (2, 2, 3), [_A, _B], [(2, 3), (2, 3)]),
}


class TestVjpRuleCoverage:
    def test_every_emitter_kind_has_an_example(self):
        # keep the audit honest: a kind added to _EMITTERS without a
        # matching example here would silently escape the VJP audit below
        assert set(_VJP_EXAMPLES) == set(_EMITTERS)

    @pytest.mark.parametrize("kind", sorted(_EMITTERS))
    def test_kernel_replays_forward_and_reverse(self, kind):
        spec, out_shape, vals, grad_shapes = _VJP_EXAMPLES[kind]
        instr = Instr(len(vals), kind, tuple(range(len(vals))), spec,
                      out_shape, "float64")
        kernel = _EMITTERS[kind](spec, instr)
        out, vjp = kernel([np.asarray(v, dtype=np.float64) for v in vals])
        assert np.shape(out) == out_shape, f"{kind}: forward shape"
        assert callable(vjp), f"{kind}: no VJP rule"
        grads = vjp(np.ones(out_shape, dtype=np.float64))
        assert isinstance(grads, tuple)
        assert len(grads) == len(grad_shapes), \
            f"{kind}: one cotangent per traced operand"
        for i, (g, shape) in enumerate(zip(grads, grad_shapes)):
            assert np.shape(g) == shape, f"{kind}: cotangent {i} shape"
            assert np.all(np.isfinite(np.asarray(g, dtype=np.float64))), \
                f"{kind}: cotangent {i} not finite"

