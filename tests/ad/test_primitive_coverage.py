"""Primitive-coverage audit: no dispatch table may silently miss an op.

The AD engine routes every primitive through three dispatch layers: the
plan executor's emitters (:data:`repro.ad.exec._EMITTERS`, each of which
embeds the primitive's VJP rule), the activity classification
(:data:`repro.ad.activity.SPEC_CONSUMING` / ``SPEC_MOVEMENT`` plus the
explicitly special-cased indexing kinds) and the shared reverse-mode rule
tables.  A new
primitive that lands in one table but not another produces wrong masks or
a crash only on the benchmark that happens to exercise it -- these audits
fail immediately instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ops
from repro.ad.activity import (CONSUMING_OPS, INDEXING_OPS, MOVEMENT_OPS,
                               SPEC_CONSUMING, SPEC_MOVEMENT)
from repro.ad.exec import _EMITTERS
from repro.ad.ir import Instr

#: spec kinds `repro.ad.activity.plan_transfer` special-cases by index
#: region instead of classifying whole-array (see its kind dispatch)
INDEXING_SPECS = frozenset({"getitem", "index_update", "index_add"})


class TestActivityClassification:
    def test_every_emitter_kind_is_classified(self):
        classified = SPEC_CONSUMING | SPEC_MOVEMENT | INDEXING_SPECS
        missing = set(_EMITTERS) - classified
        assert not missing, (
            f"spec kinds with a replay emitter but no activity "
            f"classification: {sorted(missing)} -- add them to "
            f"SPEC_CONSUMING/SPEC_MOVEMENT (or special-case them in "
            f"plan_transfer) or the chained activity sweep will fall "
            f"back to the conservative read-everything default")

    def test_no_stale_classified_kind(self):
        # "leaf" is the only classified pseudo-kind without an executable
        # emitter (leaves are arena inputs, never executed)
        stale = (SPEC_CONSUMING | SPEC_MOVEMENT) - {"leaf"} - set(_EMITTERS)
        assert not stale, (
            f"classified spec kinds without an emitter: {sorted(stale)}")

    def test_spec_categories_are_disjoint(self):
        assert not SPEC_CONSUMING & SPEC_MOVEMENT
        assert not SPEC_CONSUMING & INDEXING_SPECS
        assert not SPEC_MOVEMENT & INDEXING_SPECS

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
    "ifftn": (("ifftn", 1), (2, 3), [_A], [(2, 3)]),
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

