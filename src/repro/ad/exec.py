"""The executor of lowered replay plans.

The back end of the capture -> IR -> passes -> executor pipeline: given a
validated :class:`~repro.ad.ir.PlanIR` and the :class:`~repro.ad.passes.
PlanLayout` the optimisation passes derived from it, this module builds the
executable op list a :class:`~repro.ad.plan.CompiledPlan` replays -- a flat
sequence of ``(slot, parents, kernel)`` triples where every kernel maps
parent slot values to ``(value, vjp)``.

The executor is a numpy interpreter.  An unfused instruction runs its
primitive's rule (:data:`repro.ad.ops.RULES`) bound to the recorded spec --
the very function the tracer ran, so there is no second copy of any VJP.
With the passes on, the hottest singleton kinds run shape-specialised
kernels instead, and fused elementwise/unary chains run a single
``exec``-generated straight-line kernel with **preallocated ``out=``
buffers** for every ufunc step, so a warm replay of a fused chain performs
no Python-level dispatch per primitive and no per-step allocation.  The
generated code calls exactly the shared compute/VJP tables
(``EW_BINARY_RULES`` / ``UNARY_RULES`` / ``MINMAX_RULES``) and the ops-layer
broadcast helpers, so fused values and cotangents are bitwise what the
unfused interpreter produces.

Bitwise discipline for ``out=`` buffers: a preallocated buffer is only used
when the captured output dtype equals the ufunc's natural result dtype (no
cast is inserted).  Slot values never leave the plan -- a replay hands out
cotangents only, always copied off the arena -- so arena reuse cannot
corrupt caller-visible state.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .ir import Instr, PlanIR

__all__ = ["build_ops"]


def _ops_mod():
    from . import ops  # deferred: ops imports probes, which imports the plan

    return ops


# ---------------------------------------------------------------------------
# shape-specialised singleton kernels (pass-gated)
# ---------------------------------------------------------------------------
#
# When the pass pipeline ran (``plan_optimize="fuse"``) the IR's static
# geometry can be trusted at emit time: every cotangent entering a VJP
# carries the instruction's own shape (seeds are broadcast to slot shape,
# every rule hands back operand node shapes).  The hottest singleton kinds
# are then re-emitted with the dynamically-checked identity calls
# (``_unbroadcast`` / ``_probe_restore``) dropped where the spec proves
# them no-ops -- on matching shapes both return their input unchanged, so
# eliding them is bit-preserving by construction -- and with the reduction
# VJPs writing through a preallocated buffer instead of allocating one per
# replay (safe: each instruction's VJP fires at most once per replay, and
# ``_collect`` defensively copies every non-owned leaf cotangent before it
# leaves the plan).  Each factory returns ``None`` when its static
# conditions do not hold and the primitive's rule serves the instruction
# unchanged; ``plan_optimize="off"`` never consults this table.

def _ew_identity_gate(spec: tuple, node: Instr) -> tuple | None:
    """Shared static gate of the lifted binary families (a_tr, b_tr) or
    ``None`` when a traced operand needs runtime unbroadcast/restore."""
    (_, _p1, a_tr, b_tr, _ac, _bc, a_shape, b_shape, a_lift, b_lift) = spec
    out_shape = tuple(node.shape)
    if a_tr and not (tuple(a_lift) == out_shape
                     and tuple(a_shape) == tuple(a_lift)):
        return None
    if b_tr and not (tuple(b_lift) == out_shape
                     and tuple(b_shape) == tuple(b_lift)):
        return None
    return a_tr, b_tr


def _spec_ewbinary(spec: tuple, node: Instr) -> Callable | None:
    gate = _ew_identity_gate(spec, node)
    if gate is None:
        return None
    a_tr, b_tr = gate
    a_const, b_const = spec[4], spec[5]
    compute, grad_a, grad_b = _ops_mod().EW_BINARY_RULES[spec[1]]

    if a_tr and b_tr:
        def kernel(vals: list) -> tuple:
            av, bv = vals
            out = compute(av, bv)

            def vjp(g: np.ndarray) -> tuple:
                return (grad_a(g, av, bv), grad_b(g, av, bv))

            return out, vjp
    elif a_tr:
        def kernel(vals: list) -> tuple:
            av = vals[0]
            out = compute(av, b_const)

            def vjp(g: np.ndarray) -> tuple:
                return (grad_a(g, av, b_const),)

            return out, vjp
    else:
        def kernel(vals: list) -> tuple:
            bv = vals[0]
            out = compute(a_const, bv)

            def vjp(g: np.ndarray) -> tuple:
                return (grad_b(g, a_const, bv),)

            return out, vjp
    return kernel


def _spec_minmax(spec: tuple, node: Instr) -> Callable | None:
    gate = _ew_identity_gate(spec, node)
    if gate is None:
        return None
    a_tr, b_tr = gate
    a_const, b_const = spec[4], spec[5]
    compute, mask_of = _ops_mod().MINMAX_RULES[spec[1]]

    def kernel(vals: list) -> tuple:
        i = 0
        if a_tr:
            av = vals[i]
            i += 1
        else:
            av = a_const
        bv = vals[i] if b_tr else b_const
        out = compute(av, bv)
        mask_a = mask_of(av, bv)

        def vjp(g: np.ndarray) -> tuple:
            if a_tr and b_tr:
                return (g * mask_a, g * ~mask_a)
            if a_tr:
                return (g * mask_a,)
            return (g * ~mask_a,)

        return out, vjp

    return kernel


def _spec_where(spec: tuple, node: Instr) -> Callable | None:
    gate = _ew_identity_gate(spec, node)
    if gate is None:
        return None
    a_tr, b_tr = gate
    cv, a_const, b_const = spec[1], spec[4], spec[5]
    inv_cv = ~cv   # static condition: invert once at emit time

    def kernel(vals: list) -> tuple:
        i = 0
        if a_tr:
            av = vals[i]
            i += 1
        else:
            av = a_const
        bv = vals[i] if b_tr else b_const
        out = np.where(cv, av, bv)

        def vjp(g: np.ndarray) -> tuple:
            if a_tr and b_tr:
                return (g * cv, g * inv_cv)
            if a_tr:
                return (g * cv,)
            return (g * inv_cv,)

        return out, vjp

    return kernel


def _reduction_expanded_shape(out_shape: tuple, axis, keepdims
                              ) -> tuple[int, ...]:
    """The keepdims-style shape a reduction cotangent reshapes into."""
    if axis is None or keepdims:
        return tuple(out_shape)
    return np.expand_dims(np.empty(out_shape, dtype=np.bool_),
                          axis=axis).shape


def _spec_sum(spec: tuple, node: Instr) -> Callable | None:
    _, axis, keepdims, in_shape = spec
    if np.dtype(node.dtype) != np.float64:
        return None
    expanded = _reduction_expanded_shape(node.shape, axis, keepdims)
    buf = np.empty(in_shape, dtype=np.float64)

    def vjp(g: np.ndarray) -> tuple:
        # broadcast-copy into the retained buffer: the same bits
        # broadcast_to(..).copy() produces, without the per-replay
        # allocation (expand_dims is itself only a reshape)
        np.copyto(buf, np.reshape(g, expanded))
        return (buf,)

    def kernel(vals: list) -> tuple:
        # the exact reduction np.sum dispatches to for a float64 ndarray
        # (same pairwise loop, same bits), minus the python wrapper
        return np.add.reduce(vals[0], axis=axis, keepdims=keepdims), vjp

    return kernel


def _spec_mean(spec: tuple, node: Instr) -> Callable | None:
    _, axis, keepdims, count, in_shape = spec
    if np.dtype(node.dtype) != np.float64:
        return None
    expanded = _reduction_expanded_shape(node.shape, axis, keepdims)
    buf = np.empty(in_shape, dtype=np.float64)

    def vjp(g: np.ndarray) -> tuple:
        np.copyto(buf, np.reshape(np.asarray(g) / count, expanded))
        return (buf,)

    def kernel(vals: list) -> tuple:
        return np.mean(vals[0], axis=axis, keepdims=keepdims), vjp

    return kernel


def _spec_getitem(spec: tuple, node: Instr) -> Callable | None:
    _, idx, advanced, contig, in_shape = spec
    if np.dtype(node.dtype) != np.float64:
        return None
    buf = np.zeros(in_shape, dtype=np.float64)
    if advanced:
        def vjp(g: np.ndarray) -> tuple:
            # zero-fill + scatter into the retained buffer: the bits of a
            # fresh np.zeros scatter, without the per-replay allocation
            buf.fill(0.0)
            np.add.at(buf, idx, g)
            return (buf,)
    else:
        # basic indexing scatters into exactly this view; the region
        # outside it was zeroed at emit time and is never written, so a
        # single ufunc call reproduces fill+scatter-add (g + 0.0 carries
        # the same bits as 0.0 + g, -0.0 and NaN payloads included)
        view = buf[idx]
        if isinstance(view, np.ndarray) and np.shares_memory(view, buf):
            def vjp(g: np.ndarray) -> tuple:
                np.add(g, 0.0, out=view)
                return (buf,)
        else:
            # a scalar selection yields no writable view
            def vjp(g: np.ndarray) -> tuple:
                buf.fill(0.0)
                buf[idx] += g
                return (buf,)

    def kernel(vals: list) -> tuple:
        out = vals[0][idx]
        if contig:
            out = np.ascontiguousarray(out)
        return out, vjp

    return kernel


def _spec_index_update(spec: tuple, node: Instr) -> Callable | None:
    (_, idx, a_tr, b_tr, _a_const, _b_const, b_shape, batched,
     _lift_shape) = spec
    if not a_tr or np.dtype(node.dtype) != np.float64:
        return None
    if b_tr:
        # the update cotangent g[idx] must statically carry the operand's
        # node shape for the keep-probe restore to be the identity
        if np.empty(node.shape, dtype=np.bool_)[idx].shape \
                != tuple(b_shape):
            return None
    abuf = np.empty(node.shape, dtype=np.float64)

    def vjp(g: np.ndarray) -> tuple:
        np.copyto(abuf, g)
        abuf[idx] = 0.0
        if b_tr:
            return (abuf, np.asarray(g)[idx])
        return (abuf,)

    def kernel(vals: list) -> tuple:
        out = np.array(vals[0], copy=True)
        out[idx] = vals[1] if b_tr else _b_const
        return out, vjp

    return kernel


def _spec_banded(spec: tuple, node: Instr, ir: PlanIR) -> Callable | None:
    _, bands, bands_t, offsets = spec
    dtypes = {np.dtype(node.dtype), np.dtype(ir.instrs[node.parents[0]].dtype),
              bands.dtype, bands_t.dtype}
    if dtypes != {np.dtype(np.float64)}:
        return None
    # the generic kernel with its padded buffers built at emit time
    dia_kernel = _ops_mod()._dia_kernel
    shape = tuple(node.shape)
    forward = dia_kernel(bands, offsets, shape, np.float64)
    backward = dia_kernel(bands_t, tuple(-o for o in offsets), shape,
                          np.float64)

    def vjp(g: np.ndarray) -> tuple:
        return (backward(g),)

    def kernel(vals: list) -> tuple:
        return forward(vals[0]), vjp

    return kernel


def _spec_matmul_probe(spec: tuple, node: Instr,
                       ir: PlanIR) -> Callable | None:
    _, a_tr, b_tr, a_const, b_const, la, lb = spec
    if not (a_tr and b_tr and la == 1 and lb == 1):
        return None
    a_sh = tuple(ir.instrs[node.parents[0]].shape)
    b_sh = tuple(ir.instrs[node.parents[1]].shape)
    if a_sh != b_sh or np.dtype(node.dtype) != np.float64:
        return None

    # the probe dot product: both operands share one (optionally
    # probe-batched) vector shape, so the generic VJP's rank-1 matmuls
    # compute exactly one multiply per element -- the elementwise products
    # below are those same multiplies without the expand/swap/reshape
    # dance, and the keep-probe restore is statically the identity
    def kernel(vals: list) -> tuple:
        av, bv = vals
        out = np.matmul(av[..., None, :], bv[..., :, None])[..., 0, 0]

        def vjp(g: np.ndarray) -> tuple:
            g_c = np.asarray(g)[..., None]
            return (g_c * bv, av * g_c)

        return out, vjp

    return kernel


#: pass-gated singleton specialisations (consulted only when the layout
#: says the optimisation pipeline ran; ``None`` from a factory falls back
#: to the primitive's rule).  Factories receive the full IR so they
#: can read parent geometry when their gate needs it.
_SPECIALIZED: dict[str, Callable] = {
    "ewbinary": lambda spec, node, ir: _spec_ewbinary(spec, node),
    "minmax": lambda spec, node, ir: _spec_minmax(spec, node),
    "where": lambda spec, node, ir: _spec_where(spec, node),
    "sum": lambda spec, node, ir: _spec_sum(spec, node),
    "mean": lambda spec, node, ir: _spec_mean(spec, node),
    "getitem": lambda spec, node, ir: _spec_getitem(spec, node),
    "index_update": lambda spec, node, ir: _spec_index_update(spec, node),
    "matmul_probe": _spec_matmul_probe,
    "banded": _spec_banded,
}


# ---------------------------------------------------------------------------
# fused-chain codegen
# ---------------------------------------------------------------------------
#
# A fusion group (from repro.ad.passes) is a run of elementwise/unary
# instructions whose interiors are each consumed exactly once, by the next
# member.  The group compiles to ONE generated kernel: a straight-line
# function evaluating the chain in slot order (same numpy calls as the
# primitives' rules, with preallocated ``out=`` buffers wherever a ufunc is
# available) plus one generated VJP walking the chain in reverse.  The VJP
# emits per-operand gradient expressions in exactly the order the unfused
# reverse sweep would evaluate them -- externals in descending-op order
# (matching the outer sweep's zip accumulation), interiors chained through
# locals with the same set-then-add sequence -- so the fused gradients are
# bit-for-bit the unfused ones.

#: elementwise-binary rule name -> the ufunc the lambda's operator
#: dispatches to for ndarrays (same loop, same bits)
_EW_UFUNCS = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": np.true_divide,
    "power": np.power,
}

#: min-max rule name -> the comparison ufunc behind its mask lambda
_MINMAX_MASK_UFUNCS = {
    "maximum": np.greater_equal,
    "minimum": np.less_equal,
}


class _Operand:
    """One operand of a fused chain member (traced slot or constant)."""

    __slots__ = ("traced", "slot", "const", "lift", "shape", "interior",
                 "vidx", "reshape")

    def __init__(self, traced: bool, slot: int | None, const: Any,
                 lift: tuple | None, shape: tuple | None,
                 interior: bool) -> None:
        self.traced = traced
        self.slot = slot
        self.const = const
        self.lift = None if lift is None else tuple(lift)
        self.shape = None if shape is None else tuple(shape)
        self.interior = interior
        self.vidx: int | None = None
        self.reshape = (traced and lift is not None and shape is not None
                        and tuple(lift) != tuple(shape))


def _parse_group(ir: PlanIR, group: Sequence[int]) -> dict[int, list[_Operand]]:
    """Per-member operand records, in the rule's (a, b) order."""
    interior = set(group[:-1])
    recs: dict[int, list[_Operand]] = {}
    for slot in group:
        instr = ir.instrs[slot]
        spec = instr.spec
        operands: list[_Operand] = []
        if instr.kind in ("ewbinary", "minmax"):
            (_, _op, a_tr, b_tr, a_c, b_c, a_sh, b_sh, a_lf, b_lf) = spec
            parents = list(instr.parents)
            pi = 0
            for tr, c, sh, lf in ((a_tr, a_c, a_sh, a_lf),
                                  (b_tr, b_c, b_sh, b_lf)):
                if tr:
                    p = parents[pi]
                    pi += 1
                    operands.append(_Operand(True, p, None, lf, sh,
                                             p in interior))
                else:
                    operands.append(_Operand(False, None, c, None, None,
                                             False))
        else:  # unary / negative: one traced operand, no lift bookkeeping
            p = instr.parents[0]
            operands.append(_Operand(True, p, None, None, None,
                                     p in interior))
        recs[slot] = operands
    return recs


def _fused_parents(group: Sequence[int],
                   recs: dict[int, list[_Operand]]) -> tuple[int, ...]:
    """External parent slots in descending-op, per-op operand order.

    This is the order the *unfused* reverse sweep accumulates the group's
    contributions into external gradients (the sweep walks slots downward
    and zips each op's parents with its VJP outputs), so handing the outer
    sweep this tuple -- duplicates included -- preserves the accumulation
    order bit for bit.
    """
    ext: list[int] = []
    for slot in reversed(list(group)):
        for o in recs[slot]:
            if o.traced and not o.interior:
                o.vidx = len(ext)
                ext.append(o.slot)
    return tuple(ext)


def _operand_expr(o: _Operand, env: dict, slot: int, tag: str) -> str:
    if not o.traced:
        name = f"_c{slot}{tag}"
        env[name] = o.const
        return name
    base = f"v{o.slot}" if o.interior else f"vals[{o.vidx}]"
    if o.reshape:
        return f"{base}.reshape({o.lift!r})"
    return base


def _build_fused_kernel(ir: PlanIR, group: Sequence[int],
                        out_bufs: dict[int, np.ndarray]
                        ) -> tuple[Callable, tuple[int, ...]]:
    """One generated kernel for a fusion group.

    ``out_bufs`` maps group slots to preallocated output buffers (absent =
    allocate per call, used for slots whose value escapes the plan).
    """
    ops = _ops_mod()
    instrs = ir.instrs
    recs = _parse_group(ir, group)
    ext = _fused_parents(group, recs)
    last = group[-1]

    env: dict[str, Any] = {"np": np, "_ub": ops._unbroadcast,
                           "_pr": ops._probe_restore}
    fwd: list[str] = []
    rev: list[str] = []
    outs: list[str] = [""] * len(ext)

    for slot in group:
        instr = instrs[slot]
        spec = instr.spec
        operands = recs[slot]
        if instr.kind in ("ewbinary", "minmax"):
            a_expr = _operand_expr(operands[0], env, slot, "a")
            b_expr = _operand_expr(operands[1], env, slot, "b")
            fwd.append(f"a{slot} = {a_expr}")
            fwd.append(f"b{slot} = {b_expr}")
            if instr.kind == "ewbinary":
                compute, _ga, _gb = ops.EW_BINARY_RULES[spec[1]]
                uf = _EW_UFUNCS.get(spec[1])
            else:
                compute, _mask = ops.MINMAX_RULES[spec[1]]
                uf = compute
            buf = out_bufs.get(slot)
            if uf is not None and buf is not None:
                env[f"_u{slot}"], env[f"_o{slot}"] = uf, buf
                fwd.append(f"v{slot} = _u{slot}(a{slot}, b{slot}, "
                           f"out=_o{slot})")
            else:
                env[f"_f{slot}"] = compute
                fwd.append(f"v{slot} = _f{slot}(a{slot}, b{slot})")
            if instr.kind == "minmax":
                mask_uf = _MINMAX_MASK_UFUNCS[spec[1]]
                mbuf = np.empty(instr.shape, dtype=bool)
                env[f"_mu{slot}"], env[f"_mo{slot}"] = mask_uf, mbuf
                fwd.append(f"m{slot} = _mu{slot}(a{slot}, b{slot}, "
                           f"out=_mo{slot})")
        elif instr.kind == "unary":
            a_expr = _operand_expr(operands[0], env, slot, "a")
            fwd.append(f"a{slot} = {a_expr}")
            name = spec[1]
            compute, dydx = ops.UNARY_RULES[name]
            env[f"_dy{slot}"] = dydx
            buf = out_bufs.get(slot)
            if buf is not None and name == "square":
                env[f"_o{slot}"] = buf
                fwd.append(f"v{slot} = np.multiply(a{slot}, a{slot}, "
                           f"out=_o{slot})")
            elif buf is not None and name == "reciprocal":
                env[f"_o{slot}"] = buf
                fwd.append(f"v{slot} = np.true_divide(1.0, a{slot}, "
                           f"out=_o{slot})")
            elif buf is not None and isinstance(compute, np.ufunc):
                env[f"_u{slot}"], env[f"_o{slot}"] = compute, buf
                fwd.append(f"v{slot} = _u{slot}(a{slot}, out=_o{slot})")
            else:
                env[f"_f{slot}"] = compute
                fwd.append(f"v{slot} = _f{slot}(a{slot})")
        else:  # negative
            a_expr = _operand_expr(operands[0], env, slot, "a")
            fwd.append(f"a{slot} = {a_expr}")
            buf = out_bufs.get(slot)
            if buf is not None:
                env[f"_o{slot}"] = buf
                fwd.append(f"v{slot} = np.negative(a{slot}, "
                           f"out=_o{slot})")
            else:
                fwd.append(f"v{slot} = np.negative(a{slot})")

    # reverse pass: descending, exactly the unfused sweep's evaluation and
    # accumulation order
    seeded: set[int] = set()
    rev.append(f"g{last} = g")
    for slot in reversed(list(group)):
        instr = instrs[slot]
        spec = instr.spec
        operands = recs[slot]
        contribs: list[tuple[_Operand, str]] = []
        if instr.kind == "ewbinary":
            _compute, grad_a, grad_b = ops.EW_BINARY_RULES[spec[1]]
            for o, gf, gn in ((operands[0], grad_a, f"_ga{slot}"),
                              (operands[1], grad_b, f"_gb{slot}")):
                if not o.traced:
                    continue
                env[gn] = gf
                raw = f"{gn}(g{slot}, a{slot}, b{slot})"
                # the cotangent of slot always carries the member's own
                # shape, so when the operand was never lifted or broadcast
                # the _pr(_ub(..)) pair is statically the identity (both
                # return their input unchanged on matching shapes) and the
                # generated code drops the two calls outright
                if (o.lift == tuple(instr.shape) and o.shape == o.lift):
                    contribs.append((o, raw))
                else:
                    contribs.append(
                        (o, f"_pr(_ub({raw}, {o.lift!r}), {o.shape!r})"))
        elif instr.kind == "minmax":
            for o, mexpr in ((operands[0], f"m{slot}"),
                             (operands[1], f"~m{slot}")):
                if not o.traced:
                    continue
                if (o.lift == tuple(instr.shape) and o.shape == o.lift):
                    contribs.append((o, f"g{slot} * {mexpr}"))
                else:
                    contribs.append(
                        (o, f"_pr(_ub(g{slot} * {mexpr}, {o.lift!r}), "
                            f"{o.shape!r})"))
        elif instr.kind == "unary":
            contribs.append(
                (operands[0], f"g{slot} * _dy{slot}(a{slot}, v{slot})"))
        else:  # negative
            contribs.append((operands[0], f"-g{slot}"))
        for o, expr in contribs:
            if o.interior:
                if o.slot in seeded:
                    rev.append(f"g{o.slot} = g{o.slot} + {expr}")
                else:
                    rev.append(f"g{o.slot} = {expr}")
                    seeded.add(o.slot)
            else:
                outs[o.vidx] = expr
    for i, expr in enumerate(outs):
        rev.append(f"o{i} = {expr}")
    ret = ", ".join(f"o{i}" for i in range(len(outs)))
    if len(outs) == 1:
        ret += ","
    body = "\n".join(f"    {line}" for line in fwd)
    rbody = "\n".join(f"        {line}" for line in rev)
    src = (f"def _kernel(vals):\n{body}\n"
           f"    def _vjp(g):\n{rbody}\n"
           f"        return ({ret})\n"
           f"    return v{last}, _vjp\n")
    exec(compile(src, f"<fused-plan-{group[0]}-{last}>", "exec"), env)
    return env["_kernel"], ext


# ---------------------------------------------------------------------------
# executable program assembly
# ---------------------------------------------------------------------------

def build_ops(ir: PlanIR, layout
              ) -> list[tuple[int, tuple[int, ...], Callable]]:
    """The executable op list for ``ir`` under ``layout``.

    The ordered list of ``(slot, parents, kernel)`` triples a plan's
    forward pass runs.
    """
    group_of_last = {g[-1]: g for g in layout.groups}
    interiors = {s for g in layout.groups for s in g[:-1]}
    # shared packed buffers for fused outputs whose lifetimes the packing
    # pass proved disjoint; everything else gets a dedicated buffer below
    pools: dict[Any, np.ndarray] = {}
    for slot, pool_id in layout.buffer_of.items():
        if pool_id not in pools:
            instr = ir.instrs[slot]
            pools[pool_id] = np.empty(instr.shape,
                                      dtype=np.dtype(instr.dtype))

    ops: list[tuple[int, tuple[int, ...], Callable]] = []
    for instr in ir.instrs:
        slot = instr.slot
        if instr.kind == "leaf" or not layout.live[slot] \
                or slot in interiors:
            continue
        group = group_of_last.get(slot)
        if group is None:
            kernel = None
            if layout.optimized:
                specialize = _SPECIALIZED.get(instr.kind)
                if specialize is not None:
                    kernel = specialize(instr.spec, instr, ir)
            if kernel is None:
                rule = _ops_mod().RULES.get(instr.kind)
                if rule is None:
                    raise KeyError(f"no rule for spec kind {instr.kind!r}")
                kernel = partial(rule, instr.spec)
            ops.append((slot, instr.parents, kernel))
            continue
        out_bufs: dict[int, np.ndarray] = {}
        for s in group:
            if s in layout.buffer_of:
                out_bufs[s] = pools[layout.buffer_of[s]]
            else:
                gi = ir.instrs[s]
                out_bufs[s] = np.empty(gi.shape, dtype=np.dtype(gi.dtype))
        kernel, parents = _build_fused_kernel(ir, group, out_bufs)
        ops.append((slot, parents, kernel))
    return ops
