"""Finite-difference oracle for the primitives that are not elementwise.

The elementwise rule tables are checked in ``test_ops_elementwise.py``;
here every reduction, indexing, shape, selection and product primitive is
checked against central finite differences
(:func:`repro.ad.checks.finite_difference_grad`), which share nothing with
the VJP rules.  Each case draws a random shape, and the objective weighs
every output element by a fixed random weight, so a VJP that routes a
cotangent to the wrong element fails (a plain sum would not notice).
Every case also runs probe-batched: two different inputs stacked along a
probe axis (:func:`repro.ad.probes.probe_axis`) give one trace and one
reverse sweep, and each probe slice of the gradient is checked against the
finite differences at that probe's input.  A case the probe axis refuses
by design must raise :class:`~repro.ad.probes.ProbeBatchingError`.
``banded_matvec`` and ``ifftn_sampled`` have their own checks.
"""

import zlib

import numpy as np
import pytest

from repro import ad
from repro.ad import checks, ops
from repro.ad.probes import ProbeBatchingError

FLOAT_DTYPES = (np.float64, np.float32)


def _uniform(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def _distinct(rng, shape):
    """Values at least 1.5 / 63 apart: no tie, and no finite-difference
    stencil straddles the max/min kink."""
    size = int(np.prod(shape))
    return rng.permutation(np.linspace(0.5, 2.0, size)).reshape(shape)


def _with_zeros(rng, shape):
    """One zero in the first lane of the last axis, two in the last lane."""
    x = _uniform(rng, shape)
    x[(0,) * len(shape)] = 0.0
    x[(-1,) * (len(shape) - 1) + (slice(0, 2),)] = 0.0
    return x


def _parity(shape):
    """A fixed condition for ``where``, independent of the operand."""
    return np.indices(shape).sum(axis=0) % 2 == 0


#: name -> (operand drawer, function of (operand, constants rng))
CASES = {
    # reductions
    "sum": (_uniform, lambda v, r: ops.sum(v, axis=-1)),
    "mean": (_uniform, lambda v, r: ops.mean(v, axis=0)),
    "prod": (_with_zeros, lambda v, r: ops.prod(v, axis=-1)),
    "max": (_distinct, lambda v, r: ops.max(v, axis=-1)),
    "min": (_distinct, lambda v, r: ops.min(v, axis=0)),
    # indexing: repeated indices must accumulate
    "getitem": (_uniform, lambda v, r: ops.getitem(
        v, ([1, 0, 1], slice(None, None, -1)))),
    "getitem_split": (_uniform, lambda v, r: ops.getitem(
        v, ([1, 0], Ellipsis, [0, 1]))),
    "take": (_uniform, lambda v, r: ops.take(v, [1, 0, 1], axis=-1)),
    "index_update": (_uniform, lambda v, r: ops.index_update(
        v, (0,), ops.getitem(v, (1,)))),
    "index_add": (_uniform, lambda v, r: ops.index_add(
        v, ([0, 0],), ops.getitem(v, ([1, 1],)))),
    # shape ops
    "reshape": (_uniform, lambda v, r: ops.reshape(v, (v.shape[-1], -1))),
    "transpose": (_uniform, lambda v, r: ops.transpose(v)),
    "swapaxes": (_uniform, lambda v, r: ops.swapaxes(v, 0, -1)),
    "moveaxis": (_uniform, lambda v, r: ops.moveaxis(v, 0, -1)),
    "broadcast_to": (_uniform, lambda v, r: ops.broadcast_to(
        v, (2,) + ops.logical_shape(v))),
    "squeeze": (_uniform, lambda v, r: ops.squeeze(
        ops.getitem(v, (slice(0, 1),)), 0)),
    "expand_dims": (_uniform, lambda v, r: ops.expand_dims(v, 1)),
    "flip": (_uniform, lambda v, r: ops.flip(v, axis=0)),
    "roll": (_uniform, lambda v, r: ops.roll(v, 1, axis=-1)),
    "pad_zero": (_uniform, lambda v, r: ops.pad_zero(v, 1)),
    "concatenate": (_uniform,
                    lambda v, r: ops.concatenate([v, v], axis=-1)),
    "stack": (_uniform, lambda v, r: ops.stack([v, v], axis=1)),
    # selection and products
    "where": (_uniform, lambda v, r: ops.where(
        _parity(ops.logical_shape(v)), v, ops.negative(v))),
    "matmul": (_uniform, lambda v, r: ops.matmul(
        ops.matmul(r.uniform(-1.0, 1.0, (3, v.shape[-2])).astype(v.dtype),
                   v),
        r.uniform(-1.0, 1.0, (v.shape[-1], 2)).astype(v.dtype))),
}

#: cases the probe axis refuses by design: numpy moves the subspace of
#: advanced indices separated by a slice or ellipsis in front of the
#: prepended probe slice
PROBE_REFUSED = {"getitem_split"}


@pytest.mark.parametrize("batch", ("single", "probes"))
@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_gradient_matches_finite_differences(name, dtype, batch,
                                             probe_gradients):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    shape = tuple(int(n) for n in rng.integers(2, 5, rng.integers(2, 4)))
    draw, op = CASES[name]
    xs = [draw(rng, shape).astype(dtype)]
    seed = int(rng.integers(2 ** 31))

    def fun(v):
        # the same constants on every call
        return op(v, np.random.default_rng(seed))

    weights = rng.uniform(0.5, 1.5, np.shape(fun(xs[0])))

    def objective(v):
        return ops.sum(ops.multiply(fun(v), weights))

    if batch == "single":
        grads = [ad.grad(objective)(xs[0])]
    else:
        xs.append(draw(rng, shape).astype(dtype))
        assert not np.array_equal(xs[0], xs[1])
        if name in PROBE_REFUSED:
            with pytest.raises(ProbeBatchingError):
                probe_gradients(objective, xs)
            return
        grads = probe_gradients(objective, xs)
    for x, g in zip(xs, grads):
        fd = checks.finite_difference_grad(
            lambda v: float(np.sum(fun(v) * weights)), x)
        assert np.shape(g) == shape
        np.testing.assert_allclose(np.asarray(g, dtype=np.float64), fd,
                                   rtol=1e-5, atol=1e-6)
