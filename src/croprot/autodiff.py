"""Minimal dense-tensor algebra with reverse-mode automatic differentiation.

Just enough machinery for MLPs, softmax attention, set pooling and
concatenation: values are stored in float32 (float64 available for
verification runs), reductions accumulate in float64, and every primitive
records a backward rule on an explicit tape.  No broadcasting beyond
bias-add; shapes are checked eagerly.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32


class Tape:
    """Ordered record of primitive ops; inputs always precede their op."""

    def __init__(self):
        self.ops = []  # (out, inputs, backward_fn)

    def record(self, out, inputs, backward_fn):
        self.ops.append((out, inputs, backward_fn))


class Tensor:
    """Immutable n-d array of reals, optionally attached to a tape."""

    __slots__ = ("data", "tape")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameters:
    """A group of parameter Tensors held as attributes; NAMES lists the
    attributes in parameter order."""

    NAMES = ()

    def parameters(self):
        return [getattr(self, name) for name in self.NAMES]


def _result(data, inputs, backward_fn):
    tape = None
    for t in inputs:
        if t.tape is not None:
            tape = t.tape
            break
    out = Tensor.__new__(Tensor)
    out.data = data
    out.tape = tape
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul: 2-d operands required")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dims {a.data.shape[1]} != {b.data.shape[0]}"
        )
    out = a.data @ b.data

    def bwd(g):
        return [g @ b.data.T, a.data.T @ g]

    return _result(out, [a, b], bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bwd(g):
        return [g, g]

    return _result(a.data + b.data, [a, b], bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def bwd(g):
        return [g, -g]

    return _result(a.data - b.data, [a, b], bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bwd(g):
        return [g * b.data, g * a.data]

    return _result(a.data * b.data, [a, b], bwd)


def _column_sum(g):
    """Float64 column sums of a 2-d array, bitwise equal to
    `g.sum(axis=0, dtype=np.float64)`.  On a row-major array of several
    columns that sum adds the rows one by one in row order, as einsum does
    in half the time; a single column or a column-major array it sums
    pairwise, so those keep `sum`."""
    if g.shape[1] > 1 and 0 < g.strides[1] < g.strides[0]:
        return np.einsum("ij->j", g, dtype=np.float64)
    return g.sum(axis=0, dtype=np.float64)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-vector bias added to every row of a 2-d tensor."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"add_bias: incompatible shapes {x.data.shape}, {b.data.shape}"
        )
    dtype = x.data.dtype

    def bwd(g):
        return [g, _column_sum(g).astype(dtype)]

    return _result(x.data + b.data[None, :], [x, b], bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return [g * c]

    return _result(x.data * x.data.dtype.type(c), [x], bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); NaN propagates.  The backward's mask is built only when
    it runs: out > 0 exactly where x > 0, and the derivative at 0 is 0."""
    out = np.maximum(x.data, 0)

    def bwd(g):
        return [g * (out > 0)]

    return _result(out, [x], bwd)


def dense(x: Tensor, w: Tensor, b: Tensor, relu=False) -> Tensor:
    """x @ w + b, then max(., 0) if `relu`, in one buffer.  A row's output
    does not depend on the other rows of x: a one-row x is multiplied as
    two rows.  Other inputs give relu(add_bias(matmul(x, w), b)) bitwise,
    forward and backward.  An x on no tape gets no gradient (None)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"dense: incompatible shapes {x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"dense: inner dims {x.data.shape[1]} != {w.data.shape[0]}")
    if x.data.shape[0] == 1:
        # OpenBLAS runs a one-row product as gemv, whose rounding differs
        # from the gemm of a larger batch; a two-row product runs as gemm
        out = (np.repeat(x.data, 2, axis=0) @ w.data)[:1]
    else:
        out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0, out=out)
    dtype = out.dtype
    taped = x.tape is not None

    def bwd(g):
        if relu:
            g = g * (out > 0)
        gx = g @ w.data.T if taped else None
        return [gx, x.data.T @ g, _column_sum(g).astype(dtype)]

    return _result(out, [x, w, b], bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    orig = x.data.shape

    def bwd(g):
        return [g.reshape(orig)]

    return _result(x.data.reshape(shape), [x], bwd)


def concat(tensors, axis=-1) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return list(np.split(g, splits, axis=axis))

    return _result(out, tensors, bwd)


def softmax(x: Tensor, axis=-1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.data.dtype)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return [y * (g - inner)]

    return _result(y, [x], bwd)


def log_softmax(x: Tensor, axis=-1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(
        np.exp(shifted).sum(axis=axis, keepdims=True, dtype=np.float64)
    ).astype(x.data.dtype)
    y = shifted - lse
    p = np.exp(y)

    def bwd(g):
        return [g - p * g.sum(axis=axis, keepdims=True)]

    return _result(y, [x], bwd)


def pick(x: Tensor, idx) -> Tensor:
    """Select one column per row of a 2-d tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    if x.data.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.data.shape[0]:
        raise DimensionError("pick: expects (N, L) tensor and N indices")
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= x.data.shape[1]):
        raise ContractError("pick: index out of range")
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return [gx]

    return _result(x.data[rows, idx], [x], bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(
        x.data.sum(dtype=np.float64) / n, dtype=x.data.dtype
    )

    def bwd(g):
        return [np.full_like(x.data, g / n)]

    return _result(out, [x], bwd)


def _runs(sizes):
    """(segment slice, row slice, segment size) of each run of consecutive
    equal-size segments."""
    edges = np.flatnonzero(np.diff(sizes)) + 1
    r0 = 0
    for g0, g1 in zip([0, *edges], [*edges, sizes.size]):
        k = int(sizes[g0])
        r1 = r0 + (g1 - g0) * k
        yield slice(g0, g1), slice(r0, r1), k
        r0 = r1


def mean_std_pool(x: Tensor, sizes, counts) -> Tensor:
    """Pool (mean || std) over segments of rows: x is (R, d), segment g is
    the next `sizes[g]` rows, and row r stands for `counts[r]` copies of
    itself.  Returns (G, 2d): each segment pooled as if its rows were
    repeated by their counts.  Population std; a zero-variance segment
    pools to 0 with a zero gradient for its std half.

    Sums accumulate in float64, each segment adding its weighted rows one
    by one in row order: a run of equal-size segments is one (n, k, d)
    einsum, which reduces its middle axis in that order.  Only an x on a
    tape keeps its centred rows, which the backward reads; off the tape
    each run's block is centred and squared in one buffer."""
    data = x.data
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if data.ndim != 2 or sizes.ndim != 1 or counts.shape != data.shape[:1]:
        raise DimensionError(
            f"mean_std_pool: x {data.shape}, sizes {sizes.shape}, counts {counts.shape}"
        )
    if sizes.size == 0 or sizes.min() < 1 or sizes.sum() != data.shape[0]:
        raise DimensionError("mean_std_pool: segment sizes must be positive and cover x")
    if counts.min() < 1:
        raise ContractError("mean_std_pool: row counts must be positive")
    dtype = data.dtype
    d = data.shape[1]
    weights = counts.astype(np.float64)
    n = np.add.reduceat(counts, np.cumsum(sizes) - sizes)[:, None]
    # mean || std, each float64 result rounded once as it is written
    out = np.empty((sizes.size, 2 * d), dtype)
    mean = out[:, :d]
    var = np.empty((sizes.size, d))
    taped = x.tape is not None
    centered = np.empty_like(data) if taped else None
    for segs, rows, k in _runs(sizes):
        block = data[rows].reshape(-1, k, d)
        w = weights[rows].reshape(-1, k)
        if k == 1:
            # a one-row segment is its own mean, whatever its count: in
            # float64, (c * x) / c need not round back to x
            mean[segs] = block[:, 0]
        else:
            mean[segs] = np.einsum("gkd,gk->gd", block, w) / n[segs]
        if taped:
            c = centered[rows].reshape(-1, k, d)
            np.subtract(block, mean[segs, None, :], out=c)
            c = np.square(c)
        else:
            c = np.subtract(block, mean[segs, None, :])
            np.square(c, out=c)
        var[segs] = np.einsum("gkd,gk->gd", c, w) / n[segs]
    std = np.sqrt(var)
    out[:, d:] = std

    def bwd(g):
        gm, gs = np.split(g, 2, axis=-1)
        nd = n.astype(dtype)
        safe = np.where(std > 0, std, 1.0).astype(dtype)
        # gs * centered + gm, each segment's gs and gm repeated for its rows
        gx = np.repeat(gs / (nd * safe), sizes, axis=0)
        gx *= centered
        gx += np.repeat(gm / nd, sizes, axis=0)
        gx *= counts[:, None].astype(dtype)
        return [gx]

    return _result(out, [x], bwd)


def einsum2(expr: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum; every subscript must appear in at least two of
    (a, b, out), which holds for all attention contractions used here."""
    lhs, out_sub = expr.split("->")
    a_sub, b_sub = lhs.split(",")
    out = np.einsum(expr, a.data, b.data)

    def bwd(g):
        ga = np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data)
        gb = np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a.data)
        return [ga, gb]

    return _result(out, [a, b], bwd)


@contextmanager
def recording(params):
    """Attach a fresh tape to the given parameters for one forward pass."""
    tape = Tape()
    for p in params:
        p.tape = tape
    try:
        yield tape
    finally:
        for p in params:
            p.tape = None


# ---------------------------------------------------------------------------
# backward pass and verification


def backward(tape: Tape, loss: Tensor, params=None):
    """Reverse sweep over the tape; returns {tensor: gradient}.

    A backward rule may give None for an input on no tape, whose gradient
    nothing reads: `dense` does for its x, so a Tensor on no tape that was
    only ever a `dense` input has no entry.  Parameters not reachable from
    the loss get zero gradients when listed in `params`.
    """
    if loss.data.size != 1:
        raise ContractError("backward: loss must be scalar")
    grads = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for out, inputs, bwd in reversed(tape.ops):
        g = grads.get(id(out))
        if g is None:
            continue
        for t, gi in zip(inputs, bwd(g)):
            if gi is None:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                holders[key] = t
    result = {holders[k]: v for k, v in grads.items()}
    if params is not None:
        for p in params:
            if p not in result:
                result[p] = np.zeros_like(p.data)
    return result


def relative_error(analytic, numeric):
    analytic = float(analytic)
    numeric = float(numeric)
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def finite_diff_check(f, params, eps=1e-3):
    """Max relative error between reverse-mode and central differences.

    `f(param_arrays) -> (loss Tensor, param Tensors)` must be deterministic;
    `params` is a list of numpy arrays, evaluated in float64 so the
    difference quotient stays meaningful at eps ~ 1e-3.
    """
    arrays = [np.array(p, dtype=np.float64) for p in params]

    loss, tensors = f(arrays)
    grads = backward(loss.tape, loss, params=tensors)
    worst = 0.0
    for k, p in enumerate(arrays):
        g_flat = np.asarray(grads[tensors[k]], dtype=np.float64).reshape(-1)
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float(f(arrays)[0].data)
            flat[j] = orig - eps
            dn = float(f(arrays)[0].data)
            flat[j] = orig
            numeric = (up - dn) / (2 * eps)
            worst = max(worst, relative_error(g_flat[j], numeric))
    return worst
