"""Pixel-set encoder and lightweight temporal attention encoder.

The pixel-set encoder maps a (C, S) spectral pixel set through a shared
per-pixel MLP, pools (mean || std) over pixels, and applies a second MLP.
A drawn set is given as columns of the parcel's pixels with draw counts,
so a column drawn several times runs through the MLP once and is
weighted by its count in the pool.
The temporal encoder attends over the dated sequence of pooled vectors
with per-head learned queries and channel-grouped values, then maps the
weighted sum to the final year descriptor.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError

POSENC_TAU = 1000.0
MAX_DAY = 366


@dataclass
class EncoderDims:
    channels: int = 10
    sample_pixels: int = 32
    d1: int = 64
    d2: int = 128
    heads: int = 8
    d_k: int = 8
    out_hidden: int = 128
    descriptor: int = 128

    def validate(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.d2 % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d2 ({self.d2})")

    @property
    def group(self):
        return self.d2 // self.heads


def _affine(rng, fan_in, fan_out, dtype):
    # biases drawn like weights: keeps ReLU pre-activations off the kink,
    # which finite-difference verification is sensitive to
    lim = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-lim, lim, (fan_in, fan_out))
    b = rng.uniform(-lim, lim, fan_out)
    return ad.Tensor(w, dtype=dtype), ad.Tensor(b, dtype=dtype)


class PseWeights(ad.Parameters):
    """Per-pixel MLP (C -> d1, two layers) + post-pooling MLP (2*d1 -> d2)."""

    NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, dims: EncoderDims, rng, dtype=np.float32):
        dims.validate()
        self.dims = dims
        self.w1, self.b1 = _affine(rng, dims.channels, dims.d1, dtype)
        self.w2, self.b2 = _affine(rng, dims.d1, dims.d1, dtype)
        self.w3, self.b3 = _affine(rng, 2 * dims.d1, dims.d2, dtype)


class LtaeWeights(ad.Parameters):
    """Key projection, per-head master queries, output MLP (d2 -> descriptor)."""

    NAMES = ("wk", "bk", "query", "wo1", "bo1", "wo2", "bo2")

    def __init__(self, dims: EncoderDims, rng, dtype=np.float32):
        dims.validate()
        self.dims = dims
        self.wk, self.bk = _affine(rng, dims.d2, dims.heads * dims.d_k, dtype)
        lim = 1.0 / math.sqrt(dims.d_k)
        self.query = ad.Tensor(rng.uniform(-lim, lim, (dims.heads, dims.d_k)), dtype=dtype)
        self.wo1, self.bo1 = _affine(rng, dims.d2, dims.out_hidden, dtype)
        self.wo2, self.bo2 = _affine(rng, dims.out_hidden, dims.descriptor, dtype)


def positional_encoding(day, d, tau=POSENC_TAU):
    """Sinusoidal day-of-year encoding of dimension d."""
    pe = np.empty(d, dtype=np.float64)
    pairs = np.arange(0, d, 2)  # indices 2j
    angle = day / np.power(tau, pairs / d)
    pe[pairs] = np.sin(angle)
    cos_idx = pairs + 1
    cos_idx = cos_idx[cos_idx < d]
    pe[cos_idx] = np.cos(angle[: cos_idx.size])
    return pe.astype(np.float32)


@functools.lru_cache(maxsize=16)
def _day_table(d):
    """Read-only (MAX_DAY + 1, d) float32 table: row t is
    positional_encoding(t, d)."""
    table = np.stack([positional_encoding(t, d) for t in range(MAX_DAY + 1)])
    table.setflags(write=False)
    return table


def positional_encoding_matrix(days, d):
    """Encodings of integer days in [0, MAX_DAY], one row per day."""
    days = np.asarray(days)
    if days.dtype.kind not in "iu":
        raise ContractError(f"day-of-year encoding: days of dtype {days.dtype}, not integers")
    # a negative day would index from the end of the table
    if days.size and (days.min() < 0 or days.max() > MAX_DAY):
        raise ContractError(f"day-of-year encoding: days outside [0, {MAX_DAY}]")
    return _day_table(d)[days]


def _pixel_mlp(flat: ad.Tensor, pse: PseWeights) -> ad.Tensor:
    h = ad.dense(flat, pse.w1, pse.b1, relu=True)
    return ad.dense(h, pse.w2, pse.b2, relu=True)


def _attention(e_flat: ad.Tensor, b, t, ltae: LtaeWeights):
    """e_flat is (B*T, d2); returns context (B, d2) and weights (B, H, T)."""
    dims = ltae.dims
    keys = ad.reshape(ad.dense(e_flat, ltae.wk, ltae.bk), (b, t, dims.heads, dims.d_k))
    scores = ad.scale(
        ad.einsum2("bthk,hk->bht", keys, ltae.query), 1.0 / math.sqrt(dims.d_k)
    )
    attn = ad.softmax(scores, axis=-1)  # (B, H, T)
    values = ad.reshape(e_flat, (b, t, dims.heads, dims.group))
    ctx = ad.einsum2("bht,bthg->bhg", attn, values)
    return ad.reshape(ctx, (b, dims.d2)), attn


def _out_mlp(ctx: ad.Tensor, ltae: LtaeWeights) -> ad.Tensor:
    return ad.dense(ad.dense(ctx, ltae.wo1, ltae.bo1, relu=True), ltae.wo2, ltae.bo2)


# Kept pixel rows per pixel-stage block of a tape-free `encode_batch`:
# 1 MB per (rows, d1) float32 buffer at the default d1 = 64.
PIXEL_BLOCK_ROWS = 4096

# glibc's malloc thresholds, fixed for the process where its dynamic rule
# ends up on 64-bit: mmap above DEFAULT_MMAP_THRESHOLD_MAX (32 MiB), trim
# above twice that.  The encoder's 1-3 MB block buffers then stay on the
# heap and are reused from block to block and call to call, instead of
# being mapped or trimmed away and faulted in again; left dynamic, the
# thresholds and so the faults depend on what the process freed before.
# A C library without mallopt is left as it is.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _blocks(sizes, bound):
    """(segment slice, row slice) of consecutive blocks of whole segments,
    segment g being the next sizes[g] rows: each block holds at most
    `bound` rows, or one segment larger than that."""
    ends = np.cumsum(sizes)
    g0 = r0 = 0
    while g0 < sizes.size:
        g1 = max(int(np.searchsorted(ends, r0 + bound, side="right")), g0 + 1)
        r1 = int(ends[g1 - 1])
        yield slice(g0, g1), slice(r0, r1)
        g0, r0 = g1, r1


def encode_batch(columns, counts, sets, days, pse: PseWeights, ltae: LtaeWeights):
    """Encode a batch of B pixel-set draws into the (B, descriptor) Tensor
    of year descriptors.

    sets: B pixel arrays (C, N_b, T).  columns, counts: (B, S) integer
    arrays; item b drew column columns[b, j] of sets[b] counts[b, j] times
    (a count of 0 marks padding), and each row of counts sums to the draw
    size S.  days: (B, T) day-of-year array.  The sets are joined along
    the pixel axis and every kept (item, date, column) row is gathered in
    one index, so the per-pixel MLP runs once per kept column and date,
    and the pool weights each row by its count: the result is the
    encoding of the S drawn pixels.  Off the tape, gather, MLP and pool
    run over `_blocks` of whole (item, date) segments, so their buffers
    do not grow with the batch; no MLP row or pooled segment depends on
    the others, so the blocks do not change the result.  An empty batch,
    items with no dates (T = 0), a kept column outside [0, N_b) of its own
    set, or a set of another channel or date count is a ContractError.
    """
    columns = np.asarray(columns)
    counts = np.asarray(counts)
    days = np.asarray(days)
    b, s = columns.shape
    if not b or counts.shape != (b, s) or len(sets) != b or days.ndim != 2 or len(days) != b:
        raise ContractError(
            f"encode_batch: columns {columns.shape}, counts {counts.shape}, "
            f"{len(sets)} pixel sets, days {days.shape}"
        )
    if counts.min(initial=0) < 0 or np.any(counts.sum(axis=1) != s):
        raise ContractError(f"encode_batch: counts must be >= 0 and sum to {s} per item")
    t = days.shape[1]
    if t < 1:
        raise ContractError("encode_batch: items with no dates")
    c = pse.dims.channels
    for x in sets:
        if x.ndim != 3 or x.shape[0] != c or x.shape[2] != t:
            raise ContractError(f"encode_batch: pixel set {x.shape}, expected ({c}, N, {t})")
    n = np.fromiter((x.shape[1] for x in sets), np.int64, b)
    keep = counts > 0
    if np.any(keep & ((columns < 0) | (columns >= n[:, None]))):
        raise ContractError("encode_batch: a drawn column lies outside its pixel set")
    # every kept (item, date, column), item by item, date by date, column
    # by column: one segment of k_b rows per (item, date).  The joined
    # sets hold item b's pixels from offset[b], and read as
    # (C, sum N_b * T) they hold pixel p's date d at p * T + d.
    kept = np.broadcast_to(keep[:, None, :], (b, t, s))
    offset = np.cumsum(n) - n
    rows = ((columns + offset[:, None])[:, None, :] * t + np.arange(t)[None, :, None])[kept]
    joined = np.concatenate(sets, axis=1).reshape(c, -1)
    dtype = pse.w1.data.dtype
    # each row weighted by its count
    weights = np.broadcast_to(counts[:, None, :], (b, t, s))[kept]
    sizes = np.repeat(keep.sum(axis=1), t)

    def pool(segs, part):
        flat = ad.Tensor(np.take(joined.T, rows[part], axis=0).astype(dtype, copy=False))
        return ad.mean_std_pool(_pixel_mlp(flat, pse), sizes[segs], weights[part])

    if any(w.tape is not None for w in pse.parameters()):
        # backward keeps every block's buffers alive anyway, and one block
        # keeps the weight-gradient sums in one order
        pooled = pool(slice(None), slice(None))
    else:
        # the blocks' pooled rows, joined once at the end; with malloc's
        # thresholds fixed above, each block reuses the buffers the last
        # one freed, so a warm predict-default unit takes no minor fault
        # (nor does it with the rows written into one preallocated array)
        pooled = ad.Tensor(np.concatenate(
            [pool(segs, part).data for segs, part in _blocks(sizes, PIXEL_BLOCK_ROWS)]))
    e = ad.dense(pooled, pse.w3, pse.b3, relu=True)  # (B*T, d2)
    pe = positional_encoding_matrix(days.reshape(-1), pse.dims.d2)
    if e.tape is None:
        # e's buffer is dense's own and no tape op reads it
        e.data += pe
    else:
        e = ad.add(e, ad.Tensor(pe.astype(dtype)))
    ctx, _ = _attention(e, b, t, ltae)
    return _out_mlp(ctx, ltae)
