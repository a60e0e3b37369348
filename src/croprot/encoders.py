"""Pixel-set encoder and lightweight temporal attention encoder.

The pixel-set encoder maps a (C, S) spectral pixel set through a shared
per-pixel MLP, pools (mean || std) over pixels, and applies a second MLP.
The temporal encoder attends over the dated sequence of pooled vectors
with per-head learned queries and channel-grouped values, then maps the
weighted sum to the final year descriptor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    return ad.parameter(w, None, dtype=dtype), ad.parameter(b, None, dtype=dtype)


class PseWeights:
    """Per-pixel MLP (C -> d1, two layers) + post-pooling MLP (2*d1 -> d2)."""

    def __init__(self, dims: EncoderDims, rng, dtype=np.float32):
        self.dims = dims
        self.w1, self.b1 = _affine(rng, dims.channels, dims.d1, dtype)
        self.w2, self.b2 = _affine(rng, dims.d1, dims.d1, dtype)
        self.w3, self.b3 = _affine(rng, 2 * dims.d1, dims.d2, dtype)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]


class LtaeWeights:
    """Key projection, per-head master queries, output MLP (d2 -> descriptor)."""

    def __init__(self, dims: EncoderDims, rng, dtype=np.float32):
        dims.validate()
        self.dims = dims
        self.wk, self.bk = _affine(rng, dims.d2, dims.heads * dims.d_k, dtype)
        lim = 1.0 / math.sqrt(dims.d_k)
        self.query = ad.parameter(
            rng.uniform(-lim, lim, (dims.heads, dims.d_k)), None, dtype=dtype
        )
        self.wo1, self.bo1 = _affine(rng, dims.d2, dims.out_hidden, dtype)
        self.wo2, self.bo2 = _affine(rng, dims.out_hidden, dims.descriptor, dtype)

    def parameters(self):
        return [self.wk, self.bk, self.query, self.wo1, self.bo1, self.wo2, self.bo2]


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
def _day_table(d, tau):
    """Read-only (MAX_DAY + 1, d) float32 table: row t is
    positional_encoding(t, d, tau)."""
    table = np.stack([positional_encoding(t, d, tau) for t in range(MAX_DAY + 1)])
    table.setflags(write=False)
    return table


def positional_encoding_matrix(days, d, tau=POSENC_TAU):
    """Encodings of integer days in [0, MAX_DAY], one row per day."""
    days = np.asarray(days)
    if days.dtype.kind not in "iu":
        raise ContractError(f"day-of-year encoding: days of dtype {days.dtype}, not integers")
    # a negative day would index from the end of the table
    if days.size and (days.min() < 0 or days.max() > MAX_DAY):
        raise ContractError(f"day-of-year encoding: days outside [0, {MAX_DAY}]")
    return _day_table(d, tau)[days]


def _pixel_mlp(flat: ad.Tensor, pse: PseWeights) -> ad.Tensor:
    h = ad.relu(ad.add_bias(ad.matmul(flat, pse.w1), pse.b1))
    return ad.relu(ad.add_bias(ad.matmul(h, pse.w2), pse.b2))


def pse_forward(x_t, pse: PseWeights) -> ad.Tensor:
    """Encode one (C, S) pixel set into a d2 vector; invariant to any
    permutation of the S pixels."""
    x = np.asarray(x_t.data if isinstance(x_t, ad.Tensor) else x_t)
    if not np.all(np.isfinite(x)):
        raise ContractError("pse_forward: non-finite input")
    c, s = x.shape
    flat = ad.Tensor(np.ascontiguousarray(x.T), dtype=pse.w1.data.dtype)  # (S, C)
    per_pixel = _pixel_mlp(flat, pse)
    pooled = ad.mean_std_pool(per_pixel, axis=0)  # (2*d1,)
    out = ad.relu(
        ad.add_bias(ad.matmul(ad.reshape(pooled, (1, 2 * pse.dims.d1)), pse.w3), pse.b3)
    )
    return ad.reshape(out, (pse.dims.d2,))


def _attention(e_flat: ad.Tensor, b, t, ltae: LtaeWeights):
    """e_flat is (B*T, d2); returns context (B, d2) and weights (B, H, T)."""
    dims = ltae.dims
    keys = ad.reshape(
        ad.add_bias(ad.matmul(e_flat, ltae.wk), ltae.bk),
        (b, t, dims.heads, dims.d_k),
    )
    scores = ad.scale(
        ad.einsum2("bthk,hk->bht", keys, ltae.query), 1.0 / math.sqrt(dims.d_k)
    )
    attn = ad.softmax(scores, axis=-1)  # (B, H, T)
    values = ad.reshape(e_flat, (b, t, dims.heads, dims.group))
    ctx = ad.einsum2("bht,bthg->bhg", attn, values)
    return ad.reshape(ctx, (b, dims.d2)), attn


def _out_mlp(ctx: ad.Tensor, ltae: LtaeWeights) -> ad.Tensor:
    h = ad.relu(ad.add_bias(ad.matmul(ctx, ltae.wo1), ltae.bo1))
    return ad.add_bias(ad.matmul(h, ltae.wo2), ltae.bo2)


def ltae_forward(seq, days, ltae: LtaeWeights, return_attention=False):
    """Summarize a sequence of T vectors (d2 each) into one descriptor.

    `seq` entries are d2-dim Tensors or arrays that already include any
    positional information; per head the attention weights over the T
    entries sum to 1.
    """
    if len(seq) == 0:
        raise ContractError("ltae_forward: empty sequence")
    if len(seq) != len(days):
        raise ContractError("ltae_forward: len(seq) != len(days)")
    t = len(seq)
    rows = [
        ad.reshape(s if isinstance(s, ad.Tensor) else ad.Tensor(s), (1, ltae.dims.d2))
        for s in seq
    ]
    e_flat = ad.concat(rows, axis=0)  # (T, d2)
    ctx, attn = _attention(e_flat, 1, t, ltae)
    out = ad.reshape(_out_mlp(ctx, ltae), (ltae.dims.descriptor,))
    if return_attention:
        return out, ad.reshape(attn, (ltae.dims.heads, t))
    return out


def encode_batch(pixels, days, pse: PseWeights, ltae: LtaeWeights):
    """Encode a batch of sampled pixel sets.

    pixels: (B, C, S, T) array; days: (B, T) or (T,) day-of-year array.
    Returns the (B, descriptor) Tensor of year descriptors.
    """
    b, c, s, t = pixels.shape
    days = np.asarray(days)
    if days.ndim == 1:
        days = np.broadcast_to(days, (b, t))
    dtype = pse.w1.data.dtype
    # (B, C, S, T) -> (B*T*S, C)
    flat = ad.Tensor(
        np.ascontiguousarray(np.transpose(pixels, (0, 3, 2, 1))).reshape(-1, c),
        dtype=dtype,
    )
    per_pixel = _pixel_mlp(flat, pse)
    pooled = ad.mean_std_pool(
        ad.reshape(per_pixel, (b, t, s, pse.dims.d1)), axis=2
    )  # (B, T, 2*d1)
    e = ad.relu(
        ad.add_bias(ad.matmul(ad.reshape(pooled, (b * t, 2 * pse.dims.d1)), pse.w3), pse.b3)
    )
    pe = positional_encoding_matrix(days.reshape(-1), pse.dims.d2).astype(dtype)
    e = ad.add(e, ad.Tensor(pe))
    ctx, _ = _attention(e, b, t, ltae)
    return _out_mlp(ctx, ltae)
