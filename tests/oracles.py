"""Per-sample reference encoders, built from the unfused autodiff
primitives (matmul, add_bias, relu): one (C, S) pixel set at a time and one
date sequence at a time.  Tests compare the batched `encode_batch` with
them."""

import math

import numpy as np

from croprot import autodiff as ad
from croprot.errors import ContractError


def _mlp_layer(x, w, b, relu=True):
    z = ad.add_bias(ad.matmul(x, w), b)
    return ad.relu(z) if relu else z


def pse_forward(x_t, pse):
    """Encode one (C, S) pixel set into a d2 vector; invariant to any
    permutation of the S pixels."""
    x = np.asarray(x_t.data if isinstance(x_t, ad.Tensor) else x_t)
    if not np.all(np.isfinite(x)):
        raise ContractError("pse_forward: non-finite input")
    c, s = x.shape
    flat = ad.Tensor(np.ascontiguousarray(x.T), dtype=pse.w1.data.dtype)  # (S, C)
    h = _mlp_layer(_mlp_layer(flat, pse.w1, pse.b1), pse.w2, pse.b2)
    pooled = ad.mean_std_pool(h, [s], np.ones(s, dtype=np.int64))  # (1, 2*d1)
    return ad.reshape(_mlp_layer(pooled, pse.w3, pse.b3), (pse.dims.d2,))


def ltae_forward(seq, days, ltae, return_attention=False):
    """Summarize a sequence of T vectors (d2 each) into one descriptor.

    `seq` entries are d2-dim Tensors or arrays that already include any
    positional information; per head the attention weights over the T
    entries sum to 1.
    """
    if len(seq) == 0:
        raise ContractError("ltae_forward: empty sequence")
    if len(seq) != len(days):
        raise ContractError("ltae_forward: len(seq) != len(days)")
    dims = ltae.dims
    t = len(seq)
    rows = [
        ad.reshape(s if isinstance(s, ad.Tensor) else ad.Tensor(s), (1, dims.d2))
        for s in seq
    ]
    e = ad.concat(rows, axis=0)  # (T, d2)
    keys = ad.reshape(_mlp_layer(e, ltae.wk, ltae.bk, relu=False), (t, dims.heads, dims.d_k))
    scores = ad.scale(ad.einsum2("thk,hk->ht", keys, ltae.query), 1.0 / math.sqrt(dims.d_k))
    attn = ad.softmax(scores, axis=-1)  # (H, T)
    values = ad.reshape(e, (t, dims.heads, dims.group))
    ctx = ad.reshape(ad.einsum2("ht,thg->hg", attn, values), (1, dims.d2))
    hidden = _mlp_layer(ctx, ltae.wo1, ltae.bo1)
    out = ad.reshape(_mlp_layer(hidden, ltae.wo2, ltae.bo2, relu=False), (dims.descriptor,))
    if return_attention:
        return out, attn
    return out
