"""Classification heads mapping year descriptors (and label history) to
class scores.

Five variants: "single" reads no history, "dec" consumes the sum of the
previous two one-hot declarations, "dec-concat" their concatenation,
"dec-one-year" only the last declaration, and "obs" the average of the
previous two year descriptors, or the one past descriptor at year 2.
`history_features` builds them all; a year before the first reads zeros.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError

VARIANTS = ("single", "dec", "dec-concat", "dec-one-year", "obs")


def history_features(variant, prev1, prev2, table):
    """(B, F) float32 head features from (B,) rows of years i-1 and i-2 in
    the (N, W) float32 `table`; -1 marks a year before the first and reads
    a zero row.  "single" reads none: F is 0.  The dec family indexes an
    identity table by label: "dec" sums the two one-hot declarations
    (order-free), "dec-concat" joins them and "dec-one-year" keeps prev1.
    "obs" indexes past descriptors: their average, prev1 alone when prev2
    is -1 (year 2), zeros at year 1."""
    prev1 = np.asarray(prev1, dtype=np.int64)
    prev2 = np.asarray(prev2, dtype=np.int64)
    table = np.asarray(table, dtype=np.float32)
    rows = np.concatenate([prev1, prev2])
    if rows.size and (rows.min() < -1 or rows.max() >= len(table)):
        raise ContractError(f"history rows must lie in [-1, {len(table)})")
    if variant == "single":
        return np.zeros((prev1.size, 0), dtype=np.float32)
    # the table's rows, then a zero row that index -1 reads
    padded = np.concatenate([table, np.zeros((1, table.shape[1]), dtype=np.float32)])
    a, b = padded[prev1], padded[prev2]
    if variant == "dec":
        return a + b
    if variant == "dec-concat":
        return np.concatenate([a, b], axis=1)
    if variant == "dec-one-year":
        return a
    if variant == "obs":
        return np.where(prev2[:, None] < 0, a, (a + b) / 2)
    raise ConfigError(f"unknown head variant {variant!r}")


def feature_dim(variant, num_classes, descriptor_dim):
    """Width of the variant's `history_features`, read off no rows of its
    table: descriptors on "obs", one-hot labels otherwise."""
    width = descriptor_dim if variant == "obs" else num_classes
    return history_features(variant, [], [], np.zeros((0, width))).shape[1]


class HeadWeights(ad.Parameters):
    """Two-layer decoder MLP: (descriptor + feature) -> hidden -> L."""

    NAMES = ("w1", "b1", "w2", "b2")

    def __init__(self, variant, num_classes, descriptor_dim, hidden, rng, dtype=np.float32):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown head variant {variant!r}")
        self.variant = variant
        self.num_classes = num_classes
        self.input_dim = descriptor_dim + feature_dim(variant, num_classes, descriptor_dim)
        lim1 = 1.0 / math.sqrt(self.input_dim)
        lim2 = 1.0 / math.sqrt(hidden)
        self.w1 = ad.Tensor(rng.uniform(-lim1, lim1, (self.input_dim, hidden)), dtype=dtype)
        self.b1 = ad.Tensor(rng.uniform(-lim1, lim1, hidden), dtype=dtype)
        self.w2 = ad.Tensor(rng.uniform(-lim2, lim2, (hidden, num_classes)), dtype=dtype)
        self.b2 = ad.Tensor(rng.uniform(-lim2, lim2, num_classes), dtype=dtype)


def decode(e, head: HeadWeights, feature):
    """Map descriptors (B, D) and the variant's (B, input_dim - D) constant
    `history_features` array, (B, 0) on "single", to (B, L) logits."""
    x = e if isinstance(e, ad.Tensor) else ad.Tensor(e, dtype=head.w1.data.dtype)
    f = np.asarray(feature, dtype=head.w1.data.dtype)
    if f.shape != (x.data.shape[0], head.input_dim - x.data.shape[1]):
        raise ContractError(
            f"feature shape {f.shape} incompatible with variant {head.variant}"
        )
    x = ad.concat([x, ad.Tensor(f)], axis=1)
    return ad.dense(ad.dense(x, head.w1, head.b1, relu=True), head.w2, head.b2)
