"""Classification heads mapping year descriptors (and label history) to
class scores.

Five variants: "single" ignores history, "dec" consumes the sum of the
previous two one-hot declarations, "dec-concat" their concatenation,
"dec-one-year" only the last declaration, and "obs" the average of the
previous two year descriptors.  Missing history years are zero-padded.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError

VARIANTS = ("single", "dec", "dec-concat", "dec-one-year", "obs")


def history_features(variant, prev1, prev2, num_classes):
    """(B, F) float32 features of the dec family from (B,) integer labels
    of years i-1 and i-2, where -1 marks a year before the first: "dec"
    sums the two one-hot declarations (order-free), "dec-concat" joins
    them as [prev1 || prev2] and "dec-one-year" keeps prev1 alone.  A
    missing year contributes a zero vector."""
    prev1 = np.asarray(prev1, dtype=np.int64)
    prev2 = np.asarray(prev2, dtype=np.int64)
    labels = np.concatenate([prev1, prev2])
    if labels.size and (labels.min() < -1 or labels.max() >= num_classes):
        raise ContractError(f"declared labels must lie in [-1, {num_classes})")
    # identity rows for the classes, then a zero row that label -1 indexes
    onehot = np.eye(num_classes + 1, num_classes, dtype=np.float32)
    if variant == "dec":
        return onehot[prev1] + onehot[prev2]
    if variant == "dec-concat":
        return np.concatenate([onehot[prev1], onehot[prev2]], axis=1)
    if variant == "dec-one-year":
        return onehot[prev1]
    raise ConfigError(f"variant {variant!r} takes no label history")


def obs_feature(e_prev1, e_prev2, year_index, descriptor_dim):
    """Average of the previous two year descriptors, with mirror padding at
    year 2 and zero padding at year 1.  The inputs are plain arrays: no
    gradient flows into previous years."""
    if year_index == 1:
        return np.zeros(descriptor_dim, dtype=np.float32)
    if year_index == 2:
        if e_prev1 is None:
            raise ContractError("obs_feature: year 2 requires the year-1 descriptor")
        return np.asarray(e_prev1, dtype=np.float32).copy()
    if e_prev1 is None or e_prev2 is None:
        raise ContractError("obs_feature: years > 2 require both past descriptors")
    return ((np.asarray(e_prev1) + np.asarray(e_prev2)) / 2).astype(np.float32)


def feature_dim(variant, num_classes, descriptor_dim):
    if variant == "single":
        return 0
    if variant in ("dec", "dec-one-year"):
        return num_classes
    if variant == "dec-concat":
        return 2 * num_classes
    if variant == "obs":
        return descriptor_dim
    raise ConfigError(f"unknown head variant {variant!r}")


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


def decode(e, head: HeadWeights, feature=None):
    """Map descriptors (B, D) plus the variant's feature to (B, L) logits.

    `feature` is a (B, F) constant array; None for "single"."""
    x = e if isinstance(e, ad.Tensor) else ad.Tensor(e, dtype=head.w1.data.dtype)
    if head.variant == "single":
        if feature is not None and np.asarray(feature).size:
            raise ContractError("single head takes no feature input")
    else:
        if feature is None:
            raise ContractError(f"{head.variant} head requires a feature input")
        f = np.asarray(feature, dtype=head.w1.data.dtype)
        if f.shape != (x.data.shape[0], head.input_dim - x.data.shape[1]):
            raise ContractError(
                f"feature shape {f.shape} incompatible with variant {head.variant}"
            )
        x = ad.concat([x, ad.Tensor(f)], axis=1)
    if x.data.shape[1] != head.input_dim:
        raise ContractError(
            f"decoder input dim {x.data.shape[1]} != expected {head.input_dim}"
        )
    return ad.dense(ad.dense(x, head.w1, head.b1, relu=True), head.w2, head.b2)
