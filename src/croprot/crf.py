"""Chain-CRF baseline: Laplace-smoothed second-order transition tensor
combined with calibrated posteriors for the current year."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .binio import U32, Reader, is_int, json_text, read_json, write_text
from .errors import ContractError, DataFormatError

TENSOR_MAGIC = b"RCTT"


@dataclass
class TransitionTensor:
    """t[a, b, c] = P(label_i = c | label_{i-2} = a, label_{i-1} = b)."""

    t: np.ndarray  # (L, L, L)
    alpha: float
    triplet_count: int = 0

    @property
    def num_classes(self):
        return self.t.shape[0]


def estimate_transitions(histories, num_classes, alpha=1.0) -> TransitionTensor:
    """Add-alpha estimate of the transition tensor from the label triplets
    (a, b, c) of N label histories, an (N, Y) array-like: every run of
    three consecutive labels of a row counts once, N * (Y - 2) in all, so
    a triplet list is the Y = 3 case.  Unseen (a, b) contexts fall back to
    the uniform prior."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ContractError(f"Laplace constant alpha must be finite and positive, not {alpha}")
    L = num_classes
    h = np.array(histories, dtype=np.int64, ndmin=2)  # no histories: shape (1, 0)
    if h.ndim != 2:
        raise ContractError(f"label histories must be an (N, Y) array, not {h.shape}")
    counts = np.zeros((L, L, L), dtype=np.float64)
    np.add.at(counts, (h[:, :-2], h[:, 1:-1], h[:, 2:]), 1)
    totals = counts.sum(axis=2, keepdims=True)
    t = (counts + alpha) / (totals + alpha * L)
    return TransitionTensor(t=t, alpha=float(alpha), triplet_count=h[:, 2:].size)


def crf_score(p, a, b, transitions: TransitionTensor):
    """Hadamard product of the calibrated posterior with the transition row
    for past labels (a, b); returns (raw scores, normalized posterior).
    `p` is one (L,) posterior with labels a and b, or (N, L) posteriors
    with (N,) label arrays, each row scored as it would be alone.

    Applies to years i > 2 only; the caller is responsible for restricting
    the evaluation accordingly."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != transitions.num_classes:
        raise ContractError("posterior length must match the class count")
    if (np.abs(p.sum(axis=-1) - 1.0) > 1e-4).any():
        raise ContractError("crf_score expects a calibrated posterior summing to 1")
    row = transitions.t[a, b, :]
    scores = p * row
    total = scores.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ContractError("degenerate CRF score (all-zero product)")
    return scores, scores / total


def save_transitions(path, transitions: TransitionTensor):
    """Write the tensor to `path` and its JSON sidecar; a sidecar that JSON
    cannot encode raises DataFormatError before either file is opened."""
    path = str(path)
    sidecar = json_text({
        "num_classes": transitions.num_classes,
        "alpha": transitions.alpha,
        "triplet_count": transitions.triplet_count,
    }, f"transition-tensor sidecar {path}.json")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", transitions.num_classes))
        fh.write(np.ascontiguousarray(transitions.t, dtype="<f8").tobytes())
    write_text(path + ".json", sidecar)


def load_transitions(path):
    """Read a transition tensor and its sidecar.  A sidecar that is not a
    JSON object whose alpha is a finite positive number, whose
    triplet_count is a non-negative integer and whose num_classes is the
    tensor's L, or a tensor that is not a probability table (finite,
    non-negative, each (a, b) row summing to 1 within 1e-9), is a
    DataFormatError."""
    path = str(path)
    meta = read_json(path + ".json", "transition-tensor sidecar")
    r = Reader(path, "RCTT")
    r.magic(TENSOR_MAGIC, "transition-tensor magic")
    (L,) = r.unpack(U32, "class count")
    t = r.array("<f8", L * L * L, "transition tensor").reshape(L, L, L)
    r.finish()
    alpha, count = meta.get("alpha"), meta.get("triplet_count")
    if not (type(alpha) in (int, float) and 0 < alpha < math.inf and is_int(count)
            and count >= 0 and is_int(meta.get("num_classes")) and meta["num_classes"] == L):
        raise DataFormatError(
            f"transition-tensor sidecar {path}.json needs alpha, a finite positive number, "
            f"triplet_count, a non-negative integer, and num_classes, the tensor's {L}")
    if not np.isfinite(t).all() or (t < 0).any():
        raise DataFormatError(f"RCTT tensor {path} holds non-finite or negative entries")
    off = np.abs(t.sum(axis=2) - 1.0) > 1e-9
    if off.any():
        a, b = np.argwhere(off)[0]
        raise DataFormatError(
            f"RCTT tensor {path}: row ({a}, {b}) sums to {t[a, b].sum()!r}, not 1"
        )
    return TransitionTensor(t=t, alpha=alpha, triplet_count=count)
