"""Temperature scaling of logits and expected calibration error reporting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

DEFAULT_BINS = 15
# the most reliability bins: 10 000 bins of (0, 1] are 1e-4 wide, finer
# than any ECE needs, and a count far above it would only exhaust memory
MAX_BINS = 10_000
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass
class TemperatureScaler:
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ContractError("temperature must be positive")


@dataclass
class ReliabilityBins:
    n_bins: int
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray


def _softmax(z, tau=1.0):
    z = np.asarray(z, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _nll(z, labels, tau):
    z = z / tau
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return float(np.mean(lse - z[np.arange(len(z)), labels]))


def nll(preds, tau):
    """Mean negative log-likelihood of softmax(z / tau) over a
    `binio.predictions` array."""
    return _nll(preds.logits.astype(np.float64), preds.true_label, tau)


def fit_temperature(preds) -> TemperatureScaler:
    """Golden-section search for the tau minimizing the validation NLL of a
    `binio.predictions` array, over log-tau in [-3, 3] to tolerance 1e-4;
    never worse than tau = 1.  The logits are converted once and every step
    scores the whole array."""
    if not len(preds):
        raise ContractError("fit_temperature needs at least one record")
    z, labels = preds.logits.astype(np.float64), preds.true_label

    def objective(log_tau):
        return _nll(z, labels, math.exp(log_tau))

    a, b = -3.0, 3.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    tau = math.exp((a + b) / 2)
    if _nll(z, labels, tau) > _nll(z, labels, 1.0):
        tau = 1.0
    return TemperatureScaler(tau=tau)


def apply_temperature(z, tau):
    """softmax(z / tau) along the last axis; preserves the argmax for every
    tau > 0.  Each row of a (N, L) array is bitwise the row alone gives."""
    if tau <= 0:
        raise ContractError("temperature must be positive")
    return _softmax(np.asarray(z), tau)


def _bin_index(confidence, n_bins):
    """Bin of each confidence: bins partition (0, 1], and a confidence
    exactly on an edge goes low."""
    return np.clip(np.ceil(np.asarray(confidence, np.float64) * n_bins) - 1,
                   0, n_bins - 1).astype(np.int64)


def reliability(preds, posterior, n_bins=DEFAULT_BINS) -> ReliabilityBins:
    """Count, mean confidence and accuracy per bin of the max-posterior
    confidence of a `binio.predictions` array with its (N, L) posteriors,
    the prediction being the argmax of the logits; all rows are binned at
    once, and `np.bincount` adds the weights in row order, so each sum is
    the one a loop over the rows gives."""
    if not 1 <= n_bins <= MAX_BINS:
        raise ContractError(f"need 1 to {MAX_BINS} bins, got {n_bins}")
    if np.shape(posterior) != preds.logits.shape:
        raise ContractError(
            f"need one posterior per logit, {preds.logits.shape}; got {np.shape(posterior)}")
    predicted = preds.logits.argmax(axis=1)
    confidence = posterior[np.arange(len(preds)), predicted].astype(np.float64)
    hit = predicted == preds.true_label
    b = _bin_index(confidence, n_bins)
    counts = np.bincount(b, minlength=n_bins)
    conf_sum = np.bincount(b, weights=confidence, minlength=n_bins)
    correct = np.bincount(b, weights=hit, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), 0.0)
        acc = np.where(counts > 0, correct / np.maximum(counts, 1), 0.0)
    return ReliabilityBins(
        n_bins=n_bins, counts=counts, mean_confidence=mean_conf, accuracy=acc
    )


def ece(preds, posterior, n_bins=DEFAULT_BINS):
    """Expected calibration error over max-confidence bins."""
    bins = reliability(preds, posterior, n_bins)
    n = bins.counts.sum()
    if n == 0:
        return 0.0
    weights = bins.counts / n
    return float(np.sum(weights * np.abs(bins.accuracy - bins.mean_confidence)))


def write_reliability_csv(path, bins: ReliabilityBins):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin", "count", "confidence", "accuracy"])
        for i in range(bins.n_bins):
            w.writerow(
                [
                    i,
                    int(bins.counts[i]),
                    f"{bins.mean_confidence[i]:.6f}",
                    f"{bins.accuracy[i]:.6f}",
                ]
            )
