"""Temperature scaling of logits and expected calibration error reporting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

DEFAULT_BINS = 15
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


def nll(records, tau):
    """Mean negative log-likelihood of softmax(z / tau)."""
    z = np.stack([r.logits for r in records]).astype(np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    labels = np.asarray([r.true_label for r in records])
    return float(np.mean(lse - z[np.arange(len(records)), labels]))


def fit_temperature(records) -> TemperatureScaler:
    """Golden-section search for the tau minimizing validation NLL, over
    log-tau in [-3, 3] to tolerance 1e-4; never worse than tau = 1."""
    if not records:
        raise ContractError("fit_temperature needs at least one record")

    def objective(log_tau):
        return nll(records, math.exp(log_tau))

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
    if nll(records, tau) > nll(records, 1.0):
        tau = 1.0
    return TemperatureScaler(tau=tau)


def apply_temperature(z, tau):
    """softmax(z / tau); preserves the argmax for every tau > 0."""
    if tau <= 0:
        raise ContractError("temperature must be positive")
    return _softmax(np.asarray(z), tau)


def calibrate_records(records, tau):
    """Attach softmax(z / tau) posteriors; mutates and returns records."""
    for r in records:
        r.posterior = apply_temperature(r.logits, tau).astype(np.float32)
    return records


def _bin_index(confidence, n_bins):
    # bins partition (0, 1]; a confidence exactly on an edge goes low
    return min(max(int(math.ceil(confidence * n_bins)) - 1, 0), n_bins - 1)


def reliability(records, n_bins=DEFAULT_BINS) -> ReliabilityBins:
    if n_bins < 1:
        raise ContractError(f"need at least one bin, got {n_bins}")
    counts = np.zeros(n_bins, dtype=np.int64)
    conf_sum = np.zeros(n_bins)
    correct = np.zeros(n_bins)
    for r in records:
        if r.posterior is None:
            raise ContractError("records must carry posteriors; calibrate first")
        b = _bin_index(r.confidence, n_bins)
        counts[b] += 1
        conf_sum[b] += r.confidence
        correct[b] += r.predicted == r.true_label
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), 0.0)
        acc = np.where(counts > 0, correct / np.maximum(counts, 1), 0.0)
    return ReliabilityBins(
        n_bins=n_bins, counts=counts, mean_confidence=mean_conf, accuracy=acc
    )


def ece(records, n_bins=DEFAULT_BINS):
    """Expected calibration error over max-confidence bins."""
    bins = reliability(records, n_bins)
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
