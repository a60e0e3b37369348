"""Metrics (OA, IoU, mIoU, per-class gains), confusion matrices,
rotation-structure statistics, culture categories, embedding export."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

COVERAGE_PERCENTAGES = (50, 75, 90, 100)

PERMANENT = "Permanent"
STRUCTURED = "Structured"
OTHER = "Other"


def confusion(records, num_classes):
    """(L, L) count matrix, rows = ground truth, columns = prediction
    (the argmax of the logits, ties to the lowest class)."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    if records:
        truth = np.fromiter((r.true_label for r in records), np.int64, len(records))
        predicted = np.stack([r.logits for r in records]).argmax(axis=1)
        np.add.at(cm, (truth, predicted), 1)
    return cm


def metrics(cm):
    """(OA, per-class IoU, mIoU) from a confusion matrix.

    Classes absent from both truth and prediction are excluded from the
    mIoU mean and reported as NaN."""
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise ContractError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.where(denom > 0, tp / np.maximum(denom, 1e-300), np.nan)
    oa = float(tp.sum() / total)
    miou = float(np.nanmean(iou))
    return oa, iou, miou


@dataclass
class ClassReport:
    """Per-class IoU of a model, its gain over the single-year baseline,
    and the gain relative to the baseline's headroom."""

    iou: np.ndarray
    delta: np.ndarray
    rho: np.ndarray  # NaN where the baseline IoU is 1 (no headroom)
    support: np.ndarray


def improvement(iou_model, iou_baseline, support=None) -> ClassReport:
    iou_model = np.asarray(iou_model, dtype=np.float64)
    iou_baseline = np.asarray(iou_baseline, dtype=np.float64)
    if iou_model.shape != iou_baseline.shape:
        raise ContractError("class sets differ between the two reports")
    delta = iou_model - iou_baseline
    headroom = 1.0 - iou_baseline
    rho = np.where(headroom > 0, delta / np.where(headroom > 0, headroom, 1.0), np.nan)
    if support is None:
        support = np.zeros_like(iou_model, dtype=np.int64)
    return ClassReport(iou=iou_model, delta=delta, rho=rho, support=np.asarray(support))


# ---------------------------------------------------------------------------
# rotation structure


def _successions(label_seqs, anchor_class):
    return [tuple(seq) for seq in label_seqs if seq[0] == anchor_class]


def _by_frequency(successions):
    counts = Counter(successions)
    # frequency descending, ties broken lexicographically
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def rotation_coverage(label_seqs, anchor_class, p):
    """Minimum number of distinct rotations covering p% of the successions
    anchored on `anchor_class` in year 1; None if the class never appears
    there."""
    if not 0 < p <= 100:
        raise ContractError("p must lie in (0, 100]")
    succ = _successions(label_seqs, anchor_class)
    if not succ:
        return None
    ranked = _by_frequency(succ)
    needed = p / 100 * len(succ)
    cum = 0
    for i, (_, count) in enumerate(ranked, start=1):
        cum += count
        if cum >= needed - 1e-9:
            return i
    return len(ranked)


def count_observed_rotations(label_seqs):
    return len({tuple(seq) for seq in label_seqs})


def possible_rotations(num_classes, num_years):
    return num_classes**num_years


def rotation_table(label_seqs, num_classes):
    """Per-class minimum rotation counts at each coverage percentage, plus
    an unweighted mean row over observed classes."""
    rows = {}
    for k in range(num_classes):
        counts = [rotation_coverage(label_seqs, k, p) for p in COVERAGE_PERCENTAGES]
        if counts[0] is not None:
            rows[k] = counts
    mean = [float(np.mean([rows[k][j] for k in rows]))
            for j in range(len(COVERAGE_PERCENTAGES))]
    return rows, mean


def categorize(label_seqs, num_classes):
    """Partition observed classes into Permanent (>= 90% constant
    successions), Structured (top-10 rotations cover >= 75%, not
    permanent), and Other."""
    assignment = {}
    for k in range(num_classes):
        succ = _successions(label_seqs, k)
        if not succ:
            continue
        n = len(succ)
        constant = sum(1 for s in succ if all(c == k for c in s))
        if constant / n >= 0.9:
            assignment[k] = PERMANENT
            continue
        ranked = _by_frequency(succ)
        top10 = sum(count for _, count in ranked[:10])
        assignment[k] = STRUCTURED if top10 / n >= 0.75 else OTHER
    return assignment


def group_metrics(report: ClassReport, assignment):
    """Unweighted per-category mean IoU and mean delta."""
    out = {}
    for category in (PERMANENT, STRUCTURED, OTHER):
        classes = [k for k, c in assignment.items() if c == category]
        if not classes:
            continue
        out[category] = {
            "miou": float(np.nanmean([report.iou[k] for k in classes])),
            "mean_delta": float(np.nanmean([report.delta[k] for k in classes])),
            "classes": classes,
        }
    return out


# ---------------------------------------------------------------------------
# exports


def write_confusion_csv(path, cm, class_names=None):
    cm = np.asarray(cm)
    names = class_names or [f"class_{i:02d}" for i in range(cm.shape[0])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["truth\\pred"] + list(names))
        for i, row in enumerate(cm):
            w.writerow([names[i]] + [int(v) for v in row])


def write_rotation_table_csv(path, rows, mean, class_names=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class"] + [str(p) for p in COVERAGE_PERCENTAGES])
        for k in sorted(rows):
            name = class_names[k] if class_names else f"class_{k:02d}"
            w.writerow([name, *rows[k]])
        w.writerow(["mean"] + [f"{m:.2f}" for m in mean])


# Encode batch of `export_embeddings`, smaller than predict's 256 because
# peak memory grows with it: the benchmark's cli-obs-pipeline (README dims,
# 600 parcel-years) peaks at 48.7-49.0 MB RSS with 32 and at 50.2-50.4 MB
# with 256 (10 s runs, seeds 1-3).  The encoder's pixel stage runs in
# blocks of `encoders.PIXEL_BLOCK_ROWS` rows, so only its per-batch
# arrays grow with the batch.
EMBED_BATCH = 32


def export_embeddings(model, parcels, out_path, seed=0):
    """One CSV row per parcel-year with the full descriptor, drawn with the
    keyed (seed, parcel, year) pixel draws `predict` uses."""
    from .training import encode_items

    items = [(p, y) for p in parcels for y in range(1, len(p.samples) + 1)]
    unique, rows, table = encode_items(model, items, (seed,), EMBED_BATCH)
    d = model.dims.descriptor
    # the bytes csv.writer (excel dialect) would write: "," between fields,
    # "\r\n" after each row, and no field here needs quoting
    header = ["parcel_id", "year", "label"] + [f"e{i}" for i in range(d)]
    row = ",".join(["%d"] * 3 + ["%.6e"] * d) + "\r\n"
    fields = zip(unique.ids[rows].tolist(), unique.years[rows].tolist(),
                 unique.labels[rows].tolist(), table[rows].tolist())
    with open(out_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(row % (pid, y, label, *values) for pid, y, label, values in fields))
