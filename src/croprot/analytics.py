"""Metrics (OA, IoU, mIoU, per-class gains), confusion matrices,
rotation-structure statistics, culture categories, embedding export."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import as_columns
from .errors import ContractError

COVERAGE_PERCENTAGES = (50, 75, 90, 100)

PERMANENT = "Permanent"
STRUCTURED = "Structured"
OTHER = "Other"


def confusion(preds, num_classes):
    """(L, L) count matrix of a `binio.predictions` array, rows = ground
    truth, columns = prediction (the argmax of the logits, ties to the
    lowest class)."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (preds.true_label, preds.logits.argmax(axis=1)), 1)
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
    an unweighted mean row over observed classes.  Sequences of no parcels
    or of no years hold no rotation: a ContractError."""
    if not len(label_seqs) or not len(label_seqs[0]):
        raise ContractError("no rotations: a dataset of no parcels or no years")
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


# 10**k for k in 0..22, each exact in float64 (5**22 < 2**53)
_POW10 = np.array([float(10**k) for k in range(23)])
# cells formatted per block of `export_embeddings` rows: the block's
# float64 temporaries stay near 128 KB each whatever the row count
_CSV_BLOCK_CELLS = 1 << 14


def _words(texts):
    """Each 4-byte text as one native uint32, so a lookup writes 4 bytes."""
    return np.frombuffer(b"".join(texts), np.uint32)


# A `'%.6e'` cell is 4 words: [0, 0, sign or 0, d0] [".", d1, d2, d3]
# [d4, d5, d6, "e"] [exponent sign, 2 exponent digits, ","].  Its 0 bytes
# drop out when a block is compacted.
_LEAD = _words(b"\0\0%s%d" % (sign, d) for sign in (b"\0", b"-") for d in range(10))
_MID = _words(b".%03d" % i for i in range(1000))
_LOW = _words(b"%03de" % i for i in range(1000))
_EXP = _words(b"%+03d," % e for e in range(-99, 100))


def _e6_cells(values):
    """The 4-word cells of the (rows, d) float `values`, as a (rows, d, 4)
    uint32 array: each the text of `'%.6e' % float(v)` and ",", with 0
    bytes where the text is shorter than the cell's 16 bytes.

    The digits are computed in float64.  The exponent e comes from
    `log10`; one multiplication (or division) by an exact power of ten
    10**|6 - e| (at most 10**22) scales |v| to m in [1e6, 1e7) with one
    rounding, so m lies within 1.2e-9 of the exact scaled value, and
    `np.rint` (half-even) of m gives printf's 7 digits unless m lies within
    1e-6 of a half.  Those values, any m outside [1e6, 1e7) (a `log10` one
    off), exponents outside [-16, 28] (float32 subnormals among them) and
    non-finite values are formatted by Python's `%`."""
    with np.errstate(invalid="ignore"):  # a signalling NaN raises it in the cast
        v = values.astype(np.float64).ravel()
    finite = np.isfinite(v)
    a = np.abs(v)
    a[~finite] = 0.0
    zero = a == 0
    e = np.floor(np.log10(a + zero)).astype(np.int64)
    k = 6 - e
    power = _POW10.take(np.minimum(np.abs(k), 22))
    down = k < 0
    m = np.empty_like(a)
    np.multiply(a, power, out=m, where=~down)
    np.divide(a, power, out=m, where=down)
    n = np.rint(m)
    exact = finite & (zero | ((m >= 1e6) & (m < 1e7) & (np.abs(k) <= 22)
                              & (np.abs(m - n) < 0.5 - 1e-6)))
    # from 9 999 999.5 up, m rounds to the next power of ten
    carry = n == 1e7
    n[carry] = 1e6
    e[carry] += 1
    n[~exact] = 0.0
    # n = lead * 10**6 + mid * 10**3 + low, each division exact after floor
    lead = np.floor(n / 1e6)
    n -= lead * 1e6
    mid = np.floor(n / 1e3)
    low = n - mid * 1e3
    cells = np.empty((v.size, 4), np.uint32)
    cells[:, 0] = _LEAD.take(lead.astype(np.intp) + 10 * np.signbit(v))
    cells[:, 1] = _MID.take(mid.astype(np.intp))
    cells[:, 2] = _LOW.take(low.astype(np.intp))
    # a 3-digit exponent (float64 only) is formatted by `%`; its "," stays
    cells[:, 3] = _EXP.take(e + 99, mode="clip")
    slow = np.flatnonzero(~exact)
    if slow.size:
        # at most 14 bytes: "-1.797693e+308"
        text = np.array([b"%.6e" % x for x in v[slow].tolist()], dtype="S15")
        cells.view(np.uint8)[slow, :15] = text.view(np.uint8).reshape(-1, 15)
    return cells.reshape(*values.shape, 4)


def _csv_rows(prefixes, values):
    """The CSV bytes of one row per prefix: the prefix (ASCII bytes, e.g.
    b"7,1,3,"), then the row of the (rows, d) float `values`, each as
    `'%.6e' % v`, with "," between them and "\r\n" after the last."""
    rows, d = values.shape
    head = np.array(prefixes, dtype=bytes).reshape(rows)
    width = head.dtype.itemsize
    lead = -(-width // 4)  # prefix words
    # per row: the prefix, d cells, and a word holding "\n"
    out = np.zeros((rows, lead + 4 * d + 1), np.uint32)
    out.view(np.uint8)[:, :width] = head.view(np.uint8).reshape(rows, width)
    out[:, lead:-1] = _e6_cells(values).reshape(rows, 4 * d)
    text = out.view(np.uint8)
    text[:, -5] = ord("\r")  # the last cell's ","
    text[:, -4] = ord("\n")
    # one compaction: the 0 padding of prefixes and cells drops out
    return text[text != 0].tobytes()


def export_embeddings(model, parcels, out_path, seed=0):
    """One CSV row per parcel-year of `parcels`, a list of parcels or a
    `data.Columns`, with the full descriptor, drawn with the keyed (seed,
    parcel, year) pixel draws `predict` uses.  The bytes are those
    `csv.writer` (excel dialect: "," between fields, "\r\n" after each row)
    writes for the `%d` parcel id, year and label and each descriptor value
    as printf's `%.6e`."""
    from .training import _Items, encode_items

    items = _Items.of_columns(as_columns(parcels))
    table = encode_items(model, items, (seed,))
    d = model.dims.descriptor
    header = ["parcel_id", "year", "label"] + [f"e{i}" for i in range(d)]
    block = max(1, _CSV_BLOCK_CELLS // d)
    with open(out_path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, items.ids.size, block):
            r = slice(start, start + block)
            prefixes = [b"%d,%d,%d," % t for t in zip(
                items.ids[r].tolist(), items.years[r].tolist(), items.labels[r].tolist())]
            fh.write(_csv_rows(prefixes, table[r]))
