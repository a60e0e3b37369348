import csv
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from croprot import analytics
from croprot.binio import predictions
from croprot.data import SyntheticConfig, generate_synthetic
from croprot.errors import ContractError
from croprot.model import CropModel

import oracles
from conftest import descriptors_of, tiny_dims


def recs(true, pred, L=4):
    """Predictions of parcel 0, year 1 with these true labels, each row's
    logits one-hot at its predicted class."""
    n = len(true)
    return predictions(np.zeros(n), np.ones(n), true, np.eye(L, dtype=np.float32)[pred])


class TestConfusion:
    def test_counts(self):
        cm = analytics.confusion(recs([0, 0, 1, 1], [0, 1, 1, 1]), 4)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 2
        assert cm.sum() == 4

    def test_rows_are_truth(self):
        cm = analytics.confusion(recs([2], [0]), 4)
        assert cm[2, 0] == 1 and cm[0, 2] == 0

    @pytest.mark.parametrize("num_classes", [2, 8, 20])
    @pytest.mark.parametrize("n, tied", [(1, False), (200, False), (200, True)])
    def test_matches_per_record_oracle(self, num_classes, n, tied):
        # tied logits (drawn from {-1, 0, 1}) predict the lowest tied class
        rng = np.random.default_rng(num_classes + n)
        logits = (rng.integers(-1, 2, (n, num_classes)) if tied
                  else rng.normal(0, 3, (n, num_classes))).astype(np.float32)
        records = predictions(np.arange(n), np.ones(n), rng.integers(0, num_classes, n), logits)
        cm = analytics.confusion(records, num_classes)
        assert np.array_equal(cm, oracles.confusion(records, num_classes))
        assert cm.dtype == np.int64 and cm.sum() == n

    def test_no_records(self):
        assert not analytics.confusion(recs([], [], 3), 3).any()


class TestMetrics:
    def test_hand_case(self):
        # cm = [[5, 5], [0, 10]]: OA 0.75, IoU (0.5, 2/3), mIoU 7/12
        cm = np.array([[5, 5], [0, 10]])
        oa, iou, miou = analytics.metrics(cm)
        assert oa == pytest.approx(0.75)
        assert iou[0] == pytest.approx(0.5)
        assert iou[1] == pytest.approx(2 / 3)
        assert miou == pytest.approx(7 / 12)

    def test_perfect_prediction(self):
        oa, iou, miou = analytics.metrics(np.diag([3, 4, 5]))
        assert oa == 1.0 and miou == 1.0
        assert np.allclose(iou, 1.0)

    def test_absent_class_is_nan_and_excluded(self):
        cm = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]])
        _, iou, miou = analytics.metrics(cm)
        assert np.isnan(iou[2])
        assert miou == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            analytics.metrics(np.zeros((3, 3)))

    def test_matches_per_sample_oracle(self):
        # IoU_k = TP / (TP + FP + FN) counted sample by sample
        rng = np.random.default_rng(0)
        for _ in range(100):
            L = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            truth = rng.integers(0, L, n)
            pred = rng.integers(0, L, n)
            records = recs(truth, pred, L)
            oa, iou, miou = analytics.metrics(analytics.confusion(records, L))
            assert oa == pytest.approx(np.mean(truth == pred))
            vals = []
            for k in range(L):
                tp = np.sum((truth == k) & (pred == k))
                fp = np.sum((truth != k) & (pred == k))
                fn = np.sum((truth == k) & (pred != k))
                if tp + fp + fn == 0:
                    assert np.isnan(iou[k])
                else:
                    assert iou[k] == pytest.approx(tp / (tp + fp + fn))
                    vals.append(tp / (tp + fp + fn))
            assert miou == pytest.approx(np.mean(vals))


class TestImprovement:
    def test_delta_and_rho(self):
        report = analytics.improvement([0.8, 0.5], [0.6, 0.5])
        assert report.delta == pytest.approx([0.2, 0.0])
        assert report.rho[0] == pytest.approx(0.2 / 0.4)
        assert report.rho[1] == pytest.approx(0.0)

    def test_saturated_baseline_rho_nan(self):
        report = analytics.improvement([1.0], [1.0])
        assert np.isnan(report.rho[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            analytics.improvement([0.5], [0.5, 0.6])


class TestRotationCoverage:
    def test_hand_case(self):
        # anchored on 0: rotation A x6, B x3, C x1
        seqs = (
            [(0, 1, 1)] * 6 + [(0, 2, 2)] * 3 + [(0, 3, 3)]
            + [(1, 1, 1)] * 5  # other anchor, ignored
        )
        assert analytics.rotation_coverage(seqs, 0, 50) == 1
        assert analytics.rotation_coverage(seqs, 0, 75) == 2
        assert analytics.rotation_coverage(seqs, 0, 90) == 2
        assert analytics.rotation_coverage(seqs, 0, 100) == 3

    def test_exact_percentage_boundary(self):
        # top rotation covers exactly 90% of 10 successions
        seqs = [(0, 0, 0)] * 9 + [(0, 1, 1)]
        assert analytics.rotation_coverage(seqs, 0, 90) == 1

    def test_absent_anchor_is_none(self):
        assert analytics.rotation_coverage([(1, 1, 1)], 0, 50) is None

    def test_invalid_percentage(self):
        with pytest.raises(ContractError):
            analytics.rotation_coverage([(0, 0, 0)], 0, 0)
        with pytest.raises(ContractError):
            analytics.rotation_coverage([(0, 0, 0)], 0, 101)

    def test_matches_exhaustive_oracle(self):
        # smallest subset of rotations reaching the target, found by
        # trying all subset sizes in order
        rng = np.random.default_rng(1)
        for trial in range(50):
            L = int(rng.integers(2, 4))
            n = int(rng.integers(1, 25))
            seqs = [tuple(rng.integers(0, L, 3)) for _ in range(n)]
            anchor = int(rng.integers(0, L))
            p = float(rng.choice([25, 50, 66, 75, 90, 100]))
            got = analytics.rotation_coverage(seqs, anchor, p)
            succ = [s for s in seqs if s[0] == anchor]
            if not succ:
                assert got is None
                continue
            from collections import Counter

            counts = sorted(Counter(succ).values(), reverse=True)
            need = p / 100 * len(succ)
            best = None
            for size in range(1, len(counts) + 1):
                for combo in itertools.combinations(counts, size):
                    if sum(combo) >= need - 1e-9:
                        best = size
                        break
                if best is not None:
                    break
            assert got == best

    def test_observed_and_possible_counts(self):
        seqs = [(0, 1, 2), (0, 1, 2), (1, 1, 1)]
        assert analytics.count_observed_rotations(seqs) == 2
        assert analytics.possible_rotations(20, 3) == 8000


class TestRotationTable:
    def test_rows_and_mean(self):
        seqs = [(0, 0, 0)] * 4 + [(1, 2, 1)] * 2 + [(1, 1, 1)] * 2
        rows, mean = analytics.rotation_table(seqs, 3)
        assert set(rows) == {0, 1}  # class 2 never anchors year 1
        assert rows[0] == [1, 1, 1, 1]
        assert rows[1] == [1, 2, 2, 2]
        assert mean == [1.0, 1.5, 1.5, 1.5]

    def test_csv_export(self, tmp_path):
        seqs = [(0, 0, 0)] * 4 + [(1, 2, 1)] * 2
        rows, mean = analytics.rotation_table(seqs, 3)
        path = tmp_path / "rot.csv"
        analytics.write_rotation_table_csv(path, rows, mean)
        lines = list(csv.reader(open(path)))
        assert lines[0] == ["class", "50", "75", "90", "100"]
        assert lines[-1][0] == "mean"


class TestCategorize:
    def test_three_categories(self):
        seqs = (
            [(0, 0, 0)] * 19 + [(0, 1, 0)]          # 95% constant -> Permanent
            + [(1, 2, 1)] * 16 + [(1, i % 3, (i * 7) % 3) for i in range(4)]
            # one dominant rotation -> Structured
        )
        # class 2: 40 distinct single-occurrence rotations -> Other
        seqs += [(2, i % 11, i // 11) for i in range(40)]
        assignment = analytics.categorize(seqs, 11)
        assert assignment[0] == analytics.PERMANENT
        assert assignment[1] == analytics.STRUCTURED
        assert assignment[2] == analytics.OTHER

    def test_unobserved_class_absent(self):
        assignment = analytics.categorize([(0, 0, 0)], 3)
        assert 1 not in assignment and 2 not in assignment

    def test_group_metrics(self):
        report = analytics.improvement([0.9, 0.5, 0.3], [0.8, 0.4, 0.3])
        assignment = {0: analytics.PERMANENT, 1: analytics.STRUCTURED,
                      2: analytics.STRUCTURED}
        out = analytics.group_metrics(report, assignment)
        assert out[analytics.PERMANENT]["miou"] == pytest.approx(0.9)
        assert out[analytics.STRUCTURED]["miou"] == pytest.approx(0.4)
        assert out[analytics.STRUCTURED]["mean_delta"] == pytest.approx(0.05)
        assert analytics.OTHER not in out


class TestExports:
    def test_confusion_csv(self, tmp_path):
        cm = np.array([[2, 1], [0, 3]])
        path = tmp_path / "cm.csv"
        analytics.write_confusion_csv(path, cm)
        lines = list(csv.reader(open(path)))
        assert lines[0] == ["truth\\pred", "class_00", "class_01"]
        assert lines[1] == ["class_00", "2", "1"]
        assert lines[2] == ["class_01", "0", "3"]

    def test_embedding_export(self, tmp_path, small_dataset):
        _, cfg, parcels = small_dataset
        dims = tiny_dims(num_classes=cfg.num_classes)
        dims.channels = cfg.channels
        model = CropModel(dims, "single", seed=0)
        parcels = parcels[:5]
        path = tmp_path / "emb.csv"
        analytics.export_embeddings(model, parcels, path, seed=3)
        lines = list(csv.reader(open(path)))
        assert lines[0][:3] == ["parcel_id", "year", "label"]
        assert len(lines[0]) == 3 + dims.descriptor
        assert len(lines) == 1 + 3 * len(parcels)
        # deterministic for a fixed seed
        path2 = tmp_path / "emb2.csv"
        analytics.export_embeddings(model, parcels, path2, seed=3)
        assert path.read_text() == path2.read_text()
        path3 = tmp_path / "emb3.csv"
        analytics.export_embeddings(model, parcels, path3, seed=4)
        assert path.read_text() != path3.read_text()

    def test_embedding_bytes(self, tmp_path):
        # zero output weights make every descriptor the output bias, so the
        # exact bytes are known: csv's excel dialect ("," and "\r\n") with
        # each value printed as "%.6e"
        dims = tiny_dims(num_classes=8)
        model = CropModel(dims, "single", seed=0)
        model.ltae.wo2.data[:] = 0
        model.ltae.bo2.data[:] = [0.0, 1.0, -2.5, 1 / 3, 1e-30, 3.0e38, 123456.789, 1e-40]
        parcels = generate_synthetic(SyntheticConfig(parcels=2, channels=3, seed=1))
        path = tmp_path / "emb.csv"
        analytics.export_embeddings(model, parcels, path, seed=3)
        values = ("0.000000e+00,1.000000e+00,-2.500000e+00,3.333333e-01,"
                  "1.000000e-30,3.000000e+38,1.234568e+05,9.999946e-41\r\n")
        assert path.read_bytes().decode() == (
            "parcel_id,year,label,e0,e1,e2,e3,e4,e5,e6,e7\r\n"
            + "".join(f"{pid},{y},{label},{values}" for pid, y, label in
                      [(0, 1, 6), (0, 2, 5), (0, 3, 7), (1, 1, 2), (1, 2, 3), (1, 3, 4)])
        )

    def test_embedding_rows_as_csv_writer_prints_them(self, tmp_path, small_dataset):
        _, cfg, parcels = small_dataset
        dims = tiny_dims(num_classes=cfg.num_classes)
        dims.channels = cfg.channels
        model = CropModel(dims, "single", seed=0)
        parcels = parcels[:10]
        path = tmp_path / "emb.csv"
        analytics.export_embeddings(model, parcels, path, seed=3)
        items = [(p, y) for p in parcels for y in (1, 2, 3)]
        want = descriptors_of(model, items, (3,))
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["parcel_id", "year", "label"] + [f"e{i}" for i in range(dims.descriptor)])
            for p, y in items:
                w.writerow([p.parcel_id, y, p.labels[y - 1]]
                           + [f"{v:.6e}" for v in want[(p.parcel_id, y)]])
        assert path.read_bytes() == oracle.read_bytes()

    def test_embeddings_match_encoded_descriptors(self, tmp_path, small_dataset):
        # the CSV rows are the descriptors `predict` decodes, up to the
        # 7 significant digits the CSV prints; 40 parcels split into
        # several export batches but one predict batch per year
        _, cfg, parcels = small_dataset
        dims = tiny_dims(num_classes=cfg.num_classes)
        dims.channels = cfg.channels
        model = CropModel(dims, "single", seed=0)
        parcels = parcels[:40]
        path = tmp_path / "emb.csv"
        analytics.export_embeddings(model, parcels, path, seed=3)
        items = [(p, y) for p in parcels for y in (1, 2, 3)]
        want = descriptors_of(model, items, (3,))
        rows = list(csv.reader(open(path)))[1:]
        assert len(rows) == len(want)
        for row in rows:
            e = np.asarray(row[3:], dtype=np.float64)
            np.testing.assert_allclose(e, want[(int(row[0]), int(row[1]))], rtol=1e-6)


def _printf(values):
    return "".join("%.6e\r\n" % float(v) for v in values).encode()


def _formatted(values, dtype=np.float32):
    """The embedding CSV writer's rows of one value each, with every numpy
    warning an error."""
    values = np.asarray(values, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return analytics._csv_rows([b""] * values.size, values.reshape(-1, 1))


def _neighbours(values):
    """Each float64 value as the nearest float32 and the float32 on
    either side of it, dropping those beyond the float32 range."""
    f = np.asarray(values, np.float64)
    f = f[np.abs(f) < np.finfo(np.float32).max].astype(np.float32)
    return np.concatenate([f, np.nextafter(f, np.float32(np.inf)),
                           np.nextafter(f, np.float32(-np.inf))])


class TestE6Format:
    """The embedding CSV's cells are exactly `'%.6e' % float(v)`."""

    @given(st.lists(st.floats(width=32), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        assert _formatted(values) == _printf(np.asarray(values, np.float32))

    def test_random_bit_patterns(self):
        # every float32 class: subnormals, NaNs (signalling too), infinities
        bits = np.random.default_rng(0).integers(0, 2**32, 200_000, dtype=np.uint64)
        values = bits.astype(np.uint32).view(np.float32)
        assert _formatted(values) == _printf(values)

    def test_float64_bit_patterns(self):
        # a float64 descriptor table (a float64 model) prints the same way,
        # 3-digit exponents included
        bits = np.random.default_rng(3).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), [1e-300, -1.7976931348623157e308]])
        assert _formatted(values, np.float64) == _printf(values)

    def test_rounding_midpoints(self):
        # the float32 values nearest (n + 0.5) * 10**(e - 6): printf's 7th
        # digit is decided within float32 spacing of the half
        rng = np.random.default_rng(1)
        n = rng.integers(10**6, 10**7, 50_000)
        e = rng.integers(-45, 39, 50_000)
        values = _neighbours((n + 0.5) * 10.0 ** (e - 6))
        assert _formatted(values) == _printf(values)
        assert _formatted(-values) == _printf(-values)

    def test_exponent_boundaries(self):
        # 9.9999995 * 10**e rounds up to 1.000000e(e + 1) or not
        e = np.arange(-46, 39)
        values = _neighbours(np.concatenate([9.9999995 * 10.0**e, 10.0**e]))
        assert _formatted(values) == _printf(values)

    def test_special_values(self):
        values = np.array([0.0, -0.0, 1e-45, np.finfo(np.float32).max, 9.9999995,
                           12345675.0, 2**-11, -(2**-11), np.nan, np.inf, -np.inf],
                          np.float32)
        assert _formatted(values) == _printf(values)
        # 2**-11 = 0.00048828125 is an exact tie: printf rounds it to even
        assert _formatted([2**-11, -(2**-11)]) == b"4.882812e-04\r\n-4.882812e-04\r\n"

    def test_rows_with_prefixes(self):
        rng = np.random.default_rng(2)
        values = (rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-20, 20, (7, 5)))
        values = values.astype(np.float32)
        prefixes = [b"%d,%d,%d," % (2**64 - 1 - i, i % 3 + 1, i) for i in range(7)]
        want = b"".join(p + ",".join("%.6e" % v for v in row).encode() + b"\r\n"
                        for p, row in zip(prefixes, values.tolist()))
        assert analytics._csv_rows(prefixes, values) == want

    def test_export_blocks(self, tmp_path, small_dataset, monkeypatch):
        # rows are formatted in blocks; a block of 2 rows writes the same bytes
        _, cfg, parcels = small_dataset
        dims = tiny_dims(num_classes=cfg.num_classes)
        dims.channels = cfg.channels
        model = CropModel(dims, "single", seed=0)
        whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
        analytics.export_embeddings(model, parcels[:5], whole, seed=3)
        monkeypatch.setattr(analytics, "_CSV_BLOCK_CELLS", 2 * dims.descriptor)
        analytics.export_embeddings(model, parcels[:5], blocks, seed=3)
        assert blocks.read_bytes() == whole.read_bytes()
