"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the directional-experiment criterion trains 25 small models and
takes a couple of minutes.
"""

import itertools
import json
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from croprot import analytics, autodiff as ad, calibration, heads
from croprot.cli import main as cli_main
from croprot.binio import predictions
from croprot.crf import TransitionTensor, crf_score, estimate_transitions
from croprot.data import (
    Dataset,
    SyntheticConfig,
    draw_keys,
    generate_synthetic,
    load_dataset,
    make_folds,
    sample_pixels,
    save_dataset,
)
from croprot.encoders import EncoderDims, LtaeWeights, PseWeights, encode_batch
from croprot.model import CropModel, ModelDims
from croprot.training import (
    TrainConfig,
    cross_entropy,
    predict,
    train,
)

from conftest import features_of, tiny_dims
from oracles import ltae_forward, pse_forward


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    L = 4
    cfg = SyntheticConfig(
        num_classes=L, cycles=((2, 3),), channels=3, timesteps=4, parcels=2,
        pixels_min=5, pixels_max=5, seed=23,
    )
    parcels = generate_synthetic(cfg)
    items = [(p, 3) for p in parcels]
    keys = draw_keys((0,), [p.parcel_id for p, _ in items], [3] * len(items))
    columns, counts = sample_pixels(keys, [p.samples[2].n_pixels for p, _ in items], 4)
    dims = tiny_dims(num_classes=L)
    labels = np.asarray([p.labels[2] for p, _ in items], dtype=np.int64)
    sets = [p.samples[2].pixels for p, _ in items]
    days = np.stack([p.samples[2].days for p, _ in items])
    worst = {}
    for variant in heads.VARIANTS:
        base = CropModel(dims, variant, seed=2, dtype=np.float64)
        arrays = [np.array(p.data) for p in base.parameters()]
        assert sum(a.size for a in arrays) <= 2_000
        # the "obs" features are detached by design: hold them fixed so the
        # difference quotient matches the analytic (detached) gradient
        features = features_of(base, items)

        def f(arrs):
            model = CropModel(dims, variant, seed=2, dtype=np.float64)
            tensors = model.parameters()
            for t, a in zip(tensors, arrs):
                t.data = a
            with ad.recording(tensors):
                e = encode_batch(columns, counts, sets, days, model.pse, model.ltae)
                z = heads.decode(e, model.head, features)
                loss = cross_entropy(z, labels)
            return loss, tensors

        worst[variant] = ad.finite_diff_check(f, arrays, eps=1e-3)
    elapsed = time.time() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 120
    report(1, "gradient fidelity", ok,
           f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. structural invariants


def test_criterion_02_structural_invariants():
    dims = EncoderDims(channels=3, sample_pixels=4, d1=4, d2=8, heads=2,
                       d_k=4, out_hidden=8, descriptor=8)
    rng = np.random.default_rng(0)
    pse = PseWeights(dims, rng)
    ltae = LtaeWeights(dims, rng)
    ok = True
    detail = ""
    # pixel-permutation invariance of the set encoder
    x = rng.normal(0, 1, (3, 12)).astype(np.float32)
    base = pse_forward(x, pse).data
    for _ in range(20):
        diff = np.abs(pse_forward(x[:, rng.permutation(12)], pse).data - base).max()
        if diff > 1e-6:
            ok, detail = False, f"permutation diff {diff:.2e}"
    # attention weights sum to 1 on 100 random forwards
    for _ in range(100):
        t = int(rng.integers(1, 8))
        seq = list(rng.normal(0, 1, (t, dims.d2)))
        _, attn = ltae_forward(seq, list(range(1, t + 1)), ltae, return_attention=True)
        if np.abs(np.asarray(attn.data).sum(axis=-1) - 1.0).max() > 1e-6:
            ok, detail = False, "attention weights do not sum to 1"
    # declaration-history symmetry and zero padding, exact
    identity = np.eye(4, dtype=np.float32)
    dec = lambda prev1, prev2: heads.history_features("dec", [prev1], [prev2], identity)[0]
    if not np.array_equal(dec(1, 2), dec(2, 1)):
        ok, detail = False, "dec history not symmetric"
    if dec(-1, -1).any():
        ok, detail = False, "zero padding not exact"
    if not np.array_equal(dec(3, -1), np.array([0, 0, 0, 1], dtype=np.float32)):
        ok, detail = False, "single-year padding not exact"
    report(2, "structural invariants", ok, detail)


# ---------------------------------------------------------------------------
# 3. metric oracle


def test_criterion_03_metric_oracle():
    oa, iou, miou = analytics.metrics(np.array([[5, 5], [0, 10]]))
    ok = abs(oa - 0.75) < 1e-12 and abs(miou - 7 / 12) < 1e-12
    detail = "" if ok else f"hand case gave OA {oa}, mIoU {miou}"
    rng = np.random.default_rng(3)
    for _ in range(100):
        L = 6
        n = int(rng.integers(1, 201))
        truth = rng.integers(0, L, n)
        pred = rng.integers(0, L, n)
        records = predictions(np.zeros(n), np.ones(n), truth, np.eye(L, dtype=np.float32)[pred])
        oa, iou, miou = analytics.metrics(analytics.confusion(records, L))
        if oa != np.mean(truth == pred):
            ok, detail = False, "OA mismatch"
        vals = []
        for k in range(L):
            tp = int(np.sum((truth == k) & (pred == k)))
            fp = int(np.sum((truth != k) & (pred == k)))
            fn = int(np.sum((truth == k) & (pred != k)))
            if tp + fp + fn == 0:
                if not np.isnan(iou[k]):
                    ok, detail = False, f"class {k} should be NaN"
            else:
                if iou[k] != tp / (tp + fp + fn):
                    ok, detail = False, f"IoU mismatch class {k}"
                vals.append(tp / (tp + fp + fn))
        if abs(miou - np.mean(vals)) > 1e-12:
            ok, detail = False, "mIoU mismatch"
    report(3, "metric oracle", ok, detail)


# ---------------------------------------------------------------------------
# 4. transition-tensor oracle


def test_criterion_04_crf_oracle():
    ok = True
    detail = ""
    rng = np.random.default_rng(4)
    for L, alpha in ((2, 1.0), (3, 1.0), (4, 0.5), (5, 2.0)):
        triplets = [tuple(rng.integers(0, L, 3)) for _ in range(60)]
        tensor = estimate_transitions(triplets, L, alpha=alpha)
        if np.abs(tensor.t.sum(axis=2) - 1.0).max() > 1e-6:
            ok, detail = False, f"L={L}: rows do not sum to 1"
        a_frac = Fraction(alpha)
        counts = Counter(triplets)
        for a in range(L):
            for b in range(L):
                total = sum(v for k, v in counts.items() if k[:2] == (a, b))
                for c in range(L):
                    want = (counts[(a, b, c)] + a_frac) / (total + a_frac * L)
                    if abs(tensor.t[a, b, c] - float(want)) > 1e-12:
                        ok, detail = False, f"L={L}: count formula mismatch"
    hand = TransitionTensor(
        t=np.array([[[0.2, 0.8], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]),
        alpha=1.0,
    )
    _, posterior = crf_score([0.6, 0.4], 0, 0, hand)
    if posterior.argmax() != 1:
        ok, detail = False, "hand case argmax is not class 1"
    report(4, "transition-tensor oracle", ok, detail)


# ---------------------------------------------------------------------------
# 5. calibration


def test_criterion_05_calibration():
    ok = True
    detail = ""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = rng.normal(0, 3, 6)
        tau = float(rng.uniform(0.05, 20))
        if calibration.apply_temperature(z, tau).argmax() != z.argmax():
            ok, detail = False, "argmax not preserved"
    logits, labels = np.empty((300, 6), np.float32), np.empty(300, np.int64)
    for i in range(300):
        logits[i] = rng.normal(0, 2, 6)
        labels[i] = rng.integers(0, 6)
    records = predictions(np.arange(300), np.ones(300), labels, logits)
    scaler = calibration.fit_temperature(records)
    if calibration.nll(records, scaler.tau) > calibration.nll(records, 1.0) + 1e-12:
        ok, detail = False, "fitted tau worse than tau=1"
    if calibration.DEFAULT_BINS != 15:
        ok, detail = False, f"default bins {calibration.DEFAULT_BINS} != 15"

    def ece(pairs, n_bins):
        # two-class logits and posterior (conf, 1 - conf): predicts class 0
        z = np.array([[conf, 1 - conf] for conf, _ in pairs], dtype=np.float32)
        n = len(pairs)
        records = predictions(np.zeros(n), np.ones(n),
                              [0 if correct else 1 for _, correct in pairs], z)
        return calibration.ece(records, z.copy(), n_bins=n_bins)

    # perfectly calibrated bin -> 0; fully wrong at high confidence -> ~conf
    if abs(ece([(0.75, i < 3) for i in range(4)], n_bins=2)) > 1e-6:
        ok, detail = False, "calibrated-bin ECE not 0"
    if abs(ece([(0.999, False)] * 10, n_bins=5) - 0.999) > 1e-6:
        ok, detail = False, "overconfident ECE wrong"
    mix = [(0.9, True), (0.9, True), (0.6, True), (0.6, False)]
    if abs(ece(mix, n_bins=4) - 0.1) > 1e-6:
        ok, detail = False, "mixed-bin ECE wrong"
    report(5, "calibration", ok, detail)


# ---------------------------------------------------------------------------
# 6. rotation analytics


def _coverage_oracle(seqs, anchor, p):
    succ = [s for s in seqs if s[0] == anchor]
    if not succ:
        return None
    counts = sorted(Counter(succ).values(), reverse=True)
    need = p / 100 * len(succ)
    for size in range(1, len(counts) + 1):
        for combo in itertools.combinations(counts, size):
            if sum(combo) >= need - 1e-9:
                return size
    return len(counts)


def test_criterion_06_rotation_analytics():
    ok = True
    detail = ""
    for seed in range(50):
        cfg = SyntheticConfig(
            num_classes=5, cycles=((2, 3),), channels=2, timesteps=4,
            parcels=40, pixels_min=1, pixels_max=1, seed=seed,
        )
        seqs = [tuple(p.labels) for p in generate_synthetic(cfg)]
        for anchor in range(5):
            for p in (50, 75, 90, 100):
                got = analytics.rotation_coverage(seqs, anchor, p)
                want = _coverage_oracle(seqs, anchor, p)
                if got != want:
                    ok, detail = False, f"seed {seed} anchor {anchor} p {p}: {got} != {want}"
    # a fully permanent class always needs exactly one rotation
    cfg = SyntheticConfig(
        num_classes=3, permanent_classes=(0, 1, 2), permanent_stay=1.0,
        cycles=(), channels=2, timesteps=4, parcels=60, pixels_min=1,
        pixels_max=1, seed=9,
    )
    seqs = [tuple(p.labels) for p in generate_synthetic(cfg)]
    for anchor in range(3):
        for p in (50, 75, 90, 100):
            if analytics.rotation_coverage(seqs, anchor, p) != 1:
                ok, detail = False, "permanent class coverage != 1"
    if analytics.possible_rotations(20, 3) != 8000:
        ok, detail = False, "20^3 != 8000"
    report(6, "rotation analytics", ok, detail)


# ---------------------------------------------------------------------------
# 7. fold integrity


def test_criterion_07_fold_integrity():
    cfg = SyntheticConfig(parcels=1000, channels=2, timesteps=4, pixels_min=1,
                          pixels_max=1, seed=41)
    parcels = generate_synthetic(cfg)
    fa = make_folds(parcels, 5, 1000)
    ok = True
    detail = ""
    ids = {p.parcel_id for p in parcels}
    if set(fa.folds) != ids:
        ok, detail = False, "fold map does not cover every parcel"
    if not set(fa.folds.values()) <= set(range(5)):
        ok, detail = False, "fold index out of range"
    blocks = {}
    for p in parcels:
        key = (int(p.centroid[0] // 1000), int(p.centroid[1] // 1000))
        blocks.setdefault(key, set()).add(fa.folds[p.parcel_id])
    if any(len(s) != 1 for s in blocks.values()):
        ok, detail = False, "grid block split across folds"
    report(7, "fold integrity", ok, detail)


# ---------------------------------------------------------------------------
# 8. directional synthetic experiment


EXPERIMENT_CONFIG = SyntheticConfig(
    num_classes=8, num_years=3, channels=4, timesteps=12, parcels=2000,
    pixels_min=4, pixels_max=16, noise_std=0.1, year_shift=0.3,
    permanent_classes=(0, 1), permanent_stay=0.97,
    cycles=((2, 3, 4),), cycle_follow=0.9, other_within=0.5,
    curve_groups=((0, 1), (2, 3)),  # confusable pairs history can resolve
    seed=101,
)
EXPERIMENT_DIMS = ModelDims(
    channels=4, sample_pixels=8, d1=16, d2=32, heads=4, d_k=8,
    out_hidden=32, descriptor=32, num_classes=8, head_hidden=32,
)
EXPERIMENT_SEED = 11


def test_criterion_08_directional_experiment():
    t0 = time.time()
    parcels = generate_synthetic(EXPERIMENT_CONFIG)
    ds = Dataset(parcels=parcels, num_classes=8)
    folds = make_folds(parcels, 5, 1000)

    def run(variant, protocol="mixed", year=None):
        cfg = TrainConfig(epochs=6, seed=EXPERIMENT_SEED, variant=variant,
                          protocol=protocol, protocol_year=year)
        return train(ds, folds, cfg, EXPERIMENT_DIMS).test_records

    def miou(records, year=None):
        if year is not None:
            records = records[records.year_index == year]
        return analytics.metrics(analytics.confusion(records, 8))

    rec_single = run("single")
    rec_dec = run("dec")
    rec_spec = {y: run("single", "specialized", y) for y in (1, 2, 3)}

    ok = True
    details = []
    # (a) mixed training beats every specialized model on the pooled test set
    m_mixed = miou(rec_single)[2]
    m_spec = {y: miou(r)[2] for y, r in rec_spec.items()}
    if not all(m_mixed >= m for m in m_spec.values()):
        ok = False
    details.append(f"mixed {m_mixed:.3f} vs specialized "
                   + "/".join(f"{m_spec[y]:.3f}" for y in (1, 2, 3)))
    # (b) declaration head beats the single head by >= 3 mIoU points on year 3
    y3_single = miou(rec_single, 3)[2]
    y3_dec = miou(rec_dec, 3)[2]
    if y3_dec < y3_single + 0.03:
        ok = False
    details.append(f"year-3 dec {y3_dec:.3f} vs single {y3_single:.3f}")
    # (c) mean per-class gain ordered Permanent >= Structured >= Other
    _, iou_single, _ = miou(rec_single)
    _, iou_dec, _ = miou(rec_dec)
    assignment = analytics.categorize([p.labels for p in parcels], 8)
    groups = analytics.group_metrics(
        analytics.improvement(iou_dec, iou_single), assignment
    )
    d_perm = groups[analytics.PERMANENT]["mean_delta"]
    d_struct = groups[analytics.STRUCTURED]["mean_delta"]
    d_other = groups[analytics.OTHER]["mean_delta"]
    if not d_perm >= d_struct >= d_other:
        ok = False
    details.append(f"delta P/S/O {d_perm:.3f}/{d_struct:.3f}/{d_other:.3f}")
    elapsed = time.time() - t0
    if elapsed >= 20 * 60:
        ok = False
    details.append(f"{elapsed:.0f}s")
    report(8, "directional experiment", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. throughput (soft goal)


def test_criterion_09_throughput():
    cfg = SyntheticConfig(parcels=200, channels=10, timesteps=12, seed=51)
    parcels = generate_synthetic(cfg)
    model = CropModel(ModelDims(), "single", seed=0)  # default dims, L=20
    # the warm-up call has the timed size, so the timed calls find their
    # buffers already grown; the median of three damps the host's noise
    predict(model, parcels)
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        records = predict(model, parcels)
        rates.append(len(records) / (time.perf_counter() - t0))
    rate = float(np.median(rates))
    if rate < 500:
        warnings.warn(f"throughput {rate:.0f} parcel-years/s below the "
                      "500/s soft goal")
    report(9, "throughput (soft)", True, f"{rate:.0f} parcel-years/s")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(tmp_path):
    ok = True
    detail = ""
    # dataset save -> load -> save is bit-exact
    cfg = SyntheticConfig(parcels=20, seed=61)
    parcels = generate_synthetic(cfg)
    p1, p2 = tmp_path / "a.rcds", tmp_path / "b.rcds"
    save_dataset(p1, parcels, cfg.num_classes)
    save_dataset(p2, load_dataset(p1).columns, cfg.num_classes)
    if p1.read_bytes() != p2.read_bytes():
        ok, detail = False, "dataset round trip not bit-exact"
    # training through the CLI twice gives bitwise-identical checkpoints
    run_cfg = {
        "dataset": {"synthetic": {"parcels": 40, "timesteps": 6,
                                  "pixels_min": 2, "pixels_max": 4, "seed": 7}},
        "model": {"dims": {"sample_pixels": 4, "d1": 4, "d2": 8, "heads": 2,
                           "d_k": 4, "out_hidden": 8, "descriptor": 8,
                           "head_hidden": 6},
                  "variant": "dec"},
        "train": {"epochs": 2, "seed": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))
    dataset = tmp_path / "ds.rcds"
    folds = tmp_path / "folds.json"
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(dataset)]) == 0
    assert cli_main(["split", "--dataset", str(dataset), "--k", "3",
                     "--block-size", "2500", "--out", str(folds)]) == 0
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(cfg_path),
                         "--dataset", str(dataset), "--folds", str(folds),
                         "--fold", "0", "--out", str(out)])
        if code != 0:
            ok, detail = False, f"train exited {code}"
        outs.append(out / "checkpoint_fold0.bin")
    if ok and outs[0].read_bytes() != outs[1].read_bytes():
        ok, detail = False, "checkpoints differ between identical runs"
    report(10, "determinism", ok, detail)
