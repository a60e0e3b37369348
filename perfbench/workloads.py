"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one unit of
work in `run` (timed by the caller) and verifies that unit's outputs in
`check` (untimed).  Every call into croprot goes through a module
attribute, such as `training.predict`, so the tracer sees it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import sys
import traceback
from collections import defaultdict

import numpy as np

from croprot import analytics, cli, data, model, training

# Criterion 8's data and model shapes (tests/test_acceptance.py), re-seeded.
CRITERION8_DATA = dict(
    num_classes=8, num_years=3, channels=4, timesteps=12, parcels=2000,
    pixels_min=4, pixels_max=16, noise_std=0.1, year_shift=0.3,
    permanent_classes=(0, 1), permanent_stay=0.97,
    cycles=((2, 3, 4),), cycle_follow=0.9, other_within=0.5,
    curve_groups=((0, 1), (2, 3)),
)
CRITERION8_DIMS = dict(
    channels=4, sample_pixels=8, d1=16, d2=32, heads=4, d_k=8,
    out_hidden=32, descriptor=32, num_classes=8, head_hidden=32,
)
# The README's run-config dims.
README_DIMS = dict(
    sample_pixels=16, d1=32, d2=64, heads=4, d_k=8, out_hidden=64,
    descriptor=64, head_hidden=32,
)
TRAIN_EPOCHS = 3
# Fold sizes vary with the seed (about 400 +- 25 parcels per fold); fixed
# counts give every seed the same amount of work.  The timed unit trains on
# a small split, so that a run holds many short units (see run.py).  That
# split learns too little on some seeds to check quality, so a quality
# guard trains once per run on the larger split.
TRAIN_PARCELS = 128
VAL_PARCELS = 32
GUARD_TRAIN_PARCELS = 1100
GUARD_VAL_PARCELS = 300
# Parcel counts of predict-default and cli-obs-pipeline, sized for units
# of a few tenths of a second.
PREDICT_PARCELS = 100
PIPELINE_PARCELS = 200
# Every fifth parcel: the subset whose predictions are compared with the
# full call's.
SUBSET_STEP = 5


def _log_failure(what):
    print(f"perfbench: {what} failed", file=sys.stderr, flush=True)
    traceback.print_exc()


def _finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _by_fold(parcels, folds):
    groups = defaultdict(list)
    for p in parcels:
        groups[folds.folds[p.parcel_id]].append(p)
    return groups


def subset_drift(net, parcels, seed):
    """Max |logit difference| between predicting every SUBSET_STEP-th parcel
    alone and predicting all parcels in one call."""
    full = {(r.parcel_id, r.year_index): r.logits
            for r in training.predict(net, parcels, seed=seed)}
    part = training.predict(net, parcels[::SUBSET_STEP], seed=seed)
    return max(
        float(np.max(np.abs(r.logits - full[(r.parcel_id, r.year_index)])))
        for r in part
    )


class Workload:
    """Defaults for the hooks a workload may override."""

    ops_per_run = 1  # croprot operations (calls or subcommands) per run()

    def report(self, items_per_s, unit_s):
        """Extra end-to-end figures printed beside the metrics, given the
        throughput and the mean unit time."""
        return {}

    def extra_checks(self):
        """(attempted, failed) operations of checks made once per process."""
        return 0, 0

    def layer_extras(self):
        """Per-layer figures that the spans cannot give."""
        return {"training.val_miou": 0.0, "heads.obs_subset_drift": 0.0}


class TrainDec(Workload):
    """One criterion-8 fold of the `dec` head, mixed protocol, with
    per-epoch validation: train on folds 2-4, validate on fold 1."""

    name = "train-dec"

    def setup(self, seed, workdir):
        self.seed = seed
        cfg = data.SyntheticConfig(seed=seed, **CRITERION8_DATA)
        parcels = data.generate_synthetic(cfg)
        self.dataset = data.Dataset(parcels=parcels, num_classes=cfg.num_classes)
        groups = _by_fold(parcels, data.make_folds(parcels, 5, 1000, salt=seed))
        pool = groups[2] + groups[3] + groups[4]
        self.train, self.val = pool[:TRAIN_PARCELS], groups[1][:VAL_PARCELS]
        self.guard_train = pool[:GUARD_TRAIN_PARCELS]
        self.guard_val = groups[1][:GUARD_VAL_PARCELS]
        self.dims = model.ModelDims(**CRITERION8_DIMS)
        self.items = len(self.train) * self.dataset.num_years * TRAIN_EPOCHS
        self.model, self.val_miou = None, 0.0
        # the model train_single_split starts from, scored on the guard split
        untrained = model.CropModel(self.dims, "dec", seed=seed)
        records = training.predict(untrained, self.guard_val, seed=seed)
        cm = analytics.confusion(records, self.dims.num_classes)
        self.untrained_miou = analytics.metrics(cm)[2]
        self.reference = None

    def _train(self, train, val, epochs):
        cfg = training.TrainConfig(epochs=epochs, seed=self.seed, variant="dec")
        return training.train_single_split(self.dataset, train, val, cfg, self.dims)

    @staticmethod
    def _valid(out):
        net, best_epoch, epoch_log = out
        return (
            len(epoch_log) == TRAIN_EPOCHS
            and 0 <= best_epoch < TRAIN_EPOCHS
            and all(np.isfinite(loss) for _, loss, _ in epoch_log)
            and _finite(net.state_arrays())
        )

    def warmup(self):
        self._train(self.train[:20], self.val[:10], 1)

    def run(self):
        return self._train(self.train, self.val, TRAIN_EPOCHS)

    def check(self, out):
        net, _, epoch_log = out
        ok = self._valid(out)
        # identical inputs must train identical models
        params = net.state_arrays()
        if self.reference is None:
            self.reference = (epoch_log, params)
        elif epoch_log != self.reference[0] or not all(
            np.array_equal(a, b) for a, b in zip(params, self.reference[1])
        ):
            ok = False
        return 0 if ok else 1

    def extra_checks(self):
        """Quality guard: the larger split's selected epoch must beat the
        untrained seed model on the same validation parcels."""
        try:
            out = self._train(self.guard_train, self.guard_val, TRAIN_EPOCHS)
        except Exception:
            _log_failure("quality-guard training")
            return 1, 1
        self.model, best_epoch, epoch_log = out
        self.val_miou = epoch_log[best_epoch][2]
        return 1, 0 if self._valid(out) and self.val_miou > self.untrained_miou else 1

    def report(self, items_per_s, unit_s):
        return {"train_items_per_s": (items_per_s, "1/s"),
                "val_miou": (self.val_miou, "ratio"),
                "untrained_val_miou": (self.untrained_miou, "ratio")}

    def layer_extras(self):
        return {"training.val_miou": self.val_miou,
                "heads.obs_subset_drift": subset_drift(self.model, self.guard_val, self.seed)}


class PredictDefault(Workload):
    """Batched inference at default ModelDims with the `single` head on a
    fixed parcel set, as in criterion 9."""

    name = "predict-default"

    def setup(self, seed, workdir):
        self.seed = seed
        cfg = data.SyntheticConfig(
            num_classes=20, parcels=PREDICT_PARCELS, channels=10, timesteps=12, seed=seed
        )
        self.parcels = data.generate_synthetic(cfg)
        self.net = model.CropModel(model.ModelDims(), "single", seed=seed)
        years = len(self.parcels[0].samples)
        self.keys = sorted((p.parcel_id, y) for p in self.parcels for y in range(1, years + 1))
        self.items = len(self.keys)
        self.reference = None
        self.drift = 0.0

    def warmup(self):
        training.predict(self.net, self.parcels[:20], seed=self.seed)

    def run(self):
        return training.predict(self.net, self.parcels, seed=self.seed)

    def check(self, records):
        keys = [(r.parcel_id, r.year_index) for r in records]
        logits = np.stack([r.logits for r in records])
        ok = (
            sorted(keys) == self.keys
            and logits.shape[1] == self.net.dims.num_classes
            and _finite([logits])
        )
        if self.reference is None:
            self.reference = (keys, logits)
        elif keys != self.reference[0] or not np.array_equal(logits, self.reference[1]):
            ok = False
        return 0 if ok else 1

    def report(self, items_per_s, unit_s):
        return {"predict_items_per_s": (items_per_s, "1/s")}

    def extra_checks(self):
        """A parcel-subset call must equal the full call on `single`; the
        check makes two predict calls."""
        try:
            self.drift = subset_drift(self.net, self.parcels, self.seed)
        except Exception:
            _log_failure("subset predict")
            return 2, 2
        return 2, 0 if self.drift == 0.0 else 1

    def layer_extras(self):
        return {"training.val_miou": 0.0, "heads.obs_subset_drift": self.drift}


class CliObsPipeline(Workload):
    """eval -> calibrate -> crf -> rotations -> embed through croprot.cli.main
    on a README-sized dataset with an `obs` checkpoint at README dims."""

    name = "cli-obs-pipeline"
    ops_per_run = 5

    def setup(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        cfg = data.SyntheticConfig(num_classes=8, parcels=PIPELINE_PARCELS, seed=seed)
        parcels = data.generate_synthetic(cfg)
        self.dataset_path = os.path.join(workdir, "dataset.rcds")
        data.save_dataset(self.dataset_path, parcels, cfg.num_classes,
                          data.config_to_manifest(cfg))
        folds = data.make_folds(parcels, 5, 1000, salt=seed)
        self.folds_path = os.path.join(workdir, "folds.json")
        with open(self.folds_path, "w") as fh:
            json.dump({"k": folds.k, "block_size": folds.block_size,
                       "folds": {str(pid): f for pid, f in folds.folds.items()}}, fh)
        dims = model.ModelDims(channels=cfg.channels, num_classes=cfg.num_classes,
                               **README_DIMS)
        self.checkpoint = os.path.join(workdir, "checkpoint.bin")
        self.net = model.CropModel(dims, "obs", seed=seed)
        model.save_checkpoint(self.checkpoint, self.net)
        groups = _by_fold(parcels, folds)
        self.test_parcels = groups[0]
        self.expected = {
            "val": len(groups[1]) * cfg.num_years,
            "test": len(groups[0]) * cfg.num_years,
            "test_year3": len(groups[0]) * (cfg.num_years - 2),
            "rows": len(parcels) * cfg.num_years,
        }
        self.items = self.expected["rows"]
        self.reference = None

    def _commands(self):
        out, s = os.path.join(self.dir, "out"), str(self.seed)
        ev = os.path.join(out, "eval")
        return [
            ("eval", ["eval", "--checkpoint", self.checkpoint, "--dataset", self.dataset_path,
                      "--folds", self.folds_path, "--fold", "0", "--seed", s, "--out", ev]),
            ("calibrate", ["calibrate", "--predictions", os.path.join(ev, "predictions.json"),
                           "--out", os.path.join(out, "calib")]),
            ("crf", ["crf", "--predictions", os.path.join(ev, "predictions.json"),
                     "--dataset", self.dataset_path, "--folds", self.folds_path,
                     "--out", os.path.join(out, "crf")]),
            ("rotations", ["rotations", "--dataset", self.dataset_path,
                           "--out", os.path.join(out, "rotations")]),
            ("embed", ["embed", "--checkpoint", self.checkpoint, "--dataset", self.dataset_path,
                       "--seed", s, "--out", os.path.join(out, "embeddings.csv")]),
        ]

    def warmup(self):
        codes = self.run()
        if codes != [0] * self.ops_per_run:
            raise RuntimeError(f"warm-up pipeline exit codes {codes}")

    def run(self):
        shutil.rmtree(os.path.join(self.dir, "out"), ignore_errors=True)
        codes = []
        sink = io.StringIO()
        for name, argv in self._commands():
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(cli.main(argv))
            except Exception:
                _log_failure(f"croprot {name}")
                codes.append(None)
        return codes

    def _path(self, *parts):
        return os.path.join(self.dir, "out", *parts)

    def _check_eval(self):
        with open(self._path("eval", "predictions.json"), "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        logits = [r["logits"] for part in ("val", "test") for r in doc[part]]
        ok = (len(doc["val"]) == self.expected["val"]
              and len(doc["test"]) == self.expected["test"]
              and _finite([np.asarray(logits, dtype=np.float64)])
              and os.path.exists(self._path("eval", "metrics.json"))
              and os.path.exists(self._path("eval", "confusion.csv")))
        return ok, hashlib.sha256(raw).hexdigest()

    def _check_calibrate(self):
        with open(self._path("calib", "calibration.json")) as fh:
            tau = json.load(fh)["tau"]
        return (np.isfinite(tau) and tau > 0
                and os.path.exists(self._path("calib", "reliability.csv"))
                and os.path.exists(self._path("calib", "predictions_calibrated.json"))), None

    def _check_crf(self):
        with open(self._path("crf", "crf_metrics.json")) as fh:
            doc = json.load(fh)
        return (doc["records"] == self.expected["test_year3"]
                and np.isfinite(doc["miou"])
                and os.path.exists(self._path("crf", "transitions.bin"))), None

    def _check_rotations(self):
        with open(self._path("rotations", "rotations.json")) as fh:
            doc = json.load(fh)
        return (doc["observed_rotations"] >= 1
                and os.path.exists(self._path("rotations", "rotation_table.csv"))), None

    def _check_embed(self):
        with open(self._path("embeddings.csv"), "rb") as fh:
            raw = fh.read()
        rows = list(csv.reader(io.StringIO(raw.decode())))[1:]
        keys = {(r[0], r[1]) for r in rows}
        values = np.asarray([r[3:] for r in rows], dtype=np.float64)
        ok = (len(rows) == self.expected["rows"] and len(keys) == len(rows)
              and _finite([values]))
        return ok, hashlib.sha256(raw).hexdigest()

    def check(self, codes):
        checks = [self._check_eval, self._check_calibrate, self._check_crf,
                  self._check_rotations, self._check_embed]
        results = []
        for (name, _), code, verify in zip(self._commands(), codes, checks):
            ok, digest = False, None
            if code == 0:
                try:
                    ok, digest = verify()
                except (OSError, ValueError, KeyError):
                    _log_failure(f"check of croprot {name}")
            results.append((ok, digest))
        # repeated pipelines on the same inputs write identical artifacts
        if self.reference is None and all(ok for ok, _ in results):
            self.reference = [digest for _, digest in results]
        if self.reference is not None:
            results = [(ok and digest == ref, digest)
                       for (ok, digest), ref in zip(results, self.reference)]
        return sum(not ok for ok, _ in results)

    def report(self, items_per_s, unit_s):
        return {"pipeline_s": (unit_s, "s")}

    def layer_extras(self):
        """The `obs` head re-encodes past years with an RNG shared across the
        call, so a subset call can differ from the full call; reported, not
        checked."""
        return {"training.val_miou": 0.0,
                "heads.obs_subset_drift": subset_drift(self.net, self.test_parcels, self.seed)}


WORKLOADS = {w.name: w for w in (TrainDec, PredictDefault, CliObsPipeline)}
