"""Print one sha256 per head variant and artifact, to check that a change
leaves training and inference bitwise unchanged.

Run it in two checkouts and diff the output:

    python3 tools/fingerprint.py > after.txt
    (cd ../parent && python3 tools/fingerprint.py) > before.txt
    diff before.txt after.txt

It imports croprot from the `src` directory next to this file.  The data
are 80 synthetic parcels, half with 6 dates and half with 8, and the
model dims are small (S = 8), so a run takes a few seconds.  Per variant
it hashes the trained weights, the best epoch and the epoch log of a
2-epoch training run, the `predict` logits for all years, for
`years=[3]` and with `training.ENCODE_BATCH` set to 16 (records sorted
by parcel and year, so the digest does not depend on their order), and
the bytes `export_embeddings` writes.  Two `draws` lines hash the
`sample_pixels` output for every parcel-year under an inference key
(seed, parcel, year) and a training key (seed, fold, epoch, parcel,
year), so a change of the pixel-draw stream shows on its own line.  Two
`files` lines hash the bytes `save_dataset` writes for the data (`.rcds`
and sidecar) and that `save_transitions` writes for the tensor
`estimate_transitions` counts from every parcel's label history.  A
`synth` line hashes the files `save_dataset` writes for the generator's
edge configs (SYNTH_EDGES): 31, 32, 33 and 65 parcels, around the generator's 32-parcel chunks; one
year and five; 4 and MAX_TIMESTEPS dates; one pixel count; no noise; no
year shift; shared phenology curves.  A `load` line hashes what
`load_dataset` returns for those files: each parcel's id, centroid and
labels, each sample's days and pixel bytes, read through
`Columns.sample_arrays`, and the manifest.  A second `load` line hashes
the same for hand-built files whose samples' date and pixel counts
differ within and across parcels, and for files of no parcels and of
parcels with no years.  Every other line starts from the tool's own
parcel lists.  A `step` line hashes every parameter gradient of the
first training step of each head variant.  Per variant, a `checkpoint`
line hashes the bytes `save_checkpoint` writes for the trained model.  For `dec` and `obs`, a `specialized` line hashes the
weights, best epoch, epoch log and year-3 `predict` logits of a 2-epoch
run trained on year 3 alone, whose training items lack the past years
the head reads.  For the trained `dec` and `obs` models, `cli` lines run
`eval` (fold 0), `calibrate`, `crf`, `rotations` and `embed` through
`croprot.cli.main` in-process on the saved data, a 5-fold split written by
`save_folds` and the saved checkpoint, and hash every file the five commands write and their
standard output.  `cli-train` lines run `synth` -> `split` -> `train
--fold 0 --variant dec --seed 5` through `croprot.cli.main` with a
2-epoch run config at the same dims, whose synthetic section sets
`cycles`, `curve_groups` and float keys, and hash every file the three
commands write (the `.rcds` file and its sidecar, `folds.json`, the
checkpoint and its sidecar, `run_report.json`) and their standard
output.  A `default-dims single` line hashes the `predict`
logits and `export_embeddings` bytes of an untrained `single` model at
default `ModelDims` on 100 parcels of 16 to 48 pixels, whose encoder
batches hold several pixel-stage blocks each.  A last `default-dims
wide-range` line hashes the `export_embeddings` bytes of that model with
column j of the output layer (`ltae.wo2` and `ltae.bo2`) scaled by a
power of ten that rises from 1e-44 to 1e30 across the columns, so the
CSV's `%.6e` cells run from float32 subnormals to about 1e30.

Three lines hash the bytes of `.rcds` files: `files dataset`, `synth
edges` and `cli-train data.rcds`.  They move, and only they, on a
documented change of the `.rcds` layout, as from format version 1 to 2.
The `load` lines hash what `load_dataset` returns, and every other line
what is computed from the data, so none of them may move with the
layout.

`tools/fingerprint.expected` holds the output, with OMP_NUM_THREADS=1,
that the tree is meant to give; `tests/test_fingerprint.py` runs this
script and names every line that differs from it.  A change that moves a
line on purpose updates that file with it.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from croprot import analytics, autodiff, cli, heads, training  # noqa: E402
from croprot.binio import write_json  # noqa: E402
from croprot.crf import estimate_transitions, save_transitions  # noqa: E402
from croprot.data import (  # noqa: E402
    MAX_TIMESTEPS, Dataset, MultiYearParcel, PixelSetSample, SyntheticConfig, config_to_manifest,
    draw_keys, generate_synthetic, load_dataset, make_folds, sample_pixels, save_dataset,
    save_folds,
)
from croprot.model import CropModel, ModelDims, save_checkpoint  # noqa: E402

# the head variants whose trained checkpoints the `cli` lines run, and
# that a `specialized` line trains on year 3 alone
CLI_VARIANTS = ("dec", "obs")
DIMS = dict(channels=4, sample_pixels=8, d1=16, d2=32, heads=4, d_k=8,
            out_hidden=32, descriptor=32, num_classes=8, head_hidden=32)


NUM_CLASSES = 8


def _parcels():
    short = generate_synthetic(SyntheticConfig(parcels=40, timesteps=6, seed=3))
    long = generate_synthetic(SyntheticConfig(parcels=40, timesteps=8, seed=4))
    return short + [dataclasses.replace(p, parcel_id=p.parcel_id + 40) for p in long]


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _saved_sha(save):
    """Hash of the bytes `save(path)` writes to `path` and `path + ".json"`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.bin")
        save(path)
        parts = []
        for name in (path, path + ".json"):
            with open(name, "rb") as fh:
                parts.append(fh.read())
    return _sha(*parts)


def _tree_sha(root):
    """(path relative to `root`, sha256) of every file under `root`, in
    path order."""
    written = sorted(os.path.relpath(os.path.join(d, name), root)
                     for d, _, names in os.walk(root) for name in names)
    result = []
    for name in written:
        with open(os.path.join(root, name), "rb") as fh:
            result.append((name, _sha(fh.read())))
    return result


def _logits_sha(records):
    """Hash of the records sorted by (parcel_id, year_index), so that the
    order `predict` returns them in does not change the digest."""
    records = sorted(records, key=lambda r: (r.parcel_id, r.year_index))
    # int(): the repr of a numpy integer names its type, that of an int does not
    return _sha(*[(int(r.parcel_id), int(r.year_index), r.logits.tobytes()) for r in records])


def fingerprint(variant, dataset, parcels):
    """(trained model, (artifact, sha256) pairs) of one variant trained on
    `dataset`, whose parcels are `parcels`."""
    dims = ModelDims(**DIMS)
    train, val = parcels[::2], parcels[1::4]
    cfg = training.TrainConfig(epochs=2, batch_size=16, seed=5, variant=variant)
    model, best_epoch, epoch_log = training.train_single_split(dataset, train, val, cfg, dims)
    out = [
        ("weights", _sha(*[a.tobytes() for a in model.state_arrays()])),
        ("best_epoch", _sha(best_epoch)),
        ("epoch_log", _sha(epoch_log)),
        ("logits", _logits_sha(training.predict(model, parcels, seed=7))),
        ("logits_year3", _logits_sha(training.predict(model, parcels, years=[3], seed=7))),
    ]
    saved, training.ENCODE_BATCH = training.ENCODE_BATCH, 16
    try:
        out.append(("logits_batch16", _logits_sha(training.predict(model, parcels, seed=7))))
    finally:
        training.ENCODE_BATCH = saved
    out.append(("checkpoint", _saved_sha(lambda path: save_checkpoint(path, model))))
    out.append(("embeddings", _sha(_embeddings(model, parcels))))
    return model, out


def _embeddings(model, parcels):
    """The bytes `export_embeddings` writes for `parcels` with seed 7."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "embeddings.csv")
        analytics.export_embeddings(model, parcels, path, seed=7)
        with open(path, "rb") as fh:
            return fh.read()


def specialized(variant, dataset, parcels):
    """sha256 of a run trained on year 3 alone: its weights, best epoch,
    epoch log and year-3 logits."""
    cfg = training.TrainConfig(epochs=2, batch_size=16, seed=5, variant=variant,
                               protocol="specialized", protocol_year=3)
    model, best_epoch, epoch_log = training.train_single_split(
        dataset, parcels[::2], parcels[1::4], cfg, ModelDims(**DIMS))
    records = training.predict(model, parcels, years=[3], seed=7)
    return _sha(*[a.tobytes() for a in model.state_arrays()], best_epoch, epoch_log,
                _logits_sha(records))


def default_dims():
    """(kind, sha256) pairs of an untrained `single` model at default
    ModelDims: its `predict` logits and `export_embeddings` bytes, then the
    `export_embeddings` bytes with the output layer's columns scaled from
    1e-44 to 1e30."""
    parcels = generate_synthetic(SyntheticConfig(
        num_classes=20, channels=10, parcels=100, pixels_min=16, pixels_max=48, seed=6))
    model = CropModel(ModelDims(), "single", seed=6)
    records = training.predict(model, parcels, seed=7)
    out = [("single", _sha(_logits_sha(records), _embeddings(model, parcels)))]
    scale = 10.0 ** np.linspace(-44, 30, model.dims.descriptor).round()
    for p in (model.ltae.wo2, model.ltae.bo2):
        p.data[...] = (p.data * scale).astype(np.float32)
    out.append(("wide-range", _sha(_embeddings(model, parcels))))
    return out


def draws(parcels):
    """(key kind, sha256) pairs of the pixel draws of every parcel-year."""
    items = [(p, y) for p in parcels for y in range(1, len(p.samples) + 1)]
    ids = [p.parcel_id for p, _ in items]
    years = [y for _, y in items]
    n_pixels = [p.samples[y - 1].n_pixels for p, y in items]
    out = []
    for kind, stream in [("inference", (7,)), ("training", (training.TRAIN_DRAWS, 5, 0, 1))]:
        columns, counts = sample_pixels(draw_keys(stream, ids, years), n_pixels,
                                        DIMS["sample_pixels"])
        out.append((kind, _sha(columns.tobytes(), counts.tobytes())))
    return out


def files(parcels):
    """(file kind, sha256) pairs of the dataset and transition-tensor files."""
    manifest = _manifest()
    transitions = estimate_transitions([p.labels for p in parcels], NUM_CLASSES)
    return [
        ("dataset", _saved_sha(
            lambda path: save_dataset(path, parcels, NUM_CLASSES, manifest))),
        ("transitions", _saved_sha(lambda path: save_transitions(path, transitions))),
    ]


SYNTH_EDGES = [SyntheticConfig(parcels=n, channels=2, pixels_max=6, seed=n)
               for n in (31, 32, 33, 65)] + [
    SyntheticConfig(parcels=20, seed=1, **change) for change in (
        {"num_years": 1}, {"num_years": 5}, {"timesteps": 4}, {"timesteps": MAX_TIMESTEPS},
        {"pixels_min": 5, "pixels_max": 5}, {"noise_std": 0.0}, {"year_shift": 0.0},
        {"curve_groups": ((0, 1), (2, 3, 5))})]


def synth():
    """sha256 of the files `save_dataset` writes for each SYNTH_EDGES
    config's parcels and manifest."""
    return _sha(*[_saved_sha(lambda path: save_dataset(
        path, generate_synthetic(cfg), cfg.num_classes, config_to_manifest(cfg)))
        for cfg in SYNTH_EDGES])


def _loaded_parts(columns):
    """Per parcel of the loaded `columns`, its (id, centroid, labels), then
    per year its (year, pixel shape), day bytes and pixel bytes, each
    sample read through `Columns.sample_arrays`."""
    days, pixels = columns.sample_arrays(...)
    parts = []
    for pid, centroid, labels, row_days, row_pixels in zip(
            columns.ids.tolist(), columns.centroids.tolist(), columns.labels.tolist(), days,
            pixels):
        parts.append((pid, tuple(centroid), labels))
        parts += [part for year, (d, x) in enumerate(zip(row_days, row_pixels), 1)
                  for part in ((year, x.shape), d.tobytes(), x.tobytes())]
    return parts


def load_edges():
    """sha256 of what `load_dataset` returns for the files `save_dataset`
    writes for each SYNTH_EDGES config: ids, centroids, labels, days, pixel
    bytes and manifest."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edge.rcds")
        for cfg in SYNTH_EDGES:
            save_dataset(path, generate_synthetic(cfg), cfg.num_classes, config_to_manifest(cfg))
            dataset = load_dataset(path)
            parts += [dataset.manifest, *_loaded_parts(dataset.columns)]
    return _sha(*parts)


def _ragged_parcels(years):
    """Four parcels of 2 channels and `years` years whose samples' date and
    pixel counts differ within and across parcels, drawn from a fixed
    seed."""
    rng = np.random.default_rng(12)
    parcels = []
    for pid in (7, 3, 2**64 - 1, 40):
        samples = []
        for year in range(1, years + 1):
            t, n_p = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            days = np.sort(rng.choice(np.arange(1, 367), t, replace=False))
            pixels = rng.standard_normal((2, n_p, t)).astype(np.float32)
            samples.append(PixelSetSample(pid, year, pixels, days, int(rng.integers(5))))
        parcels.append(MultiYearParcel(pid, tuple(rng.uniform(0, 1000, 2).tolist()), samples))
    return parcels


def load_ragged():
    """sha256 of what `load_dataset` returns for the files `save_dataset` writes for three years of `_ragged_parcels`, for
    no parcels and for those parcels with no years."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ragged.rcds")
        for parcels in (_ragged_parcels(3), [], _ragged_parcels(0)):
            save_dataset(path, parcels, 5)
            dataset = load_dataset(path)
            parts += [dataset.num_classes, dataset.num_years, dataset.manifest,
                      *_loaded_parts(dataset.columns)]
    return _sha(*parts)


class _FirstStep(Exception):
    """Ends a training run after its first step's backward."""


def step_grads(dataset, parcels):
    """sha256 of every parameter gradient, in parameter order, of the first
    training step of each head variant, trained on `dataset`, whose parcels
    are `parcels`."""
    parts = []
    backward = autodiff.backward

    def first_step(tape, loss, params=None):
        grads = backward(tape, loss, params=params)
        parts.extend(grads[p].tobytes() for p in params)
        raise _FirstStep

    autodiff.backward = first_step
    try:
        for variant in heads.VARIANTS:
            cfg = training.TrainConfig(epochs=1, batch_size=16, seed=5, variant=variant)
            try:
                training.train_single_split(dataset, parcels[::2], [], cfg,
                                            ModelDims(**DIMS))
            except _FirstStep:
                continue
            raise SystemExit(f"{variant}: training ran no step")
    finally:
        autodiff.backward = backward
    return _sha(*parts)


def _manifest():
    return config_to_manifest(SyntheticConfig(parcels=40, timesteps=6, seed=3))


def cli_files(model, parcels):
    """(file, sha256) pairs of every file that `eval` -> `calibrate` ->
    `crf` -> `rotations` -> `embed` write for `model`'s checkpoint and
    `parcels`, in path order, then of their standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        data_path = os.path.join(tmp, "data.rcds")
        save_dataset(data_path, parcels, NUM_CLASSES, _manifest())
        folds_path = os.path.join(tmp, "folds.json")
        save_folds(folds_path, make_folds(parcels, 5, 1000.0))
        ckpt = os.path.join(tmp, "checkpoint.bin")
        save_checkpoint(ckpt, model)
        out = os.path.join(tmp, "out")
        preds = os.path.join(out, "eval", "predictions.json")
        commands = [
            ["eval", "--checkpoint", ckpt, "--dataset", data_path, "--folds", folds_path,
             "--fold", "0", "--seed", "7", "--out", os.path.join(out, "eval")],
            ["calibrate", "--predictions", preds, "--out", os.path.join(out, "calibrate")],
            ["crf", "--predictions", preds, "--dataset", data_path, "--folds", folds_path,
             "--out", os.path.join(out, "crf")],
            ["rotations", "--dataset", data_path, "--out", os.path.join(out, "rotations")],
            ["embed", "--checkpoint", ckpt, "--dataset", data_path, "--seed", "7",
             "--out", os.path.join(out, "embeddings.csv")],
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(argv) for argv in commands]
        if codes != [0] * len(commands):
            raise SystemExit(f"cli pipeline exit codes {codes}")
        # the summaries name output paths: hash them relative to `tmp`
        return _tree_sha(out) + [("stdout", _sha(stdout.getvalue().replace(tmp, ".")))]


# the run config of the `cli-train` lines: `--variant` and `--seed`
# override model.variant and train.seed
TRAIN_RUN_CONFIG = {
    "dataset": {"synthetic": {
        "num_classes": 8, "channels": 4, "timesteps": 6, "parcels": 60,
        "pixels_min": 2, "pixels_max": 10, "noise_std": 0.2, "year_shift": 0.1,
        "area_size": 5000.0, "permanent_classes": [0, 1], "permanent_stay": 0.9,
        "cycles": [[2, 3, 4], [5, 6]], "cycle_follow": 0.85, "other_within": 0.9,
        "curve_groups": [[6, 7]], "seed": 11,
    }},
    "model": {"dims": DIMS, "variant": "single"},
    "train": {"epochs": 2, "batch_size": 16, "learning_rate": 0.002, "seed": 1},
}


def cli_train():
    """(file, sha256) pairs of every file that `synth` -> `split` ->
    `train` write for TRAIN_RUN_CONFIG, in path order, then of their
    standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.json")
        write_json(config, TRAIN_RUN_CONFIG)
        out = os.path.join(tmp, "out")
        data_path = os.path.join(out, "data.rcds")
        folds_path = os.path.join(out, "folds.json")
        commands = [
            ["synth", "--config", config, "--out", data_path],
            ["split", "--dataset", data_path, "--k", "3", "--out", folds_path],
            ["train", "--config", config, "--dataset", data_path, "--folds", folds_path,
             "--fold", "0", "--variant", "dec", "--seed", "5",
             "--out", os.path.join(out, "train")],
        ]
        os.makedirs(out)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(argv) for argv in commands]
        if codes != [0] * len(commands):
            raise SystemExit(f"cli train exit codes {codes}")
        return _tree_sha(out) + [("stdout", _sha(stdout.getvalue().replace(tmp, ".")))]


def main():
    parcels = _parcels()
    dataset = Dataset(parcels=parcels, num_classes=NUM_CLASSES)
    for kind, digest in draws(parcels):
        print(f"{'draws':13s} {kind:15s} {digest}")
    for kind, digest in files(parcels):
        print(f"{'files':13s} {kind:15s} {digest}")
    print(f"{'synth':13s} {'edges':15s} {synth()}")
    print(f"{'load':13s} {'edges':15s} {load_edges()}")
    print(f"{'load':13s} {'ragged':15s} {load_ragged()}")
    print(f"{'step':13s} {'grads':15s} {step_grads(dataset, parcels)}")
    for variant in heads.VARIANTS:
        model, digests = fingerprint(variant, dataset, parcels)
        for artifact, digest in digests:
            print(f"{variant:13s} {artifact:15s} {digest}")
        if variant in CLI_VARIANTS:
            print(f"{variant:13s} {'specialized':15s} {specialized(variant, dataset, parcels)}")
            for name, digest in cli_files(model, parcels):
                print(f"{'cli-' + variant:13s} {name:37s} {digest}")
    for name, digest in cli_train():
        print(f"{'cli-train':13s} {name:37s} {digest}")
    for kind, digest in default_dims():
        print(f"{'default-dims':13s} {kind:15s} {digest}")


if __name__ == "__main__":
    main()
