"""Command-line entry point: dataset generation, fold splitting, training,
evaluation, calibration, CRF rescoring, rotation analytics, embeddings."""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import analytics, calibration, crf as crf_mod, training
from .binio import (
    from_json, is_int, json_object, predictions, read_json, read_predictions, write_json,
    write_predictions,
)
from .data import (
    MAX_SEED,
    SyntheticConfig,
    block_folds,
    config_to_manifest,
    generate_synthetic,
    load_dataset,
    load_folds,
    save_dataset,
    save_folds,
)
from .errors import ConfigError, ContractError, DataFormatError
from .model import ModelDims, load_checkpoint, save_checkpoint

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4


def load_run_config(args):
    """(document, synthetic config or None, model dims, train config) of
    the run config `args.config`, whose sections are dataset.synthetic,
    model.dims, model.variant and train.  `args.seed`, when given, replaces
    the seed of the command's config (synth: dataset.synthetic, train:
    train) and `args.variant` (train) model.variant; every section is
    checked, whichever the command uses."""
    what = f"run config {args.config}"
    doc = json_object(read_json(args.config, "run config", ConfigError), what,
                      ("dataset", "model", "train"), ConfigError)
    dataset = json_object(doc.get("dataset", {}), f"{what} dataset", ("synthetic",), ConfigError)
    model = json_object(doc.get("model", {}), f"{what} model", ("dims", "variant"), ConfigError)
    train = json_object(doc.get("train", {}), f"{what} train", None, ConfigError)
    if "variant" in train:  # it is model.variant
        raise ConfigError(f"{what} train: unknown keys variant")
    seed = {} if args.seed is None else {args.command: {"seed": args.seed}}
    synth = dataset.get("synthetic")
    if synth is not None:
        section = f"{what} dataset.synthetic"
        synth = from_json(SyntheticConfig, {**json_object(synth, section, None, ConfigError),
                                            **seed.get("synth", {})}, section, ConfigError)
    dims = from_json(ModelDims, model.get("dims", {}), f"{what} model.dims", ConfigError)
    variant = getattr(args, "variant", None) or model.get("variant", "single")
    cfg = from_json(training.TrainConfig, {**train, "variant": variant, **seed.get("train", {})},
                    f"{what} train", ConfigError)
    return doc, synth, dims, cfg


def _seed(args):
    """`--seed` of split, eval and embed, 0 when not given; one outside
    [0, MAX_SEED] is a ConfigError, as synth and train refuse it in their
    config."""
    if args.seed is None:
        return 0
    if not 0 <= args.seed <= MAX_SEED:
        raise ConfigError(f"--seed must be in [0, {MAX_SEED}], got {args.seed}")
    return args.seed


def _eval_year(year, num_years):
    """`eval --year`: None for "all", else the year, which must lie in
    1..num_years."""
    if year == "all":
        return None
    if not (year.isdecimal() and 1 <= int(year) <= num_years):
        raise ContractError(f"--year must be all or a year in 1..{num_years}, got {year!r}")
    return int(year)


def _out_dir(cmd):
    """`cmd` with its --out directory made before its work, so that an
    --out that cannot be a directory is refused before any work is done.
    A directory that `cmd` made is removed again, if still empty, when the
    command fails."""

    @functools.wraps(cmd)
    def run(args):
        made = not os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
        try:
            return cmd(args)
        except BaseException:
            if made:
                with contextlib.suppress(OSError):
                    os.rmdir(args.out)
            raise

    return run


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    _, synth, _, _ = load_run_config(args)
    if synth is None:
        raise ConfigError("run config has no dataset.synthetic section")
    parcels = generate_synthetic(synth)
    save_dataset(args.out, parcels, synth.num_classes, config_to_manifest(synth))
    print(f"wrote {len(parcels)} parcels to {args.out}")
    return 0


def cmd_split(args):
    salt = _seed(args)
    columns = load_dataset(args.dataset).columns
    assignment = block_folds(columns.ids.tolist(), columns.centroids.tolist(), args.k,
                             args.block_size, salt=salt)
    save_folds(args.out, assignment)
    print(f"assigned {len(assignment.folds)} parcels to {assignment.k} folds")
    return 0


@_out_dir
def cmd_train(args):
    config, _, dims, cfg = load_run_config(args)
    dataset = load_dataset(args.dataset)
    folds = load_folds(args.folds, dataset.columns.ids)
    # the dataset's channels and classes; model.dims may only repeat them
    given = config.get("model", {}).get("dims", {})
    for key, have in (("channels", dataset.num_channels), ("num_classes", dataset.num_classes)):
        if given.get(key, have) != have:
            raise ConfigError(f"run config {args.config}: model.dims.{key} {given[key]}; "
                              f"the dataset has {have}")
        setattr(dims, key, have)
    folds_to_run = [args.fold] if args.fold is not None else None
    result = training.train(dataset, folds, cfg, dims, folds_to_run=folds_to_run)
    report = {"config": config, "seed": cfg.seed, "variant": cfg.variant, "folds": {}}
    for fr in result.folds:
        ckpt = os.path.join(args.out, f"checkpoint_fold{fr.fold}.bin")
        save_checkpoint(ckpt, fr.model)
        per_year = {}
        for year in np.unique(fr.test_records.year_index).tolist():
            cm = analytics.confusion(fr.test_records[fr.test_records.year_index == year],
                                     dims.num_classes)
            oa, _, miou = analytics.metrics(cm)
            per_year[str(year)] = {"oa": oa, "miou": miou}
        report["folds"][str(fr.fold)] = {
            "best_epoch": fr.best_epoch,
            "epoch_log": [
                {"epoch": epoch, "train_loss": loss, "val_miou": miou}
                for epoch, loss, miou in fr.epoch_log
            ],
            "test_by_year": per_year,
        }
    write_json(os.path.join(args.out, "run_report.json"), report)
    print(f"trained {len(result.folds)} fold(s); report in {args.out}")
    return 0


def _load_checkpoint_for(path, dataset):
    """The model in the checkpoint `path`, refused (DataFormatError) when
    it encodes another number of channels than `dataset`'s samples have."""
    model = load_checkpoint(path)
    if dataset.num_years and model.dims.channels != dataset.num_channels:
        raise DataFormatError(f"checkpoint {path}: {model.dims.channels} channels; "
                              f"the dataset has {dataset.num_channels}")
    return model


@_out_dir
def cmd_eval(args):
    seed = _seed(args)
    dataset = load_dataset(args.dataset)
    columns = dataset.columns
    folds = load_folds(args.folds, columns.ids)
    _, val_rows, test_rows = folds.split_rows(columns.ids.tolist(), args.fold)
    year = _eval_year(args.year, dataset.num_years)
    model = _load_checkpoint_for(args.checkpoint, dataset)
    if model.dims.num_classes != dataset.num_classes:
        raise DataFormatError(f"checkpoint {args.checkpoint}: {model.dims.num_classes} "
                              f"classes; the dataset has {dataset.num_classes}")
    # one call: each parcel's records do not depend on the others in it
    preds = training.predict(model, columns.take(np.concatenate([val_rows, test_rows])),
                             seed=seed)
    split = len(val_rows) * dataset.num_years
    val, test = preds[:split], preds[split:]
    test_scored = test if year is None else test[test.year_index == year]
    cm = analytics.confusion(test_scored, model.dims.num_classes)
    oa, iou, miou = analytics.metrics(cm)
    meta = {
        "variant": model.variant,
        "fold": args.fold,
        "val_fold": folds.val_fold(args.fold),
        "seed": seed,
        "num_classes": model.dims.num_classes,
        "year": args.year,
    }
    write_predictions(os.path.join(args.out, "predictions.json"), meta,
                      {"val": (val, None), "test": (test, None)})
    write_json(
        os.path.join(args.out, "metrics.json"),
        {
            "oa": oa,
            "miou": miou,
            "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
        },
    )
    class_names = (dataset.manifest or {}).get("class_names")
    analytics.write_confusion_csv(os.path.join(args.out, "confusion.csv"), cm, class_names)
    print(f"OA {oa:.4f}  mIoU {miou:.4f}  ({len(test_scored)} records)")
    return 0


@_out_dir
def cmd_calibrate(args):
    meta, val, test = read_predictions(args.predictions)
    scaler = calibration.fit_temperature(val)
    test_before = calibration.apply_temperature(test.logits, 1.0).astype(np.float32)
    ece_before = calibration.ece(test, test_before, args.bins)
    test_after = calibration.apply_temperature(test.logits, scaler.tau).astype(np.float32)
    ece_after = calibration.ece(test, test_after, args.bins)
    calibration.write_reliability_csv(
        os.path.join(args.out, "reliability.csv"),
        calibration.reliability(test, test_after, args.bins),
    )
    write_json(
        os.path.join(args.out, "calibration.json"),
        {
            "tau": scaler.tau,
            "bins": args.bins,
            "ece_before": ece_before,
            "ece_after": ece_after,
        },
    )
    val_after = calibration.apply_temperature(val.logits, scaler.tau).astype(np.float32)
    write_predictions(os.path.join(args.out, "predictions_calibrated.json"), meta,
                      {"val": (val, val_after), "test": (test, test_after)})
    print(f"tau {scaler.tau:.4f}  ECE {ece_before:.4f} -> {ece_after:.4f}")
    return 0


@_out_dir
def cmd_crf(args):
    meta, val, test = read_predictions(args.predictions)
    if not {"fold", "val_fold"} <= meta.keys():
        raise DataFormatError(f"predictions file {args.predictions}: meta lacks fold or val_fold")
    dataset = load_dataset(args.dataset)
    columns = dataset.columns
    folds = load_folds(args.folds, columns.ids)
    fold, val_fold = meta["fold"], meta["val_fold"]
    if not (is_int(fold) and 0 <= fold < folds.k):
        raise DataFormatError(f"predictions file {args.predictions}: meta fold {fold!r} "
                              f"is not an integer in [0, {folds.k})")
    if not (is_int(val_fold) and val_fold == folds.val_fold(fold)):
        raise DataFormatError(f"predictions file {args.predictions}: meta val_fold "
                              f"{val_fold!r} is not fold {fold}'s validation fold "
                              f"{folds.val_fold(fold)}")
    num_classes = val.logits.shape[1]
    if num_classes != dataset.num_classes:
        raise DataFormatError(f"predictions file {args.predictions}: {num_classes} "
                              f"logits per record; the dataset has {dataset.num_classes} classes")
    # each test record's parcel among the dataset's, by binary search on the
    # sorted ids; a parcel not in the dataset finds another id
    ids = columns.ids
    order = np.argsort(ids)
    rows = order[np.minimum(np.searchsorted(ids, test.parcel_id, sorter=order), len(ids) - 1)]
    unknown = np.flatnonzero(ids[rows] != test.parcel_id)
    if unknown.size:
        raise DataFormatError(
            f"predictions file {args.predictions}: parcel {test.parcel_id[unknown[0]]} "
            "is not in the dataset"
        )
    outside = np.flatnonzero((test.year_index < 1) | (test.year_index > dataset.num_years))
    if outside.size:
        r = test[outside[0]]
        raise DataFormatError(
            f"predictions file {args.predictions}: parcel {r.parcel_id} year "
            f"{r.year_index} outside 1..{dataset.num_years}"
        )
    # the CRF applies to years with two known past labels
    later = test.year_index >= 3
    scored, rows = test[later], rows[later]
    if not len(scored):
        raise DataFormatError(
            f"predictions file {args.predictions}: no test record of year 3 or later "
            f"can be rescored (the dataset has {dataset.num_years} years)"
        )
    # the records must be those of the folds the meta names: the tensor is
    # estimated on the other folds' labels
    for name, records, key in (("test", test, "fold"), ("val", val, "val_fold")):
        pid = next((p for p in records.parcel_id.tolist() if folds.folds.get(p) != meta[key]),
                   None)
        if pid is not None:
            raise DataFormatError(f"predictions file {args.predictions}: {name} record of "
                                  f"parcel {pid} lies outside meta.{key} {meta[key]}")
    train, _, _ = folds.split_rows(ids.tolist(), fold)
    transitions = crf_mod.estimate_transitions(
        columns.labels[train], dataset.num_classes, alpha=args.alpha
    )
    scaler = calibration.fit_temperature(val)
    posterior = calibration.apply_temperature(scored.logits, scaler.tau).astype(np.float32)
    history = columns.labels[rows]
    n = np.arange(len(scored))
    a, b = history[n, scored.year_index - 3], history[n, scored.year_index - 2]
    scores, _ = crf_mod.crf_score(posterior, a, b, transitions)
    rescored = predictions(scored.parcel_id, scored.year_index, scored.true_label, scores)
    cm = analytics.confusion(rescored, dataset.num_classes)
    oa, iou, miou = analytics.metrics(cm)
    crf_mod.save_transitions(os.path.join(args.out, "transitions.bin"), transitions)
    write_json(
        os.path.join(args.out, "crf_metrics.json"),
        {
            "alpha": args.alpha,
            "tau": scaler.tau,
            "oa": oa,
            "miou": miou,
            "records": len(rescored),
        },
    )
    print(f"CRF rescoring: OA {oa:.4f}  mIoU {miou:.4f}  ({len(rescored)} records)")
    return 0


@_out_dir
def cmd_rotations(args):
    dataset = load_dataset(args.dataset)
    seqs = dataset.columns.labels.tolist()
    rows, mean = analytics.rotation_table(seqs, dataset.num_classes)
    assignment = analytics.categorize(seqs, dataset.num_classes)
    class_names = (dataset.manifest or {}).get("class_names")
    analytics.write_rotation_table_csv(
        os.path.join(args.out, "rotation_table.csv"), rows, mean, class_names
    )
    write_json(
        os.path.join(args.out, "rotations.json"),
        {
            "observed_rotations": analytics.count_observed_rotations(seqs),
            "possible_rotations": analytics.possible_rotations(
                dataset.num_classes, dataset.num_years
            ),
            "categories": {str(k): v for k, v in sorted(assignment.items())},
        },
    )
    print(f"{analytics.count_observed_rotations(seqs)} observed rotations")
    return 0


def cmd_embed(args):
    seed = _seed(args)
    dataset = load_dataset(args.dataset)
    model = _load_checkpoint_for(args.checkpoint, dataset)
    analytics.export_embeddings(model, dataset.columns, args.out, seed=seed)
    print(f"wrote embeddings for {len(dataset.columns)} parcels to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="croprot",
        description="Multi-year crop-type classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate and save a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("split", help="emit a spatial fold assignment")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--block-size", type=float, default=1000.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train per-fold models")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fold", type=int)
    p.add_argument("--variant")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="predictions and metrics for one fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--year", default="all")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("calibrate", help="fit temperature, report ECE")
    p.add_argument("--predictions", required=True)
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("crf", help="transition-tensor rescoring of year 3")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rotations", help="rotation table and culture categories")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", help="export year descriptors to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser():
    """The parser every `main` call of the process shares, built on the
    first call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # the subcommand's function as the module holds it now, so that a
        # function replaced after the parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a directory given for a file, an existing file for --out, ...
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
