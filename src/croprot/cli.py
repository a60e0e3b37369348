"""Command-line entry point: dataset generation, fold splitting, training,
evaluation, calibration, CRF rescoring, rotation analytics, embeddings."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analytics, calibration, crf as crf_mod, training
from .binio import read_json, write_json, write_predictions
from .data import (
    FoldAssignment,
    SyntheticConfig,
    config_to_manifest,
    generate_synthetic,
    load_dataset,
    make_folds,
    save_dataset,
)
from .errors import ConfigError, ContractError, DataFormatError
from .heads import VARIANTS
from .model import CropModel, ModelDims, load_checkpoint, save_checkpoint

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4

_SYNTH_PROPS = {
    "num_classes": {"type": "integer", "minimum": 2},
    "num_years": {"type": "integer", "minimum": 1},
    "channels": {"type": "integer", "minimum": 1},
    "timesteps": {"type": "integer", "minimum": 4},
    "parcels": {"type": "integer", "minimum": 1},
    "pixels_min": {"type": "integer", "minimum": 1},
    "pixels_max": {"type": "integer", "minimum": 1},
    "noise_std": {"type": "number", "minimum": 0},
    "year_shift": {"type": "number", "minimum": 0},
    "area_size": {"type": "number", "exclusiveMinimum": 0},
    "permanent_classes": {"type": "array", "items": {"type": "integer"}},
    "permanent_stay": {"type": "number", "minimum": 0, "maximum": 1},
    "cycles": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
    "cycle_follow": {"type": "number", "minimum": 0, "maximum": 1},
    "other_within": {"type": "number", "minimum": 0, "maximum": 1},
    "curve_groups": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
    "seed": {"type": "integer", "minimum": 0},
}

_DIMS_PROPS = {
    name: {"type": "integer", "minimum": 1}
    for name in (
        "channels", "sample_pixels", "d1", "d2", "heads", "d_k",
        "out_hidden", "descriptor", "num_classes", "head_hidden",
    )
}

RUN_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "synthetic": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": _SYNTH_PROPS,
                },
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dims": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": _DIMS_PROPS,
                },
                "variant": {"enum": list(VARIANTS)},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "protocol": {"enum": ["mixed", "specialized"]},
                "protocol_year": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def load_run_config(path):
    import jsonschema

    doc = read_json(path, "run config", ConfigError)
    try:
        jsonschema.validate(doc, RUN_CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid run config {path}: {exc.message}")
    return doc


def _load_folds(path, dataset):
    """The fold assignment in `path`: an integer k >= 2, a positive finite
    block_size and an integer fold in [0, k) for each parcel listed; it
    must list every dataset parcel."""
    doc = read_json(path, "folds file")
    if not (isinstance(doc.get("folds"), dict) and "k" in doc and "block_size" in doc):
        raise DataFormatError(
            f"folds file {path} needs the keys k, folds (an object) and block_size"
        )
    k, block_size = doc["k"], doc["block_size"]
    # type() is not isinstance(): JSON true and false are not numbers here
    if not (type(k) is int and k >= 2):
        raise DataFormatError(f"folds file {path}: k {k!r} is not an integer >= 2")
    if not (type(block_size) in (int, float) and 0 < block_size < np.inf):
        raise DataFormatError(
            f"folds file {path}: block_size {block_size!r} is not a positive finite number"
        )
    try:
        folds = FoldAssignment(k, {int(pid): f for pid, f in doc["folds"].items()}, block_size)
    except ValueError as exc:
        raise DataFormatError(f"folds file {path}: bad parcel id ({exc})") from None
    for pid, f in folds.folds.items():
        if not (type(f) is int and 0 <= f < k):
            raise DataFormatError(
                f"folds file {path}: parcel {pid} has fold {f!r}, not an integer in [0, {k})"
            )
    missing = [p.parcel_id for p in dataset.parcels if p.parcel_id not in folds.folds]
    if missing:
        raise DataFormatError(
            f"folds file {path} assigns no fold to {len(missing)} dataset "
            f"parcel(s), first {missing[0]}"
        )
    return folds


def _model_dims(config, dataset):
    dims_cfg = config.get("model", {}).get("dims", {})
    dims = ModelDims(**dims_cfg)
    if "channels" not in dims_cfg:
        dims.channels = dataset.num_channels
    if "num_classes" not in dims_cfg:
        dims.num_classes = dataset.num_classes
    return dims


def _write_predictions(path, meta, val_records, test_records):
    """Write the val and test records as a predictions file, one stacked
    array per field.  The integer fields are object arrays, so a
    predictions file's ids of any size are written back unchanged."""
    splits = {}
    for name, records in (("val", val_records), ("test", test_records)):
        ints = np.array([(r.parcel_id, r.year_index, r.true_label) for r in records],
                        dtype=object).reshape(-1, 3).T
        if records:
            logits = np.stack([r.logits for r in records])
        else:
            logits = np.zeros((0, 0), np.float32)
        posterior = None
        if records and records[0].posterior is not None:
            posterior = np.stack([r.posterior for r in records])
        splits[name] = (*ints, logits, posterior)
    write_predictions(path, meta, splits)


def _eval_year(year, num_years):
    """`eval --year`: None for "all", else the year, which must lie in
    1..num_years."""
    if year == "all":
        return None
    if not (year.isdigit() and 1 <= int(year) <= num_years):
        raise ContractError(f"--year must be all or a year in 1..{num_years}, got {year!r}")
    return int(year)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    config = load_run_config(args.config)
    section = config.get("dataset", {}).get("synthetic")
    if section is None:
        raise ConfigError("run config has no dataset.synthetic section")
    synth = SyntheticConfig(**section)
    if args.seed is not None:
        synth.seed = args.seed
    parcels = generate_synthetic(synth)
    save_dataset(args.out, parcels, synth.num_classes, config_to_manifest(synth))
    print(f"wrote {len(parcels)} parcels to {args.out}")
    return 0


def cmd_split(args):
    dataset = load_dataset(args.dataset)
    assignment = make_folds(
        dataset.parcels, args.k, args.block_size, salt=args.seed or 0
    )
    write_json(
        args.out,
        {
            "k": assignment.k,
            "block_size": assignment.block_size,
            "folds": {str(pid): f for pid, f in assignment.folds.items()},
        },
    )
    print(f"assigned {len(assignment.folds)} parcels to {assignment.k} folds")
    return 0


def _train_config(config, args):
    section = dict(config.get("train", {}))
    variant = args.variant or config.get("model", {}).get("variant", "single")
    cfg = training.TrainConfig(variant=variant, **section)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_train(args):
    config = load_run_config(args.config)
    dataset = load_dataset(args.dataset)
    folds = _load_folds(args.folds, dataset)
    cfg = _train_config(config, args)
    dims = _model_dims(config, dataset)
    folds_to_run = [args.fold] if args.fold is not None else None
    result = training.train(dataset, folds, cfg, dims, folds_to_run=folds_to_run)
    os.makedirs(args.out, exist_ok=True)
    report = {"config": config, "seed": cfg.seed, "variant": cfg.variant, "folds": {}}
    for fr in result.folds:
        ckpt = os.path.join(args.out, f"checkpoint_fold{fr.fold}.bin")
        save_checkpoint(ckpt, fr.model)
        per_year = {}
        for year in sorted({r.year_index for r in fr.test_records}):
            cm = analytics.confusion(
                [r for r in fr.test_records if r.year_index == year],
                dims.num_classes,
            )
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


def cmd_eval(args):
    dataset = load_dataset(args.dataset)
    folds = _load_folds(args.folds, dataset)
    val_fold = folds.val_fold(args.fold)
    year = _eval_year(args.year, dataset.num_years)
    model = load_checkpoint(args.checkpoint)
    test_parcels = [
        p for p in dataset.parcels if folds.folds[p.parcel_id] == args.fold
    ]
    val_parcels = [
        p for p in dataset.parcels if folds.folds[p.parcel_id] == val_fold
    ]
    # one call: each parcel's records do not depend on the others in it
    records = training.predict(model, val_parcels + test_parcels, seed=args.seed or 0)
    split = len(val_parcels) * dataset.num_years
    val_records, test_records = records[:split], records[split:]
    test_scored = [r for r in test_records if year is None or r.year_index == year]
    cm = analytics.confusion(test_scored, model.dims.num_classes)
    oa, iou, miou = analytics.metrics(cm)
    os.makedirs(args.out, exist_ok=True)
    meta = {
        "variant": model.variant,
        "fold": args.fold,
        "val_fold": val_fold,
        "seed": args.seed or 0,
        "num_classes": model.dims.num_classes,
        "year": args.year,
    }
    _write_predictions(os.path.join(args.out, "predictions.json"), meta,
                       val_records, test_records)
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


def _load_predictions(path):
    """(meta, val records, test records) of an `eval` predictions file.
    Both lists must be non-empty, and every record needs integer ids and
    true label, and finite logits of the first record's length L, with
    the true label in [0, L)."""
    doc = read_json(path, "predictions file")
    if not (isinstance(doc.get("meta"), dict)
            and isinstance(doc.get("val"), list) and isinstance(doc.get("test"), list)):
        raise DataFormatError(
            f"predictions file {path} needs the keys meta (an object), val and test (lists)"
        )
    try:
        val = [training.PredictionRecord.from_dict(d) for d in doc["val"]]
        test = [training.PredictionRecord.from_dict(d) for d in doc["test"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"predictions file {path}: bad record ({exc!r})") from None
    # temperature fitting needs val records; an empty test list would score
    # nothing (an ECE of 0 before and after)
    for name, records in (("val", val), ("test", test)):
        if not records:
            raise DataFormatError(f"predictions file {path}: no {name} records")
    records = val + test
    num_classes = val[0].logits.size
    ids = [(r.parcel_id, r.year_index, r.true_label) for r in records]
    labels = [t[2] for t in ids]
    # checks over all the records at once; the loop only names the first
    # bad record
    if not ({type(v) for t in ids for v in t} == {int}
            and {r.logits.shape for r in records} == {(num_classes,)}
            and 0 <= min(labels) and max(labels) < num_classes):
        for r, t in zip(records, ids):
            if not (list(map(type, t)) == [int] * 3 and r.logits.shape == (num_classes,)
                    and 0 <= r.true_label < num_classes):
                raise DataFormatError(
                    f"predictions file {path}: record {t!r} needs integer ids, "
                    f"{num_classes} logits, a label in [0, {num_classes})")
    if not np.isfinite(np.stack([r.logits for r in records])).all():
        raise DataFormatError(f"predictions file {path}: non-finite logit")
    return doc["meta"], val, test


def cmd_calibrate(args):
    meta, val_records, test_records = _load_predictions(args.predictions)
    scaler = calibration.fit_temperature(val_records)
    calibration.calibrate_records(test_records, 1.0)
    ece_before = calibration.ece(test_records, args.bins)
    calibration.calibrate_records(test_records, scaler.tau)
    ece_after = calibration.ece(test_records, args.bins)
    os.makedirs(args.out, exist_ok=True)
    calibration.write_reliability_csv(
        os.path.join(args.out, "reliability.csv"),
        calibration.reliability(test_records, args.bins),
    )
    calibration.calibrate_records(val_records, scaler.tau)
    write_json(
        os.path.join(args.out, "calibration.json"),
        {
            "tau": scaler.tau,
            "bins": args.bins,
            "ece_before": ece_before,
            "ece_after": ece_after,
        },
    )
    _write_predictions(os.path.join(args.out, "predictions_calibrated.json"), meta,
                       val_records, test_records)
    print(f"tau {scaler.tau:.4f}  ECE {ece_before:.4f} -> {ece_after:.4f}")
    return 0


def cmd_crf(args):
    meta, val_records, test_records = _load_predictions(args.predictions)
    if not {"fold", "val_fold"} <= meta.keys():
        raise DataFormatError(f"predictions file {args.predictions}: meta lacks fold or val_fold")
    dataset = load_dataset(args.dataset)
    folds = _load_folds(args.folds, dataset)
    if val_records[0].logits.size != dataset.num_classes:
        raise DataFormatError(f"predictions file {args.predictions}: {val_records[0].logits.size} "
                              f"logits per record; the dataset has {dataset.num_classes} classes")
    labels_by_parcel = {p.parcel_id: p.labels for p in dataset.parcels}
    for r in test_records:
        if r.parcel_id not in labels_by_parcel:
            raise DataFormatError(
                f"predictions file {args.predictions}: parcel {r.parcel_id} "
                "is not in the dataset"
            )
        if not 1 <= r.year_index <= dataset.num_years:
            raise DataFormatError(
                f"predictions file {args.predictions}: parcel {r.parcel_id} year "
                f"{r.year_index} outside 1..{dataset.num_years}"
            )
    # the CRF applies to years with two known past labels
    scored = [r for r in test_records if r.year_index >= 3]
    if not scored:
        raise DataFormatError(
            f"predictions file {args.predictions}: no test record of year 3 or later "
            f"can be rescored (the dataset has {dataset.num_years} years)"
        )
    held_out = {meta["fold"], meta["val_fold"]}
    triplets = [
        tuple(p.labels[i : i + 3])
        for p in dataset.parcels
        if folds.folds[p.parcel_id] not in held_out
        for i in range(len(p.labels) - 2)
    ]
    transitions = crf_mod.estimate_transitions(
        triplets, dataset.num_classes, alpha=args.alpha
    )
    scaler = calibration.fit_temperature(val_records)
    calibration.calibrate_records(scored, scaler.tau)
    rescored = []
    for r in scored:
        labels = labels_by_parcel[r.parcel_id]
        a = labels[r.year_index - 3]
        b = labels[r.year_index - 2]
        scores, posterior = crf_mod.crf_score(r.posterior, a, b, transitions)
        rescored.append(
            training.PredictionRecord(
                parcel_id=r.parcel_id,
                year_index=r.year_index,
                logits=scores.astype(np.float32),
                true_label=r.true_label,
                posterior=posterior.astype(np.float32),
            )
        )
    cm = analytics.confusion(rescored, dataset.num_classes)
    oa, iou, miou = analytics.metrics(cm)
    os.makedirs(args.out, exist_ok=True)
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


def cmd_rotations(args):
    dataset = load_dataset(args.dataset)
    seqs = [p.labels for p in dataset.parcels]
    rows, mean = analytics.rotation_table(seqs, dataset.num_classes)
    assignment = analytics.categorize(seqs, dataset.num_classes)
    os.makedirs(args.out, exist_ok=True)
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
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint)
    analytics.export_embeddings(model, dataset.parcels, args.out, seed=args.seed or 0)
    print(f"wrote embeddings for {len(dataset.parcels)} parcels to {args.out}")
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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="emit a spatial fold assignment")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--block-size", type=float, default=1000.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train per-fold models")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fold", type=int)
    p.add_argument("--variant")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="predictions and metrics for one fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--year", default="all")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="fit temperature, report ECE")
    p.add_argument("--predictions", required=True)
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("crf", help="transition-tensor rescoring of year 3")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crf)

    p = sub.add_parser("rotations", help="rotation table and culture categories")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rotations)

    p = sub.add_parser("embed", help="export year descriptors to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
