import functools
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from croprot import cli, data, training
from croprot.cli import main
from croprot.data import (
    SyntheticConfig, generate_synthetic, load_dataset, load_folds, make_folds, save_dataset,
    save_folds,
)
from croprot.model import CropModel, ModelDims, load_checkpoint, save_checkpoint
from croprot.training import predict

import oracles
from conftest import one_sample_file, one_sample_parcel, tiny_dims, without_dates


RUN_CONFIG = {
    "dataset": {
        "synthetic": {
            "num_classes": 8,
            "num_years": 3,
            "channels": 4,
            "timesteps": 6,
            "parcels": 120,
            "pixels_min": 2,
            "pixels_max": 6,
            "seed": 42,
        }
    },
    "model": {
        "dims": {
            "sample_pixels": 4,
            "d1": 4,
            "d2": 8,
            "heads": 2,
            "d_k": 4,
            "out_hidden": 8,
            "descriptor": 8,
            "head_hidden": 6,
        },
        "variant": "dec",
    },
    "train": {"epochs": 2, "batch_size": 32, "seed": 0},
}


@pytest.mark.parametrize("pid", [2**63, 2**64 - 1])
def test_eval_and_embed_take_ids_up_to_two_to_the_64(tmp_path, pid):
    # .rcds ids are uint64: the largest reach predictions.json and the CSV
    parcels = generate_synthetic(SyntheticConfig(parcels=6, channels=3, seed=1))
    parcels[0].parcel_id = pid
    dataset, folds = str(tmp_path / "d.rcds"), str(tmp_path / "folds.json")
    save_dataset(dataset, parcels, 8)
    assert main(["split", "--dataset", dataset, "--k", "3", "--out", folds]) == 0
    ckpt = str(tmp_path / "c.bin")
    save_checkpoint(ckpt, CropModel(tiny_dims(8), "dec", seed=1))
    fold = json.loads((tmp_path / "folds.json").read_text())["folds"][str(pid)]
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", ckpt, "--dataset", dataset, "--folds", folds,
                 "--fold", str(fold), "--out", str(out)]) == 0
    test = json.loads((out / "predictions.json").read_text())["test"]
    assert [r["year_index"] for r in test if r["parcel_id"] == pid] == [1, 2, 3]
    csv = tmp_path / "e.csv"
    assert main(["embed", "--checkpoint", ckpt, "--dataset", dataset, "--out", str(csv)]) == 0
    rows = csv.read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows[:3]] == [[str(pid), str(y)] for y in (1, 2, 3)]


def test_no_dates_refused_with_the_sample_record(malformed, capsys):
    # the date counts follow the magic and header (17 bytes), 120 ids (8
    # bytes each), 120 centroids (16) and 360 labels (2)
    capsys.readouterr()
    assert main(["rotations", "--dataset", malformed["dataset_no_dates"],
                 "--out", malformed["out"]]) == 3
    assert capsys.readouterr().err == ("data format error: parcel 0, year 1: no dates: a "
                                       "sample needs at least one (date counts at offset 3617)\n")


def test_version_1_file_refused(malformed, capsys):
    command, _ = CLI_MATRIX["rotations-dataset-v1"]
    capsys.readouterr()
    assert main([arg.format(**malformed) for arg in command.split()]) == 3
    assert capsys.readouterr().err == (
        "data format error: unsupported format version 1 (this reader reads version 2; "
        "regenerate with croprot synth)\n")


def test_reading_commands_build_no_parcel_objects(tmp_path, monkeypatch):
    """split, train, eval, calibrate, crf, rotations and embed read the
    dataset's columns: none of them makes a MultiYearParcel or a
    PixelSetSample."""
    parcels = generate_synthetic(SyntheticConfig(parcels=30, channels=3, timesteps=5, seed=3))
    dataset, folds = str(tmp_path / "d.rcds"), str(tmp_path / "folds.json")
    save_dataset(dataset, parcels, 8)
    save_folds(folds, make_folds(parcels, 3, 2500))
    ckpt = str(tmp_path / "c.bin")
    save_checkpoint(ckpt, CropModel(tiny_dims(8), "obs", seed=1))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {**RUN_CONFIG["model"], "variant": "obs"},
                                  "train": {"epochs": 1, "batch_size": 8, "seed": 0}}))
    made = []

    def counted(init):
        def __init__(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        return __init__

    for cls in (data.MultiYearParcel, data.PixelSetSample):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    out = tmp_path / "out"
    preds = str(out / "eval" / "predictions.json")
    for argv in (
        ["split", "--dataset", dataset, "--k", "3", "--block-size", "2500",
         "--out", str(tmp_path / "split.json")],
        ["train", "--config", str(config), "--dataset", dataset, "--folds", folds, "--fold", "0",
         "--out", str(out / "train")],
        ["eval", "--checkpoint", ckpt, "--dataset", dataset, "--folds", folds, "--fold", "0",
         "--out", str(out / "eval")],
        ["calibrate", "--predictions", preds, "--out", str(out / "calibrate")],
        ["crf", "--predictions", preds, "--dataset", dataset, "--folds", folds,
         "--out", str(out / "crf")],
        ["rotations", "--dataset", dataset, "--out", str(out / "rotations")],
        ["embed", "--checkpoint", ckpt, "--dataset", dataset, "--out", str(out / "e.csv")],
    ):
        assert main(argv) == 0, argv
    assert made == []
    # split's columns give the folds file of the parcel list
    assert (tmp_path / "split.json").read_bytes() == (tmp_path / "folds.json").read_bytes()
    # the count sees a parcel list when one is built
    oracles.load_dataset(dataset)
    assert len(made) == 30 * 4


def test_views_built_only_for_the_rows_a_command_reads(workdir, views_built):
    """split, crf and rotations read no sample's days or pixels and build
    none of their views; eval builds them for its validation and test
    rows."""
    root, _, dataset, folds, train_out, eval_out = workdir
    out = root / "views"
    for argv in (
        ["crf", "--predictions", str(eval_out / "predictions.json"), "--dataset", str(dataset),
         "--folds", str(folds), "--out", str(out / "crf")],
        ["split", "--dataset", str(dataset), "--k", "3", "--block-size", "2500",
         "--out", str(out / "folds.json")],
        ["rotations", "--dataset", str(dataset), "--out", str(out / "rotations")],
    ):
        assert main(argv) == 0, argv
    assert views_built == []
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
                 "--dataset", str(dataset), "--folds", str(folds), "--fold", "0",
                 "--out", str(out / "eval")]) == 0
    fold_of = load_folds(str(folds), load_dataset(str(dataset)).columns.ids).folds
    val_and_test = sum(f in (0, 1) for f in fold_of.values())
    # days and pixels, 3 years each
    assert sum(views_built) == 2 * 3 * val_and_test < 2 * 3 * len(fold_of)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "croprot" in capsys.readouterr().out


def _recording(calls):
    """A subcommand that records its arguments and succeeds."""
    return lambda args: calls.append(args) or 0


def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    missing = ["rotations", "--dataset", str(tmp_path / "nope.rcds"), "--out", str(tmp_path)]
    assert main(missing) == 3
    with pytest.raises(SystemExit):
        main(["rotations"])
    assert main(missing) == 3
    assert built == [1]


def test_reused_parser_gives_each_call_its_defaults(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", _recording(calls))
    argv = ["eval", "--checkpoint", "c", "--dataset", "d", "--folds", "f", "--fold", "0",
            "--out", "o"]
    assert main(argv + ["--year", "2", "--seed", "5"]) == 0
    assert main(argv) == 0
    assert [(a.year, a.seed) for a in calls] == [("2", 5), ("all", None)]


def test_usage_error_leaves_the_next_call_working(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "cmd_rotations", _recording(calls))
    with pytest.raises(SystemExit) as exc:
        main(["rotations", "--dataset", "d", "--bogus"])
    assert exc.value.code == 2
    assert main(["rotations", "--dataset", "d", "--out", "o"]) == 0
    assert [(a.dataset, a.out) for a in calls] == [("d", "o")]


def test_subcommand_replaced_after_a_call_is_the_one_that_runs(monkeypatch, tmp_path, capsys):
    """`main` looks the subcommand up when it runs it, so a function a
    caller replaces after the parser was built, such as a profiler's
    wrapper, still runs."""
    argv = ["rotations", "--dataset", str(tmp_path / "nope.rcds"), "--out", str(tmp_path)]
    assert main(argv) == 3
    calls = []
    monkeypatch.setattr(cli, "cmd_rotations", _recording(calls))
    assert main(argv) == 0
    assert len(calls) == 1


def test_missing_dataset_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.rcds"
    code = main(["split", "--dataset", str(missing), "--out", str(tmp_path / "f.json")])
    assert code == 3
    assert str(missing) in capsys.readouterr().err


def test_invalid_json_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.rcds")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"dataset": {"synthetic": {"bogus_key": 1}}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.rcds")]) == 2


@pytest.mark.parametrize("kwargs", [
    {"pixels": [0.5, np.nan, 0.1, 0.2]},
    {"days": (10, 30, 20, 40)},
    {"days": (10, 20, 30, 400)},
])
def test_malformed_dataset_is_data_error(tmp_path, capsys, kwargs):
    path = tmp_path / "bad.rcds"
    path.write_bytes(one_sample_file(**kwargs))
    code = main(["split", "--dataset", str(path), "--out", str(tmp_path / "f.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "data format error" in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.json"
    cfg.write_text(json.dumps(RUN_CONFIG))
    dataset = root / "dataset.rcds"
    assert main(["synth", "--config", str(cfg), "--out", str(dataset)]) == 0
    folds = root / "folds.json"
    assert main([
        "split", "--dataset", str(dataset), "--k", "3",
        "--block-size", "2500", "--out", str(folds),
    ]) == 0
    train_out = root / "train"
    assert main([
        "train", "--config", str(cfg), "--dataset", str(dataset),
        "--folds", str(folds), "--fold", "0", "--out", str(train_out),
    ]) == 0
    eval_out = root / "eval"
    assert main([
        "eval", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
        "--dataset", str(dataset), "--folds", str(folds),
        "--fold", "0", "--out", str(eval_out),
    ]) == 0
    return root, cfg, dataset, folds, train_out, eval_out


class TestPipeline:

    def test_dataset_and_folds_written(self, workdir):
        root, _, dataset, folds, _, _ = workdir
        assert dataset.exists() and (dataset.parent / (dataset.name + ".json")).exists()
        doc = json.loads(folds.read_text())
        assert doc["k"] == 3 and len(doc["folds"]) == 120

    def test_train_outputs(self, workdir):
        root, cfg, dataset, folds, train_out, _ = workdir
        assert (train_out / "checkpoint_fold0.bin").exists()
        report = json.loads((train_out / "run_report.json").read_text())
        assert report["variant"] == "dec"
        assert set(report["folds"]) == {"0"}
        by_year = report["folds"]["0"]["test_by_year"]
        assert set(by_year) == {"1", "2", "3"}
        for stats in by_year.values():
            assert 0.0 <= stats["oa"] <= 1.0
        # one entry per epoch, no wall times: the report stays deterministic
        fold = report["folds"]["0"]
        log = fold["epoch_log"]
        assert [row["epoch"] for row in log] == list(range(len(log))) and log
        for row in log:
            assert set(row) == {"epoch", "train_loss", "val_miou"}
            assert np.isfinite(row["train_loss"]) and 0.0 <= row["val_miou"] <= 1.0
        assert 0 <= fold["best_epoch"] < len(log)
        best = max(row["val_miou"] for row in log)
        assert log[fold["best_epoch"]]["val_miou"] == best
        again = root / "train_again"
        assert main([
            "train", "--config", str(cfg), "--dataset", str(dataset),
            "--folds", str(folds), "--fold", "0", "--out", str(again),
        ]) == 0
        assert (again / "run_report.json").read_bytes() == (train_out / "run_report.json").read_bytes()

    def test_eval_outputs(self, workdir):
        _, _, _, _, _, eval_out = workdir
        preds = json.loads((eval_out / "predictions.json").read_text())
        assert preds["meta"]["fold"] == 0 and preds["meta"]["val_fold"] == 1
        assert preds["test"] and preds["val"]
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert 0.0 <= metrics["oa"] <= 1.0
        assert len(metrics["per_class_iou"]) == 8
        assert (eval_out / "confusion.csv").exists()

    @pytest.mark.parametrize("variant", ["dec", "obs"])
    def test_eval_records_equal_two_predict_calls(self, workdir, tmp_path, variant):
        # eval predicts the val and test parcels in one call; each parcel's
        # records are those of a call on its fold alone, bit for bit
        _, _, dataset, folds, train_out, _ = workdir
        ckpt = train_out / "checkpoint_fold0.bin"
        model = load_checkpoint(ckpt)
        if variant == "obs":
            model = CropModel(model.dims, "obs", seed=3)
            ckpt = tmp_path / "obs.bin"
            save_checkpoint(ckpt, model)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                     "--folds", str(folds), "--fold", "0", "--seed", "5",
                     "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "predictions.json").read_text())
        fold_of = json.loads(folds.read_text())["folds"]
        parcels = oracles.load_dataset(dataset).parcels
        for name, fold in (("val", 1), ("test", 0)):
            records = predict(model, [p for p in parcels if fold_of[str(p.parcel_id)] == fold],
                              seed=5)
            assert doc[name] == [oracles.record_dict(r) for r in records]

    def test_calibrate(self, workdir):
        root, _, _, _, _, eval_out = workdir
        out = root / "calib"
        assert main([
            "calibrate", "--predictions", str(eval_out / "predictions.json"),
            "--out", str(out),
        ]) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["tau"] > 0 and doc["bins"] == 15
        assert (out / "reliability.csv").exists()
        calibrated = json.loads((out / "predictions_calibrated.json").read_text())
        assert all("posterior" in r for r in calibrated["test"])

    def test_crf(self, workdir):
        root, _, dataset, folds, _, eval_out = workdir
        out = root / "crf"
        assert main([
            "crf", "--predictions", str(eval_out / "predictions.json"),
            "--dataset", str(dataset), "--folds", str(folds),
            "--out", str(out),
        ]) == 0
        doc = json.loads((out / "crf_metrics.json").read_text())
        assert doc["alpha"] == 1.0
        # year-3 records only: one third of the test records
        preds = json.loads((eval_out / "predictions.json").read_text())
        assert doc["records"] == len(preds["test"]) // 3
        assert (out / "transitions.bin").exists()

    def test_rotations(self, workdir):
        root, _, dataset, _, _, _ = workdir
        out = root / "rot"
        assert main(["rotations", "--dataset", str(dataset), "--out", str(out)]) == 0
        doc = json.loads((out / "rotations.json").read_text())
        assert doc["possible_rotations"] == 8**3
        assert 1 <= doc["observed_rotations"] <= 8**3
        assert doc["categories"]
        table = (out / "rotation_table.csv").read_text().splitlines()
        assert table[0] == "class,50,75,90,100"
        assert table[-1].startswith("mean,")

    def test_embed(self, workdir):
        root, _, dataset, _, train_out, _ = workdir
        out = root / "embeddings.csv"
        assert main([
            "embed", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
            "--dataset", str(dataset), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 120

    def test_eval_missing_checkpoint(self, workdir, tmp_path):
        _, _, dataset, folds, _, _ = workdir
        code = main([
            "eval", "--checkpoint", str(tmp_path / "none.bin"),
            "--dataset", str(dataset), "--folds", str(folds),
            "--fold", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_split_contract_violation(self, workdir, tmp_path):
        _, _, dataset, _, _, _ = workdir
        code = main([
            "split", "--dataset", str(dataset), "--k", "1",
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == 4

    def test_split_too_small_blocks(self, workdir, tmp_path):
        _, _, dataset, _, _, _ = workdir
        code = main([
            "split", "--dataset", str(dataset), "--k", "3",
            "--block-size", "1000000", "--out", str(tmp_path / "f.json"),
        ])
        assert code == 4

    @pytest.mark.parametrize("command", ["train", "eval", "crf"])
    def test_folds_missing_a_parcel(self, workdir, tmp_path, capsys, command):
        _, cfg, dataset, folds, train_out, eval_out = workdir
        doc = json.loads(folds.read_text())
        del doc["folds"]["5"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(doc))
        common = ["--dataset", str(dataset), "--folds", str(partial),
                  "--out", str(tmp_path / "o")]
        argv = {
            "train": ["train", "--config", str(cfg), "--fold", "0"],
            "eval": ["eval", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
                     "--fold", "0"],
            "crf": ["crf", "--predictions", str(eval_out / "predictions.json")],
        }[command]
        capsys.readouterr()
        assert main(argv + common) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "parcel" in err

    def test_train_rejects_crf_variant(self, workdir, tmp_path):
        _, cfg, dataset, folds, _, _ = workdir
        code = main([
            "train", "--config", str(cfg), "--dataset", str(dataset),
            "--folds", str(folds), "--variant", "crf",
            "--out", str(tmp_path / "t"),
        ])
        assert code == 2

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        '{"folds": {"0": 0}, "block_size": 2500}',
        '{"k": 3, "folds": [0, 1], "block_size": 2500}',
        '{"k": 3, "folds": {"p0": 0}, "block_size": 2500}',
    ])
    def test_malformed_folds_file(self, workdir, tmp_path, capsys, text):
        _, _, dataset, _, train_out, _ = workdir
        bad = tmp_path / "folds.json"
        bad.write_text(text)
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
            "--dataset", str(dataset), "--folds", str(bad),
            "--fold", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "folds file" in err

    def test_checkpoint_sidecar_unknown_dims_key(self, workdir, tmp_path, capsys):
        _, _, dataset, folds, train_out, _ = workdir
        ckpt = tmp_path / "ckpt.bin"
        shutil.copy(train_out / "checkpoint_fold0.bin", ckpt)
        doc = json.loads((train_out / "checkpoint_fold0.bin.json").read_text())
        doc["dims"]["width"] = 3
        (tmp_path / "ckpt.bin.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
            "--folds", str(folds), "--fold", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "width" in err

    @staticmethod
    def _huge_dataset(dataset, tmp_path):
        """The dataset with finite pixels large enough that the encoder
        overflows to inf/NaN."""
        ds = oracles.load_dataset(dataset)
        for p in ds.parcels:
            for s in p.samples:
                s.pixels = s.pixels * np.float32(1e37)
        huge = tmp_path / "huge.rcds"
        save_dataset(huge, ds.parcels, ds.num_classes)
        return huge

    def test_non_finite_loss_is_contract_error(self, workdir, tmp_path, capsys):
        _, cfg, dataset, folds, _, _ = workdir
        huge = self._huge_dataset(dataset, tmp_path)
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "train", "--config", str(cfg), "--dataset", str(huge),
                "--folds", str(folds), "--fold", "0", "--out", str(tmp_path / "t"),
            ])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite training loss" in err

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_non_finite_inference_is_contract_error(self, workdir, tmp_path, capsys, command):
        _, _, dataset, folds, train_out, _ = workdir
        huge = self._huge_dataset(dataset, tmp_path)
        argv = [command, "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
                "--dataset", str(huge), "--out", str(tmp_path / "o")]
        if command == "eval":
            argv += ["--folds", str(folds), "--fold", "0"]
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite descriptor for parcel" in err
        assert not (tmp_path / "o").exists()


# a well-formed predictions record of the 8-class pipeline dataset, and the
# meta of a fold-0 eval
_RECORD = {"parcel_id": 0, "year_index": 1, "logits": [0.5, -0.5] * 4, "true_label": 0}
_META = {"fold": 0, "val_fold": 1}


def _preds(**test_record):
    """Predictions file text with one val record and one test record,
    `test_record` replacing fields of the well-formed one."""
    return json.dumps({"meta": _META, "val": [_RECORD], "test": [{**_RECORD, **test_record}]})


def _preds_meta(**meta):
    """Predictions file text whose test record `crf` can rescore (year 3),
    `meta` replacing fields of the fold-0 meta."""
    return json.dumps({"meta": {**_META, **meta}, "val": [_RECORD],
                       "test": [{**_RECORD, "year_index": 3}]})


@pytest.fixture(scope="module")
def malformed(workdir, tmp_path_factory):
    """Placeholder -> path of the pipeline's files and of malformed inputs."""
    _, cfg, dataset, folds, train_out, eval_out = workdir
    bad = tmp_path_factory.mktemp("malformed")
    files = {
        "config_not_json": "{not json",
        "config_unknown_key": json.dumps({"dataset": {"synthetic": {"bogus_key": 1}}}),
        "config_not_object": "[1]",
        "config_pixels_min_above_max": json.dumps({"dataset": {"synthetic": {
            **RUN_CONFIG["dataset"]["synthetic"], "pixels_min": 7, "pixels_max": 6}}}),
        "config_curve_group_class_8": json.dumps({"dataset": {"synthetic": {
            **RUN_CONFIG["dataset"]["synthetic"], "curve_groups": [[2, 8]]}}}),
        "folds_not_json": "{not json",
        "preds_not_json": "{not json",
        "preds_not_object": "[]",
        "preds_no_test": json.dumps({"meta": {"fold": 0, "val_fold": 1}, "val": []}),
        "preds_no_fold": json.dumps({"meta": {}, "val": [_RECORD], "test": [_RECORD]}),
        "preds_bad_record": json.dumps({"meta": {}, "val": [{"logits": [0.0]}], "test": []}),
        "preds_empty_test": json.dumps({"meta": _META, "val": [_RECORD], "test": []}),
        "preds_empty_val": json.dumps({"meta": _META, "val": [], "test": [_RECORD]}),
        "preds_unknown_parcel": _preds(parcel_id=10**6),
        "preds_year_0": _preds(year_index=0),
        "preds_year_4": _preds(year_index=4),
        "preds_year_1": _preds(),
        "preds_year_string": _preds(year_index="3"),
        "preds_parcel_float": _preds(parcel_id=1.5),
        "preds_parcel_bool": _preds(parcel_id=True),
        "preds_label_99": _preds(true_label=99),
        "preds_label_string": _preds(true_label="1"),
        "preds_ragged_logits": _preds(logits=[0.5, -0.5]),
        "preds_nan_logit": _preds(logits=[float("nan")] + _RECORD["logits"][1:]),
        "preds_logit_string": _preds(logits=["0.5"] + _RECORD["logits"][1:]),
        "preds_logit_bool": _preds(logits=[True] + _RECORD["logits"][1:]),
        "preds_logit_null": _preds(logits=[None] + _RECORD["logits"][1:]),
        "preds_posterior_string": _preds(posterior=["0.5"] + [0.5 / 7] * 7),
        "preds_parcel_2_64": _preds(parcel_id=2**64),
        "preds_parcel_negative": _preds(parcel_id=-1),
        "preds_logit_huge_int": _preds(logits=[10**400] + _RECORD["logits"][1:]),
        "preds_fold_string": _preds_meta(fold="0"),
        "preds_fold_list": _preds_meta(fold=[0]),
        "preds_fold_7": _preds_meta(fold=7),
        "preds_fold_bool": _preds_meta(fold=False),
        "preds_val_fold_2": _preds_meta(val_fold=2),
        "config_protocol_year_5": json.dumps(
            {**RUN_CONFIG, "train": {**RUN_CONFIG["train"], "protocol": "specialized",
                                     "protocol_year": 5}}),
        "config_mixed_protocol_year": json.dumps(
            {**RUN_CONFIG, "train": {**RUN_CONFIG["train"], "protocol": "mixed",
                                     "protocol_year": 2}}),
        "preds_2_classes": json.dumps({"meta": _META, "val": [{**_RECORD, "logits": [0.5, -0.5]}],
                                       "test": [{**_RECORD, "logits": [0.5, -0.5]}]}),
        "config_not_utf8": b'{"train": {"\xff": 1}}',
        # integral floats where an integer belongs
        "config_parcels_float": json.dumps({"dataset": {"synthetic": {
            **RUN_CONFIG["dataset"]["synthetic"], "parcels": 30.0}}}),
        "config_cycles_float": json.dumps({"dataset": {"synthetic": {
            **RUN_CONFIG["dataset"]["synthetic"], "cycles": [[2, 3, 4.0]]}}}),
        "config_epochs_float": json.dumps({**RUN_CONFIG, "train": {**RUN_CONFIG["train"],
                                                                   "epochs": 2.0}}),
        "config_dims_float": json.dumps({**RUN_CONFIG, "model": {
            **RUN_CONFIG["model"], "dims": {**RUN_CONFIG["model"]["dims"], "sample_pixels": 4.0}}}),
        "folds_not_utf8": b'{"k": 3, "\xff": 1}',
        # a float field given a number that no float holds finitely
        "config_area_size_1e400": '{"dataset": {"synthetic": {"area_size": 1e400}}}',
        "config_area_size_huge_int": json.dumps({"dataset": {"synthetic": {"area_size": 10**400}}}),
        "config_noise_std_1e400": '{"dataset": {"synthetic": {"noise_std": 1e400}}}',
        "config_learning_rate_1e400": json.dumps(
            {**RUN_CONFIG, "train": {**RUN_CONFIG["train"], "learning_rate": "LR"}}
        ).replace('"LR"', "1e400"),
        "preds_not_utf8": b'{"meta": "\xff"}',
    }
    # model dims that repeat or contradict the dataset's 4 channels and 8 classes
    for key, value in (("channels", 3), ("channels", 4), ("num_classes", 4),
                       ("num_classes", 8), ("num_classes", 12)):
        files[f"config_dims_{value}_{key}"] = json.dumps({**RUN_CONFIG, "model": {
            **RUN_CONFIG["model"], "dims": {**RUN_CONFIG["model"]["dims"], key: value}}})
    # a synthetic config above what the .rcds header holds or a year's
    # dates can place
    for key, value in {"timesteps": 349, "num_years": 256, "channels": 65536,
                       "num_classes": 65536}.items():
        files[f"config_{key}_{value}"] = json.dumps({"dataset": {"synthetic": {
            **RUN_CONFIG["dataset"]["synthetic"], key: value}}})
    # the pipeline's fold-0 predictions under the meta of fold 1, and with
    # its test records given as val records too
    fold0 = json.loads((eval_out / "predictions.json").read_text())
    files["preds_meta_fold_1"] = json.dumps({**fold0, "meta": {**fold0["meta"], "fold": 1,
                                                               "val_fold": 2}})
    files["preds_val_from_fold_0"] = json.dumps({**fold0, "val": fold0["test"]})
    # the pipeline's folds file with one value replaced
    pipeline_folds = json.loads(folds.read_text())
    for name, edit in {
        "folds_k_string": {"k": "3"},
        "folds_k_bool": {"k": True},
        "folds_k_1": {"k": 1},
        "folds_block_size_0": {"block_size": 0},
        "folds_block_size_string": {"block_size": "2500"},
        "folds_block_size_inf": {"block_size": float("inf")},
        "folds_fold_9": {"folds": {**pipeline_folds["folds"], "5": 9}},
        "folds_fold_negative": {"folds": {**pipeline_folds["folds"], "5": -1}},
        "folds_fold_float": {"folds": {**pipeline_folds["folds"], "5": 1.0}},
        "folds_block_size_huge_int": {"block_size": 10**400},
        # keys that are not the decimal text of a parcel id
        "folds_key_leading_zero": {"folds": {**pipeline_folds["folds"], "05": 0}},
        "folds_key_space": {"folds": {**pipeline_folds["folds"], " 6": 0}},
        "folds_key_underscore": {"folds": {**pipeline_folds["folds"], "5_0": 0}},
        "folds_key_negative": {"folds": {**pipeline_folds["folds"], "-3": 0}},
        "folds_key_2_64": {"folds": {**pipeline_folds["folds"], str(2**64): 0}},
    }.items():
        files[name] = json.dumps({**pipeline_folds, **edit})
    paths = {name: bad / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
    # copies of the pipeline's dataset and checkpoint beside a malformed sidecar
    sidecars = {
        "dataset_sidecar_not_utf8": (dataset, b'{"class_names": "\xff"}'),
        "dataset_sidecar_not_json": (dataset, b"{not json"),
        "dataset_sidecar_not_object": (dataset, b"[1]"),
        "dataset_class_names": (dataset, b'{"class_names": ["a"]}'),
        "ckpt_sidecar_not_utf8": (train_out / "checkpoint_fold0.bin", b'{"variant": "\xff"}'),
    }
    # the pipeline's checkpoint sidecar with one value replaced
    ckpt_sidecar = json.loads((train_out / "checkpoint_fold0.bin.json").read_text())
    for name, edit in {
        "ckpt_d1_string": {"dims": {**ckpt_sidecar["dims"], "d1": "x"}},
        "ckpt_d1_bool": {"dims": {**ckpt_sidecar["dims"], "d1": True}},
        "ckpt_d1_0": {"dims": {**ckpt_sidecar["dims"], "d1": 0}},
        "ckpt_d1_float": {"dims": {**ckpt_sidecar["dims"], "d1": 4.0}},
        "ckpt_heads_3": {"dims": {**ckpt_sidecar["dims"], "heads": 3}},  # d2 is 8
        "ckpt_variant_bogus": {"variant": "bogus"},
    }.items():
        sidecars[name] = (train_out / "checkpoint_fold0.bin",
                          json.dumps({**ckpt_sidecar, **edit}).encode())
    for name, (source, sidecar) in sidecars.items():
        paths[name] = bad / f"{name}.bin"
        shutil.copy(source, paths[name])
        (bad / f"{name}.bin.json").write_bytes(sidecar)
    # checkpoints of fewer and more classes than the dataset's 8
    for classes in (4, 12):
        paths[f"ckpt_{classes}_classes"] = bad / f"ckpt_{classes}_classes.bin"
        dims = ModelDims(channels=4, num_classes=classes, **RUN_CONFIG["model"]["dims"])
        save_checkpoint(paths[f"ckpt_{classes}_classes"], CropModel(dims, "dec", seed=1))
    # a checkpoint of 3 channels, against the dataset's 4
    paths["ckpt_3_channels"] = bad / "ckpt_3_channels.bin"
    dims = ModelDims(channels=3, num_classes=8, **RUN_CONFIG["model"]["dims"])
    save_checkpoint(paths["ckpt_3_channels"], CropModel(dims, "dec", seed=1))
    paths["dataset_nan"] = bad / "nan.rcds"
    paths["dataset_nan"].write_bytes(one_sample_file(pixels=[0.5, np.nan, 0.1, 0.2]))
    # two parcels with id 0: the one-sample file's parcel twice
    paths["dataset_repeated_id"] = bad / "repeated_id.rcds"
    paths["dataset_repeated_id"].write_bytes(oracles.encode_rcds([one_sample_parcel()] * 2, 3))
    # the pipeline's dataset with parcel 0's year-1 sample cut to no dates
    paths["dataset_no_dates"] = bad / "no_dates.rcds"
    paths["dataset_no_dates"].write_bytes(without_dates(dataset))
    # the one-sample file under a version-1 header
    paths["dataset_v1"] = bad / "v1.rcds"
    paths["dataset_v1"].write_bytes(oracles.encode_rcds([one_sample_parcel()], 3, version=1))
    paths["ckpt_bad_sidecar"] = bad / "ckpt.bin"
    shutil.copy(train_out / "checkpoint_fold0.bin", paths["ckpt_bad_sidecar"])
    sidecar = json.loads((train_out / "checkpoint_fold0.bin.json").read_text())
    sidecar["dims"]["width"] = 3
    (bad / "ckpt.bin.json").write_text(json.dumps(sidecar))
    # a two-year dataset, its folds and the pipeline checkpoint's predictions
    two_years = bad / "two_years.json"
    two_years.write_text(json.dumps({"dataset": {"synthetic": {
        **RUN_CONFIG["dataset"]["synthetic"], "num_years": 2, "parcels": 40}}}))
    paths["dataset_2_years"] = bad / "two_years.rcds"
    paths["folds_2_years"] = bad / "two_years_folds.json"
    paths["preds_2_years"] = bad / "two_years_eval" / "predictions.json"
    assert main(["synth", "--config", str(two_years), "--out", str(paths["dataset_2_years"])]) == 0
    assert main(["split", "--dataset", str(paths["dataset_2_years"]), "--k", "3",
                 "--block-size", "2500", "--out", str(paths["folds_2_years"])]) == 0
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint_fold0.bin"),
                 "--dataset", str(paths["dataset_2_years"]),
                 "--folds", str(paths["folds_2_years"]),
                 "--fold", "0", "--out", str(paths["preds_2_years"].parent)]) == 0
    # a directory where a file is named, and a file where --out names a directory
    paths["directory"] = bad / "a_directory"
    paths["directory"].mkdir()
    paths["existing_file"] = bad / "existing_file.txt"
    paths["existing_file"].write_text("not a directory")
    paths.update(cfg=cfg, dataset=dataset, folds=folds, out=bad / "out",
                 ckpt=train_out / "checkpoint_fold0.bin", preds=eval_out / "predictions.json")
    return {name: str(path) for name, path in paths.items()}


_TRAIN = "train --config {cfg} --dataset {dataset} --folds {folds} --out {out} --fold 0"
_EVAL = "eval --checkpoint {ckpt} --dataset {dataset} --folds {folds} --out {out} --fold 0"
_CRF = "crf --predictions {preds} --dataset {dataset} --folds {folds} --out {out}"
_EMBED = "embed --checkpoint {ckpt} --dataset {dataset} --out {out}"
_CALIBRATE = "calibrate --predictions {preds} --out {out}"


CLI_MATRIX = {
    # malformed run config: exit 2
    "synth-config-not-json": ("synth --config {config_not_json} --out {out}", 2),
    "synth-config-unknown-key": ("synth --config {config_unknown_key} --out {out}", 2),
    "train-config-not-json": (_TRAIN.replace("{cfg}", "{config_not_json}"), 2),
    "train-unknown-variant": (_TRAIN + " --variant crf", 2),
    "synth-config-not-utf8": ("synth --config {config_not_utf8} --out {out}", 2),
    "synth-config-not-object": ("synth --config {config_not_object} --out {out}", 2),
    "synth-config-missing": ("synth --config {cfg}.missing --out {out}", 3),
    "synth-pixels-min-above-max": ("synth --config {config_pixels_min_above_max} --out {out}", 2),
    "synth-curve-group-class-8": ("synth --config {config_curve_group_class_8} --out {out}", 2),
    "train-config-not-utf8": (_TRAIN.replace("{cfg}", "{config_not_utf8}"), 2),
    "synth-parcels-float": ("synth --config {config_parcels_float} --out {out}", 2),
    "synth-cycles-float": ("synth --config {config_cycles_float} --out {out}", 2),
    "train-epochs-float": (_TRAIN.replace("{cfg}", "{config_epochs_float}"), 2),
    "train-dims-float": (_TRAIN.replace("{cfg}", "{config_dims_float}"), 2),
    "train-dims-3-channels": (_TRAIN.replace("{cfg}", "{config_dims_3_channels}"), 2),
    "train-dims-4-classes": (_TRAIN.replace("{cfg}", "{config_dims_4_num_classes}"), 2),
    "train-dims-12-classes": (_TRAIN.replace("{cfg}", "{config_dims_12_num_classes}"), 2),
    "synth-seed-negative": ("synth --config {cfg} --out {out} --seed -1", 2),
    "synth-area-size-1e400": ("synth --config {config_area_size_1e400} --out {out}", 2),
    "synth-area-size-huge-int": ("synth --config {config_area_size_huge_int} --out {out}", 2),
    "synth-noise-std-1e400": ("synth --config {config_noise_std_1e400} --out {out}", 2),
    "train-learning-rate-1e400": (_TRAIN.replace("{cfg}", "{config_learning_rate_1e400}"), 2),
    "synth-timesteps-349": ("synth --config {config_timesteps_349} --out {out}", 2),
    "synth-num-years-256": ("synth --config {config_num_years_256} --out {out}", 2),
    "synth-channels-65536": ("synth --config {config_channels_65536} --out {out}", 2),
    "synth-num-classes-65536": ("synth --config {config_num_classes_65536} --out {out}", 2),
    "train-seed-negative": (_TRAIN + " --seed -1", 2),
    "train-seed-2-64": (_TRAIN + " --seed 18446744073709551616", 2),
    "eval-seed-negative": (_EVAL + " --seed -1", 2),
    "embed-seed-negative": (_EMBED + " --seed -1", 2),
    "split-seed-negative": ("split --dataset {dataset} --out {out} --seed -1", 2),
    # malformed dataset, folds, checkpoint or predictions file: exit 3
    "split-dataset": ("split --dataset {dataset_nan} --out {out}", 3),
    "train-dataset": (_TRAIN.replace("{dataset}", "{dataset_nan}"), 3),
    "train-folds": (_TRAIN.replace("{folds}", "{folds_not_json}"), 3),
    "eval-dataset": (_EVAL.replace("{dataset}", "{dataset_nan}"), 3),
    "eval-folds": (_EVAL.replace("{folds}", "{folds_not_json}"), 3),
    "eval-checkpoint": (_EVAL.replace("{ckpt}", "{ckpt_bad_sidecar}"), 3),
    "calibrate-not-json": (_CALIBRATE.replace("{preds}", "{preds_not_json}"), 3),
    "calibrate-not-object": (_CALIBRATE.replace("{preds}", "{preds_not_object}"), 3),
    "calibrate-no-test": (_CALIBRATE.replace("{preds}", "{preds_no_test}"), 3),
    "calibrate-bad-record": (_CALIBRATE.replace("{preds}", "{preds_bad_record}"), 3),
    "calibrate-empty-test": (_CALIBRATE.replace("{preds}", "{preds_empty_test}"), 3),
    "calibrate-empty-val": (_CALIBRATE.replace("{preds}", "{preds_empty_val}"), 3),
    "crf-not-json": (_CRF.replace("{preds}", "{preds_not_json}"), 3),
    "crf-not-object": (_CRF.replace("{preds}", "{preds_not_object}"), 3),
    "crf-no-test": (_CRF.replace("{preds}", "{preds_no_test}"), 3),
    "crf-meta-no-fold": (_CRF.replace("{preds}", "{preds_no_fold}"), 3),
    "crf-dataset": (_CRF.replace("{dataset}", "{dataset_nan}"), 3),
    "crf-folds": (_CRF.replace("{folds}", "{folds_not_json}"), 3),
    "crf-empty-test": (_CRF.replace("{preds}", "{preds_empty_test}"), 3),
    "crf-empty-val": (_CRF.replace("{preds}", "{preds_empty_val}"), 3),
    "crf-unknown-parcel": (_CRF.replace("{preds}", "{preds_unknown_parcel}"), 3),
    "crf-year-0": (_CRF.replace("{preds}", "{preds_year_0}"), 3),
    "crf-year-4": (_CRF.replace("{preds}", "{preds_year_4}"), 3),
    "rotations-dataset": ("rotations --dataset {dataset_nan} --out {out}", 3),
    "eval-dataset-no-dates": (_EVAL.replace("{dataset}", "{dataset_no_dates}"), 3),
    "embed-dataset-no-dates": (_EMBED.replace("{dataset}", "{dataset_no_dates}"), 3),
    "rotations-dataset-no-dates": ("rotations --dataset {dataset_no_dates} --out {out}", 3),
    "crf-dataset-no-dates": (_CRF.replace("{dataset}", "{dataset_no_dates}"), 3),
    "split-dataset-repeated-id": ("split --dataset {dataset_repeated_id} --out {out}", 3),
    "rotations-dataset-v1": ("rotations --dataset {dataset_v1} --out {out}", 3),
    "embed-dataset": (_EMBED.replace("{dataset}", "{dataset_nan}"), 3),
    "embed-checkpoint": (_EMBED.replace("{ckpt}", "{ckpt_bad_sidecar}"), 3),
    "train-folds-not-utf8": (_TRAIN.replace("{folds}", "{folds_not_utf8}"), 3),
    "calibrate-not-utf8": (_CALIBRATE.replace("{preds}", "{preds_not_utf8}"), 3),
    "crf-not-utf8": (_CRF.replace("{preds}", "{preds_not_utf8}"), 3),
    "eval-checkpoint-not-utf8": (_EVAL.replace("{ckpt}", "{ckpt_sidecar_not_utf8}"), 3),
    "split-dataset-sidecar-not-utf8":
        ("split --dataset {dataset_sidecar_not_utf8} --out {out}", 3),
    "eval-dataset-sidecar-not-json": (_EVAL.replace("{dataset}", "{dataset_sidecar_not_json}"), 3),
    "eval-dataset-sidecar-not-object":
        (_EVAL.replace("{dataset}", "{dataset_sidecar_not_object}"), 3),
    "rotations-dataset-sidecar-not-object":
        ("rotations --dataset {dataset_sidecar_not_object} --out {out}", 3),
    "eval-class-names": (_EVAL.replace("{dataset}", "{dataset_class_names}"), 3),
    "rotations-class-names": ("rotations --dataset {dataset_class_names} --out {out}", 3),
    "crf-year-string": (_CRF.replace("{preds}", "{preds_year_string}"), 3),
    "crf-logits-not-class-count": (_CRF.replace("{preds}", "{preds_2_classes}"), 3),
    "crf-label-99": (_CRF.replace("{preds}", "{preds_label_99}"), 3),
    "crf-ragged-logits": (_CRF.replace("{preds}", "{preds_ragged_logits}"), 3),
    "calibrate-parcel-float": (_CALIBRATE.replace("{preds}", "{preds_parcel_float}"), 3),
    "calibrate-parcel-bool": (_CALIBRATE.replace("{preds}", "{preds_parcel_bool}"), 3),
    "calibrate-label-99": (_CALIBRATE.replace("{preds}", "{preds_label_99}"), 3),
    "calibrate-label-string": (_CALIBRATE.replace("{preds}", "{preds_label_string}"), 3),
    "calibrate-ragged-logits": (_CALIBRATE.replace("{preds}", "{preds_ragged_logits}"), 3),
    "calibrate-nan-logit": (_CALIBRATE.replace("{preds}", "{preds_nan_logit}"), 3),
    "eval-folds-k-string": (_EVAL.replace("{folds}", "{folds_k_string}"), 3),
    "train-folds-k-bool": (_TRAIN.replace("{folds}", "{folds_k_bool}"), 3),
    "eval-folds-k-1": (_EVAL.replace("{folds}", "{folds_k_1}"), 3),
    "eval-folds-block-size-0": (_EVAL.replace("{folds}", "{folds_block_size_0}"), 3),
    "train-folds-block-size-string": (_TRAIN.replace("{folds}", "{folds_block_size_string}"), 3),
    "crf-folds-block-size-inf": (_CRF.replace("{folds}", "{folds_block_size_inf}"), 3),
    "eval-folds-fold-9": (_EVAL.replace("{folds}", "{folds_fold_9}"), 3),
    "eval-folds-fold-negative": (_EVAL.replace("{folds}", "{folds_fold_negative}"), 3),
    "train-folds-fold-float": (_TRAIN.replace("{folds}", "{folds_fold_float}"), 3),
    "eval-folds-block-size-huge-int": (_EVAL.replace("{folds}", "{folds_block_size_huge_int}"), 3),
    "eval-folds-key-leading-zero": (_EVAL.replace("{folds}", "{folds_key_leading_zero}"), 3),
    "train-folds-key-space": (_TRAIN.replace("{folds}", "{folds_key_space}"), 3),
    "crf-folds-key-underscore": (_CRF.replace("{folds}", "{folds_key_underscore}"), 3),
    "eval-folds-key-negative": (_EVAL.replace("{folds}", "{folds_key_negative}"), 3),
    "eval-folds-key-2-64": (_EVAL.replace("{folds}", "{folds_key_2_64}"), 3),
    "eval-checkpoint-4-classes": (_EVAL.replace("{ckpt}", "{ckpt_4_classes}"), 3),
    "eval-checkpoint-12-classes": (_EVAL.replace("{ckpt}", "{ckpt_12_classes}"), 3),
    "eval-checkpoint-3-channels": (_EVAL.replace("{ckpt}", "{ckpt_3_channels}"), 3),
    "embed-checkpoint-3-channels": (_EMBED.replace("{ckpt}", "{ckpt_3_channels}"), 3),
    "eval-checkpoint-d1-string": (_EVAL.replace("{ckpt}", "{ckpt_d1_string}"), 3),
    "embed-checkpoint-d1-bool": (_EMBED.replace("{ckpt}", "{ckpt_d1_bool}"), 3),
    "embed-checkpoint-d1-0": (_EMBED.replace("{ckpt}", "{ckpt_d1_0}"), 3),
    "eval-checkpoint-d1-float": (_EVAL.replace("{ckpt}", "{ckpt_d1_float}"), 3),
    "eval-checkpoint-heads-3": (_EVAL.replace("{ckpt}", "{ckpt_heads_3}"), 3),
    "embed-checkpoint-variant-bogus": (_EMBED.replace("{ckpt}", "{ckpt_variant_bogus}"), 3),
    "calibrate-logit-string": (_CALIBRATE.replace("{preds}", "{preds_logit_string}"), 3),
    "calibrate-logit-bool": (_CALIBRATE.replace("{preds}", "{preds_logit_bool}"), 3),
    "crf-logit-null": (_CRF.replace("{preds}", "{preds_logit_null}"), 3),
    "crf-logit-bool": (_CRF.replace("{preds}", "{preds_logit_bool}"), 3),
    "crf-posterior-string": (_CRF.replace("{preds}", "{preds_posterior_string}"), 3),
    "calibrate-parcel-2-64": (_CALIBRATE.replace("{preds}", "{preds_parcel_2_64}"), 3),
    "calibrate-parcel-negative": (_CALIBRATE.replace("{preds}", "{preds_parcel_negative}"), 3),
    "calibrate-logit-huge-int": (_CALIBRATE.replace("{preds}", "{preds_logit_huge_int}"), 3),
    "crf-meta-fold-string": (_CRF.replace("{preds}", "{preds_fold_string}"), 3),
    "crf-meta-fold-list": (_CRF.replace("{preds}", "{preds_fold_list}"), 3),
    "crf-meta-fold-7": (_CRF.replace("{preds}", "{preds_fold_7}"), 3),
    "crf-meta-fold-bool": (_CRF.replace("{preds}", "{preds_fold_bool}"), 3),
    "crf-meta-val-fold-mismatch": (_CRF.replace("{preds}", "{preds_val_fold_2}"), 3),
    "crf-records-outside-meta-fold": (_CRF.replace("{preds}", "{preds_meta_fold_1}"), 3),
    "crf-val-records-outside-meta-val-fold":
        (_CRF.replace("{preds}", "{preds_val_from_fold_0}"), 3),
    "crf-two-years": (_CRF.replace("{preds}", "{preds_2_years}")
                      .replace("{dataset}", "{dataset_2_years}")
                      .replace("{folds}", "{folds_2_years}"), 3),
    "crf-no-year-3": (_CRF.replace("{preds}", "{preds_year_1}"), 3),
    # a path of the wrong kind: exit 3
    "eval-out-existing-file": (_EVAL.replace("{out}", "{existing_file}"), 3),
    "embed-out-directory": (_EMBED.replace("{out}", "{directory}"), 3),
    "split-out-directory": ("split --dataset {dataset} --out {directory}", 3),
    "calibrate-predictions-directory": (_CALIBRATE.replace("{preds}", "{directory}"), 3),
    "eval-dataset-directory": (_EVAL.replace("{dataset}", "{directory}"), 3),
    # arguments out of range: exit 4
    "train-protocol-year-5": (_TRAIN.replace("{cfg}", "{config_protocol_year_5}"), 4),
    # the mixed protocol trains every year: a protocol year would do nothing
    "train-mixed-protocol-year": (_TRAIN.replace("{cfg}", "{config_mixed_protocol_year}"), 2),
    "split-k-1": ("split --dataset {dataset} --out {out} --k 1", 4),
    "split-block-size-0": ("split --dataset {dataset} --out {out} --block-size 0", 4),
    "split-block-size-negative": ("split --dataset {dataset} --out {out} --block-size -5", 4),
    # more folds than the centroids' grid blocks
    "split-k-above-blocks": ("split --dataset {dataset} --out {out} --k 500", 4),
    "split-block-size-huge": ("split --dataset {dataset} --out {out} --k 5 --block-size 1e300", 4),
    # centroids / 1e-320 overflow: no finite grid block
    "split-block-size-1e-320": ("split --dataset {dataset} --out {out} --block-size 1e-320", 3),
    "train-fold-7": (_TRAIN.replace("--fold 0", "--fold 7"), 4),
    "train-fold-negative": (_TRAIN.replace("--fold 0", "--fold -1"), 4),
    "eval-fold-7": (_EVAL.replace("--fold 0", "--fold 7"), 4),
    "eval-year-foo": (_EVAL + " --year foo", 4),
    "eval-year-0": (_EVAL + " --year 0", 4),
    "eval-year-4": (_EVAL + " --year 4", 4),
    "eval-year-superscript-2": (_EVAL + " --year \u00b2", 4),
    "calibrate-bins-0": (_CALIBRATE + " --bins 0", 4),
    "calibrate-bins-huge": (_CALIBRATE + " --bins 100000000000", 4),
    "crf-alpha-nan": (_CRF + " --alpha nan", 4),
    "crf-alpha-inf": (_CRF + " --alpha inf", 4),
}


@pytest.mark.parametrize("case", sorted(CLI_MATRIX))
def test_cli_matrix_exits_with_one_line(malformed, capsys, case):
    command, code = CLI_MATRIX[case]
    argv = [arg.format(**malformed) for arg in command.split()]
    capsys.readouterr()
    assert main(argv) == code
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("case", ["eval-out-existing-file", "embed-out-directory",
                                  "split-out-directory", "calibrate-predictions-directory",
                                  "eval-dataset-directory"])
def test_path_error_names_the_path(malformed, capsys, case):
    command, _ = CLI_MATRIX[case]
    argv = [arg.format(**malformed) for arg in command.split()]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("file error: ")
    assert malformed["existing_file" if "existing" in case else "directory"] in err


@pytest.mark.parametrize("command, work", [(_TRAIN, "train_single_split"), (_EVAL, "predict")],
                         ids=["train", "eval"])
def test_out_refused_before_the_work(malformed, monkeypatch, capsys, command, work):
    """An --out that names an existing file is refused (exit 3) before any
    model is trained or any parcel predicted."""
    calls = []
    real = getattr(training, work)
    monkeypatch.setattr(training, work, lambda *a, **k: calls.append(1) or real(*a, **k))
    argv = [arg.format(**malformed) for arg in command.split()]
    argv[argv.index("--out") + 1] = malformed["existing_file"]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("file error: ")
    assert calls == []


@pytest.mark.parametrize("key, value, have", [("channels", 3, 4), ("channels", 4, 4),
                                              ("num_classes", 4, 8), ("num_classes", 8, 8),
                                              ("num_classes", 12, 8)])
def test_train_dims_are_the_datasets(malformed, monkeypatch, tmp_path, capsys, key, value, have):
    """model.dims may repeat the dataset's channel and class counts but not
    change them: another value is refused (exit 2) before any training."""
    trained = []
    monkeypatch.setattr(training, "train", lambda dataset, folds, cfg, dims, **kw:
                        trained.append(dims) or SimpleNamespace(folds=[]))
    cfg = malformed[f"config_dims_{value}_{key}"]
    argv = [arg.format(**{**malformed, "cfg": cfg, "out": str(tmp_path / "o")})
            for arg in _TRAIN.split()]
    capsys.readouterr()
    if value == have:
        assert main(argv) == 0
        assert [getattr(dims, key) for dims in trained] == [have]
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: run config {cfg}: model.dims.{key} {value}; the dataset has {have}\n")
        assert trained == []


@pytest.mark.parametrize("command", [_TRAIN, _EVAL], ids=["train", "eval"])
def test_fold_outside_folds_file_refused(malformed, tmp_path, capsys, command):
    argv = [arg.format(**{**malformed, "out": str(tmp_path / "o")})
            for arg in command.replace("--fold 0", "--fold 7").split()]
    capsys.readouterr()
    assert main(argv) == 4
    assert capsys.readouterr().err == "contract violation: fold 7 outside [0, 3)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("classes", [4, 12])
def test_eval_refuses_class_count_before_predicting(malformed, monkeypatch, tmp_path, capsys,
                                                    classes):
    calls = []
    monkeypatch.setattr(training, "predict", lambda *a, **k: calls.append(1))
    argv = [arg.format(**{**malformed, "out": str(tmp_path / "o")})
            for arg in _EVAL.replace("{ckpt}", f"{{ckpt_{classes}_classes}}").split()]
    capsys.readouterr()
    assert main(argv) == 3
    assert f"{classes} classes; the dataset has 8" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [_EVAL, _EMBED], ids=["eval", "embed"])
def test_channel_count_refused_before_encoding(malformed, monkeypatch, tmp_path, capsys,
                                               command):
    calls = []
    monkeypatch.setattr(training, "encode_batch", lambda *a, **k: calls.append(1))
    argv = [arg.format(**{**malformed, "out": str(tmp_path / "o")})
            for arg in command.replace("{ckpt}", "{ckpt_3_channels}").split()]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"data format error: checkpoint "
                                       f"{malformed['ckpt_3_channels']}: 3 channels; "
                                       "the dataset has 4\n")
    assert calls == [] and not (tmp_path / "o").exists()
