"""Fuzzing the three binary readers: a truncated `.rcds`, `RCWT` or `RCTT`
file raises DataFormatError, and one with a single byte changed either
loads or raises DataFormatError, never another exception; `load_dataset`
against its field-by-field oracle on every cut, extended and
single-byte-xored copy of two tiny `.rcds` files, and on files whose
samples' date and pixel counts vary.  The JSON reader
and writers: `write_json`'s exact bytes, `read_json`'s refusals, the
predictions-file writer's bytes against `json.dumps` of one object per
record, the predictions-file reader's round trip, and the typed loader
of the config objects read from JSON."""

import dataclasses
import io
import json
import os
import shutil
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprot.binio import (
    from_json, predictions, read_json, read_predictions, write_json, write_predictions,
)
from croprot.crf import estimate_transitions, load_transitions, save_transitions
from croprot.data import (
    Dataset, FoldAssignment, MultiYearParcel, PixelSetSample, SyntheticConfig,
    generate_synthetic, load_dataset, save_dataset,
)
from croprot.errors import ConfigError, CropRotError, DataFormatError
from croprot.model import CropModel, ModelDims, load_checkpoint, save_checkpoint
from croprot.training import TrainConfig

import oracles
from conftest import tiny_dims


def _save_dataset(path):
    cfg = SyntheticConfig(parcels=3, num_years=2, channels=2, timesteps=4,
                          pixels_min=1, pixels_max=3, seed=4)
    save_dataset(path, generate_synthetic(cfg), cfg.num_classes)


def _save_checkpoint(path):
    save_checkpoint(path, CropModel(tiny_dims(), "dec", seed=1))


def _save_transitions(path):
    triplets = np.random.default_rng(0).integers(0, 3, (20, 3))
    save_transitions(path, estimate_transitions(triplets, 3))


FORMATS = {
    "rcds": (_save_dataset, load_dataset),
    "rcwt": (_save_checkpoint, load_checkpoint),
    "rctt": (_save_transitions, load_transitions),
}


@pytest.fixture(scope="module", params=sorted(FORMATS))
def saved(request, tmp_path_factory):
    """(path of a scratch copy, pristine bytes, loader) of one format."""
    save, load = FORMATS[request.param]
    root = tmp_path_factory.mktemp(request.param)
    save(root / "saved.bin")
    path = root / "fuzzed.bin"
    shutil.copy(root / "saved.bin.json", root / "fuzzed.bin.json")
    return path, (root / "saved.bin").read_bytes(), load


def test_pristine_files_load(saved):
    # the fuzzed copy has its sidecar, so a change reaches the binary reader
    path, raw, load = saved
    path.write_bytes(raw)
    load(path)


@settings(max_examples=150)
@given(data=st.data())
def test_truncation_refused(saved, data):
    path, raw, load = saved
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), "length")])
    with pytest.raises(DataFormatError):
        load(path)


@settings(max_examples=150)
@given(data=st.data())
def test_single_byte_change(saved, data):
    path, raw, load = saved
    changed = bytearray(raw)
    changed[data.draw(st.integers(0, len(raw) - 1), "offset")] ^= data.draw(
        st.integers(1, 255), "xor mask")
    path.write_bytes(bytes(changed))
    try:
        load(path)
    except DataFormatError:
        pass


# two tiny `.rcds` files: several parcels of 2 channels and 2 years, and
# one channel over 3 years with one or two pixels per sample
SWEPT_DATASETS = [
    SyntheticConfig(parcels=3, num_years=2, channels=2, timesteps=4, pixels_min=1,
                    pixels_max=3, seed=4),
    SyntheticConfig(parcels=2, num_years=3, channels=1, timesteps=4, pixels_min=1,
                    pixels_max=2, seed=9),
]


def _variants(raw):
    """`raw` cut at every length, with one byte appended, and with each of
    its bytes xored by 0x01, 0x80 and 0xFF."""
    yield from (raw[:n] for n in range(len(raw)))
    yield raw + b"\0"
    for i in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            changed = bytearray(raw)
            changed[i] ^= mask
            yield bytes(changed)


def _samples(dataset):
    """Per parcel of what a loader returns: its id and centroid, and per
    sample its id, year, label, days and pixels; `load_dataset`'s columns
    read through `Columns.sample_arrays`, the oracle's parcel objects as
    they are."""
    if isinstance(dataset, Dataset):
        columns = dataset.columns
        days, pixels = columns.sample_arrays()
        return [(pid, tuple(centroid), [
            (pid, year, label, d, x)
            for year, (label, d, x) in enumerate(zip(labels, row_days, row_pixels), 1)])
            for pid, centroid, labels, row_days, row_pixels in zip(
                columns.ids.tolist(), columns.centroids.tolist(), columns.labels.tolist(), days,
                pixels)]
    return [(p.parcel_id, p.centroid, [
        (s.parcel_id, s.year_index, s.label, s.days, s.pixels) for s in p.samples])
        for p in dataset.parcels]


def _outcome(load, path):
    """What `load(path)` gives: the error message, or every field of the
    dataset with the types, dtypes and contiguity of its values."""
    try:
        dataset = load(path)
    except DataFormatError as exc:
        return str(exc)
    return dataset.num_classes, dataset.manifest, [
        (pid, type(pid), centroid, [
            (sample_pid, year, label, type(label),
             days.dtype, days.flags.c_contiguous, days.tolist(),
             pixels.dtype, pixels.flags.c_contiguous, pixels.shape, pixels.tobytes())
            for sample_pid, year, label, days, pixels in samples])
        for pid, centroid, samples in _samples(dataset)]


@pytest.mark.parametrize("cfg", SWEPT_DATASETS, ids=["2-years", "3-years"])
def test_load_dataset_matches_the_field_by_field_oracle(tmp_path, cfg):
    """On every cut, extended and single-byte-xored copy of a tiny file,
    `load_dataset` loads the dataset the oracle loads, or raises its
    message."""
    path = tmp_path / "swept.rcds"
    save_dataset(path, generate_synthetic(cfg), cfg.num_classes)
    raw = path.read_bytes()
    loaded = 0
    for changed in _variants(raw):
        path.write_bytes(changed)
        expected = _outcome(oracles.load_dataset, path)
        assert _outcome(load_dataset, path) == expected, changed
        loaded += not isinstance(expected, str)
    assert loaded > 1  # the pristine file and some changes that keep it valid


@st.composite
def _ragged_files(draw):
    """Bytes of a `.rcds` file whose samples' T and N_p vary within and
    across parcels, of 1 to 3 channels, with its sidecar's text or None:
    0 to 3 parcels of 0 to 3 years, the header of an empty file naming
    years and channels of its own."""
    channels, years, classes = draw(st.integers(1, 3)), draw(st.integers(0, 3)), 5
    ids = draw(st.lists(st.integers(0, 2**64 - 1), max_size=3, unique=True))
    if not ids and draw(st.booleans()):
        return oracles.encode_rcds([], classes, num_years=years, channels=channels), None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parcels = []
    for pid in ids:
        samples = []
        for year in range(1, years + 1):
            t = draw(st.integers(1, 6))
            days = np.sort(rng.choice(np.arange(1, 367), t, replace=False))
            pixels = rng.standard_normal((channels, draw(st.integers(1, 4)), t))
            samples.append(PixelSetSample(pid, year, pixels.astype(np.float32), days,
                                          draw(st.integers(0, classes - 1))))
        parcels.append(MultiYearParcel(pid, tuple(rng.uniform(-1e6, 1e6, 2).tolist()), samples))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ragged.rcds")
        save_dataset(path, parcels, classes, {"note": draw(st.text(max_size=3))})
        with open(path, "rb") as fh, open(path + ".json") as sidecar:
            return fh.read(), sidecar.read()


@settings(max_examples=200)
@given(file=_ragged_files())
def test_load_dataset_matches_the_oracle_on_ragged_files(tmp_path_factory, file):
    """On files whose T and N_p vary per sample, and on empty ones, the
    columns of `load_dataset`, their samples read through
    `Columns.sample_arrays`, hold what the field-by-field oracle loads."""
    raw, sidecar = file
    path = tmp_path_factory.getbasetemp() / "ragged.rcds"
    path.write_bytes(raw)
    if sidecar is None:
        (tmp_path_factory.getbasetemp() / "ragged.rcds.json").unlink(missing_ok=True)
    else:
        (tmp_path_factory.getbasetemp() / "ragged.rcds.json").write_text(sidecar)
    want = oracles.load_dataset(path)
    listed = Dataset(want.parcels, want.num_classes)
    got = load_dataset(path)
    samples = [s for p in want.parcels for s in p.samples]
    columns = got.columns
    assert (got.num_classes, got.manifest) == (want.num_classes, want.manifest)
    assert (got.num_years, got.num_channels) == (listed.num_years, listed.num_channels)
    assert columns.ids.dtype == np.uint64
    assert columns.ids.tolist() == [p.parcel_id for p in want.parcels]
    assert columns.centroids.tolist() == [list(p.centroid) for p in want.parcels]
    assert columns.labels.tolist() == [p.labels for p in want.parcels]
    assert columns.ts.ravel().tolist() == [s.days.size for s in samples]
    assert columns.n_pixels.ravel().tolist() == [s.n_pixels for s in samples]
    days, pixels = (a.ravel() for a in columns.sample_arrays())
    assert [(a.dtype, a.tobytes()) for a in days] == [
        (s.days.dtype, s.days.tobytes()) for s in samples]
    assert [(a.shape, a.tobytes()) for a in pixels] == [
        (s.pixels.shape, s.pixels.tobytes()) for s in samples]
    # every sample's days and pixels are views of the file's columns: a
    # load copies no sample
    for arrays, store in ((days, columns.days), (pixels, columns.pixels)):
        assert all(np.shares_memory(a, store) for a in arrays)
    assert _outcome(load_dataset, path) == _outcome(oracles.load_dataset, path)


@given(doc=st.dictionaries(st.text(), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=10)))
def test_write_json_bytes_and_round_trip(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(path, doc)
    expected = io.StringIO()
    json.dump(doc, expected, indent=2, sort_keys=True)
    assert path.read_bytes() == (expected.getvalue() + "\n").encode()
    assert read_json(path, "document") == doc


@pytest.mark.parametrize("raw, match", [
    (None, "missing document"),
    (b'{"a": "\xff"}', "not UTF-8 JSON"),
    (b"{not json", "not UTF-8 JSON"),
    (b"[1]", "does not hold a JSON object"),
])
def test_read_json_refusals(tmp_path, raw, match):
    path = tmp_path / "doc.json"
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises(DataFormatError, match=match) as exc:
        read_json(path, "document")
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("raw, error", [
    (None, DataFormatError),
    (b"{not json", ConfigError),
    (b"[1]", ConfigError),
])
def test_read_json_raises_the_callers_error(tmp_path, raw, error):
    """A missing file is always a DataFormatError; the caller's class covers
    a file that is there but holds no JSON object."""
    path = tmp_path / "doc.json"
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises(CropRotError) as exc:
        read_json(path, "run config", ConfigError)
    assert type(exc.value) is error


def _random_split(rng, n, num_classes, posterior):
    """A predictions array of `n` rows with ids up to 2**64 - 1 and float32
    logits from 1e-40 to 1e30 in size, and its float32 posteriors or None.
    A third of the rows have the id 2**64 - 1, each with a year drawn from
    [4, 2**62), so that no (id, year) repeats within or across splits."""
    ids = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    ids[: n // 3] = 2**64 - 1
    years = rng.integers(1, 4, n)
    years[: n // 3] = rng.integers(4, 2**62, n // 3)
    logits = rng.standard_normal((n, num_classes)) * 10.0 ** rng.integers(-40, 31, (n, num_classes))
    preds = predictions(ids, years, rng.integers(0, num_classes, n), logits.astype(np.float32))
    p = rng.dirichlet(np.ones(num_classes), n).astype(np.float32) if posterior else None
    return preds, p


def _objects(preds, posterior):
    """The JSON objects of a split's records."""
    rows = posterior if posterior is not None else [None] * len(preds)
    return [oracles.record_dict(r, p) for r, p in zip(preds, rows)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("posterior", [False, True])
def test_write_predictions_bytes(tmp_path, seed, posterior):
    """The writer's bytes are json.dumps(indent=2, sort_keys=True) of the
    file as one object per record; splits of 0 to 30 records."""
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(1, 9))
    meta = {"variant": "obs", "fold": seed, "seed": 7, "year": "all",
            "classes": ["a", "b"], "nested": {"x": None, "y": 0.5}}
    splits = {name: _random_split(rng, int(rng.integers(0, 31)) if seed else 0,
                                  num_classes, posterior)
              for name in ("val", "test")}
    path = tmp_path / "predictions.json"
    write_predictions(path, meta, splits)
    doc = {"meta": meta, **{name: _objects(*split) for name, split in splits.items()}}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("posterior", [False, True])
def test_read_predictions_round_trip(tmp_path, seed, posterior):
    """`read_predictions` gives back the meta and every column that
    `write_predictions` wrote, bit for bit; splits of 1 to 30 records."""
    rng = np.random.default_rng(100 + seed)
    num_classes = int(rng.integers(1, 9))
    meta = {"fold": seed, "val_fold": seed + 1, "nested": {"x": [1, 2.5]}}
    splits = {name: _random_split(rng, int(rng.integers(1, 31)), num_classes, posterior)
              for name in ("val", "test")}
    path = tmp_path / "predictions.json"
    write_predictions(path, meta, splits)
    got_meta, *got = read_predictions(path)
    assert got_meta == meta
    for back, (preds, _) in zip(got, splits.values()):
        assert back.dtype == preds.dtype
        assert back.tobytes() == preds.tobytes()


def test_write_predictions_non_finite(tmp_path):
    """NaN and infinite logits are written as json.dumps writes them."""
    z = np.array([[np.nan, np.inf, -np.inf, 0.5]], np.float32)
    path = tmp_path / "predictions.json"
    write_predictions(path, {}, {"test": (predictions([5], [1], [3], z), None)})
    doc = {"meta": {}, "test": [{"parcel_id": 5, "year_index": 1, "true_label": 3,
                                 "logits": z[0].tolist()}]}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# each config class, the error its callers load it with, and a valid
# document of it
_LOADED = [
    (SyntheticConfig, ConfigError, {}),
    (ModelDims, DataFormatError, {}),
    (TrainConfig, ConfigError, {}),
    (FoldAssignment, DataFormatError, {"k": 3, "folds": {7: 0, 8: 2}, "block_size": 100.0}),
]


def _wrong_values():
    """(class, error, valid document, field, value) for every field of the
    loaded classes: true, a string, null and, for an integer field, an
    integral float."""
    for cls, error, doc in _LOADED:
        for field in dataclasses.fields(cls):
            values = [True, "1", None]
            if typing.get_type_hints(cls)[field.name] in (int, int | None):
                values.append(2.0)
            for value in values:
                yield pytest.param(cls, error, doc, field.name, value,
                                   id=f"{cls.__name__}-{field.name}-{json.dumps(value)}")


@pytest.mark.parametrize("cls, error, doc, name, value", _wrong_values())
def test_from_json_refuses_a_wrong_value(cls, error, doc, name, value):
    with pytest.raises(error, match=name):
        from_json(cls, {**doc, name: value}, "config", error)


@pytest.mark.parametrize("cls, error, doc", _LOADED, ids=[cls.__name__ for cls, _, _ in _LOADED])
def test_from_json_refuses_unknown_keys_and_non_objects(cls, error, doc):
    assert from_json(cls, doc, "config", error) == cls(**doc)
    with pytest.raises(error, match="unknown keys bogus"):
        from_json(cls, {**doc, "bogus": 1}, "config", error)
    for value in ([doc], None, "x"):
        with pytest.raises(error, match="config is not a JSON object"):
            from_json(cls, value, "config", error)


def test_from_json_makes_lists_tuples():
    doc = {"permanent_classes": [0], "cycles": [[2, 3], [4, 5, 6]], "curve_groups": [],
           "noise_std": 1, "area_size": 500.0}
    cfg = from_json(SyntheticConfig, doc, "config", ConfigError)
    assert cfg == SyntheticConfig(permanent_classes=(0,), cycles=((2, 3), (4, 5, 6)),
                                  curve_groups=(), noise_std=1, area_size=500.0)
    with pytest.raises(ConfigError, match="cycles: 4.0 is not an integer"):
        from_json(SyntheticConfig, {"cycles": [[2, 3, 4.0]]}, "config", ConfigError)
    with pytest.raises(ConfigError, match="cycles: 2 is not a list"):
        from_json(SyntheticConfig, {"cycles": [2, 3]}, "config", ConfigError)


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), 10**400,
                                   -(2**1024)], ids=["inf", "-inf", "nan", "10^400", "-2^1024"])
def test_from_json_refuses_a_float_that_is_not_finite(value):
    with pytest.raises(ConfigError, match="area_size: .* is not a finite float"):
        from_json(SyntheticConfig, {"area_size": value}, "config", ConfigError)
    with pytest.raises(DataFormatError, match="block_size: .* is not a finite float"):
        from_json(FoldAssignment, {"k": 3, "folds": {}, "block_size": value}, "f",
                  DataFormatError)


def test_from_json_keeps_a_float_fields_value_as_given():
    # an integer stays an integer, so the manifest writes it as given
    cfg = from_json(SyntheticConfig, {"area_size": 10**308, "noise_std": 1}, "c", ConfigError)
    assert type(cfg.area_size) is int and cfg.area_size == 10**308
    assert type(cfg.noise_std) is int


def test_from_json_reports_validate_as_the_callers_error():
    # validate() raises ContractError; the loader's caller gets its own class
    with pytest.raises(ConfigError, match="^run config x train: epochs must be >= 1"):
        from_json(TrainConfig, {"epochs": 0}, "run config x train", ConfigError)
    with pytest.raises(DataFormatError, match="^folds file f: missing keys folds"):
        from_json(FoldAssignment, {"k": 3, "block_size": 1.0}, "folds file f", DataFormatError)
    with pytest.raises(DataFormatError, match="parcel 8 has fold 3"):
        from_json(FoldAssignment, {"k": 3, "folds": {8: 3}, "block_size": 1.0}, "f",
                  DataFormatError)
    # an id or a fold that is not an integer, as a JSON key is not
    with pytest.raises(DataFormatError, match='^f: folds: "8" is not an integer$'):
        from_json(FoldAssignment, {"k": 3, "folds": {"8": 1}, "block_size": 1.0}, "f",
                  DataFormatError)
