"""Fuzzing the three binary readers: a truncated `.rcds`, `RCWT` or `RCTT`
file raises DataFormatError, and one with a single byte changed either
loads or raises DataFormatError, never another exception.  The JSON reader
and writers: `write_json`'s exact bytes, `read_json`'s refusals, and the
predictions-file writer's bytes against `json.dumps` of one object per
record."""

import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprot.binio import read_json, write_json, write_predictions
from croprot.crf import estimate_transitions, load_transitions, save_transitions
from croprot.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from croprot.errors import ConfigError, CropRotError, DataFormatError
from croprot.model import CropModel, load_checkpoint, save_checkpoint
from croprot.training import PredictionRecord

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


def _random_records(rng, n, num_classes, posterior):
    """`n` records with ids up to 2**64 - 1 and float32 logits from 1e-40
    to 1e30 in size."""
    ids = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    ids[: n // 3] = 2**64 - 1
    logits = rng.standard_normal((n, num_classes)) * 10.0 ** rng.integers(-40, 31, (n, num_classes))
    posteriors = rng.dirichlet(np.ones(num_classes), n).astype(np.float32)
    return [PredictionRecord(int(pid), int(rng.integers(1, 4)), z, int(rng.integers(num_classes)),
                             posterior=p if posterior else None)
            for pid, z, p in zip(ids.tolist(), logits.astype(np.float32), posteriors)]


def _columns(records, num_classes):
    if not records:
        return (np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.int64),
                np.zeros((0, num_classes), np.float32), None)
    posterior = None
    if records[0].posterior is not None:
        posterior = np.stack([r.posterior for r in records])
    return (np.array([r.parcel_id for r in records], np.uint64),
            np.array([r.year_index for r in records]),
            np.array([r.true_label for r in records]),
            np.stack([r.logits for r in records]), posterior)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("posterior", [False, True])
def test_write_predictions_bytes(tmp_path, seed, posterior):
    """The writer's bytes are json.dumps(indent=2, sort_keys=True) of the
    file as one object per record; splits of 0 to 30 records."""
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(1, 9))
    meta = {"variant": "obs", "fold": seed, "seed": 7, "year": "all",
            "classes": ["a", "b"], "nested": {"x": None, "y": 0.5}}
    splits = {name: _random_records(rng, int(rng.integers(0, 31)) if seed else 0,
                                    num_classes, posterior)
              for name in ("val", "test")}
    path = tmp_path / "predictions.json"
    write_predictions(path, meta, {name: _columns(records, num_classes)
                                   for name, records in splits.items()})
    doc = {"meta": meta, **{name: [oracles.record_dict(r) for r in records]
                            for name, records in splits.items()}}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_write_predictions_non_finite_and_object_ids(tmp_path):
    """NaN and infinite logits are written as json.dumps writes them, and
    integer columns may be object arrays of ids outside the uint64 range."""
    z = np.array([[np.nan, np.inf, -np.inf, 0.5]], np.float32)
    ids = np.array([-(2**70)], dtype=object)
    path = tmp_path / "predictions.json"
    write_predictions(path, {}, {"test": (ids, np.array([1]), np.array([3]), z, None)})
    doc = {"meta": {}, "test": [{"parcel_id": -(2**70), "year_index": 1, "true_label": 3,
                                 "logits": z[0].tolist()}]}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
