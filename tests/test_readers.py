"""Fuzzing the three binary readers: a truncated `.rcds`, `RCWT` or `RCTT`
file raises DataFormatError, and one with a single byte changed either
loads or raises DataFormatError, never another exception."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprot.crf import estimate_transitions, load_transitions, save_transitions
from croprot.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from croprot.errors import DataFormatError
from croprot.model import CropModel, load_checkpoint, save_checkpoint

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
