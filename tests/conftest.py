import struct

import numpy as np
import pytest
from hypothesis import settings

from croprot.data import Dataset, SyntheticConfig, generate_synthetic
from croprot.encoders import encode_batch
from croprot.model import CropModel, ModelDims
from croprot.training import _features, encode_items

import oracles


# Property tests draw the same examples on every run; a test's own
# @settings still override these.
settings.register_profile("croprot", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("croprot")


def encode_pairs(model, pairs, stream, batch_size=256):
    """(the _Items of the (parcel, year) pairs, as `oracles.items_of`
    builds them, the row of each pair in them, their `encode_items`
    descriptors)."""
    items, rows = oracles.items_of(pairs)
    return items, rows, encode_items(model, items, rows, stream, batch_size)


def descriptors_of(model, items, stream, batch_size=256):
    """{(parcel_id, year): descriptor} of the rows one `encode_items` call
    encodes for the (parcel, year) items."""
    encoded, _, table = encode_pairs(model, items, stream, batch_size)
    return dict(zip(zip(encoded.ids.tolist(), encoded.years.tolist()), table))


def features_of(model, items, stream=(7,)):
    """Head features of the (parcel, year) items, read from the rows of one
    `encode_items` call as `predict` reads them."""
    encoded, rows, table = encode_pairs(model, items, stream)
    return _features(model, encoded, encoded.past[rows], table)


def tiny_dims(num_classes=4, variant_descriptor=8):
    return ModelDims(
        channels=3,
        sample_pixels=4,
        d1=4,
        d2=8,
        heads=2,
        d_k=4,
        out_hidden=8,
        descriptor=variant_descriptor,
        num_classes=num_classes,
        head_hidden=6,
    )


def small_dims(num_classes=8):
    return ModelDims(
        channels=4,
        sample_pixels=8,
        d1=16,
        d2=32,
        heads=4,
        d_k=8,
        out_hidden=32,
        descriptor=32,
        num_classes=num_classes,
        head_hidden=32,
    )


def encode_drawn(pixels, days, pse, ltae):
    """`encode_batch` of already-drawn pixels (B, C, S, T): item b's pixel
    set is pixels[b], every column drawn once, in order.  days is (B, T),
    or (T,) for dates shared by every item."""
    b, _, s, t = pixels.shape
    columns = np.tile(np.arange(s), (b, 1))
    days = np.broadcast_to(days, (b, t))
    return encode_batch(columns, np.ones_like(columns), list(pixels), days, pse, ltae)


def expand_draws(columns, counts):
    """(B, S) draws of `sample_pixels` output: each column repeated its
    count times, in the order listed."""
    return np.stack([np.repeat(c, n) for c, n in zip(columns, counts)])


def assert_parameter_views(model):
    """Every parameter's data is a view of `model.vector`, in parameter
    order, and together they cover the vector."""
    start = 0
    for p in model.parameters():
        assert p.data.base is model.vector
        assert p.data.ctypes.data == model.vector.ctypes.data + start * model.vector.itemsize
        start += p.data.size
    assert start == model.vector.size


def one_sample_file(days=(10, 20, 30, 40), pixels=None, label=0):
    """Bytes of a hand-written one-parcel, one-year, one-channel, 3-class
    .rcds file with a single pixel."""
    pixels = np.zeros(len(days)) if pixels is None else pixels
    raw = b"RCDS" + struct.pack("<IIBHH", 1, 1, 1, 1, 3)
    raw += struct.pack("<Qdd", 0, 10.0, 20.0)
    raw += struct.pack("<H", len(days)) + np.array(days, dtype="<u2").tobytes()
    raw += struct.pack("<I", 1) + np.asarray(pixels, dtype="<f4").tobytes()
    return raw + struct.pack("<H", label)


def without_dates(raw):
    """The bytes of the `.rcds` file `raw` with its first sample record
    (parcel 0's year 1) cut to T = 0 dates, its pixel count and label kept."""
    at = 4 + struct.calcsize("<IIBHH") + struct.calcsize("<Qdd")
    channels = struct.unpack_from("<H", raw, 13)[0]
    (t,) = struct.unpack_from("<H", raw, at)
    (n_p,) = struct.unpack_from("<I", raw, at + 2 + 2 * t)
    end = at + 8 + 2 * t + 4 * channels * n_p * t
    return raw[:at] + struct.pack("<HI", 0, n_p) + raw[end - 2:]


@pytest.fixture(scope="session")
def small_dataset():
    cfg = SyntheticConfig(parcels=60, seed=7)
    return Dataset(parcels=generate_synthetic(cfg), num_classes=cfg.num_classes), cfg


@pytest.fixture
def tiny_model():
    return CropModel(tiny_dims(), "single", seed=2)
