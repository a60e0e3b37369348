import numpy as np
import pytest
from hypothesis import settings

from croprot import data
from croprot.data import (
    Dataset, MultiYearParcel, PixelSetSample, SyntheticConfig, generate_synthetic,
)
from croprot.encoders import encode_batch
from croprot.model import CropModel, ModelDims
from croprot.training import _features, encode_items

import oracles


# Property tests draw the same examples on every run; a test's own
# @settings still override these.
settings.register_profile("croprot", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("croprot")


def encode_pairs(model, pairs, stream):
    """(the _Items of the distinct (parcel, year) pairs, as
    `oracles.items_of` builds them, the pairs first, and their
    `encode_items` descriptors)."""
    items = oracles.items_of(pairs)
    return items, encode_items(model, items, len(pairs), stream)


def descriptors_of(model, items, stream):
    """{(parcel_id, year): descriptor} of the rows one `encode_items` call
    encodes for the (parcel, year) items."""
    encoded, table = encode_pairs(model, items, stream)
    return dict(zip(zip(encoded.ids.tolist(), encoded.years.tolist()), table))


def features_of(model, items, stream=(7,)):
    """Head features of the (parcel, year) items, read from the rows of one
    `encode_items` call as `predict` reads them."""
    encoded, table = encode_pairs(model, items, stream)
    return _features(model, encoded, encoded.past[:len(items)], table)


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


def one_sample_parcel(days=(10, 20, 30, 40), pixels=None, label=0):
    """A one-year, one-channel parcel 0 at (10, 20) with a single pixel,
    whose values are `pixels` (zeros by default), one per date."""
    pixels = np.zeros(len(days)) if pixels is None else pixels
    sample = PixelSetSample(0, 1, np.asarray(pixels, np.float32).reshape(1, 1, -1),
                            np.array(days), label)
    return MultiYearParcel(0, (10.0, 20.0), [sample])


def one_sample_file(**kwargs):
    """Bytes of a hand-written 3-class .rcds file of one `one_sample_parcel`."""
    return oracles.encode_rcds([one_sample_parcel(**kwargs)], 3)


def without_dates(path):
    """The bytes of the `.rcds` file `path` with parcel 0's year-1 sample
    cut to T = 0 dates, its pixel count and label kept."""
    dataset = oracles.load_dataset(path)
    s = dataset.parcels[0].samples[0]
    s.days, s.pixels = s.days[:0], s.pixels[:, :, :0]
    return oracles.encode_rcds(dataset.parcels, dataset.num_classes)


@pytest.fixture(scope="session")
def small_dataset():
    """(Dataset, generator config, the dataset's parcel list) of 60
    synthetic parcels."""
    cfg = SyntheticConfig(parcels=60, seed=7)
    parcels = generate_synthetic(cfg)
    return Dataset(parcels=parcels, num_classes=cfg.num_classes), cfg, parcels


@pytest.fixture
def tiny_model():
    return CropModel(tiny_dims(), "single", seed=2)


@pytest.fixture
def views_built(monkeypatch):
    """The number of sample views each `data._views` call builds, call by
    call."""
    built = []
    views = data._views
    monkeypatch.setattr(data, "_views", lambda column, starts, shapes: (
        built.append(starts.size) or views(column, starts, shapes)))
    return built
