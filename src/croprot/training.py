"""Loss, Adam optimizer, cross-validated training loops, batched inference."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytics, autodiff as ad, heads
from .binio import predictions
from .data import MAX_SEED, as_columns, draw_keys, sample_pixels
from .encoders import encode_batch
from .errors import ConfigError, ContractError
from .model import CropModel, ModelDims


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    variant: str = "single"
    protocol: str = "mixed"  # "mixed" | "specialized"
    protocol_year: int | None = None  # 1-based, for "specialized" only

    def validate(self):
        for name, value, low in (("epochs", self.epochs, 1), ("batch size", self.batch_size, 1),
                                 ("seed", self.seed, 0)):
            if value < low:
                raise ContractError(f"{name} must be >= {low}, got {value}")
        if self.seed > MAX_SEED:
            raise ContractError(f"seed must be <= {MAX_SEED}, got {self.seed}")
        if not self.learning_rate > 0:
            raise ContractError("learning rate must be positive")
        if self.variant not in heads.VARIANTS:
            raise ConfigError(f"unknown head variant {self.variant!r}")
        if self.protocol not in ("mixed", "specialized"):
            raise ContractError(f"unknown protocol {self.protocol!r}")
        if self.protocol_year is not None and self.protocol_year < 1:
            raise ContractError(f"protocol year {self.protocol_year} outside the years >= 1")
        if self.protocol == "specialized" and self.protocol_year is None:
            raise ContractError("specialized protocol needs a year")
        if self.protocol == "mixed" and self.protocol_year is not None:
            raise ContractError(f"protocol year {self.protocol_year} given to the mixed protocol, "
                                "which trains on every year")


# ---------------------------------------------------------------------------
# loss and optimizer


def cross_entropy(z, labels):
    """Mean negative log-likelihood of (B, L) logits and B int labels."""
    t = z if isinstance(z, ad.Tensor) else ad.Tensor(z)
    logp = ad.log_softmax(t, axis=-1)
    return ad.scale(ad.mean_all(ad.pick(logp, np.asarray(labels, dtype=np.int64))), -1.0)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(vector, grad, state: AdamState, cfg: TrainConfig):
    """One Adam update with bias correction of the flat parameter `vector`
    by its flat gradient; updates `vector` in place and mutates state."""
    if state.m is None:
        state.m = np.zeros_like(vector)
        state.v = np.zeros_like(vector)
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g = np.asarray(grad, dtype=vector.dtype)
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    vector -= vector.dtype.type(cfg.learning_rate) * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# batched forward


class _Items(NamedTuple):
    """The (parcel, year) items of `data.Columns` as arrays, one per sample
    of its (P, Y) grid, built once per call by `of_columns` and sliced per
    batch: item r is parcel r // Y, year r % Y + 1.  Parcel ids, years,
    labels, pixel counts, dates T, pixel sets, days padded to the longest
    T, and `past`, the (items, 2) rows r - 1 and r - 2 of each item's years
    i-1 and i-2, -1 before year 1."""

    ids: np.ndarray
    years: np.ndarray
    labels: np.ndarray
    n_pixels: np.ndarray
    ts: np.ndarray
    pixels: np.ndarray
    days: np.ndarray
    past: np.ndarray

    @classmethod
    def of_columns(cls, columns):
        """The _Items of every sample of the columns, each item's days and
        pixels read through `sample_arrays`."""
        num_parcels, num_years = columns.ts.shape
        ts = columns.ts.ravel()
        sample_days, pixels = columns.sample_arrays()
        days = np.zeros((ts.size, ts.max(initial=0)), dtype=np.int64)
        days[np.arange(days.shape[1]) < ts[:, None]] = np.concatenate(
            [np.empty(0, np.int64), *sample_days.ravel()])
        years = np.tile(np.arange(1, num_years + 1), num_parcels)
        back = np.arange(1, 3)
        past = np.where(years[:, None] > back, np.arange(ts.size)[:, None] - back, -1)
        return cls(np.repeat(columns.ids, num_years), years, columns.labels.ravel(),
                   columns.n_pixels.ravel(), ts, pixels.ravel(), days, past)

    def take(self, rows):
        """The items at `rows`, an index array."""
        return _Items._make(column[rows] for column in self)


def _batches(items, rows, batch_size, rng=None):
    """Row arrays of batches of at most `batch_size` of the `rows` of the
    _Items `items` that share their year and their number of dates T, as
    one encoder batch must, bucket by bucket in a fixed (year, T) key
    order.  With `rng`, each bucket is shuffled and then the order of the
    batches."""
    batches = []
    years, ts = items.years[rows], items.ts[rows]
    for year, t in sorted(set(zip(years.tolist(), ts.tolist())), key=str):
        group = rows[(years == year) & (ts == t)]
        if rng is not None:
            group = group[rng.permutation(len(group))]
        batches += [group[i : i + batch_size] for i in range(0, len(group), batch_size)]
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


# first key word of training draws, so that they never share a key with
# inference draws, keyed by (seed, parcel, year)
TRAIN_DRAWS = 0x747261696E  # "train"


def _draw(items, stream, s):
    """(columns, counts) of the pixel draws of all the _Items, as
    `sample_pixels` gives them, keyed by the words of `stream`, then
    parcel id and year.  A row depends on its key, pixel count and S
    alone, so one call serves every batch of an epoch or of an inference
    call."""
    return sample_pixels(draw_keys(stream, items.ids, items.years), items.n_pixels, s)


def _by_distinct(counts, rows):
    """The batch `rows` reordered by their number of distinct drawn
    columns, most first, stable, so the pool reduces each run of
    equal-size segments at once."""
    return rows[np.argsort(-np.count_nonzero(counts[rows], axis=1), kind="stable")]


def _encode(model, items, columns, counts):
    """Descriptor Tensor (B, descriptor) of a same-(year, T) batch of
    _Items drawn as `encode_batch` takes it."""
    days = items.days[:, : items.ts.max(initial=0)]
    return encode_batch(columns, counts, items.pixels, days, model.pse, model.ltae)


def _refuse_non_finite(rows, items, what):
    """ContractError naming the first item whose row is not all finite."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"non-finite {what} for parcel {items.ids[i]}, year {items.years[i]}")


def _descriptors(model, items, columns, counts):
    """(items, descriptor) array of the _Items, each encoded from its row
    of the (columns, counts) pixel draws, each distinct column once, in
    batches of at most ENCODE_BATCH; a non-finite descriptor is a
    ContractError."""
    out = np.empty((items.ids.size, model.dims.descriptor), dtype=model.vector.dtype)
    for rows in _batches(items, np.arange(items.ids.size), ENCODE_BATCH):
        rows = _by_distinct(counts, rows)
        batch = items.take(rows)
        e = _encode(model, batch, columns[rows], counts[rows]).data
        _refuse_non_finite(e, batch, "descriptor")
        out[rows] = e
    return out


# encoder batch of inference and of "obs" past years
ENCODE_BATCH = 256


def encode_items(model, items, stream):
    """Descriptors of the _Items, each encoded once from the pixel draw
    keyed by (*stream, parcel id, year).  Run outside `ad.recording`, it
    records nothing on a tape."""
    columns, counts = _draw(items, stream, model.dims.sample_pixels)
    return _descriptors(model, items, columns, counts)


def _features(model, items, prev, descriptors=None):
    """Head features of a batch whose years i-1 and i-2 are at the (B, 2)
    rows `prev`, -1 before year 1: None on "single", the one-hot labels
    of those rows of the _Items on the dec family, the average of those
    rows of the `descriptors` array on "obs"."""
    if model.variant == "single":
        return None
    if model.variant == "obs":
        table = descriptors
    else:
        prev = np.append(items.labels, -1)[prev]
        table = np.eye(model.dims.num_classes, dtype=np.float32)
    return heads.history_features(model.variant, prev[:, 0], prev[:, 1], table)


def batch_logits(model, items, columns, counts, features):
    """Forward pass for a same-year batch of _Items, its pixel draws as
    `encode_batch` takes them and its head features; returns the logits
    Tensor."""
    return heads.decode(_encode(model, items, columns, counts), model.head, features)


# ---------------------------------------------------------------------------
# training


def _training_years(cfg: TrainConfig, num_years):
    """The years each training parcel is trained on."""
    if cfg.protocol == "specialized":
        if not 1 <= cfg.protocol_year <= num_years:
            raise ContractError(
                f"protocol year {cfg.protocol_year} outside the dataset's years [1, {num_years}]"
            )
        return [cfg.protocol_year]
    return range(1, num_years + 1)


@dataclass
class FoldResult:
    fold: int
    model: CropModel
    test_records: np.recarray  # `binio.predictions` of the test fold
    best_epoch: int
    epoch_log: list  # (epoch, mean train loss, val mIoU)


@dataclass
class TrainResult:
    folds: list

    @property
    def test_records(self):
        return np.concatenate([f.test_records for f in self.folds]).view(np.recarray)


def train_single_split(dataset, train_parcels, val_parcels, cfg, dims, fold=0):
    """Train one model on the given split, each part a list of parcels or
    `data.Columns`; selects the best epoch by validation mIoU."""
    cfg.validate()
    train_columns, val = as_columns(train_parcels), as_columns(val_parcels)
    items = _Items.of_columns(train_columns)
    trained = np.flatnonzero(np.isin(items.years, _training_years(cfg, dataset.num_years)))
    if not trained.size:
        raise ContractError("no training samples: an empty split or a dataset of no years")
    model = CropModel(dims, cfg.variant, seed=cfg.seed + fold)
    params = model.parameters()
    state = AdamState()
    # the best epoch's weights: a copy, as the vector is updated in place
    best = (-1.0, 0, model.vector.copy())
    epoch_log = []
    for epoch in range(cfg.epochs):
        # the epoch's generator only orders the batches: each pixel draw is
        # keyed by (seed, fold, epoch, parcel, year)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, fold, epoch, 0xE9])
        )
        stream = (TRAIN_DRAWS, cfg.seed, fold, epoch)
        columns, counts = _draw(items, stream, dims.sample_pixels)
        losses = []
        for rows in _batches(items, trained, cfg.batch_size, rng):
            rows = _by_distinct(counts, rows)
            batch = items.take(rows)
            prev, descriptors = items.past[rows], None
            if cfg.variant == "obs":
                # the batch's past years, each encoded once before the tape
                # is attached, and their rows among them
                needed = np.unique(prev[prev >= 0])
                descriptors = _descriptors(model, items.take(needed), columns[needed],
                                           counts[needed])
                prev = np.where(prev >= 0, np.searchsorted(needed, prev), -1)
            features = _features(model, items, prev, descriptors)
            with ad.recording(params) as tape:
                z = batch_logits(model, batch, columns[rows], counts[rows], features)
                loss = cross_entropy(z, batch.labels)
                grads = ad.backward(tape, loss, params=params)
            # the tape and the step's activations reference each other:
            # free them now, not at the next cyclic garbage collection
            tape.ops.clear()
            if not np.isfinite(loss.data):
                raise ContractError(
                    f"fold {fold}, epoch {epoch}: non-finite training loss "
                    f"{float(loss.data)}"
                )
            grad = np.concatenate([grads[p].reshape(-1) for p in params])
            optimizer_step(model.vector, grad, state, cfg)
            losses.append(float(loss.data))
        if len(val):
            val_records = predict(model, val, seed=cfg.seed)
            miou = analytics.metrics(analytics.confusion(val_records, dims.num_classes))[2]
            if miou > best[0]:
                best = (miou, epoch, model.vector.copy())
        else:
            # no validation split: keep the final epoch
            miou = 0.0
            best = (miou, epoch, model.vector.copy())
        epoch_log.append((epoch, float(np.mean(losses)), miou))
    model.vector[:] = best[2]
    return model, best[1], epoch_log


def train(dataset, folds, cfg: TrainConfig, dims: ModelDims, folds_to_run=None):
    """5-fold style rotation: test fold f, validation fold (f+1) % k, train
    on the rest; mixed protocol pools every parcel-year of the train folds."""
    cfg.validate()
    columns = dataset.columns
    ids = columns.ids.tolist()
    # every requested fold is checked before any is trained
    runs = [(f, [columns.take(rows) for rows in folds.split_rows(ids, f)])
            for f in (folds_to_run if folds_to_run is not None else range(folds.k))]
    results = []
    for f, (train_columns, val_columns, test_columns) in runs:
        model, best_epoch, epoch_log = train_single_split(
            dataset, train_columns, val_columns, cfg, dims, fold=f
        )
        test_records = predict(model, test_columns, seed=cfg.seed)
        results.append(
            FoldResult(
                fold=f,
                model=model,
                test_records=test_records,
                best_epoch=best_epoch,
                epoch_log=epoch_log,
            )
        )
    return TrainResult(folds=results)


# ---------------------------------------------------------------------------
# inference


def predict(model, parcels, seed=0):
    """The `binio.predictions` array of every parcel-year, one row each,
    parcel by parcel and year by year.  Pixel draws are fixed by (seed,
    parcel, year), so repeated calls are identical and a parcel's rows do
    not depend, bit for bit, on the other parcels in the call:
    ENCODE_BATCH only cuts the encoder's batches, and the head decodes
    every item in one call, one row independent of the others.

    Label-history variants consume the ground-truth declarations of the
    previous years.  "obs" averages the descriptors of the previous two years,
    encoded with the same keyed draws.  Non-finite descriptors or logits
    are a ContractError.  `parcels` is a list of parcels or a
    `data.Columns`, whose items are slices of its columns."""
    items = _Items.of_columns(as_columns(parcels))
    table = encode_items(model, items, (seed,))
    features = _features(model, items, items.past, table)
    z = np.asarray(heads.decode(table, model.head, features).data)
    _refuse_non_finite(z, items, "logits")
    return predictions(items.ids, items.years, items.labels, z)
