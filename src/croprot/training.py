"""Loss, Adam optimizer, cross-validated training loops, batched inference."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import analytics, autodiff as ad, heads
from .data import draw_keys, sample_pixels
from .encoders import encode_batch
from .errors import ContractError
from .model import CropModel, ModelDims


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    variant: str = "single"
    protocol: str = "mixed"  # "mixed" | "specialized"
    protocol_year: int | None = None  # 1-based, for "specialized"

    def validate(self):
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ContractError("learning rate must be positive")
        if self.protocol not in ("mixed", "specialized"):
            raise ContractError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "specialized" and self.protocol_year is None:
            raise ContractError("specialized protocol needs a year")


@dataclass
class PredictionRecord:
    parcel_id: int
    year_index: int
    logits: np.ndarray
    true_label: int
    posterior: np.ndarray | None = None

    @property
    def predicted(self):
        # np.argmax breaks ties toward the lowest class index
        return int(np.argmax(self.logits))

    @property
    def confidence(self):
        p = self.posterior
        if p is None:
            raise ContractError("record has no calibrated posterior")
        return float(p[self.predicted])

    def to_dict(self):
        d = {
            "parcel_id": self.parcel_id,
            "year_index": self.year_index,
            "logits": [float(v) for v in self.logits],
            "true_label": self.true_label,
        }
        if self.posterior is not None:
            d["posterior"] = [float(v) for v in self.posterior]
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            parcel_id=d["parcel_id"],
            year_index=d["year_index"],
            logits=np.asarray(d["logits"], dtype=np.float32),
            true_label=d["true_label"],
            posterior=(
                np.asarray(d["posterior"], dtype=np.float32)
                if "posterior" in d
                else None
            ),
        )


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
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def optimizer_step(params, grads, state: AdamState, cfg: TrainConfig):
    """One Adam update with bias correction; mutates params and state."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=p.data.dtype)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data = p.data - p.data.dtype.type(cfg.learning_rate) * mhat / (
            np.sqrt(vhat) + ADAM_EPS
        )


# ---------------------------------------------------------------------------
# batched forward


def _batches(items, batch_size, rng=None):
    """Batches of at most `batch_size` (parcel, year) items that share
    their year and their number of dates T, as one encoder batch must,
    bucket by bucket in a fixed (year, T) key order.  With `rng`, each
    bucket is shuffled and then the order of the batches."""
    buckets = defaultdict(list)
    for parcel, year in items:
        buckets[(year, parcel.samples[year - 1].pixels.shape[2])].append((parcel, year))
    batches = []
    for key in sorted(buckets, key=str):
        group = buckets[key]
        if rng is not None:
            group = [group[i] for i in rng.permutation(len(group))]
        batches += [group[i : i + batch_size] for i in range(0, len(group), batch_size)]
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


# first key word of training draws, so that they never share a key with
# inference draws, keyed by (seed, parcel, year)
TRAIN_DRAWS = 0x747261696E  # "train"


def _draw(items, stream, s):
    """Pixel draws of a same-(year, T) chunk, keyed by the words of
    `stream`, then parcel id and year: (items, columns, counts), with the
    rows reordered by distinct count, most first, so the pool reduces each
    run of equal-size segments at once."""
    keys = draw_keys(stream, [p.parcel_id for p, _ in items], [y for _, y in items])
    columns, counts = sample_pixels(keys, [p.samples[y - 1].n_pixels for p, y in items], s)
    order = np.argsort(-np.count_nonzero(counts, axis=1), kind="stable")
    return [items[i] for i in order], columns[order], counts[order]


def _encode(model, items, columns, counts):
    """Descriptor Tensor (B, descriptor) of a same-(year, T) batch drawn
    as `encode_batch` takes it."""
    samples = [p.samples[y - 1] for p, y in items]
    days = np.stack([s.days for s in samples])
    return encode_batch(
        columns, counts, [s.pixels for s in samples], days, model.pse, model.ltae
    )


def _refuse_non_finite(rows, items, what):
    """ContractError naming the first item whose row is not all finite."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        p, y = items[int(np.argmax(bad))]
        raise ContractError(f"non-finite {what} for parcel {p.parcel_id}, year {y}")


def encode_items(model, items, stream, batch_size=256):
    """{(parcel_id, year): descriptor} of the items, each encoded once from
    the pixel draw keyed by (*stream, parcel id, year), each distinct
    column once; a non-finite descriptor is a ContractError.  Callers run
    it outside `ad.recording`, so it records nothing on a tape."""
    unique = list({(p.parcel_id, y): (p, y) for p, y in items}.values())
    out = {}
    for batch in _batches(unique, batch_size):
        batch, columns, counts = _draw(batch, stream, model.dims.sample_pixels)
        e = _encode(model, batch, columns, counts).data
        _refuse_non_finite(e, batch, "descriptor")
        for (p, y), row in zip(batch, e):
            out[(p.parcel_id, y)] = row
    return out


def _past_items(items):
    return [(p, y - back) for p, y in items for back in (1, 2) if y - back >= 1]


def _batch_features(model, items, stream, descriptors=None):
    """Head features of the items: None on "single", the one-hot
    declarations of the two previous years on the dec family, averaged
    past-year descriptors on "obs".

    "obs" looks past years up in `descriptors`; without them it encodes
    the past years with the pixel draws keyed by `stream`.  A past year
    missing from `descriptors` is a ContractError."""
    variant = model.variant
    if variant == "single":
        return None
    if variant == "obs":
        if descriptors is None:
            descriptors = encode_items(model, _past_items(items), stream)
        index = {key: i for i, key in enumerate(descriptors)}
        table = np.array(list(descriptors.values()), np.float32).reshape(-1, model.dims.descriptor)
        past = [[index.get((p.parcel_id, t), -1) for t in range(1, len(p.labels) + 1)]
                for p, _ in items]
    else:
        table = np.eye(model.dims.num_classes, dtype=np.float32)
        past = [p.labels for p, _ in items]
    # two -1 columns for the years before the first: column y holds the
    # row of year y - 1
    grid = np.array([[-1, -1] + row for row in past])
    rows = np.arange(len(items))
    years = np.array([y for _, y in items])
    prev1, prev2 = grid[rows, years], grid[rows, years - 1]
    missing = (prev1 < 0) & (years > 1) | (prev2 < 0) & (years > 2)
    if missing.any():
        p, y = items[int(np.argmax(missing))]
        raise ContractError(f"no past-year input for parcel {p.parcel_id}, year {y}")
    return heads.history_features(variant, prev1, prev2, table)


def batch_logits(model, items, columns, counts, features):
    """Forward pass for a same-year batch, its pixel draws as `encode_batch`
    takes them and its head features; returns the logits Tensor."""
    return heads.decode(_encode(model, items, columns, counts), model.head, features)


# ---------------------------------------------------------------------------
# training


def _training_items(parcels, cfg: TrainConfig, num_years):
    if cfg.protocol == "specialized":
        years = [cfg.protocol_year]
    else:
        years = range(1, num_years + 1)
    return [(p, y) for p in parcels for y in years]


@dataclass
class FoldResult:
    fold: int
    model: CropModel
    test_records: list
    best_epoch: int
    epoch_log: list  # (epoch, mean train loss, val mIoU)


@dataclass
class TrainResult:
    folds: list

    @property
    def test_records(self):
        return [r for f in self.folds for r in f.test_records]


def train_single_split(dataset, train_parcels, val_parcels, cfg, dims, fold=0):
    """Train one model on the given split; selects the best epoch by
    validation mIoU."""
    cfg.validate()
    if not train_parcels:
        raise ContractError("empty training split")
    model = CropModel(dims, cfg.variant, seed=cfg.seed + fold)
    params = model.parameters()
    state = AdamState()
    items = _training_items(train_parcels, cfg, dataset.num_years)
    if not items:
        raise ContractError("no training samples under this protocol")
    best = (-1.0, 0, model.state_arrays())
    epoch_log = []
    for epoch in range(cfg.epochs):
        # the epoch's generator only orders the batches: each pixel draw is
        # keyed by (seed, fold, epoch, parcel, year)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, fold, epoch, 0xE9])
        )
        stream = (TRAIN_DRAWS, cfg.seed, fold, epoch)
        losses = []
        for batch in _batches(items, cfg.batch_size, rng):
            batch, columns, counts = _draw(batch, stream, dims.sample_pixels)
            labels = np.asarray([p.labels[y - 1] for p, y in batch], dtype=np.int64)
            # "obs" encodes past years here, before the tape is attached
            features = _batch_features(model, batch, stream)
            with ad.recording(params) as tape:
                z = batch_logits(model, batch, columns, counts, features)
                loss = cross_entropy(z, labels)
                grads_map = ad.backward(tape, loss, params=params)
            if not np.isfinite(loss.data):
                raise ContractError(
                    f"fold {fold}, epoch {epoch}: non-finite training loss "
                    f"{float(loss.data)}"
                )
            optimizer_step(params, [grads_map[p] for p in params], state, cfg)
            losses.append(float(loss.data))
        if val_parcels:
            val_records = predict(model, val_parcels, seed=cfg.seed)
            miou = analytics.metrics(analytics.confusion(val_records, dims.num_classes))[2]
            if miou > best[0]:
                best = (miou, epoch, model.state_arrays())
        else:
            # no validation split: keep the final epoch
            miou = 0.0
            best = (miou, epoch, model.state_arrays())
        epoch_log.append((epoch, float(np.mean(losses)), miou))
    model.load_state_arrays(best[2])
    return model, best[1], epoch_log


def train(dataset, folds, cfg: TrainConfig, dims: ModelDims, folds_to_run=None):
    """5-fold style rotation: test fold f, validation fold (f+1) % k, train
    on the rest; mixed protocol pools every parcel-year of the train folds."""
    cfg.validate()
    by_fold = defaultdict(list)
    for p in dataset.parcels:
        by_fold[folds.folds[p.parcel_id]].append(p)
    # every requested fold is checked before any is trained
    runs = [(f, folds.val_fold(f))
            for f in (folds_to_run if folds_to_run is not None else range(folds.k))]
    results = []
    for f, val_f in runs:
        train_parcels = [
            p
            for ff in range(folds.k)
            if ff not in (f, val_f)
            for p in by_fold[ff]
        ]
        model, best_epoch, epoch_log = train_single_split(
            dataset, train_parcels, by_fold[val_f], cfg, dims, fold=f
        )
        test_records = predict(model, by_fold[f], seed=cfg.seed)
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


def predict(model, parcels, years=None, seed=0, batch_size=256):
    """One PredictionRecord per requested parcel-year, parcel by parcel and
    each parcel's years in the requested order.  Pixel draws are fixed by
    (seed, parcel, year), so repeated calls are identical and a parcel's
    records do not depend, bit for bit, on the other parcels in the call:
    `batch_size` only cuts the encoder's batches, and the head decodes
    every item in one call, one row independent of the others.

    Label-history variants consume the ground-truth declarations of the
    previous years.  "obs" averages the descriptors of the previous two years,
    encoded with the same keyed draws.  Non-finite descriptors or logits
    are a ContractError."""
    num_years = len(parcels[0].samples) if parcels else 0
    wanted = list(years) if years is not None else list(range(1, num_years + 1))
    items = [(p, y) for p in parcels for y in wanted]
    if not items:
        return []
    needed = items + _past_items(items) if model.variant == "obs" else items
    descriptors = encode_items(model, needed, (seed,), batch_size)
    e = np.stack([descriptors[(p.parcel_id, y)] for p, y in items])
    features = _batch_features(model, items, None, descriptors)
    z = np.asarray(heads.decode(e, model.head, features).data)
    _refuse_non_finite(z, items, "logits")
    return [
        PredictionRecord(
            parcel_id=p.parcel_id,
            year_index=y,
            logits=np.array(logits),
            true_label=p.labels[y - 1],
        )
        for (p, y), logits in zip(items, z)
    ]
