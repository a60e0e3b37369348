"""Pixel-set dataset format, synthetic multi-year generator, spatial folds.

The generator produces multi-year parcels whose labels follow a Markov
rotation kernel with three behaviours (permanent, cyclic, near-uniform)
and whose pixel values follow per-class double-logistic phenology curves
plus a per-year global shift and i.i.d. noise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import operator
import os
import re
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .binio import Reader, from_json, json_text, read_json, write_json, write_text
from .errors import ConfigError, ContractError, DataFormatError

MAGIC = b"RCDS"
FORMAT_VERSION = 2


@dataclass
class PixelSetSample:
    """One parcel-year time series: pixels is (C, N_p, T) float32."""

    parcel_id: int
    year_index: int  # 1-based
    pixels: np.ndarray
    days: np.ndarray  # (T,) day-of-year, strictly increasing
    label: int

    @property
    def n_pixels(self):
        return self.pixels.shape[1]


@dataclass
class MultiYearParcel:
    parcel_id: int
    centroid: tuple  # (x, y) in meters
    samples: list  # one PixelSetSample per year, year_index 1..I

    @property
    def labels(self):
        return [s.label for s in self.samples]


def _starts(sizes):
    """Where each of the int64 `sizes`, laid end to end, starts."""
    return np.cumsum(sizes) - sizes


def _views(column, starts, shapes):
    """Object array, shaped as `starts`, of the views of `column` of each
    of `shapes` from each of `starts`."""
    return np.fromiter((column[s:s + math.prod(shape)].reshape(shape) for s, shape in zip(
        starts.ravel().tolist(), shapes)), object, starts.size).reshape(starts.shape)


_NDIM, _DTYPE = operator.attrgetter("ndim"), operator.attrgetter("dtype")


def _integer_days(days):
    return isinstance(days, np.ndarray) and days.ndim == 1 and days.dtype.kind in "iu"


def _is_integer_below(x, end):
    """Whether `x` is an integer in [0, end); a bool is none."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < end


def _is_point(centroid):
    """Whether `centroid` is two numbers."""
    with contextlib.suppress(TypeError, ValueError):
        return np.asarray(centroid, np.float64).shape == (2,)
    return False


def _first_repeat(values):
    """The first position of the array `values` whose value an earlier
    position holds, or None when they are distinct."""
    order = np.argsort(values, kind="stable")
    # a stable sort puts each value's later positions after its first
    again = order[1:][values[order[1:]] == values[order[:-1]]]
    return int(again.min()) if again.size else None


@dataclass(eq=False)
class Columns:
    """P parcels of Y years as arrays.  Per parcel: `ids` (P,) uint64, each
    id once, and `centroids` (P, 2) float64.  Per sample, as (P, Y)
    arrays: its int64 `labels`, `ts` (dates T) and `n_pixels` (N_p), and
    its starts in the `days` and `pixels` stores, whose samples have
    `channels` channels.

    A store is what the input already is.  Columns that `load_dataset`
    gives hold the file's int64 day and float32 pixel columns, and a
    start is an element offset in them; columns that `of` gives hold 1-D
    object arrays of each sample's own (T,) day and (C, N_p, T) pixel
    arrays, and a start is a position in them.  `sample_arrays` reads
    samples from either; `take` selects parcels and shares the stores."""

    ids: np.ndarray
    centroids: np.ndarray
    labels: np.ndarray
    ts: np.ndarray
    n_pixels: np.ndarray
    days: np.ndarray
    pixels: np.ndarray
    day_starts: np.ndarray
    pixel_starts: np.ndarray
    channels: int

    @classmethod
    def of(cls, parcels):
        """The columns of a list of parcels, one row per entry, sharing
        their samples' day and pixel arrays.  An id that is not an integer
        in [0, 2^64) (a bool is none) or that an earlier entry has, a
        centroid that is not two numbers, a parcel with another year count
        than the first, and a sample whose pixels are not (C, N_p >= 1, T)
        with the first sample's C, whose days are not a (T,) integer array,
        or whose label is not an integer in [0, 2^63) are a ContractError
        naming the parcel and the year."""
        ids = [p.parcel_id for p in parcels]
        bad = [pid for pid in ids if not _is_integer_below(pid, 2**64)]
        if bad:
            raise ContractError(f"parcel id {bad[0]!r} outside the integers in [0, 2^64)")
        ids = np.fromiter(ids, np.uint64, len(ids))
        i = _first_repeat(ids)
        if i is not None:
            raise ContractError(f"parcel {ids[i]}: id appears more than once")
        try:
            centroids = np.array([p.centroid for p in parcels], np.float64)
        except (TypeError, ValueError):  # ragged, or not numbers
            centroids = None
        if centroids is None or (len(parcels) and centroids.shape != (len(parcels), 2)):
            p = next(q for q in parcels if not _is_point(q.centroid))
            raise ContractError(f"parcel {p.parcel_id}: centroid {p.centroid!r}; need two numbers")
        years = len(parcels[0].samples) if parcels else 0
        samples = []
        for p in parcels:
            if len(p.samples) != years:
                raise ContractError(
                    f"parcel {p.parcel_id}, year {min(len(p.samples), years) + 1}: the parcel "
                    f"has {len(p.samples)} years where parcel {parcels[0].parcel_id} has {years}")
            samples += p.samples
        n = len(samples)

        def refuse(j, what):
            raise ContractError(f"parcel {parcels[j // years].parcel_id}, year {j % years + 1}: "
                                f"{what}")

        days, pixels = [s.days for s in samples], [s.pixels for s in samples]
        labels, shapes = [s.label for s in samples], [a.shape for a in pixels]
        # the checks map builtins over these lists; a Python loop runs only
        # to name the sample that fails one
        if set(map(len, shapes)) - {3}:
            j = next(k for k, s in enumerate(shapes) if len(s) != 3)
            refuse(j, f"pixels of shape {shapes[j]}; need (C, N_p, T)")
        try:
            integer = (set(map(_NDIM, days)) <= {1}
                       and all(t.kind in "iu" for t in set(map(_DTYPE, days))))
        except AttributeError:  # days that are not an array
            integer = False
        if not integer:
            j = next(k for k, d in enumerate(days) if not _integer_days(d))
            d = np.asarray(days[j])
            refuse(j, f"{d.dtype} days of shape {d.shape}; need a (T,) integer array")
        sizes = np.fromiter(itertools.chain.from_iterable(shapes), np.int64, 3 * n).reshape(n, 3)
        ts = np.fromiter(map(len, days), np.int64, n)
        bad = (sizes[:, 0] != sizes[:1, 0]) | (sizes[:, 1] < 1) | (sizes[:, 2] != ts)
        if bad.any():
            j = int(np.argmax(bad))
            refuse(j, f"pixels {pixels[j].shape} and {ts[j]} dates; need {sizes[0, 0]} "
                      "channels, as the first sample has, a pixel or more and one date per "
                      "timestep")
        label_column = None
        if all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, labels))):
            with contextlib.suppress(OverflowError):  # beyond int64
                label_column = np.fromiter(labels, np.int64, n)
        if label_column is None or label_column.min(initial=0) < 0:
            j = next(k for k, x in enumerate(labels) if not _is_integer_below(x, 2**63))
            refuse(j, f"label {labels[j]!r}; need an integer in [0, 2^63)")
        shape = (len(parcels), years)
        positions = np.arange(n).reshape(shape)
        return cls(
            ids, centroids.reshape(-1, 2),
            label_column.reshape(shape), ts.reshape(shape), sizes[:, 1].reshape(shape),
            # fromiter keeps each array whole where np.array would stack
            # arrays of one shape into a block
            np.fromiter(days, object, n), np.fromiter(pixels, object, n), positions, positions,
            int(sizes[0, 0]) if n else 0,
        )

    def __len__(self):
        return len(self.ids)

    @property
    def num_years(self):
        return self.labels.shape[1] if len(self.ids) else 0

    @property
    def num_channels(self):
        return self.channels if self.ts.size else 0

    def sample_arrays(self):
        """(days, pixels) of every sample: (P, Y) object arrays of their
        (T,) days and (C, N_p, T) pixels, the samples' own arrays from an
        object store and views built now from a numeric one."""
        if self.days.dtype == object:
            return self.days[self.day_starts], self.pixels[self.pixel_starts]
        ts, c = self.ts.ravel().tolist(), self.channels
        return (_views(self.days, self.day_starts, [(t,) for t in ts]),
                _views(self.pixels, self.pixel_starts,
                       [(c, n, t) for n, t in zip(self.n_pixels.ravel().tolist(), ts)]))

    def take(self, rows):
        """The columns of the parcels at `rows`, an index array of distinct
        rows, sharing the stores; a row given twice is a ContractError
        naming its parcel."""
        ids = self.ids[rows]
        # the ids are distinct, so a repeated id is a repeated row, also
        # where a negative index and a positive one name the same row
        i = _first_repeat(ids)
        if i is not None:
            raise ContractError(f"parcel {ids[i]}: row given more than once")
        return dataclasses.replace(self, ids=ids, **{name: getattr(self, name)[rows] for name in (
            "centroids", "labels", "ts", "n_pixels", "day_starts", "pixel_starts")})


def as_columns(parcels_or_columns):
    """`Columns` as they are, and a list of parcels as `Columns.of` gives
    its columns."""
    if isinstance(parcels_or_columns, Columns):
        return parcels_or_columns
    return Columns.of(parcels_or_columns)


class Dataset:
    """Parcels with one sample per year and the dataset's class count, held
    as `Columns`.  `Dataset(parcels=...)` builds them from its list of
    parcels with `Columns.of` when first asked for."""

    def __init__(self, parcels, num_classes, manifest=None, columns=None):
        self._parcels, self._columns = parcels, columns
        self.num_classes = num_classes
        self.manifest = manifest

    @property
    def columns(self):
        if self._columns is None:
            self._columns = Columns.of(self._parcels)
        return self._columns

    # a held parcel list answers this without building its columns, which
    # takes a Python pass over every sample
    @property
    def num_years(self):
        if self._columns is not None:
            return self._columns.num_years
        return len(self._parcels[0].samples) if self._parcels else 0

    @property
    def num_channels(self):
        return self.columns.num_channels


@dataclass
class FoldAssignment:
    k: int
    folds: dict[int, int]  # parcel_id -> fold index
    block_size: float

    def validate(self):
        if self.k < 2:
            raise ContractError(f"k must be >= 2, got {self.k}")
        if not 0 < self.block_size < math.inf:
            raise ContractError(f"block_size must be positive and finite, got {self.block_size}")
        # whole-list checks of the ids and folds; a Python loop runs only
        # to name the entry that fails one
        folds = list(self.folds.values())
        if not all(issubclass(t, (int, np.integer)) and t is not bool
                   for t in set(map(type, itertools.chain(self.folds, folds)))):
            f = next(f for f in itertools.chain(self.folds, folds)
                     if isinstance(f, bool) or not isinstance(f, (int, np.integer)))
            raise ContractError(f"folds: {json.dumps(f, default=repr)} is not an integer")
        if folds and not (min(folds) >= 0 and max(folds) < self.k):
            pid, f = next((pid, f) for pid, f in self.folds.items() if not 0 <= f < self.k)
            raise ContractError(f"parcel {pid} has fold {f}, not one in [0, {self.k})")

    def val_fold(self, fold):
        """The validation fold paired with test fold `fold`: the next one,
        cyclically.  A fold outside [0, k) is a ContractError."""
        if not 0 <= fold < self.k:
            raise ContractError(f"fold {fold} outside [0, {self.k})")
        return (fold + 1) % self.k

    def split_rows(self, ids, fold):
        """(train, val, test) index arrays into `ids`, a list of parcel ids
        that each have a fold: val is fold `val_fold(fold)`, train every
        other fold in fold order, each fold's rows in increasing order.  A
        fold outside [0, k) is a ContractError."""
        val = self.val_fold(fold)
        of = np.fromiter(map(self.folds.__getitem__, ids), np.int64, len(ids))
        train = np.argsort(of, kind="stable")
        train = train[(of[train] != fold) & (of[train] != val)]
        return train, np.flatnonzero(of == val), np.flatnonzero(of == fold)


# a folds-file key: the decimal text of a parcel id, as `str(pid)` writes it
_ID_TEXT = re.compile("0|[1-9][0-9]{0,19}")


def save_folds(path, folds):
    """Write the fold assignment `folds` to the JSON folds file `path`."""
    write_json(path, {"k": folds.k, "block_size": folds.block_size,
                      "folds": {str(pid): f for pid, f in folds.folds.items()}})


def load_folds(path, ids):
    """The fold assignment in the folds file `path`; it must give each of
    the parcel ids `ids` a fold.  A key that is not the decimal text of an
    id in [0, 2^64) is a DataFormatError."""
    doc = read_json(path, "folds file")
    folds = doc.get("folds")
    if type(folds) is dict:
        keys = list(folds)
        try:
            pids = list(map(int, keys))
        except ValueError:
            pids = None
        # int() also reads signs, spaces, underscores and non-ASCII digits;
        # a key is an id's text when str() gives it back
        if pids is None or list(map(str, pids)) != keys or (
                pids and not (min(pids) >= 0 and max(pids) < 2**64)):
            key = next(key for key in keys if not (_ID_TEXT.fullmatch(key) and int(key) < 2**64))
            raise DataFormatError(f"folds file {path}: key {key!r} is not a parcel id")
        doc["folds"] = dict(zip(pids, folds.values()))
    folds = from_json(FoldAssignment, doc, f"folds file {path}", DataFormatError)
    ids = np.asarray(ids, np.uint64)
    missing = ids[~np.isin(ids, np.fromiter(folds.folds, np.uint64, len(folds.folds)))]
    if missing.size:
        raise DataFormatError(
            f"folds file {path} assigns no fold to {len(missing)} dataset "
            f"parcel(s), first {missing[0]}"
        )
    return folds


# ---------------------------------------------------------------------------
# synthetic generation


# the largest seed: `draw_keys` takes each word of a stream modulo 2^64,
# so a larger seed would draw the pixels of a smaller one
MAX_SEED = 2**64 - 1

# the most dates `_acquisition_days` always places in [1, 366]: the first
# can fall on day 19, and each later date at least one day after the last
MAX_TIMESTEPS = 366 - 19 + 1


@dataclass
class SyntheticConfig:
    num_classes: int = 8
    num_years: int = 3
    channels: int = 4
    timesteps: int = 12
    parcels: int = 500
    pixels_min: int = 4
    pixels_max: int = 16
    noise_std: float = 0.1
    year_shift: float = 0.15
    area_size: float = 10000.0  # side of the square region, meters
    permanent_classes: tuple[int, ...] = (0, 1)
    permanent_stay: float = 0.97
    cycles: tuple[tuple[int, ...], ...] = ((2, 3, 4),)
    cycle_follow: float = 0.9
    other_within: float = 0.95
    curve_groups: tuple[tuple[int, ...], ...] = ()  # classes sharing a phenology curve
    seed: int = 0

    def validate(self):
        for name, low in (("num_classes", 2), ("timesteps", 4), ("num_years", 1),
                          ("channels", 1), ("parcels", 1), ("pixels_min", 1),
                          ("noise_std", 0), ("year_shift", 0), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # the `.rcds` header's u8 and u16 fields, the dates a year can hold,
        # and the seeds every command takes
        for name, high in (("num_years", 255), ("channels", 65535), ("num_classes", 65535),
                           ("timesteps", MAX_TIMESTEPS), ("seed", MAX_SEED)):
            if getattr(self, name) > high:
                raise ConfigError(f"{name} must be <= {high}, got {getattr(self, name)}")
        if not self.area_size > 0:
            raise ConfigError(f"area_size must be positive, got {self.area_size}")
        for p in (self.permanent_stay, self.cycle_follow, self.other_within):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability {p} outside [0, 1]")
        cyclic = [c for cycle in self.cycles for c in cycle]
        if len(set(cyclic)) != len(cyclic):
            raise ConfigError("classes may appear in one cycle only")
        special = set(self.permanent_classes) | set(cyclic)
        if set(self.permanent_classes) & set(cyclic):
            raise ConfigError("permanent and cyclic classes overlap")
        if self.pixels_min > self.pixels_max:
            raise ConfigError(
                f"pixels_min {self.pixels_min} exceeds pixels_max {self.pixels_max}")
        for c in special | {c for group in self.curve_groups for c in group}:
            if not 0 <= c < self.num_classes:
                raise ConfigError(f"class index {c} out of range")

    def transition_matrix(self):
        """First-order rotation kernel as an (L, L) row-stochastic matrix."""
        self.validate()
        L = self.num_classes
        cyclic_next = {}
        for cycle in self.cycles:
            for j, c in enumerate(cycle):
                cyclic_next[c] = cycle[(j + 1) % len(cycle)]
        other = [
            c
            for c in range(L)
            if c not in self.permanent_classes and c not in cyclic_next
        ]
        m = np.zeros((L, L))
        for a in range(L):
            if a in self.permanent_classes:
                rest = (1.0 - self.permanent_stay) / (L - 1)
                m[a, :] = rest
                m[a, a] = self.permanent_stay
            elif a in cyclic_next:
                rest = (1.0 - self.cycle_follow) / (L - 1)
                m[a, :] = rest
                m[a, cyclic_next[a]] = self.cycle_follow
            else:
                m[a, :] = (1.0 - self.other_within) / L
                if other:
                    m[a, other] += self.other_within / len(other)
                else:
                    m[a, :] += self.other_within / L
        return m

    def phenology_curves(self):
        """(L, C, 6) double-logistic parameters: base, amplitude, start,
        end, rise slope, fall slope.  Classes in a shared curve group reuse
        the first member's parameters."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC0FFEE]))
        L, C = self.num_classes, self.channels
        params = np.empty((L, C, 6))
        params[:, :, 0] = rng.uniform(0.1, 0.4, (L, C))
        params[:, :, 1] = rng.uniform(0.5, 1.5, (L, C))
        params[:, :, 2] = rng.uniform(60, 180, (L, C))
        params[:, :, 3] = params[:, :, 2] + rng.uniform(60, 150, (L, C))
        params[:, :, 4] = rng.uniform(0.05, 0.2, (L, C))
        params[:, :, 5] = rng.uniform(0.05, 0.2, (L, C))
        for group in self.curve_groups:
            for c in group[1:]:
                params[c] = params[group[0]]
        return params


def double_logistic(params, days):
    """Evaluate curves: params (..., C, 6), days (..., T) -> (..., C, T)."""
    days = np.asarray(days, dtype=np.float64)[..., None, :]
    base, amp, start, end, s1, s2 = (params[..., k:k + 1] for k in range(6))
    rise = 1.0 / (1.0 + np.exp(-s1 * (days - start)))
    fall = 1.0 / (1.0 + np.exp(-s2 * (days - end)))
    return base + amp * (rise - fall)


def _acquisition_days(jitter):
    """(..., T) int64 acquisition days: T dates spread evenly over the
    year, each moved by its (..., T) `jitter` in [-4, 4), rounded, pushed
    to at least a day after the date before it and clipped to [1, 366]."""
    t = jitter.shape[-1]
    days = np.round(np.linspace(15, 350, t) + jitter).astype(np.int64)
    # days[i] = max(days[i], days[i - 1] + 1), as a running max of days[i] - i
    step = np.arange(t)
    return np.clip(np.maximum.accumulate(days - step, axis=-1) + step, 1, 366)


# parcels per chunk of `generate_synthetic`: the float64 draw tables,
# curves and noise behind the float32 pixels are built one chunk at a time,
# so their memory does not grow with the parcel count.  The chunk size
# bounds that memory only: every size makes the same draws in the same
# order and gives the same bytes
SYNTH_CHUNK = 32


def generate_synthetic(config: SyntheticConfig):
    """Deterministic synthetic dataset following the configured rotation
    kernel and phenology curves.  Each draw is made by the cheapest
    `Generator` call that consumes the same bits as the `uniform`,
    `choice` or `normal` call it stands for, into per-chunk tables; the
    two `integers` calls stay where they are, since PCG64 serves them from
    a 32-bit half-word it keeps between calls."""
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    random, standard_normal, integers = rng.random, rng.standard_normal, rng.integers
    # each row's CDF, as `Generator.choice(L, p=row)` computes it: a label
    # is the number of CDF entries <= random(), the same draw and label
    cdf = config.transition_matrix().cumsum(axis=1)
    cdf /= cdf[:, -1:]
    curves = config.phenology_curves()
    L, I, C, T = config.num_classes, config.num_years, config.channels, config.timesteps
    low, high = config.pixels_min, config.pixels_max + 1
    # per-year global covariate shift, one offset per channel
    shift = config.year_shift * rng.uniform(-1, 1, (I, C))
    parcels = []
    for first in range(0, config.parcels, SYNTH_CHUNK):
        K = min(SYNTH_CHUNK, config.parcels - first)
        # the chunk's draws, in the generator's order: per parcel its
        # centroid, first label and I - 1 label draws, then per year its
        # pixel count, date jitter and (C, n_p, T) noise, each sample's
        # noise right after the one before it in `noise`
        centroids, label_draws = np.empty((K, 2)), np.empty((K, I - 1))
        jitter, noise = np.empty((K, I, T)), np.empty(K * I * C * config.pixels_max * T)
        first_labels, n_pixels, filled = [], [], 0
        for centroid, draws, rows in zip(centroids, label_draws, jitter):
            random(out=centroid)
            first_labels.append(integers(L))
            random(out=draws)
            for row in rows:
                n = int(integers(low, high))
                n_pixels.append(n)
                random(out=row)
                standard_normal(out=noise[filled:filled + C * n * T])
                filled += C * n * T
        # numpy's uniform(low, high) is low + (high - low) * random(), and
        # its normal(0, s) is 0 + s * standard_normal(): the same values
        # once noise is added to a curve, which turns a -0.0 into +0.0
        centroids *= config.area_size
        jitter *= 8
        jitter -= 4
        labels = np.empty((K, I), np.int64)
        labels[:, 0] = first_labels
        for i in range(1, I):
            labels[:, i] = (cdf[labels[:, i - 1]] <= label_draws[:, i - 1:i]).sum(axis=1)
        labels = labels.ravel()
        days = _acquisition_days(jitter.reshape(-1, T))  # one row per parcel-year
        clean = double_logistic(curves[labels], days).reshape(-1, I, C, T) + shift[:, :, None]
        # each sample's (C, n_p, T) pixels as consecutive rows of one table;
        # float addition commutes exactly, so this is (curve + shift) + noise
        noise = noise[:filled].reshape(-1, T)
        noise *= config.noise_std
        noise += np.repeat(clean.reshape(-1, T), np.repeat(n_pixels, C), axis=0)
        pixels = noise.astype(np.float32)
        labels = labels.tolist()
        ends = (np.cumsum(n_pixels) * C).tolist()
        samples = [
            PixelSetSample(first + k // I, k % I + 1, pixels[end - n * C:end].reshape(C, n, T),
                           days[k], labels[k])
            for k, (n, end) in enumerate(zip(n_pixels, ends))
        ]
        parcels += [MultiYearParcel(first + j, centroid, samples[j * I:(j + 1) * I])
                    for j, centroid in enumerate(zip(centroids[:, 0], centroids[:, 1]))]
    return parcels


# ---------------------------------------------------------------------------
# keyed pixel draws


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    """splitmix64's finaliser of a Python int or a uint64 array (which
    wraps modulo 2**64 by itself)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def draw_keys(stream, parcel_ids, years):
    """(B,) uint64 pixel-draw keys: the splitmix64 chain of the integer
    words of `stream`, then of each item's parcel id and year."""
    h = 0
    for word in stream:
        h = _splitmix64(h ^ (word & _MASK64))
    k = _splitmix64(np.uint64(h) ^ np.asarray(parcel_ids).astype(np.uint64))
    return _splitmix64(k ^ np.asarray(years).astype(np.uint64))


def sample_pixels(keys, n_pixels, s):
    """Draw S pixel columns, shared across all dates, for each of B items:
    item b draws from its n_pixels[b] columns, with replacement only when
    it has fewer than S, and its draw depends on keys[b] alone.

    Column j of item b has the key splitmix64(keys[b] ^ j).  Without
    replacement the draw is the S columns of smallest key, in key order;
    with replacement, draw j < S is column (key_j >> 32) * n_p >> 32.

    Returns (columns, counts), (B, S) int64 each: row b lists each drawn
    column once with its draw count, left-packed, and pads with column 0
    and count 0.  Repeated columns come in increasing column order."""
    if s < 1:
        raise ContractError("need at least one sampled pixel")
    keys = np.asarray(keys, dtype=np.uint64)
    n = np.asarray(n_pixels, dtype=np.int64)
    if keys.ndim != 1 or n.shape != keys.shape:
        raise ContractError(f"sample_pixels: keys {keys.shape}, pixel counts {n.shape}")
    if n.min(initial=1) < 1:
        raise ContractError("parcel with no pixels")
    width = max(s, int(n.max(initial=0)))
    col = np.arange(width, dtype=np.uint64)
    col_keys = _splitmix64(keys[:, None] ^ col)
    columns = np.zeros((len(keys), s), dtype=np.int64)
    counts = np.zeros_like(columns)
    few = n < s
    many = ~few
    if many.any():
        k = col_keys[many]
        k[col >= n[many, None].astype(np.uint64)] = _MASK64  # pad columns sort last
        columns[many] = np.argsort(k, axis=1, kind="stable")[:, :s]
        counts[many] = 1
    if few.any():
        drawn = (col_keys[few, :s] >> 32) * n[few, None].astype(np.uint64) >> 32
        columns[few], counts[few] = distinct_columns(drawn.astype(np.int64))
    return columns, counts


def distinct_columns(drawn):
    """Pack (B, S) drawn column indices row by row: each distinct column
    once, in increasing order, with its draw count, left-packed and padded
    with column 0 and count 0.  Returns (columns, counts), (B, S) int64."""
    drawn = np.asarray(drawn, dtype=np.int64)
    b, s = drawn.shape
    width = max(s, int(drawn.max(initial=-1)) + 1)
    # one tally of all rows: row r's column c is bin r * width + c
    bins = drawn + np.arange(0, b * width, width)[:, None]
    tally = np.bincount(bins.ravel(), minlength=b * width).reshape(b, width)
    order = np.argsort(tally == 0, axis=1, kind="stable")[:, :s]  # drawn columns first
    packed = np.take_along_axis(tally, order, axis=1)
    return np.where(packed > 0, order, 0), packed


# ---------------------------------------------------------------------------
# spatially separated folds


def make_folds(parcels, k, block_size, salt=0):
    """`block_folds` of a list of parcels."""
    return block_folds([p.parcel_id for p in parcels], [p.centroid for p in parcels],
                       k, block_size, salt)


def block_folds(ids, centroids, k, block_size, salt=0):
    """Partition the parcels `ids`, whose (x, y) centroids are `centroids`,
    into k folds by centroid grid block; a block is never split across
    folds.  A centroid whose grid block has no finite index at
    `block_size` is a DataFormatError."""
    FoldAssignment(k, {}, block_size).validate()
    blocks = {}
    with np.errstate(over="ignore"):  # an overflow is refused below
        for pid, (x, y) in zip(ids, centroids):
            try:
                block = math.floor(x / block_size), math.floor(y / block_size)
            except (OverflowError, ValueError):
                raise DataFormatError(f"parcel {pid}: centroid {(x, y)} has no finite grid "
                                      f"block at block size {block_size}") from None
            blocks.setdefault(block, []).append(pid)
    if len(blocks) < k:
        raise ContractError(f"only {len(blocks)} spatial block{'s' * (len(blocks) != 1)} for "
                            f"{k} folds; decrease block_size")
    hashed = sorted(
        blocks,
        key=lambda b: (_splitmix64((b[0] & 0xFFFFFFFF) << 32 | (b[1] & 0xFFFFFFFF) ^ salt), b),
    )
    folds = {}
    for rank, block in enumerate(hashed):
        for pid in blocks[block]:
            folds[pid] = rank % k
    return FoldAssignment(k=k, folds=folds, block_size=float(block_size))


# ---------------------------------------------------------------------------
# on-disk format (little-endian binary + JSON sidecar manifest)


_HEADER = struct.Struct("<IIBHH")
# the columns after the header, in file order, each named as an error names
# it, with its dtype: per parcel its id and (x, y) centroid; per sample,
# parcel by parcel and year by year, its label, its date count T and its
# pixel count N_p; then each sample's T days, and each sample's pixels in
# their (C, N_p, T) C order
_COLUMNS = (("parcel ids", "<u8"), ("centroids", "<f8"), ("labels", "<u2"),
            ("date counts", "<u2"), ("pixel counts", "<u4"), ("days", "<u2"), ("pixels", "<f4"))
_F4 = np.dtype("<f4")


def _total(sizes):
    """The sum of the non-negative int64 `sizes` as a Python int, exact
    also where an int64 sum would wrap."""
    if sizes.max(initial=0) < 2**63 // max(sizes.size, 1):
        return int(sizes.sum())
    return sum(sizes.tolist())


def _checked_columns(take, n_parcels, num_years, channels, num_classes):
    """The columns of a `.rcds` file whose header gives these sizes, in
    file order, each fetched by `take(name, dtype, count)`, which returns
    its values and its offset in the file (None before there is a file),
    and checked before the next is fetched.  The first value, in file
    order, that a file may not hold raises DataFormatError naming its
    parcel, its year for a sample's value, the fault and, given the
    offset, its column and offset: a repeated id, a non-finite centroid, a
    label outside [0, L), T = 0, N_p = 0, a day outside [1, 366] or not
    after the day before it in its sample, a non-finite pixel.  Returns the
    (P,) ids, (P, 2) centroids, (P * Y,) int64 labels, T and N_p, and the
    int64 days and float32 pixels of every sample, end to end."""
    n = n_parcels * num_years
    ids, at = take("parcel ids", "<u8", n_parcels)

    def refuse(k, fault, column, at, offset, per_sample=True):
        """Refuse sample k, or parcel k, for `fault`, found `offset` bytes
        into `column`, which starts at `at`."""
        where = (f"parcel {ids[k // num_years]}, year {k % num_years + 1}" if per_sample
                 else f"parcel {ids[k]}")
        suffix = "" if at is None else f" ({column} at offset {at + offset})"
        raise DataFormatError(f"{where}: {fault}{suffix}")

    i = _first_repeat(ids)
    if i is not None:
        refuse(i, "id appears more than once", "parcel ids", at, 8 * i, per_sample=False)
    centroids, at = take("centroids", "<f8", 2 * n_parcels)
    finite = np.isfinite(centroids)
    if not finite.all():
        j = int(np.argmin(finite))
        i = j // 2
        refuse(i, f"non-finite centroid {tuple(centroids[2 * i:2 * i + 2].tolist())}",
               "centroids", at, 8 * j, per_sample=False)
    labels, at = take("labels", "<u2", n)
    labels = labels.astype(np.int64)
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        k = int(np.argmax(bad))
        refuse(k, f"label {labels[k]} outside [0, {num_classes})", "labels", at, 2 * k)
    ts, at = take("date counts", "<u2", n)
    ts = ts.astype(np.int64)
    if not ts.all():
        k = int(np.argmin(ts))
        refuse(k, "no dates: a sample needs at least one", "date counts", at, 2 * k)
    nps, at = take("pixel counts", "<u4", n)
    nps = nps.astype(np.int64)
    if not nps.all():
        k = int(np.argmin(nps))
        refuse(k, "no pixels: a sample needs at least one", "pixel counts", at, 4 * k)
    days, at = take("days", "<u2", int(ts.sum()))
    days = days.astype(np.int64)
    out = (days < 1) | (days > 366)
    steps = np.zeros_like(out)
    steps[1:] = days[1:] <= days[:-1]
    steps[_starts(ts)] = False  # a sample's first day has none before it
    if out.any() or steps.any():
        j = int(np.argmax(out | steps))
        refuse(int(np.searchsorted(np.cumsum(ts), j, side="right")),
               "days must lie in [1, 366]" if out[j] else "days must be strictly increasing",
               "days", at, 2 * j)
    # below 2^57 each: T <= 366 now that every sample's days increase in [1, 366]
    sizes = channels * nps * ts
    pixels, at = take("pixels", "<f4", _total(sizes))
    finite = np.isfinite(pixels)
    if not finite.all():
        j = int(np.argmin(finite))
        refuse(int(np.searchsorted(np.cumsum(sizes), j, side="right")), "non-finite pixel value",
               "pixels", at, 4 * j)
    return ids, centroids.reshape(n_parcels, 2), labels, ts, nps, days, pixels


def _check_class_names(sidecar, num_classes, path):
    names = sidecar.get("class_names")
    if names is not None and not (isinstance(names, list) and len(names) == num_classes
                                  and all(isinstance(n, str) for n in names)):
        raise DataFormatError(
            f"dataset sidecar {path}: class_names must be a list of {num_classes} strings"
        )


def save_dataset(path, parcels_or_columns, num_classes, manifest=None):
    """Write a list of parcels, or `Columns`, to the `.rcds` file `path` and
    its JSON sidecar.  A list enters through `Columns.of`, whose refusal is
    raised as a DataFormatError.  What `load_dataset` would refuse, or the
    header cannot describe, raises DataFormatError before the file is
    opened: no partial file is left."""
    path = str(path)
    try:
        columns = as_columns(parcels_or_columns)
    except ContractError as exc:
        raise DataFormatError(str(exc)) from None
    num_years, channels = columns.num_years, columns.num_channels
    try:
        header = _HEADER.pack(FORMAT_VERSION, len(columns), num_years, channels, num_classes)
    except struct.error as exc:
        raise DataFormatError(f"dataset dimensions overflow the header fields: {exc}") from None
    days, pixels = columns.sample_arrays()
    with np.errstate(over="ignore"):  # float32 overflow is refused as non-finite
        pixels = np.concatenate([np.empty(0, _F4), *pixels.ravel()], axis=None, dtype=_F4,
                                casting="unsafe")
    days = np.concatenate([np.empty(0, np.int64), *days.ravel()], dtype=np.int64,
                          casting="unsafe")
    values = [columns.ids, columns.centroids.ravel(), columns.labels.ravel(),
              columns.ts.ravel(), columns.n_pixels.ravel(), days, pixels]
    by_name = {name: v for (name, _), v in zip(_COLUMNS, values)}
    _checked_columns(lambda name, code, count: (by_name[name], None),
                     len(columns), num_years, channels, num_classes)
    sidecar = {"class_names": [f"class_{i:02d}" for i in range(num_classes)],
               "year_labels": [f"year_{i}" for i in range(1, num_years + 1)], **(manifest or {})}
    _check_class_names(sidecar, num_classes, path + ".json")
    sidecar = json_text(sidecar, f"dataset sidecar {path}.json")
    # one write per column, so the file's bytes are never held a second time
    with open(path, "wb") as fh:
        fh.writelines([MAGIC, header, *(np.ascontiguousarray(v, code)
                                        for v, (_, code) in zip(values, _COLUMNS))])
    write_text(path + ".json", sidecar)


def load_dataset(path):
    """The dataset in the `.rcds` file `path`, as `Columns` over the
    file's day and pixel columns, with the manifest in its optional JSON
    sidecar.  A malformed file raises DataFormatError naming its first
    fault in file order."""
    path = str(path)
    r = Reader(path, "RCDS")
    r.magic(MAGIC)
    version, n_parcels, num_years, channels, num_classes = r.unpack(_HEADER, "header")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {version} (this reader reads version "
                              f"{FORMAT_VERSION}; regenerate with croprot synth)")

    def take(name, code, count):
        at = r.offset
        return r.array(code, count, name), at

    ids, centroids, labels, ts, nps, days, pixels = _checked_columns(
        take, n_parcels, num_years, channels, num_classes)
    r.finish()
    manifest = None
    if os.path.exists(path + ".json"):
        manifest = read_json(path + ".json", "dataset sidecar")
        _check_class_names(manifest, num_classes, path + ".json")
    shape = (n_parcels, num_years)
    starts = [_starts(sizes).reshape(shape) for sizes in (ts, channels * nps * ts)]
    columns = Columns(ids, centroids, labels.reshape(shape), ts.reshape(shape),
                      nps.reshape(shape), days, pixels, *starts, channels)
    return Dataset(None, int(num_classes), manifest, columns)


def config_to_manifest(config: SyntheticConfig):
    """Dataset manifest recording the generator settings."""
    return {"generator": asdict(config)}
