"""Pixel-set dataset format, synthetic multi-year generator, spatial folds.

The generator produces multi-year parcels whose labels follow a Markov
rotation kernel with three behaviours (permanent, cyclic, near-uniform)
and whose pixel values follow per-class double-logistic phenology curves
plus a per-year global shift and i.i.d. noise.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import re
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .binio import U16, U32, Reader, from_json, read_json, write_json
from .errors import ConfigError, ContractError, DataFormatError

MAGIC = b"RCDS"
FORMAT_VERSION = 1


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


@dataclass(eq=False)
class Columns:
    """P parcels of Y years as arrays.  Per parcel: `ids` (P,) uint64 and
    `centroids` (P, 2) float64.  Per sample, as (P, Y) arrays: its int64
    `labels`, `ts` (dates T) and `n_pixels` (N_p), and, in object arrays,
    its own (T,) integer `days` and (C, N_p, T) `pixels` arrays.  `take`
    selects parcels and shares the samples' arrays."""

    ids: np.ndarray
    centroids: np.ndarray
    labels: np.ndarray
    ts: np.ndarray
    n_pixels: np.ndarray
    days: np.ndarray
    pixels: np.ndarray

    @classmethod
    def of(cls, parcels):
        """The columns of a list of parcels, one row per entry, sharing
        their samples' day and pixel arrays.  Two parcel objects with one
        id, an id outside [0, 2^64), a parcel with another year count than
        the first, and a sample with another channel count than the first
        sample's or with other than one date per pixel timestep are a
        ContractError."""
        owners = {}
        for p in parcels:
            if owners.setdefault(p.parcel_id, p) is not p:
                raise ContractError(f"parcel id {p.parcel_id} names more than one parcel")
        for pid in owners:
            if not 0 <= pid < 1 << 64:
                raise ContractError(f"parcel id {pid} outside [0, 2^64)")
        years = len(parcels[0].samples) if parcels else 0
        samples = []
        for p in parcels:
            if len(p.samples) != years:
                raise ContractError(
                    f"parcel {p.parcel_id}, year {min(len(p.samples), years) + 1}: the parcel "
                    f"has {len(p.samples)} years where parcel {parcels[0].parcel_id} has {years}")
            samples += p.samples
        n = len(samples)
        days, pixels = [s.days for s in samples], [s.pixels for s in samples]
        # per sample: C, N_p, T of its pixels, and its number of dates
        sizes = np.fromiter(itertools.chain.from_iterable(a.shape for a in pixels),
                            np.int64).reshape(n, 3)
        ts = np.fromiter(map(len, days), np.int64, n)
        bad = (sizes[:, 0] != sizes[:1, 0]) | (sizes[:, 2] != ts)
        if bad.any():
            j = int(np.argmax(bad))
            raise ContractError(
                f"parcel {parcels[j // years].parcel_id}, year {j % years + 1}: pixels "
                f"{pixels[j].shape} and {ts[j]} dates; need {sizes[0, 0]} channels, as the "
                "first sample has, and one date per timestep")
        shape = (len(parcels), years)
        return cls(
            np.fromiter((p.parcel_id for p in parcels), np.uint64, len(parcels)),
            np.array([p.centroid for p in parcels], np.float64).reshape(-1, 2),
            np.fromiter((s.label for s in samples), np.int64, n).reshape(shape),
            ts.reshape(shape), sizes[:, 1].reshape(shape),
            # fromiter keeps each array whole where np.array would stack
            # arrays of one shape into a block
            np.fromiter(days, object, n).reshape(shape),
            np.fromiter(pixels, object, n).reshape(shape),
        )

    def __len__(self):
        return len(self.ids)

    @property
    def num_years(self):
        return self.labels.shape[1] if len(self.ids) else 0

    @property
    def num_channels(self):
        return self.pixels.flat[0].shape[0] if self.pixels.size else 0

    def take(self, rows):
        """The columns of the parcels at `rows`, an index array."""
        return dataclasses.replace(self, **{name: getattr(self, name)[rows] for name in (
            "ids", "centroids", "labels", "ts", "n_pixels", "days", "pixels")})

    def parcels(self):
        """The parcels as `MultiYearParcel` objects holding the columns'
        day and pixel arrays."""
        years = self.labels.shape[1]
        days, pixels = self.days.ravel().tolist(), self.pixels.ravel().tolist()
        ids, labels = self.ids.tolist(), self.labels.ravel().tolist()
        samples = [PixelSetSample(ids[j // years], j % years + 1, pixels[j], days[j], labels[j])
                   for j in range(len(labels))]
        return [MultiYearParcel(pid, tuple(centroid), samples[i * years:(i + 1) * years])
                for i, (pid, centroid) in enumerate(zip(ids, self.centroids.tolist()))]


def as_columns(parcels_or_columns):
    """`Columns` as they are, and a list of parcels as `Columns.of` gives
    its columns."""
    if isinstance(parcels_or_columns, Columns):
        return parcels_or_columns
    return Columns.of(parcels_or_columns)


class Dataset:
    """Parcels with one sample per year and the dataset's class count, held
    as `Columns`.  `Dataset(parcels=...)` builds them from its list of
    parcels with `Columns.of` when first asked for, and `parcels` builds
    parcel objects from the columns of `load_dataset` when first asked
    for."""

    def __init__(self, parcels, num_classes, manifest=None, columns=None):
        self._parcels, self._columns = parcels, columns
        self.num_classes = num_classes
        self.manifest = manifest

    @property
    def parcels(self):
        if self._parcels is None:
            self._parcels = self._columns.parcels()
        return self._parcels

    @property
    def columns(self):
        if self._columns is None:
            self._columns = Columns.of(self._parcels)
        return self._columns

    # a held parcel list answers these without building its columns, which
    # takes a Python pass over every sample
    @property
    def num_years(self):
        if self._columns is not None:
            return self._columns.num_years
        return len(self._parcels[0].samples) if self._parcels else 0

    @property
    def num_channels(self):
        if self._columns is not None:
            return self._columns.num_channels
        samples = self._parcels[0].samples if self._parcels else []
        return samples[0].pixels.shape[0] if samples else 0


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
        for pid, f in self.folds.items():
            if not 0 <= f < self.k:
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
    if type(doc.get("folds")) is dict:
        for key in doc["folds"]:
            if not (_ID_TEXT.fullmatch(key) and int(key) < 2**64):
                raise DataFormatError(f"folds file {path}: key {key!r} is not a parcel id")
        doc["folds"] = {int(pid): f for pid, f in doc["folds"].items()}
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


# parcels per chunk of `generate_synthetic`: the float64 curves and noise
# behind the float32 pixels are built one chunk at a time, so their memory
# does not grow with the parcel count
SYNTH_CHUNK = 32


def generate_synthetic(config: SyntheticConfig):
    """Deterministic synthetic dataset following the configured rotation
    kernel and phenology curves."""
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    # each row's CDF, as `Generator.choice(L, p=row)` computes it: a label
    # is the CDF's searchsorted(random(), "right"), the same draw and label
    cdf = config.transition_matrix().cumsum(axis=1)
    cdf /= cdf[:, -1:]
    curves = config.phenology_curves()
    L, I, C, T = config.num_classes, config.num_years, config.channels, config.timesteps
    # per-year global covariate shift, one offset per channel
    shift = config.year_shift * rng.uniform(-1, 1, (I, C))
    parcels = []
    for first in range(0, config.parcels, SYNTH_CHUNK):
        ids = range(first, min(first + SYNTH_CHUNK, config.parcels))
        # the chunk's draws, in the generator's order: per parcel its
        # centroid and labels, then per year its pixel count, date jitter
        # and (C, n_p, T) noise
        centroids, labels, n_pixels, jitter, noise = [], [], [], [], []
        for _ in ids:
            centroids.append(tuple(rng.uniform(0, config.area_size, 2)))
            labels.append(int(rng.integers(L)))
            for _ in range(1, I):
                labels.append(int(cdf[labels[-1]].searchsorted(rng.random(), side="right")))
            for _ in range(I):
                n_pixels.append(int(rng.integers(config.pixels_min, config.pixels_max + 1)))
                jitter.append(rng.uniform(-4, 4, T))
                noise.append(rng.normal(0, config.noise_std, (C, n_pixels[-1], T)))
        days = _acquisition_days(np.array(jitter))  # one row per parcel-year
        clean = double_logistic(curves[labels], days).reshape(-1, I, C, T) + shift[:, :, None]
        # each sample's (C, n_p, T) pixels as consecutive rows of one table;
        # float addition commutes exactly, so this is (curve + shift) + noise
        noise = np.concatenate(noise, axis=None).reshape(-1, T)
        noise += np.repeat(clean.reshape(-1, T), np.repeat(n_pixels, C), axis=0)
        pixels = noise.astype(np.float32)
        ends = (np.cumsum(n_pixels) * C).tolist()
        samples = [
            PixelSetSample(first + k // I, k % I + 1, pixels[end - n * C:end].reshape(C, n, T),
                           days[k], labels[k])
            for k, (n, end) in enumerate(zip(n_pixels, ends))
        ]
        parcels += [MultiYearParcel(pid, centroid, samples[j * I:(j + 1) * I])
                    for j, (pid, centroid) in enumerate(zip(ids, centroids))]
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
        raise ConfigError(
            f"only {len(blocks)} spatial blocks for {k} folds; "
            "decrease block_size"
        )
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
_PARCEL = struct.Struct("<Qdd")
_U2, _F4 = np.dtype("<u2"), np.dtype("<f4")
# a parcel header as a record of the file's bytes
_PARCEL_FIELDS = np.dtype([("id", "<u8"), ("x", "<f8"), ("y", "<f8")])


def _first_fault(pixels, sizes, days, ts, labels, num_classes):
    """(index, message) of the first sample whose values a `.rcds` file may
    not hold, or None.  `pixels` holds the float32 pixels of the first
    len(sizes) samples, sizes[k] values each; `days` the integer dates of
    the first len(ts) samples, ts[k] each; `labels` the labels of the first
    len(labels) samples.  In a truncated file the three may end at
    different samples.  Within a sample the checks run in the order: finite
    pixels, label in [0, L), at least one date, days in [1, 366], days
    strictly increasing."""
    faults = []  # (sample index, rank of the check, message)
    finite = np.isfinite(pixels)
    if not finite.all():
        k = int(np.searchsorted(np.cumsum(sizes), np.argmin(finite), side="right"))
        faults.append((k, 0, "non-finite pixel value"))
    out = (labels < 0) | (labels >= num_classes)
    if out.any():
        k = int(np.argmax(out))
        faults.append((k, 1, f"label {labels[k]} outside [0, {num_classes})"))
    ts = np.asarray(ts, np.int64)
    if (ts == 0).any():
        faults.append((int(np.argmax(ts == 0)), 2, "no dates: a sample needs at least one"))
    sample = np.repeat(np.arange(len(ts)), ts)
    out = (days < 1) | (days > 366)
    if out.any():
        faults.append((int(sample[np.argmax(out)]), 2, "days must lie in [1, 366]"))
    steps = (np.diff(days) <= 0) & (sample[1:] == sample[:-1])
    if steps.any():
        faults.append((int(sample[np.argmax(steps)]), 3, "days must be strictly increasing"))
    if not faults:
        return None
    k, _, msg = min(faults)
    return k, msg


def _refuse_repeated_ids(ids):
    """DataFormatError naming the first parcel id, in file order, that an
    earlier parcel already has: a parcel-year is keyed by (id, year).
    `ids` is a uint64 array."""
    order = np.argsort(ids, kind="stable")
    # a stable sort puts each id's later parcels after its first
    again = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if again.size:
        raise DataFormatError(f"parcel id {ids[again.min()]} appears more than once")


def _check_class_names(sidecar, num_classes, path):
    names = sidecar.get("class_names")
    if names is not None and not (isinstance(names, list) and len(names) == num_classes
                                  and all(isinstance(n, str) for n in names)):
        raise DataFormatError(
            f"dataset sidecar {path}: class_names must be a list of {num_classes} strings"
        )


def save_dataset(path, parcels, num_classes, manifest=None):
    """Write `parcels` to the `.rcds` file `path` and its JSON sidecar.
    What `load_dataset` would refuse, or the header cannot describe, raises
    DataFormatError before the file is opened: no partial file is left."""
    path = str(path)
    num_years = len(parcels[0].samples) if parcels else 0
    channels = parcels[0].samples[0].pixels.shape[0] if num_years else 0
    try:
        header = _HEADER.pack(FORMAT_VERSION, len(parcels), num_years, channels, num_classes)
    except struct.error as exc:
        raise DataFormatError(f"dataset dimensions overflow the header fields: {exc}") from None
    heads, pixels, days, labels = [], [], [], []
    with np.errstate(over="ignore"):  # float32 overflow is refused as non-finite
        for p in parcels:
            try:
                heads.append(_PARCEL.pack(p.parcel_id, *p.centroid))
            except struct.error as exc:
                raise DataFormatError(f"parcel {p.parcel_id}: id or centroid: {exc}") from None
            if len(p.samples) != num_years or not all(map(math.isfinite, p.centroid)):
                raise DataFormatError(f"parcel {p.parcel_id}: {len(p.samples)} years, centroid "
                                      f"{p.centroid}; need {num_years} years, a finite centroid")
            for i, s in enumerate(p.samples):
                pix = np.ascontiguousarray(s.pixels, dtype="<f4")
                d = np.asarray(s.days)
                if not (pix.ndim == 3 and pix.shape[0] == channels and pix.shape[1] >= 1
                        and d.shape == pix.shape[2:] and d.dtype.kind in "iu"
                        and isinstance(s.label, (int, np.integer))):
                    raise DataFormatError(
                        f"parcel {p.parcel_id}, year {i + 1}: pixels {pix.shape}, {d.dtype} "
                        f"days {d.shape}, label {s.label!r}; need ({channels}, N_p >= 1, T), "
                        "T integers, an integer")
                pixels.append(pix)
                days.append(d)
                labels.append(s.label)
    # labels as Python objects: one beyond int64 is refused, not wrapped
    fault = _first_fault(
        np.concatenate([np.empty(0, _F4)] + pixels, axis=None), [p.size for p in pixels],
        np.concatenate(days).astype(np.int64) if days else np.empty(0, np.int64),
        [d.size for d in days], np.array(labels, dtype=object), num_classes)
    if fault:
        k, msg = fault
        raise DataFormatError(
            f"parcel {parcels[k // num_years].parcel_id}, year {k % num_years + 1}: {msg}"
        )
    _refuse_repeated_ids(np.fromiter((p.parcel_id for p in parcels), np.uint64, len(parcels)))
    sidecar = {"class_names": [f"class_{i:02d}" for i in range(num_classes)],
               "year_labels": [f"year_{i}" for i in range(1, num_years + 1)], **(manifest or {})}
    _check_class_names(sidecar, num_classes, path + ".json")
    parts = [MAGIC, header]
    records = zip(days, pixels, labels)
    for head in heads:
        parts.append(head)
        for d, pix, label in itertools.islice(records, num_years):
            parts += (U16.pack(d.size), d.astype("<u2"), U32.pack(pix.shape[1]), pix,
                      U16.pack(label))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    write_json(path + ".json", sidecar)


def _read_sample(r, channels, pid, ts, nps):
    """Read the sample record at `r.offset` field by field, appending its T
    to `ts` once its days are read and its N_p to `nps` once its pixels
    are; a record that runs past the end of the file, or has no pixels,
    raises DataFormatError naming the field and its offset."""
    (t,) = r.unpack(U16, "timestep count")
    r.take(2 * t, "days")
    ts.append(t)
    (n_p,) = r.unpack(U32, "pixel count")
    if n_p < 1:
        raise DataFormatError(f"degenerate parcel {pid} with no pixels at offset {r.offset}")
    r.take(4 * channels * n_p * t, "pixels")
    nps.append(n_p)
    r.unpack(U16, "label")


def _join(buf, starts, sizes):
    """One bytearray of the sizes[k] bytes of `buf` from each starts[k], in
    turn."""
    view = memoryview(buf)
    return bytearray().join([view[s:s + n] for s, n in zip(starts.tolist(), sizes.tolist())])


def load_dataset(path):
    """The dataset in the `.rcds` file `path`, as `Columns`, with the
    manifest in its optional JSON sidecar.  A malformed file raises
    DataFormatError naming its first fault in file order."""
    path = str(path)
    r = Reader(path, "RCDS")
    r.magic(MAGIC)
    version, n_parcels, num_years, channels, num_classes = r.unpack(_HEADER, "header")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {version}")
    # One walk over the records reads each sample record's two counts, T and
    # N_p, which give where the next record starts; numpy then gathers the
    # columns from the buffer at the offsets they give, and one vectorised
    # pass checks their values.  A record that runs past the end of the
    # file, or has no pixels, is read field by field, which names the
    # fault; a fault in an earlier sample, or in the fields of that record
    # read before it, is still the one reported.
    buf, size = r.buf, r.size
    count, pixel_count, pixel_bytes = U16.unpack_from, U32.unpack_from, 4 * channels
    heads, starts, ts, nps = [], [], [], []
    walk_fault, in_record = None, False
    try:
        for _ in range(n_parcels):
            heads.append(r.take(_PARCEL.size, "parcel header"))
            o = r.offset
            for _ in range(num_years):
                starts.append(o)
                try:
                    (t,) = count(buf, o)
                    (n_p,) = pixel_count(buf, o + 2 + 2 * t)
                except struct.error:  # the counts run past the end of the file
                    n_p = 0
                if n_p and (end := o + 8 + 2 * t + pixel_bytes * n_p * t) <= size:
                    ts.append(t)
                    nps.append(n_p)
                    o = end
                else:
                    r.offset, in_record = o, True
                    _read_sample(r, channels, _PARCEL.unpack_from(buf, heads[-1])[0], ts, nps)
                    o, in_record = r.offset, False
            r.offset = o
    except DataFormatError as exc:
        walk_fault = exc
    u8 = np.frombuffer(buf, np.uint8)
    starts, ts, nps = (np.array(v, np.int64) for v in (starts, ts, nps))
    sizes = channels * nps * ts[:nps.size]
    pixel_at = starts[:nps.size] + 6 + 2 * ts[:nps.size]
    # the one copy of the pixels, and what they are checked on
    pixels = np.frombuffer(_join(buf, pixel_at, 4 * sizes), _F4)
    days = np.frombuffer(_join(buf, starts[:ts.size] + 2, 2 * ts), _U2).astype(np.int64)
    label_at = (pixel_at + 4 * sizes)[:starts.size - in_record]
    labels = u8[label_at[:, None] + np.arange(2)].view(_U2).ravel().astype(np.int64)
    fault = _first_fault(pixels, sizes, days, ts, labels, num_classes)
    if fault:
        k, msg = fault
        pid = _PARCEL.unpack_from(buf, heads[k // num_years])[0]
        raise DataFormatError(
            f"parcel {pid}, year {k % num_years + 1}: {msg} (sample record at offset {starts[k]})"
        )
    if walk_fault:
        raise walk_fault
    r.finish()
    head = u8[np.array(heads, np.int64)[:, None] + np.arange(_PARCEL.size)]
    head = head.view(_PARCEL_FIELDS)[:, 0]
    ids = head["id"].astype(np.uint64)
    centroids = np.stack([head["x"], head["y"]], axis=1).astype(np.float64)
    bad = ~np.isfinite(centroids).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataFormatError(f"parcel {ids[i]}: non-finite centroid "
                              f"{tuple(centroids[i].tolist())}")
    _refuse_repeated_ids(ids)
    manifest = None
    if os.path.exists(path + ".json"):
        manifest = read_json(path + ".json", "dataset sidecar")
        _check_class_names(manifest, num_classes, path + ".json")
    # each sample's days and pixels as views of the two checked buffers
    day_views = np.fromiter((days[s:s + t] for s, t in zip(_starts(ts).tolist(), ts.tolist())),
                            object, ts.size)
    pixel_views = np.fromiter((pixels[s:s + n].reshape(channels, n_p, t) for s, n, n_p, t in zip(
        _starts(sizes).tolist(), sizes.tolist(), nps.tolist(), ts.tolist())), object, nps.size)
    shape = (n_parcels, num_years)
    columns = Columns(ids, centroids, labels.reshape(shape), ts.reshape(shape), nps.reshape(shape),
                      day_views.reshape(shape), pixel_views.reshape(shape))
    return Dataset(None, int(num_classes), manifest, columns)


def config_to_manifest(config: SyntheticConfig):
    """Dataset manifest recording the generator settings."""
    return {"generator": asdict(config)}
