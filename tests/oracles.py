"""Reference implementations that tests compare the library with:
per-sample encoders built from the unfused autodiff primitives (matmul,
add_bias, relu), one (C, S) pixel set and one date sequence at a time,
against the batched `encode_batch`; Adam one parameter array at a time,
against `optimizer_step` over the flat parameter vector; and temperature
fitting, calibration, reliability bins and the confusion matrix one row
of a `binio.predictions` array at a time, against the library's column
arithmetic; and the JSON object of one row, against the predictions-file
writer's fixed layout; and the synthetic generator one parcel-year at a
time, with `Generator.choice` drawing the labels, against the chunked
`generate_synthetic`; and the `.rcds` loader reading every value of every
column through the bounds-checked `Reader` and checking the values one
at a time, against `load_dataset`'s array reads and checks of whole
columns, with an encoder that writes a file's bytes value by value
without any check; and `dense`
and `mean_std_pool` with backward rules that compute every input's
gradient, sum bias gradients with `sum(axis=0)` and fill the pool's
gradient run by run of equal-size segments, against the library's; and
the `_Items` of a list of (parcel, year) pairs read from the parcel
objects pair by pair, against `_Items.of_columns`."""

import math
import os
import struct
from types import SimpleNamespace

import numpy as np

from croprot import autodiff as ad
from croprot.binio import U16, U32, Reader, read_json
from croprot.calibration import _GOLDEN, ReliabilityBins, apply_temperature
from croprot.data import (
    _HEADER, FORMAT_VERSION, MAGIC, MultiYearParcel, PixelSetSample, _check_class_names,
)
from croprot.errors import ContractError, DataFormatError
from croprot.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, _Items, _select

_U64, _F64, _F32 = struct.Struct("<Q"), struct.Struct("<d"), struct.Struct("<f")


def _mlp_layer(x, w, b, relu=True):
    z = ad.add_bias(ad.matmul(x, w), b)
    return ad.relu(z) if relu else z


def pse_forward(x_t, pse):
    """Encode one (C, S) pixel set into a d2 vector; invariant to any
    permutation of the S pixels."""
    x = np.asarray(x_t.data if isinstance(x_t, ad.Tensor) else x_t)
    if not np.all(np.isfinite(x)):
        raise ContractError("pse_forward: non-finite input")
    c, s = x.shape
    flat = ad.Tensor(np.ascontiguousarray(x.T), dtype=pse.w1.data.dtype)  # (S, C)
    h = _mlp_layer(_mlp_layer(flat, pse.w1, pse.b1), pse.w2, pse.b2)
    pooled = ad.mean_std_pool(h, [s], np.ones(s, dtype=np.int64))  # (1, 2*d1)
    return ad.reshape(_mlp_layer(pooled, pse.w3, pse.b3), (pse.dims.d2,))


def ltae_forward(seq, days, ltae, return_attention=False):
    """Summarize a sequence of T vectors (d2 each) into one descriptor.

    `seq` entries are d2-dim Tensors or arrays that already include any
    positional information; per head the attention weights over the T
    entries sum to 1.
    """
    if len(seq) == 0:
        raise ContractError("ltae_forward: empty sequence")
    if len(seq) != len(days):
        raise ContractError("ltae_forward: len(seq) != len(days)")
    dims = ltae.dims
    t = len(seq)
    rows = [
        ad.reshape(s if isinstance(s, ad.Tensor) else ad.Tensor(s), (1, dims.d2))
        for s in seq
    ]
    e = ad.concat(rows, axis=0)  # (T, d2)
    keys = ad.reshape(_mlp_layer(e, ltae.wk, ltae.bk, relu=False), (t, dims.heads, dims.d_k))
    scores = ad.scale(ad.einsum2("thk,hk->ht", keys, ltae.query), 1.0 / math.sqrt(dims.d_k))
    attn = ad.softmax(scores, axis=-1)  # (H, T)
    values = ad.reshape(e, (t, dims.heads, dims.group))
    ctx = ad.reshape(ad.einsum2("ht,thg->hg", attn, values), (1, dims.d2))
    hidden = _mlp_layer(ctx, ltae.wo1, ltae.bo1)
    out = ad.reshape(_mlp_layer(hidden, ltae.wo2, ltae.bo2, relu=False), (dims.descriptor,))
    if return_attention:
        return out, attn
    return out


def dense(x, w, b, relu=False):
    """`ad.dense`, its backward rule giving x a gradient whether or not x
    is on a tape, and each bias gradient a float64 `sum(axis=0)`."""
    if x.data.shape[0] == 1:
        out = (np.repeat(x.data, 2, axis=0) @ w.data)[:1]
    else:
        out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0, out=out)
    dtype = out.dtype

    def bwd(g):
        if relu:
            g = g * (out > 0)
        return [g @ w.data.T, x.data.T @ g, g.sum(axis=0, dtype=np.float64).astype(dtype)]

    return ad._result(out, [x, w, b], bwd)


def mean_std_pool(x, sizes, counts):
    """`ad.mean_std_pool`, its backward rule writing the gradient of each
    run of equal-size segments into a (n, k, d) view of its rows."""
    data = x.data
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    dtype = data.dtype
    d = data.shape[1]
    runs = list(ad._runs(sizes))
    weights = counts.astype(np.float64)
    n = np.add.reduceat(counts, np.cumsum(sizes) - sizes)[:, None]
    mean = np.empty((sizes.size, d))
    var = np.empty((sizes.size, d))
    centered = np.empty_like(data)
    for segs, rows, k in runs:
        block = data[rows].reshape(-1, k, d)
        w = weights[rows].reshape(-1, k)
        if k == 1:
            mean[segs] = block[:, 0]
        else:
            mean[segs] = np.einsum("gkd,gk->gd", block, w) / n[segs]
        c = centered[rows].reshape(-1, k, d)
        np.subtract(block, mean[segs].astype(dtype)[:, None, :], out=c)
        var[segs] = np.einsum("gkd,gk->gd", np.square(c), w) / n[segs]
    std = np.sqrt(var)
    out = np.concatenate([mean, std], axis=-1).astype(dtype)
    safe = np.where(std > 0, std, 1.0).astype(dtype)
    n = n.astype(dtype)

    def bwd(g):
        gm, gs = np.split(g, 2, axis=-1)
        gm = gm / n
        gs = gs / (n * safe)
        gx = np.empty_like(centered)
        for segs, rows, k in runs:
            block = gx[rows].reshape(-1, k, d)
            block[...] = gm[segs, None, :]
            block += gs[segs, None, :] * centered[rows].reshape(-1, k, d)
        gx *= counts[:, None].astype(dtype)
        return [gx]

    return ad._result(out, [x], bwd)


def adam_state():
    return SimpleNamespace(step=0, m=[], v=[])


def adam_step(params, grads, state, cfg):
    """One Adam update with bias correction, parameter by parameter: each
    Tensor's data is replaced by its updated array; mutates `state`."""
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


def nll(records, tau):
    """Mean negative log-likelihood of softmax(z / tau), the logits stacked
    anew at each call."""
    z = np.stack([r.logits for r in records]).astype(np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    labels = np.asarray([r.true_label for r in records])
    return float(np.mean(lse - z[np.arange(len(records)), labels]))


def fit_temperature(records):
    """tau of the golden-section search over log-tau in [-3, 3], each step
    scoring the records through `nll`; never worse than tau = 1."""

    def objective(log_tau):
        return nll(records, math.exp(log_tau))

    a, b = -3.0, 3.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    tau = math.exp((a + b) / 2)
    return 1.0 if nll(records, tau) > nll(records, 1.0) else tau


def posteriors(records, tau):
    """softmax(z / tau) of each record's logits alone, as float32."""
    return [apply_temperature(r.logits, tau).astype(np.float32) for r in records]


def predicted(r):
    """The class a row predicts: the argmax of its logits, ties to the
    lowest class."""
    return int(np.argmax(r.logits))


def reliability(records, posterior, n_bins):
    """(ReliabilityBins, per-bin confidence sums) with each row and its
    posterior binned and added in turn."""
    counts = np.zeros(n_bins, dtype=np.int64)
    conf_sum = np.zeros(n_bins)
    correct = np.zeros(n_bins)
    for r, p in zip(records, posterior):
        confidence = float(p[predicted(r)])
        # bins partition (0, 1]; a confidence exactly on an edge goes low
        b = min(max(int(math.ceil(confidence * n_bins)) - 1, 0), n_bins - 1)
        counts[b] += 1
        conf_sum[b] += confidence
        correct[b] += predicted(r) == r.true_label
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), 0.0)
        acc = np.where(counts > 0, correct / np.maximum(counts, 1), 0.0)
    return ReliabilityBins(n_bins, counts, mean_conf, acc), conf_sum


def ece(records, posterior, n_bins):
    bins, _ = reliability(records, posterior, n_bins)
    n = bins.counts.sum()
    if n == 0:
        return 0.0
    weights = bins.counts / n
    return float(np.sum(weights * np.abs(bins.accuracy - bins.mean_confidence)))


def confusion(records, num_classes):
    """(L, L) counts, rows = ground truth, columns = prediction, one record
    at a time."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for r in records:
        cm[r.true_label, predicted(r)] += 1
    return cm


def record_dict(r, posterior=None):
    """The JSON object of one row, with its posterior when given, in a
    predictions file."""
    d = {
        "parcel_id": int(r.parcel_id),
        "year_index": int(r.year_index),
        "logits": r.logits.tolist(),
        "true_label": int(r.true_label),
    }
    if posterior is not None:
        d["posterior"] = posterior.tolist()
    return d


def double_logistic(params, days):
    """Evaluate curves for one class: params (C, 6), days (T,) -> (C, T)."""
    days = np.asarray(days, dtype=np.float64)[None, :]
    base = params[:, 0:1]
    amp = params[:, 1:2]
    start = params[:, 2:3]
    end = params[:, 3:4]
    s1 = params[:, 4:5]
    s2 = params[:, 5:6]
    rise = 1.0 / (1.0 + np.exp(-s1 * (days - start)))
    fall = 1.0 / (1.0 + np.exp(-s2 * (days - end)))
    return base + amp * (rise - fall)


def acquisition_days(timesteps, rng):
    days = np.linspace(15, 350, timesteps) + rng.uniform(-4, 4, timesteps)
    days = np.round(days).astype(np.int64)
    for i in range(1, timesteps):
        days[i] = max(days[i], days[i - 1] + 1)
    return np.clip(days, 1, 366)


def generate_synthetic(config):
    """The synthetic parcels of `config`, each parcel-year's days, curves
    and pixels computed as it is drawn."""
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    kernel = config.transition_matrix()
    curves = config.phenology_curves()
    L, I, C = config.num_classes, config.num_years, config.channels
    shift = config.year_shift * rng.uniform(-1, 1, (I, C))
    parcels = []
    for pid in range(config.parcels):
        centroid = tuple(rng.uniform(0, config.area_size, 2))
        labels = [int(rng.integers(L))]
        for _ in range(1, I):
            labels.append(int(rng.choice(L, p=kernel[labels[-1]])))
        samples = []
        for i in range(I):
            n_p = int(rng.integers(config.pixels_min, config.pixels_max + 1))
            days = acquisition_days(config.timesteps, rng)
            clean = double_logistic(curves[labels[i]], days)  # (C, T)
            pix = clean[:, None, :] + shift[i][:, None, None]
            pix = pix + rng.normal(0, config.noise_std, (C, n_p, len(days)))
            samples.append(PixelSetSample(parcel_id=pid, year_index=i + 1,
                                          pixels=pix.astype(np.float32), days=days,
                                          label=labels[i]))
        parcels.append(MultiYearParcel(pid, centroid, samples))
    return parcels


def encode_rcds(parcels, num_classes, num_years=None, channels=None, version=FORMAT_VERSION,
                pixels=True):
    """Bytes of a `.rcds` file holding `parcels`, written value by value
    without any check.  The header gives `version`, the parcel count,
    `num_years` and `channels` (by default the first parcel's year count
    and its first sample's channels) and `num_classes`.  A sample's T is
    its number of days and its N_p the second size of its pixels.  Without
    `pixels` the file ends before its pixels column."""
    samples = [s for p in parcels for s in p.samples]
    if num_years is None:
        num_years = len(parcels[0].samples) if parcels else 0
    if channels is None:
        channels = samples[0].pixels.shape[0] if samples else 0
    raw = [MAGIC, _HEADER.pack(version, len(parcels), num_years, channels, num_classes)]
    raw += [_U64.pack(p.parcel_id) for p in parcels]
    raw += [_F64.pack(v) for p in parcels for v in p.centroid]
    raw += [U16.pack(s.label) for s in samples]
    raw += [U16.pack(len(s.days)) for s in samples]
    raw += [U32.pack(s.pixels.shape[1]) for s in samples]
    raw += [U16.pack(d) for s in samples for d in s.days]
    if pixels:
        raw += [np.asarray(s.pixels, "<f4").tobytes() for s in samples]
    return b"".join(raw)


def load_dataset(path):
    """The `parcels`, `num_classes` and `manifest` of the dataset in the
    `.rcds` file `path`: each column's bounds checked whole, as
    `Reader.array` checks them, then its values read one at a time through
    `Reader.unpack` and checked in a Python loop before the next column is
    read; the same checks, in the same order and with the same messages,
    as `croprot.data.load_dataset`."""
    path = str(path)
    r = Reader(path, "RCDS")
    r.magic(MAGIC)
    version, n_parcels, num_years, channels, num_classes = r.unpack(_HEADER, "header")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {version} (this reader reads version "
                              f"{FORMAT_VERSION}; regenerate with croprot synth)")
    n = n_parcels * num_years

    def column(name, st, count):
        """(the column's `count` values, its offset)."""
        start = r.offset
        r.take(st.size * count, name)
        r.offset = start
        return [r.unpack(st, name)[0] for _ in range(count)], start

    def refuse(where, fault, name, offset):
        raise DataFormatError(f"{where}: {fault} ({name} at offset {offset})")

    def sample(k):
        return f"parcel {ids[k // num_years]}, year {k % num_years + 1}"

    ids, at = column("parcel ids", _U64, n_parcels)
    seen = set()
    for i, pid in enumerate(ids):
        if pid in seen:
            refuse(f"parcel {pid}", "id appears more than once", "parcel ids", at + 8 * i)
        seen.add(pid)
    xy, at = column("centroids", _F64, 2 * n_parcels)
    for j, v in enumerate(xy):
        if not math.isfinite(v):
            i = j // 2
            refuse(f"parcel {ids[i]}", f"non-finite centroid {(xy[2 * i], xy[2 * i + 1])}",
                   "centroids", at + 8 * j)
    labels, at = column("labels", U16, n)
    for k, label in enumerate(labels):
        if label >= num_classes:
            refuse(sample(k), f"label {label} outside [0, {num_classes})", "labels", at + 2 * k)
    ts, at = column("date counts", U16, n)
    for k, t in enumerate(ts):
        if t == 0:
            refuse(sample(k), "no dates: a sample needs at least one", "date counts", at + 2 * k)
    nps, at = column("pixel counts", U32, n)
    for k, n_p in enumerate(nps):
        if n_p == 0:
            refuse(sample(k), "no pixels: a sample needs at least one", "pixel counts",
                   at + 4 * k)
    flat, at = column("days", U16, sum(ts))
    days, j = [], 0
    for k, t in enumerate(ts):
        for i in range(j, j + t):
            if not 1 <= flat[i] <= 366:
                refuse(sample(k), "days must lie in [1, 366]", "days", at + 2 * i)
            if i > j and flat[i] <= flat[i - 1]:
                refuse(sample(k), "days must be strictly increasing", "days", at + 2 * i)
        days.append(np.array(flat[j:j + t], np.int64))
        j += t
    flat, at = column("pixels", _F32, sum(channels * n_p * t for n_p, t in zip(nps, ts)))
    pixels, j = [], 0
    for k, (n_p, t) in enumerate(zip(nps, ts)):
        size = channels * n_p * t
        for i in range(j, j + size):
            if not math.isfinite(flat[i]):
                refuse(sample(k), "non-finite pixel value", "pixels", at + 4 * i)
        pixels.append(np.array(flat[j:j + size], np.float32).reshape(channels, n_p, t))
        j += size
    r.finish()
    parcels = []
    for i, pid in enumerate(ids):
        samples = [PixelSetSample(pid, y + 1, pixels[k], days[k], labels[k])
                   for y, k in enumerate(range(i * num_years, (i + 1) * num_years))]
        parcels.append(MultiYearParcel(pid, (xy[2 * i], xy[2 * i + 1]), samples))
    manifest = None
    if os.path.exists(path + ".json"):
        manifest = read_json(path + ".json", "dataset sidecar")
        _check_class_names(manifest, num_classes, path + ".json")
    return SimpleNamespace(parcels=parcels, num_classes=int(num_classes), manifest=manifest)


def items_of(pairs):
    """The _Items of a list of distinct (parcel, year) pairs, items
    selected as `_select` does and read from the parcel objects, each
    parcel's samples from the first pair that names its id."""
    ids = np.array([p.parcel_id for p, _ in pairs], np.uint64).reshape(-1)
    distinct, first, row = np.unique(ids, return_index=True, return_inverse=True)
    parcel, years, past = _select(row.reshape(-1).astype(np.int64),
                                  np.array([y for _, y in pairs], np.int64).reshape(-1))
    samples = [pairs[first[i]][0].samples[y - 1] for i, y in zip(parcel.tolist(), years.tolist())]
    ts = np.array([s.days.size for s in samples], np.int64).reshape(-1)
    days = np.zeros((len(samples), ts.max(initial=0)), np.int64)
    for d, s in zip(days, samples):
        d[:s.days.size] = s.days
    pixels = np.empty(len(samples), object)
    for i, s in enumerate(samples):
        pixels[i] = s.pixels
    return _Items(distinct[parcel], years,
                  np.array([s.label for s in samples], np.int64).reshape(-1),
                  np.array([s.pixels.shape[1] for s in samples], np.int64).reshape(-1),
                  ts, pixels, days, past)

