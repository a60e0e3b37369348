import collections
import dataclasses
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from croprot.data import (
    MAX_TIMESTEPS,
    SYNTH_CHUNK,
    Columns,
    Dataset,
    FoldAssignment,
    MultiYearParcel,
    PixelSetSample,
    SyntheticConfig,
    _acquisition_days,
    _splitmix64,
    block_folds,
    distinct_columns,
    draw_keys,
    generate_synthetic,
    load_dataset,
    load_folds,
    make_folds,
    sample_pixels,
    save_dataset,
    save_folds,
    config_to_manifest,
)
from croprot import data
from croprot.errors import ConfigError, ContractError, DataFormatError
from croprot.training import _Items

import oracles

from conftest import assert_items_equal, expand_draws, one_sample_file, one_sample_parcel


def _samples_of(parcels_or_columns):
    """(days, pixels) of each sample, parcel by parcel and year by year: a
    list's from its sample objects, `Columns`' through `sample_arrays`."""
    if isinstance(parcels_or_columns, Columns):
        days, pixels = parcels_or_columns.sample_arrays()
        return list(zip(days.ravel().tolist(), pixels.ravel().tolist()))
    return [(s.days, s.pixels) for p in parcels_or_columns for s in p.samples]


class TestGenerator:
    def test_permanent_only_labels_constant(self):
        cfg = SyntheticConfig(
            num_classes=4,
            parcels=100,
            permanent_classes=(0, 1, 2, 3),
            permanent_stay=1.0,
            cycles=(),
            seed=3,
        )
        for p in generate_synthetic(cfg):
            assert len(set(p.labels)) == 1

    def test_observed_rotations_bounded(self):
        cfg = SyntheticConfig(
            num_classes=20,
            num_years=3,
            parcels=300,
            permanent_classes=(0,),
            cycles=((1, 2),),
            seed=5,
        )
        rotations = {tuple(p.labels) for p in generate_synthetic(cfg)}
        assert len(rotations) <= 20**3

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(parcels=25, seed=11)
        for name in ("a", "b"):
            save_dataset(
                tmp_path / name, generate_synthetic(cfg), cfg.num_classes
            )
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(permanent_stay=1.5).validate()

    @pytest.mark.parametrize("change", [
        {"pixels_min": 9, "pixels_max": 8},
        {"curve_groups": ((5, 8),)},
        {"curve_groups": ((-1, 2),)},
    ])
    def test_pixel_range_and_curve_groups_checked(self, change):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(parcels=5, **change))

    @pytest.mark.parametrize("change", [
        {"pixels_min": 0, "pixels_max": 0}, {"num_years": 0}, {"channels": 0}, {"parcels": 0},
        {"seed": -1}, {"noise_std": -0.1}, {"year_shift": float("nan")}, {"area_size": 0.0},
        # above what the .rcds header holds or a year's dates can place
        {"num_years": 256}, {"channels": 65536}, {"num_classes": 65536},
        {"timesteps": MAX_TIMESTEPS + 1},
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_ranges_checked(self, change):
        # pixels_min = pixels_max = 0 used to generate parcels with no pixels
        with pytest.raises(ConfigError, match=next(iter(change))):
            generate_synthetic(SyntheticConfig(**change))

    def test_max_timesteps_is_the_most_days_always_placed(self):
        for t, fits in ((MAX_TIMESTEPS, True), (MAX_TIMESTEPS + 1, False)):
            # every date as late as its jitter in [-4, 4) allows
            days = _acquisition_days(np.full(t, np.nextafter(4.0, -4.0)))
            assert (np.diff(days) > 0).all() == fits
        for seed in range(200):
            days = _acquisition_days(np.random.default_rng(seed).uniform(-4, 4, MAX_TIMESTEPS))
            assert days[0] >= 1 and (np.diff(days) > 0).all() and days[-1] <= 366

    def test_kernel_rows_normalized(self):
        m = SyntheticConfig(seed=1).transition_matrix()
        assert np.all(m >= 0) and np.all(m <= 1)
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_transition_frequencies_match_kernel(self):
        # pooled chi-squared goodness of fit across all source classes; a
        # single test at alpha = 0.01 avoids the multiple-comparisons
        # false-alarm rate of testing every row separately
        cfg = SyntheticConfig(
            parcels=10_000, channels=2, timesteps=4, pixels_min=1,
            pixels_max=2, seed=13,
        )
        parcels = generate_synthetic(cfg)
        kernel = cfg.transition_matrix()
        counts = np.zeros((cfg.num_classes, cfg.num_classes))
        for p in parcels:
            labels = p.labels
            for a, b in zip(labels, labels[1:]):
                counts[a, b] += 1
        stat = 0.0
        dof = 0
        for a in range(cfg.num_classes):
            n = counts[a].sum()
            if n < 200:
                continue
            expected = kernel[a] * n
            keep = expected > 5
            observed = counts[a][keep]
            scaled = expected[keep] * observed.sum() / expected[keep].sum()
            stat += ((observed - scaled) ** 2 / scaled).sum()
            dof += keep.sum() - 1
        assert dof > 0
        pvalue = stats.chi2.sf(stat, dof)
        assert pvalue > 0.01, f"transition counts deviate from the kernel (p={pvalue:.4g})"


# draw_keys((0,), [0, 1, 7], [1, 2, 3]) and the draws of S = 6 from 3, 8
# and 20 pixels under those keys
GOLDEN_KEYS = [3400964856525257824, 6768782832058643234, 1377067358039863116]
GOLDEN_COLUMNS = [[0, 1, 2, 0, 0, 0], [3, 2, 7, 1, 5, 0], [3, 4, 11, 7, 13, 6]]
GOLDEN_COUNTS = [[2, 2, 2, 0, 0, 0], [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]]


def _keys(n, seed=0):
    return draw_keys((seed,), np.arange(n), np.ones(n, dtype=np.int64))


def _reference_draw(key, n_p, s):
    """Scalar restatement of the draw rule: (columns, counts) of one item."""
    col_key = [_splitmix64(key ^ j) for j in range(max(n_p, s))]
    if n_p >= s:
        kept = sorted(range(n_p), key=lambda j: (col_key[j], j))[:s]
        return kept, [1] * s
    tally = collections.Counter((col_key[j] >> 32) * n_p >> 32 for j in range(s))
    kept = sorted(tally)
    return kept, [tally[c] for c in kept]


def _same_parcels(got, want):
    """Assert equal ids, centroids and labels, and per parcel-year equal
    days and pixels of equal bytes, dtype and shape."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert (p.parcel_id, p.centroid, p.labels) == (q.parcel_id, q.centroid, q.labels)
        assert [s.year_index for s in p.samples] == [s.year_index for s in q.samples]
        for s, t in zip(p.samples, q.samples):
            assert s.days.dtype == t.days.dtype and np.array_equal(s.days, t.days)
            assert (s.pixels.dtype, s.pixels.shape) == (t.pixels.dtype, t.pixels.shape)
            assert s.pixels.tobytes() == t.pixels.tobytes()


class TestChunkedGenerator:
    """`generate_synthetic` builds days, curves and pixels a chunk of
    parcels at a time; the reference builds them per parcel-year as it
    draws.  Both make the same draws, so their parcels are equal."""

    SMALL = dict(channels=2, timesteps=5, pixels_min=1, pixels_max=4)

    @pytest.mark.parametrize("parcels", [SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1,
                                         2 * SYNTH_CHUNK + 1])
    def test_chunk_boundaries(self, parcels):
        cfg = SyntheticConfig(parcels=parcels, seed=parcels, **self.SMALL)
        _same_parcels(generate_synthetic(cfg), oracles.generate_synthetic(cfg))

    @pytest.mark.parametrize("change", [
        {"num_years": 1}, {"num_years": 5}, {"timesteps": 4}, {"timesteps": MAX_TIMESTEPS},
        {"pixels_min": 3, "pixels_max": 3}, {"noise_std": 0.0}, {"year_shift": 0.0},
        {"curve_groups": ((0, 1), (2, 3, 5))},
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_edge_configs(self, change):
        cfg = SyntheticConfig(parcels=12, seed=7, **change)
        _same_parcels(generate_synthetic(cfg), oracles.generate_synthetic(cfg))

    def test_default_chunk_experiment_shapes(self):
        # criterion 8's shapes over two full chunks and a part one
        cfg = SyntheticConfig(num_classes=8, channels=4, timesteps=12,
                              parcels=2 * SYNTH_CHUNK + 5, pixels_min=4, pixels_max=16,
                              year_shift=0.3, other_within=0.5,
                              curve_groups=((0, 1), (2, 3)), seed=101)
        _same_parcels(generate_synthetic(cfg), oracles.generate_synthetic(cfg))

    # chunks of up to 1000 parcels whose few pixels fill little of the
    # chunk's table, reserved for pixels_max per sample
    @given(chunk=st.sampled_from([1, 2, 3, 4, 5, 6, 32, 1000]), parcels=st.integers(1, 40),
           num_years=st.integers(1, 4), num_classes=st.integers(2, 6),
           channels=st.integers(1, 3), timesteps=st.integers(4, 9),
           pixels=st.integers(1, 16).flatmap(lambda low: st.tuples(st.just(low),
                                                                   st.integers(low, 16))),
           noise_std=st.sampled_from([0.0, 0.05, 1.0]),
           area_size=st.floats(1e-6, 1e12) | st.sampled_from([1.0, 10000.0, 1e300]),
           year_shift=st.floats(0.0, 2.0), seed=st.integers(0, 2**32))
    def test_small_configs(self, chunk, parcels, num_years, num_classes, channels, timesteps,
                           pixels, noise_std, area_size, year_shift, seed):
        cfg = SyntheticConfig(num_classes=num_classes, num_years=num_years, channels=channels,
                              timesteps=timesteps, parcels=parcels, pixels_min=pixels[0],
                              pixels_max=pixels[1], noise_std=noise_std, year_shift=year_shift,
                              area_size=area_size, permanent_classes=(0,), cycles=((1,),),
                              seed=seed)
        with mock.patch.object(data, "SYNTH_CHUNK", chunk):
            got = generate_synthetic(cfg)
        _same_parcels(got, oracles.generate_synthetic(cfg))


class TestSamplePixels:
    def _sample(self, n_p=6, seed=0):
        cfg = SyntheticConfig(parcels=1, pixels_min=n_p, pixels_max=n_p, seed=seed)
        return generate_synthetic(cfg)[0].samples[0]

    @staticmethod
    def _drawn(sample, s, seed):
        """The sample's (C, S, T) drawn pixels, every draw as drawn."""
        columns, counts = sample_pixels(_keys(1, seed), [sample.n_pixels], s)
        return sample.pixels[:, expand_draws(columns, counts)[0], :]

    def test_exhaustive_draw_is_permutation(self):
        s = self._sample(n_p=5)
        drawn = self._drawn(s, 5, 0)
        # column multiset must match exactly
        got = sorted(drawn[:, i, :].tobytes() for i in range(5))
        want = sorted(s.pixels[:, i, :].tobytes() for i in range(5))
        assert got == want

    def test_single_pixel_repeated(self):
        s = self._sample(n_p=1)
        drawn = self._drawn(s, 4, 0)
        for i in range(4):
            assert np.array_equal(drawn[:, i, :], s.pixels[:, 0, :])

    def test_never_fabricates_values(self):
        s = self._sample(n_p=7)
        drawn = self._drawn(s, 3, 1)
        source = {s.pixels[:, i, :].tobytes() for i in range(7)}
        for i in range(3):
            assert drawn[:, i, :].tobytes() in source

    @pytest.mark.parametrize("s", [4, 8, 16, 32])
    def test_draws_match_scalar_reference(self, s):
        # one batched call over pixel counts on both sides of S equals the
        # rule applied to each item alone, with Python integers
        n_pixels = np.tile(np.arange(1, 2 * s + 2), 3)
        keys = _keys(len(n_pixels), seed=s)
        columns, counts = sample_pixels(keys, n_pixels, s)
        for key, n_p, cols, cnts in zip(keys, n_pixels, columns, counts):
            kept, n = _reference_draw(int(key), int(n_p), s)
            assert cols[: len(kept)].tolist() == kept and cnts[: len(n)].tolist() == n
            assert not cols[len(kept):].any() and not cnts[len(n):].any()

    @pytest.mark.parametrize("columns, kept, counts", [
        ([4, 0, 2], [0, 2, 4], [1, 1, 1]),        # no repeats: increasing order
        ([3, 1, 3, 3, 0], [0, 1, 3], [1, 1, 3]),  # repeats: increasing order
        ([0, 0, 0, 0], [0], [4]),
    ])
    def test_distinct_columns(self, columns, kept, counts):
        pad = [0] * (len(columns) - len(kept))
        got_kept, got_counts = distinct_columns(np.array([columns, columns[::-1]]))
        assert got_kept.tolist() == [kept + pad] * 2
        assert got_counts.tolist() == [counts + pad] * 2

    def test_golden_draws(self):
        # pins the draw stream: a change here changes every descriptor
        keys = draw_keys((0,), [0, 1, 7], [1, 2, 3])
        assert keys.tolist() == GOLDEN_KEYS
        columns, counts = sample_pixels(keys, [3, 8, 20], 6)
        assert columns.tolist() == GOLDEN_COLUMNS
        assert counts.tolist() == GOLDEN_COUNTS

    def test_no_repeats_without_replacement(self):
        n_pixels = np.random.default_rng(3).integers(8, 60, size=500)
        columns, counts = sample_pixels(_keys(500), n_pixels, 8)
        assert np.all(counts == 1)
        assert np.all(columns < n_pixels[:, None])
        assert all(len(set(row)) == 8 for row in columns.tolist())

    def test_counts_sum_to_s_and_padding_is_zero(self):
        n_pixels = np.random.default_rng(4).integers(1, 24, size=500)
        columns, counts = sample_pixels(_keys(500), n_pixels, 16)
        assert np.all(counts.sum(axis=1) == 16) and counts.min() >= 0
        kept = counts > 0
        # left-packed: no kept column after a pad, and a pad is column 0
        assert np.all(kept[:, :-1] | ~kept[:, 1:])
        assert not columns[~kept].any()
        assert np.all(columns < n_pixels[:, None])
        for cols, k, n_p in zip(columns, kept, n_pixels):
            if n_p < 16:  # with replacement: distinct, increasing columns
                assert np.all(np.diff(cols[k]) > 0)

    def test_batch_composition_does_not_matter(self):
        n_pixels = np.random.default_rng(5).integers(1, 40, size=64)
        keys = _keys(64)
        columns, counts = sample_pixels(keys, n_pixels, 8)
        perm = np.random.default_rng(6).permutation(64)
        got = sample_pixels(keys[perm], n_pixels[perm], 8)
        assert np.array_equal(got[0], columns[perm]) and np.array_equal(got[1], counts[perm])
        for i in range(0, 64, 7):
            one = sample_pixels(keys[i : i + 1], n_pixels[i : i + 1], 8)
            assert np.array_equal(one[0][0], columns[i]) and np.array_equal(one[1][0], counts[i])

    @pytest.mark.parametrize("n_p, s", [(3, 2), (5, 4), (3, 8), (7, 16)])
    def test_single_column_frequencies_uniform(self, n_p, s):
        columns, counts = sample_pixels(_keys(20000, seed=n_p), [n_p] * 20000, s)
        freq = np.bincount(columns.ravel(), weights=counts.ravel(), minlength=n_p)
        assert freq.sum() == 20000 * s
        _, pvalue = stats.chisquare(freq)
        assert pvalue > 1e-3, f"column frequencies {freq} (p={pvalue:.3g})"

    @pytest.mark.parametrize("n_p, s, ordered", [(4, 2, True), (6, 3, False), (5, 5, True)])
    def test_subset_frequencies_uniform(self, n_p, s, ordered):
        # without replacement every ordered draw (or S-subset) is equally likely
        columns, _ = sample_pixels(_keys(30000, seed=s), [n_p] * 30000, s)
        seen = collections.Counter(
            tuple(row) if ordered else tuple(sorted(row)) for row in columns.tolist()
        )
        outcomes = math.perm(n_p, s) if ordered else math.comb(n_p, s)
        assert len(seen) == outcomes
        _, pvalue = stats.chisquare(list(seen.values()))
        assert pvalue > 1e-3, f"{outcomes} outcomes (p={pvalue:.3g})"

    def test_refusals(self):
        with pytest.raises(ContractError):
            sample_pixels(_keys(2), [3, 4], 0)
        with pytest.raises(ContractError):
            sample_pixels(_keys(2), [3, 0], 4)
        with pytest.raises(ContractError):
            sample_pixels(_keys(2), [3], 4)

    def test_draw_means_converge(self):
        s = self._sample(n_p=10, seed=4)
        columns, counts = sample_pixels(_keys(1000, seed=2), [10] * 1000, 4)
        parcel_mean = s.pixels.mean(axis=(1, 2))
        draws = np.stack(
            [s.pixels[:, row, :].mean(axis=(1, 2)) for row in expand_draws(columns, counts)]
        )
        overall = draws.mean(axis=0)
        sem = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(overall - parcel_mean) < 3 * np.maximum(sem, 1e-9))


@pytest.fixture(scope="module")
def fold_parcels():
    return generate_synthetic(
        SyntheticConfig(
            parcels=1000, channels=2, timesteps=4, pixels_min=1, pixels_max=1, seed=9
        )
    )


class TestFolds:

    def test_same_block_same_fold(self, fold_parcels):
        parcels = fold_parcels
        fa = make_folds(parcels, 5, 1000)
        block_of = {}
        for p in parcels:
            b = (int(p.centroid[0] // 1000), int(p.centroid[1] // 1000))
            block_of.setdefault(b, set()).add(fa.folds[p.parcel_id])
        assert all(len(fold_set) == 1 for fold_set in block_of.values())

    def test_partition(self, fold_parcels):
        parcels = fold_parcels
        fa = make_folds(parcels, 5, 1000)
        assert set(fa.folds) == {p.parcel_id for p in parcels}
        assert set(fa.folds.values()) <= set(range(5))

    def test_fold_sizes_balanced(self, fold_parcels):
        parcels = fold_parcels
        fa = make_folds(parcels, 5, 1000)
        sizes = collections.Counter(fa.folds.values())
        for f in range(5):
            assert 0.10 * len(parcels) <= sizes[f] <= 0.30 * len(parcels)

    def test_too_many_folds(self, fold_parcels):
        # more folds than grid blocks is a k out of range for the data
        parcels = fold_parcels
        with pytest.raises(ContractError, match="^only 1 spatial block for 5 folds; decrease "):
            make_folds(parcels, 5, 1_000_000)

    def test_k_below_two(self, fold_parcels):
        parcels = fold_parcels
        with pytest.raises(ContractError):
            make_folds(parcels, 1, 1000)

    @pytest.mark.parametrize("k, folds, block_size", [
        (1, {}, 10.0), (3, {}, 0.0), (3, {}, float("inf")), (3, {}, float("nan")),
        (3, {5: 3}, 10.0), (3, {5: -1}, 10.0),
    ])
    def test_validate(self, k, folds, block_size):
        FoldAssignment(3, {5: 2}, 10.0).validate()
        with pytest.raises(ContractError):
            FoldAssignment(k, folds, block_size).validate()

    def test_split(self, fold_parcels):
        fa = make_folds(fold_parcels, 5, 1000)
        ids = [p.parcel_id for p in fold_parcels]
        fold_of = [fa.folds[pid] for pid in ids]
        for fold in range(5):
            train, val, test = fa.split_rows(ids, fold)
            # train is fold-major, each fold's rows in dataset order
            in_order = [i for f in range(5) if f not in (fold, (fold + 1) % 5)
                        for i, pf in enumerate(fold_of) if pf == f]
            assert train.tolist() == in_order
            assert val.tolist() == [i for i, f in enumerate(fold_of) if f == (fold + 1) % 5]
            assert test.tolist() == [i for i, f in enumerate(fold_of) if f == fold]
            assert sorted(ids[i] for i in [*train, *val, *test]) == list(range(1000))

    @pytest.mark.parametrize("fold", [-1, 5])
    def test_split_refuses_fold_outside_k(self, fold_parcels, fold):
        with pytest.raises(ContractError, match=f"fold {fold} outside"):
            make_folds(fold_parcels, 5, 1000).split_rows([p.parcel_id for p in fold_parcels], fold)

    @pytest.mark.parametrize("centroid, block_size", [
        ((1e300, 0.0), 1e-300), ((5.0, 5.0), 1e-320), ((float("nan"), 0.0), 1.0)])
    def test_block_without_finite_index_refused(self, fold_parcels, centroid, block_size):
        parcels = [MultiYearParcel(10**6, centroid, [])] + fold_parcels[:3]
        with pytest.raises(DataFormatError, match=r"parcel 1000000: centroid .* no finite grid"):
            make_folds(parcels, 2, block_size)

    def test_block_folds_of_columns_equal_make_folds(self, fold_parcels):
        # split's id and centroid columns give the folds, in order, of the
        # parcel list
        columns = Columns.of(fold_parcels)
        got = block_folds(columns.ids.tolist(), columns.centroids.tolist(), 5, 1000, salt=3)
        want = make_folds(fold_parcels, 5, 1000, salt=3)
        assert list(got.folds.items()) == list(want.folds.items())


class TestFoldsFile:
    def test_round_trip(self, tmp_path, fold_parcels):
        fa = make_folds(fold_parcels, 5, 1000)
        save_folds(tmp_path / "folds.json", fa)
        assert load_folds(tmp_path / "folds.json", [p.parcel_id for p in fold_parcels]) == fa
        ends = FoldAssignment(3, {0: 1, 2**64 - 1: 2}, 7.5)
        save_folds(tmp_path / "ends.json", ends)
        assert load_folds(tmp_path / "ends.json", []) == ends

    def test_compact_json_loads(self, tmp_path):
        # `str(pid)` keys written by json.dump without indent
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"k": 2, "block_size": 1.0, "folds": {"5": 0, "60": 1}}))
        assert load_folds(path, []) == FoldAssignment(2, {5: 0, 60: 1}, 1.0)

    @pytest.mark.parametrize("key", ["05", " 6", "6 ", "5_0", "-3", "+5", "", "x",
                                     "\u0665", str(2**64), "1" * 21])
    def test_key_not_an_id_text_refused(self, tmp_path, key):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"k": 2, "block_size": 1.0, "folds": {"5": 0, key: 1}}))
        with pytest.raises(DataFormatError, match=re.escape(f"key {key!r} is not")):
            load_folds(path, [])


    @pytest.mark.parametrize("fold, text", [(1.0, "1.0"), (True, "true"), ("1", '"1"'),
                                            (None, "null"), ([1], "[1]")], ids=repr)
    def test_fold_not_an_integer_refused(self, tmp_path, fold, text):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"k": 2, "block_size": 1.0, "folds": {"5": 0, "6": fold}}))
        with pytest.raises(DataFormatError, match=re.escape(
                f"folds file {path}: folds: {text} is not an integer")):
            load_folds(path, [])

    @pytest.mark.parametrize("fold", [2, -1, 10**30, -(10**30)])
    def test_fold_outside_k_refused(self, tmp_path, fold):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"k": 2, "block_size": 1.0, "folds": {"5": 0, "6": fold}}))
        with pytest.raises(DataFormatError, match=f"parcel 6 has fold {fold}, not one in"):
            load_folds(path, [])


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        cfg = SyntheticConfig(parcels=12, seed=21)
        parcels = generate_synthetic(cfg)
        path = tmp_path / "ds.rcds"
        save_dataset(path, parcels, cfg.num_classes, config_to_manifest(cfg))
        ds = load_dataset(path)
        columns = ds.columns
        assert ds.num_classes == cfg.num_classes
        assert columns.ids.tolist() == [p.parcel_id for p in parcels]
        assert columns.centroids.tolist() == [list(p.centroid) for p in parcels]
        assert columns.labels.tolist() == [p.labels for p in parcels]
        for (days, pixels), s in zip(_samples_of(columns), _samples_of(parcels)):
            assert np.array_equal(pixels, s[1]) and np.array_equal(days, s[0])
        assert ds.manifest["generator"]["seed"] == 21

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "ds.rcds"
        save_dataset(path, generate_synthetic(SyntheticConfig(parcels=2, seed=0)), 8)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="RCDS"):
            load_dataset(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "ds.rcds"
        save_dataset(path, generate_synthetic(SyntheticConfig(parcels=2, seed=0)), 8)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="offset"):
            load_dataset(path)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "ds.rcds"
        save_dataset(path, [], 8)
        ds = load_dataset(path)
        assert (len(ds.columns), ds.num_years, ds.num_channels) == (0, 0, 0)
        assert [a.size for a in ds.columns.sample_arrays()] == [0, 0]

    def test_label_out_of_range_rejected_on_load(self, tmp_path):
        # written by hand: a 3-class header with a label 7, which the
        # writer refuses to produce
        raw = one_sample_file(label=7)
        path = tmp_path / "ds.rcds"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="label 7"):
            load_dataset(path)
        # the same file with label 2 loads
        path.write_bytes(one_sample_file(label=2))
        assert load_dataset(path).columns.labels.tolist() == [[2]]

    def test_label_out_of_range_rejected_on_save(self, tmp_path):
        parcels = generate_synthetic(SyntheticConfig(parcels=3, seed=0))
        parcels[1].samples[2].label = 8
        path = tmp_path / "ds.rcds"
        with pytest.raises(DataFormatError, match="label 8"):
            save_dataset(path, parcels, 8)
        assert not path.exists()

    def test_reversed_days_rejected_before_writing(self, tmp_path):
        # the bad sample is the last one written: no partial file is left
        parcels = generate_synthetic(SyntheticConfig(parcels=3, seed=0))
        parcels[2].samples[2].days = parcels[2].samples[2].days[::-1].copy()
        path = tmp_path / "ds.rcds"
        with pytest.raises(DataFormatError, match="strictly increasing"):
            save_dataset(path, parcels, 8)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected_on_load(self, tmp_path, value):
        path = tmp_path / "ds.rcds"
        path.write_bytes(one_sample_file(pixels=[0.5, value, 0.1, 0.2]))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_dataset(path)

    def test_non_finite_pixel_rejected_on_save(self, tmp_path):
        parcels = generate_synthetic(SyntheticConfig(parcels=3, seed=0))
        parcels[2].samples[1].pixels[0, 0, 3] = np.inf
        path = tmp_path / "ds.rcds"
        with pytest.raises(DataFormatError, match="non-finite"):
            save_dataset(path, parcels, 8)
        assert not path.exists()

    @pytest.mark.parametrize("days", [(0, 20, 30, 40), (10, 20, 30, 367), (10, 30, 20, 40)])
    def test_bad_days_are_a_data_error_on_load(self, tmp_path, days):
        path = tmp_path / "ds.rcds"
        path.write_bytes(one_sample_file(days=days))
        with pytest.raises(DataFormatError, match="days"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ds.rcds"
        save_dataset(path, generate_synthetic(SyntheticConfig(parcels=2, seed=0)), 8)
        path.write_bytes(path.read_bytes() + b"junk!!!")
        with pytest.raises(DataFormatError, match="7 trailing bytes.*RCDS"):
            load_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "ds.rcds"
        path.write_bytes(b"RCDS\x01")
        with pytest.raises(DataFormatError, match="truncated RCDS file.*header.*offset 4"):
            load_dataset(path)

    def test_non_finite_centroid_rejected(self, tmp_path):
        parcel = dataclasses.replace(one_sample_parcel(), centroid=(np.nan, 20.0))
        path = tmp_path / "ds.rcds"
        path.write_bytes(oracles.encode_rcds([parcel], 3))
        with pytest.raises(DataFormatError, match=r"^parcel 0: non-finite centroid \(nan, 20.0\) "
                                                  r"\(centroids at offset 25\)$"):
            load_dataset(path)
        parcels = generate_synthetic(SyntheticConfig(parcels=2, seed=0))
        parcels[1].centroid = (np.inf, 3.0)
        with pytest.raises(DataFormatError, match="centroid"):
            save_dataset(path, parcels, 8)

    def test_loaded_arrays(self, tmp_path):
        path = tmp_path / "ds.rcds"
        save_dataset(path, generate_synthetic(SyntheticConfig(parcels=3, seed=2)), 8)
        columns = load_dataset(path).columns
        assert (columns.ids.dtype, columns.labels.dtype) == (np.uint64, np.int64)
        for days, pixels in _samples_of(columns):
            assert pixels.dtype == np.float32 and pixels.flags.c_contiguous
            assert days.dtype == np.int64

    @staticmethod
    def _two_samples(first, second):
        """A one-parcel, two-year file of the samples of two
        `one_sample_parcel` calls.  Its columns start at: ids 17, centroids
        25, labels 41, date counts 45, pixel counts 49, days 57 and pixels
        73; the file ends at 105."""
        samples = [one_sample_parcel(**fields).samples[0] for fields in (first, second)]
        samples[1].year_index = 2
        return oracles.encode_rcds([MultiYearParcel(0, (10.0, 20.0), samples)], 3)

    @pytest.mark.parametrize("first, second, cut, match", [
        # a fault in a column wins over the truncation of a later column
        ({"days": (10, 30, 20, 40)}, {"pixels": [0.0, np.nan, 0.0, 0.0]}, 1,
         r"year 1: days must be strictly increasing \(days at offset 61\)"),
        ({"label": 5}, {}, 1, r"year 1: label 5 outside \[0, 3\) \(labels at offset 41\)"),
        ({}, {"label": 5}, 40, r"year 2: label 5 outside \[0, 3\) \(labels at offset 43\)"),
        # a truncated column is refused before its values are checked
        ({}, {"pixels": [0.0, np.nan, 0.0, 0.0]}, 1,
         "truncated RCDS file while reading pixels at offset 73: 32 bytes needed, 31 left"),
        ({}, {"days": (10, 30, 20, 40)}, 40,
         "truncated RCDS file while reading days at offset 57: 16 bytes needed, 8 left"),
    ], ids=["bad-days-then-cut-pixels", "bad-label-then-cut-pixels", "bad-label-then-cut-days",
            "cut-pixels-before-a-nan", "cut-days-before-bad-days"])
    def test_first_fault_in_file_order(self, tmp_path, first, second, cut, match):
        raw = self._two_samples(first, second)
        assert len(raw) == 105
        path = tmp_path / "ds.rcds"
        path.write_bytes(raw[:len(raw) - cut])
        for load in (load_dataset, oracles.load_dataset):
            with pytest.raises(DataFormatError, match=match):
                load(path)
        # without the other faults, the truncation is reported
        path.write_bytes(self._two_samples({}, {})[:-cut])
        with pytest.raises(DataFormatError, match="truncated RCDS file"):
            load_dataset(path)

    def test_version_1_refused(self, tmp_path):
        # the one-sample file under a version-1 header: a version-1 file
        # is regenerated, not read
        path = tmp_path / "ds.rcds"
        path.write_bytes(oracles.encode_rcds([one_sample_parcel()], 3, version=1))
        for load in (load_dataset, oracles.load_dataset):
            with pytest.raises(DataFormatError) as exc:
                load(path)
            assert str(exc.value) == ("unsupported format version 1 (this reader reads version "
                                      "2; regenerate with croprot synth)")

    @pytest.mark.parametrize("parcels, t", [(1, 1), (100, 366)])
    def test_huge_pixel_counts_refused_as_a_truncated_pixels_column(self, tmp_path, parcels, t):
        # 65 535 channels of 2^32 - 1 pixels per sample: C * N_p * T floats
        # overflow no count, and at 100 samples of 366 dates their sum is
        # beyond int64
        pixels = np.broadcast_to(np.float32(0), (65535, 2**32 - 1, t))
        days = np.arange(1, t + 1)
        raw = oracles.encode_rcds([
            MultiYearParcel(pid, (0.0, 0.0), [PixelSetSample(pid, 1, pixels, days, 0)])
            for pid in range(parcels)], 3, pixels=False)
        path = tmp_path / "ds.rcds"
        path.write_bytes(raw)
        want = (f"truncated RCDS file while reading pixels at offset {len(raw)}: "
                f"{4 * 65535 * (2**32 - 1) * t * parcels} bytes needed, 0 left")
        for load in (load_dataset, oracles.load_dataset):
            with pytest.raises(DataFormatError) as exc:
                load(path)
            assert str(exc.value) == want

    def test_loaded_columns_save_the_same_bytes(self, tmp_path):
        # the columns of a loaded file write it again
        cfg = SyntheticConfig(parcels=40, seed=5)
        first, second = tmp_path / "a.rcds", tmp_path / "b.rcds"
        save_dataset(first, generate_synthetic(cfg), cfg.num_classes, config_to_manifest(cfg))
        loaded = load_dataset(first)
        save_dataset(second, loaded.columns, loaded.num_classes, loaded.manifest)
        assert second.read_bytes() == first.read_bytes()
        assert (tmp_path / "b.rcds.json").read_bytes() == (tmp_path / "a.rcds.json").read_bytes()


def _drop_year(parcels):
    parcels[1].samples = parcels[1].samples[:2]


def _drop_channel(parcels):
    parcels[2].samples[1].pixels = parcels[2].samples[1].pixels[:3]


def _drop_day(parcels):
    parcels[0].samples[2].days = parcels[0].samples[2].days[:-1]


def _drop_pixels(parcels):
    parcels[1].samples[0].pixels = parcels[1].samples[0].pixels[:, :0]


def _negative_id(parcels):
    parcels[2].parcel_id = -1


def _flat_pixels(parcels):
    parcels[0].samples[1].pixels = parcels[0].samples[1].pixels[0]


def _float_days(parcels):
    parcels[2].samples[0].days = parcels[2].samples[0].days.astype(float)


def _float_label(parcels):
    parcels[1].samples[2].label = 2.7


def _huge_label(parcels):
    parcels[1].samples[2].label = 2**70


def _negative_label(parcels):
    parcels[1].samples[2].label = -1


@pytest.mark.parametrize("mutate, match", [
    (_drop_year, "parcel 1, year 3: the parcel has 2 years"),
    (_drop_channel, r"parcel 2, year 2: pixels \(3, "),
    (_drop_day, r"parcel 0, year 3: pixels \(4, \d+, 12\) and 11 dates"),
    (_drop_pixels, r"parcel 1, year 1: pixels \(4, 0, "),
    (_negative_id, r"parcel id -1 outside the integers in \[0, 2\^64\)"),
    (_flat_pixels, r"parcel 0, year 2: pixels of shape \(\d+, 12\)"),
    (_float_days, r"parcel 2, year 1: float64 days"),
    (_float_label, r"parcel 1, year 3: label 2.7; need an integer"),
    (_huge_label, r"parcel 1, year 3: label 1180591620717411303424; need an integer"),
    (_negative_label, r"parcel 1, year 3: label -1; need an integer"),
], ids=lambda v: getattr(v, "__name__", None))
def test_save_refuses_what_the_header_cannot_describe(tmp_path, mutate, match):
    parcels = generate_synthetic(SyntheticConfig(parcels=3, seed=0))
    mutate(parcels)
    path = tmp_path / "ds.rcds"
    with pytest.raises(DataFormatError, match=match):
        save_dataset(path, parcels, 8)
    assert not path.exists()


def test_save_refuses_sidecar_class_names(tmp_path):
    path = tmp_path / "ds.rcds"
    parcels = generate_synthetic(SyntheticConfig(parcels=2, seed=0))
    with pytest.raises(DataFormatError, match="class_names must be a list of 8 strings"):
        save_dataset(path, parcels, 8, {"class_names": ["a"]})
    assert not path.exists()


def test_save_refuses_a_manifest_json_cannot_encode(tmp_path):
    # the sidecar's text is made before the binary file is opened: neither
    # file is left
    path = tmp_path / "ds.rcds"
    parcels = generate_synthetic(SyntheticConfig(parcels=2, seed=0))
    with pytest.raises(DataFormatError, match=f"^dataset sidecar {path}.json: Object of type "
                                              "int64 is not JSON serializable$"):
        save_dataset(path, parcels, 8, {"n": np.int64(3)})
    assert list(tmp_path.iterdir()) == []


def test_repeated_parcel_id_refused_by_save_and_load(tmp_path):
    # a parcel-year is keyed by (id, year): a second parcel 0 would stand
    # in for the first in predict and embed
    path = tmp_path / "ds.rcds"
    parcels = generate_synthetic(SyntheticConfig(parcels=4, seed=0))
    # one parcel object named twice, and two objects with one id, meet one
    # refusal, as does a `Columns` that holds the id twice, built field by
    # field since `take` refuses a repeated row
    with pytest.raises(DataFormatError, match="^parcel 0: id appears more than once$"):
        save_dataset(path, parcels + parcels[:1], 8)
    columns, rows = data.Columns.of(parcels[:2]), np.array([0, 1, 0])
    twice = dataclasses.replace(columns, **{name: getattr(columns, name)[rows] for name in (
        "ids", "centroids", "labels", "ts", "n_pixels", "day_starts", "pixel_starts")})
    with pytest.raises(DataFormatError, match="^parcel 0: id appears more than once$"):
        save_dataset(path, twice, 8)
    parcels[1] = dataclasses.replace(parcels[1], parcel_id=0)
    with pytest.raises(DataFormatError, match="^parcel 0: id appears more than once$"):
        save_dataset(path, parcels, 8)
    assert not path.exists()
    path.write_bytes(oracles.encode_rcds(parcels, 8))
    for load in (load_dataset, oracles.load_dataset):
        with pytest.raises(DataFormatError) as exc:
            load(path)
        assert str(exc.value) == "parcel 0: id appears more than once (parcel ids at offset 25)"


@pytest.mark.parametrize("first, second", [((1, 2, 3), (4, 5, 6)), ((1,), (2,)),
                                           ((1, 2), (3, 4, 5))])
def test_centroid_not_two_numbers_refused_by_of_and_save(tmp_path, first, second):
    # centroids of three numbers, or of one, would fill the (P, 2) centroid
    # column with other parcels' values; centroids of two lengths do not
    # stack
    parcels = generate_synthetic(SyntheticConfig(parcels=2, seed=0))
    parcels = [dataclasses.replace(p, centroid=c) for p, c in zip(parcels, (first, second))]
    bad = next(p for p in parcels if len(p.centroid) != 2)
    want = f"parcel {bad.parcel_id}: centroid {bad.centroid!r}; need two numbers"
    with pytest.raises(ContractError) as exc:
        Columns.of(parcels)
    assert str(exc.value) == want
    path = tmp_path / "ds.rcds"
    with pytest.raises(DataFormatError) as exc:
        save_dataset(path, parcels, 8)
    assert str(exc.value) == want
    assert not path.exists()


def test_save_holds_the_file_once(tmp_path):
    # each column is written on its own: the traced peak holds the pixel
    # column and its finiteness check, not a second copy of the whole file
    parcels = generate_synthetic(SyntheticConfig(parcels=300, seed=0))
    path = tmp_path / "ds.rcds"
    tracemalloc.start()
    try:
        save_dataset(path, parcels, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_sample_without_dates_refused_by_save_and_load(tmp_path):
    # no descriptor can be encoded from no dates
    parcels = generate_synthetic(SyntheticConfig(parcels=3, seed=0))
    s = parcels[1].samples[0]
    s.days, s.pixels = s.days[:0], s.pixels[:, :, :0]
    path = tmp_path / "ds.rcds"
    with pytest.raises(DataFormatError) as saved:
        save_dataset(path, parcels, 8)
    assert str(saved.value) == "parcel 1, year 1: no dates: a sample needs at least one"
    assert not path.exists()
    path.write_bytes(oracles.encode_rcds(parcels, 8))
    for load in (load_dataset, oracles.load_dataset):
        with pytest.raises(DataFormatError) as loaded:
            load(path)
        assert str(loaded.value).startswith(f"{saved.value} (date counts at offset ")


def test_dataset_of_parcels_builds_columns_only_when_asked(monkeypatch):
    parcels = generate_synthetic(SyntheticConfig(parcels=5, seed=0))
    built = []
    of = data.Columns.of
    monkeypatch.setattr(data.Columns, "of", lambda parcels: built.append(1) or of(parcels))
    ds = Dataset(parcels=parcels, num_classes=8)
    assert ds.num_years == 3
    assert built == []
    columns = ds.columns
    assert built == [1] and ds.columns is columns and ds.num_channels == 4
    assert columns.ids.tolist() == [p.parcel_id for p in parcels]
    assert columns.centroids.tolist() == [list(p.centroid) for p in parcels]
    assert columns.labels.tolist() == [p.labels for p in parcels]
    # the columns share the parcels' day and pixel arrays
    assert all(d is s[0] and x is s[1]
               for (d, x), s in zip(_samples_of(columns), _samples_of(parcels)))


@pytest.mark.parametrize("parcels, years", [(1, 1), (4, 3)])
def test_columns_of_equal_shapes_keep_one_array_per_sample(parcels, years):
    # samples of one (C, N_p, T) shape and one T, which np.array would
    # stack into a block: the stores hold each sample's own arrays, and
    # the accessor hands them back
    cfg = SyntheticConfig(parcels=parcels, num_years=years, pixels_min=5, pixels_max=5, seed=2)
    parcels = generate_synthetic(cfg)
    columns = Columns.of(parcels)
    for store in (columns.days, columns.pixels):
        assert store.dtype == object and store.shape == (len(parcels) * years,)
    days, pixels = columns.sample_arrays()
    assert days.shape == pixels.shape == (len(parcels), years)
    for p, row_days, row_pixels in zip(parcels, days, pixels):
        assert [d is s.days for d, s in zip(row_days, p.samples)] == [True] * years
        assert [a is s.pixels for a, s in zip(row_pixels, p.samples)] == [True] * years
    taken = columns.take(np.array([-1]))
    assert taken.days is columns.days and taken.pixels is columns.pixels
    assert taken.sample_arrays()[1][0, 0] is parcels[-1].samples[0].pixels


def test_loaded_columns_build_views_on_use(tmp_path, views_built):
    # a load keeps the file's columns and each sample's start; `take`
    # shares them and builds no view, and each `sample_arrays` call builds
    # one view of each kind per sample of the columns it is called on
    parcels = generate_synthetic(SyntheticConfig(parcels=6, seed=1))
    path = tmp_path / "ds.rcds"
    save_dataset(path, parcels, 8)
    columns = load_dataset(path).columns
    taken = columns.take(np.array([4, 1]))
    assert (columns.num_channels, taken.num_channels, columns.take(np.array([], int)).num_channels,
            views_built) == (4, 4, 0, [])
    assert taken.days is columns.days and taken.pixels is columns.pixels
    days, pixels = taken.sample_arrays()
    assert views_built == [2 * 3, 2 * 3]
    taken.take(np.array([1])).sample_arrays()
    assert views_built == [2 * 3, 2 * 3, 3, 3]
    for p, got_days, got_pixels in zip([parcels[4], parcels[1]], days, pixels):
        assert [(a.shape, a.tobytes()) for a in got_pixels] == [
            (s.pixels.shape, s.pixels.tobytes()) for s in p.samples]
        assert [a.tolist() for a in got_days] == [s.days.tolist() for s in p.samples]


@pytest.mark.parametrize("rows", [[0, 0], [1, 2, 1], [0, -4]], ids=str)
def test_take_refuses_a_repeated_row(rows):
    # -4 is row 0 of four parcels; a repeated row would give its parcel's
    # items twice to predict and embed
    columns = Columns.of(generate_synthetic(SyntheticConfig(parcels=4, seed=3)))
    with pytest.raises(ContractError, match=f"^parcel {columns.ids[rows[0]]}: row given more "
                                            "than once$"):
        columns.take(np.array(rows))


@st.composite
def _datasets(draw, min_parcels=0):
    """(parcels, num_classes) that a `.rcds` file can hold."""
    num_classes = draw(st.integers(1, 5))
    num_years = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 3))
    coord = st.floats(allow_nan=False, allow_infinity=False)
    parcels = []
    for pid in draw(st.lists(st.integers(0, 2**64 - 1), min_size=min_parcels, max_size=4,
                             unique=True)):
        samples = []
        for year in range(1, num_years + 1):
            t = draw(st.integers(1, 4))
            days = sorted(draw(st.sets(st.integers(1, 366), min_size=t, max_size=t)))
            pixels = draw(hnp.arrays(np.float32, (channels, draw(st.integers(1, 3)), t),
                                     elements=st.floats(-1e6, 1e6, width=32)))
            samples.append(PixelSetSample(pid, year, pixels, np.array(days),
                                          draw(st.integers(0, num_classes - 1))))
        parcels.append(MultiYearParcel(pid, (draw(coord), draw(coord)), samples))
    return parcels, num_classes


@pytest.fixture(scope="module")
def rcds_path(tmp_path_factory):
    return tmp_path_factory.mktemp("rcds") / "ds.rcds"


@given(dataset=_datasets())
def test_saved_datasets_load_back(rcds_path, dataset):
    parcels, num_classes = dataset
    save_dataset(rcds_path, parcels, num_classes)
    assert rcds_path.read_bytes() == oracles.encode_rcds(parcels, num_classes)
    loaded = load_dataset(rcds_path)
    columns = loaded.columns
    assert loaded.num_classes == num_classes
    assert columns.ids.tolist() == [p.parcel_id for p in parcels]
    assert [tuple(c) for c in columns.centroids.tolist()] == [p.centroid for p in parcels]
    assert columns.labels.tolist() == [p.labels for p in parcels]
    for (days, pixels), s in zip(_samples_of(columns), _samples_of(parcels), strict=True):
        assert np.array_equal(pixels, s[1]) and np.array_equal(days, s[0])


@given(dataset=_datasets(), data=st.data())
def test_every_form_reads_the_same_samples(rcds_path, dataset, data):
    # a parcel list, its `Columns.of` and its saved-and-loaded file, and a
    # `take` of each in a drawn row order: every form gives each sample's
    # days and pixels, and each taken form saves the bytes the oracle
    # encodes for those parcels in that order
    parcels, num_classes = dataset
    save_dataset(rcds_path, parcels, num_classes)
    order = data.draw(st.permutations(range(len(parcels))), "order")
    rows = np.array(order[:data.draw(st.integers(0, len(order)), "count")], np.int64)
    chosen = [parcels[i] for i in rows.tolist()]
    forms = [parcels, Columns.of(parcels), load_dataset(rcds_path).columns]
    taken = [chosen] + [columns.take(rows) for columns in forms[1:]]

    def arrays(form):
        return [(a.shape, a.tobytes()) for sample in _samples_of(form) for a in sample]

    assert [arrays(form) for form in forms] == [arrays(parcels)] * 3
    assert [arrays(form) for form in taken] == [arrays(chosen)] * 3
    want = oracles.encode_rcds(chosen, num_classes)
    saved = rcds_path.with_name("taken.rcds")
    for form in taken:
        save_dataset(saved, form, num_classes)
        assert saved.read_bytes() == want


@given(dataset=_datasets(), data=st.data())
def test_items_of_every_form_equal_the_oracle(rcds_path, dataset, data):
    # the items of a parcel list's `Columns.of`, of its saved-and-loaded
    # file and of a `take` of each in a drawn row order are, field by
    # field, those the oracle reads from the parcel objects
    parcels, num_classes = dataset
    save_dataset(rcds_path, parcels, num_classes)
    order = data.draw(st.permutations(range(len(parcels))), "order")
    rows = np.array(order[:data.draw(st.integers(0, len(order)), "count")], np.int64)
    chosen = [parcels[i] for i in rows.tolist()]
    for columns in (Columns.of(parcels), load_dataset(rcds_path).columns):
        assert_items_equal(_Items.of_columns(columns), oracles.items_of(parcels))
        assert_items_equal(_Items.of_columns(columns.take(rows)), oracles.items_of(chosen))


@given(dataset=_datasets(min_parcels=1), data=st.data())
def test_one_bad_sample_refused_by_save_and_load(rcds_path, dataset, data):
    parcels, num_classes = dataset
    p = data.draw(st.sampled_from(parcels), "parcel")
    s = data.draw(st.sampled_from(p.samples), "sample")
    j = data.draw(st.integers(0, s.days.size - 1), "index")
    fault = data.draw(st.sampled_from(["pixel", "label", "day", "order"]), "fault")
    if fault == "pixel":
        s.pixels.reshape(-1)[data.draw(st.integers(0, s.pixels.size - 1), "pixel")] = np.nan
    elif fault == "label":
        s.label = data.draw(st.integers(num_classes, 0xFFFF), "label")
    elif fault == "day":
        s.days[j] = data.draw(st.sampled_from([0, 367, 0xFFFF]), "day")
    else:  # a repeated day; the first day has none before it, so it becomes 0
        s.days[j] = s.days[j - 1] if j else 0
    rcds_path.unlink(missing_ok=True)
    with pytest.raises(DataFormatError) as saved:
        save_dataset(rcds_path, parcels, num_classes)
    assert not rcds_path.exists()
    assert str(saved.value).startswith(f"parcel {p.parcel_id}, year {s.year_index}: ")
    rcds_path.write_bytes(oracles.encode_rcds(parcels, num_classes))
    for load in (load_dataset, oracles.load_dataset):
        with pytest.raises(DataFormatError) as loaded:
            load(rcds_path)
        suffix = r" \((labels|days|pixels) at offset \d+\)"
        assert re.fullmatch(re.escape(str(saved.value)) + suffix, str(loaded.value))
