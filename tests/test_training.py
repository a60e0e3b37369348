import dataclasses
import functools
import resource

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from croprot import analytics, autodiff as ad, encoders, heads, training
from croprot.binio import predictions, read_predictions, write_predictions
from croprot.calibration import reliability
from croprot.data import (
    Columns,
    Dataset,
    MultiYearParcel,
    PixelSetSample,
    SyntheticConfig,
    generate_synthetic,
    draw_keys,
    load_dataset,
    make_folds,
    sample_pixels,
    save_dataset,
)
from croprot.encoders import encode_batch
from croprot.errors import ConfigError, ContractError
from croprot.model import CropModel, ModelDims
from croprot.training import (
    AdamState,
    TrainConfig,
    _Items,
    _batches,
    _training_years,
    cross_entropy,
    optimizer_step,
    predict,
    train,
    train_single_split,
)

import oracles
from conftest import (
    assert_items_equal, assert_parameter_views, descriptors_of, encode_parcels, expand_draws,
    features_of, small_dims, tiny_dims,
)


def _dims(cfg):
    d = tiny_dims(num_classes=cfg.num_classes)
    d.channels = cfg.channels
    return d


class TestCrossEntropy:
    def test_uniform_logits_give_log_l(self):
        for l in (2, 5, 20):
            loss = cross_entropy(np.zeros((1, l), dtype=np.float32), [0])
            assert float(loss.data) == pytest.approx(np.log(l), abs=1e-6)

    def test_confident_correct_is_near_zero(self):
        z = np.array([[50.0, 0.0, 0.0]], dtype=np.float32)
        assert float(cross_entropy(z, [0]).data) < 1e-6

    def test_confident_wrong_is_large(self):
        z = np.array([[50.0, 0.0, 0.0]], dtype=np.float32)
        assert float(cross_entropy(z, [1]).data) > 40

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 2, (6, 5))
        labels = rng.integers(0, 5, 6)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.mean([np.log(p[i, labels[i]]) for i in range(6)])
        got = float(cross_entropy(ad.Tensor(z, dtype=np.float64), labels).data)
        assert got == pytest.approx(want, abs=1e-10)


class TestAdam:
    def _cfg(self, lr=1e-3):
        return TrainConfig(learning_rate=lr)

    def test_zero_gradient_no_move(self):
        p = ad.Tensor(np.array([1.0, 2.0]))
        before = p.data.copy()
        optimizer_step(p.data, np.zeros(2), AdamState(), self._cfg())
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude_near_lr(self):
        # with bias correction the first step is ~lr regardless of gradient scale
        for g in (1e-3, 1.0, 1e3):
            p = ad.Tensor(np.array([0.0]))
            optimizer_step(p.data, np.array([g]), AdamState(), self._cfg(lr=0.1))
            assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_step_opposes_gradient(self):
        p = ad.Tensor(np.array([0.0, 0.0]))
        optimizer_step(p.data, np.array([1.0, -1.0]), AdamState(), self._cfg())
        assert p.data[0] < 0 < p.data[1]

    def test_quadratic_bowl_converges(self):
        # minimize (x - 3)^2 + (y + 1)^2
        p = ad.Tensor(np.array([10.0, 10.0]), dtype=np.float64)
        target = np.array([3.0, -1.0])
        state = AdamState()
        cfg = self._cfg(lr=0.05)
        for _ in range(5000):
            grad = 2 * (p.data - target)
            optimizer_step(p.data, grad, state, cfg)
            if np.max(np.abs(p.data - target)) < 1e-6:
                break
        assert np.max(np.abs(p.data - target)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_equals_per_parameter_oracle(self, dtype):
        # the flat vector's update is bitwise the per-parameter loop's, the
        # float64 gradients cast to the model's dtype in both
        model = CropModel(tiny_dims(), "dec", seed=1, dtype=dtype)
        reference = [ad.Tensor(p.data.copy()) for p in model.parameters()]
        state, reference_state = AdamState(), oracles.adam_state()
        cfg = self._cfg(lr=0.01)
        rng = np.random.default_rng(5)
        for _ in range(50):
            grads = [rng.normal(0, 10.0 ** rng.integers(-4, 3), p.data.shape) for p in reference]
            optimizer_step(model.vector, np.concatenate([g.reshape(-1) for g in grads]),
                           state, cfg)
            oracles.adam_step(reference, grads, reference_state, cfg)
        for p, want in zip(model.parameters(), reference):
            assert p.data.dtype == dtype and p.data.tobytes() == want.data.tobytes()
        assert_parameter_views(model)


class TestConfigAndRecords:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ContractError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ContractError):
            TrainConfig(protocol="nope").validate()
        with pytest.raises(ContractError):
            TrainConfig(protocol="specialized").validate()
        TrainConfig(protocol="specialized", protocol_year=2).validate()
        with pytest.raises(ContractError, match="seed must be >= 0"):
            TrainConfig(seed=-1).validate()
        with pytest.raises(ContractError, match="protocol year 0"):
            TrainConfig(protocol_year=0).validate()
        # the mixed protocol trains on every year: a year would do nothing
        with pytest.raises(ContractError, match="protocol year 2 given to the mixed protocol"):
            TrainConfig(protocol="mixed", protocol_year=2).validate()
        with pytest.raises(ConfigError, match="unknown head variant 'crf'"):
            TrainConfig(variant="crf").validate()

    def test_record_round_trip(self, tmp_path):
        r = predictions([5], [2], [1], np.array([[0.1, 0.9]], dtype=np.float32))
        posterior = np.array([[0.3, 0.7]], dtype=np.float32)
        path = tmp_path / "predictions.json"
        # a (parcel, year) appears once across val and test
        test = predictions([5], [3], [1], r.logits)
        write_predictions(path, {}, {"val": (r, posterior), "test": (test, None)})
        _, back, _ = read_predictions(path)
        assert back.parcel_id.tolist() == [5] and back.year_index.tolist() == [2]
        assert np.allclose(back.logits, r.logits)
        # predicted class 1, with confidence 0.7
        assert analytics.confusion(back, 2).tolist() == [[0, 0], [0, 1]]
        bins = reliability(back, posterior, 1)
        assert bins.mean_confidence[0] == pytest.approx(0.7, abs=1e-6)

    def test_ties_break_to_lowest_index(self):
        r = predictions([0], [1], [0], np.array([[1.0, 1.0, 0.0]]))
        assert analytics.confusion(r, 3)[0].tolist() == [1, 0, 0]

    def test_confidence_requires_posterior(self):
        r = predictions([0], [1], [0], np.array([[1.0, 0.0]]))
        with pytest.raises(ContractError):
            reliability(r, None)


def _item_batches(columns, years, batch_size, rng):
    """`_batches` of the items of the `Columns` of each of `years`, as
    lists of (parcel id, year) pairs."""
    items = _Items.of_columns(columns)
    pairs = list(zip(items.ids.tolist(), items.years.tolist()))
    rows = np.flatnonzero(np.isin(items.years, list(years)))
    return [[pairs[i] for i in batch] for batch in _batches(items, rows, batch_size, rng)]


class TestItemSelection:
    def test_mixed_pools_every_year(self):
        assert list(_training_years(TrainConfig(protocol="mixed"), 3)) == [1, 2, 3]

    def test_specialized_filters_one_year(self):
        cfg = TrainConfig(protocol="specialized", protocol_year=2)
        assert list(_training_years(cfg, 3)) == [2]

    def test_epoch_batches_partition_items(self, small_dataset):
        ds, _, parcels = small_dataset
        batches = _item_batches(ds.columns, _training_years(TrainConfig(), 3), 16,
                                np.random.default_rng(0))
        flat = [it for b in batches for it in b]
        assert len(flat) == 3 * len(parcels)
        assert set(flat) == {(p.parcel_id, y) for p in parcels for y in (1, 2, 3)}
        for b in batches:
            assert 1 <= len(b) <= 16
            assert len({y for _, y in b}) == 1  # year-homogeneous

    def test_epoch_batches_reshuffled_per_epoch(self, small_dataset):
        ds, _, _ = small_dataset
        years = _training_years(TrainConfig(), 3)
        a = _item_batches(ds.columns, years, 16, np.random.default_rng(1))
        b = _item_batches(ds.columns, years, 16, np.random.default_rng(2))
        assert a != b


@pytest.fixture(scope="module")
def trained(small_dataset):
    ds, cfg, parcels = small_dataset
    dims = _dims(cfg)
    model, _, _ = train_single_split(
        ds, parcels[:40], parcels[40:], TrainConfig(epochs=2, seed=1), dims
    )
    return parcels, model


class TestPredict:

    def test_one_record_per_parcel_year(self, trained):
        parcels, model = trained
        records = predict(model, parcels)
        assert len(records) == 3 * len(parcels)
        keys = {(r.parcel_id, r.year_index) for r in records}
        assert len(keys) == len(records)

    def test_true_labels_copied(self, trained):
        parcels, model = trained
        by_id = {p.parcel_id: p for p in parcels}
        for r in predict(model, parcels):
            assert r.true_label == by_id[r.parcel_id].labels[r.year_index - 1]

    def test_repeated_calls_bitwise_identical(self, trained):
        parcels, model = trained
        a = predict(model, parcels, seed=5)
        b = predict(model, parcels, seed=5)
        for ra, rb in zip(a, b):
            assert ra.parcel_id == rb.parcel_id and ra.year_index == rb.year_index
            assert np.array_equal(ra.logits, rb.logits)

    def test_empty_parcel_list(self, trained):
        _, model = trained
        empty = predict(model, [])
        assert len(empty) == 0 and empty.logits.shape == (0, model.dims.num_classes)

    def test_ties_break_to_lowest_class(self, small_dataset):
        # equal logits for every class: each record predicts class 0
        _, cfg, parcels = small_dataset
        model = CropModel(_dims(cfg), "single", seed=1)
        model.head.w2.data[...] = 0
        model.head.b2.data[...] = 0
        records = predict(model, parcels[:10])
        cm = analytics.confusion(records, cfg.num_classes)
        assert cm[:, 0].tolist() == np.bincount(records.true_label,
                                                minlength=cfg.num_classes).tolist()
        assert cm.sum() == cm[:, 0].sum() == 30

    def test_non_finite_descriptor_refused(self, trained):
        # finite pixels large enough that the pixel MLP overflows
        parcels, model = trained
        p = parcels[3]
        huge = MultiYearParcel(p.parcel_id, p.centroid, [
            PixelSetSample(s.parcel_id, s.year_index, s.pixels * np.float32(1e37),
                           s.days, s.label) for s in p.samples])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractError, match=f"non-finite descriptor for parcel {p.parcel_id}"):
                predict(model, parcels[:3] + [huge])

    @pytest.mark.parametrize("variant", ["single", "dec", "obs"])
    @pytest.mark.parametrize("years", [None, [3], [3, 1]])
    def test_items_built_once(self, small_dataset, monkeypatch, variant, years):
        # every year's items and the past years that "obs" reads come from
        # one _Items, whichever years are then kept
        _, cfg, parcels = small_dataset
        model = CropModel(_dims(cfg), variant, seed=1)
        calls = []
        of = _Items.of_columns
        monkeypatch.setattr(_Items, "of_columns",
                            lambda columns: calls.append(len(columns)) or of(columns))
        records = predict(model, parcels[:10])
        records = records[np.isin(records.year_index, years or (1, 2, 3))]
        assert len(calls) == 1 and len(records) == 10 * len(years or (1, 2, 3))

    @pytest.mark.parametrize("pid", [2**63, 2**64 - 1])
    def test_ids_up_to_two_to_the_64(self, trained, pid):
        # a .rcds id is a uint64: the largest ones reach the records, and
        # leave the other parcels' records as they are
        parcels, model = trained
        big = dataclasses.replace(parcels[0], parcel_id=pid)
        other = parcels[1]
        records = predict(model, [big, other], seed=3)
        assert [r.parcel_id for r in records] == [pid] * 3 + [other.parcel_id] * 3
        assert all(np.isfinite(r.logits).all() for r in records)
        alone = predict(model, [other], seed=3)
        assert all(np.array_equal(a.logits, b.logits) for a, b in zip(records[3:], alone))

    def test_negative_id_refused(self, trained):
        parcels, model = trained
        with pytest.raises(ContractError, match=r"parcel id -1 outside the integers in \[0, 2\^"):
            predict(model, [dataclasses.replace(parcels[0], parcel_id=-1)])

    def test_same_parcel_twice_refused(self, trained):
        # one parcel object named twice, as two objects with one id are
        parcels, model = trained
        p = parcels[2]
        with pytest.raises(ContractError, match=f"^parcel {p.parcel_id}: id appears more than"):
            predict(model, [parcels[1], p, parcels[0], p])

    def test_non_finite_logits_refused(self, trained):
        parcels, model = trained
        broken = CropModel(model.dims, model.variant)
        broken.load_state_arrays(model.state_arrays())
        broken.head.b2.data[1] = np.nan
        with pytest.raises(ContractError, match="non-finite logits for parcel"):
            predict(broken, parcels[:4])


@pytest.fixture(scope="module")
def ragged(tmp_path_factory):
    """A saved and loaded 12-parcel dataset whose samples' T differ within
    and across parcels, its generator config and the saved parcels."""
    cfg = SyntheticConfig(parcels=6, timesteps=5, seed=1)
    parcels = generate_synthetic(cfg) + [
        dataclasses.replace(p, parcel_id=p.parcel_id + 6)
        for p in generate_synthetic(SyntheticConfig(parcels=6, timesteps=7, seed=2))]
    for p in parcels[::3]:
        s = p.samples[1]
        s.days, s.pixels = s.days[:3], s.pixels[:, :, :3]
    path = tmp_path_factory.mktemp("ragged") / "ds.rcds"
    save_dataset(path, parcels, cfg.num_classes)
    return load_dataset(path), cfg, parcels


_FIVE_YEARS = Columns.of(generate_synthetic(SyntheticConfig(parcels=4, num_years=5, timesteps=5,
                                                             seed=3)))


class TestColumnItems:
    """`_Items.of_columns` gives the items that `oracles.items_of` reads
    from the same parcels' objects."""

    @pytest.mark.parametrize("years", [[1, 2, 3], [3], [2, 3, 1], [1]])
    def test_equal_to_items_of_parcels(self, ragged, years):
        # the rows of `years`, field by field, of the items of a take
        ds, _, parcels = ragged
        rows = np.array([5, 0, 7, 3, 11])
        got = _Items.of_columns(ds.columns.take(rows))
        want = oracles.items_of([parcels[i] for i in rows.tolist()])
        keep = np.flatnonzero(np.isin(want.years, years))
        assert_items_equal(got.take(keep), want.take(keep))

    @given(rows=st.lists(st.integers(0, 3), max_size=4, unique=True))
    @example(rows=[2, 0, 3])
    @settings(max_examples=40)
    def test_grid_order_and_past_rows_point_back(self, rows):
        # item r is parcel r // Y, year r % Y + 1; a past row is the item
        # of its parcel's year i-1 or i-2, and -1 only before year 1
        columns = _FIVE_YEARS.take(np.array(rows, np.int64))
        items = _Items.of_columns(columns)
        keys = list(zip(items.ids.tolist(), items.years.tolist()))
        assert keys == [(pid, y) for pid in columns.ids.tolist() for y in range(1, 6)]
        for (pid, y), past in zip(keys, items.past.tolist()):
            for back, row in zip((1, 2), past):
                if y > back:
                    assert keys[row] == (pid, y - back)
                else:
                    assert row == -1

    @pytest.mark.parametrize("variant", ["single", "dec", "obs"])
    def test_predict_and_embed_equal_on_columns_and_parcels(self, ragged, tmp_path, monkeypatch,
                                                            variant):
        ds, cfg, parcels = ragged
        model = CropModel(_dims(cfg), variant, seed=4)
        monkeypatch.setattr(training, "ENCODE_BATCH", 4)
        a = predict(model, ds.columns, seed=3)
        b = predict(model, parcels, seed=3)
        assert a.tobytes() == b.tobytes()
        analytics.export_embeddings(model, ds.columns, tmp_path / "a.csv", seed=3)
        analytics.export_embeddings(model, parcels, tmp_path / "b.csv", seed=3)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_repeated_row_refused_before_predict(self, ragged):
        ds, cfg, _ = ragged
        model = CropModel(_dims(cfg), "single", seed=4)
        with pytest.raises(ContractError, match=f"^parcel {ds.columns.ids[0]}: row given more"):
            predict(model, ds.columns.take(np.array([0, 0])))

    def test_empty_selection(self, ragged):
        ds, cfg, _ = ragged
        model = CropModel(_dims(cfg), "dec", seed=4)
        empty = predict(model, ds.columns.take(np.array([], np.int64)))
        assert len(empty) == 0 and empty.logits.shape == (0, cfg.num_classes)


class TestEncodeItems:
    @pytest.fixture()
    def setup(self, small_dataset):
        _, cfg, parcels = small_dataset
        model = CropModel(_dims(cfg), "single", seed=2)
        return model, parcels[:6]

    def test_keys_and_shape(self, setup):
        # one row per parcel-year, parcel by parcel as given, year by year
        model, parcels = setup
        parcels = parcels[::-1]
        encoded, table = encode_parcels(model, parcels, (0,))
        assert list(zip(encoded.ids.tolist(), encoded.years.tolist())) == [
            (p.parcel_id, y) for p in parcels for y in (1, 2, 3)]
        assert table.shape == (3 * len(parcels), model.dims.descriptor)

    @pytest.mark.parametrize("variant, encoded", [("single", 6), ("dec", 6), ("obs", 18)])
    def test_encodes_only_the_rows_the_head_reads(self, small_dataset, monkeypatch, variant,
                                                  encoded):
        # trained on year 3 alone, 6 parcels' 18 items are all drawn, but
        # an epoch encodes only their 6 year-3 rows and the years 1 and 2
        # that the "obs" head reads; the dec family reads their labels alone
        ds, cfg, parcels = small_dataset
        calls = _record_draws(monkeypatch)
        rows = []
        encode = training._encode
        monkeypatch.setattr(training, "_encode", lambda model, items, *drawn: rows.extend(
            zip(items.ids.tolist(), items.years.tolist())) or encode(model, items, *drawn))
        train_single_split(ds, parcels[:6], [],
                           TrainConfig(epochs=1, batch_size=8, seed=2, variant=variant,
                                       protocol="specialized", protocol_year=3), _dims(cfg))
        assert len(calls) == 18
        assert len(rows) == len(set(rows)) == encoded
        assert {y for _, y in rows} == ({1, 2, 3} if variant == "obs" else {3})

    def test_keyed_draws_repeat_bitwise(self, setup, monkeypatch):
        model, parcels = setup
        a = descriptors_of(model, parcels, (42,))
        # another call order and batch size give the same draws and rows
        monkeypatch.setattr(training, "ENCODE_BATCH", 4)
        b = descriptors_of(model, parcels[::-1], (42,))
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_different_seeds_differ(self, setup):
        model, parcels = setup
        a = descriptors_of(model, parcels, (0,))
        b = descriptors_of(model, parcels, (1,))
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_draws_are_keyed_by_stream_parcel_year(self, setup, monkeypatch):
        # each chunk row is the item's own sample_pixels draw under the key
        # (*stream, parcel id, year), whatever else is in the chunk
        model, parcels = setup
        s = model.dims.sample_pixels
        calls = _record_draws(monkeypatch)
        descriptors_of(model, parcels, (9,))
        rows = {(pid, y): (columns, counts) for _, pid, y, columns, counts in calls}
        assert len(calls) == len(rows) == 3 * len(parcels)
        for p in parcels:
            for y in (1, 2, 3):
                key = draw_keys((9,), [p.parcel_id], [y])
                columns, counts = sample_pixels(key, [p.samples[y - 1].n_pixels], s)
                got = rows[(p.parcel_id, y)]
                assert np.array_equal(got[0], columns[0]) and np.array_equal(got[1], counts[0])

    def test_rows_ordered_by_distinct_count(self, small_dataset):
        ds, _, _ = small_dataset
        items = _Items.of_columns(ds.columns.take(np.arange(40)))
        _, counts = training._draw(items, (0,), 8)
        rows = training._by_distinct(counts, np.flatnonzero(items.years == 1))
        distinct = np.count_nonzero(counts[rows], axis=1)
        assert np.all(np.diff(distinct) <= 0) and distinct[0] > distinct[-1]

    def test_equals_drawn_encode(self, small_dataset):
        # each distinct column encoded once, weighted by its count, gives the
        # descriptors of encoding every draw (parcels of 4 to 16 pixels, S = 8)
        _, cfg, parcels = small_dataset
        model = CropModel(small_dims(cfg.num_classes), "single", seed=2)
        parcels = parcels[:24]
        items = [(p, y) for p in parcels for y in (1, 2, 3)]
        got = descriptors_of(model, parcels, (5,))
        assert any(p.samples[y - 1].n_pixels < 8 for p, y in items)
        assert any(p.samples[y - 1].n_pixels >= 8 for p, y in items)
        for year in (1, 2, 3):
            batch = [(p, y) for p, y in items if y == year]
            keys = draw_keys((5,), [p.parcel_id for p, _ in batch], [year] * len(batch))
            columns = expand_draws(*sample_pixels(
                keys, [p.samples[y - 1].n_pixels for p, y in batch], 8))
            want = encode_batch(columns, np.ones_like(columns),
                                [p.samples[y - 1].pixels for p, y in batch],
                                np.stack([p.samples[y - 1].days for p, y in batch]),
                                model.pse, model.ltae).data
            for (p, y), row in zip(batch, want):
                assert got[(p.parcel_id, y)].tobytes() == row.tobytes()

    def test_each_item_encoded_once(self, small_dataset, monkeypatch):
        # "obs" reads years 1 and 2 of each parcel for its year 3 and year
        # 1 for its year 2, which are items themselves: every parcel-year
        # is drawn once
        _, cfg, parcels = small_dataset
        model = CropModel(_dims(cfg), "obs", seed=2)
        parcels = parcels[:6]
        calls = _record_draws(monkeypatch)
        descriptors_of(model, parcels, (0,))
        assert sorted(c[1:3] for c in calls) == sorted(
            (p.parcel_id, y) for p in parcels for y in (1, 2, 3))


def _record_draws(monkeypatch):
    """List that `training._draw` appends each row it draws to, as
    (stream, parcel id, year, columns, counts)."""
    calls = []
    draw = training._draw

    def recording(items, stream, s):
        out = draw(items, stream, s)
        for pid, y, columns, counts in zip(items.ids.tolist(), items.years.tolist(), *out):
            calls.append((stream, pid, y, columns, counts))
        return out

    monkeypatch.setattr(training, "_draw", recording)
    return calls


def test_inference_draws_shared_by_predict_obs_and_embed(small_dataset, monkeypatch, tmp_path):
    # a parcel-year's draw is the same in predict, in the obs head's
    # past-year features and in embed, whatever the batch size
    _, cfg, parcels = small_dataset
    dims = small_dims(cfg.num_classes)
    parcels = parcels[:30]
    calls = _record_draws(monkeypatch)
    predict(CropModel(dims, "single", seed=1), parcels, seed=4)
    with monkeypatch.context() as m:
        m.setattr(training, "ENCODE_BATCH", 7)
        predict(CropModel(dims, "obs", seed=1), parcels, seed=4)
    analytics.export_embeddings(CropModel(dims, "dec", seed=1), parcels,
                                tmp_path / "e.csv", seed=4)
    seen = {}
    for stream, pid, y, columns, counts in calls:
        assert stream == (4,)
        want = seen.setdefault((pid, y), (columns, counts))
        assert np.array_equal(columns, want[0]) and np.array_equal(counts, want[1])
    # every parcel-year drawn three times: predict, obs (years 1-3) and embed
    assert len(calls) == 3 * len(seen) == 9 * len(parcels)


@pytest.mark.parametrize("variant", ["dec", "obs"])
def test_training_draws_do_not_depend_on_batches(small_dataset, monkeypatch, variant):
    # the epoch generator only orders the batches: another batch size and
    # the reversed batch order draw the same pixels for every epoch and item
    ds, cfg, parcels = small_dataset
    batches = training._batches
    runs = []
    for batch_size, reverse in [(16, False), (5, True)]:
        calls = _record_draws(monkeypatch)
        monkeypatch.setattr(
            training, "_batches",
            lambda *a: batches(*a)[:: -1 if reverse else 1],
        )
        train_single_split(ds, parcels[:20], [],
                           TrainConfig(epochs=2, batch_size=batch_size, seed=3,
                                       variant=variant), _dims(cfg))
        runs.append({(stream, pid, y): (c.tolist(), n.tolist())
                     for stream, pid, y, c, n in calls})
    assert runs[0] == runs[1] and len(runs[0]) == 2 * 20 * 3  # epochs, parcels, years
    streams = {key[0] for key in runs[0]}
    assert streams == {(training.TRAIN_DRAWS, 3, 0, 0), (training.TRAIN_DRAWS, 3, 0, 1)}


def _by_key(records):
    return {(r.parcel_id, r.year_index): r.logits for r in records}


@pytest.mark.parametrize("variant", heads.VARIANTS)
class TestSubsetInvariance:
    """A parcel-year's logits do not depend on the other parcels or years
    of the predict call."""

    @pytest.fixture()
    def full(self, small_dataset, variant):
        _, cfg, parcels = small_dataset
        model = CropModel(small_dims(cfg.num_classes), variant, seed=4)
        return parcels, model, _by_key(predict(model, parcels, seed=9))

    def test_every_fifth_parcel(self, full, variant):
        parcels, model, want = full
        got = _by_key(predict(model, parcels[::5], seed=9))
        assert len(got) == 3 * len(parcels[::5])
        for key, logits in got.items():
            assert np.array_equal(logits, want[key])

    def test_one_year(self, full, variant):
        parcels, model, want = full
        records = predict(model, parcels, seed=9)
        got = _by_key(records[records.year_index == 3])
        assert len(got) == len(parcels)
        for key, logits in got.items():
            assert np.array_equal(logits, want[key])

    def test_one_parcel(self, full, variant):
        parcels, model, want = full
        got = _by_key(predict(model, parcels[7:8], seed=9))
        assert len(got) == 3
        for key, logits in got.items():
            assert np.array_equal(logits, want[key])

    def test_records_in_request_order(self, full, variant):
        # parcel by parcel as passed, each parcel's years in order
        parcels, model, want = full
        records = predict(model, parcels[::-1], seed=9)
        assert [(r.parcel_id, r.year_index) for r in records] == [
            (p.parcel_id, y) for p in parcels[::-1] for y in (1, 2, 3)
        ]
        for r in records:
            assert np.array_equal(r.logits, want[(r.parcel_id, r.year_index)])


@pytest.mark.parametrize("call", ["predict", "train_single_split", "export_embeddings"])
def test_two_parcels_with_one_id_refused(small_dataset, tmp_path, call):
    # their (id, year) rows would share labels and descriptors
    ds, cfg, parcels = small_dataset
    first = parcels[0]
    parcels = [first, dataclasses.replace(parcels[1], parcel_id=first.parcel_id)]
    model = CropModel(_dims(cfg), "dec", seed=1)
    with pytest.raises(ContractError, match=f"^parcel {first.parcel_id}: id appears more than"):
        if call == "predict":
            predict(model, parcels)
        elif call == "train_single_split":
            train_single_split(ds, parcels, [], TrainConfig(epochs=1, variant="dec"), _dims(cfg))
        else:
            analytics.export_embeddings(model, parcels, tmp_path / "e.csv")


def test_parcel_named_twice_in_a_training_split_refused(small_dataset):
    # a repeated parcel would be trained on twice as often as the others
    ds, cfg, parcels = small_dataset
    with pytest.raises(ContractError, match="^parcel 3: id appears more than once$"):
        train_single_split(ds, parcels[:12] + parcels[3:5], parcels[20:26],
                           TrainConfig(epochs=1, variant="obs"), _dims(cfg))


def _with_sample(parcel, year, **fields):
    """A copy of `parcel` whose sample of `year` has `fields` replaced."""
    samples = list(parcel.samples)
    samples[year - 1] = dataclasses.replace(samples[year - 1], **fields)
    return dataclasses.replace(parcel, samples=samples)


# a parcel 3 changed so that it does not fit the others of a list, and the
# refusal that names it
MALFORMED = {
    "fewer-years": (lambda p: dataclasses.replace(p, samples=p.samples[:2]),
                    "parcel 3, year 3: the parcel has 2 years"),
    "more-years": (lambda p: dataclasses.replace(p, samples=p.samples + p.samples[:1]),
                   "parcel 3, year 4: the parcel has 4 years"),
    "3-channels": (lambda p: _with_sample(p, 2, pixels=p.samples[1].pixels[:3]),
                   r"parcel 3, year 2: pixels \(3, \d+, 12\) and 12 dates; need 4 channels"),
    "dates-not-T": (lambda p: _with_sample(p, 3, days=p.samples[2].days[:-1]),
                    r"parcel 3, year 3: pixels \(4, \d+, 12\) and 11 dates"),
    "2-d-pixels": (lambda p: _with_sample(p, 2, pixels=p.samples[1].pixels[0]),
                   r"parcel 3, year 2: pixels of shape \(\d+, 12\); need \(C, N_p, T\)"),
    "float-days": (lambda p: _with_sample(p, 3, days=p.samples[2].days.astype(float)),
                   r"parcel 3, year 3: float64 days of shape \(12,\); need a \(T,\) integer"),
    "float-label": (lambda p: _with_sample(p, 1, label=2.7),
                    r"parcel 3, year 1: label 2.7; need an integer in \[0, 2\^63\)"),
    "label-2-70": (lambda p: _with_sample(p, 2, label=2**70),
                   r"parcel 3, year 2: label 1180591620717411303424; need an integer"),
    "negative-label": (lambda p: _with_sample(p, 3, label=-1),
                       r"parcel 3, year 3: label -1; need an integer"),
    "id-1.5": (lambda p: dataclasses.replace(p, parcel_id=1.5),
               r"parcel id 1.5 outside the integers in \[0, 2\^64\)"),
    "id-bool": (lambda p: dataclasses.replace(p, parcel_id=True),
                r"parcel id True outside the integers in \[0, 2\^64\)"),
}


@pytest.mark.parametrize("call", ["predict", "train_single_split", "export_embeddings",
                                  "Dataset.columns"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_parcel_lists_refused(small_dataset, tmp_path, call, case):
    ds, cfg, parcels = small_dataset
    change, message = MALFORMED[case]
    odd = parcels[3]
    parcels = parcels[:3] + [change(odd)] + parcels[4:6]
    model = CropModel(_dims(cfg), "dec", seed=1)
    assert odd.parcel_id == 3
    with pytest.raises(ContractError, match=message):
        if call == "predict":
            predict(model, parcels)
        elif call == "train_single_split":
            train_single_split(ds, parcels, [], TrainConfig(epochs=1, variant="dec"), _dims(cfg))
        elif call == "export_embeddings":
            analytics.export_embeddings(model, parcels, tmp_path / "e.csv")
        else:
            Dataset(parcels=parcels, num_classes=cfg.num_classes).columns


@pytest.fixture(scope="module")
def few_pixels():
    # 1 to 12 pixels against S = 8: one-row (item, date) segments, and
    # columns drawn more than once
    return generate_synthetic(SyntheticConfig(parcels=24, pixels_min=1, pixels_max=12, seed=11))


@pytest.mark.parametrize("variant", ["single", "dec", "obs"])
# 1: one-row blocks; 30: below one item's 12 dates of up to 8 rows each;
# 300: a few items
@pytest.mark.parametrize("bound", [1, 30, 300])
def test_predict_in_pixel_blocks_equals_one_block(few_pixels, monkeypatch, variant, bound):
    # the default d1, at which a one-row gemv rounds unlike gemm
    model = CropModel(dataclasses.replace(small_dims(), d1=64), variant, seed=6)
    monkeypatch.setattr(encoders, "PIXEL_BLOCK_ROWS", 10**9)
    want = predict(model, few_pixels, seed=2)
    monkeypatch.setattr(encoders, "PIXEL_BLOCK_ROWS", bound)
    got = predict(model, few_pixels, seed=2)
    assert [(r.parcel_id, r.year_index) for r in got] == [
        (r.parcel_id, r.year_index) for r in want]
    assert np.stack([r.logits for r in got]).tobytes() == np.stack(
        [r.logits for r in want]).tobytes()


@pytest.mark.skipif(encoders._mallopt is None, reason="the C library has no mallopt")
def test_warm_predict_faults_no_pages_in():
    # with malloc's thresholds fixed, a warm call at default dims takes its
    # block buffers from the heap the earlier calls left, rather than
    # mapping them again (about 5 000 minor faults per call when glibc's
    # dynamic thresholds trim them away)
    parcels = generate_synthetic(SyntheticConfig(num_classes=20, parcels=100, channels=10,
                                                 timesteps=12, seed=51))
    model = CropModel(ModelDims(), "single", seed=0)
    for _ in range(2):
        predict(model, parcels, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    predict(model, parcels, seed=1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


@pytest.mark.parametrize("protocol, year", [("mixed", None), ("specialized", 3)])
def test_obs_training_features_read_the_past_rows(small_dataset, monkeypatch, protocol, year):
    # a first step's features are the past-year descriptors of the initial
    # weights under the epoch's draw keys, as `predict` reads them
    ds, cfg, parcels = small_dataset
    dims = _dims(cfg)
    seen = []
    logits = training.batch_logits

    def forwarding(model, items, columns, counts, features):
        seen.append((items.ids.tolist(), items.years.tolist(), np.array(features)))
        return logits(model, items, columns, counts, features)

    monkeypatch.setattr(training, "batch_logits", forwarding)
    tc = TrainConfig(epochs=1, batch_size=8, seed=3, variant="obs", protocol=protocol,
                     protocol_year=year)
    train_single_split(ds, parcels[:20], [], tc, dims)
    ids, years, features = seen[0]
    by_id = {p.parcel_id: p for p in parcels}
    want = features_of(CropModel(dims, "obs", seed=3),
                       [(by_id[pid], y) for pid, y in zip(ids, years)],
                       (training.TRAIN_DRAWS, 3, 0, 0))
    assert features.tobytes() == want.tobytes() and features.any()


def test_obs_step_records_as_many_tape_ops_as_dec(small_dataset, monkeypatch):
    # "obs" encodes past years before the tape is attached, so its training
    # steps record only the head's extra feature input, like "dec"
    ds, cfg, parcels = small_dataset
    ops = []
    backward = ad.backward

    def counting(tape, loss, params=None):
        ops[-1].append(len(tape.ops))
        return backward(tape, loss, params=params)

    monkeypatch.setattr(ad, "backward", counting)
    for variant in ("dec", "obs"):
        ops.append([])
        train_single_split(
            ds, parcels[:20], [],
            TrainConfig(epochs=1, batch_size=16, seed=0, variant=variant), _dims(cfg),
        )
    assert len(ops[0]) > 0
    assert ops[1] == ops[0]


def test_dec_step_tape_ops(small_dataset, monkeypatch):
    # fused dense layers and the flat segment pool: 22 ops per "dec" step
    # (37 with separate matmul, add_bias and relu ops and pool reshapes)
    ds, cfg, parcels = small_dataset
    ops = []
    backward = ad.backward

    def counting(tape, loss, params=None):
        ops.append(len(tape.ops))
        return backward(tape, loss, params=params)

    monkeypatch.setattr(ad, "backward", counting)
    train_single_split(ds, parcels[:20], [],
                       TrainConfig(epochs=1, batch_size=16, seed=0, variant="dec"), _dims(cfg))
    assert ops and set(ops) == {22}


def test_step_tapes_are_emptied(small_dataset, monkeypatch):
    # a step's tape and its activations reference each other; emptying the
    # tape after backward frees them without waiting for the cyclic collector
    ds, cfg, parcels = small_dataset
    tapes = []
    backward = ad.backward

    def keeping(tape, loss, params=None):
        tapes.append(tape)
        return backward(tape, loss, params=params)

    monkeypatch.setattr(ad, "backward", keeping)
    train_single_split(ds, parcels[:20], [],
                       TrainConfig(epochs=1, batch_size=16, seed=0, variant="dec"), _dims(cfg))
    assert tapes and not any(tape.ops for tape in tapes)


class _FirstStep(Exception):
    """Ends a training run after its first step's backward."""


def _first_step_grads(monkeypatch, parcels, variant, dtype):
    """Every parameter's gradient, in parameter order, from the first step
    of a `variant` run on `parcels` at criterion 8's dims with `dtype`
    weights."""
    grads = []
    backward = ad.backward

    def first_step(tape, loss, params=None):
        result = backward(tape, loss, params=params)
        grads.extend(result[p] for p in params)
        raise _FirstStep

    with monkeypatch.context() as m:
        m.setattr(ad, "backward", first_step)
        m.setattr(training, "CropModel", functools.partial(CropModel, dtype=dtype))
        with pytest.raises(_FirstStep):
            train_single_split(Dataset(parcels=parcels, num_classes=8), parcels, [],
                               TrainConfig(epochs=1, seed=11, variant=variant), small_dims())
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["single", "dec", "obs"])
def test_step_gradients_bitwise_equal_to_oracle_rules(monkeypatch, variant, dtype):
    # skipping the gathered pixels' gradient, einsum bias sums and the
    # loop-free pool backward give every parameter the oracle rules' bits
    cfg = SyntheticConfig(num_classes=8, channels=4, timesteps=12, parcels=48,
                          pixels_min=4, pixels_max=16, seed=101)
    parcels = generate_synthetic(cfg)
    got = _first_step_grads(monkeypatch, parcels, variant, dtype)
    monkeypatch.setattr(ad, "dense", oracles.dense)
    monkeypatch.setattr(ad, "mean_std_pool", oracles.mean_std_pool)
    want = _first_step_grads(monkeypatch, parcels, variant, dtype)
    assert len(got) == len(CropModel(small_dims(), variant).parameters())
    assert [g.dtype for g in got] == [dtype] * len(got)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


class TestTraining:
    def test_deterministic_given_seed(self, small_dataset):
        ds, cfg, parcels = small_dataset
        dims = _dims(cfg)
        tc = TrainConfig(epochs=2, seed=3)

        def run():
            model, _, _ = train_single_split(
                ds, parcels[:40], parcels[40:], tc, dims
            )
            return model.state_arrays()

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_parameters_stay_views_of_the_vector(self, small_dataset):
        ds, cfg, parcels = small_dataset
        model, _, _ = train_single_split(
            ds, parcels[:20], parcels[40:], TrainConfig(epochs=2, seed=3), _dims(cfg)
        )
        assert_parameter_views(model)

    def test_selected_epoch_is_a_snapshot(self, small_dataset):
        # the best epoch's weights are copied, not a view of the vector that
        # later epochs update: they equal a run stopped after that epoch
        ds, cfg, parcels = small_dataset
        dims = _dims(cfg)
        model, best, _ = train_single_split(
            ds, parcels[:40], parcels[40:], TrainConfig(epochs=3, seed=3), dims
        )
        assert best < 2
        stopped, _, _ = train_single_split(
            ds, parcels[:40], [], TrainConfig(epochs=best + 1, seed=3), dims
        )
        assert model.vector.tobytes() == stopped.vector.tobytes()

    def test_obs_draws_each_past_year_once_per_epoch(self, small_dataset, monkeypatch):
        # an epoch's stream draws each distinct row once: a past year that
        # is also a training item, or that only the "obs" features read, is
        # not drawn again for each batch that reads it
        ds, cfg, parcels = small_dataset
        items = [(p.parcel_id, y) for p in parcels[:20] for y in (1, 2, 3)]
        for protocol, year in [("mixed", None), ("specialized", 3)]:
            calls = _record_draws(monkeypatch)
            tc = TrainConfig(epochs=2, batch_size=8, seed=3, variant="obs",
                             protocol=protocol, protocol_year=year)
            train_single_split(ds, parcels[:20], [], tc, _dims(cfg))
            for epoch in range(2):
                stream = (training.TRAIN_DRAWS, 3, 0, epoch)
                assert sorted(c[1:3] for c in calls if c[0] == stream) == sorted(items)

    @pytest.mark.parametrize("variant", ["dec", "obs"])
    def test_specialized_batches_partition_the_trained_rows(self, small_dataset, monkeypatch,
                                                           variant):
        # year-3 training holds every year of each parcel as grid rows; the
        # epoch's batches cover every year-3 row once and never a row of
        # another year
        ds, cfg, parcels = small_dataset
        cut, forwarded = [], []
        batches, logits = training._batches, training.batch_logits

        def cutting(items, rows, batch_size, rng=None):
            out = batches(items, rows, batch_size, rng)
            if rng is not None:
                cut.append((items.years, out))
            return out

        def forwarding(model, items, *args):
            forwarded.extend(items.years.tolist())
            return logits(model, items, *args)

        monkeypatch.setattr(training, "_batches", cutting)
        monkeypatch.setattr(training, "batch_logits", forwarding)
        tc = TrainConfig(epochs=2, batch_size=8, seed=3, variant=variant,
                         protocol="specialized", protocol_year=3)
        train_single_split(ds, parcels[:20], [], tc, _dims(cfg))
        assert len(cut) == 2
        for years, rows in cut:
            assert years.tolist() == [1, 2, 3] * 20
            assert sorted(np.concatenate(rows).tolist()) == list(range(2, 60, 3))
        assert forwarded == [3] * 40

    def test_batch_size_below_one_refused(self, small_dataset):
        ds, cfg, parcels = small_dataset
        with pytest.raises(ContractError, match="batch size must be >= 1"):
            train_single_split(ds, parcels[:10], [], TrainConfig(epochs=1, batch_size=0),
                               _dims(cfg))

    def test_protocol_year_outside_dataset_refused(self, small_dataset):
        ds, cfg, parcels = small_dataset
        for year in (0, 4):
            tc = TrainConfig(epochs=1, protocol="specialized", protocol_year=year)
            with pytest.raises(ContractError, match=f"protocol year {year} outside"):
                train_single_split(ds, parcels[:10], [], tc, _dims(cfg))

    def test_empty_train_split_rejected(self, small_dataset):
        ds, cfg, parcels = small_dataset
        with pytest.raises(ContractError):
            train_single_split(ds, [], parcels[:5], TrainConfig(epochs=1),
                               _dims(cfg))

    def test_loss_decreases(self, small_dataset):
        ds, cfg, parcels = small_dataset
        dims = _dims(cfg)
        _, _, log = train_single_split(
            ds, parcels, [], TrainConfig(epochs=8, seed=0), dims
        )
        losses = [row[1] for row in log]
        assert losses[-1] < losses[0]

    def test_cross_validation_structure(self, small_dataset):
        ds, cfg, parcels = small_dataset
        folds = make_folds(parcels, 3, 2500)
        dims = _dims(cfg)
        result = train(ds, folds, TrainConfig(epochs=1, seed=0), dims)
        assert [f.fold for f in result.folds] == [0, 1, 2]
        for fr in result.folds:
            # the validation fold only selects the epoch; no records are kept
            assert not hasattr(fr, "val_records")
            test_ids = {r.parcel_id for r in fr.test_records}
            assert test_ids == {
                pid for pid, f in folds.folds.items() if f == fr.fold
            }
        # pooled test records cover every parcel exactly once per year
        assert len(result.test_records) == 3 * len(parcels)

    def test_overfits_small_dataset(self):
        cfg = SyntheticConfig(
            parcels=30, channels=4, timesteps=8, pixels_min=4, pixels_max=8,
            noise_std=0.05, seed=31,
        )
        parcels = generate_synthetic(cfg)
        ds = Dataset(parcels=parcels, num_classes=cfg.num_classes)
        model, _, _ = train_single_split(
            ds, parcels, [],
            TrainConfig(epochs=100, learning_rate=3e-3, seed=0), small_dims()
        )
        records = predict(model, parcels)
        acc = np.mean(records.logits.argmax(axis=1) == records.true_label)
        assert acc >= 0.95
