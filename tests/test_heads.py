import numpy as np
import pytest
from hypothesis import given, strategies as st

from croprot import autodiff as ad, heads
from croprot.data import Columns, SyntheticConfig, draw_keys, generate_synthetic, sample_pixels
from croprot.errors import ConfigError, ContractError
from croprot.encoders import encode_batch
from croprot.model import CropModel
from croprot.training import _Items, _features, cross_entropy

from conftest import descriptors_of, encode_parcels, features_of, tiny_dims

L = 4
IDENTITY = np.eye(L, dtype=np.float32)


def feats(variant, prev1, prev2):
    """`history_features` of one parcel-year; -1 marks a missing year."""
    return heads.history_features(variant, [prev1], [prev2], IDENTITY)[0]


class TestLabelHistory:
    def test_one_hot(self):
        f = feats("dec-concat", 2, 0)
        assert np.array_equal(f[:L], [0, 0, 1, 0])
        assert np.array_equal(f[L:], [1, 0, 0, 0])

    def test_none_becomes_zero_vector(self):
        f = feats("dec-concat", -1, -1)
        assert not f[:L].any() and not f[L:].any()


class TestHistoryFeatures:
    def test_dec_is_sum(self):
        assert np.array_equal(feats("dec", 1, 3), [0, 1, 0, 1])

    def test_dec_repeated_label_counts_twice(self):
        assert np.array_equal(feats("dec", 2, 2), [0, 0, 2, 0])

    def test_dec_order_free(self):
        a = feats("dec", 1, 3)
        b = feats("dec", 3, 1)
        assert np.array_equal(a, b)

    def test_concat_preserves_order(self):
        a = feats("dec-concat", 1, 3)
        b = feats("dec-concat", 3, 1)
        assert a.shape == (2 * L,)
        assert not np.array_equal(a, b)
        assert np.array_equal(a[:L], feats("dec-one-year", 1, 3))

    def test_one_year_ignores_prev2(self):
        a = feats("dec-one-year", 1, 3)
        b = feats("dec-one-year", 1, 0)
        assert np.array_equal(a, b) and np.array_equal(a, [0, 1, 0, 0])

    def test_dispatcher(self):
        prev1, prev2 = [1, -1, 3], [2, -1, -1]
        batch = heads.history_features("dec", prev1, prev2, IDENTITY)
        assert np.array_equal(batch, np.stack([feats("dec", a, b) for a, b in zip(prev1, prev2)]))
        single = heads.history_features("single", prev1, prev2, IDENTITY)
        assert single.shape == (3, 0) and single.dtype == np.float32
        with pytest.raises(ConfigError, match="unknown head variant 'bogus'"):
            heads.history_features("bogus", prev1, prev2, IDENTITY)

    @pytest.mark.parametrize("variant", ["dec", "dec-concat", "dec-one-year"])
    def test_matches_one_hot_oracle(self, variant):
        def onehot(label):
            v = np.zeros(L, dtype=np.float32)
            if label >= 0:
                v[label] = 1.0
            return v

        labels = np.arange(-1, L)
        prev1, prev2 = np.repeat(labels, L + 1), np.tile(labels, L + 1)
        want = {
            "dec": lambda a, b: onehot(a) + onehot(b),
            "dec-concat": lambda a, b: np.concatenate([onehot(a), onehot(b)]),
            "dec-one-year": lambda a, b: onehot(a),
        }[variant]
        got = heads.history_features(variant, prev1, prev2, IDENTITY)
        assert got.dtype == np.float32
        assert got.tobytes() == np.stack([want(a, b) for a, b in zip(prev1, prev2)]).tobytes()

    @pytest.mark.parametrize("prev1, prev2", [([L], [0]), ([0], [-2])])
    def test_labels_out_of_range_refused(self, prev1, prev2):
        with pytest.raises(ContractError):
            heads.history_features("dec", prev1, prev2, IDENTITY)

    @given(variant=st.sampled_from(heads.VARIANTS), num_classes=st.integers(1, 6),
           descriptor_dim=st.integers(1, 9), data=st.data())
    def test_feature_dims(self, variant, num_classes, descriptor_dim, data):
        """`feature_dim` is the width `history_features` gives on any rows,
        and the head's input is the descriptor followed by those features."""
        width = descriptor_dim if variant == "obs" else num_classes
        table = np.arange(3 * width, dtype=np.float32).reshape(3, width)
        rows = data.draw(st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2)), max_size=5))
        prev1, prev2 = [a for a, _ in rows], [b for _, b in rows]
        got = heads.history_features(variant, prev1, prev2, table)
        dim = heads.feature_dim(variant, num_classes, descriptor_dim)
        assert got.shape == (len(rows), dim)
        head = heads.HeadWeights(variant, num_classes, descriptor_dim, 3, np.random.default_rng(0))
        assert head.input_dim == descriptor_dim + dim
        assert dim == {"single": 0, "dec-concat": 2 * num_classes}.get(variant, width)
        with pytest.raises(ConfigError):
            heads.feature_dim("bogus", num_classes, descriptor_dim)


class TestObsFeature:
    """The "obs" rows of `history_features`: past-year descriptors indexed
    in a table, -1 for a year before the first."""

    TABLE = np.arange(18, dtype=np.float32).reshape(3, 6) / 7

    def obs(self, prev1, prev2):
        return heads.history_features("obs", [prev1], [prev2], self.TABLE)[0]

    def test_year_one_zero_padded(self):
        f = self.obs(-1, -1)
        assert f.dtype == np.float32 and np.array_equal(f, np.zeros(6))

    def test_year_two_mirrors_single_past_year(self):
        assert self.obs(2, -1).tobytes() == self.TABLE[2].tobytes()

    def test_later_years_average(self):
        want = (self.TABLE[0] + self.TABLE[2]) / 2
        assert self.obs(0, 2).tobytes() == want.tobytes()
        assert np.array_equal(self.obs(2, 0), want)

    @pytest.mark.parametrize("prev1, prev2", [([3], [0]), ([0], [-2]), ([-2], [-1])])
    def test_rows_out_of_range_refused(self, prev1, prev2):
        with pytest.raises(ContractError):
            heads.history_features("obs", prev1, prev2, self.TABLE)

    def test_past_years_are_built_in(self):
        """Every year of every parcel is an item, so that an item's past
        row is -1 only before year 1, and `of_columns` reads the items'
        labels from the columns."""
        cfg = SyntheticConfig(num_classes=L, cycles=((2, 3),), parcels=2, seed=5)
        p, q = generate_synthetic(cfg)
        items = _Items.of_columns(Columns.of([p, q]))
        assert list(zip(items.ids.tolist(), items.years.tolist())) == [
            (p.parcel_id, 1), (p.parcel_id, 2), (p.parcel_id, 3),
            (q.parcel_id, 1), (q.parcel_id, 2), (q.parcel_id, 3)]
        assert items.past.tolist() == [[-1, -1], [0, -1], [1, 0], [-1, -1], [3, -1], [4, 3]]
        assert items.labels.tolist() == p.labels + q.labels


class TestDecode:
    def _head(self, variant):
        return heads.HeadWeights(variant, L, 8, 6, np.random.default_rng(0))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            self._head("bogus")

    def test_single_output_shapes(self):
        head = self._head("single")
        e1 = np.random.default_rng(1).normal(0, 1, (1, 8)).astype(np.float32)
        z1 = heads.decode(e1, head, np.zeros((1, 0), dtype=np.float32))
        assert z1.data.shape == (1, L)
        z2 = heads.decode(np.concatenate([e1, e1]), head, np.zeros((2, 0), dtype=np.float32))
        assert z2.data.shape == (2, L)
        assert np.allclose(z2.data[0], z1.data[0], atol=1e-6)

    def test_single_rejects_feature(self):
        head = self._head("single")
        with pytest.raises(ContractError):
            heads.decode(np.zeros((1, 8), dtype=np.float32), head, np.ones((1, L)))

    def test_variant_requires_feature(self):
        head = self._head("dec")
        with pytest.raises(ContractError, match=r"feature shape \(1, 0\)"):
            heads.decode(np.zeros((1, 8), dtype=np.float32), head,
                         np.zeros((1, 0), dtype=np.float32))

    def test_feature_shape_checked(self):
        head = self._head("dec")
        with pytest.raises(ContractError):
            heads.decode(np.zeros((1, 8), dtype=np.float32), head, np.zeros((1, 2 * L)))

    def test_dec_head_order_free_concat_is_not(self):
        e = np.random.default_rng(2).normal(0, 1, (1, 8)).astype(np.float32)
        dec = self._head("dec")
        a = heads.decode(e, dec, feats("dec", 1, 3)[None]).data
        b = heads.decode(e, dec, feats("dec", 3, 1)[None]).data
        assert np.array_equal(a, b)
        cc = self._head("dec-concat")
        a = heads.decode(e, cc, feats("dec-concat", 1, 3)[None]).data
        b = heads.decode(e, cc, feats("dec-concat", 3, 1)[None]).data
        assert not np.array_equal(a, b)

    def test_history_changes_logits(self):
        e = np.random.default_rng(3).normal(0, 1, (1, 8)).astype(np.float32)
        head = self._head("dec")
        a = heads.decode(e, head, feats("dec", 0, 0)[None]).data
        b = heads.decode(e, head, feats("dec", 2, 2)[None]).data
        assert not np.allclose(a, b)


@pytest.mark.parametrize("variant", ["dec", "dec-concat", "dec-one-year", "obs"])
def test_batch_features_read_the_two_previous_labels(variant):
    cfg = SyntheticConfig(
        num_classes=L, cycles=((2, 3),), num_years=4, channels=3, parcels=6, seed=5
    )
    parcels = generate_synthetic(cfg)
    items = [(p, 1 + i % 4) for i, p in enumerate(parcels)]
    model = CropModel(tiny_dims(num_classes=L), variant)
    if variant == "obs":
        # past years read the descriptors `encode_items` gives for the same
        # draw keys: zeros at year 1, the one past year at year 2 (mirror
        # padding), the average of the two after
        e = descriptors_of(model, parcels, (7,))

        def row(p, y):
            if y == 1:
                return np.zeros(model.dims.descriptor, np.float32)
            if y == 2:
                return e[(p.parcel_id, 1)]
            return (e[(p.parcel_id, y - 1)] + e[(p.parcel_id, y - 2)]) / 2

        rows = [row(p, y) for p, y in items]
        assert np.array_equal(features_of(model, items), np.stack(rows))
        return
    prev = lambda p, y: p.labels[y - 1] if y >= 1 else -1
    want = heads.history_features(
        variant, [prev(p, y - 1) for p, y in items], [prev(p, y - 2) for p, y in items], IDENTITY
    )
    assert np.array_equal(features_of(model, items), want)


def test_obs_features_read_only_the_rows_they_need():
    # the rows of every parcel-year give the same features, bit for bit,
    # as the rows of the items' own parcels alone
    cfg = SyntheticConfig(num_classes=L, cycles=((2, 3),), channels=3, parcels=40, seed=5)
    parcels = generate_synthetic(cfg)
    model = CropModel(tiny_dims(num_classes=L), "obs")
    pairs = [(p, 1 + i % 3) for i, p in enumerate(parcels[:32])]
    every, table = encode_parcels(model, parcels, (7,))
    needed, _ = encode_parcels(model, parcels[:32], (7,))
    assert needed.ids.size < every.ids.size
    want = features_of(model, pairs)
    got = _features(model, every, every.past[[3 * i + y - 1 for i, (_, y) in enumerate(pairs)]],
                    table)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# end-to-end gradients through encoder + every head variant


@pytest.fixture(scope="module")
def grad_items():
    cfg = SyntheticConfig(
        num_classes=L, cycles=((2, 3),), channels=3, timesteps=4, parcels=2,
        pixels_min=5, pixels_max=5, seed=23,
    )
    parcels = generate_synthetic(cfg)
    items = [(p, 3) for p in parcels]  # year 3: full history available
    keys = draw_keys((0,), [p.parcel_id for p, _ in items], [3] * len(items))
    return items, sample_pixels(keys, [p.samples[2].n_pixels for p, _ in items], 4)


@pytest.mark.parametrize("variant", heads.VARIANTS)
def test_full_model_gradients_match_finite_differences(variant, grad_items):
    items, (columns, counts) = grad_items
    dims = tiny_dims(num_classes=L)
    labels = np.asarray([p.labels[2] for p, _ in items], dtype=np.int64)
    base = CropModel(dims, variant, seed=2, dtype=np.float64)
    arrays = [np.array(p.data) for p in base.parameters()]
    # the "obs" features are detached from the graph by design, so they
    # must stay fixed while the parameters are perturbed; compute them once
    features = features_of(base, items)
    sets = [p.samples[y - 1].pixels for p, y in items]
    days = np.stack([p.samples[y - 1].days for p, y in items])

    def f(arrs):
        model = CropModel(dims, variant, seed=2, dtype=np.float64)
        tensors = model.parameters()
        for t, a in zip(tensors, arrs):
            t.data = a
        with ad.recording(tensors):
            e = encode_batch(columns, counts, sets, days, model.pse, model.ltae)
            z = heads.decode(e, model.head, features)
            loss = cross_entropy(z, labels)
        return loss, tensors

    # eps large enough that roundoff does not swamp near-zero gradients,
    # small enough to stay inside the ReLU-kink margin for this seed
    assert ad.finite_diff_check(f, arrays, eps=1e-4) < 1e-4
