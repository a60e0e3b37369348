import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprot import autodiff as ad
from croprot.errors import ContractError, DimensionError


def params_on_tape(arrays, dtype=np.float64):
    return [ad.parameter(a, None, dtype=dtype) for a in arrays]


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_selector_row(self):
        a = ad.Tensor([[1.0, 0.0]])
        b = ad.Tensor([[2.0], [5.0]])
        assert np.allclose(ad.matmul(a, b).data, [[2.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (3, 4))
        b = rng.normal(0, 1, (4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = ad.matmul(ad.Tensor(a, dtype=np.float64), ad.Tensor(b, dtype=np.float64))
        assert np.allclose(got.data, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(ad.softmax(ad.Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_large_values_no_overflow(self):
        out = ad.softmax(ad.Tensor([1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.5, 0.5])

    def test_log_ratios(self):
        x = np.log([1.0, 2.0, 3.0])
        out = ad.softmax(ad.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_sums_to_one(self, values):
        out = ad.softmax(ad.Tensor(values)).data
        assert out.min() > 0 and out.max() < 1.0000001
        assert abs(out.sum() - 1.0) < 1e-6


class TestBackward:
    def test_square(self):
        x = params_on_tape([np.array([3.0])])[0]
        with ad.recording([x]) as tape:
            loss = ad.mean_all(ad.mul(x, x))
        grads = ad.backward(tape, loss)
        assert np.allclose(grads[x], [6.0])

    def test_softmax_component(self):
        x = params_on_tape([np.array([0.0, 0.0])])[0]
        with ad.recording([x]) as tape:
            p = ad.softmax(x)
            loss = ad.pick(ad.reshape(p, (1, 2)), [0])
            loss = ad.mean_all(loss)
        grads = ad.backward(tape, loss)
        assert np.allclose(grads[x], [0.25, -0.25], atol=1e-7)

    def test_non_scalar_loss_rejected(self):
        x = params_on_tape([np.ones(3)])[0]
        with ad.recording([x]) as tape:
            y = ad.relu(x)
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_unreachable_parameter_gets_zero(self):
        x, y = params_on_tape([np.ones(2), np.ones(2)])
        with ad.recording([x, y]) as tape:
            loss = ad.mean_all(ad.mul(x, x))
        grads = ad.backward(tape, loss, params=[x, y])
        assert np.allclose(grads[y], 0.0)

    def test_deterministic(self):
        def run():
            x = params_on_tape([np.linspace(-1, 1, 6).reshape(2, 3)])[0]
            w = params_on_tape([np.linspace(0.5, 1.5, 6).reshape(3, 2)])[0]
            with ad.recording([x, w]) as tape:
                loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
            grads = ad.backward(tape, loss)
            return grads[w].tobytes()

        assert run() == run()


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bitwise_equal_to_masked_select(self, dtype):
        x = np.random.default_rng(4).normal(0, 1, 1000).astype(dtype)
        x[::7] = -0.0
        x[::11] = 0.0
        out = ad.relu(ad.Tensor(x, dtype=dtype)).data
        assert out.dtype == dtype
        assert out.tobytes() == np.where(x > 0, x, 0).tobytes()

    def test_gradient_is_zero_at_and_below_zero(self):
        x = params_on_tape([np.array([-1.0, -0.0, 0.0, 2.0])])[0]
        with ad.recording([x]) as tape:
            loss = ad.mean_all(ad.relu(x))
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads[x], [0.0, 0.0, 0.0, 0.25])

    def test_nan_propagates(self):
        out = ad.relu(ad.Tensor(np.array([np.nan, -1.0], dtype=np.float32))).data
        assert np.isnan(out[0]) and out[1] == 0.0


class TestFiniteDiffCheck:
    def test_linear_exact(self):
        c = np.array([1.0, -2.0, 0.5])

        def f(arrays):
            (w,) = params_on_tape(arrays)
            with ad.recording([w]):
                loss = ad.mean_all(ad.mul(w, ad.Tensor(c, dtype=np.float64)))
            return loss, [w]

        assert ad.finite_diff_check(f, [np.array([0.3, 0.4, 0.5])]) < 1e-6

    def test_relu_away_from_kink(self):
        def f(arrays):
            (w,) = params_on_tape(arrays)
            with ad.recording([w]):
                loss = ad.mean_all(ad.relu(w))
            return loss, [w]

        assert ad.finite_diff_check(f, [np.array([1.0])]) < 1e-6

    def test_small_mlp(self):
        rng = np.random.default_rng(3)
        shapes = [(4, 5), (5,), (5, 2), (2,)]
        arrays = [rng.normal(0, 0.5, s) for s in shapes]
        x = rng.normal(0, 1, (6, 4))

        def f(arrs):
            w1, b1, w2, b2 = params_on_tape(arrs)
            with ad.recording([w1, b1, w2, b2]):
                h = ad.relu(ad.add_bias(ad.matmul(ad.Tensor(x, dtype=np.float64), w1), b1))
                z = ad.add_bias(ad.matmul(h, w2), b2)
                loss = ad.mean_all(ad.mul(z, z))
            return loss, [w1, b1, w2, b2]

        assert ad.finite_diff_check(f, arrays, eps=1e-4) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_randomized_network_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    shapes = [(3, 6), (6,), (6, 4), (4,)]
    arrays = [rng.normal(0, 0.6, s) for s in shapes]
    x = rng.normal(0, 1, (5, 3))
    target = rng.normal(0, 1, (5, 4))

    def f(arrs):
        w1, b1, w2, b2 = params_on_tape(arrs)
        with ad.recording([w1, b1, w2, b2]):
            h = ad.relu(ad.add_bias(ad.matmul(ad.Tensor(x, dtype=np.float64), w1), b1))
            z = ad.softmax(ad.add_bias(ad.matmul(h, w2), b2), axis=-1)
            d = ad.sub(z, ad.Tensor(target, dtype=np.float64))
            loss = ad.mean_all(ad.mul(d, d))
        return loss, [w1, b1, w2, b2]

    # eps smaller than the ReLU-kink margin for these seeds
    assert ad.finite_diff_check(f, arrays, eps=1e-5) < 1e-4


def test_mean_std_pool_zero_variance_gradient_finite():
    x = params_on_tape([np.ones((1, 3, 2))])[0]
    with ad.recording([x]) as tape:
        loss = ad.mean_all(ad.mean_std_pool(x, axis=1))
    grads = ad.backward(tape, loss)
    assert np.all(np.isfinite(grads[x]))
