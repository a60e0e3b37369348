import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from croprot import autodiff as ad
from croprot.errors import ContractError, DimensionError

import oracles


def params_on_tape(arrays, dtype=np.float64):
    return [ad.Tensor(a, dtype=dtype) for a in arrays]


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
    x = params_on_tape([np.ones((3, 2))])[0]
    with ad.recording([x]) as tape:
        loss = ad.mean_all(ad.mean_std_pool(x, [3], np.ones(3, dtype=np.int64)))
    grads = ad.backward(tape, loss)
    assert np.all(np.isfinite(grads[x]))


def _wide_rows(rng, shape, dtype=np.float32):
    """Rows spanning many binades, so that float64 sums round and their
    order shows."""
    return (rng.normal(0, 1, shape) * np.exp(rng.normal(0, 6, shape))).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cols", [1, 2, 5, 16, 64])
@pytest.mark.parametrize("rows", [1, 2, 37, 2772])
def test_column_sum_bitwise_equal_to_axis_sum(rows, cols, dtype):
    # bias gradients: numpy sums one column, or a column-major array,
    # pairwise, and the rows of any other array in row order
    g = _wide_rows(np.random.default_rng(rows * 100 + cols), (rows, 2 * cols), dtype)
    for view in (np.ascontiguousarray(g[:, :cols]), g[:, ::2], np.asfortranarray(g[:, :cols])):
        got = ad._column_sum(view)
        want = view.sum(axis=0, dtype=np.float64)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestSegmentPool:
    def _expanded(self, x, sizes, counts):
        """The pool of the same segments with row r repeated counts[r] times."""
        rows = np.repeat(x, counts, axis=0)
        expanded = np.add.reduceat(counts, np.cumsum(sizes) - sizes)
        return ad.mean_std_pool(ad.Tensor(rows), expanded, np.ones(len(rows), np.int64)).data

    def test_counts_equal_repeated_rows(self):
        rng = np.random.default_rng(0)
        sizes = np.array([3, 3, 1, 5, 2])
        x = rng.normal(0, 1, (sizes.sum(), 4))
        counts = rng.integers(1, 5, sizes.sum())
        got = ad.mean_std_pool(ad.Tensor(x), sizes, counts).data
        assert got.shape == (5, 8)
        assert np.allclose(got, self._expanded(x, sizes, counts), atol=1e-12)

    def test_unit_counts_bitwise_equal_to_axis_mean(self):
        # equal segments with counts of 1 pool as the (G, S, d) mean || std
        # over axis 1 does: float64 sums added row by row
        rng = np.random.default_rng(1)
        for g, s, d in ((12, 8, 16), (36, 32, 64), (5, 1, 3)):
            x = _wide_rows(rng, (g * s, d))
            got = ad.mean_std_pool(ad.Tensor(x), np.full(g, s), np.ones(g * s, np.int64)).data
            blocks = x.reshape(g, s, d)
            mean = blocks.mean(axis=1, dtype=np.float64)
            centered = blocks - mean.astype(np.float32)[:, None, :]
            std = np.sqrt(np.square(centered).mean(axis=1, dtype=np.float64))
            want = np.concatenate([mean, std], axis=-1).astype(np.float32)
            assert got.tobytes() == want.tobytes()

    def test_sums_run_in_row_order(self):
        rng = np.random.default_rng(2)
        sizes = np.array([4, 4, 4, 7, 7, 2, 4])
        x = _wide_rows(rng, (sizes.sum(), 5))
        counts = rng.integers(1, 4, sizes.sum())
        got = ad.mean_std_pool(ad.Tensor(x), sizes, counts).data
        want, start = [], 0
        for size in sizes:
            acc = np.zeros(5)
            for r in range(start, start + size):
                acc += counts[r] * x[r].astype(np.float64)
            want.append(acc / counts[start:start + size].sum())
            start += size
        assert got[:, :5].tobytes() == np.array(want).astype(np.float32).tobytes()

    def test_gradient_with_counts_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        sizes = [2, 3, 1, 3]
        counts = np.array([1, 3, 2, 1, 4, 5, 2, 2, 5])
        x0 = rng.normal(0, 1, (9, 3))
        mix = rng.normal(0, 1, (4, 6))

        def f(arrs):
            (x,) = params_on_tape(arrs)
            with ad.recording([x]):
                pooled = ad.mean_std_pool(x, sizes, counts)
                loss = ad.mean_all(ad.mul(pooled, ad.Tensor(mix, dtype=np.float64)))
            return loss, [x]

        assert ad.finite_diff_check(f, [x0], eps=1e-6) < 1e-5

    def test_zero_variance_segment_zero_std_gradient(self):
        x0 = np.array([[1.5, -2.0], [1.5, -2.0], [0.3, 0.1], [0.7, 0.4]])
        (x,) = params_on_tape([x0])
        with ad.recording([x]) as tape:
            pooled = ad.mean_std_pool(x, [2, 2], np.array([2, 3, 1, 2]))
            std_half = ad.mul(pooled, ad.Tensor(np.repeat([[0.0, 1.0]], [2, 2], axis=1)
                                                .repeat(2, axis=0)))
            loss = ad.mean_all(std_half)
        g = ad.backward(tape, loss)[x]
        assert pooled.data[0, 2:].tolist() == [0.0, 0.0]
        assert np.all(g[:2] == 0.0)
        assert np.all(np.isfinite(g)) and np.any(g[2:] != 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
           constant=st.lists(st.booleans(), min_size=12, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @example(sizes=[1, 1, 3, 3, 1], constant=[False, True, True] + [False] * 9, seed=0)
    def test_tape_free_equals_taped(self, dtype, sizes, constant, seed):
        # off the tape the pool keeps no centred rows and squares them in
        # place; its output is the taped one, bit for bit, and x is left
        # as it was.  Runs of equal sizes, one-row segments with counts
        # above 1, and segments of equal rows (zero variance).
        rng = np.random.default_rng(seed)
        sizes = np.array(sizes)
        x0 = _wide_rows(rng, (sizes.sum(), 6), dtype)
        for start, size, same in zip(np.cumsum(sizes) - sizes, sizes, constant):
            if same:
                x0[start:start + size] = x0[start]
        counts = rng.integers(1, 6, sizes.sum())
        free = ad.Tensor(x0.copy())
        got = ad.mean_std_pool(free, sizes, counts)
        assert got.tape is None and free.data.tobytes() == x0.tobytes()
        (x,) = params_on_tape([x0], dtype)
        with ad.recording([x]):
            want = ad.mean_std_pool(x, sizes, counts)
        assert want.tape is not None
        assert got.data.dtype == dtype and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("sizes, counts", [
        ([2, 2], [1, 1, 1]),      # counts do not match the rows
        ([2, 1], [1, 1, 1, 1]),   # sizes do not cover the rows
        ([4, 0], [1, 1, 1, 1]),   # empty segment
    ])
    def test_shape_errors(self, sizes, counts):
        with pytest.raises(DimensionError):
            ad.mean_std_pool(ad.Tensor(np.ones((4, 2))), sizes, counts)

    def test_non_positive_count_refused(self):
        with pytest.raises(ContractError):
            ad.mean_std_pool(ad.Tensor(np.ones((2, 2))), [2], [1, 0])


class TestDense:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_unfused_layer(self, relu, dtype):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(0, 1, (37, 9)), rng.normal(0, 1, (9, 5)), rng.normal(0, 1, 5)]
        upstream = rng.normal(0, 1, (37, 5)).astype(dtype)

        def run(layer):
            x, w, b = params_on_tape(arrays, dtype=dtype)
            with ad.recording([x, w, b]) as tape:
                z = layer(x, w, b)
                loss = ad.mean_all(ad.mul(z, ad.Tensor(upstream)))
            grads = ad.backward(tape, loss)
            return [z.data] + [grads[t] for t in (x, w, b)]

        def unfused(x, w, b):
            z = ad.add_bias(ad.matmul(x, w), b)
            return ad.relu(z) if relu else z

        got = run(lambda x, w, b: ad.dense(x, w, b, relu=relu))
        want = run(unfused)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_does_not_depend_on_batch(self, dtype):
        # a one-row input runs as gemm like a larger batch, not as gemv
        rng = np.random.default_rng(5)
        x, w, b = (ad.Tensor(rng.normal(0, 1, shape), dtype=dtype)
                   for shape in [(40, 64), (64, 48), (48,)])
        batch = ad.dense(x, w, b, relu=True).data
        for i in range(len(batch)):
            one = ad.dense(ad.Tensor(x.data[i : i + 1]), w, b, relu=True).data
            assert one.shape == (1, 48) and one.tobytes() == batch[i].tobytes()

    def test_untaped_input_gets_no_gradient(self):
        # the first layer's x is on no tape: backward computes no gradient
        # for it, and every other gradient is the oracle rule's
        rng = np.random.default_rng(6)
        x0 = rng.normal(0, 1, (7, 3))
        arrays = [rng.normal(0, 1, s) for s in [(3, 4), (4,), (4, 2), (2,)]]

        def run(dense):
            x = ad.Tensor(x0)
            w1, b1, w2, b2 = params_on_tape(arrays, dtype=np.float32)
            with ad.recording([w1, b1, w2, b2]) as tape:
                h = dense(x, w1, b1, relu=True)
                loss = ad.mean_all(dense(h, w2, b2))
            grads = ad.backward(tape, loss)
            named = dict(zip(["x", "h", "w1", "b1", "w2", "b2"], [x, h, w1, b1, w2, b2]))
            return {name: grads[t].tobytes() for name, t in named.items() if t in grads}

        got, want = run(ad.dense), run(oracles.dense)
        assert "x" in want and "h" in got
        del want["x"]
        assert got == want

    def test_one_tape_op(self):
        x, w, b = params_on_tape([np.ones((2, 3)), np.ones((3, 4)), np.zeros(4)])
        with ad.recording([x, w, b]) as tape:
            ad.dense(x, w, b, relu=True)
        assert len(tape.ops) == 1

    @pytest.mark.parametrize("shapes", [[(2, 3), (4, 5), (5,)], [(2, 3), (3, 5), (4,)]])
    def test_shape_mismatch(self, shapes):
        x, w, b = (ad.Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError):
            ad.dense(x, w, b)
