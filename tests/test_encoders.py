import dataclasses

import numpy as np
import pytest

from croprot import autodiff as ad, encoders
from croprot.data import PixelSetSample, draw_keys, sample_pixels
from croprot.encoders import (
    EncoderDims,
    LtaeWeights,
    PseWeights,
    _blocks,
    encode_batch,
    positional_encoding,
    positional_encoding_matrix,
)
from croprot.errors import ConfigError, ContractError

from conftest import encode_drawn, expand_draws, tiny_dims
from oracles import ltae_forward, pse_forward


def _weights(dtype=np.float64, seed=0):
    dims = tiny_dims()
    rng = np.random.default_rng(seed)
    return dims, PseWeights(dims, rng, dtype=dtype), LtaeWeights(dims, rng, dtype=dtype)


# ---------------------------------------------------------------------------
# numpy reference implementations (no autodiff machinery)


def pse_oracle(x, pse):
    relu = lambda v: np.maximum(v, 0.0)
    h = relu(x.T @ pse.w1.data + pse.b1.data)
    h = relu(h @ pse.w2.data + pse.b2.data)
    pooled = np.concatenate([h.mean(axis=0), h.std(axis=0)])
    return relu(pooled @ pse.w3.data + pse.b3.data)


def ltae_oracle(e, ltae):
    """e is (T, d2); per-head scaled dot-product attention with channel
    grouping, written with explicit loops."""
    dims = ltae.dims
    t = e.shape[0]
    keys = (e @ ltae.wk.data + ltae.bk.data).reshape(t, dims.heads, dims.d_k)
    values = e.reshape(t, dims.heads, dims.group)
    ctx = np.zeros((dims.heads, dims.group))
    attn = np.zeros((dims.heads, t))
    for h in range(dims.heads):
        scores = np.array(
            [keys[i, h] @ ltae.query.data[h] / np.sqrt(dims.d_k) for i in range(t)]
        )
        w = np.exp(scores - scores.max())
        w /= w.sum()
        attn[h] = w
        for i in range(t):
            ctx[h] += w[i] * values[i, h]
    hid = np.maximum(ctx.reshape(-1) @ ltae.wo1.data + ltae.bo1.data, 0.0)
    return hid @ ltae.wo2.data + ltae.bo2.data, attn


# ---------------------------------------------------------------------------


class TestPositionalEncoding:
    def test_day_zero(self):
        pe = positional_encoding(0, 8)
        assert np.allclose(pe, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_first_pair_is_plain_sin_cos(self):
        pe = positional_encoding(123, 6)
        assert pe[0] == pytest.approx(np.sin(123.0), abs=1e-6)
        assert pe[1] == pytest.approx(np.cos(123.0), abs=1e-6)

    def test_hand_computed_d4(self):
        day, tau = 100, 1000.0
        pe = positional_encoding(day, 4, tau=tau)
        want = [
            np.sin(day),
            np.cos(day),
            np.sin(day / tau ** (2 / 4)),
            np.cos(day / tau ** (2 / 4)),
        ]
        assert np.allclose(pe, want, atol=1e-6)

    def test_bounded(self):
        for day in (1, 50, 366):
            pe = positional_encoding(day, 16)
            assert np.all(np.abs(pe) <= 1.0 + 1e-6)

    def test_odd_dimension(self):
        pe = positional_encoding(40, 5)
        assert pe.shape == (5,)
        assert np.all(np.isfinite(pe))

    def test_matrix_stacks_rows(self):
        days = [10, 60, 200]
        m = positional_encoding_matrix(days, 8)
        assert m.shape == (3, 8)
        for row, day in zip(m, days):
            assert np.allclose(row, positional_encoding(day, 8))

    @pytest.mark.parametrize("d", [8, 7])
    def test_matrix_bitwise_equal_to_rows_for_every_day(self, d):
        days = np.arange(0, 367)
        rows = np.stack([positional_encoding(day, d) for day in days])
        m = positional_encoding_matrix(days, d)
        assert m.dtype == np.float32
        assert m.tobytes() == rows.tobytes()
        # any index shape: the rows of a (2, 3) day array
        grid = days[[[0, 1, 366], [200, 5, 1]]]
        assert positional_encoding_matrix(grid, d).tobytes() == rows[grid].tobytes()

    @pytest.mark.parametrize("days", [[-1], [10, 367], [[1, 2], [3, -5]], [1.0, 2.0]])
    def test_matrix_rejects_days_outside_table(self, days):
        with pytest.raises(ContractError):
            positional_encoding_matrix(np.array(days), 8)


class TestPixelSetEncoder:
    def test_output_shape(self):
        dims, pse, _ = _weights()
        out = pse_forward(np.random.default_rng(0).normal(0, 1, (dims.channels, 5)), pse)
        assert out.data.shape == (dims.d2,)

    def test_matches_loop_oracle(self):
        dims, pse, _ = _weights(seed=3)
        x = np.random.default_rng(1).normal(0, 1, (dims.channels, 7))
        got = pse_forward(x, pse).data
        assert np.allclose(got, pse_oracle(x, pse), atol=1e-10)

    def test_pixel_permutation_invariance(self):
        dims, pse, _ = _weights(seed=4)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (dims.channels, 9))
        base = pse_forward(x, pse).data
        for _ in range(5):
            perm = rng.permutation(9)
            assert np.allclose(pse_forward(x[:, perm], pse).data, base, atol=1e-10)

    def test_identical_pixels_zero_std(self):
        # S copies of one pixel: the std half of the pooled vector is zero,
        # so the result matches pooling the single pixel alone
        dims, pse, _ = _weights(seed=5)
        pixel = np.random.default_rng(3).normal(0, 1, (dims.channels, 1))
        wide = np.repeat(pixel, 6, axis=1)
        assert np.allclose(
            pse_forward(wide, pse).data, pse_forward(pixel, pse).data, atol=1e-10
        )

    def test_non_finite_input_rejected(self):
        dims, pse, _ = _weights()
        x = np.ones((dims.channels, 4))
        x[0, 0] = np.nan
        with pytest.raises(ContractError):
            pse_forward(x, pse)


class TestTemporalAttention:
    def test_single_timestep_weight_is_one(self):
        dims, _, ltae = _weights(seed=6)
        e = np.random.default_rng(4).normal(0, 1, dims.d2)
        out, attn = ltae_forward([e], [100], ltae, return_attention=True)
        assert attn.data.shape == (dims.heads, 1)
        assert np.allclose(attn.data, 1.0)

    def test_duplicated_entries_uniform_attention(self):
        dims, _, ltae = _weights(seed=7)
        e = np.random.default_rng(5).normal(0, 1, dims.d2)
        _, attn = ltae_forward([e, e, e], [50, 100, 150], ltae, return_attention=True)
        assert np.allclose(attn.data, 1 / 3, atol=1e-10)

    def test_weights_sum_to_one(self):
        dims, _, ltae = _weights(seed=8)
        seq = list(np.random.default_rng(6).normal(0, 1, (4, dims.d2)))
        _, attn = ltae_forward(seq, [10, 20, 30, 40], ltae, return_attention=True)
        assert np.allclose(attn.data.sum(axis=-1), 1.0, atol=1e-8)

    def test_matches_loop_oracle(self):
        dims, _, ltae = _weights(seed=9)
        e = np.random.default_rng(7).normal(0, 1, (5, dims.d2))
        got, attn = ltae_forward(list(e), [1, 2, 3, 4, 5], ltae, return_attention=True)
        want, want_attn = ltae_oracle(e, ltae)
        assert np.allclose(got.data, want, atol=1e-10)
        assert np.allclose(attn.data, want_attn, atol=1e-10)

    def test_empty_sequence_rejected(self):
        _, _, ltae = _weights()
        with pytest.raises(ContractError):
            ltae_forward([], [], ltae)

    def test_length_mismatch_rejected(self):
        dims, _, ltae = _weights()
        with pytest.raises(ContractError):
            ltae_forward([np.zeros(dims.d2)], [1, 2], ltae)

    def test_heads_must_divide_d2(self):
        with pytest.raises(ConfigError):
            EncoderDims(d2=10, heads=3).validate()


class TestEncodeBatch:
    def test_shape(self):
        dims, pse, ltae = _weights()
        pixels = np.random.default_rng(8).normal(0, 1, (3, dims.channels, 4, 6))
        days = np.linspace(20, 300, 6).astype(int)
        out = encode_drawn(pixels, days, pse, ltae)
        assert out.data.shape == (3, dims.descriptor)

    def test_batched_equals_single(self):
        dims, pse, ltae = _weights(seed=10)
        rng = np.random.default_rng(9)
        pixels = rng.normal(0, 1, (4, dims.channels, 5, 3))
        days = np.array([30, 120, 250])
        batched = encode_drawn(pixels, days, pse, ltae).data
        for i in range(4):
            single = encode_drawn(pixels[i : i + 1], days, pse, ltae).data[0]
            assert np.allclose(batched[i], single, atol=1e-10)

    def test_per_row_days_equal_row_by_row(self):
        dims, pse, ltae = _weights(seed=14)
        pixels = np.random.default_rng(12).normal(0, 1, (3, dims.channels, 4, 3))
        days = np.array([[30, 120, 250], [1, 2, 366], [100, 101, 300]])
        batched = encode_drawn(pixels, days, pse, ltae).data
        for i in range(3):
            single = encode_drawn(pixels[i : i + 1], days[i], pse, ltae).data[0]
            assert np.allclose(batched[i], single, atol=1e-10)

    def test_no_dates_rejected(self):
        dims, pse, ltae = _weights()
        pixels = np.zeros((2, dims.channels, 3, 0))
        with pytest.raises(ContractError, match="no dates"):
            encode_drawn(pixels, np.zeros((2, 0), np.int64), pse, ltae)

    def test_out_of_range_days_rejected(self):
        dims, pse, ltae = _weights()
        pixels = np.zeros((1, dims.channels, 2, 3))
        with pytest.raises(ContractError):
            encode_drawn(pixels, np.array([0, 10, 367]), pse, ltae)

    def test_matches_componentwise_path(self):
        # batched forward == per-date pse_forward + posenc + ltae_forward
        dims, pse, ltae = _weights(seed=11)
        rng = np.random.default_rng(10)
        pixels = rng.normal(0, 1, (1, dims.channels, 6, 4))
        days = np.array([15, 90, 180, 330])
        batched = encode_drawn(pixels, days, pse, ltae).data[0]
        seq = [
            pse_forward(pixels[0, :, :, t], pse).data
            + positional_encoding(int(days[t]), dims.d2)
            for t in range(4)
        ]
        manual = ltae_forward(seq, days, ltae).data
        assert np.allclose(batched, manual, atol=1e-8)

    def test_days_change_output(self):
        dims, pse, ltae = _weights(seed=12)
        pixels = np.random.default_rng(11).normal(0, 1, (1, dims.channels, 4, 3))
        a = encode_drawn(pixels, np.array([10, 20, 30]), pse, ltae).data
        b = encode_drawn(pixels, np.array([100, 200, 300]), pse, ltae).data
        assert not np.allclose(a, b)


def test_encoder_gradients_match_finite_differences():
    dims = tiny_dims()
    rng = np.random.default_rng(13)
    pixels = rng.normal(0, 1, (2, dims.channels, 4, 3))
    days = np.array([40, 150, 260])
    _, pse0, ltae0 = _weights(seed=2)
    arrays = [np.array(p.data) for p in pse0.parameters() + ltae0.parameters()]

    def f(arrs):
        _, pse, ltae = _weights(seed=2)
        tensors = pse.parameters() + ltae.parameters()
        for t, a in zip(tensors, arrs):
            t.data = a
        with ad.recording(tensors):
            out = encode_drawn(pixels, days, pse, ltae)
            loss = ad.mean_all(out)
        return loss, tensors

    assert ad.finite_diff_check(f, arrays, eps=1e-5) < 1e-4


DRAWN_DIMS = EncoderDims(channels=4, sample_pixels=16, d1=16, d2=32, heads=4, d_k=8,
                         out_hidden=32, descriptor=32)


def _drawn_batch(pixel_counts, seed, dims=DRAWN_DIMS, dtype=np.float32):
    """(pse, ltae, sets, days, columns, counts) of one encoder batch of
    6-date, 4-channel pixel sets of the given pixel counts, drawn by
    `sample_pixels` with S = dims.sample_pixels, and weights of `dtype`."""
    rng = np.random.default_rng(seed)
    pse = PseWeights(dims, rng, dtype)
    ltae = LtaeWeights(dims, rng, dtype)
    days = np.array([20, 60, 100, 180, 250, 330])
    samples = [
        PixelSetSample(0, 1, rng.normal(0, 1, (4, n_p, 6)).astype(np.float32), days, 0)
        for n_p in pixel_counts
    ]
    keys = draw_keys((seed,), np.arange(len(samples)), np.ones(len(samples), dtype=int))
    columns, counts = sample_pixels(keys, pixel_counts, dims.sample_pixels)
    days = np.tile(days, (len(samples), 1))
    return pse, ltae, [x.pixels for x in samples], days, columns, counts


class TestDistinctColumns:
    """Encoding each distinct drawn column once, weighted by its count,
    gives the descriptors of encoding every draw (counts of 1), bitwise."""


    @pytest.mark.parametrize("pixel_counts", [
        [16, 20, 40],    # n_p >= S: drawn without repeats
        [3, 9, 15, 5],   # n_p < S: repeats
        [1, 1],          # one pixel drawn S times
        [1, 40, 6, 16, 2, 9, 9],
    ])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_equals_drawn_encode(self, pixel_counts, seed):
        pse, ltae, sets, days, columns, counts = _drawn_batch(pixel_counts, seed)
        drawn = expand_draws(columns, counts)
        want = encode_batch(drawn, np.ones_like(drawn), sets, days, pse, ltae).data
        assert counts.sum(axis=1).tolist() == [16] * len(sets)
        got = encode_batch(columns, counts, sets, days, pse, ltae).data
        assert got.tobytes() == want.tobytes()

    def test_padding_position_is_free(self):
        pse, ltae, sets, days, columns, counts = _drawn_batch([3, 5], 4)
        want = encode_batch(columns, counts, sets, days, pse, ltae).data
        got = encode_batch(columns[:, ::-1], counts[:, ::-1], sets, days, pse, ltae).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "change",
        ["short_counts", "negative", "shape", "sets", "dates", "column", "channels", "empty"])
    def test_malformed_draws_refused(self, change):
        pse, ltae, sets, days, columns, counts = _drawn_batch([3, 20], 5)
        drawn = expand_draws(columns, counts)
        counts = np.ones_like(drawn)
        if change == "column":
            # column 3 of the 3-pixel set: pixels that the joined sets hold,
            # as column 0 of the next set
            drawn[0, 0] = 3
        elif change == "channels":
            sets = [sets[0], sets[1][:3]]
        elif change == "empty":
            drawn, counts, sets, days = drawn[:0], counts[:0], sets[:0], days[:0]
        elif change == "short_counts":
            counts[0, 0] = 0
        elif change == "negative":
            counts[0, :2] = [-1, 3]
        elif change == "shape":
            counts = counts[:, :-1]
        elif change == "sets":
            sets = sets[:1]
        else:
            sets = [sets[0], sets[1][:, :, :5]]
        with pytest.raises(ContractError):
            encode_batch(drawn, counts, sets, days, pse, ltae)


class TestPixelBlocks:
    """Off the tape, the pixel stage runs in blocks of whole (item, date)
    segments; the descriptors are those of one block, bit for bit."""

    # 1 pixel: one-row segments; 3, 9 and 15 pixels: draw counts above 1;
    # 40 pixels: 16-row segments, larger than the bounds below 16
    PIXEL_COUNTS = [1, 40, 3, 16, 9, 1, 15]
    ONE_BLOCK = 10**9
    # the default d1, at which a one-row gemv rounds unlike gemm
    DIMS = dataclasses.replace(DRAWN_DIMS, d1=64)

    def _encode(self, monkeypatch, bound, batch):
        monkeypatch.setattr(encoders, "PIXEL_BLOCK_ROWS", bound)
        pse, ltae, sets, days, columns, counts = batch
        return encode_batch(columns, counts, sets, days, pse, ltae).data

    @pytest.mark.parametrize("sizes, bound, want", [
        ([3, 1, 5, 2, 2], 4, [(0, 2), (2, 3), (3, 5)]),
        ([3, 1, 5, 2, 2], 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        ([3, 1, 5, 2, 2], 13, [(0, 5)]),
        ([6], 2, [(0, 1)]),
    ])
    def test_blocks_cover_whole_segments(self, sizes, bound, want):
        sizes = np.array(sizes)
        ends = np.cumsum(sizes) - sizes
        got = list(_blocks(sizes, bound))
        assert [(segs.start, segs.stop) for segs, _ in got] == want
        for segs, rows in got:
            assert rows.start == ends[segs.start]
            assert rows.stop - rows.start == sizes[segs].sum()

    # 1: every segment is its own block, one-row segments one-row blocks;
    # 5: below one 16-row segment, and one-row segments share blocks;
    # 40 and 200: a few segments, a few items
    @pytest.mark.parametrize("bound", [1, 5, 40, 200])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_equals_one_block(self, monkeypatch, bound, seed):
        batch = _drawn_batch(self.PIXEL_COUNTS, seed, self.DIMS)
        counts = batch[-1]
        assert counts.max() > 1 and (np.count_nonzero(counts, axis=1) == 1).any()
        pools = []
        pool = ad.mean_std_pool
        monkeypatch.setattr(ad, "mean_std_pool",
                            lambda x, *a: pools.append(len(x.data)) or pool(x, *a))
        want = self._encode(monkeypatch, self.ONE_BLOCK, batch)
        assert len(pools) == 1
        got = self._encode(monkeypatch, bound, batch)
        assert len(pools) > 2 and max(pools[1:]) <= max(bound, 16)
        if bound < 16:
            assert 1 in pools[1:]
        assert got.tobytes() == want.tobytes()

    def test_taped_batch_is_one_block(self, monkeypatch):
        # backward needs every block's activations, so a taped batch records
        # the same ops, and computes the same values, whatever the bound
        pse, ltae, sets, days, columns, counts = _drawn_batch(self.PIXEL_COUNTS, 4, self.DIMS)
        recorded = []
        for bound in (self.ONE_BLOCK, 1):
            monkeypatch.setattr(encoders, "PIXEL_BLOCK_ROWS", bound)
            with ad.recording(pse.parameters() + ltae.parameters()) as tape:
                out = encode_batch(columns, counts, sets, days, pse, ltae)
                loss = ad.mean_all(out)
                grads = ad.backward(tape, loss, params=pse.parameters())
            ops = [(fn.__qualname__, o.data.shape) for o, _, fn in tape.ops]
            grads = [grads[p].tobytes() for p in pse.parameters()]
            recorded.append((ops, out.data.tobytes(), grads))
        assert recorded[0] == recorded[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_tape_free_equals_taped(self, dtype, seed):
        # off the tape the pool keeps no centred rows and the day encoding
        # is added into the pixel-set embeddings in place: the descriptors
        # are the taped ones, bit for bit
        pse, ltae, sets, days, columns, counts = _drawn_batch(self.PIXEL_COUNTS, seed, self.DIMS,
                                                              dtype)
        free = encode_batch(columns, counts, sets, days, pse, ltae)
        with ad.recording(pse.parameters() + ltae.parameters()):
            taped = encode_batch(columns, counts, sets, days, pse, ltae)
        assert free.tape is None and taped.tape is not None
        assert free.data.dtype == dtype and free.data.tobytes() == taped.data.tobytes()
