from fractions import Fraction

import numpy as np
import pytest

from croprot.crf import (
    TransitionTensor,
    crf_score,
    estimate_transitions,
    load_transitions,
    save_transitions,
)
from croprot.errors import ContractError, DataFormatError


class TestEstimate:
    def test_no_data_gives_uniform(self):
        t = estimate_transitions([], 4)
        assert np.allclose(t.t, 0.25)
        assert t.triplet_count == 0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        triplets = rng.integers(0, 5, (200, 3))
        t = estimate_transitions(triplets, 5, alpha=0.7)
        assert np.allclose(t.t.sum(axis=2), 1.0)

    def test_single_triplet_two_classes(self):
        # one (0,0,0) observation with alpha=1: (1+1)/(1+2) and (0+1)/(1+2)
        t = estimate_transitions([(0, 0, 0)], 2)
        assert t.t[0, 0, 0] == pytest.approx(2 / 3)
        assert t.t[0, 0, 1] == pytest.approx(1 / 3)
        # untouched contexts stay uniform
        assert np.allclose(t.t[1, 0], 0.5)

    def test_small_alpha_approaches_frequencies(self):
        # context (0,0) observed 3 times going to 0 and once to 1
        triplets = [(0, 0, 0)] * 3 + [(0, 0, 1)]
        t = estimate_transitions(triplets, 2, alpha=1e-9)
        assert t.t[0, 0, 0] == pytest.approx(0.75, abs=1e-8)
        assert t.t[0, 0, 1] == pytest.approx(0.25, abs=1e-8)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(1)
        for L, alpha in ((2, 1.0), (3, 1.0), (5, 2.0)):
            triplets = [tuple(rng.integers(0, L, 3)) for _ in range(50)]
            t = estimate_transitions(triplets, L, alpha=alpha)
            a_frac = Fraction(alpha)
            for a in range(L):
                for b in range(L):
                    total = sum(1 for x in triplets if x[:2] == (a, b))
                    for c in range(L):
                        n = sum(1 for x in triplets if x == (a, b, c))
                        want = (n + a_frac) / (total + a_frac * L)
                        assert t.t[a, b, c] == pytest.approx(float(want), abs=1e-12)

    def test_histories_count_as_their_triplets(self):
        histories = np.random.default_rng(2).integers(0, 4, (30, 5))
        triplets = [tuple(h[i:i + 3]) for h in histories for i in range(3)]
        for given in (histories, histories.tolist()):
            t = estimate_transitions(given, 4, alpha=0.5)
            u = estimate_transitions(triplets, 4, alpha=0.5)
            assert t.t.tobytes() == u.t.tobytes()
            assert t.triplet_count == u.triplet_count == 90

    @pytest.mark.parametrize("years", [1, 2])
    def test_histories_shorter_than_three_years_count_nothing(self, years):
        t = estimate_transitions(np.zeros((4, years), np.int64), 2)
        assert t.triplet_count == 0 and (t.t == 0.5).all()

    def test_histories_must_be_two_dimensional(self):
        with pytest.raises(ContractError, match=r"\(N, Y\)"):
            estimate_transitions(np.zeros((2, 3, 3), np.int64), 2)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ContractError):
            estimate_transitions([], 3, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_alpha_must_be_finite(self, alpha):
        # NaN passes an `alpha <= 0` check and would reach the tensor
        with pytest.raises(ContractError):
            estimate_transitions([(0, 1, 0)], 3, alpha=alpha)


class TestScore:
    def _uniformish(self, L=2):
        return estimate_transitions([], L)

    def test_uniform_transitions_leave_posterior_unchanged(self):
        p = np.array([0.1, 0.2, 0.7])
        _, out = crf_score(p, 0, 1, self._uniformish(3))
        assert np.allclose(out, p)

    def test_hand_case_flips_argmax(self):
        # p = (0.6, 0.4), transition row (0.2, 0.8) -> scores (0.12, 0.32)
        t = TransitionTensor(
            t=np.array([[[0.2, 0.8], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]),
            alpha=1.0,
        )
        scores, out = crf_score([0.6, 0.4], 0, 0, t)
        assert np.allclose(scores, [0.12, 0.32])
        assert np.allclose(out, [0.12 / 0.44, 0.32 / 0.44])
        assert out.argmax() == 1

    def test_normalized_output_sums_to_one(self):
        rng = np.random.default_rng(2)
        t = estimate_transitions(rng.integers(0, 4, (60, 3)), 4)
        p = rng.dirichlet(np.ones(4))
        _, out = crf_score(p, 2, 3, t)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scaling_transition_row_preserves_normalized_posterior(self):
        t = self._uniformish(3)
        p = np.array([0.5, 0.3, 0.2])
        _, base = crf_score(p, 0, 0, t)
        scaled = TransitionTensor(t=t.t * 7.0, alpha=t.alpha)
        _, out = crf_score(p, 0, 0, scaled)
        assert np.allclose(out, base)

    def test_uncalibrated_posterior_rejected(self):
        with pytest.raises(ContractError):
            crf_score([0.9, 0.9], 0, 0, self._uniformish())

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractError):
            crf_score([1.0], 0, 0, self._uniformish())

    def test_degenerate_product_rejected(self):
        t = TransitionTensor(t=np.zeros((2, 2, 2)), alpha=1.0)
        with pytest.raises(ContractError):
            crf_score([0.5, 0.5], 0, 0, t)

    @pytest.mark.parametrize("L", [2, 3, 8, 20, 40])
    def test_stacked_rows_equal_one_row_calls(self, L):
        # (N, L) posteriors with (N,) past labels: each row bitwise as alone
        rng = np.random.default_rng(L)
        t = estimate_transitions(rng.integers(0, L, (200, 3)), L)
        p = rng.dirichlet(np.ones(L), 50).astype(np.float32)
        a, b = rng.integers(0, L, 50), rng.integers(0, L, 50)
        scores, out = crf_score(p, a, b, t)
        for i in range(50):
            want_scores, want_out = crf_score(p[i], a[i], b[i], t)
            assert scores[i].tobytes() == want_scores.tobytes()
            assert out[i].tobytes() == want_out.tobytes()

    def test_one_bad_row_rejects_the_stack(self):
        t = self._uniformish()
        with pytest.raises(ContractError):
            crf_score([[0.5, 0.5], [0.9, 0.9]], [0, 0], [0, 1], t)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        t = estimate_transitions(rng.integers(0, 3, (40, 3)), 3, alpha=0.5)
        path = tmp_path / "trans.bin"
        save_transitions(path, t)
        back = load_transitions(path)
        assert np.array_equal(back.t, t.t)
        assert back.alpha == t.alpha
        assert back.triplet_count == t.triplet_count

    def test_bad_magic(self, tmp_path):
        t = estimate_transitions([], 2)
        path = tmp_path / "trans.bin"
        save_transitions(path, t)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="RCTT"):
            load_transitions(path)

    def test_truncated(self, tmp_path):
        t = estimate_transitions([], 3)
        path = tmp_path / "trans.bin"
        save_transitions(path, t)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            load_transitions(path)

    def test_truncated_class_count(self, tmp_path):
        # a file cut inside the 4-byte class count
        path = tmp_path / "trans.bin"
        save_transitions(path, estimate_transitions([], 2))
        path.write_bytes(b"RCTT\x02")
        with pytest.raises(DataFormatError, match="truncated RCTT file.*class count"):
            load_transitions(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trans.bin"
        save_transitions(path, estimate_transitions([], 2))
        path.write_bytes(path.read_bytes() + b"\x01" * 8)
        with pytest.raises(DataFormatError, match="8 trailing bytes.*RCTT"):
            load_transitions(path)

    @pytest.mark.parametrize("sidecar", ["{not json", "[]", '{"alpha": 1.0}',
                                         '{"triplet_count": 3}'])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "trans.bin"
        save_transitions(path, estimate_transitions([], 2))
        (tmp_path / "trans.bin.json").write_text(sidecar)
        with pytest.raises(DataFormatError, match="sidecar"):
            load_transitions(path)

    @staticmethod
    def _with_sidecar(tmp_path, sidecar):
        """Path of a saved 2-class tensor whose sidecar is the text
        `sidecar`."""
        path = tmp_path / "trans.bin"
        save_transitions(path, estimate_transitions([], 2))
        (tmp_path / "trans.bin.json").write_text(sidecar)
        return path

    @pytest.mark.parametrize("alpha", ['"x"', "null", "true", "[1]", "0", "-1.5", "1e400"])
    def test_alpha_not_a_finite_positive_number_refused(self, tmp_path, alpha):
        path = self._with_sidecar(
            tmp_path, f'{{"num_classes": 2, "alpha": {alpha}, "triplet_count": 0}}')
        with pytest.raises(DataFormatError, match="needs alpha, a finite positive number"):
            load_transitions(path)

    @pytest.mark.parametrize("count", ["-5", "null", '"3"', "2.0", "true"])
    def test_triplet_count_not_a_non_negative_integer_refused(self, tmp_path, count):
        path = self._with_sidecar(
            tmp_path, f'{{"num_classes": 2, "alpha": 1, "triplet_count": {count}}}')
        with pytest.raises(DataFormatError, match="triplet_count, a non-negative integer"):
            load_transitions(path)

    @pytest.mark.parametrize("num_classes", [None, "3", '"2"', "2.0", "true"])
    def test_num_classes_not_the_tensors_refused(self, tmp_path, num_classes):
        # None: the key is missing
        entry = "" if num_classes is None else f'"num_classes": {num_classes}, '
        path = self._with_sidecar(tmp_path, f'{{{entry}"alpha": 1.0, "triplet_count": 0}}')
        with pytest.raises(DataFormatError, match="num_classes, the tensor's 2"):
            load_transitions(path)

    def test_save_refuses_a_sidecar_json_cannot_encode(self, tmp_path):
        # the sidecar is encoded before the tensor file is opened
        t = estimate_transitions([], 2)
        t.triplet_count = np.int64(2)
        with pytest.raises(DataFormatError, match=r"^transition-tensor sidecar .*trans\.bin\.json: "
                                                  "Object of type int64 is not JSON serializable"):
            save_transitions(tmp_path / "trans.bin", t)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
    def test_non_finite_or_negative_entry(self, tmp_path, value):
        t = estimate_transitions([(0, 1, 1)], 2)
        t.t[1, 0, 1] = value
        path = tmp_path / "trans.bin"
        save_transitions(path, t)
        with pytest.raises(DataFormatError, match="non-finite or negative"):
            load_transitions(path)

    def test_row_not_summing_to_one(self, tmp_path):
        t = estimate_transitions([(0, 1, 1)], 3)
        t.t[2, 1] = [0.5, 0.25, 0.25 + 2e-9]
        path = tmp_path / "trans.bin"
        save_transitions(path, t)
        with pytest.raises(DataFormatError, match=r"row \(2, 1\) sums to"):
            load_transitions(path)
        # within 1e-9 it loads
        t.t[2, 1] = [0.5, 0.25, 0.25 + 5e-10]
        save_transitions(path, t)
        assert load_transitions(path).t[2, 1, 2] == 0.25 + 5e-10
