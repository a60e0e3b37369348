import numpy as np
import pytest

from croprot.calibration import (
    DEFAULT_BINS,
    MAX_BINS,
    TemperatureScaler,
    _bin_index,
    apply_temperature,
    ece,
    fit_temperature,
    nll,
    reliability,
    write_reliability_csv,
)
from croprot.binio import predictions
from croprot.errors import ContractError

import oracles


def make_records(logits, labels):
    """The predictions array of year-1 parcels 0, 1, ... with these logits
    and true labels."""
    n = len(labels)
    return predictions(np.arange(n), np.ones(n), labels, np.asarray(logits, np.float32))


def posterior(records, tau):
    """The float32 posteriors softmax(z / tau) of the records' logits."""
    return apply_temperature(records.logits, tau).astype(np.float32)


def synthetic_records(tau_true, n=2000, num_classes=6, seed=0):
    """Draw labels from softmax(z / tau_true): the NLL-optimal temperature
    for these records approaches tau_true as n grows."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 2, (n, num_classes))
    labels = [
        rng.choice(num_classes, p=apply_temperature(z, tau_true)) for z in logits
    ]
    return make_records(logits, labels)


class TestTemperature:
    def test_tau_one_is_plain_softmax(self):
        z = np.array([1.0, 2.0, 3.0])
        p = apply_temperature(z, 1.0)
        e = np.exp(z)
        assert np.allclose(p, e / e.sum())

    def test_huge_tau_flattens(self):
        p = apply_temperature(np.array([5.0, -3.0, 1.0]), 1e6)
        assert np.allclose(p, 1 / 3, atol=1e-5)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            z = rng.normal(0, 3, 5)
            tau = float(rng.uniform(0.05, 20))
            assert apply_temperature(z, tau).argmax() == z.argmax()

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ContractError):
            apply_temperature(np.zeros(3), 0.0)
        with pytest.raises(ContractError):
            TemperatureScaler(tau=-1.0)


class TestFit:
    def test_recovers_unit_temperature(self):
        scaler = fit_temperature(synthetic_records(1.0))
        assert abs(scaler.tau - 1.0) < 0.05

    def test_recovers_overconfident_scale(self):
        scaler = fit_temperature(synthetic_records(5.0, n=4000, seed=2))
        assert scaler.tau == pytest.approx(5.0, rel=0.10)

    def test_never_worse_than_unit(self):
        for seed in range(3):
            records = synthetic_records(2.0, n=300, seed=seed)
            scaler = fit_temperature(records)
            assert nll(records, scaler.tau) <= nll(records, 1.0) + 1e-12

    def test_single_record(self):
        scaler = fit_temperature(make_records([[3.0, 0.0]], [0]))
        assert scaler.tau > 0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            fit_temperature(make_records(np.zeros((0, 2)), []))

    def test_posteriors_of_the_logits_columns(self):
        records = make_records([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        for r, p in zip(records, posterior(records, 2.0)):
            assert p.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.allclose(p, apply_temperature(r.logits, 2.0))


class TestBinning:
    def test_edges_go_to_lower_bin(self):
        # bins partition (0, 1]: 0.2 with 5 bins is the top edge of bin 0
        assert _bin_index(0.2, 5) == 0
        assert _bin_index(0.2 + 1e-9, 5) == 1
        assert _bin_index(1.0, 5) == 4
        assert _bin_index(1e-12, 5) == 0

    def test_default_bin_count(self):
        assert DEFAULT_BINS == 15
        records = make_records([[2.0, 0.0]], [0])
        assert reliability(records, posterior(records, 1.0)).n_bins == 15

    def test_counts_partition_records(self):
        records = synthetic_records(1.0, n=500, seed=3)
        bins = reliability(records, posterior(records, 1.0), 10)
        assert bins.counts.sum() == 500

    def test_requires_posteriors(self):
        records = make_records([[1.0, 0.0]], [0])
        for missing in (None, np.ones((1, 3), np.float32), np.ones(2, np.float32)):
            with pytest.raises(ContractError):
                reliability(records, missing)

    def test_bin_count_limits(self):
        records = synthetic_records(1.0, n=50, seed=3)
        p = posterior(records, 1.0)
        assert reliability(records, p, MAX_BINS).counts.sum() == 50
        for n_bins in (0, MAX_BINS + 1, 10**11):
            with pytest.raises(ContractError, match=f"got {n_bins}"):
                reliability(records, p, n_bins)


class TestEce:
    def _ece_of(self, pairs, n_bins):
        """ECE of records whose two-class logits and posterior are both
        (confidence, 1 - confidence), so that the prediction is class 0,
        with true label 0 when correct and 1 otherwise."""
        z = np.array([[c, 1 - c] for c, _ in pairs], dtype=np.float32)
        records = make_records(z, [0 if correct else 1 for _, correct in pairs])
        return ece(records, z.copy(), n_bins=n_bins)

    def test_perfectly_calibrated_bin(self):
        # four records at confidence 0.75, three of four correct -> ECE 0
        assert self._ece_of([(0.75, i < 3) for i in range(4)], 2) == pytest.approx(
            0.0, abs=1e-9)

    def test_fully_overconfident(self):
        # always confidence ~1.0 but never correct -> ECE ~1
        assert self._ece_of([(0.999, False)] * 10, 5) == pytest.approx(0.999, abs=1e-6)

    def test_hand_computed_mixture(self):
        # bin A: 2 records at conf 0.9, both correct  -> |1.0 - 0.9| = 0.1
        # bin B: 2 records at conf 0.6, one correct   -> |0.5 - 0.6| = 0.1
        pairs = [(0.9, True), (0.9, True), (0.6, True), (0.6, False)]
        assert self._ece_of(pairs, 4) == pytest.approx(0.1, abs=1e-6)

    def test_empty(self):
        records = make_records(np.zeros((0, 3)), [])
        assert ece(records, np.zeros((0, 3), np.float32)) == 0.0


def test_reliability_csv(tmp_path):
    records = synthetic_records(1.0, n=100, seed=4)
    path = tmp_path / "rel.csv"
    write_reliability_csv(path, reliability(records, posterior(records, 1.0), 10))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin,count,confidence,accuracy"
    assert len(lines) == 11
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 100


def random_records(num_classes, n, seed, tied=False):
    """n records of L = num_classes; `tied` draws logits from {-1, 0, 1},
    so that most rows hold a tie for the maximum."""
    rng = np.random.default_rng(seed)
    if tied:
        logits = rng.integers(-1, 2, (n, num_classes)).astype(np.float32)
    else:
        logits = rng.normal(0, 3, (n, num_classes)).astype(np.float32)
    return make_records(logits, rng.integers(0, num_classes, n))


# (L, record count, tied logits)
SCORING_CASES = [(L, n, tied) for L in (2, 8, 20)
                 for n, tied in ((1, False), (120, False), (120, True))]


@pytest.mark.parametrize("num_classes, n, tied", SCORING_CASES)
class TestStackedMatchesPerRecord:
    """Scoring on stacked arrays is bitwise the per-record loop of
    `oracles`."""

    def test_tau(self, num_classes, n, tied):
        records = random_records(num_classes, n, seed=n + num_classes, tied=tied)
        assert fit_temperature(records).tau == oracles.fit_temperature(records)

    def test_posteriors(self, num_classes, n, tied):
        records = random_records(num_classes, n, seed=1, tied=tied)
        got = posterior(records, 0.7)
        assert got.dtype == np.float32
        for p, want in zip(got, oracles.posteriors(records, 0.7)):
            assert p.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_bins", [1, 4, 10, DEFAULT_BINS])
    def test_reliability_and_ece(self, num_classes, n, tied, n_bins):
        records = random_records(num_classes, n, seed=2, tied=tied)
        p = posterior(records, 1.3)
        bins = reliability(records, p, n_bins)
        want, _ = oracles.reliability(records, p, n_bins)
        assert np.array_equal(bins.counts, want.counts)
        assert bins.mean_confidence.tobytes() == want.mean_confidence.tobytes()
        assert bins.accuracy.tobytes() == want.accuracy.tobytes()
        assert ece(records, p, n_bins) == oracles.ece(records, p, n_bins)


def test_confidence_on_a_bin_edge_goes_low():
    # tied two-class logits give confidence 0.5 exactly, and the posterior
    # (0.75, 0.25) gives 0.75: with 4 bins both lie on a top edge
    records = make_records([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [0, 0, 1])
    p = np.array([posterior(records[:1], 1.0)[0], [0.75, 0.25], [0.75, 0.25]], np.float32)
    bins = reliability(records, p, 4)
    want, sums = oracles.reliability(records, p, 4)
    assert bins.counts.tolist() == want.counts.tolist() == [0, 1, 2, 0]
    assert bins.mean_confidence.tobytes() == want.mean_confidence.tobytes()
    assert sums.tolist() == [0.0, 0.5, 1.5, 0.0]
    assert bins.accuracy.tolist() == [0.0, 1.0, 0.5, 0.0]


def test_bincount_adds_weights_in_input_order():
    # what `reliability` relies on for sums equal to the per-record loop's
    rng = np.random.default_rng(5)
    index = rng.integers(0, 3, 1000)
    weights = rng.random(1000)
    want = np.zeros(3)
    for i, w in zip(index, weights):
        want[i] += w
    assert np.bincount(index, weights=weights, minlength=3).tobytes() == want.tobytes()
