"""Difference-of-confidence baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit import (
    DegenerateDesignError,
    DimensionError,
    InsufficientCalibrationError,
    InvalidArgumentError,
    MissingLabelsError,
    PredictionSet,
    bootstrap_calibration,
    doc_estimate,
    true_accuracy,
)

from oracles import doc_regression_reference, two_point_line


def _constant_set(vector, n, labels=None):
    probs = np.tile(np.asarray(vector, dtype=float), (n, 1))
    return PredictionSet(probs, labels)


class TestNaiveEstimate:
    def test_identical_sets_gap_zero(self):
        data = _constant_set([0.7, 0.3], 5, labels=[0, 0, 0, 1, 1])
        assert doc_estimate(data, data).accuracy == true_accuracy(data).accuracy

    def test_identity_target_returns_source_accuracy(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), 100)
        labels = rng.integers(0, 4, 100)
        data = PredictionSet(probs, labels)
        est = doc_estimate(data, data)
        assert est.accuracy == true_accuracy(data).accuracy

    def test_accuracy_drop_equals_gap(self):
        # source accuracy 0.85 and gap 0.10 by construction
        source = _constant_set([0.9, 0.1], 20, labels=[0] * 17 + [1] * 3)
        target = _constant_set([0.8, 0.2], 20)
        assert true_accuracy(source).accuracy == 0.85
        est = doc_estimate(source, target)
        assert est.accuracy == pytest.approx(0.75, abs=1e-12)

    def test_negative_gap_raises_the_estimate(self):
        # source accuracy 0.25 at confidence 0.5; the target is sure, gap -0.5
        source = _constant_set([0.5, 0.5], 4, labels=[0, 1, 1, 1])
        target = _constant_set([1.0, 0.0], 1)
        assert doc_estimate(source, target).accuracy == 0.75

    def test_clamped_at_zero(self):
        source = _constant_set([0.9, 0.1], 20, labels=[1] * 19 + [0])
        target = _constant_set([0.7, 0.3], 20)
        assert true_accuracy(source).accuracy == 0.05
        assert doc_estimate(source, target).accuracy == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_always_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        source = PredictionSet(rng.dirichlet(np.ones(3), 30), rng.integers(0, 3, 30))
        target = PredictionSet(rng.dirichlet(np.full(3, 0.4), 30))
        assert 0.0 <= doc_estimate(source, target).accuracy <= 1.0

    def test_requires_labels(self):
        with pytest.raises(MissingLabelsError):
            doc_estimate(_constant_set([0.5, 0.5], 2), _constant_set([0.5, 0.5], 2))

    def test_target_dimension_mismatch(self):
        source = _constant_set([0.5, 0.5], 1, labels=[0])
        with pytest.raises(DimensionError, match="target has k=3"):
            doc_estimate(source, _constant_set([0.4, 0.3, 0.3], 1))


class TestRegression:
    def _source(self):
        return _constant_set([0.9, 0.1], 10, labels=[0] * 10)  # accuracy 1, conf 0.9

    def test_two_point_matches_closed_form(self):
        rng = np.random.default_rng(4)
        source = self._source()
        for _ in range(20):
            c1, c2, ct = rng.uniform(0.55, 0.95, size=3)
            a1, a2 = rng.uniform(0.2, 1.0, size=2)
            calibration = [
                (_constant_set([c1, 1 - c1], 10), a1),
                (_constant_set([c2, 1 - c2], 10), a2),
            ]
            target = _constant_set([ct, 1 - ct], 10)
            slope, intercept = two_point_line(0.9 - c1, 1.0 - a1, 0.9 - c2, 1.0 - a2)
            expected = 1.0 - (intercept + slope * (0.9 - ct))
            est = doc_estimate(source, target, calibration)
            assert est.accuracy == pytest.approx(min(1.0, max(0.0, expected)), abs=1e-12)

    def test_three_collinear_points_fit_exactly(self):
        # drop = 2 * gap through all three points
        source = self._source()
        calibration = [
            (_constant_set([0.9, 0.1], 10), 1.0),
            (_constant_set([0.8, 0.2], 10), 0.8),
            (_constant_set([0.7, 0.3], 10), 0.6),
        ]
        target = _constant_set([0.85, 0.15], 10)  # gap 0.05, predicted drop 0.1
        est = doc_estimate(source, target, calibration)
        assert est.accuracy == pytest.approx(0.9, abs=1e-9)

    def test_equal_gaps_degenerate(self):
        source = self._source()
        calibration = [
            (_constant_set([0.8, 0.2], 10), 0.9),
            (_constant_set([0.8, 0.2], 10), 0.7),
        ]
        with pytest.raises(DegenerateDesignError):
            doc_estimate(source, self._source(), calibration)

    def test_gaps_equal_up_to_rounding_degenerate(self):
        # one multiset of rows in two orders: the mean confidences differ
        # only in the last bit, so the gaps determine no line
        rows = [[0.18, 0.82], [0.63, 0.37], [0.48, 0.52], [0.51, 0.49]]
        source = PredictionSet(rows, [1, 0, 0, 0])
        cal_a, cal_b = source.subset([0, 0, 3, 1]), source.subset([0, 0, 1, 3])
        conf_a, conf_b = (float(np.mean(c.probs.max(axis=1))) for c in (cal_a, cal_b))
        assert conf_a != conf_b and abs(conf_a - conf_b) < 1e-15
        calibration = [(cal_a, true_accuracy(cal_a)), (cal_b, true_accuracy(cal_b))]
        with pytest.raises(DegenerateDesignError):
            doc_estimate(source, source, calibration)

    def test_fewer_than_two_sets(self):
        source = self._source()
        with pytest.raises(InsufficientCalibrationError):
            doc_estimate(source, self._source(), [(self._source(), 1.0)])
        with pytest.raises(InsufficientCalibrationError):
            doc_estimate(source, self._source(), [])

    def test_calibration_dimension_mismatch(self):
        source = self._source()
        calibration = [
            (_constant_set([0.8, 0.2], 10), 0.9),
            (_constant_set([0.8, 0.1, 0.1], 10), 0.7),
        ]
        with pytest.raises(DimensionError, match="calibration set 1 has k=3"):
            doc_estimate(source, self._source(), calibration)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_least_squares_reference(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(2, 6)), int(rng.integers(2, 40))
        source = PredictionSet(
            rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)), n), rng.integers(0, k, n)
        )
        target = PredictionSet(
            rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)), int(rng.integers(1, 40)))
        )
        calibration = bootstrap_calibration(source, int(rng.integers(2, 8)), seed)

        def conf(data):
            return [max(row) for row in data.probs.tolist()]

        def acc(data):
            rows, labels = data.probs.tolist(), data.labels.tolist()
            hits = sum(row.index(max(row)) == label for row, label in zip(rows, labels))
            return hits / len(rows)

        try:
            got = doc_estimate(source, target, calibration).accuracy
        except DegenerateDesignError:  # allowed only when every calibration gap coincides
            means = [np.mean(conf(cal)) for cal, _ in calibration]
            assert max(means) - min(means) < 1e-12
            return
        # the reference is unclamped; the estimate clamps it to [0, 1]
        expected = doc_regression_reference(
            conf(source), acc(source), conf(target), [(conf(cal), acc(cal)) for cal, _ in calibration]
        )
        assert got == pytest.approx(min(1.0, max(0.0, expected)), abs=1e-12)


class TestBootstrapCalibration:
    def test_deterministic_and_labeled(self):
        rng = np.random.default_rng(6)
        source = PredictionSet(rng.dirichlet(np.ones(3), 50), rng.integers(0, 3, 50))
        cal1 = bootstrap_calibration(source, 4, seed=9)
        cal2 = bootstrap_calibration(source, 4, seed=9)
        for (s1, a1), (s2, a2) in zip(cal1, cal2):
            assert np.array_equal(s1.probs, s2.probs)
            assert a1 == a2
        # enough variation for a non-degenerate fit
        assert 0.0 <= doc_estimate(source, source, cal1).accuracy <= 1.0

    def test_negative_count_rejected(self):
        source = _constant_set([0.9, 0.1], 4, labels=[0] * 4)
        with pytest.raises(InvalidArgumentError, match="got -3"):
            bootstrap_calibration(source, -3, seed=0)

    def test_negative_seed_rejected(self):
        source = _constant_set([0.9, 0.1], 4, labels=[0] * 4)
        with pytest.raises(InvalidArgumentError, match="seed must not be negative"):
            bootstrap_calibration(source, 2, seed=[-1, 1])
