"""Threshold learning and target estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit import (
    DimensionError,
    EmptyInputError,
    GeneratorSpec,
    MetricValue,
    MissingLabelsError,
    MonotoneTransform,
    PredictionSet,
    ScoreFunction,
    Shift,
    ThresholdModel,
    atc_estimate,
    estimate_target,
    learn_threshold,
    make_shift_pair,
    score_batch,
    true_accuracy,
)
from atckit.simplex import Convention

from oracles import naive_learn_threshold
from test_harness import _tied_pair


class TestLearnThreshold:
    def test_even_grid_hits_half(self):
        # oracle-verified: scanning all 5 candidates picks 0.6 at proportion 0.5
        t, prop = naive_learn_threshold([0.2, 0.4, 0.6, 0.8], 0.5)
        assert (t, prop) == (0.6, 0.5)
        model = learn_threshold([0.2, 0.4, 0.6, 0.8], 0.5)
        assert (model.threshold, model.achieved_source_proportion) == (t, prop)

    def test_zero_error_takes_minimum(self):
        model = learn_threshold([0.3, 0.7], 0.0)
        assert model.threshold == 0.3
        assert model.achieved_source_proportion == 0.0

    def test_full_error_needs_sentinel(self):
        # oracle-verified: only the sentinel reaches proportion 1
        t, prop = naive_learn_threshold([0.5, 0.5, 0.9], 1.0)
        assert np.isinf(t) and prop == 1.0
        model = learn_threshold([0.5, 0.5, 0.9], 1.0)
        assert model.is_sentinel
        assert model.achieved_source_proportion == 1.0

    def test_accepts_metric_value(self):
        gamma = MetricValue(0.5, Convention.ACCURACY)  # error 0.5
        model = learn_threshold([0.2, 0.4, 0.6, 0.8], gamma)
        assert model.threshold == 0.6

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            learn_threshold([], 0.5)

    @pytest.mark.parametrize("gamma", [-0.25, 1.5, float("nan")])
    def test_source_metric_outside_the_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=rf"^source metric {gamma!r} outside \[0, 1\]$"):
            learn_threshold([0.3, 0.7], gamma)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError):
            learn_threshold([0.1, float("nan")], 0.5)
        model = learn_threshold([0.1, 0.9], 0.5)
        with pytest.raises(ValueError):
            estimate_target(model, [0.2, float("nan")])

    def test_order_free(self):
        rng = np.random.default_rng(0)
        scores = rng.random(200)
        a = learn_threshold(scores, 0.37)
        b = learn_threshold(rng.permutation(scores), 0.37)
        assert a.threshold == b.threshold
        assert a.achieved_source_proportion == b.achieved_source_proportion

    @given(
        scores=st.lists(
            st.one_of(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                st.sampled_from([0.0, 0.1, 0.5, 0.5, 1.0]),  # force ties
            ),
            min_size=1,
            max_size=40,
        ),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sweep_equals_naive_scan(self, scores, gamma):
        expected_t, expected_prop = naive_learn_threshold(scores, gamma)
        model = learn_threshold(scores, gamma)
        assert model.threshold == expected_t
        assert model.achieved_source_proportion == expected_prop


class TestEstimateTarget:
    def test_counts_strictly_below(self):
        model = learn_threshold([0.2, 0.4, 0.6, 0.8], 0.5)  # t = 0.6
        assert estimate_target(model, [0.1, 0.7]).error == 0.5

    def test_sentinel_classifies_everything_below(self):
        model = learn_threshold([0.5, 0.5, 0.9], 1.0)
        assert estimate_target(model, [0.0, 123.0, -4.0]).error == 1.0

    def test_minimum_threshold_classifies_nothing(self):
        model = learn_threshold([0.3, 0.7], 0.0)  # t = 0.3
        assert estimate_target(model, [0.4, 0.9]).error == 0.0
        # boundary scores are not strictly below
        assert estimate_target(model, [0.3, 0.3]).error == 0.0

    def test_empty_target(self):
        model = learn_threshold([0.5], 0.0)
        with pytest.raises(EmptyInputError):
            estimate_target(model, [])

    def test_nan_threshold_rejected(self):
        # every comparison with NaN is False: such a model would estimate error 0.0
        with pytest.raises(ValueError, match="^threshold must not be NaN$"):
            ThresholdModel(float("nan"), MetricValue(0.5, Convention.ERROR), 0.5)


def _pair(k, seed, n=400, accuracy=0.8, temperature=1.3):
    spec = GeneratorSpec(
        k=k, n=n, target_accuracy=accuracy, concentration=6.0,
        shift=Shift(temperature=temperature), seed=seed,
    )
    return make_shift_pair(spec)


class TestAtcEstimate:
    def test_requires_source_labels(self):
        source = PredictionSet([[0.9, 0.1]])
        target = PredictionSet([[0.4, 0.6]])
        with pytest.raises(MissingLabelsError):
            atc_estimate(source, target, ScoreFunction.MAX_CONF)

    def test_requires_matching_dimension(self):
        source = PredictionSet([[0.9, 0.1]], labels=[0])
        target = PredictionSet([[0.4, 0.3, 0.3]])
        with pytest.raises(DimensionError):
            atc_estimate(source, target, ScoreFunction.MAX_CONF)

    def test_self_consistency_quantization(self):
        source, _ = _pair(4, seed=5, n=500)
        scores = score_batch(source, ScoreFunction.MAX_CONF)
        assert len(np.unique(scores)) == len(source)  # continuous draws: all distinct
        est = atc_estimate(source, source, ScoreFunction.MAX_CONF)
        gamma = true_accuracy(source).error
        assert abs(est.error - gamma) <= 1.0 / (2 * len(source))

    def test_estimate_on_error_grid(self):
        source, target = _pair(3, seed=9)
        est = atc_estimate(source, target, ScoreFunction.NEG_ENTROPY)
        scaled = est.error * len(target)
        assert abs(scaled - round(scaled)) < 1e-9

    def test_binary_collapse_across_all_functions(self):
        for seed in range(5):
            source, target = _pair(2, seed=seed)
            values = {atc_estimate(source, target, fn).error for fn in ScoreFunction}
            assert len(values) == 1

    def test_quadratic_scores_agree_any_dimension(self):
        for k in (3, 5, 11):
            source, target = _pair(k, seed=k)
            a = atc_estimate(source, target, ScoreFunction.L2_NORM)
            b = atc_estimate(source, target, ScoreFunction.L2_TO_UNIFORM)
            assert a.error == b.error

    @pytest.mark.parametrize("base", tuple(ScoreFunction), ids=lambda f: f.value)
    def test_monotone_transform_leaves_estimate_unchanged(self, base):
        source, target = _pair(5, seed=21)
        reference = atc_estimate(source, target, base)
        for transform in (
            MonotoneTransform.affine(base, 2.0, 1.0),
            MonotoneTransform.affine(base, 0.25, -3.0),
            MonotoneTransform.odd_power(base, 3),
        ):
            transformed = atc_estimate(source, target, transform)
            assert transformed.error == reference.error
            # the decisive fact: identical below-threshold sets, not thresholds
            base_mask = score_batch(target, base) < reference.model.threshold
            tr_mask = score_batch(target, transform) < transformed.model.threshold
            assert np.array_equal(base_mask, tr_mask)

    def test_transform_that_merges_float64_scores_can_change_estimate(self):
        # exactness needs distinct base scores to stay distinct: 1e3 + x
        # rounds 0.5 and 0.5 + 1e-15 to one value, which moves the estimate
        rows = [(0.5, 0.5), (0.5 + 1e-15, 0.5 - 1e-15), (0.9, 0.1), (0.6, 0.4)]
        source = PredictionSet(rows, labels=[0, 1, 0, 0])
        target = PredictionSet([rows[i] for i in (0, 1, 1, 1)])
        merged = MonotoneTransform.affine(ScoreFunction.MAX_CONF, 1.0, 1e3)
        base_scores = score_batch(source, ScoreFunction.MAX_CONF)
        assert base_scores[0] != base_scores[1]
        assert score_batch(source, merged)[0] == score_batch(source, merged)[1]
        assert atc_estimate(source, target, ScoreFunction.MAX_CONF).accuracy == 0.75
        assert atc_estimate(source, target, merged).accuracy == 1.0

    def test_deterministic_and_order_free(self):
        source, target = _pair(4, seed=2)
        est1 = atc_estimate(source, target, ScoreFunction.JS_TO_UNIFORM)
        rng = np.random.default_rng(0)
        shuffled = source.subset(rng.permutation(len(source)))
        est2 = atc_estimate(shuffled, target, ScoreFunction.JS_TO_UNIFORM)
        assert est1.error == est2.error
        assert est1.model.threshold == est2.model.threshold

    def test_reports_both_conventions(self):
        source, target = _pair(3, seed=4)
        est = atc_estimate(source, target, ScoreFunction.MAX_CONF)
        assert est.accuracy + est.error == 1.0

    @pytest.mark.parametrize(
        "side, bad, message",
        [
            ("source", float("nan"), "source scores must be finite"),
            ("source", float("inf"), "source scores must be finite"),
            ("source", -float("inf"), "source scores must be finite"),
            ("target", float("nan"), "target scores must not contain NaN"),
        ],
        ids=["source-nan", "source-inf", "source-neg-inf", "target-nan"],
    )
    def test_non_finite_scores_rejected(self, side, bad, message):
        source = PredictionSet([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3]], labels=[0, 1, 1])
        target = PredictionSet([[0.6, 0.4], [0.2, 0.8]])
        rows = len(source) if side == "source" else len(target)

        def scorer(probs):
            scores = probs[:, 0].copy()
            if len(probs) == rows:
                scores[1] = bad
            return scores

        with pytest.raises(ValueError, match=f"^{message}$"):
            atc_estimate(source, target, scorer)

    def test_scorer_without_one_score_per_row_rejected(self):
        source = PredictionSet([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3]], labels=[0, 1, 1])
        target = PredictionSet([[0.6, 0.4], [0.2, 0.8]])
        message = r"^scorer output has shape \(3, 2\), not one score per row of a \(3, 2\) input$"
        with pytest.raises(DimensionError, match=message):
            atc_estimate(source, target, lambda probs: probs)


def _bits(*values):
    return tuple(float(v).hex() for v in values)


_SCORERS = st.one_of(
    st.sampled_from(tuple(ScoreFunction)),
    st.builds(MonotoneTransform.affine, st.sampled_from(tuple(ScoreFunction)), st.just(3.0), st.just(-1.0)),
    st.builds(MonotoneTransform.odd_power, st.sampled_from(tuple(ScoreFunction)), st.just(3)),
    st.just(lambda probs: np.round(probs[:, 0], 1)),  # a plain callable with many ties
)


class TestOneRule:
    @given(_tied_pair(), _SCORERS)
    @settings(max_examples=150, deadline=None)
    def test_public_views_agree_with_each_other_and_the_naive_scan(self, pair, fn):
        source, target = pair
        gamma = true_accuracy(source).error
        source_scores, target_scores = score_batch(source, fn), score_batch(target, fn)
        est = atc_estimate(source, target, fn)
        model = learn_threshold(source_scores, gamma)
        value = estimate_target(model, target_scores)
        t, prop = naive_learn_threshold(source_scores.tolist(), gamma)
        below = sum(1 for s in target_scores.tolist() if s < t)
        expected = _bits(t, prop, below / len(target))
        assert _bits(est.model.threshold, est.model.achieved_source_proportion, est.error) == expected
        assert _bits(model.threshold, model.achieved_source_proportion, value.error) == expected
        assert est.model.source_metric == model.source_metric == MetricValue(gamma, Convention.ERROR)


class TestMonotoneRescalings:
    """``scale * s ** exponent + offset`` keeps the base estimate's bits
    whenever it keeps the distinct base scores distinct and in order."""

    @given(
        _tied_pair(),
        st.sampled_from(tuple(ScoreFunction)),
        st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
        st.floats(min_value=-1e6, max_value=1e6),
        st.sampled_from((1, 3, 5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_an_order_kept_over_both_sets_keeps_the_estimate(self, pair, base, scale, offset, exponent):
        source, target = pair
        transform = MonotoneTransform(base, scale, offset, exponent)
        for data in pair:  # the family holds the two formulas it replaced, value for value
            s = score_batch(data, base)
            for fn, old in (
                (MonotoneTransform.affine(base, 2.0, 1.0), 2.0 * s + 1.0),
                (MonotoneTransform.affine(base, 0.25, -3.0), 0.25 * s - 3.0),
                (MonotoneTransform.odd_power(base, 3), s ** 3),
                (MonotoneTransform.odd_power(base, 5), s ** 5),
            ):
                assert np.array_equal(score_batch(data, fn), old)
        distinct = np.unique(np.concatenate([score_batch(source, base), score_batch(target, base)]))
        if not np.all(np.diff(transform(distinct)) > 0):
            return  # rounding merged two base scores: the estimate may move
        est, reference = atc_estimate(source, target, transform), atc_estimate(source, target, base)
        assert _bits(est.error, est.model.achieved_source_proportion) == _bits(
            reference.error, reference.model.achieved_source_proportion
        )
