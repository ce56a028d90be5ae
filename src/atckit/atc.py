"""Accuracy estimation by average thresholded confidence (ATC).

A threshold ``t`` is learned on scored, labeled source data so that the
fraction of source scores strictly below ``t`` matches the source error
as closely as possible; the fraction of target scores strictly below the
same ``t`` is then reported as the estimated target error.

Details that matter for exact reproducibility:

* the comparison is always strict (``score < t``), never ``<=``;
* threshold candidates are the distinct observed source scores plus one
  sentinel above all of them (``+inf``), without which a below-threshold
  proportion of 1 would be unreachable;
* among equally good candidates the smallest wins, which is both
  deterministic and conservative (smaller below-threshold set on the
  target when scores tie).

The rule reads only the order of the source scores, and it is exact:
with N source rows, e the source error count (``gamma * N``, which need
not be an integer) and b a candidate's count of source scores strictly
below it, the best candidate is the one whose b is nearest e, and a tie
goes to the smaller threshold. Once the scores are ranked (``_rank``, one
sort) that is an order statistic: with i the first position at or above
e, the best candidate is the score at position i - 1 or the next larger
distinct score (the sentinel past the largest), so one partition and
integer compares per pick (``_pick``, O(N)) find it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidArgumentError
from .scores import Scorer, score_batch
from .simplex import Convention, MetricValue, PredictionSet, check_estimation_pair, true_accuracy


@dataclass(frozen=True)
class ThresholdModel:
    """A learned score threshold together with how well it fits.

    ``achieved_source_proportion`` is the below-threshold fraction the
    threshold attains on the source scores.
    """

    threshold: float
    source_metric: MetricValue
    achieved_source_proportion: float

    def __post_init__(self):
        if np.isnan(self.threshold):  # every comparison with it would be False
            raise InvalidArgumentError("threshold must not be NaN")

    @property
    def is_sentinel(self) -> bool:
        return np.isinf(self.threshold)


@dataclass(frozen=True)
class AtcEstimate:
    """Outcome of one source-to-target estimation run."""

    model: ThresholdModel
    target_value: MetricValue

    @property
    def accuracy(self) -> float:
        return self.target_value.accuracy

    @property
    def error(self) -> float:
        return self.target_value.error


def _source_scores(values) -> np.ndarray:
    scores = np.asarray(values, dtype=np.float64).ravel()
    if scores.size == 0:
        raise EmptyInputError("cannot learn a threshold from zero scores")
    if not np.all(np.isfinite(scores)):
        raise InvalidArgumentError("source scores must be finite")
    return scores


def _target_scores(values) -> np.ndarray:
    scores = np.asarray(values, dtype=np.float64).ravel()
    if scores.size == 0:
        raise EmptyInputError("cannot estimate from zero target scores")
    if np.any(np.isnan(scores)):
        raise InvalidArgumentError("target scores must not contain NaN")
    return scores


def _rank(source_scores, target_scores):
    """The rule's rank step: ``(candidates, ranks, below)``. ``candidates``
    are the distinct source scores ascending, then the sentinel; ``ranks``
    gives each source row's index among them, and ``below`` the target
    count strictly below each candidate."""
    uniq, ranks = np.unique(source_scores, return_inverse=True)
    candidates = np.append(uniq, np.inf)
    return candidates, ranks, np.searchsorted(np.sort(target_scores), candidates, side="left")


def _pick(candidates, ranks, below, idx, num: int, den: int = 1) -> tuple[float, float, int]:
    """The rule's pick step on source rows ``idx``: ``(threshold, proportion,
    below)``, where ``below`` is the target count strictly below the threshold.
    Only the scores of ``idx`` and the sentinel are candidates, and the error
    count to match is the exact ratio x = num / den of integers.

    A kept candidate's count b is the first position of its tie group in
    the N sorted ranks, and the sentinel's is N. These strictly increase,
    so ``|x - b|`` falls up to x and rises after it: its first minimum is
    one of x's two neighbours. With i = ceil(x), the first position at or
    above x, the right neighbour is the first group that starts at or
    after i, and the left one the group that holds position i - 1, the
    (i - 1)-th order statistic ``a``. One partition at i - 1 finds both in
    O(N): the ranks below ``a`` give the left count lo, the smallest rank
    above it is the right candidate (the sentinel if there is none), and
    the ranks not above it give the right count hi. Two distinct counts
    differ by at least 1, so no third candidate ties them, and the left
    neighbour, the smaller threshold, wins a tie: x - lo <= hi - x,
    compared as ``2 num <= (lo + hi) den``.
    """
    r = ranks[idx]
    n = r.size
    i = max(-(-num // den), 1)  # at x = 0 the smallest rank is the left neighbour, 0 away
    r = np.partition(r, i - 1)
    a = r[i - 1]
    lo = int(np.count_nonzero(r[: i - 1] < a))
    above = r[i:][r[i:] > a]
    hi = n - above.size
    if 2 * num <= (lo + hi) * den:  # the left one is as near
        index, count = a, lo
    else:  # the right one: the sentinel, at count n, if no rank is above a
        index, count = (above.min() if above.size else candidates.size - 1), hi
    return float(candidates[index]), count / n, int(below[index])


def learn_threshold(source_scores, gamma_s: MetricValue | float) -> ThresholdModel:
    """Pick the threshold whose below-threshold fraction best matches ``gamma_s``.

    ``gamma_s`` is interpreted in the error convention (a bare float is
    taken as an error rate). The rule that :func:`atc_estimate` and the
    bootstrap engine apply finds it as the naive quadratic scan over all
    candidates does, in O(n log n) for the rank step and O(n) for the
    pick. Nearness is exact for any float ``gamma_s``, and a tie goes to
    the smaller threshold: ``learn_threshold([1, 1, 2, 2, 3, 3], 0.5)``
    picks 2.0, whose count 2 is as near 3 as the count 4 of 3.0.
    """
    scores = _source_scores(source_scores)
    gamma = gamma_s.error if isinstance(gamma_s, MetricValue) else float(gamma_s)
    if not 0.0 <= gamma <= 1.0:
        raise InvalidArgumentError(f"source metric {gamma!r} outside [0, 1]")
    p, q = float(gamma).as_integer_ratio()  # gamma * N = p * N / q exactly
    threshold, proportion, _ = _pick(*_rank(scores, ()), slice(None), p * scores.size, q)
    return ThresholdModel(threshold, MetricValue(gamma, Convention.ERROR), proportion)


def estimate_target(model: ThresholdModel, target_scores) -> MetricValue:
    """Below-threshold fraction of the target scores, in error convention."""
    scores = _target_scores(target_scores)
    value = float(np.count_nonzero(scores < model.threshold)) / scores.size
    return MetricValue(value, Convention.ERROR)


def atc_estimate(source: PredictionSet, target: PredictionSet, fn: Scorer) -> AtcEstimate:
    """End-to-end estimate of the target metric from a labeled source set.

    Scores both sets with ``fn``, learns the threshold against the
    source error count, and reports the target below-threshold fraction. The
    returned estimate converts freely between error and accuracy.
    """
    check_estimation_pair(source, target, "ATC")
    gamma_s = true_accuracy(source).converted(Convention.ERROR)
    misses = int(np.count_nonzero(source.predicted_labels != source.labels))
    source_scores = _source_scores(score_batch(source, fn))  # checked before the target is scored
    target_scores = _target_scores(score_batch(target, fn))
    threshold, proportion, below = _pick(*_rank(source_scores, target_scores), slice(None), misses)
    model = ThresholdModel(threshold, gamma_s, proportion)
    return AtcEstimate(model, MetricValue(below / target_scores.size, Convention.ERROR))
