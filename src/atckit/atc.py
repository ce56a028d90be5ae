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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .scores import Scorer, score_batch
from .simplex import Convention, MetricValue, PredictionSet, check_estimation_pair, true_accuracy


@dataclass(frozen=True)
class ThresholdModel:
    """A learned score threshold together with how well it fits.

    ``achieved_source_proportion`` is the below-threshold fraction the
    selected candidate actually attains on the source scores; re-scanning
    the candidates must reproduce it as the minimizer of
    ``|source error - proportion|``.
    """

    threshold: float
    source_metric: MetricValue
    achieved_source_proportion: float

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


def _as_error_value(gamma: MetricValue | float) -> float:
    if isinstance(gamma, MetricValue):
        return gamma.error
    value = float(gamma)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"source metric {value!r} outside [0, 1]")
    return value


def _best_candidate(counts, gamma: float) -> tuple[int, float]:
    """The threshold rule on per-candidate counts: ``(index, proportion)``.

    ``counts[i]`` is how many scores equal the i-th smallest candidate
    value; only values with a non-zero count are candidates. A
    candidate's proportion is the fraction of scores strictly below it,
    and the sentinel after the last candidate has proportion 1. The first
    candidate nearest ``gamma`` wins, so ties go to the smallest
    threshold. ``index`` is ``len(counts)`` when the sentinel wins.
    """
    total = np.cumsum(counts)
    kept = np.flatnonzero(counts)
    proportions = np.append((total[kept] - counts[kept]) / total[-1], 1.0)
    best = int(np.argmin(np.abs(gamma - proportions)))  # first hit = smallest t
    index = int(kept[best]) if best < kept.size else len(counts)
    return index, float(proportions[best])


def learn_threshold(source_scores, gamma_s: MetricValue | float) -> ThresholdModel:
    """Pick the threshold whose below-threshold fraction best matches ``gamma_s``.

    ``gamma_s`` is interpreted in the error convention (a bare float is
    taken as an error rate). The distinct scores are counted in
    O(n log n) and handed to ``_best_candidate``, the one candidate rule
    that the bootstrap engine also applies to its resample counts; the
    result is identical to the naive quadratic scan over all candidates.
    """
    scores = np.asarray(source_scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise EmptyInputError("cannot learn a threshold from zero scores")
    if not np.all(np.isfinite(scores)):
        raise ValueError("source scores must be finite")
    gamma = _as_error_value(gamma_s)

    uniq, counts = np.unique(scores, return_counts=True)
    index, proportion = _best_candidate(counts, gamma)
    return ThresholdModel(
        threshold=float(uniq[index]) if index < uniq.size else np.inf,
        source_metric=MetricValue(gamma, Convention.ERROR),
        achieved_source_proportion=proportion,
    )


def estimate_target(model: ThresholdModel, target_scores) -> MetricValue:
    """Below-threshold fraction of the target scores, in error convention."""
    scores = np.asarray(target_scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise EmptyInputError("cannot estimate from zero target scores")
    if np.any(np.isnan(scores)):
        raise ValueError("target scores must not contain NaN")
    value = float(np.count_nonzero(scores < model.threshold)) / scores.size
    return MetricValue(value, Convention.ERROR)


def atc_estimate(source: PredictionSet, target: PredictionSet, fn: Scorer) -> AtcEstimate:
    """End-to-end estimate of the target metric from a labeled source set.

    Scores both sets with ``fn``, learns the threshold against the
    source error, and reports the target below-threshold fraction. The
    returned estimate converts freely between error and accuracy.
    """
    check_estimation_pair(source, target, "ATC")
    gamma_s = true_accuracy(source).converted(Convention.ERROR)
    model = learn_threshold(score_batch(source, fn), gamma_s)
    return AtcEstimate(model=model, target_value=estimate_target(model, score_batch(target, fn)))
