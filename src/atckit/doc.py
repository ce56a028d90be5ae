"""Difference-of-confidence (DoC) baseline.

Estimates target accuracy from the gap in mean maximum confidence
between the source validation set and the target set. Without
calibration sets the gap itself is taken as the accuracy drop (naive
DoC); with them the drop is predicted from a least-squares line of drop
against gap over the calibration sets (regression DoC). Raw arithmetic
can leave [0, 1], so estimates are clamped.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDesignError,
    DimensionError,
    InsufficientCalibrationError,
    InvalidArgumentError,
    MissingLabelsError,
)
from .scores import SCORE_IDS, ScoreFunction, score_batch
from .simplex import (
    Convention,
    MetricValue,
    PredictionSet,
    _resample_blocks,
    check_estimation_pair,
    true_accuracy,
)

#: Every method id the harness understands, in canonical output order. The
#: method constants live here, with the DoC methods, so that the CLI's
#: parser reads them without running the harness.
CANONICAL_METHODS = SCORE_IDS + ("doc", "doc-reg")

#: The methods a benchmark runs unless told otherwise: six ATC variants + naive DoC.
_DEFAULT_METHODS = CANONICAL_METHODS[:-1]

#: Resamples used to fit the regression baseline within each run.
DOC_REG_CALIBRATION_SETS = 10

#: Calibration gaps this close differ only by summation rounding (e.g. two
#: resamples holding the same rows in another order), so they fix no line.
_GAP_RESOLUTION = 1e-12


def _mean_max_conf(data: PredictionSet) -> float:
    return float(np.mean(score_batch(data, ScoreFunction.MAX_CONF)))


def check_calibration(source: PredictionSet, n_sets: int) -> None:
    """Raise unless ``n_sets`` calibration resamples can be drawn from ``source``."""
    if n_sets < 0:
        raise InvalidArgumentError(f"calibration sets must not be negative, got {n_sets}")
    if source.labels is None:
        raise MissingLabelsError("calibration resamples need a labeled source set")


def bootstrap_calibration(
    source: PredictionSet, n_sets: int, seed
) -> list[tuple[PredictionSet, MetricValue]]:
    """Calibration sets built as with-replacement resamples of ``source``.

    ``doc-reg``'s calibration built set by set, which the DoC half of
    ``tests/per_set_reference.py`` uses. ``harness.score_once`` draws the
    same resamples as index blocks and keeps only each one's summary.
    """
    check_calibration(source, n_sets)
    blocks = _resample_blocks(len(source), seed, n_sets)
    resamples = [source.subset(idx) for block in blocks for idx in block]
    return [(resample, true_accuracy(resample)) for resample in resamples]


def doc_accuracy(
    source_accuracy: float,
    source_conf: float,
    target_conf: float,
    calibration: Sequence[tuple[float, float]] | None = None,
) -> MetricValue:
    """The DoC arithmetic of :func:`doc_estimate` on per-set summaries.

    ``source_conf`` and ``target_conf`` are mean max-confidences;
    ``calibration`` holds one (mean max-confidence, accuracy) pair per
    calibration set.
    """
    drop = source_conf - target_conf
    if calibration is not None:
        if len(calibration) < 2:
            raise InsufficientCalibrationError(
                f"regression needs >= 2 calibration sets, got {len(calibration)}"
            )
        confs, accs = np.array(calibration, dtype=np.float64).T
        gaps = source_conf - confs
        if np.ptp(gaps) <= _GAP_RESOLUTION:
            raise DegenerateDesignError(
                f"all calibration gaps are identical (within {_GAP_RESOLUTION:g})"
            )
        slope, intercept = np.polyfit(gaps, source_accuracy - accs, deg=1)
        drop = float(intercept) + float(slope) * drop
    value = min(1.0, max(0.0, source_accuracy - drop))
    return MetricValue(value, Convention.ACCURACY)


def doc_estimate(
    source: PredictionSet,
    target: PredictionSet,
    calibration: Sequence[tuple[PredictionSet, MetricValue | float]] | None = None,
) -> MetricValue:
    """Estimated target accuracy, clamped to [0, 1].

    A set's gap is the source's mean max-confidence minus its own: zero
    on identical sets, negative for a more confident set. Without
    ``calibration`` the predicted accuracy drop is the target's gap
    (naive DoC). Otherwise each entry pairs a set with its known accuracy,
    giving one (gap, drop) point relative to ``source``, and the drop is
    read off the least-squares line through two or more such points
    (regression DoC). How the sets are built is up to the caller.
    """
    check_estimation_pair(source, target, "DoC")
    summaries = None
    if calibration is not None:
        for i, (data, _) in enumerate(calibration):
            if data.k != source.k:
                raise DimensionError(
                    f"source has k={source.k} classes but calibration set {i} has k={data.k}"
                )
        summaries = [
            (_mean_max_conf(data), acc.accuracy if isinstance(acc, MetricValue) else float(acc))
            for data, acc in calibration
        ]
    return doc_accuracy(
        true_accuracy(source).accuracy, _mean_max_conf(source), _mean_max_conf(target), summaries
    )
