"""The per-set estimation path that the score-once engine is checked against.

``estimate_metric`` runs each method's public estimator on whole
prediction sets: ``atc_estimate`` and ``doc_estimate`` score the sets they
are given, and ``doc-reg`` builds its calibration sets with
``bootstrap_calibration``. It never calls ``atckit.harness.score_once``,
so the engine's estimates and input errors can be held to it bit for bit.
"""

from atckit import ScoreFunction, atc_estimate, bootstrap_calibration, doc_estimate
from atckit.errors import InvalidArgumentError
from atckit.harness import DOC_REG_CALIBRATION_SETS
from atckit.scores import SCORE_IDS


def estimate_metric(method, source, target, seed, calibration_sets=DOC_REG_CALIBRATION_SETS):
    """Target metric estimated by one of ``CANONICAL_METHODS``.

    ``seed`` only matters for ``doc-reg``, whose ``calibration_sets``
    resamples of ``source`` are drawn from ``[seed, 1]``.
    """
    if method in SCORE_IDS:
        return atc_estimate(source, target, ScoreFunction(method)).target_value
    if method == "doc":
        return doc_estimate(source, target)
    if method == "doc-reg":
        calibration = bootstrap_calibration(source, calibration_sets, seed=[seed, 1])
        return doc_estimate(source, target, calibration)
    raise InvalidArgumentError(f"unknown method {method!r}")
