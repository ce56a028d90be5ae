"""The per-set estimation path that the score-once engine is checked against.

``estimate_metric`` estimates one method on whole prediction sets. Its
ATC half shares no code with the package's threshold rule, which the
engine, ``learn_threshold`` and ``atc_estimate`` all apply: it learns the
threshold with ``oracles.naive_learn_threshold`` and counts the target
scores strictly below it in a plain loop. Its DoC half runs the public
``doc_estimate``, with ``doc-reg``'s calibration sets built by
``bootstrap_calibration``. The engine's DoC arithmetic, ``doc_accuracy``,
is the one ``doc_estimate`` applies, and ``tests/test_doc.py`` holds it to
``oracles.doc_regression_reference``. Nothing here calls
``atckit.harness.score_once``, so the engine's estimates and input errors
can be held to this path bit for bit.
"""

from atckit import ScoreFunction, bootstrap_calibration, doc_estimate
from atckit.errors import InvalidArgumentError
from atckit.harness import DOC_REG_CALIBRATION_SETS
from atckit.scores import SCORE_IDS, score_batch
from atckit.simplex import Convention, MetricValue, _sub_seed, check_estimation_pair

from oracles import naive_learn_threshold


def _atc_reference(source, target, fn):
    """ATC's target error: the naive threshold scan, then a strict count."""
    check_estimation_pair(source, target, "ATC")
    correct = 0
    for predicted, label in zip(source.predicted_labels.tolist(), source.labels.tolist()):
        correct += predicted == label
    threshold, _ = naive_learn_threshold(score_batch(source, fn).tolist(), 1.0 - correct / len(source))
    below = 0
    for s in score_batch(target, fn).tolist():
        if s < threshold:
            below += 1
    return MetricValue(below / len(target), Convention.ERROR)


def estimate_metric(method, source, target, seed, calibration_sets=DOC_REG_CALIBRATION_SETS):
    """Target metric estimated by one of ``CANONICAL_METHODS``.

    ``seed`` only matters for ``doc-reg``, whose ``calibration_sets``
    resamples of ``source`` are drawn from ``_sub_seed(seed, 1)``, which
    draws as ``[seed, 1]`` and names a negative seed as the engine does.
    """
    if method in SCORE_IDS:
        return _atc_reference(source, target, ScoreFunction(method))
    if method == "doc":
        return doc_estimate(source, target)
    if method == "doc-reg":
        calibration = bootstrap_calibration(source, calibration_sets, seed=_sub_seed(seed, 1))
        return doc_estimate(source, target, calibration)
    raise InvalidArgumentError(f"unknown method {method!r}")
