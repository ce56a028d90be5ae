"""Independent plain-numpy ATC oracle for the ``estimate-wide`` check.

Shares no code with atckit. Same six score definitions (natural log,
squared quadratic forms, 0 log 0 = 0, Jensen-Shannon divergence to the
uniform vector), the strict ``score < t`` comparison, candidates = the
distinct source scores plus +inf, and ties between equally good
candidates going to the smallest. Sums use plain ``np.sum``, so scores
may differ from atckit's in the last bits; the check allows for that
with a tolerance of one target row.
"""

import numpy as np


def _xlogy(x, y):
    out = np.zeros_like(x)
    np.multiply(x, np.log(y, where=x > 0, out=np.ones_like(y)), out=out, where=x > 0)
    return out


def six_scores(probs: np.ndarray) -> dict:
    u = 1.0 / probs.shape[1]
    mid = 0.5 * (probs + u)
    js = 0.5 * (_xlogy(probs, probs / mid) + u * np.log(u / mid))
    return {
        "max": probs.max(axis=1),
        "negent": _xlogy(probs, probs).sum(axis=1),
        "l2n": (probs * probs).sum(axis=1),
        "l1u": np.abs(probs - u).sum(axis=1),
        "l2u": ((probs - u) ** 2).sum(axis=1),
        "js": js.sum(axis=1),
    }


def atc_accuracy(source_scores, source_error: float, target_scores) -> float:
    ordered = np.sort(source_scores)
    candidates = np.append(np.unique(ordered), np.inf)
    below = np.searchsorted(ordered, candidates, side="left") / ordered.size
    t = candidates[int(np.argmin(np.abs(source_error - below)))]
    return 1.0 - float(np.mean(target_scores < t))


def expected_estimates(source: np.ndarray, labels: np.ndarray, target: np.ndarray) -> dict:
    """``{score id: estimated target accuracy}`` for rows already on the simplex."""
    source = source / source.sum(axis=1, keepdims=True)
    target = target / target.sum(axis=1, keepdims=True)
    error = float(np.mean(source.argmax(axis=1) != labels))
    src, tgt = six_scores(source), six_scores(target)
    return {fn: atc_accuracy(src[fn], error, tgt[fn]) for fn in src}
