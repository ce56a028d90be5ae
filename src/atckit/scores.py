"""Confidence score functions on the probability simplex.

Each function maps a probability vector to a real, taking its minimum at
the uniform vector and its maximum at the vertices. Conventions, chosen
so that thresholding behaviour is unchanged while evaluation stays cheap:

* squared forms for the quadratic scores (no square roots),
* natural logarithm everywhere,
* ``0 * log(0) == 0`` by continuity, so vertices are legal inputs,
* Jensen-Shannon is the divergence, not its square-root metric.

The logarithmic scores take their logs over whole blocks, unmasked, with
numpy's divide and invalid warnings off. A zero component gives a -inf
log, and one rule, :func:`_x_times`, multiplies each log by its factor x
and sets the term to 0 where x is zero (either sign). Running a log only
where x > 0 (``where=``) was slower, and stated the rule once per log.

Per-component terms are sorted before summation, which makes every score
exactly invariant under permutation of the components rather than merely
up to float reassociation. The sorted terms are then added strictly left
to right: a block's columns are transposed, a few hundred at a time, and
reduced over their outer axis, which numpy adds one row at a time (it
sums pairwise only along the fast axis); a single row, whose only axis is
the fast one, takes ``cumsum``. :func:`score_batch` alone turns a ``Scorer``
(a registry id, a :class:`MonotoneTransform` of one, a callable) into scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import DimensionError
from .simplex import PredictionSet, _row_blocks


class ScoreFunction(Enum):
    """The six supported score functions, keyed by their CLI ids."""

    MAX_CONF = "max"
    NEG_ENTROPY = "negent"
    L2_NORM = "l2n"
    L1_TO_UNIFORM = "l1u"
    L2_TO_UNIFORM = "l2u"
    JS_TO_UNIFORM = "js"


#: Registry order used for CLI listings and canonical output ordering.
SCORE_IDS = tuple(fn.value for fn in ScoreFunction)


#: Columns of a row block that ``_sorted_row_sum`` transposes at a time.
_SUM_COLUMNS = 256


def _sorted_row_sum(terms: np.ndarray) -> np.ndarray:
    # sort per row so the summation order is permutation-independent, then
    # add strictly left to right, as cumsum would. np.sum's pairwise SIMD
    # reduction groups terms differently depending on buffer alignment,
    # which would break exact symmetry; but numpy sums pairwise only along
    # the fast axis. Reducing a C-ordered (columns, n) array over axis 0
    # adds one row of it at a time, which is the cumsum order without its
    # (n, k) partial sums: so the columns go, _SUM_COLUMNS at a time, into
    # the rows of a small buffer under the running sums. A transposed copy
    # of the whole block cost a second block-sized allocation, which can
    # page-fault on every block. Starting from -0.0 is exact for any first
    # term, where add's identity 0.0 would turn a sum of -0.0 into 0.0.
    # One row has only a fast axis, so it keeps cumsum.
    terms.sort(axis=1)
    n, k = terms.shape
    if n == 1:
        return np.cumsum(terms, axis=1)[:, -1]
    rows = np.empty((min(k, _SUM_COLUMNS) + 1, n))
    rows[0] = -0.0
    for start in range(0, k, _SUM_COLUMNS):
        stop = min(start + _SUM_COLUMNS, k)
        rows[1 : stop - start + 1] = terms[:, start:stop].T
        rows[0] = np.add.reduce(rows[: stop - start + 1], axis=0, initial=-0.0)
    return rows[0].copy()


def _max_conf(probs: np.ndarray) -> np.ndarray:
    return np.max(probs, axis=1)


def _x_times(x, logs: np.ndarray) -> np.ndarray:
    """``x * logs`` in place of ``logs``, and 0 where ``x == 0``: the module's one
    rule, ``0 * log(0) == 0``, whose -inf log gives a NaN product there.

    ``x`` is an array of ``logs``' shape or a scalar; a positive scalar
    only multiplies. Call it with numpy's invalid warning off.
    """
    logs *= x
    logs[x == 0.0] = 0.0
    return logs


def _neg_entropy(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0: log -inf, then 0 * -inf = NaN
        return _sorted_row_sum(_x_times(probs, np.log(probs)))


def _l2_norm_sq(probs: np.ndarray) -> np.ndarray:
    return _sorted_row_sum(probs * probs)


def _l1_to_uniform(probs: np.ndarray) -> np.ndarray:
    u = 1.0 / probs.shape[1]
    d = probs - u
    return _sorted_row_sum(np.abs(d, out=d))


def _l2_to_uniform_sq(probs: np.ndarray) -> np.ndarray:
    u = 1.0 / probs.shape[1]
    d = probs - u
    d *= d
    return _sorted_row_sum(d)


def _rel_entr(x, y: np.ndarray) -> np.ndarray:
    """Elementwise relative entropy x * log(x / y), for x >= 0 and 0 < y < 1.

    Keeps the branches of scipy.special.rel_entr: where the ratio x / y
    lies in (0.5, 2) its log is near 0, and the rounding of the ratio
    would dominate it, so x * log1p((x - y) / y) is taken there;
    elsewhere x * log(x / y). Both branches are computed whole and merged
    with one mask: running each only where it applies (``where=``) made
    js about twice as slow at k = 1000. The logs run unmasked, so x = 0
    gives -inf logs, and :func:`_x_times` gives the term there the 0 that
    the entropy takes, as it does for every log of this module.
    """
    out = x / y
    near = (0.5 < out) & (out < 2.0)
    step = x - y
    step /= y
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(step, out=step)
        np.log(out, out=out)
        np.putmask(out, near, step)
        return _x_times(x, out)


def _js_to_uniform(probs: np.ndarray) -> np.ndarray:
    u = 1.0 / probs.shape[1]
    mid = probs + u
    mid *= 0.5
    terms = _rel_entr(probs, mid)
    terms += _rel_entr(u, mid)
    terms *= 0.5
    return _sorted_row_sum(terms)


_KERNELS: dict[ScoreFunction, Callable[[np.ndarray], np.ndarray]] = {
    ScoreFunction.MAX_CONF: _max_conf,
    ScoreFunction.NEG_ENTROPY: _neg_entropy,
    ScoreFunction.L2_NORM: _l2_norm_sq,
    ScoreFunction.L1_TO_UNIFORM: _l1_to_uniform,
    ScoreFunction.L2_TO_UNIFORM: _l2_to_uniform_sq,
    ScoreFunction.JS_TO_UNIFORM: _js_to_uniform,
}


@dataclass(frozen=True)
class MonotoneTransform:
    """The strictly increasing rescaling ``scale * s ** exponent + offset``
    of a base score ``s``, for ``scale > 0`` and a positive odd integer
    ``exponent``; :meth:`affine` and :meth:`odd_power` build its two usual
    cases. In float64, rounding can merge two distinct scores into one.
    The estimate equals the base function's bit for bit when the transform
    maps the distinct base scores of source and target together to
    distinct values, in the same order. Nothing checks this at run time.
    """

    base: ScoreFunction
    scale: float = 1.0
    offset: float = 0.0
    exponent: int = 1

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("monotone transform needs a positive scale")
        if self.exponent < 1 or self.exponent % 2 == 0:
            raise ValueError("monotone transform needs a positive odd exponent")

    @classmethod
    def affine(cls, base: ScoreFunction, scale: float, offset: float = 0.0):
        return cls(base, scale=scale, offset=offset)

    @classmethod
    def odd_power(cls, base: ScoreFunction, exponent: int):
        return cls(base, exponent=exponent)

    def __call__(self, values):
        return self.scale * values ** self.exponent + self.offset


#: Anything score_batch understands: a registry id, a monotone rescaling
#: of one, or an arbitrary vectorized (n, k) -> (n,) scorer.
Scorer = Union[ScoreFunction, MonotoneTransform, Callable[[np.ndarray], np.ndarray]]


def score_batch(data: PredictionSet | np.ndarray, fn: Scorer) -> np.ndarray:
    """Score every vector of ``data``, preserving input order.

    The registry kernels work row by row, so they score one row block at
    a time, bit for bit as on the whole matrix, and their temporaries stay
    one block in size; a rescaling maps its base kernel's scores. Any
    other callable gets the whole matrix, since nothing says it works row
    by row, and must return one score per row. An input that is not an
    (n, k) matrix with k >= 1, once a single vector is read as one row,
    raises ``DimensionError`` before anything is scored.
    """
    probs = data.probs if isinstance(data, PredictionSet) else np.atleast_2d(np.asarray(data, dtype=np.float64))
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise DimensionError(f"scores need an (n, k) matrix with k >= 1, got shape {probs.shape}")
    if isinstance(fn, MonotoneTransform):
        return fn(score_batch(probs, fn.base))
    if isinstance(fn, ScoreFunction):
        out = np.empty(probs.shape[0])
        for rows in _row_blocks(*probs.shape):
            out[rows] = _KERNELS[fn](probs[rows])
        return out
    if not callable(fn):
        raise TypeError(f"cannot interpret {fn!r} as a score function")
    out = np.asarray(fn(probs), dtype=np.float64)
    if out.shape != probs.shape[:1]:
        raise DimensionError(f"scorer output has shape {out.shape}, not one score per row of a {probs.shape} input")
    return out


def score(v, fn: Scorer) -> float:
    """Score a single probability vector (assumed already validated)."""
    return float(score_batch(v, fn)[0])
