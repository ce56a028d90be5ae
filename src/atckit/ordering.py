"""Machine-checking of order relationships between score functions.

Two score functions are order-isomorphic when they induce identical
<, =, > relations over every pair of simplex points; in that case they
are interchangeable for thresholded-confidence estimation. This module
falsifies or fails-to-falsify that property on sampled and gridded
points: a returned counterexample is a hard fact (it re-verifies), while
consistency is only "no violation on these points", though every pair of
them is decided.

All checks compare sign(s_a(p) - s_a(q)) against sign(s_b(p) - s_b(q)),
where a difference within the equality tolerance counts as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, isqrt

import numpy as np

from .errors import DimensionError, InvalidArgumentError
from .scores import Scorer, score_batch
from .simplex import _rng, _sub_seed

#: Most bytes one check of a sample or a search pool may hold: about
#: k + 14 + f float64 words per point, for the point, the scores of its
#: f functions and the sort.
_MAX_CHECK_BYTES = 2**30

#: The search grid's spacing is 1 / _GRID_UNITS; ``simplex_grid`` scales by 0.1,
#: as dividing by 10 would move the bits of grid points (3 * 0.1 != 3 / 10).
_GRID_UNITS = 10


@dataclass(frozen=True)
class OrderingWitness:
    """A verified pair of points on which two orderings disagree."""

    p: np.ndarray
    q: np.ndarray
    score_a_p: float
    score_a_q: float
    score_b_p: float
    score_b_q: float


@dataclass(frozen=True)
class OrderingVerdict:
    """A witness means a counterexample; no witness means consistent on the
    ``pairs_checked`` pairs, and nothing beyond them."""

    pairs_checked: int
    equality_tolerance: float
    witness: OrderingWitness | None = None

    @property
    def consistent(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "consistent-on-sample" if self.consistent else "counterexample"


def _signs(delta: np.ndarray, eps: float) -> np.ndarray:
    return np.where(np.abs(delta) <= eps, 0.0, np.sign(delta))


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < np.inf:  # also rejects NaN
        raise InvalidArgumentError(f"eps must be finite and non-negative, got {eps}")


def check_pair(p, q, fn_a: Scorer, fn_b: Scorer, eps: float = 1e-12) -> bool:
    """True iff both functions order ``p`` and ``q`` the same way."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionError(f"p has shape {p.shape} but q has shape {q.shape}")
    pts = np.vstack([p, q])
    va = score_batch(pts, fn_a)
    vb = score_batch(pts, fn_b)
    return bool(_signs(va[0] - va[1], eps) == _signs(vb[0] - vb[1], eps))


def _gap_not_kept(va: np.ndarray, vb: np.ndarray, eps: float):
    """Rows (i, j), i < j, of two points p, q (in some order) with
    a_p - a_q > eps but b_p - b_q <= eps, or None; O(n log n) for finite
    scores.

    Float subtraction is monotone, so the j with a_i - a_j > eps are a
    prefix of the points sorted by a, and the smallest b_i - b_j over it
    is the one at the prefix's largest b. Such a j has a_j < a_i - eps,
    so the prefix ends at or before the search for the rounded a_i - eps;
    that end steps back one tie group at a time until the difference
    itself exceeds eps. The witness is the point with the smallest such
    gap (the lowest in the sort among equal gaps) and the first point of
    its prefix at the prefix's largest b, so row order only breaks ties.
    """
    order = np.argsort(va, kind="stable")
    sa, sb = va[order], vb[order]
    top = np.maximum.accumulate(sb)
    group_start = np.searchsorted(sa, sa, side="left")
    end = np.searchsorted(sa, sa - eps, side="right")
    while True:
        rows = np.flatnonzero(end)
        back = rows[~(sa[rows] - sa[end[rows] - 1] > eps)]
        if back.size == 0:
            break
        end[back] = group_start[end[back] - 1]
    gap = sb[rows] - top[end[rows] - 1]
    if not np.any(gap <= eps):
        return None
    r = rows[np.argmin(gap)]
    return tuple(sorted(order[[r, np.argmax(sb[: end[r]])]].tolist()))


def _verdicts(points, fns, pairs, eps: float) -> dict:
    """The verdict of every index pair (i, j) of ``pairs`` on ``points``, each
    decided as in :func:`verify_on_points`. Every function of a pair is
    scored once, before any pair is decided, and its scores are shared."""
    _check_eps(eps)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    scores = {i: score_batch(points, fns[i]) for i in sorted({i for pair in pairs for i in pair})}
    verdicts = {}
    for i, j in pairs:
        va, vb = scores[i], scores[j]
        finite = np.isfinite(va) & np.isfinite(vb)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InvalidArgumentError(f"point {bad} has a non-finite score ({va[bad]}, {vb[bad]})")
        hit = _gap_not_kept(va, vb, eps) or _gap_not_kept(vb, va, eps)
        witness = None
        if hit is not None:
            p, q = hit
            witness = OrderingWitness(points[p].copy(), points[q].copy(), *map(float, (va[p], va[q], vb[p], vb[q])))
            # a reported counterexample must survive an independent re-evaluation
            if check_pair(witness.p, witness.q, fns[i], fns[j], eps):
                raise AssertionError("violation did not reproduce on re-evaluation")
        verdicts[(i, j)] = OrderingVerdict(n * (n - 1) // 2, eps, witness)
    return verdicts


def verify_on_points(points, fn_a: Scorer, fn_b: Scorer, eps: float = 1e-12) -> OrderingVerdict:
    """Exact pairwise ordering check over a given point set.

    ``pairs_checked`` is n(n-1)/2, and every one of those pairs is
    decided, from the points sorted by each score, in O(n log n) time and
    O(n) memory. Since fl(x - y) = -fl(y - x), a pair disagrees iff, taken
    in one of its two orders, one function has s_i - s_j > eps and the
    other does not. A counterexample is :func:`_gap_not_kept`'s witness
    with a's differences above eps, or failing that with b's. Every score
    must be finite: a non-finite one raises ``InvalidArgumentError`` that
    names its point. ``eps`` must be finite and non-negative.
    """
    return _verdicts(points, (fn_a, fn_b), [(0, 1)], eps)[(0, 1)]


def sample_simplex(k: int, n_points: int, seed) -> np.ndarray:
    """Uniform draws from the (k-1)-simplex (flat Dirichlet)."""
    return _rng(seed).dirichlet(np.ones(k), size=n_points)


def _compositions(total: int, parts: int):
    # stars and bars, lexicographic in the bar positions
    for cuts in combinations(range(total + parts - 1), parts - 1):
        comp = []
        last = -1
        for c in (*cuts, total + parts - 1):
            comp.append(c - last - 1)
            last = c
        yield comp


def simplex_grid(k: int) -> np.ndarray:
    """Every simplex point whose components are multiples of 0.1, hand-built
    counterexamples like (0.5, 0.2, 0.3) and (0.5, 0.5, 0) among them."""
    return np.array(list(_compositions(_GRID_UNITS, k)), dtype=np.float64) * 0.1


def search_counterexample(
    fn_a: Scorer,
    fn_b: Scorer,
    k: int,
    budget: int,
    seed,
    eps: float = 1e-12,
) -> OrderingWitness | None:
    """Look for an ordering violation within a pair-comparison budget.

    The candidate pool has the largest size m whose m(m-1)/2 pairs fit
    ``budget``. It starts from the whole coarse 0.1 grid when that fits
    (deterministic, so known hand-built witnesses are always tried) and
    is filled up with random simplex points; a grid that does not fit is
    left out, so the pool covers the whole simplex rather than one face
    of it. Returns a verified witness or None.
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be at least 2, got {k}")
    if budget < 1:
        raise InvalidArgumentError("budget must be at least 1")
    return _verdicts(_search_pool(k, budget, seed, 2), (fn_a, fn_b), [(0, 1)], eps)[(0, 1)].witness


def _search_pool(k: int, budget: int, seed, n_fns: int) -> np.ndarray:
    """:func:`search_counterexample`'s pool for a ``budget`` of at least 1,
    rejected like an oversized sample before it is drawn."""
    m = (1 + isqrt(1 + 8 * budget)) // 2
    _check_bytes(f"budget={budget} needs a search pool of", m, k, n_fns)
    if comb(_GRID_UNITS + k - 1, k - 1) > m:  # the size of the grid
        return sample_simplex(k, m, seed)
    grid = simplex_grid(k)
    return np.vstack([grid, sample_simplex(k, m - grid.shape[0], seed)])


def _check_bytes(what: str, points: int, k: int, n_fns: int) -> None:
    need = points * (k + 14 + n_fns) * 8
    if need > _MAX_CHECK_BYTES:
        raise InvalidArgumentError(
            f"{what} {points} points, which at k={k} need about {need} bytes, "
            f"over the {_MAX_CHECK_BYTES} bytes one ordering check may hold"
        )


@dataclass(frozen=True)
class EquivalenceReport:
    """Consistency structure of a set of score functions on one sample."""

    verdicts: dict  # (i, j) with i < j -> OrderingVerdict
    classes: tuple  # tuple of tuples of functions, partitioning the input
    transitivity_violations: tuple  # (i, j, l) index triples


def verify_equivalence_relation(
    fns,
    k: int,
    n_points: int,
    seed,
    eps: float = 1e-12,
    search_budget: int = 0,
) -> EquivalenceReport:
    """Check every pair of ``fns`` on one sample and report the structure.

    Each pair of positions i < j is checked on the same ``n_points``
    uniform samples from the simplex, so the verdicts are comparable.
    With ``search_budget`` > 0, the pairs that look consistent there are
    checked again on one pool, built as :func:`search_counterexample`
    builds it and drawn once for all of them, from a stream independent
    of the sample (also for ``seed`` None, which draws fresh entropy once
    for both). The function at each position is scored once per point
    set. 0 skips the search, and a negative budget is rejected, as is an
    ``eps`` that is negative, infinite or NaN, and a seed with a negative
    entry. A sample or a search pool that one check would hold in more
    than ``_MAX_CHECK_BYTES`` is rejected before anything is drawn. A
    verdict's ``pairs_checked`` counts the sample pairs plus the m(m-1)/2
    pool pairs the search decided, whether or not it found a witness.

    The relation is reflexive and symmetric by construction, so the
    report lists the transitivity-violating triples and the resulting
    classes (connected components of the relation).
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be at least 2, got {k}")
    if n_points < 2:
        raise InvalidArgumentError(f"need at least two points to compare, got {n_points}")
    if search_budget < 0:
        raise InvalidArgumentError(f"search_budget must not be negative, got {search_budget}")
    _check_eps(eps)
    fns = tuple(fns)
    n_fns = len(fns)
    _check_bytes("a sample of", n_points, k, n_fns)
    if seed is None:  # one fresh draw, so the sample and the pool stay independent
        seed = np.random.SeedSequence().entropy
    # drawn first, so that an oversized pool is rejected before the sample is drawn
    pool = _search_pool(k, search_budget, _sub_seed(seed, 1), n_fns) if search_budget > 0 else None
    verdicts = _verdicts(sample_simplex(k, n_points, seed), fns, list(combinations(range(n_fns), 2)), eps)
    unresolved = [pair for pair, verdict in verdicts.items() if verdict.consistent]
    if pool is not None and unresolved:
        for pair, verdict in _verdicts(pool, fns, unresolved, eps).items():
            verdicts[pair] = OrderingVerdict(verdicts[pair].pairs_checked + verdict.pairs_checked, eps, verdict.witness)
    consistent = np.ones((n_fns, n_fns), dtype=bool)
    for (i, j), verdict in verdicts.items():
        consistent[i, j] = consistent[j, i] = verdict.consistent
    violations = tuple(
        (a, b, c)
        for a, b, c in permutations(range(n_fns), 3)
        if consistent[a, b] and consistent[b, c] and not consistent[a, c]
    )
    reach = consistent.copy()  # transitive closure: row i becomes i's class
    for m in range(n_fns):
        reach |= reach[:, m, None] & reach[m]
    # distinct rows in first-appearance order; index tuples, as scorers may not hash
    comps = dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach)
    classes = tuple(tuple(fns[i] for i in comp) for comp in comps)
    return EquivalenceReport(verdicts=verdicts, classes=classes, transitivity_violations=violations)


def squared_distance_to(reference) -> "Scorer":
    """Scorer measuring squared L2 distance to a fixed vector.

    Useful for demonstrating that distance to an arbitrary fixed point,
    unlike distance to the centroid, is not order-equivalent to the
    squared norm.
    """
    ref = np.asarray(reference, dtype=np.float64)

    def scorer(probs: np.ndarray) -> np.ndarray:
        d = probs - ref
        return np.sum(d * d, axis=1)

    return scorer
