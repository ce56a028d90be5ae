"""Machine-checking of order relationships between score functions.

Two score functions are order-isomorphic when they induce identical
<, =, > relations over every pair of simplex points; in that case they
are interchangeable for thresholded-confidence estimation. This module
falsifies or fails-to-falsify that property on sampled and gridded
points: a returned counterexample is a hard fact (it re-verifies), while
consistency is only "no violation found on this sample".

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
from .simplex import _rng, _sub_seed, check_shape

#: Most points one check takes, for the sample and for a search pool. A
#: consistent pair costs O(n log n), but a pair with a violation is scanned
#: row by row up to its first violating row, and non-finite scores are
#: always scanned that way, so the worst case stays quadratic.
MAX_POINTS = 2000

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


def _gap_not_kept(va: np.ndarray, vb: np.ndarray, eps: float) -> bool:
    """Whether some points i, j of finite scores have a_i - a_j > eps but
    b_i - b_j <= eps, in O(n log n).

    Float subtraction is monotone, so the j with a_i - a_j > eps are a
    prefix of the points sorted by a, and the smallest b_i - b_j over it
    is the one at the prefix's largest b. Such a j has a_j < a_i - eps,
    so the prefix ends at or before the search for the rounded a_i - eps;
    that end steps back one tie group at a time until the difference
    itself exceeds eps.
    """
    order = np.argsort(va)
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
    return bool(np.any(sb[rows] - top[end[rows] - 1] <= eps))


def _first_violation(va: np.ndarray, vb: np.ndarray, eps: float):
    """First pair i < j, in row-major order, whose signs disagree, or None.

    Since fl(x - y) = -fl(y - x), a pair disagrees iff, taken in one of
    its two orders (i, j), one function has s_i - s_j > eps and the other
    does not; :func:`_gap_not_kept` decides that for finite scores, so a
    consistent pair costs O(n log n). Otherwise one row of the pair
    triangle is scanned at a time, so memory stays O(n), up to the first
    row with a disagreement. A NaN difference never equals a sign, so it
    disagrees.
    """
    finite = np.isfinite(va).all() and np.isfinite(vb).all()
    if finite and not (_gap_not_kept(va, vb, eps) or _gap_not_kept(vb, va, eps)):
        return None
    v = np.stack([va, vb])
    for i in range(v.shape[1] - 1):
        signs = _signs(v[:, i, None] - v[:, i + 1 :], eps)
        disagree = signs[0] != signs[1]
        if disagree.any():
            return i, i + 1 + int(disagree.argmax())
    return None


def verify_on_points(points, fn_a: Scorer, fn_b: Scorer, eps: float = 1e-12) -> OrderingVerdict:
    """Exhaustive pairwise ordering check over a given point set.

    ``pairs_checked`` is n(n-1)/2, the pairs the verdict covers. A
    counterexample is the first violating pair (i, j), i < j, in row
    order. A consistent pair is decided from sorted scores in
    O(n log n); only a pair with a violation, or with non-finite scores,
    is scanned row by row, stopping at its first violating row, which
    is quadratic at worst. ``eps`` must be finite and non-negative.
    """
    _check_eps(eps)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    va = score_batch(points, fn_a)
    vb = score_batch(points, fn_b)
    pairs = n * (n - 1) // 2
    hit = _first_violation(va, vb, eps)
    if hit is None:
        return OrderingVerdict(pairs, eps)
    i, j = hit
    witness = OrderingWitness(
        p=points[i].copy(),
        q=points[j].copy(),
        score_a_p=float(va[i]),
        score_a_q=float(va[j]),
        score_b_p=float(vb[i]),
        score_b_q=float(vb[j]),
    )
    # a reported counterexample must survive an independent re-evaluation
    if check_pair(witness.p, witness.q, fn_a, fn_b, eps):
        raise AssertionError("violation did not reproduce on re-evaluation")
    return OrderingVerdict(pairs, eps, witness)


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
    if budget < 1:
        raise InvalidArgumentError("budget must be at least 1")
    m = _pool_size(budget)
    if comb(_GRID_UNITS + k - 1, k - 1) > m:  # the size of the grid
        pool = sample_simplex(k, m, seed)
    else:
        grid = simplex_grid(k)
        pool = np.vstack([grid, sample_simplex(k, m - grid.shape[0], seed)])
    return verify_on_points(pool, fn_a, fn_b, eps).witness


def _pool_size(budget: int) -> int:
    """Largest search pool m with m*(m-1)/2 <= ``budget`` (at least 2).

    A pool over ``MAX_POINTS`` is rejected, like an oversized sample.
    """
    m = max(2, (1 + isqrt(1 + 8 * budget)) // 2)
    if m > MAX_POINTS:
        raise InvalidArgumentError(
            f"budget={budget} needs a search pool of {m} points, over "
            f"MAX_POINTS={MAX_POINTS} (the pairwise check is quadratic at worst)"
        )
    return m


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
    With ``search_budget`` > 0, a pair that looks consistent there is
    also attacked with :func:`search_counterexample`; every pair's search
    draws the same pool, from a stream independent of the sample (also
    for ``seed`` None, which draws fresh entropy once for both). 0 skips
    the search, and a negative budget is rejected, as is an ``eps`` that
    is negative, infinite or NaN, and a seed with a negative entry. The
    sample and the search pool are capped at ``MAX_POINTS``, which bounds
    the quadratic worst case of :func:`verify_on_points`. A verdict's
    ``pairs_checked`` counts the sample pairs plus the m(m-1)/2 pool pairs
    the search covered, whether or not it found a witness.

    The relation is reflexive and symmetric by construction, so the
    report lists the transitivity-violating triples and the resulting
    classes (connected components of the relation).
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be at least 2, got {k}")
    if n_points < 2:
        raise InvalidArgumentError(f"need at least two points to compare, got {n_points}")
    if n_points > MAX_POINTS:
        raise InvalidArgumentError(
            f"n_points={n_points} exceeds max_points={MAX_POINTS} "
            "(the pairwise check is quadratic at worst)"
        )
    if search_budget < 0:
        raise InvalidArgumentError(f"search_budget must not be negative, got {search_budget}")
    _check_eps(eps)
    pool = _pool_size(search_budget)  # rejects an oversized pool up front
    check_shape(max(n_points, pool), k)
    fns = tuple(fns)
    n_fns = len(fns)
    if seed is None:  # one fresh draw, so every pair still searches the same pool
        seed = np.random.SeedSequence().entropy
    points = sample_simplex(k, n_points, seed)
    search_seed = _sub_seed(seed, 1)

    verdicts: dict = {}
    consistent = np.ones((n_fns, n_fns), dtype=bool)
    for i, j in combinations(range(n_fns), 2):
        verdict = verify_on_points(points, fns[i], fns[j], eps)
        if verdict.consistent and search_budget > 0:
            witness = search_counterexample(fns[i], fns[j], k, search_budget, search_seed, eps)
            verdict = OrderingVerdict(verdict.pairs_checked + comb(pool, 2), eps, witness)
        verdicts[(i, j)] = verdict
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
