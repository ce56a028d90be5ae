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
from enum import Enum
from itertools import combinations, islice
from math import isqrt

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .scores import Scorer, score_batch


class VerdictStatus(Enum):
    CONSISTENT_ON_SAMPLE = "consistent-on-sample"
    COUNTEREXAMPLE = "counterexample"


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
    status: VerdictStatus
    pairs_checked: int
    equality_tolerance: float
    witness: OrderingWitness | None = None

    def __post_init__(self):
        if (self.status is VerdictStatus.COUNTEREXAMPLE) != (self.witness is not None):
            raise ValueError("counterexample verdicts carry a witness; consistent ones do not")

    @property
    def consistent(self) -> bool:
        return self.status is VerdictStatus.CONSISTENT_ON_SAMPLE


def _signs(delta: np.ndarray, eps: float) -> np.ndarray:
    return np.where(np.abs(delta) <= eps, 0.0, np.sign(delta))


def check_pair(p, q, fn_a: Scorer, fn_b: Scorer, eps: float = 1e-12) -> bool:
    """True iff both functions order ``p`` and ``q`` the same way."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"p has shape {p.shape} but q has shape {q.shape}")
    pts = np.vstack([p, q])
    va = score_batch(pts, fn_a)
    vb = score_batch(pts, fn_b)
    return bool(_signs(va[0] - va[1], eps) == _signs(vb[0] - vb[1], eps))


def _first_violation(signs_a, signs_b):
    disagree = signs_a != signs_b
    disagree[np.tril_indices_from(disagree)] = False  # keep i < j only
    hits = np.argwhere(disagree)
    if hits.size == 0:
        return None
    return int(hits[0, 0]), int(hits[0, 1])


def verify_on_points(points, fn_a: Scorer, fn_b: Scorer, eps: float = 1e-12) -> OrderingVerdict:
    """Exhaustive pairwise ordering check over a given point set."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    va = score_batch(points, fn_a)
    vb = score_batch(points, fn_b)
    signs_a = _signs(va[:, None] - va[None, :], eps)
    signs_b = _signs(vb[:, None] - vb[None, :], eps)
    pairs = n * (n - 1) // 2
    hit = _first_violation(signs_a, signs_b)
    if hit is None:
        return OrderingVerdict(VerdictStatus.CONSISTENT_ON_SAMPLE, pairs, eps)
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
    return OrderingVerdict(VerdictStatus.COUNTEREXAMPLE, pairs, eps, witness)


def sample_simplex(k: int, n_points: int, seed) -> np.ndarray:
    """Uniform draws from the (k-1)-simplex (flat Dirichlet)."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=n_points)


def verify_on_sample(
    fn_a: Scorer,
    fn_b: Scorer,
    k: int,
    n_points: int,
    seed,
    eps: float = 1e-12,
    search_budget: int = 0,
    max_points: int = 2000,
) -> OrderingVerdict:
    """Pairwise check over ``n_points`` uniform samples from the simplex.

    With ``search_budget`` > 0, a pair that looks consistent on the
    sample is additionally attacked with :func:`search_counterexample`
    (seeded with ``seed``); 0 skips the search, and a negative budget is
    rejected. The all-pairs check is quadratic in the sample size, so
    ``n_points`` is capped at ``max_points`` (raise the cap explicitly if
    you really want a larger sample).
    """
    _check_sample(k, n_points, max_points, search_budget)
    return _pair_verdict(sample_simplex(k, n_points, seed), fn_a, fn_b, k, eps, search_budget, seed)


def _check_sample(k: int, n_points: int, max_points: int, search_budget: int) -> None:
    if k < 2:
        raise InvalidArgumentError(f"k must be at least 2, got {k}")
    if n_points < 2:
        raise InvalidArgumentError(f"need at least two points to compare, got {n_points}")
    if n_points > max_points:
        raise InvalidArgumentError(
            f"n_points={n_points} exceeds max_points={max_points} "
            "(the pairwise check is quadratic)"
        )
    if search_budget < 0:
        raise InvalidArgumentError(f"search_budget must not be negative, got {search_budget}")


def _compositions(total: int, parts: int):
    # stars and bars, lexicographic in the bar positions
    for cuts in combinations(range(total + parts - 1), parts - 1):
        comp = []
        last = -1
        for c in (*cuts, total + parts - 1):
            comp.append(c - last - 1)
            last = c
        yield comp


def simplex_grid(k: int, step: float = 0.1, limit: int | None = None) -> np.ndarray:
    """Deterministic coarse grid of simplex points with spacing ``step``.

    Includes every vector whose components are multiples of ``step``
    (e.g. step 0.1 covers hand-built counterexamples like (0.5, 0.2, 0.3)
    and (0.5, 0.5, 0)). ``limit`` truncates the enumeration.
    """
    total = round(1.0 / step)
    if abs(total * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 evenly")
    gen = _compositions(total, k)
    if limit is not None:
        gen = islice(gen, limit)
    pts = np.array(list(gen), dtype=np.float64) * step
    return pts


def search_counterexample(
    fn_a: Scorer,
    fn_b: Scorer,
    k: int,
    budget: int,
    seed,
    eps: float = 1e-12,
) -> OrderingWitness | None:
    """Look for an ordering violation within a pair-comparison budget.

    The candidate pool starts from the coarse 0.1 grid (deterministic,
    so known hand-built witnesses are always tried) and is topped up
    with random simplex points until checking all pool pairs would
    exceed ``budget``. Returns a verified witness or None.
    """
    if budget < 1:
        raise InvalidArgumentError("budget must be at least 1")
    m = _pool_size(budget)
    pool = simplex_grid(k, 0.1, limit=m)
    if pool.shape[0] < m:
        extra = sample_simplex(k, m - pool.shape[0], seed)
        pool = np.vstack([pool, extra])
    verdict = verify_on_points(pool, fn_a, fn_b, eps)
    return verdict.witness


def _pool_size(budget: int) -> int:
    """Largest search pool m with m*(m-1)/2 <= ``budget`` (at least 2)."""
    return max(2, (1 + isqrt(1 + 8 * budget)) // 2)


def _pair_verdict(points, fn_a, fn_b, k, eps, search_budget, search_seed) -> OrderingVerdict:
    """Dense check on ``points``, then a search when two distinct functions agree.

    ``pairs_checked`` counts the sample pairs plus the m(m-1)/2 pool
    pairs the search compared, whether or not it found a witness.
    """
    verdict = verify_on_points(points, fn_a, fn_b, eps)
    if not verdict.consistent or search_budget <= 0 or fn_a is fn_b:
        return verdict
    witness = search_counterexample(fn_a, fn_b, k, search_budget, search_seed, eps)
    m = _pool_size(search_budget)
    status = VerdictStatus.CONSISTENT_ON_SAMPLE if witness is None else VerdictStatus.COUNTEREXAMPLE
    return OrderingVerdict(status, verdict.pairs_checked + m * (m - 1) // 2, eps, witness)


@dataclass(frozen=True)
class EquivalenceReport:
    """Consistency structure of a set of score functions on one sample."""

    functions: tuple
    verdicts: dict  # (i, j) with i < j -> OrderingVerdict
    classes: tuple  # tuple of tuples of functions, partitioning `functions`
    transitivity_violations: tuple  # (i, j, l) index triples
    reflexive: bool
    symmetric: bool


def _connected_components(n: int, adjacent) -> tuple:
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if not seen[v] and adjacent(u, v):
                    seen[v] = True
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def verify_equivalence_relation(
    fns,
    k: int,
    n_points: int,
    seed,
    eps: float = 1e-12,
    search_budget: int = 0,
    max_points: int = 2000,
) -> EquivalenceReport:
    """Check that consistent-on-sample behaves like an equivalence relation.

    All functions are evaluated on one shared sample so the pairwise
    verdicts are comparable. ``search_budget`` works as in
    :func:`verify_on_sample`, with a per-pair search seed. Reports
    reflexivity, symmetry, any transitivity-violating triples, and the
    resulting classes (connected components of the relation).
    ``n_points`` is capped like in :func:`verify_on_sample`.
    """
    _check_sample(k, n_points, max_points, search_budget)
    fns = tuple(fns)
    n_fns = len(fns)
    points = sample_simplex(k, n_points, seed)

    verdicts: dict = {}
    consistent = np.ones((n_fns, n_fns), dtype=bool)
    for i in range(n_fns):
        for j in range(i, n_fns):
            search_seed = [*np.ravel(seed), i, j]
            v = _pair_verdict(points, fns[i], fns[j], k, eps, search_budget, search_seed)
            verdicts[(i, j)] = v
            consistent[i, j] = consistent[j, i] = v.consistent

    reflexive = bool(np.all(np.diag(consistent)))
    symmetric = bool(np.all(consistent == consistent.T))
    violations = tuple(
        (a, b, c)
        for a in range(n_fns)
        for b in range(n_fns)
        for c in range(n_fns)
        if len({a, b, c}) == 3
        and consistent[a, b]
        and consistent[b, c]
        and not consistent[a, c]
    )
    comps = _connected_components(n_fns, lambda u, v: consistent[u, v])
    classes = tuple(tuple(fns[i] for i in comp) for comp in comps)
    return EquivalenceReport(
        functions=fns,
        verdicts=verdicts,
        classes=classes,
        transitivity_violations=violations,
        reflexive=reflexive,
        symmetric=symmetric,
    )


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
