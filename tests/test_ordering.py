"""Order-isomorphism verification and counterexample search."""

import collections
import dataclasses
import itertools
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atckit import (
    DimensionError,
    GeneratorSpec,
    InvalidArgumentError,
    MonotoneTransform,
    OrderingVerdict,
    OrderingWitness,
    ScoreFunction,
    Shift,
    atc_estimate,
    check_pair,
    make_shift_pair,
    score_batch,
    search_counterexample,
    simplex_grid,
    squared_distance_to,
    verify_equivalence_relation,
    verify_on_points,
)
from atckit import ordering
from atckit.ordering import sample_simplex
from atckit.simplex import _sub_seed

from oracles import bfs_components, dense_first_violation

ALL_FNS = tuple(ScoreFunction)
ALL_PAIRS = list(itertools.combinations(ALL_FNS, 2))


def _verdict_of(fn_a, fn_b, **kwargs):
    return verify_equivalence_relation((fn_a, fn_b), **kwargs).verdicts[(0, 1)]


#: Registry scores and rescalings of them, for drawing tuples of functions.
_SCORERS = st.one_of(
    st.sampled_from(ALL_FNS),
    st.builds(MonotoneTransform.affine, st.sampled_from(ALL_FNS), st.sampled_from([0.5, 3.0]), st.just(-2.0)),
    st.builds(MonotoneTransform.odd_power, st.sampled_from(ALL_FNS), st.just(3)),
)


def _fields(verdict):
    """A verdict as comparable values: its witness's points as lists."""
    w = verdict.witness
    found = w and (w.p.tolist(), w.q.tolist(), w.score_a_p, w.score_a_q, w.score_b_p, w.score_b_q)
    return verdict.pairs_checked, verdict.equality_tolerance, found


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the size was checked")


def _dense_check_inputs(monkeypatch):
    """Record the points and the pairs of every verdict loop the verifier runs, in order."""
    seen = []
    verdicts = ordering._verdicts

    def recording(points, fns, pairs, eps):
        seen.append((np.array(points), list(pairs)))
        return verdicts(points, fns, pairs, eps)

    monkeypatch.setattr(ordering, "_verdicts", recording)
    return seen


class TestCheckPair:
    def test_published_quadratic_vs_max_violation(self):
        p, q = [0.5, 0.2, 0.3], [0.5, 0.5, 0.0]
        assert not check_pair(p, q, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)

    def test_fixed_reference_vector_violation(self):
        fixed = squared_distance_to([0.3, 0.7])
        assert not check_pair([0.4, 0.6], [0.5, 0.5], ScoreFunction.L2_NORM, fixed)

    def test_equal_points_always_consistent(self):
        p = [0.2, 0.3, 0.5]
        for fn_a, fn_b in ALL_PAIRS:
            assert check_pair(p, p, fn_a, fn_b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            check_pair([0.5, 0.5], [0.3, 0.3, 0.4], ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM)

    def test_no_components_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match=r"got shape \(2, 0\)$"):
            check_pair([], [], ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM)
        with pytest.raises(DimensionError, match=r"got shape \(1, 0\)$"):
            verify_on_points([], ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM)

    def test_tolerance_turns_small_gaps_into_ties(self):
        p, q = [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]  # permuted: all scores tie exactly
        assert check_pair(p, q, ScoreFunction.L2_NORM, ScoreFunction.NEG_ENTROPY, eps=0.0)


class TestVerifyOnSample:
    def test_binary_consistency_all_pairs(self):
        report = verify_equivalence_relation(ALL_FNS, k=2, n_points=1000, seed=0)
        assert len(report.verdicts) == len(ALL_PAIRS)
        for (i, j), verdict in report.verdicts.items():
            assert verdict.consistent, (ALL_FNS[i], ALL_FNS[j])
            assert verdict.witness is None
            assert verdict.pairs_checked == 1000 * 999 // 2

    def test_quadratic_pair_consistent_at_k7(self):
        verdict = _verdict_of(
            ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM, k=7, n_points=1000, seed=1
        )
        assert verdict.consistent

    def test_max_vs_entropy_differ_at_k3(self):
        witness = search_counterexample(
            ScoreFunction.MAX_CONF, ScoreFunction.NEG_ENTROPY, k=3, budget=50_000, seed=0
        )
        assert witness is not None
        assert not check_pair(
            witness.p, witness.q, ScoreFunction.MAX_CONF, ScoreFunction.NEG_ENTROPY
        )

    def test_sample_over_the_byte_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(ordering, "sample_simplex", _no_sampling)
        # 10**9 points at k=2 hold about 144 GB, against the 1 GiB one check may hold
        with pytest.raises(InvalidArgumentError, match=(
            "^a sample of 1000000000 points, which at k=2 need about 144000000000 bytes, "
            "over the 1073741824 bytes one ordering check may hold$"
        )):
            _verdict_of(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, k=2, n_points=10**9, seed=0)

    def test_sample_of_exactly_the_byte_bound_accepted(self, monkeypatch):
        monkeypatch.setattr(ordering, "_MAX_CHECK_BYTES", 10 * (3 + 16) * 8)
        verdict = _verdict_of(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, k=3, n_points=10, seed=0)
        assert verdict.pairs_checked == 45
        with pytest.raises(InvalidArgumentError, match="^a sample of 11 points, which at k=3 need about 1672 bytes"):
            _verdict_of(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, k=3, n_points=11, seed=0)

    def test_each_function_orders_like_itself(self):
        points = sample_simplex(4, 300, seed=2)
        for fn in ALL_FNS:
            verdict = verify_on_points(points, fn, fn)
            assert verdict.consistent, fn
            assert verdict.pairs_checked == 300 * 299 // 2

    def test_counterexample_witness_reproduces(self):
        points = np.array([[0.5, 0.2, 0.3], [0.5, 0.5, 0.0]])
        verdict = verify_on_points(points, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)
        assert verdict.status == "counterexample"
        w = verdict.witness
        assert (w.score_a_p, w.score_a_q) == (pytest.approx(0.38), pytest.approx(0.5))
        assert w.score_b_p == w.score_b_q == 0.5
        assert not check_pair(w.p, w.q, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)

    @pytest.mark.parametrize("eps", [-1e-12, float("inf"), float("nan")])
    def test_eps_must_be_finite_and_non_negative(self, eps):
        points = sample_simplex(3, 5, seed=0)
        with pytest.raises(InvalidArgumentError, match="^eps must be finite and non-negative"):
            verify_on_points(points, ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, eps)

    def test_verdict_is_its_witness(self):
        points = np.array([[0.5, 0.2, 0.3], [0.5, 0.5, 0.0]])
        found = verify_on_points(points, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)
        assert (found.consistent, found.status) == (False, "counterexample")
        cleared = dataclasses.replace(found, witness=None)
        assert (cleared.consistent, cleared.status) == (True, "consistent-on-sample")
        fields = [f.name for f in dataclasses.fields(OrderingVerdict)]
        assert fields == ["pairs_checked", "equality_tolerance", "witness"]


def _lookup(values):
    """Scorer for points (i,) that returns ``values[i]``, so any score vector can be checked."""
    return lambda probs: values[probs[:, 0].astype(int)]


def _bits(x):
    return np.float64(x).tobytes()


# ties at and around each eps, signed zeros and NaN
_SPECIAL_SCORES = [0.0, -0.0, 5e-13, 1e-12, 2e-12, 1e-3, 1e-3 + 1e-12, 2e-3, 0.5, 1.0, np.nan]
_MONOTONE = [lambda v: v, lambda v: 2.0 * v + 1.0, lambda v: v**3, np.arctan]


@st.composite
def _score_pairs(draw):
    """(scores a, scores b) on 1 to 15 points."""
    n = draw(st.integers(1, 15))
    entry = st.one_of(st.sampled_from(_SPECIAL_SCORES), st.floats(-1.0, 1.0, allow_subnormal=False))
    va = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):  # consistent up to rounding, perhaps with one entry moved
        vb = draw(st.sampled_from(_MONOTONE))(va)
        if draw(st.booleans()):
            vb[draw(st.integers(0, n - 1))] = draw(entry)
    else:
        vb = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=np.float64)
    return va, vb


# monotone maps of a grid with unit u, some of which merge values into ties
_GRID_MAPS = [
    lambda v, u: v,
    lambda v, u: 2.0 * v + 1.0,
    lambda v, u: np.clip(v, -4 * u, 4 * u),
    lambda v, u: np.floor(v / (3 * u)) * (3 * u),
]


@st.composite
def _grid_pairs(draw):
    """(scores a, scores b, eps) on 0 to 60 points, all multiples of eps
    (of 1e-3 for eps 0), so that differences land on the tolerance itself."""
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    unit = eps or 1e-3
    n = draw(st.integers(0, 60))
    steps = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    va = np.array(draw(steps), dtype=np.float64) * unit
    if draw(st.booleans()):  # consistent up to rounding, perhaps with one entry moved
        vb = draw(st.sampled_from(_GRID_MAPS))(va, unit)
        if n and draw(st.booleans()):
            vb[draw(st.integers(0, n - 1))] = draw(st.integers(-20, 20)) * unit
    else:
        vb = np.array(draw(steps), dtype=np.float64) * unit
    return va, vb, eps


@st.composite
def _tie_free_pairs(draw):
    """(scores a, scores b, a permutation of their rows): no two points share a score."""
    n = draw(st.integers(2, 15))
    distinct = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n, max_size=n, unique=True)
    va = np.array(draw(distinct), dtype=np.float64)
    vb = np.array(draw(distinct), dtype=np.float64)
    return va, vb, np.array(draw(st.permutations(range(n))))


class TestWitnessAgreesWithDenseOracle:
    def _assert_agrees_with_oracle(self, va, vb, eps):
        n = va.shape[0]
        points = np.arange(n, dtype=np.float64)[:, None]
        finite = np.isfinite(va) & np.isfinite(vb)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            with pytest.raises(InvalidArgumentError, match=rf"^point {bad} has a non-finite score"):
                verify_on_points(points, _lookup(va), _lookup(vb), eps)
            return
        with mock.patch.object(ordering, "_signs", wraps=ordering._signs) as signs:
            verdict = verify_on_points(points, _lookup(va), _lookup(vb), eps)
        hit = dense_first_violation(va, vb, eps)
        assert verdict.pairs_checked == n * (n - 1) // 2
        assert verdict.equality_tolerance == eps
        if hit is None:
            assert verdict.status == "consistent-on-sample"
            assert verdict.witness is None
            assert signs.call_count == 0  # decided by the sorts alone
            return
        w = verdict.witness
        assert verdict.status == "counterexample"
        i, j = int(w.p[0]), int(w.q[0])
        assert (w.p.tolist(), w.q.tolist()) == ([i], [j]) and i < j
        assert not check_pair(w.p, w.q, _lookup(va), _lookup(vb), eps)
        assert dense_first_violation(va[[i, j]], vb[[i, j]], eps) == (0, 1)
        got = [_bits(x) for x in (w.score_a_p, w.score_a_q, w.score_b_p, w.score_b_q)]
        assert got == [_bits(x) for x in (va[i], va[j], vb[i], vb[j])]

    @settings(max_examples=250, deadline=None)
    @given(case=_score_pairs(), eps=st.sampled_from([0.0, 1e-12, 1e-3]))
    def test_agrees_with_dense_oracle(self, case, eps):
        self._assert_agrees_with_oracle(*case, eps)

    @settings(max_examples=300, deadline=None)
    @given(case=_grid_pairs())
    def test_agrees_with_dense_oracle_on_a_tolerance_grid(self, case):
        self._assert_agrees_with_oracle(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=_tie_free_pairs(), eps=st.sampled_from([0.0, 1e-12, 1e-3]))
    def test_permuted_rows_give_the_same_witness_points(self, case, eps):
        va, vb, perm = case
        points = np.arange(va.shape[0], dtype=np.float64)[:, None]
        found = verify_on_points(points, _lookup(va), _lookup(vb), eps).witness
        moved = verify_on_points(points[perm], _lookup(va), _lookup(vb), eps).witness
        assert (found is None) == (moved is None)
        if found is not None:
            assert sorted([found.p[0], found.q[0]]) == sorted([moved.p[0], moved.q[0]])

    @pytest.mark.parametrize(
        "va, vb, eps, witness",
        [
            # a's differences: the rows' gaps are 5, -1 and -6, so row 3 with the
            # prefix's top at row 1; the dense oracle's first pair is (0, 3)
            ([0.0, 1.0, 2.0, 3.0], [0.0, 5.0, 4.0, -1.0], 0.0, (1, 3)),
            # a's differences give (1, 2); b's alone would give (0, 2)
            ([0.0, 1.0, 2.0, 3.0], [0.0, 5.0, -1.0, 4.0], 0.0, (1, 2)),
            # a has no difference above eps, so b's give the witness
            ([0.0, 0.0, 0.0], [2.0, 0.0, 1.0], 0.0, (1, 2)),
            # row 1's gap 5e-4 beats row 2's 8e-4, and the prefix of both ends at row 0
            ([0.0, 0.0015, 0.002], [0.0, 0.0005, 0.0008], 1e-3, (0, 1)),
            # a gap of exactly eps counts
            ([0.0, 2.0], [0.0, 1.0], 1.0, (0, 1)),
        ],
    )
    def test_the_witness_rule(self, va, vb, eps, witness):
        va, vb = np.array(va), np.array(vb)
        self._assert_agrees_with_oracle(va, vb, eps)
        points = np.arange(va.shape[0], dtype=np.float64)[:, None]
        w = verify_on_points(points, _lookup(va), _lookup(vb), eps).witness
        assert (int(w.p[0]), int(w.q[0])) == witness

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_names_its_first_point(self, bad):
        va, vb = np.array([0.0, 1.0, 2.0, bad]), np.array([0.0, bad, 2.0, 3.0])
        points = np.arange(4, dtype=np.float64)[:, None]
        with mock.patch.object(np, "argsort", side_effect=AssertionError("sorted")):
            with pytest.raises(InvalidArgumentError, match=rf"^point 1 has a non-finite score \(1.0, {bad}\)$"):
                verify_on_points(points, _lookup(va), _lookup(vb))

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "va, vb",
        [([], []), ([0.5], [-1.0]), ([0.0, 1e-3], [0.0, 0.0]), ([0.0, 1e-3], [1e-3, 0.0]),
         ([0.0, 0.5], [0.5, 0.0])],
    )
    def test_fewer_than_three_points(self, va, vb, eps):
        self._assert_agrees_with_oracle(np.array(va, dtype=np.float64), np.array(vb, dtype=np.float64), eps)

    @pytest.mark.parametrize("eps", [1e-12, 1e-3])
    def test_a_difference_of_exactly_eps_is_a_tie(self, eps):
        va, vb = np.array([0.0, eps, 5.0]), np.array([0.0, 0.0, -5.0])
        assert dense_first_violation(va, vb, eps) == (0, 2)  # (0, 1) ties under both
        self._assert_agrees_with_oracle(va, vb, eps)
        self._assert_agrees_with_oracle(va[:2], va[:2].copy(), eps)

    def test_a_point_at_the_rounded_search_key_is_in_the_prefix(self):
        eps = 1e-3
        high = 9 * eps
        low = high - eps  # the key of high's search, rounded down
        assert high - low > eps
        self._assert_agrees_with_oracle(np.array([low, high]), np.zeros(2), eps)

    def test_the_prefix_steps_back_past_rounded_differences(self):
        # 1 - u rounds to eps for the five u just below 2**-30, so the search
        # for 1 - eps = 2**-30 ends five points past the prefix of point 1.0
        eps = 1.0 - 2.0**-30
        va = np.array([1.0, *(2.0**-30 - i * 2.0**-60 for i in range(5)), 2.0**-30 - 2.0**-53])
        assert [1.0 - u > eps for u in va[1:]] == [False] * 5 + [True]
        self._assert_agrees_with_oracle(va, va.copy(), eps)

    def test_only_the_witness_is_compared_pairwise(self, monkeypatch):
        sizes = []

        def signs(delta, eps):
            sizes.append(np.size(delta))
            return np.where(np.abs(delta) <= eps, 0.0, np.sign(delta))

        monkeypatch.setattr(ordering, "_signs", signs)
        points = sample_simplex(3, 10**5, seed=0)
        consistent = verify_on_points(points, ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM)
        violated = verify_on_points(points, ScoreFunction.MAX_CONF, ScoreFunction.NEG_ENTROPY)
        assert consistent.consistent and not violated.consistent
        assert consistent.pairs_checked == violated.pairs_checked == 10**5 * (10**5 - 1) // 2
        assert sizes == [1, 1]  # check_pair's two signs for the one witness

    @pytest.mark.parametrize("swap", [None, 3, 400, 998])
    def test_finds_a_violation_in_a_late_row(self, swap):
        va = np.linspace(0.0, 1.0, 1000)
        vb = va.copy()
        if swap is not None:  # one adjacent pair in swapped order, past the first rows
            vb[[swap, swap + 1]] = vb[[swap + 1, swap]]
        self._assert_agrees_with_oracle(va, vb, 1e-12)

    @pytest.mark.parametrize(
        "fn_a, fn_b, consistent",
        [
            (ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM, True),
            (ScoreFunction.MAX_CONF, ScoreFunction.NEG_ENTROPY, False),
        ],
    )
    def test_memory_stays_within_the_byte_bound(self, fn_a, fn_b, consistent):
        n = 10**5
        points = sample_simplex(3, n, seed=0)
        tracemalloc.start()
        try:
            verdict = verify_on_points(points, fn_a, fn_b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.consistent is consistent
        assert peak <= 16 * 8 * n  # the bound's 16 words per point, besides the point itself


class TestSearchCounterexample:
    def test_grid_contains_published_pair(self):
        grid = simplex_grid(3)
        assert any(np.allclose(g, [0.5, 0.2, 0.3]) for g in grid)
        assert any(np.allclose(g, [0.5, 0.5, 0.0]) for g in grid)
        assert grid.shape == (66, 3)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_grid_size_follows_its_spacing(self, k):
        # search_counterexample sizes the grid by this formula before building it
        assert simplex_grid(k).shape[0] == comb(ordering._GRID_UNITS + k - 1, k - 1)

    def test_finds_quadratic_vs_max_witness(self):
        witness = search_counterexample(
            ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF, k=3, budget=10_000, seed=0
        )
        assert witness is not None
        assert not check_pair(witness.p, witness.q, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)

    def test_function_against_itself_finds_nothing(self):
        for fn in ALL_FNS:
            assert search_counterexample(fn, fn, k=3, budget=5000, seed=0) is None

    def test_monotone_transform_finds_nothing(self):
        for fn in ALL_FNS:
            transform = MonotoneTransform.odd_power(fn, 3)
            assert search_counterexample(fn, transform, k=3, budget=5000, seed=0) is None

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            search_counterexample(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, 3, 0, seed=0)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_classes_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match=f"^k must be at least 2, got {k}$"):
            search_counterexample(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, k, 100, seed=0)

    def test_pool_over_the_byte_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(ordering, "sample_simplex", _no_sampling)
        # budget 10**14 asks for a pool of 14,142,136 points, about 2.1 GB at k=3
        with pytest.raises(InvalidArgumentError, match=(
            "^budget=100000000000000 needs a search pool of 14142136 points, which at k=3 "
            "need about 2149604672 bytes, over the 1073741824 bytes one ordering check may hold$"
        )):
            search_counterexample(ScoreFunction.MAX_CONF, ScoreFunction.L2_NORM, 3, 10**14, seed=0)

    def test_pool_reaches_beyond_one_face_at_k6(self, monkeypatch):
        # the 0.1 grid has 3003 points at k=6, more than the 447-point pool
        # of budget 100,000; its first 447 points all have p0 = 0
        seen = _dense_check_inputs(monkeypatch)
        search_counterexample(
            ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM, k=6, budget=100_000, seed=0
        )
        ((pool, _),) = seen
        assert pool.shape == (447, 6)
        assert pool[:, 0].max() > 0.5


class TestEquivalenceRelation:
    @pytest.mark.parametrize("seed", [-1, [3, -2]])
    def test_negative_seed_named(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must not be negative"):
            verify_equivalence_relation(ALL_FNS, k=3, n_points=10, seed=seed)

    def test_binary_single_class_of_six(self):
        report = verify_equivalence_relation(ALL_FNS, k=2, n_points=600, seed=0)
        assert not report.transitivity_violations
        assert len(report.classes) == 1
        assert set(report.classes[0]) == set(ALL_FNS)

    def test_k3_separates_all_but_quadratics(self):
        report = verify_equivalence_relation(
            ALL_FNS, k=3, n_points=600, seed=0, search_budget=20_000
        )
        classes = {frozenset(fn.value for fn in cls) for cls in report.classes}
        assert frozenset({"l2n", "l2u"}) in classes
        assert len(classes) == 5
        assert not report.transitivity_violations

    def test_single_function_trivially_reflexive(self):
        report = verify_equivalence_relation((ScoreFunction.MAX_CONF,), k=3, n_points=100, seed=0)
        assert report.verdicts == {}
        assert report.classes == ((ScoreFunction.MAX_CONF,),)

    @pytest.mark.parametrize("k, budget", [(3, 5000), (4, 50_000)])
    def test_search_pool_shares_no_point_with_sample(self, monkeypatch, k, budget):
        seen = _dense_check_inputs(monkeypatch)
        verdict = _verdict_of(
            ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM,
            k=k, n_points=200, seed=0, search_budget=budget,
        )
        assert verdict.consistent
        (sample, _), (pool, _) = seen
        assert pool.shape[0] > simplex_grid(k).shape[0]  # random points too
        assert set(map(tuple, pool)).isdisjoint(map(tuple, sample))

    def test_seed_none_draws_one_fresh_pool_for_every_pair(self, monkeypatch):
        seen = _dense_check_inputs(monkeypatch)
        fns = (ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM, ScoreFunction.L2_NORM)
        report = verify_equivalence_relation(fns, 3, 20, None, search_budget=10)
        assert all(verdict.consistent for verdict in report.verdicts.values())
        (sample, _), (pool, pairs) = seen  # one pool, searched for every pair
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert set(map(tuple, pool)).isdisjoint(map(tuple, sample))
        seen.clear()
        verify_equivalence_relation(fns[:2], 3, 20, None, search_budget=10)
        assert not np.array_equal(seen[0][0], sample)  # a new draw per call

    @pytest.mark.parametrize("k", [2, 3])
    def test_each_function_is_scored_once_per_point_set(self, monkeypatch, k):
        calls = collections.Counter()  # (function, rows scored) -> calls
        draws = []

        def counting(points, fn):
            calls[fn, len(points)] += 1
            return score_batch(points, fn)

        def drawing(*args):
            draws.append(args)
            return sample_simplex(*args)

        monkeypatch.setattr(ordering, "score_batch", counting)
        monkeypatch.setattr(ordering, "sample_simplex", drawing)
        report = verify_equivalence_relation(ALL_FNS, k=k, n_points=300, seed=0, search_budget=5000)
        # a budget of 5000 pairs buys a pool of 100 points; only the
        # quadratics are still consistent after the sample at k=3
        searched = ALL_FNS if k == 2 else (ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM)
        assert len(draws) == 2
        assert {key: n for key, n in calls.items() if key[1] != 2} == {
            **{(fn, 300): 1 for fn in ALL_FNS}, **{(fn, 100): 1 for fn in searched}
        }
        witnesses = sum(not verdict.consistent for verdict in report.verdicts.values())
        assert sum(n for (_, rows), n in calls.items() if rows == 2) == 2 * witnesses  # check_pair's

    @settings(max_examples=60, deadline=None)
    @given(
        fns=st.lists(_SCORERS, min_size=1, max_size=3).flatmap(
            lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=5)
        ),
        k=st.sampled_from([2, 3, 4]),
        n_points=st.integers(2, 40),
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([0.0, 1e-12, 1e-3]),
        budget=st.sampled_from([0, 1, 40, 300]),
    )
    def test_every_verdict_is_the_pair_by_pair_verdict(self, fns, k, n_points, seed, eps, budget):
        report = verify_equivalence_relation(fns, k, n_points, seed, eps, budget)
        points = sample_simplex(k, n_points, seed)
        pool_pairs = max((comb(m, 2) for m in range(2, 30) if comb(m, 2) <= budget), default=0)
        for i, j in itertools.combinations(range(len(fns)), 2):
            expected = verify_on_points(points, fns[i], fns[j], eps)
            if expected.consistent and budget > 0:
                witness = search_counterexample(fns[i], fns[j], k, budget, _sub_seed(seed, 1), eps)
                expected = OrderingVerdict(expected.pairs_checked + pool_pairs, eps, witness)
            assert _fields(report.verdicts[(i, j)]) == _fields(expected)

    def test_memory_of_all_six_stays_within_the_byte_bound(self):
        n, k = 10**5, 3
        tracemalloc.start()
        try:
            verify_equivalence_relation(ALL_FNS, k=k, n_points=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (k + 14 + len(ALL_FNS)) * 8 * n  # the bound's words per point, the sample's included

    def test_oversized_search_pool_rejected_before_sampling(self, monkeypatch):
        monkeypatch.setattr(ordering, "sample_simplex", _no_sampling)
        with pytest.raises(InvalidArgumentError, match="^budget=100000000000000 needs a search pool of 14142136 "):
            verify_equivalence_relation(ALL_FNS, k=3, n_points=10, seed=0, search_budget=10**14)


_WITNESS = OrderingWitness(np.zeros(2), np.ones(2), 0.0, 1.0, 1.0, 0.0)


@st.composite
def _relations(draw):
    """(symmetric relation over m distinct functions, positions drawn from them with repeats)."""
    m = draw(st.integers(1, 6))
    related = [[True] * m for _ in range(m)]
    for a, b in itertools.combinations(range(m), 2):
        related[a][b] = related[b][a] = draw(st.booleans())
    positions = draw(st.lists(st.integers(0, m - 1), max_size=8))
    return related, positions


class TestClassesMatchBfsOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=_relations())
    # not transitive (0 ~ 1 ~ 2, 0 !~ 2), with function 0 at two positions
    @example(case=([[True, True, False], [True, True, True], [False, True, True]], [0, 2, 1, 0]))
    def test_classes_are_the_connected_components(self, case):
        related, positions = case
        scorers = [[i] for i in range(len(related))]  # lists: unhashable, as a user's scorer may be
        fns = [scorers[i] for i in positions]

        def judged(points, fns, pairs, eps):
            return {(i, j): OrderingVerdict(1, eps, None if related[fns[i][0]][fns[j][0]] else _WITNESS) for i, j in pairs}

        with mock.patch.object(ordering, "_verdicts", judged):
            report = verify_equivalence_relation(fns, k=2, n_points=2, seed=0)
        adjacent = [[related[a][b] for b in positions] for a in positions]
        expected = [[id(fns[i]) for i in comp] for comp in bfs_components(adjacent)]
        assert [[id(fn) for fn in cls] for cls in report.classes] == expected


class TestQuadraticConstantDifference:
    def test_scores_differ_by_exactly_one_over_k(self):
        rng = np.random.default_rng(12)
        for k in range(2, 21):
            points = rng.dirichlet(np.ones(k), size=500)
            delta = score_batch(points, ScoreFunction.L2_NORM) - score_batch(
                points, ScoreFunction.L2_TO_UNIFORM
            )
            np.testing.assert_allclose(delta, 1.0 / k, atol=1e-12)

    def test_no_ordering_violation_at_any_dimension(self):
        # 145 points -> 10,440 pairs per k, all order-consistent
        for k in range(2, 21):
            points = sample_simplex(k, 145, seed=100 + k)
            verdict = verify_on_points(points, ScoreFunction.L2_NORM, ScoreFunction.L2_TO_UNIFORM)
            assert verdict.consistent, k
            assert verdict.pairs_checked >= 10_000


class TestOrderingImpliesIdenticalEstimates:
    def test_consistency_on_union_forces_equal_estimates(self):
        # sample-level consistency at eps=0 is literal order-isomorphism on
        # the realized data, which pins the below-threshold sets
        spec = GeneratorSpec(
            k=2, n=250, target_accuracy=0.8, concentration=5.0,
            shift=Shift(temperature=1.4), seed=33,
        )
        source, target = make_shift_pair(spec)
        union = np.vstack([source.probs, target.probs])
        for fn_a, fn_b in ALL_PAIRS:
            verdict = verify_on_points(union, fn_a, fn_b, eps=0.0)
            assert verdict.consistent
            est_a = atc_estimate(source, target, fn_a)
            est_b = atc_estimate(source, target, fn_b)
            assert est_a.error == est_b.error

    def test_inconsistent_pair_may_differ(self):
        spec = GeneratorSpec(
            k=4, n=250, target_accuracy=0.75, concentration=4.0,
            shift=Shift(temperature=1.5), seed=7,
        )
        source, target = make_shift_pair(spec)
        union = np.vstack([source.probs, target.probs])
        verdict = verify_on_points(union, ScoreFunction.MAX_CONF, ScoreFunction.JS_TO_UNIFORM)
        assert not verdict.consistent  # reversal exists in the realized sample


class TestSampleSimplex:
    def test_points_live_on_simplex(self):
        points = sample_simplex(5, 200, seed=0)
        assert points.shape == (200, 5)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-9)
        assert points.min() >= 0.0

    def test_seeded_reproducibility(self):
        assert np.array_equal(sample_simplex(3, 50, seed=4), sample_simplex(3, 50, seed=4))
