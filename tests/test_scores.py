"""Score function values, symmetries, and closed forms."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit import (
    DimensionError,
    MonotoneTransform,
    PredictionSet,
    ScoreFunction,
    score,
    score_batch,
)
from atckit import scores as score_module
from atckit import simplex
from atckit.simplex import _row_blocks

from oracles import js_divergence_reference, js_to_uniform_reference, masked_log_kernels, neg_entropy_reference

ALL_FNS = tuple(ScoreFunction)


class TestKnownValues:
    def test_squared_norm_counterexample_pair(self):
        assert score([0.5, 0.2, 0.3], ScoreFunction.L2_NORM) == pytest.approx(0.38, abs=1e-12)
        assert score([0.5, 0.5, 0.0], ScoreFunction.L2_NORM) == pytest.approx(0.50, abs=1e-12)

    def test_neg_entropy_at_vertex_is_zero(self):
        assert score([1.0, 0.0, 0.0], ScoreFunction.NEG_ENTROPY) == 0.0

    def test_l1_to_uniform_closed_value(self):
        assert score([0.75, 0.25], ScoreFunction.L1_TO_UNIFORM) == pytest.approx(0.5, abs=1e-12)

    def test_js_at_centroid_is_zero(self):
        assert score([0.5, 0.5], ScoreFunction.JS_TO_UNIFORM) == 0.0

    def test_js_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 5, 9):
            for p in rng.dirichlet(np.ones(k), size=20):
                expected = js_divergence_reference(p, k)
                assert score(p, ScoreFunction.JS_TO_UNIFORM) == pytest.approx(expected, abs=1e-12)

    def test_neg_entropy_at_centroid_is_minus_log_k(self):
        for k in range(2, 101):
            got = score(np.full(k, 1.0 / k), ScoreFunction.NEG_ENTROPY)
            assert got == pytest.approx(-math.log(k), abs=1e-12)


class TestClosedFormsOnBinarySimplex:
    # p = (a, 1-a) parameterization on a in [0.5, 1]
    GRID = np.linspace(0.5, 1.0, 100)

    def _values(self, fn):
        points = np.column_stack([self.GRID, 1.0 - self.GRID])
        return score_batch(points, fn)

    def test_l1_to_uniform_is_2a_minus_1(self):
        np.testing.assert_allclose(
            self._values(ScoreFunction.L1_TO_UNIFORM), 2 * self.GRID - 1, atol=1e-12
        )

    def test_squared_norm_is_quadratic(self):
        np.testing.assert_allclose(
            self._values(ScoreFunction.L2_NORM), 2 * self.GRID**2 - 2 * self.GRID + 1, atol=1e-12
        )

    def test_squared_distance_to_uniform_is_quadratic(self):
        np.testing.assert_allclose(
            self._values(ScoreFunction.L2_TO_UNIFORM),
            2 * self.GRID**2 - 2 * self.GRID + 0.5,
            atol=1e-12,
        )


class TestStructuralProperties:
    @pytest.mark.parametrize("fn", ALL_FNS, ids=lambda f: f.value)
    def test_permutation_symmetry_exact(self, fn):
        rng = np.random.default_rng(7)
        for k in range(2, 9):
            points = rng.dirichlet(np.ones(k), size=50)
            perm = rng.permutation(k)
            base = score_batch(points, fn)
            permuted = score_batch(points[:, perm], fn)
            assert np.array_equal(base, permuted)

    @pytest.mark.parametrize("fn", ALL_FNS, ids=lambda f: f.value)
    def test_centroid_min_vertex_max(self, fn):
        rng = np.random.default_rng(11)
        for k in range(2, 11):
            points = rng.dirichlet(np.ones(k), size=10_000)
            values = score_batch(points, fn)
            vertex = np.zeros(k)
            vertex[0] = 1.0
            low = score(np.full(k, 1.0 / k), fn)
            high = score(vertex, fn)
            assert np.all(low <= values)
            assert np.all(values <= high)

    def test_batch_preserves_order(self):
        got = score_batch([[0.9, 0.1], [0.5, 0.5]], ScoreFunction.MAX_CONF)
        assert got.tolist() == [0.9, 0.5]

    def test_batch_quadratic_pair_values(self):
        got = score_batch([[0.5, 0.2, 0.3], [0.5, 0.5, 0.0]], ScoreFunction.L2_NORM)
        np.testing.assert_allclose(got, [0.38, 0.5], atol=1e-12)

    def test_batch_accepts_prediction_set(self):
        data = PredictionSet([[1.0, 0.0]])
        assert score_batch(data, ScoreFunction.NEG_ENTROPY).tolist() == [0.0]

    def test_batch_matches_elementwise_score(self):
        rng = np.random.default_rng(5)
        points = rng.dirichlet(np.ones(4), size=25)
        for fn in ALL_FNS:
            batch = score_batch(points, fn)
            single = [score(p, fn) for p in points]
            assert batch.tolist() == single


def _rows(kind, k, n, rng):
    """n rows of width k: random, within 1e-12..1e-4 of uniform, or of a vertex."""
    if kind == "random":
        return rng.dirichlet(np.ones(k), size=n)
    if kind == "near-uniform":
        z = rng.standard_normal((n, k))
        z -= z.mean(axis=1, keepdims=True)
        return 1.0 / k + z * 10.0 ** rng.uniform(-12, -4, size=(n, 1)) / k
    rows = rng.dirichlet(np.ones(k), size=n) * 10.0 ** rng.uniform(-15, -3, size=(n, 1))
    rows[:, 0] = 1.0 - rows[:, 1:].sum(axis=1)
    return rows


class TestAccuracyAgainstScalarOracle:
    """negent and js against math.log/math.log1p per component, summed exactly.

    The kernels' logs are numpy's, which may differ from the C library's in
    the last bit, and they add the sorted terms one by one. Both errors are
    relative to the oracle's scale, the sum of the terms' magnitudes, so
    the stated tolerance is |kernel - oracle| <= k * eps * scale, the bound
    of k sequential additions. Measured: at most 0.32 of it.
    """

    @pytest.mark.parametrize("kind", ["random", "near-uniform", "near-vertex"])
    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
    @pytest.mark.parametrize(
        "fn, reference",
        [
            (ScoreFunction.NEG_ENTROPY, neg_entropy_reference),
            (ScoreFunction.JS_TO_UNIFORM, js_to_uniform_reference),
        ],
        ids=["negent", "js"],
    )
    def test_within_k_eps_of_scale(self, fn, reference, k, kind):
        rng = np.random.default_rng(k)
        probs = PredictionSet(_rows(kind, k, 20, rng)).probs
        tolerance = k * np.finfo(np.float64).eps
        for got, p in zip(score_batch(probs, fn), probs):
            value, scale = reference(p.tolist())
            assert abs(got - value) <= tolerance * scale


@st.composite
def awkward_rows(draw):
    """Validated rows with zero components, vertices, subnormals and duplicates."""
    k = draw(st.integers(min_value=2, max_value=1000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 1.0, 100.0]))
    rows = rng.dirichlet(np.full(k, alpha), size=draw(st.integers(min_value=1, max_value=4)))
    others = np.ones(rows.shape, dtype=bool)
    others[np.arange(len(rows)), rows.argmax(axis=1)] = False  # keep each row's mass
    if draw(st.booleans()):
        rows[others & (rng.random(rows.shape) < 0.3)] = 0.0
    if draw(st.booleans()):
        tiny = others & (rng.random(rows.shape) < 0.1)
        rows[tiny] = rng.integers(1, 2**20, size=int(tiny.sum())) * 5e-324
    rows /= rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        vertex = np.zeros(k)
        vertex[rng.integers(k)] = 1.0
        rows = np.vstack([rows, vertex])
    rows = PredictionSet(rows).probs
    return np.vstack([rows, rows[rng.integers(len(rows), size=draw(st.integers(0, 2)))]]), rng


class TestExactInvariance:
    @given(awkward_rows())
    @settings(max_examples=150, deadline=None)
    def test_layout_and_permutation_leave_every_bit(self, case):
        probs, rng = case
        n, k = probs.shape
        strided = np.zeros((n, 2 * k))
        strided[:, 1::2] = probs
        perm = rng.permutation(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in ALL_FNS:
                base = score_batch(probs, fn)
                assert np.array_equal(score_batch(probs[:, perm], fn), base)
                assert np.array_equal(score_batch(np.asfortranarray(probs), fn), base)
                assert np.array_equal(score_batch(strided[:, 1::2], fn), base)
                rows = np.concatenate([score_batch(probs[i : i + 1], fn) for i in range(n)])
                assert np.array_equal(rows, base)


@st.composite
def row_sum_terms(draw):
    """(n, k) terms, k in [1, 2000], magnitudes 1e-30 to 1e30 of mixed sign with zeros and -0.0."""
    n = draw(st.sampled_from([1, 2, 3, 65, 200]))
    k = draw(st.one_of(st.integers(1, 2000), st.sampled_from([255, 256, 257, 512, 513])))  # chunk edges
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = 10.0 ** rng.uniform(-30, 30, (n, k))
    terms[rng.random((n, k)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] *= -1.0
    for value in (0.0, -0.0):
        terms[rng.random((n, k)) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = value
    return terms


class TestRowSum:
    @given(row_sum_terms())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_last_cumsum_of_the_sorted_rows(self, terms):
        # bit for bit, the sign of a zero sum included: the sum adds strictly left to right
        expected = np.cumsum(np.sort(terms, axis=1), axis=1)[:, -1]
        got = score_module._sorted_row_sum(terms.copy())
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _zero_rule_block(n, k, subnormal, seed):
    """Validated rows from Dirichlet(1). Below each row's top, the components take in
    turn 0, -0.0, with ``subnormal`` a few times 5e-324, and their own value; every
    third row is a vertex, its zeros of both signs."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(k), size=n)
    for i, row in enumerate(rows):
        top = row.argmax()
        others = np.flatnonzero(np.arange(k) != top)
        kind = (i + np.arange(others.size)) % 4
        row[others[kind == 0]] = 0.0
        row[others[kind == 1]] = -0.0
        if subnormal:
            row[others[kind == 2]] = rng.integers(1, 2**20, size=np.count_nonzero(kind == 2)) * 5e-324
        if i % 3 == 2:
            row[others[kind >= 2]] = 0.0
        row[top] = 0.0
        row[top] = 1.0 - row.sum()
    return PredictionSet(rows).probs


class TestZeroRule:
    """The logs run unmasked, and one rule sets a term to 0 where its factor is 0."""

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (1, 2, 65, 300) for k in (2, 3, 257, 1000)] + [(1, 70000), (2, 70000)]
    )
    @pytest.mark.parametrize("subnormal", [False, True])
    def test_masked_log_bits_and_no_floating_point_error(self, n, k, subnormal):
        probs = _zero_rule_block(n, k, subnormal, seed=n * 100_003 + k)
        expected = masked_log_kernels(probs)
        # a subnormal component's square or p log p underflows, in the masked form too
        under = "ignore" if subnormal else "raise"
        with warnings.catch_warnings(), np.errstate(all="raise", under=under):
            warnings.simplefilter("error")
            for fn in ALL_FNS:
                got = score_batch(probs, fn)
                assert got.tobytes() == expected[fn.value].tobytes(), fn


class TestRowBlocks:
    """Registry kernels and their rescalings score one row block at a time."""

    def test_blocks_give_the_whole_matrix_bits(self, monkeypatch):
        probs = PredictionSet(np.random.default_rng(4).dirichlet(np.full(1000, 0.1), 150)).probs
        assert len(list(_row_blocks(*probs.shape))) > 1
        fns = ALL_FNS + (MonotoneTransform.odd_power(ScoreFunction.JS_TO_UNIFORM, 3),)
        blocked = [score_batch(probs, fn) for fn in fns]
        monkeypatch.setattr(simplex, "_BLOCK_CELLS", probs.size)  # the whole matrix is one block
        assert len(list(_row_blocks(*probs.shape))) == 1
        for fn, scores in zip(fns, blocked):
            assert np.array_equal(scores, score_batch(probs, fn))

    def test_memory_stays_within_a_block(self):
        probs = np.random.default_rng(5).dirichlet(np.ones(1000), 5000)  # 38 MiB
        for fn in ALL_FNS:
            tracemalloc.start()
            try:
                score_batch(probs, fn)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # js on the whole matrix held four (5000, 1000) arrays, about 160 MiB
            assert peak <= 4 * 2**20, fn

    @pytest.mark.parametrize("fn", ["max", 3, None])
    def test_a_non_callable_is_not_a_score_function(self, fn):
        with pytest.raises(TypeError, match=f"^cannot interpret {fn!r} as a score function$"):
            score_batch(np.full((2, 2), 0.5), fn)

    @pytest.mark.parametrize(
        "data, shape",
        [([], (1, 0)), (np.zeros((3, 0)), (3, 0)), (np.zeros((2, 2, 2)), (2, 2, 2))],
        ids=["empty-list", "no-columns", "3-d"],
    )
    @pytest.mark.parametrize("kind", ["registry", "transform", "callable"])
    def test_only_an_n_by_k_matrix_is_scored(self, monkeypatch, data, shape, kind):
        def never(probs):
            raise AssertionError("a kernel ran on a malformed input")

        monkeypatch.setitem(score_module._KERNELS, ScoreFunction.MAX_CONF, never)
        fn = {
            "registry": ScoreFunction.MAX_CONF,
            "transform": MonotoneTransform.affine(ScoreFunction.MAX_CONF, 2.0),
            "callable": never,
        }[kind]
        with pytest.raises(DimensionError, match=rf"^scores need an \(n, k\) matrix with k >= 1, got shape {re.escape(str(shape))}$"):
            score_batch(data, fn)

    def test_no_rows_give_no_scores(self):
        fns = (ScoreFunction.JS_TO_UNIFORM, MonotoneTransform.odd_power(ScoreFunction.JS_TO_UNIFORM, 3), lambda p: p[:, 0])
        for fn in fns:
            assert score_batch(np.zeros((0, 3)), fn).shape == (0,)

    def test_any_other_callable_gets_the_whole_matrix(self):
        shapes = []

        def first_component(probs):
            shapes.append(probs.shape)
            return probs[:, 0]

        probs = np.full((150, 1000), 1e-3)
        assert np.array_equal(score_batch(probs, first_component), probs[:, 0])
        assert shapes == [(150, 1000)]


class TestMonotoneTransforms:
    def test_affine_example(self):
        t = MonotoneTransform.affine(ScoreFunction.MAX_CONF, 2.0, 1.0)
        assert score([0.9, 0.1], t) == pytest.approx(2.8, abs=1e-12)

    def test_odd_power_example(self):
        t = MonotoneTransform.odd_power(ScoreFunction.MAX_CONF, 3)
        assert score([0.5, 0.5], t) == pytest.approx(0.125, abs=1e-12)

    def test_identity_transform(self):
        rng = np.random.default_rng(2)
        identity = MonotoneTransform.affine(ScoreFunction.JS_TO_UNIFORM, 1.0, 0.0)
        for p in rng.dirichlet(np.ones(3), size=10):
            assert score(p, identity) == score(p, ScoreFunction.JS_TO_UNIFORM)

    def test_catalog_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            MonotoneTransform.affine(ScoreFunction.MAX_CONF, -1.0)
        with pytest.raises(ValueError):
            MonotoneTransform.affine(ScoreFunction.MAX_CONF, 0.0)
        with pytest.raises(ValueError):
            MonotoneTransform.odd_power(ScoreFunction.MAX_CONF, 2)
        with pytest.raises(ValueError):
            MonotoneTransform(ScoreFunction.MAX_CONF, scale=2.0, offset=1.0, exponent=4)
        with pytest.raises(ValueError):
            MonotoneTransform(ScoreFunction.MAX_CONF, scale=0.0, exponent=3)

    def test_cube_preserves_order_on_negatives(self):
        # entropy scores are <= 0; the cube must not reorder them
        rng = np.random.default_rng(3)
        points = rng.dirichlet(np.ones(5), size=200)
        base = score_batch(points, ScoreFunction.NEG_ENTROPY)
        cubed = score_batch(points, MonotoneTransform.odd_power(ScoreFunction.NEG_ENTROPY, 3))
        assert np.array_equal(np.argsort(base, kind="stable"), np.argsort(cubed, kind="stable"))
