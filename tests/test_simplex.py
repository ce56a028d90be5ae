"""Vector validation, prediction sets, and metric conventions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit import (
    Convention,
    DimensionError,
    EmptyInputError,
    GeneratorSpec,
    InvalidArgumentError,
    MetricValue,
    MissingLabelsError,
    NotOnSimplexError,
    PredictionSet,
    bootstrap_resample,
    generate,
    true_accuracy,
    validate_matrix,
)
from atckit.ordering import sample_simplex
from atckit.simplex import (
    _BLOCK_CELLS,
    _resample_blocks,
    _rng,
    _row_blocks,
    _sub_seed,
    derive_seed,
)


class TestValidateVector:
    def test_exact_point_unchanged(self):
        v = validate_matrix([0.5, 0.5])[0]
        assert v.tolist() == [0.5, 0.5]

    def test_three_class_point(self):
        v = validate_matrix([0.5, 0.2, 0.3])[0]
        assert v.tolist() == [0.5, 0.2, 0.3]

    def test_sum_off_by_too_much(self):
        with pytest.raises(NotOnSimplexError):
            validate_matrix([0.6, 0.6])

    def test_sum_within_tolerance_renormalized(self):
        v = validate_matrix([0.5, 0.5000004])[0]
        assert abs(v.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("step", [2.0**-20, -(2.0**-20)])
    def test_sum_exactly_tolerance_from_one_accepted(self, step):
        # 0.5 + step and the row sum 1 + step are exact, so the sum is tolerance away, not further
        validate_matrix([0.5 + step, 0.5], tolerance=abs(step))
        with pytest.raises(NotOnSimplexError):
            validate_matrix([0.5 + 2 * step, 0.5], tolerance=abs(step))

    def test_tiny_negative_clamped(self):
        v = validate_matrix([1.0, -1e-9, 1e-9])[0]
        assert v.min() >= 0.0
        assert abs(v.sum() - 1.0) <= 1e-12

    def test_clamp_leaves_negative_zero_and_the_caller_array_alone(self):
        raw = np.array([[-0.0, 1.0, -1e-9, 1e-9]])
        v = validate_matrix(raw)[0]
        assert np.signbit(v[0]) and v[2] == 0.0 and not np.signbit(v[2])
        assert raw[0, 2] == -1e-9

    def test_holds_one_copy_of_its_input(self):
        raw = np.random.default_rng(3).dirichlet(np.ones(1000), 2000)
        raw[:, ::100] = -1e-9  # negatives to clamp
        raw /= raw.sum(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            validate_matrix(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the copy it returns, plus boolean masks; a second float copy would reach 2x
        assert peak < 1.5 * raw.nbytes

    def test_large_negative_rejected(self):
        with pytest.raises(NotOnSimplexError):
            validate_matrix([1.1, -0.1])

    def test_single_component_rejected(self):
        with pytest.raises(DimensionError):
            validate_matrix([1.0])

    def test_a_stack_of_matrices_rejected(self):
        with pytest.raises(DimensionError, match="^expected a matrix of row vectors, got ndim=3$"):
            validate_matrix(np.full((2, 2, 2), 0.5))

    def test_nan_rejected(self):
        with pytest.raises(NotOnSimplexError):
            validate_matrix([0.5, float("nan")])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12).filter(
            lambda xs: sum(xs) > 1e-3
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_renormalization_invariant(self, raw):
        # arbitrary positive vectors scaled onto the simplex stay there
        scale = sum(raw)
        v = validate_matrix([x / scale for x in raw], tolerance=1e-6)[0]
        assert abs(v.sum() - 1.0) <= 1e-12
        assert v.min() >= 0.0


class TestPredictionSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            PredictionSet(np.zeros((0, 3)))

    def test_labels_length_mismatch(self):
        with pytest.raises(DimensionError):
            PredictionSet([[0.5, 0.5], [0.1, 0.9]], labels=[0])

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            PredictionSet([[0.5, 0.5]], labels=[2])

    def test_empty_labels_treated_as_unlabeled(self):
        data = PredictionSet([[0.6, 0.4]], labels=[])
        assert data.labels is None

    def test_probs_read_only(self):
        data = PredictionSet([[0.5, 0.5]])
        with pytest.raises(ValueError):
            data.probs[0, 0] = 0.9

    def test_callers_labels_stay_writeable(self):
        labels = np.array([0, 1])
        data = PredictionSet([[0.6, 0.4], [0.3, 0.7]], labels=labels)
        assert labels.flags.writeable and not data.labels.flags.writeable
        labels[0] = 1  # the set keeps its own copy
        assert data.labels.tolist() == [0, 1]

    def test_predicted_labels_tie_breaks_low(self):
        data = PredictionSet([[0.5, 0.5], [0.2, 0.8]])
        assert data.predicted_labels.tolist() == [0, 1]

    def test_subset_is_bit_identical(self):
        rng = np.random.default_rng(0)
        data = PredictionSet(rng.dirichlet(np.ones(4), size=50), labels=rng.integers(0, 4, 50))
        idx = rng.integers(0, 50, size=50)
        sub = data.subset(idx)
        assert np.array_equal(sub.probs, data.probs[idx])
        assert np.array_equal(sub.labels, data.labels[idx])
        assert len(sub) == 50 and sub.k == 4

    def test_subset_keeps_bits_that_revalidation_would_move(self):
        data = generate(GeneratorSpec(k=10, n=200, target_accuracy=0.8, seed=0))
        assert not np.array_equal(validate_matrix(data.probs), data.probs)
        idx = np.random.default_rng(1).integers(0, 200, size=300)
        sub = data.subset(idx)
        assert sub.probs.tobytes() == data.probs[idx].tobytes()
        assert np.array_equal(sub.labels, data.labels[idx])
        assert not sub.probs.flags.writeable and not sub.labels.flags.writeable

    @pytest.mark.parametrize("labels", [[0, 2**70], [0, 99999999999999999999999], [-(2**70), 0]])
    def test_labels_beyond_int64_out_of_range(self, labels):
        # not an OverflowError from the int64 cast
        with pytest.raises(InvalidArgumentError, match=r"labels must lie in \[0, 2\)"):
            PredictionSet([[0.6, 0.4], [0.3, 0.7]], labels=labels)

    @pytest.mark.parametrize(
        "labels",
        [[0.9, 1.7], [0.0, 1.0], [True, False], np.array([0.0, 1.0]), np.array(["0", "1"])],
        ids=["fractional", "integral-floats", "bools", "float-array", "strings"],
    )
    def test_non_integer_labels_rejected_not_rounded(self, labels):
        with pytest.raises(InvalidArgumentError, match="labels must be integers"):
            PredictionSet([[0.6, 0.4], [0.3, 0.7]], labels=labels)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, object])
    def test_any_integer_dtype_accepted(self, dtype):
        data = PredictionSet([[0.6, 0.4], [0.3, 0.7]], labels=np.array([1, 0], dtype=dtype))
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, 0]


class TestTrueAccuracy:
    def test_all_correct(self):
        data = PredictionSet([[0.9, 0.1], [0.2, 0.8]], labels=[0, 1])
        assert true_accuracy(data).value == 1.0

    def test_half_correct(self):
        data = PredictionSet([[0.9, 0.1], [0.2, 0.8]], labels=[1, 1])
        assert true_accuracy(data).value == 0.5

    def test_missing_labels(self):
        data = PredictionSet([[0.6, 0.4]], labels=[])
        with pytest.raises(MissingLabelsError):
            true_accuracy(data)

    def test_pure_function_of_input(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 3, 40)
        a = true_accuracy(PredictionSet(probs, labels))
        b = true_accuracy(PredictionSet(probs, labels))
        assert a == b
        assert 0.0 <= a.value <= 1.0


class TestResampleIndices:
    """Index vectors are drawn a row block of the (n_sets, n) index matrix at a time."""

    @pytest.mark.parametrize("n_sets", [0, 1, 10, 33, 100])
    @pytest.mark.parametrize("n", [1, 2, 7, 1999, 2000, 50_000])
    def test_blocks_equal_one_draw_per_vector(self, n, n_sets):
        seed = [n, n_sets]
        rows = [r.stop - r.start for r in _row_blocks(n_sets, n)]
        assert [len(block) for block in _resample_blocks(n, seed, n_sets)] == rows
        rng = np.random.default_rng(seed)
        drawn = 0
        for block in _resample_blocks(n, seed, n_sets):
            for idx in block:
                assert np.array_equal(idx, rng.integers(0, n, size=n))
                drawn += 1
        assert drawn == n_sets

    def test_consuming_holds_a_few_blocks(self):
        n = 50_000
        tracemalloc.start()
        try:
            for _ in _resample_blocks(n, 3, 1000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block is one 400 kB row here; the whole (1000, n) matrix would be 400 MB
        assert peak < 4 * 8 * max(_BLOCK_CELLS, n)


#: Seeds at numpy's integer widths, and the kinds derive_seed gives runs and synthetic dimensions.
EDGE_SEEDS = [0, 2**32 - 1, 2**63, 2**64 - 1, 2**64 + 5]
DERIVED_SEEDS = [derive_seed(master, k, run) for master in (0, -1) for k in (2, 3) for run in range(3)] + [
    derive_seed("gen", master, k) for master in (0, 7) for k in (2, 3, 6)
]


class TestSeedRule:
    """Every stream comes from ``_rng(seed)``, or ``_rng(_sub_seed(seed, j))`` for sub-stream j."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS + DERIVED_SEEDS)
    def test_streams_draw_as_default_rng(self, seed):
        expected = np.random.default_rng(seed).integers(0, 2**62, size=8)
        assert np.array_equal(_rng(seed).integers(0, 2**62, size=8), expected)
        for j in (0, 1, 2):
            expected = np.random.default_rng([seed, j]).integers(0, 2**62, size=8)
            assert np.array_equal(_rng(_sub_seed(seed, j)).integers(0, 2**62, size=8), expected)

    def test_sub_streams_differ_but_zero_is_the_seed_itself(self):
        # SeedSequence ignores trailing zero words, so [5, 0] seeds what 5 seeds: no
        # caller may draw from both a seed and its sub-stream 0 (README's stream table)
        def draws(seed):
            return tuple(_rng(seed).integers(0, 2**62, size=4).tolist())

        assert len({draws(seed) for seed in (5, _sub_seed(5, 1), _sub_seed(5, 2))}) == 3
        assert draws(_sub_seed(5, 0)) == draws(5)

    def test_none_draws_fresh_entropy(self):
        assert not np.array_equal(_rng(None).random(4), _rng(None).random(4))

    def test_numpy_seed_objects_pass(self):
        assert np.array_equal(
            sample_simplex(3, 2, np.random.default_rng(4)), np.random.default_rng(4).dirichlet(np.ones(3), size=2)
        )
        (idx,) = next(_resample_blocks(5, np.random.SeedSequence(4), 1))
        assert np.array_equal(idx, np.random.default_rng(4).integers(0, 5, size=5))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: bootstrap_resample(PredictionSet([[0.9, 0.1]], labels=[0]), seed),
            lambda seed: sample_simplex(3, 5, seed),
            lambda seed: _sub_seed(seed, 1),
            lambda seed: _rng(seed),
        ],
        ids=["bootstrap_resample", "sample_simplex", "sub_seed", "rng"],
    )
    def test_negative_seed_is_invalid_argument(self, draw):
        # not numpy's bare ValueError "expected non-negative integer"
        with pytest.raises(InvalidArgumentError, match=r"^seed must not be negative, got -1$"):
            draw(-1)


class TestMetricValue:
    def test_conversion_semantics(self):
        m = MetricValue(0.3, Convention.ERROR)
        assert m.accuracy == 0.7
        assert m.converted(Convention.ACCURACY).value == 0.7
        assert m.converted(Convention.ERROR) is m  # no-op stays identical

    def test_accuracy_plus_error_is_one(self):
        m = MetricValue(0.42, Convention.ACCURACY)
        assert m.accuracy + m.error == 1.0

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            MetricValue(1.2, Convention.ACCURACY)
        with pytest.raises(ValueError):
            MetricValue(-0.1, Convention.ERROR)
