"""Bootstrap harness: records, aggregation, ranking, pairwise report."""

import numpy as np
import pytest

from atckit import (
    AggregateRow,
    BenchmarkConfig,
    EmptyInputError,
    GeneratorSpec,
    PredictionSet,
    RunRecord,
    Shift,
    aggregate,
    bootstrap_resample,
    make_shift_pair,
    pairwise_difference_report,
    rank_methods,
    run_benchmark,
    run_benchmark_suite,
)
from atckit.harness import derive_seed

from oracles import naive_mean, quantile_sorted_index


def _small_pair(k=3, n=200, seed=0, temperature=1.3):
    spec = GeneratorSpec(
        k=k, n=n, target_accuracy=0.8, concentration=5.0,
        shift=Shift(temperature=temperature), seed=seed,
    )
    return make_shift_pair(spec)


class TestConfig:
    def test_methods_normalized_to_canonical_order(self):
        config = BenchmarkConfig(methods=("doc", "max", "max", "l2u"))
        assert config.methods == ("max", "l2u", "doc")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(methods=("max", "mystery"))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(n_boot=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(ci_level=1.0)

    def test_record_bounds_enforced(self):
        with pytest.raises(ValueError):
            RunRecord(3, "max", 0, 1.5)
        with pytest.raises(ValueError):
            AggregateRow(3, "max", 0.5, 0.9, 0.1)


class TestResample:
    def test_singleton_can_only_repeat_itself(self):
        data = PredictionSet([[0.9, 0.1]], labels=[0])
        resample = bootstrap_resample(data, seed=123)
        assert np.array_equal(resample.probs, data.probs)
        assert np.array_equal(resample.labels, data.labels)

    def test_fixed_seed_repeats(self):
        source, _ = _small_pair()
        a = bootstrap_resample(source, seed=5)
        b = bootstrap_resample(source, seed=5)
        assert np.array_equal(a.probs, b.probs)

    def test_preserves_cardinality(self):
        source, _ = _small_pair()
        assert len(bootstrap_resample(source, seed=1)) == len(source)

    def test_empty_rejected(self):
        data = PredictionSet([[0.9, 0.1]])
        with pytest.raises(EmptyInputError):
            bootstrap_resample(data, seed=0).subset([])


class TestRunSeeds:
    def test_stable_and_distinct(self):
        assert derive_seed(0, 2, 0) == derive_seed(0, 2, 0)
        seeds = {derive_seed(0, d, r) for d in (2, 3) for r in range(100)}
        assert len(seeds) == 200

    def test_known_value_pinned(self):
        # frozen so serialized benchmark outputs stay reproducible across releases
        assert derive_seed(0, 2, 0) == 7590801510726265549


class TestRunBenchmark:
    def test_singleton_self_consistency(self):
        # the only possible resample of a singleton is itself, so the
        # estimate must match the source metric up to grid quantization
        data = PredictionSet([[0.9, 0.1]], labels=[0])
        config = BenchmarkConfig(methods=("max",), n_boot=1, master_seed=3)
        records = run_benchmark(data, data, config)
        assert len(records) == 1
        assert records[0].abs_error <= 1.0 / (2 * len(data))

    def test_record_grid_shape_and_order(self):
        source, target = _small_pair()
        config = BenchmarkConfig(methods=("doc", "max", "l2n"), n_boot=5, master_seed=1)
        records = run_benchmark(source, target, config)
        assert len(records) == 15
        keys = [(r.method, r.run_index) for r in records]
        assert keys == [(m, r) for m in ("max", "l2n", "doc") for r in range(5)]
        assert all(r.dimension == 3 for r in records)

    def test_binary_collapse_record_by_record(self):
        source, target = _small_pair(k=2, n=150, seed=4)
        config = BenchmarkConfig(methods=BenchmarkConfig().methods[:6], n_boot=20, master_seed=2)
        records = run_benchmark(source, target, config)
        by_run = {}
        for r in records:
            by_run.setdefault(r.run_index, set()).add(r.abs_error)
        assert all(len(errors) == 1 for errors in by_run.values())

    def test_quadratic_methods_tie_record_by_record(self):
        source, target = _small_pair(k=5, n=150, seed=6)
        config = BenchmarkConfig(methods=("l2n", "l2u"), n_boot=25, master_seed=9)
        records = run_benchmark(source, target, config)
        l2n = [r.abs_error for r in records if r.method == "l2n"]
        l2u = [r.abs_error for r in records if r.method == "l2u"]
        assert l2n == l2u

    def test_bit_identical_repetition(self):
        source, target = _small_pair(seed=8)
        config = BenchmarkConfig(methods=("max", "doc", "doc-reg"), n_boot=10, master_seed=5)
        assert run_benchmark(source, target, config) == run_benchmark(source, target, config)

    def test_errors_recomputable_from_stored_seed(self):
        from atckit import ScoreFunction, atc_estimate, true_accuracy

        source, target = _small_pair(seed=10)
        config = BenchmarkConfig(methods=("negent",), n_boot=3, master_seed=11)
        records = run_benchmark(source, target, config)
        truth = true_accuracy(target).accuracy
        for record in records:
            resample = bootstrap_resample(source, derive_seed(11, 3, record.run_index))
            est = atc_estimate(resample, target, ScoreFunction.NEG_ENTROPY).accuracy
            assert record.abs_error == abs(truth - est)

    def test_suite_rejects_duplicate_dimensions(self):
        pair = _small_pair(seed=12)
        config = BenchmarkConfig(methods=("max",), n_boot=1)
        with pytest.raises(ValueError):
            run_benchmark_suite([pair, pair], config)


class TestAggregate:
    def test_degenerate_distribution(self):
        records = [RunRecord(3, "max", i, 0.25) for i in range(10)]
        (row,) = aggregate(records)
        assert (row.mean_abs_error, row.ci_low, row.ci_high) == (0.25, 0.25, 0.25)

    def test_fifty_fifty_mean(self):
        records = [RunRecord(3, "max", i, float(i % 2)) for i in range(100)]
        (row,) = aggregate(records)
        assert row.mean_abs_error == 0.5

    def test_matches_independent_oracles(self):
        rng = np.random.default_rng(17)
        values = rng.random(1000)
        records = [RunRecord(4, "js", i, float(v)) for i, v in enumerate(values)]
        (row,) = aggregate(records, ci_level=0.95)
        assert row.mean_abs_error == pytest.approx(naive_mean(values), abs=1e-12)
        assert row.ci_low == pytest.approx(quantile_sorted_index(values, 0.025), abs=1e-12)
        assert row.ci_high == pytest.approx(quantile_sorted_index(values, 0.975), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate([])


class TestRanking:
    def test_unique_minimum_single_winner(self):
        rows = [
            AggregateRow(3, "max", 0.10, 0.0, 0.2),
            AggregateRow(3, "js", 0.20, 0.1, 0.3),
        ]
        assert rank_methods(rows) == {"max": 1, "js": 0}

    def test_ties_award_everyone(self):
        rows = [
            AggregateRow(3, "l2n", 0.1, 0.0, 0.2),
            AggregateRow(3, "l2u", 0.1 + 1e-14, 0.0, 0.2),  # rounds to the same value
            AggregateRow(3, "doc", 0.3, 0.2, 0.4),
            AggregateRow(4, "l2n", 0.2, 0.1, 0.3),
            AggregateRow(4, "l2u", 0.25, 0.1, 0.3),
            AggregateRow(4, "doc", 0.5, 0.4, 0.6),
        ]
        wins = rank_methods(rows)
        assert wins == {"l2n": 2, "l2u": 1, "doc": 0}
        assert sum(wins.values()) == 3  # exceeds the 2 dimensions because of the tie

    def test_exclude_binary_leaves_nothing(self):
        rows = [AggregateRow(2, "max", 0.1, 0.0, 0.2), AggregateRow(2, "js", 0.2, 0.1, 0.3)]
        assert rank_methods(rows, exclude_binary=True) == {}


class TestPairwiseReport:
    def test_identical_methods_have_zero_interval(self):
        records = []
        rng = np.random.default_rng(3)
        errors = rng.random(50)
        for i, e in enumerate(errors):
            records.append(RunRecord(5, "l2n", i, float(e)))
            records.append(RunRecord(5, "l2u", i, float(e)))
        (diff,) = pairwise_difference_report(records)
        assert (diff.mean_diff, diff.ci_low, diff.ci_high) == (0.0, 0.0, 0.0)
        assert not diff.significant

    def test_known_offset_recovered(self):
        records = []
        rng = np.random.default_rng(4)
        base = rng.random(200) * 0.5
        offset = 0.125
        for i, e in enumerate(base):
            records.append(RunRecord(3, "max", i, float(e)))
            records.append(RunRecord(3, "doc", i, float(e + offset)))
        (diff,) = pairwise_difference_report(records)
        assert diff.method_a == "max" and diff.method_b == "doc"
        assert diff.mean_diff == pytest.approx(-offset, abs=1e-12)
        assert diff.significant

    def test_needs_two_methods(self):
        records = [RunRecord(3, "max", i, 0.1) for i in range(5)]
        with pytest.raises(ValueError):
            pairwise_difference_report(records)
