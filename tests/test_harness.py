"""Bootstrap harness: error tables, aggregation, ranking, pairwise report."""

import contextlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atckit.harness
import atckit.scores
from atckit import (
    SCORE_IDS,
    AggregateRow,
    AtckitError,
    BenchmarkConfig,
    EmptyInputError,
    GeneratorSpec,
    InvalidArgumentError,
    MetricValue,
    PredictionSet,
    ScoreFunction,
    Shift,
    aggregate,
    bootstrap_resample,
    load_dump,
    make_shift_pair,
    pairwise_difference_report,
    rank_methods,
    run_benchmark,
    run_benchmark_suite,
    score_batch,
    write_dump,
)
from atckit.cli import main
from atckit.harness import CANONICAL_METHODS, bootstrap_estimates, derive_seed, score_once, summarize

from oracles import naive_mean, quantile_sorted_index
from per_set_reference import estimate_metric


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

    def test_rejects_no_methods(self):
        with pytest.raises(InvalidArgumentError, match="^need at least one method$"):
            BenchmarkConfig(methods=())

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(n_boot=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(ci_level=1.0)

    def test_record_bounds_enforced(self):
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
        (errors,) = run_benchmark(data, data, config).values()
        assert len(errors) == 1
        assert errors[0] <= 1.0 / (2 * len(data))

    def test_table_grid_shape_and_order(self):
        source, target = _small_pair()
        config = BenchmarkConfig(methods=("doc", "max", "l2n"), n_boot=5, master_seed=1)
        table = run_benchmark(source, target, config)
        assert list(table) == [(3, "max"), (3, "l2n"), (3, "doc")]
        assert all(errors.dtype == np.float64 and errors.shape == (5,) for errors in table.values())

    def test_negative_master_seed_hashed(self):
        # runs derive their seeds with derive_seed, which hashes any integer
        source, target = _small_pair(n=60)
        config = BenchmarkConfig(methods=("max", "doc-reg"), n_boot=3, master_seed=-1)
        table = run_benchmark(source, target, config)
        assert [errors.shape for errors in table.values()] == [(3,), (3,)]

    def test_negative_point_seed_named_for_doc_reg(self):
        source, target = _small_pair(n=60)
        with pytest.raises(InvalidArgumentError, match=r"^seed must not be negative, got -5$"):
            score_once(source, target, ("doc-reg",))(slice(None), -5)

    def test_binary_collapse_run_by_run(self):
        source, target = _small_pair(k=2, n=150, seed=4)
        config = BenchmarkConfig(methods=BenchmarkConfig().methods[:6], n_boot=20, master_seed=2)
        errors = np.stack(list(run_benchmark(source, target, config).values()))
        assert errors.shape == (6, 20)
        assert np.all(errors == errors[0])

    def test_quadratic_methods_tie_run_by_run(self):
        source, target = _small_pair(k=5, n=150, seed=6)
        config = BenchmarkConfig(methods=("l2n", "l2u"), n_boot=25, master_seed=9)
        table = run_benchmark(source, target, config)
        assert np.array_equal(table[(5, "l2n")], table[(5, "l2u")])

    def test_bit_identical_repetition(self):
        source, target = _small_pair(seed=8)
        config = BenchmarkConfig(methods=("max", "doc", "doc-reg"), n_boot=10, master_seed=5)
        first, second = (run_benchmark(source, target, config) for _ in range(2))
        assert list(first) == list(second)
        assert all(first[key].tobytes() == second[key].tobytes() for key in first)

    def test_errors_recomputable_from_stored_seed(self):
        from atckit import ScoreFunction, atc_estimate, true_accuracy

        source, target = _small_pair(seed=10)
        config = BenchmarkConfig(methods=("negent",), n_boot=3, master_seed=11)
        (errors,) = run_benchmark(source, target, config).values()
        truth = true_accuracy(target).accuracy
        assert len(errors) == 3
        for run, error in enumerate(errors):
            resample = bootstrap_resample(source, derive_seed(11, 3, run))
            est = atc_estimate(resample, target, ScoreFunction.NEG_ENTROPY).accuracy
            assert error == abs(truth - est)

    def test_run_count_zero_gives_no_runs_and_negative_is_rejected(self):
        source, target = _small_pair(seed=13)
        estimate = score_once(source, target, ("max", "doc"))
        assert bootstrap_estimates(estimate, source, 0, 0) == {}
        with pytest.raises(InvalidArgumentError):
            bootstrap_estimates(estimate, source, -1, 0)

    def test_suite_rejects_duplicate_dimensions(self):
        pair = _small_pair(seed=12)
        config = BenchmarkConfig(methods=("max",), n_boot=1)
        with pytest.raises(ValueError):
            run_benchmark_suite([pair, pair], config)

    def test_suite_holds_one_generated_pair_at_a_time(self):
        # the suite summarizes each pair as it comes: its peak is that of making the
        # largest pair, not of holding every pair's matrices (the k=200 pair's are 9.6 MB)
        config = BenchmarkConfig(CANONICAL_METHODS, n_boot=2, master_seed=5)
        specs = [GeneratorSpec(k=k, n=3000, target_accuracy=0.8, shift=Shift(temperature=1.5), seed=k)
                 for k in (200, 300)]
        tracemalloc.start()
        try:
            make_shift_pair(specs[-1])
            _, largest_pair = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            table = run_benchmark_suite((make_shift_pair(spec) for spec in specs), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest_pair + 2 * 2**20
        kernels = atckit.harness._kernels(config.methods)
        summaries = [
            tuple(atckit.harness._summarize(data, kernels) for data in make_shift_pair(spec)) for spec in specs
        ]
        expected = run_benchmark_suite(summaries, config)
        assert list(table) == list(expected)
        for key, errors in expected.items():
            assert table[key].tobytes() == errors.tobytes(), key


def _engine_runs(source, target, methods, n_boot, master_seed, calibration_sets=10):
    """The score-once path: score both sets, then run the bootstrap loop over them."""
    estimate = score_once(source, target, methods, calibration_sets)
    return bootstrap_estimates(estimate, source, n_boot, master_seed)


def _per_run_reference(source, target, methods, n_boot, master_seed, calibration_sets=10):
    """The per-run path: build each resample, then estimate every method on it."""
    estimates = {method: [] for method in methods}
    for run in range(n_boot):
        seed = derive_seed(master_seed, source.k, run)
        resample = bootstrap_resample(source, seed)
        for method, values in estimates.items():
            values.append(estimate_metric(method, resample, target, seed, calibration_sets))
    return estimates


def _outcome(estimator, *args):
    """Bit patterns of every estimate, or the type and message of the error raised."""
    try:
        runs = estimator(*args)
    except AtckitError as exc:
        return type(exc), str(exc)
    return {m: [(v.value.hex(), v.convention) for v in values] for m, values in runs.items()}


def _engine_points(source, target, methods, seed):
    return {m: [value] for m, value in score_once(source, target, methods)(slice(None), seed).items()}


def _reference_points(source, target, methods, seed):
    return {m: [estimate_metric(m, source, target, seed)] for m in methods}


def _cli(*argv):
    """Exit code, stdout and stderr of one ``atckit`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _printed(outcome):
    """What ``atckit estimate`` prints for an :func:`_outcome` of point estimates."""
    if isinstance(outcome, tuple):
        return 2, "", f"error: {outcome[1]}\n"
    lines = []
    for method, ((value, convention),) in outcome.items():
        accuracy = MetricValue(float.fromhex(value), convention).accuracy
        label = f"atc-{method}" if method in SCORE_IDS else method
        lines.append(f"{label:<10} {100.0 * accuracy:.2f}\n")
    return 0, "".join(lines), ""


@st.composite
def _tied_pair(draw, source_sizes=st.integers(1, 12)):
    """Sets of at most 12 rows drawn from a pool of vertices, the uniform row and 3 others."""
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.vstack([np.eye(k), np.full(k, 1.0 / k), rng.dirichlet(np.ones(k), 3)])

    def rows(n):
        return pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]

    n = draw(source_sizes)
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return PredictionSet(rows(n), labels), PredictionSet(rows(draw(st.integers(1, 12))))


class TestScoreOnceEngine:
    @given(_tied_pair(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_run_reference(self, pair, master_seed):
        # one method per call, so a doc-reg error does not hide the other methods
        source, target = pair
        for method in CANONICAL_METHODS:
            args = (source, target, (method,), 3, master_seed)
            assert _outcome(_engine_runs, *args) == _outcome(_per_run_reference, *args)

    @given(_tied_pair(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_atc_methods_in_one_call_equal_the_per_run_reference(self, pair, master_seed):
        # kernels that order the tied rows alike share their runs here
        args = (*pair, SCORE_IDS, 3, master_seed)
        assert _outcome(_engine_runs, *args) == _outcome(_per_run_reference, *args)

    def test_binary_kernels_share_one_run(self, monkeypatch):
        # at k = 2 every kernel orders the rows alike: one candidate search per run, not six
        calls = []
        original = atckit.harness._pick

        def counting(candidates, ranks, below, idx, gamma):
            calls.append(gamma)
            return original(candidates, ranks, below, idx, gamma)

        monkeypatch.setattr(atckit.harness, "_pick", counting)
        source, target = _small_pair(k=2, n=300, seed=16)
        args = (source, target, SCORE_IDS, 20, 5)
        outcome = _outcome(_engine_runs, *args)
        assert len(calls) == 20
        assert all(outcome[m] == outcome["max"] for m in SCORE_IDS)
        assert outcome == _outcome(_per_run_reference, *args)

    def test_sentinel_in_a_resample_that_misses_the_top_source_score(self):
        # every source row is wrong, so a run whose resample holds only the lower
        # score picks the sentinel: all of the target, even the row above 0.9
        source = PredictionSet([[0.6, 0.4], [0.9, 0.1]], [1, 1])
        target = PredictionSet([[0.95, 0.05], [0.5, 0.5]])
        args = (source, target, ("max",), 20, 3)
        outcome = _outcome(_engine_runs, *args)
        assert outcome == _outcome(_per_run_reference, *args)
        runs = _engine_runs(*args)["max"]
        assert all(value.error == 1.0 for value in runs)

    def test_kernels_ordering_only_the_source_alike_do_not_share(self):
        # at k = 3, max and l1u order rows whose middle component is below 1/3 alike;
        # some target rows are not such rows, so the two split the target differently
        source = PredictionSet(
            [[0.5, 0.3, 0.2], [0.25, 0.6, 0.15], [0.1, 0.1, 0.8],
             [0.4, 0.32, 0.28], [0.3, 0.2, 0.5], [0.7, 0.2, 0.1]],
            [0, 0, 2, 1, 2, 1],
        )
        target = PredictionSet([[0.45, 0.45, 0.1], [0.5, 0.3, 0.2], [0.35, 0.35, 0.3], [0.1, 0.42, 0.48]])
        ranks = [np.unique(score_batch(source, ScoreFunction(m)), return_inverse=True)[1] for m in ("max", "l1u")]
        assert np.array_equal(*ranks)
        args = (source, target, ("max", "l1u"), 40, 2)
        outcome = _outcome(_engine_runs, *args)
        assert outcome["max"] != outcome["l1u"]
        assert outcome == _outcome(_per_run_reference, *args)

    @pytest.mark.parametrize("order", [CANONICAL_METHODS, CANONICAL_METHODS[::-1]], ids=["fwd", "rev"])
    @pytest.mark.parametrize(
        "fault", ["unlabeled", "target-k", "calibration--1", "calibration-1", "unknown-method"]
    )
    def test_input_errors_raised_as_the_reference_raises(self, fault, order):
        source, target = _small_pair(n=40, seed=14)
        calibration_sets = 10
        if fault == "unlabeled":
            source = PredictionSet(source.probs)
        elif fault == "target-k":
            target = _small_pair(k=4, n=40, seed=14)[1]
        elif fault.startswith("calibration"):
            calibration_sets = int(fault.split("-", 1)[1])
        else:
            order = order[:3] + ("mystery",) + order[3:]
        args = (source, target, order, 2, 0, calibration_sets)
        expected = _outcome(_per_run_reference, *args)
        assert isinstance(expected, tuple)
        assert _outcome(_engine_runs, *args) == expected

    @staticmethod
    def _count_scoring(monkeypatch) -> list:
        calls = []
        original = atckit.scores.score_batch

        def counting(data, fn):
            calls.append(fn)
            return original(data, fn)

        for name, module in list(sys.modules.items()):
            if name.startswith("atckit") and getattr(module, "score_batch", None) is original:
                monkeypatch.setattr(module, "score_batch", counting)
        return calls

    @given(_tied_pair(), st.integers(-3, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_point_estimates_equal_the_per_set_reference(self, pair, seed):
        # the engine at idx = slice(None) bit for bit, and what `estimate` prints
        with tempfile.TemporaryDirectory() as tmp:
            src, tgt = Path(tmp) / "source.json", Path(tmp) / "target.json"
            write_dump(pair[0], src)
            write_dump(pair[1], tgt)
            source, target = load_dump(src), load_dump(tgt)
            for flags, methods in (([], SCORE_IDS), (["--method", "doc"], ("doc",)),
                                   (["--method", "doc-reg"], ("doc-reg",))):
                args = (source, target, methods, seed)
                expected = _outcome(_reference_points, *args)
                assert _outcome(_engine_points, *args) == expected
                argv = ["estimate", "--source", str(src), "--target", str(tgt), "--seed", str(seed)]
                # the library hashes a negative seed; the CLI rejects it before reading a dump
                rejected = (2, "", f"error: --seed must not be negative, got {seed}\n")
                assert _cli(*argv, *flags) == (rejected if seed < 0 else _printed(expected))

    @pytest.mark.parametrize("methods", [CANONICAL_METHODS, ("doc", "max"), ("doc-reg", "l2n")])
    def test_scores_each_set_once_per_score_function(self, monkeypatch, methods):
        source, target = _small_pair(n=100, seed=15)
        calls = self._count_scoring(monkeypatch)
        estimate = score_once(source, target, methods)
        kernels = {m if m in SCORE_IDS else "max" for m in methods}
        assert len(calls) == 2 * len(kernels)
        for n_boot in (0, 5, 50):
            calls.clear()
            bootstrap_estimates(estimate, source, n_boot, 0)
            assert calls == [], n_boot  # the runs only index the scores

    @pytest.mark.parametrize("flags, calls", [(["--score", "all"], 12), (["--method", "doc-reg"], 2)])
    def test_cli_scores_each_set_once_per_score_function(self, monkeypatch, tmp_path, flags, calls):
        # point estimates and bootstrap runs share one scoring of each set
        source, target = _small_pair(n=100, seed=15)
        src, tgt = tmp_path / "source.csv", tmp_path / "target.csv"
        write_dump(source, src)
        write_dump(target, tgt)
        scored = self._count_scoring(monkeypatch)
        for n_boot in (0, 5, 50):
            scored.clear()
            argv = ["estimate", "--source", str(src), "--target", str(tgt), *flags, "--boot", str(n_boot)]
            assert _cli(*argv)[0] == 0
            assert len(scored) == calls, n_boot


    @pytest.mark.parametrize("seed", [3, 21])
    def test_summaries_score_as_the_sets(self, monkeypatch, seed):
        # summaries pass through score_once unscored, and every estimate is the sets' bit for bit
        from atckit.harness import _kernels, _summarize

        source, target = _small_pair(n=120, seed=seed)
        summaries = [_summarize(data, _kernels(CANONICAL_METHODS)) for data in (source, target)]
        from_sets = score_once(source, target, CANONICAL_METHODS)
        scored = self._count_scoring(monkeypatch)
        from_summaries = score_once(*summaries, CANONICAL_METHODS)
        assert scored == []
        (resample,) = next(atckit.harness._resample_blocks(len(source), seed, 1))
        for idx in (slice(None), resample):
            expected = {m: (v.value.hex(), v.convention) for m, v in from_sets(idx, seed).items()}
            assert list(expected) == list(CANONICAL_METHODS)
            assert {m: (v.value.hex(), v.convention) for m, v in from_summaries(idx, seed).items()} == expected
        config = BenchmarkConfig(methods=CANONICAL_METHODS, n_boot=5, master_seed=seed)
        by_sets, by_summaries = run_benchmark(source, target, config), run_benchmark(*summaries, config)
        assert list(by_sets) == list(by_summaries)
        assert all(by_sets[key].tobytes() == by_summaries[key].tobytes() for key in by_sets)


class TestAggregate:
    def test_degenerate_distribution(self):
        (row,) = aggregate({(3, "max"): np.full(10, 0.25)})
        assert (row.mean_abs_error, row.ci_low, row.ci_high) == (0.25, 0.25, 0.25)

    def test_fifty_fifty_mean(self):
        (row,) = aggregate({(3, "max"): np.arange(100) % 2.0})
        assert row.mean_abs_error == 0.5

    def test_matches_independent_oracles(self):
        rng = np.random.default_rng(17)
        values = rng.random(1000)
        (row,) = aggregate({(4, "js"): values}, ci_level=0.95)
        assert row.mean_abs_error == pytest.approx(naive_mean(values), abs=1e-12)
        assert row.ci_low == pytest.approx(quantile_sorted_index(values, 0.025), abs=1e-12)
        assert row.ci_high == pytest.approx(quantile_sorted_index(values, 0.975), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate({})

    def test_entry_without_runs_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate({(3, "max"): np.zeros(2), (3, "doc"): np.array([])})

    def test_rows_follow_table_order(self):
        table = {(3, "max"): np.zeros(2), (3, "doc"): np.ones(2), (5, "max"): np.full(2, 0.5)}
        rows = aggregate(table)
        assert [(r.dimension, r.method, r.mean_abs_error) for r in rows] == [
            (3, "max", 0.0), (3, "doc", 1.0), (5, "max", 0.5)
        ]


# finite, no -0.0 (it sorts level with 0.0, so numpy's partition may order the two otherwise)
_FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda x: x + 0.0)
_CI_LEVELS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1e-12, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-12, 1.0]),  # ends, integer and half positions
)


class TestSummarize:
    @given(
        values=st.lists(st.one_of(_FLOATS, st.sampled_from([0.0, 0.1, 0.25, 0.7, 3.0])), min_size=1, max_size=200),
        ci_level=_CI_LEVELS,
    )
    @settings(max_examples=400, deadline=None)
    def test_endpoints_are_numpys_linear_quantiles_bit_for_bit(self, values, ci_level):
        alpha = (1.0 - ci_level) / 2.0
        mean, lo, hi = summarize(values, ci_level)
        assert np.array([lo, hi]).tobytes() == np.quantile(values, [alpha, 1.0 - alpha]).tobytes()
        assert mean == float(np.mean(values))

    def test_half_way_takes_the_upper_form(self):
        # t = 0.5 exactly: b - d(1 - t) is 0.39999999999999997, a + d t would be 0.4
        assert summarize([0.7, 0.1], ci_level=0.0) == (0.39999999999999997, 0.39999999999999997, 0.39999999999999997)

    @given(values=st.lists(_FLOATS, min_size=0, max_size=20), at=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_nan_in_gives_nan_out(self, values, at):
        values.insert(min(at, len(values)), float("nan"))
        assert all(np.isnan(summarize(values)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    @pytest.mark.parametrize("ci_level", [-0.1, 1.5, float("nan")])
    def test_ci_level_outside_the_unit_interval_rejected(self, ci_level):
        with pytest.raises(InvalidArgumentError):
            summarize([0.1, 0.2], ci_level)


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
        errors = np.random.default_rng(3).random(50)
        (diff,) = pairwise_difference_report({(5, "l2n"): errors, (5, "l2u"): errors.copy()})
        assert (diff.mean_diff, diff.ci_low, diff.ci_high) == (0.0, 0.0, 0.0)
        assert not diff.significant

    def test_known_offset_recovered(self):
        base = np.random.default_rng(4).random(200) * 0.5
        offset = 0.125
        (diff,) = pairwise_difference_report({(3, "max"): base, (3, "doc"): base + offset})
        assert diff.method_a == "max" and diff.method_b == "doc"
        assert diff.mean_diff == pytest.approx(-offset, abs=1e-12)
        assert diff.significant

    def test_needs_two_methods(self):
        with pytest.raises(ValueError):
            pairwise_difference_report({(3, "max"): np.full(5, 0.1)})
