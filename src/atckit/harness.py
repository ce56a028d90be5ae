"""Bootstrap benchmark: repeated estimation runs with error aggregation.

For each method and each run, the validation set is resampled with
replacement (per-run seed, shared across methods so that methods are
compared on identical resamples), the target metric is estimated with
the resample as source, and the absolute error against the target's
true accuracy is recorded. The result is one error table,
``{(dimension, method): float64 array of abs errors, one per run}``,
whose insertion order (dimensions ascending, then methods in
:data:`CANONICAL_METHODS` order) is the output order. Aggregation
reports the mean absolute error with a percentile confidence interval,
plus tie-aware win counts and a pairwise mean-difference report over the
run-level error distributions. The interval endpoints are numpy's
``"linear"`` quantiles bit for bit, taken from one sort without
``np.quantile`` (:func:`summarize`).

Run i's seed is ``simplex.derive_seed(master seed, dimension, i)``, a
stable hash, never drawn from a shared stream, so runs may execute in any
order or in parallel and still reproduce bit-identically; ``doc-reg``
calibrates from the run seed's sub-stream 1 (``simplex._sub_seed``).

The engine (:func:`score_once`) takes prediction sets or the per-row
summaries that the CLI's one dump reader, ``_load_summaries``, builds:
``estimate`` and ``benchmark --pair`` keep no matrix past its read.

A run never rescores or sorts. Each set is scored once per score
function, and ATC's rank step (``atc._rank``) runs once per kernel. A run
then applies only the pick step (``atc._pick``) to its resample, the
rule that ``learn_threshold`` and ``atc_estimate`` apply to a whole set.
ATC depends only on the ordering a score induces, so kernels whose ranks
and target counts are equal give the same estimate in every run and
share it: at k = 2 one computation serves all six.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .atc import _pick, _rank
from .doc import check_calibration, doc_accuracy
from .errors import DimensionError, EmptyInputError, InvalidArgumentError
from .io import load_dump
from .scores import SCORE_IDS, ScoreFunction, score_batch
from .simplex import (
    Convention,
    MetricValue,
    PredictionSet,
    _resample_blocks,
    _row_blocks,
    _sub_seed,
    check_estimation_pair,
    derive_seed,
    true_accuracy,
)

#: Every method id the harness understands, in canonical output order.
CANONICAL_METHODS = SCORE_IDS + ("doc", "doc-reg")

#: Resamples used to fit the regression baseline within each run.
DOC_REG_CALIBRATION_SETS = 10

#: Decimal places a mean error is rounded to before methods are ranked.
RANK_DECIMALS = 10

#: Source dumps smaller than this are read in turn with the target, in
#: process. A forked worker costs about 6 ms, and on a 2-CPU host it
#: broke even at 330-530 KB of CSV, depending on the class count.
_FORK_MIN_BYTES = 1 << 19


@dataclass(frozen=True)
class BenchmarkConfig:
    methods: tuple = CANONICAL_METHODS[:-1]  # six ATC variants + naive DoC
    n_boot: int = 1000
    ci_level: float = 0.95
    master_seed: int = 0

    def __post_init__(self):
        methods = tuple(dict.fromkeys(self.methods))  # dedupe, keep order
        unknown = [m for m in methods if m not in CANONICAL_METHODS]
        if unknown:
            raise InvalidArgumentError(f"unknown methods: {unknown}; choose from {CANONICAL_METHODS}")
        if not methods:
            raise InvalidArgumentError("need at least one method")
        # canonical order regardless of how the caller listed them
        methods = tuple(m for m in CANONICAL_METHODS if m in methods)
        object.__setattr__(self, "methods", methods)
        if self.n_boot < 1:
            raise InvalidArgumentError(f"n_boot must be at least 1, got {self.n_boot}")
        if not 0.0 < self.ci_level < 1.0:
            raise InvalidArgumentError(f"ci_level must lie strictly between 0 and 1, got {self.ci_level}")


@dataclass(frozen=True)
class AggregateRow:
    dimension: int
    method: str
    mean_abs_error: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not self.ci_low <= self.ci_high:
            raise ValueError("ci_low must not exceed ci_high")


@dataclass(frozen=True)
class PairwiseDifference:
    dimension: int
    method_a: str
    method_b: str
    mean_diff: float
    ci_low: float
    ci_high: float
    significant: bool  # interval excludes zero


def bootstrap_resample(data: PredictionSet, seed) -> PredictionSet:
    """Sample ``len(data)`` rows with replacement; labels travel along."""
    (idx,) = next(_resample_blocks(len(data), seed, 1))
    return data.subset(idx)


@dataclass(frozen=True)
class _Summary:
    """What the engine reads of a prediction set, by the set's names: per row
    the true label (None when unlabeled), the argmax and one score per kernel."""

    k: int
    labels: np.ndarray | None
    predicted_labels: np.ndarray
    scores: dict  # {ScoreFunction: float64 vector}

    def __len__(self) -> int:
        return self.predicted_labels.size


def _kernels(methods) -> tuple:
    """The score functions ``methods`` read, once each: an ATC method its
    own, DoC and ``doc-reg`` max-confidence."""
    return tuple(dict.fromkeys(ScoreFunction(m if m in SCORE_IDS else "max") for m in methods))


def _summarize(data, kernels) -> _Summary:
    """The summary of a set, which holds ``kernels``; a summary comes back as it is."""
    if isinstance(data, _Summary):
        return data
    return _Summary(data.k, data.labels, data.predicted_labels, {fn: score_batch(data, fn) for fn in kernels})


def _fork_pays(path) -> bool:
    """Whether to read ``path`` in a forked worker: the host can fork, this
    process may run on two CPUs or more, and the file is at least
    :data:`_FORK_MIN_BYTES` long."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and os.path.getsize(path) >= _FORK_MIN_BYTES
    except OSError:  # loading the file reports what is wrong with it
        return False


def _load_summaries(source_path, target_path, methods, renormalize: bool = True):
    """The :func:`_summarize` of ``load_dump`` of each dump for ``methods``, source first.

    When :func:`_fork_pays` for the source, a forked worker builds its
    summary while this process builds the target's, and only the summary,
    or the error the worker met, comes back through a pipe. Either way
    the results and errors are those of loading the source and then the
    target: a source error is raised before a target error, and the
    worker is reaped before this returns or raises. Two summaries whose
    class counts differ raise ``DimensionError`` naming both paths.
    """
    def summary(path):
        return _summarize(load_dump(path, renormalize), _kernels(methods))

    pid = None
    if _fork_pays(source_path):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: read the dumps in turn
            os.close(read_fd)
            os.close(write_fd)
    if pid == 0:  # the worker: send the source's summary or its error, then exit at once
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = summary(source_path)
            except Exception as exc:  # the parent raises it in its own place
                outcome = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    if pid is None:
        source, target = summary(source_path), summary(target_path)
    else:
        os.close(write_fd)
        try:
            target = summary(target_path)
        except BaseException:
            _join(pid, read_fd, source_path)  # raises a source error, which comes first
            raise
        source = _join(pid, read_fd, source_path)
    if source.k != target.k:
        raise DimensionError(f"{source_path} has k={source.k} classes but {target_path} has k={target.k}")
    return source, target


def _join(pid: int, read_fd: int, path):
    """Reap the worker of :func:`_load_summaries`; the summary it sent, or raise its error."""
    with open(read_fd, "rb") as pipe:
        payload = pipe.read()  # to the end, so the worker never blocks on a full pipe
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ChildProcessError(f"{path}: the worker reading it exited with status {status}")
    outcome = pickle.loads(payload)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def score_once(source, target, methods, calibration_sets: int = DOC_REG_CALIBRATION_SETS):
    """Score both sets once per distinct score function, then check the inputs.

    Either set may be a summary (:func:`_load_summaries`), used as it is.
    Returns ``estimate(idx, seed) -> {method: MetricValue}``: each
    method's target estimate with ``source.subset(idx)`` as the source
    (``idx = slice(None)`` is the whole set), equal bit for bit to
    ``atc_estimate`` or ``doc_estimate`` on that subset. ``doc-reg``
    draws its ``calibration_sets`` resamples of it from sub-stream 1 of
    ``seed``, as ``bootstrap_calibration`` does from the seed it is given.
    Every score works row by row, so the subset's scores are
    ``scores[idx]`` and no subset is built.
    """
    kernels = _kernels(methods)
    source, target = _summarize(source, kernels), _summarize(target, kernels)
    for method in methods:  # the errors raised before any estimate is made
        if method not in CANONICAL_METHODS:
            raise InvalidArgumentError(f"unknown method {method!r}")
        if method == "doc-reg":
            check_calibration(source, calibration_sets)
        check_estimation_pair(source, target, "ATC" if method in SCORE_IDS else "DoC")

    if "doc-reg" in methods:  # (mean confidence, accuracy) per calibration set, refilled by each run
        try:
            pairs = np.empty((calibration_sets, 2))
        except (MemoryError, ValueError):  # ValueError: more bytes than an array can address
            raise InvalidArgumentError(f"{calibration_sets} calibration sets do not fit in memory") from None
    correct = source.predicted_labels == source.labels
    reads_conf = any(m not in SCORE_IDS for m in methods)  # DoC or doc-reg
    if reads_conf:
        source_max = source.scores[ScoreFunction.MAX_CONF]
        target_conf = float(np.mean(target.scores[ScoreFunction.MAX_CONF]))

    # ATC kernels with equal ranks and equal target counts share a group
    groups: list = []  # (the kernel's _rank, methods)
    for method in (m for m in methods if m in SCORE_IDS):
        fn = ScoreFunction(method)
        ranked = _rank(source.scores[fn], target.scores[fn])
        for group in groups:  # thresholds may differ; the runs read only ranks and counts
            if all(map(np.array_equal, group[0][1:], ranked[1:])):
                group[1].append(method)
                break
        else:
            groups.append((ranked, [method]))

    def estimate(idx, seed) -> dict:
        hits = correct[idx]
        accuracy = float(np.mean(hits))
        error = 1.0 - accuracy
        atc = {}
        for ranked, members in groups:
            below = _pick(*ranked, idx, error)[2]
            atc.update(dict.fromkeys(members, MetricValue(below / len(target), Convention.ERROR)))
        if reads_conf:  # the resample's confidences, read once for both DoC methods
            conf = source_max[idx]
            source_conf = float(np.mean(conf))
        values = {}
        for method in methods:
            if method in atc:
                values[method] = atc[method]
                continue
            calibration = None
            if method == "doc-reg":
                blocks = _resample_blocks(len(source), _sub_seed(seed, 1), calibration_sets)
                for rows, j in zip(_row_blocks(calibration_sets, len(source)), blocks):
                    pairs[rows, 0] = conf[j].mean(axis=1)
                    pairs[rows, 1] = hits[j].mean(axis=1)
                calibration = pairs
            values[method] = doc_accuracy(accuracy, source_conf, target_conf, calibration)
        return values

    return estimate


def bootstrap_estimates(estimate, source, n_boot: int, master_seed) -> dict:
    """``{method: [MetricValue per run]}``: ``estimate`` on ``n_boot`` resamples of ``source``.

    ``estimate`` comes from :func:`score_once`. Run ``i`` passes it the
    seed ``derive_seed(master_seed, source.k, i)`` and the index vector
    drawn from that seed, so methods are compared on identical resamples
    and order-equivalent scores give equal per-run estimates. ``source``
    is a set or its summary: only ``source.k`` and ``len(source)`` are read.
    """
    if n_boot < 0:
        raise InvalidArgumentError(f"n_boot must not be negative, got {n_boot}")
    runs: dict = {}
    for run_index in range(n_boot):
        seed = derive_seed(master_seed, source.k, run_index)
        (idx,) = next(_resample_blocks(len(source), seed, 1))
        for method, value in estimate(idx, seed).items():
            runs.setdefault(method, []).append(value)
    return runs


def run_benchmark(source_val, test, config: BenchmarkConfig) -> dict:
    """The error table of one validation/test pair: ``{(test.k, method): errors}``.

    Both are sets or summaries, as :func:`score_once` takes them, and
    both must be labeled: the validation resample provides the
    source metric, the test labels provide the ground truth the
    estimates are scored against.
    """
    true_acc = true_accuracy(test).accuracy
    estimate = score_once(source_val, test, config.methods)
    runs = bootstrap_estimates(estimate, source_val, config.n_boot, config.master_seed)
    return {
        (test.k, method): np.array([abs(true_acc - value.accuracy) for value in values])
        for method, values in runs.items()
    }


def run_benchmark_suite(pairs, config: BenchmarkConfig) -> dict:
    """One error table over per-dimension (validation, test) pairs of sets or
    summaries, dimensions ascending. ``pairs`` is read once, in its order,
    before any run: a pair whose dimension an earlier pair has is an error
    as soon as it comes, so an iterator that reads or makes each pair on
    demand stops there. Each pair is summarized for ``config.methods`` as
    it comes (a summary is kept as it is) and its sets are dropped, so an
    iterator's pairs are held one at a time."""
    kernels = _kernels(config.methods)
    by_k = {}
    for source_val, test in pairs:
        if test.k in by_k:
            raise InvalidArgumentError(f"two pairs share dimension k={test.k}")
        by_k[test.k] = (_summarize(source_val, kernels), _summarize(test, kernels))
        del source_val, test  # the next pair is read or made without this one's matrices
    table = {}
    for k in sorted(by_k):
        table.update(run_benchmark(*by_k[k], config))
    return table


def summarize(values, ci_level: float = 0.95) -> tuple[float, float, float]:
    """``(mean, lo, hi)``: the mean and percentile interval of ``values``.

    The endpoints are the α = (1 - ci)/2 and 1 - α empirical quantiles,
    by numpy's default ``"linear"`` rule and equal to ``np.quantile(values,
    [α, 1 - α])`` bit for bit: one sort, then per quantile ``q`` the
    position ``at = (n - 1) q``, its floor ``i`` and fraction ``t``, and
    with ``d = b - a`` between the order statistics ``a = x[i]`` and
    ``b = x[i + 1]`` the value ``a + d t`` when ``t < 0.5``, else
    ``b - d (1 - t)``. At ``at = n - 1`` both ends are the last value, and
    a NaN anywhere gives NaN endpoints, as numpy has it. ``np.quantile``
    itself is not called: it imports ``numpy.ma``, about 10 ms that
    nothing else here needs.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInputError("cannot summarize zero values")
    if not 0.0 <= ci_level <= 1.0:
        raise InvalidArgumentError(f"ci_level must lie between 0 and 1, got {ci_level}")
    alpha = (1.0 - ci_level) / 2.0
    mean = float(np.mean(values))
    ordered = np.sort(values, axis=None)
    if np.isnan(ordered[-1]):  # NaNs sort last
        return mean, float(ordered[-1]), float(ordered[-1])
    return mean, _linear_quantile(ordered, alpha), _linear_quantile(ordered, 1.0 - alpha)


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """Quantile ``q`` of the sorted vector ``ordered`` by the rule :func:`summarize` states."""
    n = ordered.size
    at = (n - 1) * q
    i = math.floor(at)
    t = at - i
    a = b = float(ordered[-1])  # at = n - 1: no order statistic past the last
    if at < n - 1:
        a, b = float(ordered[i]), float(ordered[i + 1])
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def aggregate(table, ci_level: float = 0.95) -> list[AggregateRow]:
    """:func:`summarize` of each error table entry, in table order."""
    if not table:
        raise EmptyInputError("no errors to aggregate")
    return [
        AggregateRow(dim, method, *summarize(errors, ci_level)) for (dim, method), errors in table.items()
    ]


def rank_methods(rows, exclude_binary: bool = False) -> dict:
    """Tie-aware win counts: every method hitting a dimension's lowest mean wins.

    Means are rounded to :data:`RANK_DECIMALS` places before comparison
    so that float noise does not split genuine ties. With
    ``exclude_binary`` the 2-class dimension is left out of the contest
    (there all order-equivalent score functions tie by construction). Tied winners
    each score a win, so counts may sum to more than the number of
    dimensions ranked.
    """
    by_dim: dict = {}
    for row in rows:
        if exclude_binary and row.dimension == 2:
            continue
        by_dim.setdefault(row.dimension, []).append(row)
    wins: dict = {}
    for dim_rows in by_dim.values():
        for r in dim_rows:
            wins.setdefault(r.method, 0)
        rounded = [round(r.mean_abs_error, RANK_DECIMALS) for r in dim_rows]
        best = min(rounded)
        for r, m in zip(dim_rows, rounded):
            if m == best:
                wins[r.method] += 1
    return wins


def pairwise_difference_report(table, ci_level: float = 0.95) -> list[PairwiseDifference]:
    """Mean per-run error difference for each method pair, with interval.

    Differences are taken run-by-run (the runs are aligned because every
    method shares the run's resample), and the interval is the
    percentile interval of those per-run differences. Pairs whose
    interval excludes zero are flagged. Dimensions and methods follow
    table order.
    """
    methods_by_dim: dict = {}
    for dim, method in table:
        methods_by_dim.setdefault(dim, []).append(method)
    report = []
    for dim, methods in methods_by_dim.items():
        if len(methods) < 2:
            raise InvalidArgumentError(f"dimension {dim} has fewer than two methods to compare")
        for i, method_a in enumerate(methods):
            for method_b in methods[i + 1 :]:
                diffs = table[(dim, method_a)] - table[(dim, method_b)]
                mean, lo, hi = summarize(diffs, ci_level)
                report.append(
                    PairwiseDifference(
                        dimension=dim,
                        method_a=method_a,
                        method_b=method_b,
                        mean_diff=mean,
                        ci_low=lo,
                        ci_high=hi,
                        significant=bool(lo > 0.0 or hi < 0.0),
                    )
                )
    return report


def write_runs_csv(table, path) -> None:
    """One ``dimension,method,run,abs_error`` row per run, in table order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dimension", "method", "run", "abs_error"])
        for (dim, method), errors in table.items():
            for run, error in enumerate(errors):
                writer.writerow([dim, method, run, format(float(error), ".12g")])


def write_aggregate_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dimension", "method", "mean", "ci_low", "ci_high"])
        for row in rows:
            writer.writerow(
                [
                    row.dimension,
                    row.method,
                    format(row.mean_abs_error, ".12g"),
                    format(row.ci_low, ".12g"),
                    format(row.ci_high, ".12g"),
                ]
            )


def format_aggregate_table(rows) -> str:
    """Human-readable table: percent errors, two decimals, bracketed CI."""
    lines = [f"{'dim':>4}  {'method':<8}  mean [ci]"]
    for row in rows:
        lines.append(
            f"{row.dimension:>4}  {row.method:<8}  "
            f"{100 * row.mean_abs_error:.2f} "
            f"[{100 * row.ci_low:.2f},{100 * row.ci_high:.2f}]"
        )
    return "\n".join(lines)
