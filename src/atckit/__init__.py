"""atckit: classifier accuracy estimation on unlabeled data.

Learns a confidence-score threshold on labeled source predictions and
reads the target metric off the below-threshold fraction of unlabeled
target predictions, with pluggable score functions, order-equivalence
verification, a difference-of-confidence baseline, and a bootstrap
benchmark harness.
"""

from .atc import AtcEstimate, ThresholdModel, atc_estimate, estimate_target, learn_threshold
from .doc import bootstrap_calibration, doc_estimate
from .errors import (
    AtckitError,
    DegenerateDesignError,
    DimensionError,
    EmptyInputError,
    InsufficientCalibrationError,
    InvalidArgumentError,
    MissingLabelsError,
    NotOnSimplexError,
    ParseError,
)
from .harness import (
    AggregateRow,
    BenchmarkConfig,
    PairwiseDifference,
    aggregate,
    bootstrap_resample,
    pairwise_difference_report,
    rank_methods,
    run_benchmark,
    run_benchmark_suite,
    write_aggregate_csv,
    write_runs_csv,
)
from .io import load_dump, write_dump
from .ordering import (
    EquivalenceReport,
    OrderingVerdict,
    OrderingWitness,
    check_pair,
    search_counterexample,
    simplex_grid,
    squared_distance_to,
    verify_equivalence_relation,
    verify_on_points,
)
from .scores import (
    SCORE_IDS,
    MonotoneTransform,
    ScoreFunction,
    score,
    score_batch,
)
from .simplex import (
    Convention,
    MetricValue,
    PredictionSet,
    true_accuracy,
    validate_matrix,
)
from .synth import GeneratorSpec, Shift, apply_temperature, generate, make_shift_pair

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "AtcEstimate",
    "AtckitError",
    "BenchmarkConfig",
    "Convention",
    "DegenerateDesignError",
    "DimensionError",
    "EmptyInputError",
    "EquivalenceReport",
    "GeneratorSpec",
    "InsufficientCalibrationError",
    "InvalidArgumentError",
    "MetricValue",
    "MissingLabelsError",
    "MonotoneTransform",
    "NotOnSimplexError",
    "OrderingVerdict",
    "OrderingWitness",
    "PairwiseDifference",
    "ParseError",
    "PredictionSet",
    "SCORE_IDS",
    "ScoreFunction",
    "Shift",
    "ThresholdModel",
    "aggregate",
    "apply_temperature",
    "atc_estimate",
    "bootstrap_calibration",
    "bootstrap_resample",
    "check_pair",
    "doc_estimate",
    "estimate_target",
    "generate",
    "learn_threshold",
    "load_dump",
    "make_shift_pair",
    "pairwise_difference_report",
    "rank_methods",
    "run_benchmark",
    "run_benchmark_suite",
    "score",
    "score_batch",
    "search_counterexample",
    "simplex_grid",
    "squared_distance_to",
    "true_accuracy",
    "validate_matrix",
    "verify_equivalence_relation",
    "verify_on_points",
    "write_aggregate_csv",
    "write_dump",
    "write_runs_csv",
]
