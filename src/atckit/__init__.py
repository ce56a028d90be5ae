"""atckit: classifier accuracy estimation on unlabeled data.

Learns a confidence-score threshold on labeled source predictions and
reads the target metric off the below-threshold fraction of unlabeled
target predictions, with pluggable score functions, order-equivalence
verification, a difference-of-confidence baseline, and a bootstrap
benchmark harness.

``import atckit`` is lazy: it imports no submodule, and so no numpy. A
public name's submodule loads on first use of the name (PEP 562), as does
a submodule reached as an attribute, such as ``atckit.io``.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "atc": "AtcEstimate ThresholdModel atc_estimate estimate_target learn_threshold",
        "doc": "bootstrap_calibration doc_estimate",
        "errors": (
            "AtckitError DegenerateDesignError DimensionError EmptyInputError"
            " InsufficientCalibrationError InvalidArgumentError MissingLabelsError"
            " NotOnSimplexError ParseError"
        ),
        "harness": (
            "AggregateRow BenchmarkConfig PairwiseDifference aggregate bootstrap_resample"
            " pairwise_difference_report rank_methods run_benchmark run_benchmark_suite"
            " write_aggregate_csv write_runs_csv"
        ),
        "io": "load_dump write_dump",
        "ordering": (
            "EquivalenceReport OrderingVerdict OrderingWitness check_pair search_counterexample"
            " simplex_grid squared_distance_to verify_equivalence_relation verify_on_points"
        ),
        "scores": "SCORE_IDS MonotoneTransform ScoreFunction score score_batch",
        "simplex": "Convention MetricValue PredictionSet true_accuracy validate_matrix",
        "synth": "GeneratorSpec Shift apply_temperature generate make_shift_pair",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_SUBMODULE_OF.values())

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
