"""Command line interface.

Subcommands:

* ``estimate``  — point (and optionally bootstrap) accuracy estimates
  for one source/target dump pair.
* ``benchmark`` — the full bootstrap experiment over one or more
  dimensions, emitting runs/aggregate CSVs and a ranking table.
* ``verify``    — order-equivalence checking of the score functions,
  with machine-readable verdicts and counterexample witnesses.
* ``generate``  — synthetic prediction dumps with known accuracy.

Exit codes: 0 success (or verification matched expectations), 1
verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import _startup  # before numpy loads: one BLAS thread, no collection while importing
from .errors import AtckitError, InvalidArgumentError, MissingLabelsError
from .harness import (
    CANONICAL_METHODS,
    DOC_REG_CALIBRATION_SETS,
    BenchmarkConfig,
    _load_summaries,
    aggregate,
    bootstrap_estimates,
    derive_seed,
    format_aggregate_table,
    pairwise_difference_report,
    rank_methods,
    run_benchmark_suite,
    score_once,
    summarize,
    write_aggregate_csv,
    write_runs_csv,
)
from .io import write_dump
from .ordering import verify_equivalence_relation
from .scores import SCORE_IDS, ScoreFunction
from .simplex import Convention
from .synth import GeneratorSpec, Shift, generate, make_shift_pair

_startup.freeze()  # the last import is done

_EXIT_OK = 0
_EXIT_VERIFY_MISMATCH = 1
_EXIT_INPUT_ERROR = 2


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


# ---------------------------------------------------------------- estimate


def _add_estimate_parser(subparsers, seeded) -> None:
    p = subparsers.add_parser("estimate", parents=[seeded], help="estimate target accuracy from a dump pair")
    p.add_argument("--source", required=True, help="labeled source dump (csv/json)")
    p.add_argument("--target", required=True, help="target dump (labels ignored)")
    p.add_argument("--score", default="all", choices=("all",) + SCORE_IDS)
    p.add_argument("--method", default="atc", choices=("atc", "doc", "doc-reg"))
    p.add_argument("--convention", default="accuracy", choices=("accuracy", "error"))
    p.add_argument("--boot", type=int, default=0, help="bootstrap resamples (0 = none)")
    p.add_argument("--calibration-sets", type=int, default=DOC_REG_CALIBRATION_SETS)
    p.add_argument(
        "--strict-sums", action="store_true",
        help="sum tolerance 1e-9, not 1e-6; rows within it are still clamped and renormalized",
    )
    p.set_defaults(func=_cmd_estimate)


def _cmd_estimate(args) -> int:
    if args.method == "atc":
        methods = SCORE_IDS if args.score == "all" else (args.score,)
    else:
        methods = (args.method,)
    source, target = _load_summaries(args.source, args.target, methods, renormalize=not args.strict_sums)
    if source.labels is None:
        raise MissingLabelsError(f"{args.source}: estimate needs a labeled source dump")
    convention = Convention(args.convention)

    estimate = score_once(source, target, methods, args.calibration_sets)
    boot = bootstrap_estimates(estimate, source, args.boot, args.seed)
    for method, point in estimate(slice(None), args.seed).items():
        label = f"atc-{method}" if method in SCORE_IDS else method
        line = f"{label:<10} {_pct(point.converted(convention).value)}"
        if args.boot > 0:
            mean, lo, hi = summarize([v.converted(convention).value for v in boot[method]])
            line += f"  boot {_pct(mean)} [{_pct(lo)},{_pct(hi)}]"
        print(line)
    return _EXIT_OK


# ---------------------------------------------------------------- benchmark


def _add_benchmark_parser(subparsers, seeded) -> None:
    p = subparsers.add_parser("benchmark", parents=[seeded], help="bootstrap benchmark over dimensions")
    p.add_argument(
        "--pair",
        nargs=2,
        metavar=("SOURCE", "TARGET"),
        action="append",
        help="labeled source/target dump pair (repeat per dimension)",
    )
    p.add_argument("--synthetic", action="store_true", help="generate pairs instead")
    p.add_argument("--k", type=int, nargs="+", default=[6], help="synthetic class counts")
    p.add_argument("--n", type=int, default=2000, help="synthetic examples per set")
    _add_generator_flags(p)
    p.add_argument(
        "--methods",
        nargs="+",
        default=list(BenchmarkConfig.methods),
        choices=CANONICAL_METHODS,
    )
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--exclude-binary", action="store_true", help="skip k=2 when ranking")
    p.add_argument("--pairwise", action="store_true", help="print pairwise differences")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_benchmark)


def _cmd_benchmark(args) -> int:
    if args.synthetic and args.pair:
        raise AtckitError("benchmark takes --pair dumps or --synthetic, not both")
    if args.pairwise and len(set(args.methods)) < 2:
        raise AtckitError("--pairwise needs at least two distinct --methods to compare")
    # checked before any pair is read or made
    config = BenchmarkConfig(tuple(args.methods), n_boot=args.boot, ci_level=args.ci, master_seed=args.seed)
    # each pair is read or made when the suite asks for it, which summarizes it at once
    if args.synthetic:
        pairs = (make_shift_pair(_generator_spec(args, k, derive_seed("gen", args.seed, k))) for k in args.k)
    elif args.pair:
        pairs = (_labeled_summaries(src_path, tgt_path, config.methods) for src_path, tgt_path in args.pair)
    else:
        raise AtckitError("benchmark needs --pair dumps or --synthetic")

    errors = run_benchmark_suite(pairs, config)
    rows = aggregate(errors, ci_level=config.ci_level)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_runs_csv(errors, out_dir / "runs.csv")
    write_aggregate_csv(rows, out_dir / "aggregate.csv")

    print(format_aggregate_table(rows))
    print()
    print("wins per method" + (" (k=2 excluded)" if args.exclude_binary else ""))
    for method, wins in rank_methods(rows, exclude_binary=args.exclude_binary).items():
        print(f"  {method:<8} {wins}")
    if args.pairwise:
        print()
        for d in pairwise_difference_report(errors, ci_level=config.ci_level):
            flag = " *" if d.significant else ""
            print(
                f"  k={d.dimension} {d.method_a} vs {d.method_b}: "
                f"{d.mean_diff:+.6f} [{d.ci_low:+.6f},{d.ci_high:+.6f}]{flag}"
            )
    print()
    print(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'aggregate.csv'}")
    return _EXIT_OK


def _labeled_summaries(src_path, tgt_path, methods):
    """The summaries of a ``--pair``, which must be labeled on both sides."""
    source, target = _load_summaries(src_path, tgt_path, methods)
    if source.labels is None or target.labels is None:
        raise MissingLabelsError(f"benchmark pairs need labels on both sides ({src_path}, {tgt_path})")
    return source, target


# ------------------------------------------------------------------ verify


def _add_verify_parser(subparsers, seeded) -> None:
    p = subparsers.add_parser("verify", parents=[seeded], help="check order-equivalences between score functions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--pair", help="comma-separated pair of score ids, e.g. l2n,max")
    p.set_defaults(func=_cmd_verify)


def _predicted_classes(k: int) -> set:
    if k == 2:
        return {frozenset(SCORE_IDS)}
    quadratic = frozenset((ScoreFunction.L2_NORM.value, ScoreFunction.L2_TO_UNIFORM.value))
    return {quadratic} | {frozenset((i,)) for i in SCORE_IDS if i not in quadratic}


def _verdict_record(fn_a, fn_b, k, verdict) -> dict:
    record = {
        "fn_a": fn_a.value,
        "fn_b": fn_b.value,
        "k": k,
        "status": verdict.status,
        "pairs_checked": verdict.pairs_checked,
        "eps": verdict.equality_tolerance,
    }
    witness = verdict.witness
    if witness is not None:
        record["witness"] = {
            "p": [float(x) for x in witness.p],
            "q": [float(x) for x in witness.q],
            "scores_a": [witness.score_a_p, witness.score_a_q],
            "scores_b": [witness.score_b_p, witness.score_b_q],
        }
    return record


def _cmd_verify(args) -> int:
    if args.pair:
        try:
            id_a, id_b = (part.strip() for part in args.pair.split(","))
            fns = (ScoreFunction(id_a), ScoreFunction(id_b))
        except ValueError:
            raise AtckitError(f"--pair must be two of {SCORE_IDS}, got {args.pair!r}") from None
    else:
        fns = tuple(ScoreFunction)
    report = verify_equivalence_relation(
        fns, args.k, args.points, args.seed, args.eps, search_budget=args.budget
    )
    for (i, j), verdict in sorted(report.verdicts.items()):
        print(json.dumps(_verdict_record(fns[i], fns[j], args.k, verdict)))
    # one rule for a pair and for all six: the predicted classes, restricted to the functions checked
    classes = {frozenset(fn.value for fn in cls) for cls in report.classes}
    ids = {fn.value for fn in fns}
    expected = {cls & ids for cls in _predicted_classes(args.k)} - {frozenset()}
    ok = classes == expected and not report.transitivity_violations
    if args.pair:
        print(f"expected-consistency match: {ok}")
    else:
        print("classes: " + json.dumps(sorted(sorted(cls) for cls in classes)))
        print(f"expected-classes match: {ok}")
    return _EXIT_OK if ok else _EXIT_VERIFY_MISMATCH


# ---------------------------------------------------------------- generate


def _add_generator_flags(p) -> None:
    p.add_argument("--accuracy", type=float, default=0.8)
    p.add_argument("--concentration", type=float, default=8.0)
    p.add_argument(
        "--temperature", type=float, default=1.0,
        help="softens (>1) or sharpens (<1) target confidences; 1 = no shift",
    )


def _generator_spec(args, k: int, seed: int, label_prior=None) -> GeneratorSpec:
    return GeneratorSpec(
        k=k, n=args.n, target_accuracy=args.accuracy, concentration=args.concentration,
        shift=Shift(temperature=args.temperature, label_prior=label_prior), seed=seed,
    )


def _add_generate_parser(subparsers, seeded) -> None:
    p = subparsers.add_parser("generate", parents=[seeded], help="write a synthetic prediction dump")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_generator_flags(p)
    p.add_argument("--label-prior", help="comma-separated class prior, e.g. 0.5,0.3,0.2")
    p.add_argument("--out", required=True, help="dump path: JSON if it ends in .json, else CSV")
    p.set_defaults(func=_cmd_generate)


def _cmd_generate(args) -> int:
    prior = None
    if args.label_prior:
        try:
            prior = tuple(float(x) for x in args.label_prior.split(","))
        except ValueError:
            raise AtckitError(f"bad --label-prior {args.label_prior!r}") from None
    write_dump(generate(_generator_spec(args, args.k, args.seed, prior)), args.out)
    print(f"wrote {args.out} ({args.n} rows, k={args.k})")
    return _EXIT_OK


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atckit",
        description="accuracy estimation from softmax dumps via thresholded confidence",
    )
    seeded = argparse.ArgumentParser(add_help=False)  # every subcommand's --seed
    seeded.add_argument("--seed", type=int, default=0)
    subparsers = parser.add_subparsers(required=True)
    for add in (_add_estimate_parser, _add_benchmark_parser, _add_verify_parser, _add_generate_parser):
        add(subparsers, seeded)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # before any file is read or written
            raise InvalidArgumentError(f"--seed must not be negative, got {args.seed}")
        return args.func(args)
    except (AtckitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
