#!/usr/bin/env python3
"""Benchmark estimation methods with bootstrap error distributions.

For each class count, the validation set is resampled many times; every
method estimates the test accuracy from each resample, and the absolute
errors are aggregated into mean + 95% percentile intervals, tie-aware
win counts, and a pairwise mean-difference report. All methods see the
same resample in a given run, so per-run differences are paired.

Two structural facts are visible in the output: at k=2 every score
function's row is identical (one ordering class), and the two quadratic
scores tie at every k.
"""

import tempfile
from pathlib import Path

from atckit import (
    BenchmarkConfig,
    GeneratorSpec,
    Shift,
    aggregate,
    make_shift_pair,
    pairwise_difference_report,
    rank_methods,
    run_benchmark_suite,
    write_aggregate_csv,
    write_runs_csv,
)
from atckit.harness import format_aggregate_table

pairs = []
for k in (2, 3, 6):
    spec = GeneratorSpec(
        k=k, n=1500, target_accuracy=0.8, concentration=6.0,
        shift=Shift(temperature=1.05), seed=100 + k,
    )
    pairs.append(make_shift_pair(spec))

config = BenchmarkConfig(n_boot=300, master_seed=1)  # six ATC variants + naive DoC
errors = run_benchmark_suite(pairs, config)
rows = aggregate(errors, ci_level=config.ci_level)

print(format_aggregate_table(rows))
print()

print("win counts (k=2 excluded: its six-way tie is structural, not empirical)")
for method, wins in rank_methods(rows, exclude_binary=True).items():
    print(f"  {method:<8} {wins}")
print()

print("pairwise mean error differences at k=6 (* = 95% interval excludes 0)")
for diff in pairwise_difference_report(errors, ci_level=config.ci_level):
    if diff.dimension != 6:
        continue
    flag = " *" if diff.significant else ""
    print(f"  {diff.method_a:>6} vs {diff.method_b:<6} {diff.mean_diff:+.4f} "
          f"[{diff.ci_low:+.4f}, {diff.ci_high:+.4f}]{flag}")
print()

with tempfile.TemporaryDirectory(prefix="atckit-benchmark-") as tmp:
    out_dir = Path(tmp)
    write_runs_csv(errors, out_dir / "runs.csv")
    write_aggregate_csv(rows, out_dir / "aggregate.csv")
    print(f"per-run records and aggregates written to {out_dir} (removed on exit)")
print("(identical seeds and inputs reproduce these files byte for byte)")
