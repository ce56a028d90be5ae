#!/usr/bin/env python3
"""Which score functions are interchangeable, and when.

The thresholded estimator only ever uses the *ordering* a score function
induces over probability vectors, so two functions that order every pair
of vectors identically give bit-identical estimates. This demo verifies
that structure empirically:

* on the binary simplex all six functions collapse into one class;
* from three classes up, only the squared norm and the squared distance
  to the uniform vector stay together (their scores differ by the
  constant 1/k);
* every other pair is separated by an explicit counterexample;
* strictly increasing rescalings never change an estimate.
"""

import numpy as np

from atckit import (
    GeneratorSpec,
    MonotoneTransform,
    ScoreFunction,
    Shift,
    atc_estimate,
    check_pair,
    make_shift_pair,
    score,
    search_counterexample,
    squared_distance_to,
    verify_equivalence_relation,
)

print("=== equivalence classes on sampled points ===")
for k in (2, 3, 6):
    report = verify_equivalence_relation(
        tuple(ScoreFunction), k=k, n_points=800, seed=0, search_budget=50_000
    )
    classes = sorted(sorted(fn.value for fn in cls) for cls in report.classes)
    print(f"k={k}: {classes}")
print()

print("=== a hand-built witness: squared norm vs max confidence (k=3) ===")
p, q = [0.5, 0.2, 0.3], [0.5, 0.5, 0.0]
print(f"p={p}  q={q}")
print(f"  squared norm:    {score(p, ScoreFunction.L2_NORM):.2f} vs "
      f"{score(q, ScoreFunction.L2_NORM):.2f}   (p < q)")
print(f"  max confidence:  {score(p, ScoreFunction.MAX_CONF):.2f} vs "
      f"{score(q, ScoreFunction.MAX_CONF):.2f}   (tied)")
print(f"  order-consistent? {check_pair(p, q, ScoreFunction.L2_NORM, ScoreFunction.MAX_CONF)}")
print()

print("=== distance to a non-uniform reference point is NOT equivalent ===")
fixed = squared_distance_to([0.3, 0.7])
p, q = [0.4, 0.6], [0.5, 0.5]
print(f"p={p}  q={q}, reference r=(0.3, 0.7)")
print(f"  squared norm:        {score(p, ScoreFunction.L2_NORM):.2f} vs "
      f"{score(q, ScoreFunction.L2_NORM):.2f}")
print(f"  squared dist to r:   {float(fixed(np.atleast_2d(p))[0]):.2f} vs "
      f"{float(fixed(np.atleast_2d(q))[0]):.2f}")
print(f"  order-consistent? {check_pair(p, q, ScoreFunction.L2_NORM, fixed)}")
print()

print("=== searched witnesses for every separated pair at k=3 ===")
fns = tuple(ScoreFunction)
for i, fn_a in enumerate(fns):
    for fn_b in fns[i + 1:]:
        w = search_counterexample(fn_a, fn_b, k=3, budget=50_000, seed=0)
        if w is None:
            print(f"{fn_a.value} vs {fn_b.value}: no violation found (equivalent)")
        else:
            print(f"{fn_a.value} vs {fn_b.value}: p={np.round(w.p, 3).tolist()} "
                  f"q={np.round(w.q, 3).tolist()}")
print()

print("=== rescaling a score function never changes the estimate ===")
spec = GeneratorSpec(k=5, n=1000, target_accuracy=0.75, concentration=6.0,
                     shift=Shift(temperature=1.2), seed=4)
source, target = make_shift_pair(spec)
base = ScoreFunction.NEG_ENTROPY
reference = atc_estimate(source, target, base)
for transform in (
    MonotoneTransform.affine(base, 2.0, 1.0),
    MonotoneTransform.affine(base, 0.01, -5.0),
    MonotoneTransform.odd_power(base, 3),
):
    est = atc_estimate(source, target, transform)
    tag = f"scale={transform.scale}, offset={transform.offset}, exp={transform.exponent}"
    print(f"  {tag:<48} estimate {est.accuracy:.6f} "
          f"({'identical' if est.accuracy == reference.accuracy else 'DIFFERENT'})")
print(f"  base estimate: {reference.accuracy:.6f} "
      f"(threshold moves, the below-threshold set does not)")
