#!/usr/bin/env python3
"""Estimate accuracy on an unlabeled target set from softmax outputs.

Walks through the core workflow: generate a labeled validation set and a
confidence-shifted deployment set, learn a score threshold on the
validation side, and read the target accuracy off the below-threshold
fraction. Compares every score function and the difference-of-confidence
baseline against the (here known) ground truth.
"""

from atckit import (
    GeneratorSpec,
    ScoreFunction,
    Shift,
    atc_estimate,
    doc_estimate,
    make_shift_pair,
    true_accuracy,
)

# A 6-class classifier, ~82% accurate, whose deployment-time confidences
# are mildly softened (temperature 1.1) relative to validation.
spec = GeneratorSpec(
    k=6, n=4000, target_accuracy=0.82, concentration=7.0,
    shift=Shift(temperature=1.1), seed=20,
)
validation, deployment = make_shift_pair(spec)

truth = true_accuracy(deployment).accuracy
print(f"true (hidden) deployment accuracy: {truth:.2%}")
print(f"validation accuracy:               {true_accuracy(validation).accuracy:.2%}")
print()

print(f"{'method':<10} {'estimate':>9} {'abs error':>10}")
for fn in ScoreFunction:
    est = atc_estimate(validation, deployment, fn)
    print(f"atc-{fn.value:<6} {est.accuracy:>9.2%} {abs(est.accuracy - truth):>10.2%}")

doc = doc_estimate(validation, deployment)
print(f"{'doc':<10} {doc.accuracy:>9.2%} {abs(doc.accuracy - truth):>10.2%}")

# The learned threshold itself is inspectable: it is always one of the
# observed validation scores (or the sentinel when the source error is 1).
model = atc_estimate(validation, deployment, ScoreFunction.MAX_CONF).model
print()
print(f"max-confidence threshold: {model.threshold:.4f}")
print(f"below-threshold fraction achieved on validation: "
      f"{model.achieved_source_proportion:.4f} "
      f"(target was {model.source_metric.error:.4f})")

# Uncertainty via bootstrap: resample the validation set and look at the
# spread of the resulting estimates (the same resamples `atckit estimate
# --boot 200 --seed 0` and the benchmark harness use).
from atckit.harness import bootstrap_estimates, score_once, summarize

estimate = score_once(validation, deployment, ["max"])
runs = bootstrap_estimates(estimate, validation, n_boot=200, master_seed=0)
mean, lo, hi = summarize([value.accuracy for value in runs["max"]])
print()
print(f"atc-max bootstrap: mean {mean:.2%}, 95% interval [{lo:.2%}, {hi:.2%}]")
