"""Synthetic classifier-output generator with known ground truth.

Produces labeled prediction sets whose per-example correctness is
controlled exactly: each example's argmax class is forced onto either
its true label (with probability ``target_accuracy``) or a uniformly
random wrong class, so the realized accuracy of a generated set is the
realized fraction of correct draws, not an approximation.

Distribution shift is modeled as temperature scaling, ``p_i ** (1/T)``
renormalized, optionally combined with a different label prior.
Temperature changes every score a confidence-based estimator sees while
leaving each vector's argmax (hence accuracy mechanics) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NotOnSimplexError
from .simplex import PredictionSet, _rng, _sub_seed, check_seed, check_shape, validate_matrix

#: Rejection rounds before forcing the argmax deterministically.
_MAX_REDRAWS = 1000


def _check_temperature(temperature: float) -> None:
    if not temperature > 0:
        raise InvalidArgumentError("temperature must be positive")
    if temperature == np.inf:  # 1 / inf flattens every row to uniform
        raise InvalidArgumentError(f"temperature must be finite and positive, got {temperature}")


@dataclass(frozen=True)
class Shift:
    """Source-to-target distortion: confidence softening and/or label prior."""

    temperature: float = 1.0
    label_prior: tuple | None = None

    def __post_init__(self):
        _check_temperature(self.temperature)
        if self.label_prior is not None:
            object.__setattr__(self, "label_prior", tuple(float(x) for x in self.label_prior))


@dataclass(frozen=True)
class GeneratorSpec:
    """The whole recipe for one synthetic prediction set. ``seed`` is any
    seed ``simplex._rng`` takes, such as the sub-streams ``[seed, j]`` that
    :func:`make_shift_pair` stores."""

    k: int
    n: int
    target_accuracy: float
    concentration: float = 8.0
    shift: Shift = Shift()
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise InvalidArgumentError("k must be at least 2")
        if self.n < 1:
            raise InvalidArgumentError("n must be at least 1")
        check_shape(self.n, self.k)
        if not 0.0 < self.target_accuracy <= 1.0:
            raise InvalidArgumentError("target_accuracy must lie in (0, 1]")
        if not 0.0 < self.concentration < np.inf:
            raise InvalidArgumentError(f"concentration must be finite and positive, got {self.concentration}")
        check_seed(self.seed)
        if not isinstance(self.shift, Shift):
            raise InvalidArgumentError(f"shift must be a Shift, got {self.shift!r}")


def _label_prior(spec: GeneratorSpec) -> np.ndarray:
    if spec.shift.label_prior is None:
        return np.full(spec.k, 1.0 / spec.k)
    prior = spec.shift.label_prior
    if len(prior) != spec.k:
        raise InvalidArgumentError(f"label prior has {len(prior)} entries for k={spec.k}")
    try:
        return validate_matrix(prior)[0]
    except NotOnSimplexError as exc:
        raise InvalidArgumentError(f"label prior {prior}: {exc.detail}") from None


def _force_argmax(probs: np.ndarray, designated: np.ndarray) -> np.ndarray:
    """Deterministic fallback: winner gets just over half the mass."""
    eps = 1e-6
    rest = probs.copy()
    rest[np.arange(len(designated)), designated] = 0.0
    rest_sum = rest.sum(axis=1, keepdims=True)
    out = (0.5 - eps) * rest / rest_sum
    out[np.arange(len(designated)), designated] = 0.5 + eps
    return out


def generate(spec: GeneratorSpec) -> PredictionSet:
    """Draw one labeled prediction set according to ``spec``.

    Per example: the true label comes from the label prior; a Bernoulli
    draw with probability ``target_accuracy`` decides whether the argmax
    is forced onto the true label or onto a uniformly random wrong
    class. Vectors come from a Dirichlet with ``concentration`` on the
    designated winner and 1 elsewhere, redrawn until the argmax lands
    there (deterministic fallback after a bounded number of rounds, so
    generation always terminates). Temperature shift is applied last.
    """
    rng = _rng(spec.seed)
    k, n = spec.k, spec.n

    labels = rng.choice(k, size=n, p=_label_prior(spec))
    correct = rng.random(n) < spec.target_accuracy
    offsets = rng.integers(1, k, size=n)
    designated = np.where(correct, labels, (labels + offsets) % k)

    probs = _dirichlet_rows(spec, designated, rng)
    bad = np.flatnonzero(np.argmax(probs, axis=1) != designated)
    for _ in range(_MAX_REDRAWS):
        if bad.size == 0:
            break
        probs[bad] = _dirichlet_rows(spec, designated[bad], rng)
        bad = bad[np.argmax(probs[bad], axis=1) != designated[bad]]  # only redrawn rows can change
    else:
        probs[bad] = _force_argmax(probs[bad], designated[bad])

    # a statement of its own: the unshifted matrix is freed before validation
    probs = apply_temperature(probs, spec.shift.temperature)
    return PredictionSet(probs, labels)


def _dirichlet_rows(spec: GeneratorSpec, designated: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Dirichlet row per designated class: ``concentration`` there, 1 elsewhere."""
    rows = np.ones((len(designated), spec.k))
    rows[np.arange(len(designated)), designated] = spec.concentration
    rows = rng.standard_gamma(rows)  # gamma(shape) draws the same, times a scale of 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Power-scale rows by ``1/temperature`` and renormalize.

    Strictly increasing on components, so every row keeps its argmax,
    unless float64 rounding ties its top components or underflows it
    (extreme temperatures), which raises ``InvalidArgumentError``. Never
    writes to ``probs``; ``temperature == 1`` returns it unchanged.
    """
    _check_temperature(temperature)
    if temperature == 1.0:
        return probs
    powered = probs ** (1.0 / temperature)
    with np.errstate(invalid="ignore"):
        powered /= powered.sum(axis=1, keepdims=True)
    kept = np.isfinite(powered).all(axis=1) & (powered.argmax(axis=1) == probs.argmax(axis=1))
    if not kept.all():
        row = np.argmin(kept)
        raise InvalidArgumentError(f"temperature {temperature:g}: float64 cannot keep row {row}'s argmax")
    return powered


def make_shift_pair(spec: GeneratorSpec) -> tuple[PredictionSet, PredictionSet]:
    """Independent (source, target) draw with the shift applied to the target.

    The source comes from ``spec`` with no shift and sub-stream 0 of its
    seed; the target repeats the recipe with the spec's shift and
    sub-stream 1. Both sets are labeled so benchmark ground truth exists.
    """
    source = generate(replace(spec, shift=Shift(), seed=_sub_seed(spec.seed, 0)))
    target = generate(replace(spec, seed=_sub_seed(spec.seed, 1)))
    return source, target
