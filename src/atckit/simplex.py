"""Probability vectors, prediction sets, and bounded metrics.

Everything downstream operates on points of the probability simplex: the
k non-negative reals summing to one that a k-class classifier emits per
example. Ingestion is forgiving (serialized softmax dumps rarely sum to
one exactly) but after validation vectors are renormalized so later math
can assume exact simplex membership.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    MissingLabelsError,
    NotOnSimplexError,
)

#: Default ingestion tolerance for the sum-to-one check.
SUM_TOLERANCE = 1e-6

#: Matrix entries per row block. Code that walks a matrix block by block
#: (the score kernels, the CSV writer) holds temporaries in proportion to
#: this, whatever the number of rows.
_BLOCK_CELLS = 1 << 16


class Convention(Enum):
    """Whether a metric value counts successes or failures."""

    ACCURACY = "accuracy"
    ERROR = "error"


@dataclass(frozen=True)
class MetricValue:
    """A performance metric in [0, 1] tagged with its convention.

    Thresholds are learned against classification error internally;
    reports usually want accuracy. Keeping the convention attached makes
    every conversion explicit and prevents silent 1-x bugs.
    """

    value: float
    convention: Convention

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidArgumentError(f"metric value {self.value!r} outside [0, 1]")

    @property
    def accuracy(self) -> float:
        if self.convention is Convention.ACCURACY:
            return self.value
        return 1.0 - self.value

    @property
    def error(self) -> float:
        if self.convention is Convention.ERROR:
            return self.value
        return 1.0 - self.value

    def converted(self, convention: Convention) -> "MetricValue":
        if convention is self.convention:
            return self
        return MetricValue(1.0 - self.value, convention)


def validate_matrix(raw, tolerance: float = SUM_TOLERANCE) -> np.ndarray:
    """Validate an (n, k) array of probability vectors and renormalize each row exactly.

    A single vector is read as one row. Components in [-tolerance, 0)
    are clamped to zero (serialization noise); anything below -tolerance
    or a row sum further than ``tolerance`` from one is rejected.

    The row sums are taken first. A non-finite component makes its row's
    sum non-finite, so the element-wise scan for one runs only when a sum
    is not finite (a finite row can still overflow). Then one pass finds
    the least component: the scan for one below -tolerance runs only when
    it is below that, and the clamp only when it is below 0, after which
    the rows are summed again. The errors, their order and the bits are
    those of running every check on every row.

    Returns a read-only float64 matrix whose rows sum to 1 within machine
    precision.
    """
    probs = np.array(raw, dtype=np.float64, ndmin=2)
    if probs.ndim != 2:
        raise DimensionError(f"expected a matrix of row vectors, got ndim={probs.ndim}")
    n, k = probs.shape
    if k < 2:
        raise DimensionError(f"probability vectors need k >= 2 components, got k={k}")
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is rejected below
        sums = probs.sum(axis=1)
        if not np.isfinite(sums).all() and not np.all(np.isfinite(probs)):
            bad = int(np.argwhere(~np.all(np.isfinite(probs), axis=1))[0, 0])
            raise NotOnSimplexError(bad, "non-finite component")
        least = probs.min(initial=np.inf)
        if least < -tolerance:
            bad = int(np.argwhere(np.any(probs < -tolerance, axis=1))[0, 0])
            raise NotOnSimplexError(bad, f"component below -{tolerance:g} ({probs[bad].min():.6g})")
        if least < 0.0:
            probs[probs < 0.0] = 0.0  # in place on the copy above; -0.0 is not below 0 and stays
            sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > tolerance
    if np.any(off):
        bad = int(np.argwhere(off)[0, 0])
        raise NotOnSimplexError(
            bad, f"components sum to {sums[bad]:.9g}, further than {tolerance:g} from 1"
        )
    probs /= sums[:, None]
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class PredictionSet:
    """An immutable batch of softmax outputs with optional true labels.

    ``probs`` is an (n, k) matrix of validated probability vectors;
    ``labels``, when present, holds integer class indices in [0, k).
    Represents either labeled validation data or an unlabeled deployment
    sample. Instances are safe to share across threads.
    """

    probs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self._adopt(validate_matrix(self.probs), self.labels)

    @classmethod
    def _trusted(cls, probs: np.ndarray, labels=None) -> "PredictionSet":
        """Build a set from rows that ``validate_matrix`` already returned.

        Validating them again renormalizes and can move bits, so the rows
        are kept as they are; the non-empty and label checks still run.
        """
        out = object.__new__(cls)
        out._adopt(probs, labels)
        return out

    def _adopt(self, probs: np.ndarray, labels) -> None:
        if probs.ndim != 2 or probs.shape[0] == 0:
            raise EmptyInputError(f"a prediction set needs at least one row, got shape {probs.shape}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        labels = None if labels is None else np.asarray(labels)
        if labels is None or labels.size == 0:  # explicitly empty labels mean "unlabeled"
            object.__setattr__(self, "labels", None)
            return
        n, k = probs.shape
        if labels.shape != (n,):
            raise DimensionError(f"{labels.size} labels for {n} vectors")
        # floats and bools are rejected, not rounded; ints too wide for int64 come as objects
        if labels.dtype.kind not in "iu" and not (
            labels.dtype == object and all(type(x) is int for x in labels)
        ):
            raise InvalidArgumentError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.min() < 0 or labels.max() >= k:  # before the int64 cast can wrap
            raise InvalidArgumentError(f"labels must lie in [0, {k})")
        labels = labels.astype(np.int64)  # a private copy: the caller's array stays writeable
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        """Number of classes."""
        return self.probs.shape[1]

    @property
    def predicted_labels(self) -> np.ndarray:
        """Argmax class per example; ties resolve to the lowest index."""
        return np.argmax(self.probs, axis=1)

    def subset(self, indices) -> "PredictionSet":
        """New set from the given row indices (labels travel along), bit for bit."""
        labels = None if self.labels is None else self.labels[indices]
        return PredictionSet._trusted(self.probs[indices], labels)


def true_accuracy(data: PredictionSet) -> MetricValue:
    """Fraction of examples whose argmax class equals the true label."""
    if data.labels is None:
        raise MissingLabelsError("true_accuracy needs a labeled prediction set")
    value = float(np.mean(data.predicted_labels == data.labels))
    return MetricValue(value, Convention.ACCURACY)


def _resample_blocks(n: int, seed, n_sets: int):
    """``n_sets`` vectors of ``n`` row indices drawn with replacement, as
    (rows, n) arrays: one ``integers`` call per :func:`_row_blocks` block
    of the (n_sets, n) index matrix, from one ``default_rng(seed)``
    stream. The stream is the same as one ``integers(0, n, size=n)`` call
    per vector, and no more than one block is drawn at a time. Every score
    works row by row, so the scores of ``data.subset(idx)`` are
    ``scores[idx]`` bit for bit."""
    rng = _rng(seed)
    for rows in _row_blocks(n_sets, n):
        yield rng.integers(0, n, size=(rows.stop - rows.start, n))


def _row_blocks(n: int, k: int):
    """Slices of consecutive rows of an (n, k) matrix, each of at most
    ``_BLOCK_CELLS`` entries; a row wider than that is a block of its own."""
    step = max(1, _BLOCK_CELLS // k)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def check_seed(seed) -> None:
    """Reject a seed with a negative entry, which numpy's generators refuse (numpy's seed objects pass)."""
    if type(seed) is int:  # the common case, compared without building an array
        negative = seed < 0
    else:
        numpy_seed = isinstance(seed, (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator))
        negative = not (seed is None or numpy_seed) and np.any(np.asarray(seed) < 0)
    if negative:
        raise InvalidArgumentError(f"seed must not be negative, got {seed}")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed: blake2b (8 bytes) of the ``:``-joined parts, which may
    be negative. Hashed, not drawn from a stream, so any run reproduces alone."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _sub_seed(seed, j: int) -> list:
    """Sub-stream ``j`` of a checked ``seed``; it draws as ``default_rng([seed, j])``."""
    check_seed(seed)
    return [*np.ravel(seed), j]


def _rng(seed) -> np.random.Generator:
    """``default_rng`` of a checked ``seed``: the package's one generator factory."""
    check_seed(seed)
    return np.random.default_rng(seed)


def check_shape(rows: int, k: int) -> None:
    """Reject a (rows, k) float64 shape with more bytes than numpy can address."""
    if rows * k * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"a {rows} x {k} float64 array exceeds the addressable size")


def check_estimation_pair(source: PredictionSet, target: PredictionSet, estimator: str) -> None:
    """Raise unless ``source`` is labeled and ``target`` has its class count."""
    if source.labels is None:
        raise MissingLabelsError(f"{estimator} needs labels on the source set")
    if source.k != target.k:
        raise DimensionError(f"source has k={source.k} classes but target has k={target.k}")
