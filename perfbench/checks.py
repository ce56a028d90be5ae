"""Output checks for the four workloads.

Each ``check_*`` raises ``CheckFailed`` naming the first problem found.
They read atckit's outputs with this directory's own code (``csv`` and
numpy), never with ``atckit.io``, so a defect in the package's reader
cannot hide a defect in its writer.
"""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict

import numpy as np

ATC_IDS = ("max", "negent", "l2n", "l1u", "l2u", "js")
EXPECTED_CLASSES_K3 = [["js"], ["l1u"], ["l2n", "l2u"], ["max"], ["negent"]]


class CheckFailed(Exception):
    pass


def verdict(check, *args) -> str | None:
    """None if ``check(*args)`` passes, else why not; malformed output fails too."""
    try:
        check(*args)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path}: empty file")
    return rows[0], rows[1:]


def check_benchmark(runs_path, aggregate_path, dims, methods, n_boot) -> None:
    """``runs.csv``/``aggregate.csv`` of ``atckit benchmark`` (paper criteria 1-2)."""
    header, rows = _read_rows(runs_path)
    _require(header == ["dimension", "method", "run", "abs_error"], f"runs.csv header {header}")
    expected = len(dims) * len(methods) * n_boot
    _require(len(rows) == expected, f"runs.csv has {len(rows)} rows, expected {expected}")
    errors: dict = {}
    for dim, method, run, value in rows:
        err = float(value)
        _require(0.0 <= err <= 1.0, f"abs_error {value} outside [0, 1]")
        errors[(int(dim), method, int(run))] = err
    _require(len(errors) == expected, "runs.csv repeats a (dimension, method, run)")
    for dim in dims:
        for run in range(n_boot):
            got = {m: errors.get((dim, m, run)) for m in methods}
            _require(None not in got.values(), f"k={dim} run {run} lacks a method")
            _require(
                got["l2n"] == got["l2u"],
                f"k={dim} run {run}: l2n error {got['l2n']} != l2u error {got['l2u']}",
            )
            if dim == 2:
                atc = {got[m] for m in ATC_IDS}
                _require(len(atc) == 1, f"k=2 run {run}: ATC errors differ {sorted(atc)}")

    header, rows = _read_rows(aggregate_path)
    _require(header == ["dimension", "method", "mean", "ci_low", "ci_high"], f"aggregate.csv header {header}")
    _require(len(rows) == len(dims) * len(methods), f"aggregate.csv has {len(rows)} rows")
    per_group = defaultdict(list)
    for (dim, method, _), err in errors.items():
        per_group[(dim, method)].append(err)
    for dim, method, mean, _, _ in rows:
        values = per_group[(int(dim), method)]
        _require(bool(values), f"aggregate row k={dim} {method} has no runs")
        runs_mean = sum(values) / len(values)
        _require(
            abs(float(mean) - runs_mean) <= 1e-12,
            f"k={dim} {method}: aggregate mean {mean} != runs.csv mean {runs_mean!r}",
        )


def check_verify(stdout: str) -> None:
    """``atckit verify --k 3`` finds exactly the paper's equivalence classes."""
    lines = stdout.splitlines()
    _require("expected-classes match: True" in lines, "no 'expected-classes match: True' line")
    classes = [line for line in lines if line.startswith("classes: ")]
    _require(len(classes) == 1, f"expected one classes line, got {len(classes)}")
    got = json.loads(classes[0][len("classes: "):])
    _require(got == EXPECTED_CLASSES_K3, f"classes {got} != {EXPECTED_CLASSES_K3}")


_ESTIMATE_LINE = re.compile(r"^atc-(\w+)\s+(-?\d+\.\d+)$")


def check_estimates(stdout: str, expected: dict, n_target: int) -> None:
    """Printed ``estimate --score all`` accuracies agree with the oracle.

    Allowed gap: one target row (scores may differ from the oracle's in
    the last bits) plus half a unit of the printed 0.01 %.
    """
    printed = {}
    for line in stdout.splitlines():
        m = _ESTIMATE_LINE.match(line.strip())
        if m:
            printed[m.group(1)] = float(m.group(2)) / 100.0
    _require(sorted(printed) == sorted(expected), f"estimate printed {sorted(printed)}")
    tolerance = 1.0 / n_target + 0.5e-4 + 1e-12
    for fn, want in expected.items():
        _require(
            abs(printed[fn] - want) <= tolerance,
            f"atc-{fn}: printed {printed[fn]:.4f}, oracle {want:.6f} (tolerance {tolerance:.6f})",
        )


def read_dump(path) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and labels of a labeled CSV dump, read with numpy."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    k = len(header) - 1
    _require(
        header == [f"p{i}" for i in range(k)] + ["label"],
        f"{path}: header is not p0..p{k - 1},label",
    )
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(table.shape[1] == k + 1, f"{path}: rows have {table.shape[1]} fields, expected {k + 1}")
    return table[:, :k], table[:, k]


def check_dump(path, k: int, n: int) -> None:
    """A ``generate`` dump: header, row count, rows on the simplex, labels in range."""
    probs, labels = read_dump(path)
    _require(probs.shape == (n, k), f"dump shape {probs.shape}, expected {(n, k)}")
    sums = probs.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    _require(abs(sums[worst] - 1.0) <= 1e-6, f"data row {worst} sums to {sums[worst]!r}")
    _require(bool(np.all(probs >= 0.0)), "negative probability")
    _require(
        bool(np.all((labels == np.round(labels)) & (labels >= 0) & (labels < k))),
        f"labels outside the integers 0..{k - 1}",
    )
