"""Prediction-dump file formats.

The canonical dump is a CSV with header ``p0,...,p{k-1}`` and an
optional trailing ``label`` column; a JSON alternative mirrors it as
``{"probs": [[...], ...], "labels": [...] | null}``. Probabilities are
serialized at 12 significant digits, which keeps round-trip error per
component below 1e-9, comfortably inside the ingestion tolerance.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import AtckitError, NotOnSimplexError, ParseError
from .simplex import SUM_TOLERANCE, PredictionSet, validate_matrix

#: Sum tolerance of ``load_dump(renormalize=False)`` (``--strict-sums``).
STRICT_SUM_TOLERANCE = 1e-9


def _format_of(path) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "csv"


def write_dump(data: PredictionSet, path) -> None:
    """Serialize a prediction set to ``path``: JSON by extension, else CSV."""
    if _format_of(path) == "csv":
        _write_csv(data, path)
    else:
        _write_json(data, path)


def _write_csv(data: PredictionSet, path) -> None:
    header = [f"p{i}" for i in range(data.k)]
    row_format = ",".join(["%.12g"] * data.k)
    if data.labels is not None:
        header.append("label")
        row_format += ",%d"
    row_format += "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if data.labels is None:
            for row in data.probs:
                fh.write(row_format % tuple(row.tolist()))
        else:
            for row, label in zip(data.probs, data.labels.tolist()):
                fh.write(row_format % (*row.tolist(), label))


def _write_json(data: PredictionSet, path) -> None:
    payload = {
        "probs": data.probs.tolist(),
        "labels": None if data.labels is None else data.labels.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_dump(path, renormalize: bool = True) -> PredictionSet:
    """Parse and validate a UTF-8 prediction dump: CSV, or JSON by extension.

    The tolerance is 1e-6 with ``renormalize`` (the default) and 1e-9
    without it. Either way, components in [-tolerance, 0) are clamped
    to zero, a row whose sum is further than it from 1 is rejected, and
    every other row is renormalized. Failures start with ``path`` and
    name the offending CSV file line, or the row index of a JSON dump.
    """
    tolerance = SUM_TOLERANCE if renormalize else STRICT_SUM_TOLERANCE
    lines = None
    try:
        if _format_of(path) == "csv":
            probs, labels, lines = _read_csv(path)
        else:
            probs, labels = _read_json(path)
        return PredictionSet._trusted(validate_matrix(probs, tolerance), labels)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    except NotOnSimplexError as exc:
        where = f"row {exc.row}" if lines is None else f"line {lines[exc.row]}"
        raise NotOnSimplexError(exc.row, exc.detail, f"{path}: {where}") from None
    except AtckitError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_csv(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: a leading BOM is dropped
        reader = csv.reader(fh)
        rows = _rows(reader)
        header = next(rows, None)
        if header is None:
            raise ParseError("empty file")
        k, has_label = _parse_header([h.strip() for h in header])
        probs, labels, lines = [], [], []
        for row in rows:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != k + has_label:
                raise ParseError(
                    f"line {lineno}: expected {k + has_label} fields, got {len(row)}"
                )
            try:
                probs.append([float(x) for x in row[:k]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if has_label:
                try:
                    label = int(row[k])
                except ValueError:
                    raise ParseError(f"line {lineno}: label {row[k]!r} is not an integer") from None
                if not 0 <= label < k:
                    raise ParseError(f"line {lineno}: label {label} outside [0, {k})")
                labels.append(label)
            lines.append(lineno)
    if not probs:
        raise ParseError("no data rows")
    labels = np.asarray(labels) if has_label else None
    # an array, not the list: surviving int objects would pin the allocator
    # arenas that held the parsed rows (+4.7 MB peak RSS at 1000 x 1000)
    return np.asarray(probs, dtype=np.float64), labels, np.asarray(lines)


def _rows(reader):
    """The reader's rows; a malformed one (a field over csv's size limit) is a ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _parse_header(header) -> tuple[int, bool]:
    has_label = bool(header) and header[-1] == "label"
    prob_cols = header[:-1] if has_label else header
    expected = [f"p{i}" for i in range(len(prob_cols))]
    if len(prob_cols) < 2 or prob_cols != expected:
        raise ParseError(
            f"header must be p0..p{{k-1}}[,label] with k >= 2, got {','.join(header)}"
        )
    return len(prob_cols), has_label


def _read_json(path):
    with open(path, encoding="utf-8-sig") as fh:  # -sig: a leading BOM is dropped
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "probs" not in payload:
        raise ParseError('JSON dump must be an object with a "probs" key')
    probs = payload["probs"]
    if not isinstance(probs, list) or not probs:
        raise ParseError('"probs" must be a non-empty list of rows')
    width = len(probs[0]) if isinstance(probs[0], list) else -1
    for i, row in enumerate(probs):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"row {i}: ragged or non-list probability row")
        if not set(map(type, row)) <= {int, float}:  # a bool's type is not int
            bad = next(x for x in row if type(x) not in (int, float))
            raise ParseError(f"row {i}: probability {bad!r} is not a number")
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(probs):
            raise ParseError('"labels" must be null or match "probs" in length')
        for i, label in enumerate(labels):
            if not isinstance(label, int) or isinstance(label, bool):
                raise ParseError(f"row {i}: label {label!r} is not an integer")
        labels = np.array(labels, dtype=object)  # any width: range-checked before the int64 cast
    try:
        matrix = np.asarray(probs, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"probability out of range: {exc}") from None
    return matrix, labels
