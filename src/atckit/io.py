"""Prediction-dump file formats.

The canonical dump is a CSV with header ``p0,...,p{k-1}`` and an
optional trailing ``label`` column; a JSON alternative mirrors it as
``{"probs": [[...], ...], "labels": [...] | null}``. Probabilities are
serialized at 12 significant digits, which keeps round-trip error per
component below 1e-9, comfortably inside the ingestion tolerance.

The CSV writer gives each field exactly the bytes of Python's ``%.12g``
(``%d`` for a label). It formats the rows a block at a time, with numpy,
and writes each block as it is done, so its memory is bounded by one row
block whatever the number of rows. The JSON writer gives the bytes of
``json.dump`` and also writes a row block at a time.

A CSV goes through numpy's parser first, in one ``np.loadtxt`` call, and
through the line parser only when it needs diagnosing: on any failure
the line parser reads the file again and names the offending line.
numpy's path reads the file in binary mode and hands numpy its lines as
bytes, which numpy decodes as UTF-8 faster than a text-mode file yields
them; the lines are ended where text mode ends them, and the header is
decoded as ``utf-8-sig`` so that a leading BOM is dropped. The
line parser defines what a dump may hold. numpy's path accepts a subset
of that and gives the same bits, so the two accept the same files and
give the same values. Both convert a label's text with Python's ``int``,
whatever the numpy version, and numpy's path sets no process-wide state.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import reprlib
from pathlib import Path

import numpy as np

from .errors import AtckitError, NotOnSimplexError, ParseError
from .simplex import SUM_TOLERANCE, PredictionSet, _row_blocks, validate_matrix

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
    n, k = data.probs.shape
    header = [f"p{i}" for i in range(k)] + (["label"] if data.labels is not None else [])
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for rows in _row_blocks(n, k):
            labels = None if data.labels is None else data.labels[rows]
            fh.write(_csv_rows(data.probs[rows], labels))


#: Bytes per cell of a row block, as three little-endian words. A cell
#: formatted by numpy has its leading character at byte 0 (``0`` in fixed
#: notation, the first digit in exponent notation), ``.`` at 1, the zeros
#: of fixed notation at 2-4, the 12 digits at 5-16 (the first of them at
#: byte 0 instead in exponent notation), ``e-`` and the exponent at 17-21,
#: and its separator at 23. Bytes it does not use are zero and
#: are deleted at the end. Python's text for a float or an int64 label
#: fits in bytes 0-22.
_SLOT = 24


@functools.cache
def _text_tables():
    """Word tables for ``_csv_rows``, built on first use.

    Indexed by e = -floor(log10 x), which is 1..290 for a cell numpy
    formats: ``scale[e]`` is 10**(11 + e), ``row[e]`` picks the row of
    ``first``, and ``exponent[e]`` holds ``e-`` and the exponent (zero in
    fixed notation, e <= 4). ``first[row, g]`` is word 0 of a cell whose
    digits start with the 3 digits of g, ``digits[g]`` is those 3 digits
    and ``stripped[g]`` the same without trailing zeros. Each is built
    with numpy arithmetic on the ASCII codes of the digits.
    """
    e = np.arange(292)
    scale = np.array([float(10 ** (11 + i)) for i in e.tolist()])  # each power exactly rounded
    row = np.minimum(e, 5) - 1
    g = np.arange(1000, dtype="<u8")
    hundreds, tens, ones = g // 100 + ord("0"), g // 10 % 10 + ord("0"), g % 10 + ord("0")
    digits = hundreds | tens << 8 | ones << 16
    stripped = np.where(g % 10 != 0, digits, np.where(g % 100 != 0, hundreds | tens << 8, hundreds * (g != 0)))
    # "%02d" of e: the triple of e without its leading "0" below 100
    exponent = int.from_bytes(b"\0e-", "little") | np.where(e < 100, digits[e] >> 8, digits[e]) << 24
    exponent[:5] = 0
    fixed = [int.from_bytes(b"0." + b"0" * z, "little") | digits << 40 for z in range(4)]
    first = np.array(fixed + [hundreds | ord(".") << 8 | tens << 48 | ones << 56], "<u8")
    return scale, row, exponent, first, digits, stripped


def _csv_rows(probs: np.ndarray, labels) -> bytes:
    """CSV lines of a row block: each probability exactly as ``"%.12g" % x``, then the label.

    A cell is formatted here when its 12 digits are certain: 1e-289 <= x
    < 1, ``x * 10**(11 - X)`` with X = floor(log10 x) lies more than 1e-3
    from a rounding tie, and it rounds to a 12-digit integer M whose last
    3 digits are not all zero. Its two roundings move that product (below
    1e12) by under 2.3e-4, so M holds the digits that C's dtoa prints.
    Python formats every other cell (0, -0.0, 1, subnormals, ties, a carry
    to the next power of ten, 9 significant digits or fewer) and every
    label. The zero bytes of the slots are deleted in one pass at the end.
    """
    scale, row, exponent, first, digits, stripped = _text_tables()
    n, k = probs.shape
    fast = (probs >= 1e-289) & (probs < 1.0)
    x = np.where(fast, probs, 0.5)
    e = np.negative(np.floor(np.log10(x))).astype(np.intp)
    scaled = x * scale[e]
    m = np.rint(scaled)
    fast &= (m >= 1e11) & (m < 1e12) & (np.abs(scaled - m) < 0.499)
    m[~fast] = 1e11  # any 12-digit value keeps the table indices of Python's cells in range
    high = np.floor(m / 1e6)
    low = m - high * 1e6
    g0, g2 = np.floor(high / 1e3), np.floor(low / 1e3)
    g0, g1, g2, g3 = (g.astype(np.intp) for g in (g0, high - g0 * 1e3, g2, low - g2 * 1e3))
    fast &= g3 != 0
    tail = stripped[g3]
    words = np.zeros((n, k + (labels is not None), 3), "<u8")
    cells = words[:, :k]
    cells[..., 0] = first[row[e], g0]
    cells[..., 1] = digits[g1] | digits[g2] << 24 | tail << 48
    cells[..., 2] = tail >> 16 | exponent[e]
    text = words.view(np.uint8).reshape(n, -1, _SLOT)
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    at_row, at_col = np.nonzero(~fast)
    fields = [b"%.12g" % v for v in probs[at_row, at_col].tolist()]
    if labels is not None:
        at_row = np.concatenate([at_row, np.arange(n)])
        at_col = np.concatenate([at_col, np.full(n, k)])
        fields += [b"%d" % label for label in labels.tolist()]
    if fields:
        text[at_row, at_col, :-1] = np.array(fields, f"S{_SLOT - 1}").view(np.uint8).reshape(-1, _SLOT - 1)
    return text.tobytes().translate(None, b"\0")


def _write_json(data: PredictionSet, path) -> None:
    """The text of ``json.dump(payload)`` and a newline, written a row block at a time.

    Each block's rows are encoded by ``json.dumps``, whose C encoder gives
    the same text as the streaming one that ``json.dump`` uses.
    """
    n, k = data.probs.shape
    labels = None if data.labels is None else data.labels.tolist()
    with open(path, "w") as fh:
        fh.write('{"probs": [')
        for rows in _row_blocks(n, k):
            fh.write((", " if rows.start else "") + json.dumps(data.probs[rows].tolist())[1:-1])
        fh.write('], "labels": ' + json.dumps(labels) + "}\n")


def load_dump(path, renormalize: bool = True) -> PredictionSet:
    """Parse and validate a UTF-8 prediction dump: CSV, or JSON by extension.

    The tolerance is 1e-6 with ``renormalize`` (the default) and 1e-9
    without it. Either way, components in [-tolerance, 0) are clamped
    to zero, a row whose sum is further than it from 1 is rejected, and
    every other row is renormalized. Failures start with ``path`` and
    name the offending CSV file line, or the row index of a JSON dump.
    """
    tolerance = SUM_TOLERANCE if renormalize else STRICT_SUM_TOLERANCE
    is_csv = _format_of(path) == "csv"
    if is_csv and (fast := _load_csv_fast(path, tolerance)) is not None:
        return fast
    lines = None
    try:
        if is_csv:
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


#: Characters of a label's text that the fast path keeps: numpy cuts a
#: longer text silently, so a label that fills them is left to ``_read_csv``.
_LABEL_CHARS = 32


def _load_csv_fast(path, tolerance):
    """The CSV dump as one ``np.loadtxt`` call reads it, or None to leave it to ``_read_csv``.

    Whatever this accepts, ``_read_csv`` accepts with the same bits; any
    doubt returns None. numpy has no quote character, so a quoted field
    fails, and ``comments=None`` keeps ``#`` a bad number. Labels are read
    as text and converted with Python's ``int``, as ``_read_csv`` does, so
    the two share one label rule on every numpy version. A file with no
    data line never reaches numpy. Nothing here changes process state.
    """
    try:
        # a 64 KiB buffer, not 8 KiB: a wide dump's line spans a few reads, not many
        with open(path, "rb", buffering=1 << 16) as fh:
            lines = _lines(fh)
            header = next(lines, b"").decode("utf-8-sig")
            if '"' in header:  # a quoted field may span lines, and csv would read on
                return None
            k, has_label = _read_header(_rows(csv.reader([header])))
            columns = [("p", "f8", (k,))] + ([("label", f"U{_LABEL_CHARS}")] if has_label else [])
            lines = _lines_within(lines, csv.field_size_limit())
            if (first := next((line for line in lines if line.strip(b"\r\n")), None)) is None:
                return None  # no data rows
            lines = itertools.chain([first], lines)
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=columns, ndmin=1, encoding="utf-8")
        texts = table["label"].tolist() if has_label else []
        if texts and max(map(len, texts)) >= _LABEL_CHARS:  # numpy may have cut it
            return None
        labels = [int(text) for text in texts] if has_label else None
        return PredictionSet._trusted(validate_matrix(table["p"], tolerance), labels)
    except (ValueError, AtckitError):  # ValueError covers UnicodeDecodeError
        return None


def _lines(fh):
    """The lines of a binary file as text mode with ``newline=""`` ends them:
    at ``\n``, ``\r\n`` and a lone ``\r``. Binary lines end only at ``\n``,
    and numpy rejects a line with a line break inside, so a line with a
    lone ``\r`` is split there."""
    for line in fh:
        end = len(line) - 2 if line.endswith(b"\r\n") else len(line)
        if line.find(b"\r", 0, end) < 0:
            yield line
        else:
            yield from line.splitlines(keepends=True)


def _lines_within(lines, limit):
    """The lines, one at a time, as numpy reads them. A line longer than
    ``limit`` bytes might hold a field over csv's limit of characters,
    which ``_read_csv`` rejects; a NUL might end a label, which numpy drops
    and ``int`` rejects."""
    for line in lines:
        if len(line) > limit or b"\0" in line:
            raise ParseError("a line is too long or holds a NUL")
        yield line


def _read_csv(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: a leading BOM is dropped
        reader = csv.reader(fh)
        rows = _rows(reader)
        k, has_label = _read_header(rows)
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


def _read_header(rows) -> tuple[int, bool]:
    """The class count and whether a label column follows, from the first row."""
    header = next(rows, None)
    if header is None:
        raise ParseError("empty file")
    header = [h.strip() for h in header]
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
            raise ParseError(f"row {i}: probability {reprlib.repr(bad)} is not a number")
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(probs):
            raise ParseError('"labels" must be null or match "probs" in length')
        for i, label in enumerate(labels):
            if not isinstance(label, int) or isinstance(label, bool):
                raise ParseError(f"row {i}: label {reprlib.repr(label)} is not an integer")
        labels = np.array(labels, dtype=object)  # any width: range-checked before the int64 cast
    try:
        matrix = np.asarray(probs, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"probability out of range: {exc}") from None
    return matrix, labels
