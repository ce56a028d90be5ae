"""Dump serialization: round trips and row-level diagnostics."""

import dataclasses
import io
import json
import re
import reprlib
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from atckit import (
    AtckitError,
    DimensionError,
    GeneratorSpec,
    NotOnSimplexError,
    ParseError,
    PredictionSet,
    generate,
    load_dump,
    validate_matrix,
    write_dump,
)
from atckit.io import STRICT_SUM_TOLERANCE, _load_csv_fast, _read_csv, _text_tables
from atckit.simplex import _BLOCK_CELLS, SUM_TOLERANCE, _row_blocks

from oracles import csv_dump_text, csv_text_tables


#: (file name, contents, where the bad row is named): diagnostics start
#: with the path, then name the file line of a CSV or the row index of a JSON.
BAD_ROWS = [
    ("far.csv", "p0,p1\n0.5,0.5\n0.5,0.6\n", "line 3"),
    ("blanks.csv", "p0,p1\n\n0.5,0.5\n\n0.5,0.5\n0.5,0.6\n", "line 6"),
    ("nan.csv", "p0,p1\n0.5,0.5\n0.5,0.5\nnan,0.5\n", "line 4"),
    ("far.json", '{"probs": [[0.5, 0.5], [0.5, 0.6]]}', "row 1"),
]


#: (file name, contents, the error after the path) of dumps that are not
#: UTF-8 or hold a probability that is not a JSON number.
UNREADABLE = [
    ("byte.csv", b"p0,p1,label\n0.5,0.5,0\n0.5,0.\xff5,1\n", "not UTF-8 text (byte 0xff)"),
    ("byte.json", b'\xff{"probs": [[0.5, 0.5]]}', "not UTF-8 text (byte 0xff)"),
    ("str.json", b'{"probs": [["0.5","0.5"],["0.25","0.75"]], "labels": [0,1]}',
     "row 0: probability '0.5' is not a number"),
    ("bool.json", b'{"probs": [[0.5,0.5],[true,false]], "labels": [0,1]}',
     "row 1: probability True is not a number"),
    ("null.json", b'{"probs": [[0.5,0.5],[0.5,null]]}', "row 1: probability None is not a number"),
    ("huge.json", b'{"probs": [[1' + b"0" * 400 + b', 0.5]]}', "probability out of range"),
    ("empty.json", b'{"probs": []}', '"probs" must be a non-empty list of rows'),
    ("deep.json", b"[" * 200_000,
     "invalid JSON: maximum recursion depth exceeded while decoding a JSON array"),
    ("wide.csv", b"p0,p1,label\n0.5,0.5,0\n0.5," + b"0" * 140_000 + b"5,1\n",
     "line 3: field larger than field limit (131072)"),
]


#: A probability written with 140000 zeros: a valid number in a field over csv's limit.
_WIDE = "0.5" + "0" * 140_000

#: (file name, contents, the error after the path) of CSV dumps whose fault shows
#: only after the text is parsed; each names the file line the line parser reads.
DIAGNOSED_AFTER_PARSE = [
    ("blank-then-far.csv", "p0,p1\n0.5,0.5\n\n0.5,0.6\n",
     "line 4: components sum to 1.1, further than 1e-06 from 1"),
    ("crlf-label.csv", "p0,p1,label\r\n0.5,0.5,0\r\n0.5,0.5,2\r\n", "line 3: label 2 outside [0, 2)"),
    ("wide-last.csv", f"p0,p1,label\n0.5,0.5,0\n0.5,{_WIDE},1",
     "line 3: field larger than field limit (131072)"),
    ("wide-first.csv", f"p0,p1,label\n0.5,{_WIDE},1\n0.5,0.5,0\n",
     "line 2: field larger than field limit (131072)"),
    # numpy cuts a label's text to the width of its field and drops a trailing NUL
    ("wide-label.csv", "p0,p1,label\n0.5,0.5,0\n0.5,0.5," + "0" * 40 + "2\n", "line 3: label 2 outside [0, 2)"),
    ("nul-label.csv", "p0,p1,label\n0.5,0.5,1\0\n", "line 2: label '1\\x00' is not an integer"),
]


def _field(draw, lines, first=1):
    """(line, column) of a field on a line from ``first`` on, or None if there is none."""
    fields = [(i, j) for i in range(first, len(lines)) for j in range(len(lines[i]))]
    return draw(st.sampled_from(fields)) if fields else None


def _pad(draw, lines):
    if at := _field(draw, lines, first=0):
        i, j = at
        before, after = draw(st.sampled_from([" ", "\t", " \t"])), draw(st.sampled_from(["", " ", "\t"]))
        lines[i][j] = before + lines[i][j] + after


def _quote(draw, lines):
    if at := _field(draw, lines, first=0):
        i, j = at
        lines[i][j] = f'"{lines[i][j]}"'


def _blank_line(draw, lines):
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from([[], [" "], ["\t"], [" \t "]])))


def _odd_label(draw, lines):
    if lines[0][-1] == "label" and (at := _field(draw, lines)):
        # U+0663: Arabic 3; the zero-padded 1 is wider than the fast path's label text
        lines[at[0]][-1] = draw(st.sampled_from(["1.0", "1e0", "+1", "\u0663", "1_0", "0" * 40 + "1"]))


def _labeled_row(draw, lines):
    """A data line's fields, after giving an unlabeled dump a column of 0 labels; or None."""
    if lines[0][-1] != "label":
        lines[0].append("label")
        for line in lines[1:]:
            line.append("0")
    at = _field(draw, lines)
    return at and lines[at[0]]


def _wide_label(draw, lines):
    if row := _labeled_row(draw, lines):
        # wider than the fast path's label text: numpy would cut it to zeros and read 0
        row[-1] = "0" * 40 + "1"


def _nul_label(draw, lines):
    if row := _labeled_row(draw, lines):
        # numpy would drop the NUL and read the label; int rejects it
        row[-1] += "\x00"


def _underscore_probability(draw, lines):
    if at := _field(draw, lines):
        lines[at[0]][0] = "1_0"


def _trailing_comma(draw, lines):
    if at := _field(draw, lines):
        lines[at[0]].append("")


def _missing_field(draw, lines):
    if at := _field(draw, lines):
        lines[at[0]].pop()


def _nul(draw, lines):
    if at := _field(draw, lines):
        i, j = at
        lines[i][j] += "\x00"


def _header_only(draw, lines):
    del lines[1:]


#: Edits of a dump's lines (lists of fields) on which the two CSV parsers may part.
MUTATIONS = [
    _pad, _quote, _blank_line, _odd_label, _underscore_probability,
    _trailing_comma, _missing_field, _nul, _header_only, _wide_label, _nul_label,
]


@st.composite
def _dump_sets(draw):
    """Labeled or unlabeled sets, k in [2, 50], with zeros, -0.0, subnormals and vertices."""
    k = draw(st.integers(2, 50))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.full(k, draw(st.sampled_from([0.02, 1.0, 30.0]))), n)
    special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    for row in rows:
        kind = draw(st.sampled_from(["dirichlet", "vertex", "special"]))
        if kind == "vertex":
            row[:] = draw(st.sampled_from([0.0, -0.0]))
            row[draw(st.integers(0, k - 1))] = 1.0
        elif kind == "special":
            keep, *cols = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=k, unique=True))
            row[cols] = [draw(st.sampled_from(special)) for _ in cols]
            row[keep] += 1.0
            row /= row.sum()
    labels = rng.integers(0, k, n) if draw(st.booleans()) else None
    return PredictionSet(rows, labels)


@pytest.fixture
def sample(tmp_path):
    data = generate(GeneratorSpec(k=4, n=120, target_accuracy=0.7, seed=5))
    return data, tmp_path


#: (rows, k) of sets that span more than one row block of the writer:
#: 70 rows at k = 1000, and 2 rows each wider than a whole block.
BLOCK_CROSSING = [(70, 1000), (2, _BLOCK_CELLS + 7)]


def _block_crossing_set(n, k):
    """A labeled Dirichlet set of that shape with a 0, a -0.0, a subnormal and a vertex row."""
    rng = np.random.default_rng(k)
    rows = rng.dirichlet(np.full(k, 0.5), n)
    rows[0, :3] = [0.0, -0.0, 5e-324]
    rows[0] /= rows[0].sum()
    rows[-1] = 0.0
    rows[-1, k // 2] = 1.0
    return PredictionSet(rows, rng.integers(0, k, n))


def _first_difference(written: str, wanted: str) -> str:
    """Where two unequal texts part, for an assert that compares them outside
    itself: pytest's diff of two megabyte strings takes minutes."""
    at = next((i for i, (a, b) in enumerate(zip(written, wanted)) if a != b), min(len(written), len(wanted)))
    return f"first difference at {at}: {written[at:at + 30]!r} != {wanted[at:at + 30]!r}"


def _round_trip_error_within_bound(written, loaded):
    """Each loaded component lies within what 12 significant digits and renormalisation allow.

    Writing moves a component p by at most 5e-12 p, and parsing by half an
    ulp (or half the subnormal spacing). The sum of the written row is then
    within 5e-12 plus k roundings of 1, and dividing by it moves each
    component by that much relative again.
    """
    k = written.shape[1]
    bound = written * (1.1e-11 + (k + 4) * 2.0**-52) + 5e-324
    return bool(np.all(np.abs(loaded - written) <= bound))


class TestRoundTrip:
    def test_csv_round_trip_within_1e9(self, sample):
        data, tmp = sample
        path = tmp / "dump.csv"
        write_dump(data, path)
        loaded = load_dump(path)
        assert loaded.k == data.k and len(loaded) == len(data)
        assert np.max(np.abs(loaded.probs - data.probs)) <= 1e-9
        assert np.array_equal(loaded.labels, data.labels)

    def test_json_round_trip(self, sample):
        data, tmp = sample
        path = tmp / "dump.json"
        write_dump(data, path)
        loaded = load_dump(path)
        assert np.max(np.abs(loaded.probs - data.probs)) <= 1e-9
        assert np.array_equal(loaded.labels, data.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        data = generate(GeneratorSpec(k=3, n=10, target_accuracy=0.9, seed=1))
        unlabeled = type(data)(data.probs)  # drop labels
        path = tmp_path / "u.csv"
        write_dump(unlabeled, path)
        assert load_dump(path).labels is None

    @given(_dump_sets())
    @settings(max_examples=100, deadline=None)
    def test_writers_match_per_element_formatting(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, json_path = Path(tmp) / "d.csv", Path(tmp) / "d.json"
            write_dump(data, csv_path)
            write_dump(data, json_path)
            assert csv_path.read_text() == csv_dump_text(data.probs, data.labels)
            payload = {
                "probs": [[float(x) for x in row] for row in data.probs],
                "labels": None if data.labels is None else [int(x) for x in data.labels],
            }
            assert json_path.read_text() == json.dumps(payload) + "\n"

    def test_strict_mode_round_trips_own_output(self, sample):
        # 12 significant digits keep the sum within the strict 1e-9 window
        data, tmp = sample
        path = tmp / "dump.csv"
        write_dump(data, path)
        loaded = load_dump(path, renormalize=False)
        assert np.max(np.abs(loaded.probs - data.probs)) <= 1e-9

    @given(_dump_sets())
    @settings(max_examples=100, deadline=None)
    def test_csv_round_trip_within_12_digit_bound(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            write_dump(data, path)
            loaded = load_dump(path)
        assert loaded.probs.shape == data.probs.shape
        assert (loaded.labels is None) if data.labels is None else loaded.labels.tolist() == data.labels.tolist()
        assert _round_trip_error_within_bound(data.probs, loaded.probs)

    @pytest.mark.parametrize("n, k", BLOCK_CROSSING)
    def test_block_crossing_shapes_write_per_element_and_round_trip(self, tmp_path, n, k):
        assert len(list(_row_blocks(n, k))) > 1
        data = _block_crossing_set(n, k)
        path = tmp_path / "wide.csv"
        write_dump(data, path)
        written, wanted = path.read_text(), csv_dump_text(data.probs, data.labels)
        same = written == wanted
        assert same, _first_difference(written, wanted)
        loaded = load_dump(path)
        assert loaded.probs.shape == (n, k) and loaded.labels.tolist() == data.labels.tolist()
        assert _round_trip_error_within_bound(data.probs, loaded.probs)


def _written(rows, labels=None) -> str:
    """The CSV text ``write_dump`` gives for ``rows`` as they are, not validated."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dump(PredictionSet._trusted(rows, labels), path)
        return path.read_text()


def _decimal_ties(rng, count) -> list[float]:
    """13-digit decimals ending in 5 at exponents down to 1e-322: each is a
    rounding tie at the 12th digit, and its nearest double lies just off it."""
    digits = rng.integers(10**11, 10**12, size=count).tolist()
    exponents = rng.integers(12, 323, size=count).tolist()
    return [float(f"{d}5e-{e}") for d, e in zip(digits, exponents)]


def _adversarial_values() -> list[float]:
    """Values in [0, 1] on which a 12-digit formatter can go wrong.

    0, -0.0, 1 and subnormals; every 2**-n, many of them exact decimal
    ties at the 12th digit; 30 neighbours on either side of every
    10**-n, which all round to it (those below carry across a power of
    ten); values that round up to 1e-4 (the switch to fixed notation) and
    to 1; and 13-digit decimal ties.
    """
    values = [0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308]
    values += [9.99999999999951e-05, 9.9999999999995e-05, 9.99999999999949e-05, 0.99999999999951, 0.9999999999995]
    values += [2.0**-n for n in range(1, 1075)]
    for n in range(1, 324):
        below = above = 10.0**-n
        for _ in range(30):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            values += [float(below), float(above)]
    return values + _decimal_ties(np.random.default_rng(15), 3000)


ADVERSARIAL = _adversarial_values()


@st.composite
def _hard_floats(draw):
    """A value of [0, 1], or one just above 1: any float, a listed adversarial one or a neighbour of 10**-n."""
    kind = draw(st.sampled_from(["any", "listed", "decade"]))
    if kind == "any":
        return draw(st.floats(0.0, 1.0))
    if kind == "listed":
        return draw(st.sampled_from(ADVERSARIAL))
    return float(10.0 ** -draw(st.integers(0, 323)) * (1.0 + draw(st.integers(-64, 64)) * 2.0**-52))


class TestCsvWriter:
    """The block formatter gives the bytes of Python's ``%.12g``, cell for cell."""

    def test_adversarial_values_format_as_percent_g(self):
        rows = np.array(ADVERSARIAL + [0.5] * (-len(ADVERSARIAL) % 97)).reshape(-1, 97)
        written, wanted = _written(rows), csv_dump_text(rows, None)
        same = written == wanted
        assert same, _first_difference(written, wanted)

    @given(st.lists(_hard_floats(), max_size=60), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_cells_format_as_percent_g(self, values, seed):
        # about 1 in 100 decimal ties needs the margin to the tie, so each row holds 32 of them
        rows = np.array([values + _decimal_ties(np.random.default_rng(seed), 32)])
        labels = np.array([seed % rows.shape[1]])
        assert _written(rows, labels) == csv_dump_text(rows, labels)


def _json_cells_set(n, k, labeled):
    """A Dirichlet set of that shape whose first rows hold 0, -0.0 and 5e-324, each beside a 1.0."""
    rng = np.random.default_rng(k)
    rows = rng.dirichlet(np.full(k, 0.5), n)
    for i, cell in enumerate([0.0, -0.0, 5e-324]):
        rows[i] = 0.0
        rows[i, [0, -1]] = [cell, 1.0]
    data = PredictionSet(rows, rng.integers(0, k, n) if labeled else None)
    assert [x.hex() for x in data.probs[:3, 0].tolist()] == ["0x0.0p+0", "-0x0.0p+0", "0x0.0000000000001p-1022"]
    return data


    def test_text_tables_equal_a_plain_python_build(self):
        for built, reference in zip(_text_tables(), csv_text_tables(), strict=True):
            assert built.dtype == reference.dtype and built.shape == reference.shape
            assert built.tobytes() == reference.tobytes()


class TestJsonWriter:
    """The block writer gives the bytes of one ``json.dump`` call, whatever the blocks."""

    @pytest.mark.parametrize("labeled", [True, False], ids=["labels", "no-labels"])
    @pytest.mark.parametrize("n, k", [(_BLOCK_CELLS // 2 + 1, 2), (_BLOCK_CELLS // 1000 + 2, 1000)])
    def test_matches_json_dump(self, tmp_path, n, k, labeled):
        assert len(list(_row_blocks(n, k))) > 1
        data = _json_cells_set(n, k, labeled)
        path = tmp_path / "d.json"
        write_dump(data, path)
        expected = io.StringIO()
        labels = None if data.labels is None else data.labels.tolist()
        json.dump({"probs": data.probs.tolist(), "labels": labels}, expected)
        written, wanted = path.read_text(), expected.getvalue() + "\n"
        same = written == wanted
        assert same, _first_difference(written, wanted)


class TestParsing:
    def test_minimal_two_column_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("p0,p1\n0.9,0.1\n")
        data = load_dump(path)
        assert len(data) == 1 and data.k == 2
        assert data.probs.tolist() == [[0.9, 0.1]]

    def test_near_simplex_row_renormalized(self, tmp_path):
        path = tmp_path / "near.csv"
        path.write_text("p0,p1\n0.6000004,0.4\n")
        data = load_dump(path)
        assert abs(data.probs[0].sum() - 1.0) <= 1e-12

    def test_far_row_rejected_with_line_number(self, tmp_path):
        for name, text, where in BAD_ROWS:
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(NotOnSimplexError, match=f"^{re.escape(str(path))}: {where}: "):
                load_dump(path)

    def test_clamped_negatives_accepted_like_prediction_set(self, tmp_path):
        # each component is within the tolerance of 0, so it clamps before the sum check
        row = [0.5, 0.5, -9e-7, -9e-7]
        path = tmp_path / "edge.csv"
        path.write_text("p0,p1,p2,p3\n" + ",".join(map(str, row)) + "\n")
        assert np.array_equal(load_dump(path).probs, PredictionSet([row]).probs)

    def test_strict_mode_rejects_what_renormalize_allows(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text("p0,p1\n0.6000004,0.4\n")
        load_dump(path, renormalize=True)
        with pytest.raises(NotOnSimplexError, match="line 2"):
            load_dump(path, renormalize=False)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.5,0.5\n")
        with pytest.raises(ParseError):
            load_dump(path)

    def test_single_probability_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p0\n1.0\n")
        with pytest.raises(ParseError):
            load_dump(path)

    def test_field_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("p0,p1\n0.5,0.5\n0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dump(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("p0,p1\n0.5,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dump(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("p0,p1,label\n0.5,0.5,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dump(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("p0,p1,label\n0.5,0.5,zero\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dump(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dump(path)

    @pytest.mark.parametrize(
        "name, text, reason",
        [
            ("empty.csv", "", "empty file"),
            ("ragged.csv", "p0,p1\n0.5,0.5\n0.5\n", "line 3: expected 2 fields, got 1"),
            ("bad.json", "{", "invalid JSON"),
        ],
        ids=["empty", "ragged", "bad-json"],
    )
    def test_parse_errors_start_with_the_path(self, tmp_path, name, text, reason):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {reason}')}"):
            load_dump(path)

    @pytest.mark.parametrize("name, content, reason", UNREADABLE, ids=[u[0] for u in UNREADABLE])
    def test_undecodable_or_non_numeric_entry_is_a_parse_error(self, tmp_path, name, content, reason):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {reason}')}"):
            load_dump(path)

    def test_strict_sums_still_renormalize(self, tmp_path):
        # --strict-sums tightens the tolerance; a row within it is still repaired
        path = tmp_path / "near.csv"
        path.write_text("p0,p1\n0.6000000004,0.4\n")
        data = load_dump(path, renormalize=False)
        assert data.probs.sum() == 1.0 and data.probs[0, 0] < 0.6000000004

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("p0,p1\n")
        with pytest.raises(ParseError):
            load_dump(path)


class TestJsonParsing:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_dump(path)

    def test_missing_probs_key(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ParseError):
            load_dump(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"probs": [[0.5, 0.5], [1.0]]}')
        with pytest.raises(ParseError):
            load_dump(path)

    def test_label_length_mismatch(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"probs": [[0.5, 0.5]], "labels": [0, 1]}')
        with pytest.raises(ParseError):
            load_dump(path)

    def test_non_integer_json_label(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"probs": [[0.5, 0.5]], "labels": [0.5]}')
        with pytest.raises(ParseError):
            load_dump(path)

    @pytest.mark.parametrize("label", [5, -1, 10**50])
    def test_label_out_of_range_named_as_in_csv(self, tmp_path, label):
        # the same class and words as the CSV's, the label bounded by reprlib as the type message is
        rows = [(0.9, 0.1, 0), (0.5, 0.5, 1), (0.2, 0.8, label)]
        json_path, csv_path = tmp_path / "lab.json", tmp_path / "lab.csv"
        json_path.write_text(json.dumps({"probs": [r[:2] for r in rows], "labels": [r[2] for r in rows]}))
        csv_path.write_text("p0,p1,label\n" + "".join("%r,%r,%d\n" % r for r in rows))
        for path, where in ((json_path, "row 2"), (csv_path, "line 4")):
            message = f"{path}: {where}: label {reprlib.repr(label)} outside [0, 2)"
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                load_dump(path)

    @pytest.mark.parametrize(
        "probs, error, message",
        [
            ([[0.5, 0.5], [1.0]], ParseError, "row 1: ragged or non-list probability row"),
            ([[0.5, 0.5], [0.5, "0.5"]], ParseError, "row 1: probability '0.5' is not a number"),
            ([[1.0], [1.0]], DimensionError, "probability vectors need k >= 2 components, got k=1"),
        ],
    )
    def test_faults_before_an_out_of_range_label_still_come_first(self, tmp_path, probs, error, message):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"probs": probs, "labels": [0, 7]}))
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dump(path)


class TestTrustedPath:
    """A dump's rows are validated once and kept bit for bit from there on."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("renormalize, tolerance", [(True, SUM_TOLERANCE), (False, STRICT_SUM_TOLERANCE)])
    def test_load_validates_parsed_rows_exactly_once(self, tmp_path, fmt, renormalize, tolerance):
        data = generate(GeneratorSpec(k=3, n=200, target_accuracy=0.8, seed=0))
        path = tmp_path / f"d.{fmt}"
        write_dump(data, path)
        if fmt == "csv":
            lines = path.read_text().splitlines()[1:]
            parsed = np.array([[float(x) for x in line.split(",")[:3]] for line in lines])
        else:
            parsed = np.array(json.loads(path.read_text())["probs"])
        once = validate_matrix(parsed, tolerance)
        # a second validation would move bits, so the test can tell one from two
        assert not np.array_equal(validate_matrix(once, tolerance), once)
        loaded = load_dump(path, renormalize=renormalize)
        assert loaded.probs.tobytes() == once.tobytes()
        assert not loaded.probs.flags.writeable and not loaded.labels.flags.writeable

    def test_fields_are_probs_and_labels(self):
        assert [f.name for f in dataclasses.fields(PredictionSet)] == ["probs", "labels"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_order_mark_is_ignored(self, sample, fmt):
        data, tmp = sample
        plain, marked = tmp / f"plain.{fmt}", tmp / f"bom.{fmt}"
        write_dump(data, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_dump(plain), load_dump(marked)
        assert a.probs.tobytes() == b.probs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_json_label_beyond_int64_is_out_of_range(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"probs": [[0.6, 0.4], [0.3, 0.7]], "labels": [0, 99999999999999999999999]}')
        message = f"{path}: row 1: label 99999999999999999999999 outside [0, 2)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_dump(path)


class TestCsvFastPath:
    """numpy's loader gives the line parser's bits, or leaves the file to it."""

    @given(_dump_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_line_parser_or_defers(self, data, draws):
        # warnings are errors inside the example only: a failing example then
        # reports itself, where a filterwarnings mark also turned a warning of
        # hypothesis's own failure report into a pytest internal error
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("error")
            path = Path(tmp) / "d.csv"
            write_dump(data, path)
            lines = [line.split(",") for line in path.read_text().splitlines()]
            edits = draws.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
            for edit in edits:
                edit(draws.draw, lines)
            ending = draws.draw(st.sampled_from(["\n", "\r\n", "\r"]))
            bom = draws.draw(st.sampled_from(["", "\ufeff"]))
            last = draws.draw(st.sampled_from([ending, ""]))
            text = bom + ending.join(",".join(line) for line in lines) + last
            path.write_text(text, encoding="utf-8", newline="")
            tolerance = draws.draw(st.sampled_from([SUM_TOLERANCE, STRICT_SUM_TOLERANCE]))
            fast = _load_csv_fast(path, tolerance)
            if set(edits) == {_pad}:  # padding, line endings, a BOM and the last newline never defer
                assert fast is not None
            if fast is not None:
                probs, labels, _ = _read_csv(path)
                slow = validate_matrix(probs, tolerance)
                assert fast.probs.shape == slow.shape and fast.probs.tobytes() == slow.tobytes()
                assert fast.labels is None if labels is None else fast.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("edit", MUTATIONS, ids=lambda edit: edit.__name__)
    def test_each_edit_alone_equals_line_parser_or_defers(self, tmp_path, edit, labeled):
        # every edit once, whatever hypothesis draws above: each draw takes its simplest choice
        data = PredictionSet([[0.5, 0.3, 0.2], [0.0, 1.0, 0.0], [0.1, 0.1, 0.8]], [0, 1, 2] if labeled else None)
        path = tmp_path / "d.csv"
        write_dump(data, path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        edit(lambda strategy: find(strategy, lambda _: True, settings=settings(database=None)), lines)
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8", newline="")
        fast = _load_csv_fast(path, SUM_TOLERANCE)
        if edit in (_wide_label, _nul_label):
            assert fast is None
        if edit is _pad:
            assert fast is not None
        if fast is not None:
            probs, labels, _ = _read_csv(path)
            assert fast.probs.tobytes() == validate_matrix(probs).tobytes()
            assert fast.labels is None if labels is None else fast.labels.tolist() == labels.tolist()

    def test_takes_a_wide_dump_with_the_same_bits(self, tmp_path):
        data = generate(GeneratorSpec(k=1000, n=20, target_accuracy=0.7, seed=3))
        path = tmp_path / "wide.csv"
        write_dump(data, path)
        fast = _load_csv_fast(path, SUM_TOLERANCE)
        probs, labels, _ = _read_csv(path)
        assert fast.probs.tobytes() == validate_matrix(probs).tobytes()
        assert fast.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize(
        "endings, bom, last",
        [(["\r"], "", True), (["\r"], "\ufeff", False), (["\r", "\n", "\r\n"], "", True),
         (["\r\n", "\r", "\r", "\n"], "\ufeff", False), (["\n", "\r\n"], "", True)],
        ids=["cr", "cr-bom-unended", "cr-lf-crlf", "crlf-cr-cr-lf-bom-unended", "lf-crlf"],
    )
    def test_any_mix_of_line_endings_takes_the_fast_path(self, tmp_path, endings, bom, last):
        # a binary line ends only at LF: one with a lone CR inside is split where text mode ends lines
        data = generate(GeneratorSpec(k=1000, n=24, target_accuracy=0.7, seed=8))
        path = tmp_path / "mixed.csv"
        write_dump(data, path)
        lines = path.read_text().splitlines()
        lines.insert(5, "")  # a blank line
        text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        path.write_text(bom + (text if last else text.rstrip("\r\n")), encoding="utf-8", newline="")
        fast = _load_csv_fast(path, SUM_TOLERANCE)
        assert fast is not None
        probs, labels, _ = _read_csv(path)
        assert fast.probs.tobytes() == validate_matrix(probs).tobytes()
        assert fast.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize(
        "name, text, reason", DIAGNOSED_AFTER_PARSE, ids=[d[0] for d in DIAGNOSED_AFTER_PARSE]
    )
    def test_errors_after_the_parse_name_the_file_line(self, tmp_path, name, text, reason):
        path = tmp_path / name
        path.write_bytes(text.encode())
        with pytest.raises(AtckitError) as raised:
            load_dump(path)
        assert str(raised.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("label", ["1.0", "1e0"])
    def test_float_label_rejected_when_numpy_parses_it_with_a_warning(self, tmp_path, label):
        # numpy 1.x reads "1.0" as an int64 label and only warns that this is deprecated
        real, calls = np.loadtxt, []

        def numpy1_loadtxt(lines, *, dtype, **kwargs):
            calls.append(dtype)
            table = real(lines, dtype=[(name, "f8", *shape) for name, _, *shape in dtype], **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return table.astype(dtype)

        path = tmp_path / "float-label.csv"
        path.write_text(f"p0,p1,label\n0.5,0.5,{label}\n")
        with mock.patch.object(np, "loadtxt", numpy1_loadtxt):
            with pytest.raises(ParseError) as raised:
                load_dump(path)
        assert calls and str(raised.value) == f"{path}: line 2: label {label!r} is not an integer"

    def test_threads_leave_the_warning_filters_as_they_were(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("p0,p1,label\n" + "0.5,0.5,1\n" * 200)
        before, loaded = list(warnings.filters), []

        def load_many():
            for _ in range(20):
                loaded.append(len(load_dump(path)))

        threads = [threading.Thread(target=load_many) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert loaded == [200] * 80 and warnings.filters == before

    def test_warnings_of_other_threads_stay_as_filtered(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("p0,p1,label\n" + "0.5,0.5,1\n" * 2000)
        done, raised = threading.Event(), []

        def warn_until_done():
            while not done.is_set():
                try:
                    warnings.warn("harmless", UserWarning)
                except Warning as exc:
                    raised.append(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            thread = threading.Thread(target=warn_until_done)
            thread.start()
            try:
                loaded = [len(load_dump(path)) for _ in range(30)]
            finally:
                done.set()
                thread.join(timeout=60)
        assert not thread.is_alive() and loaded == [2000] * 30
        assert not raised, f"{len(raised)} warnings raised in the other thread"
