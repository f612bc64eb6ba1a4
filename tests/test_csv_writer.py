"""The column CSV writer against the per-cell ``csv.writer`` it replaced.

``_per_cell_csv`` is that writer, kept here as the reference: ``csv.writer``
over the :func:`~entwitness.cli._format_cell` text of every cell, read from
``col.tolist()`` as the JSON writer reads it.  Tables are drawn column by
column, each column an array of one dtype (floats, int64, bools, and strings
that need quoting, as ``str`` or ``object`` arrays); examples are
derandomized, so the suite is deterministic.  Both writer paths are checked:
the row path, which small tables take, and the byte path
(:func:`~entwitness.cli._csv_by_bytes`), called directly whatever the
table's size as well as through the table size that selects it.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import cli, csvbytes

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
TEXTS = ["", "plain", "a,b", 'say "hi"', "two\nlines", ',"\n', "true", "a\rb"]


def _csv_line(fields: list) -> str:
    # with CR in the line terminator, csv.writer quotes a field holding a CR
    # on every Python, as it does from 3.13 on and as cli._csv_quote does
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def _per_cell_csv(columns: dict) -> str:
    rows = zip(*(col.tolist() for col in columns.values()))
    return _csv_line(list(columns)) + "".join(_csv_line([cli._format_cell(v) for v in row]) for row in rows)


floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
texts = st.one_of(st.sampled_from(TEXTS), st.text(alphabet=',"\r\nab x', max_size=6))
COLUMN_KINDS = [(floats, float), (ints, np.int64), (st.booleans(), bool), (texts, str), (texts, object)]


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 6))
    header = draw(st.lists(st.one_of(st.sampled_from(TEXTS), st.text(max_size=4)),
                           min_size=n_cols, max_size=n_cols, unique=True))
    n_rows = draw(st.integers(0, 20))
    columns = {}
    for key in header:
        values, dtype = draw(st.sampled_from(COLUMN_KINDS))
        columns[key] = np.array([draw(values) for _ in range(n_rows)], dtype=dtype)
    return columns


@SETTINGS
@given(tables())
def test_row_writer_matches_per_cell_writer(columns):
    assert cli._columns_to_csv(columns) == _per_cell_csv(columns)


@pytest.mark.parametrize(
    "columns",
    [
        {},
        {"": np.array([""])},
        {"text": np.array(["", "x", ""])},
        {"a": np.array([""]), "b": np.array([""])},
        {"x": np.array([5e-324]), "n": np.array([-3]), "flag": np.array([True]),
         "kind": np.array(['q"x,\n'])},
        {"f": np.array([math.nan, -math.inf, -0.0, 2.2250738585072014e-308])},
    ],
    ids=["empty", "lone-empty-header", "lone-empty-cells", "two-empty-cells", "one-of-each",
         "edge-floats"],
)
def test_row_writer_edge_tables(columns):
    assert cli._columns_to_csv(columns) == _per_cell_csv(columns)


def test_lone_empty_field_is_quoted():
    assert cli._columns_to_csv({"s": np.array(["", "a"])}) == 's\n""\na\n'


def test_carriage_return_is_quoted_and_reads_back():
    columns = {"s": np.array(["a\rb"]), "n": np.array([1])}
    text = cli._columns_to_csv(columns)
    assert text == 's,n\n"a\rb",1\n'
    assert list(csv.DictReader(io.StringIO(text, newline=""))) == [{"s": "a\rb", "n": "1"}]


@SETTINGS
@given(tables())
def test_byte_writer_matches_per_cell_writer(columns):
    assert cli._csv_by_bytes(columns) == _per_cell_csv(columns)


def _large_table_of_every_kind() -> dict:
    n = cli.CSV_BYTES_MIN_FLOAT_CELLS
    texts = TEXTS + ["\u00e9t\u00e9 \u2014 \U0001f600", "\ud800", "x\udfffy", "\r", "\x00"]
    mixed = [True, 1, "1", 0, False, "true", -0.0, 0.0, math.nan, 1.5, None, "a,b"]
    return {
        "x": np.array((EDGE_FLOATS + [1e153, -1e-300, 0.1, 1e22]) * n)[:n],
        "n": np.arange(n, dtype=np.int64) * (-(2**40) + 7),
        "u": np.arange(n, dtype=np.uint64) * np.uint64(2**60),
        "flag": np.arange(n) % 3 == 0,
        "text": np.array((texts * n)[:n]),
        "kind": np.array((mixed * n)[:n], dtype=object),
        "f32": np.linspace(-1, 1, n, dtype=np.float32),
    }


def test_large_table_of_every_column_kind_takes_the_byte_path(monkeypatch):
    columns = _large_table_of_every_kind()
    want = _per_cell_csv(columns)
    assert cli._csv_by_rows(columns) == want
    assert cli._csv_by_bytes(columns) == want
    monkeypatch.setattr(csvbytes, "CHUNK_ROWS", 64)  # 200 rows in 4 chunks
    monkeypatch.setattr(cli, "_csv_by_rows", lambda columns: pytest.fail("a large table took the row path"))
    assert cli._columns_to_csv(columns) == want


@pytest.mark.parametrize("texts", [[""], ["\r", "", "\u00e9", "\ud800"]], ids=["empty", "mixed"])
def test_byte_writer_lone_text_column(texts):
    columns = {"s": np.array(texts * cli.CSV_BYTES_MIN_FLOAT_CELLS)}
    assert cli._csv_by_bytes(columns) == _per_cell_csv(columns)
