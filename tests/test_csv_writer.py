"""The row-at-a-time CSV writer against the per-cell ``csv.writer`` it replaced.

``_per_cell_csv`` is that writer, kept here as the reference: ``csv.writer``
over the :func:`~entwitness.cli._format_cell` text of every cell.  Tables
are drawn column by column (floats, numpy scalars, ints, bools, strings
that need quoting, and mixed columns); examples are derandomized, so the
suite is deterministic.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import cli

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
TEXTS = ["", "plain", "a,b", 'say "hi"', "two\nlines", ',"\n', "true"]


def _per_cell_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys()) if rows else []
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._format_cell(row[k]) for k in header])
    return buf.getvalue()


floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
numpy_floats = floats.map(np.float64)
ints = st.integers(min_value=-(2**70), max_value=2**70)
numpy_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
texts = st.one_of(st.sampled_from(TEXTS), st.text(alphabet=',"\nab x', max_size=6))
mixed = st.one_of(floats, numpy_floats, ints, numpy_ints, st.booleans(), texts)
COLUMN_KINDS = [floats, numpy_floats, st.one_of(floats, numpy_floats), ints, numpy_ints,
                st.one_of(ints, numpy_ints), st.booleans(), texts, mixed]


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 6))
    header = draw(st.lists(st.one_of(st.sampled_from(TEXTS), st.text(max_size=4)),
                           min_size=n_cols, max_size=n_cols, unique=True))
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in header]
    n_rows = draw(st.integers(0, 20))
    return [{key: draw(kind) for key, kind in zip(header, kinds)} for _ in range(n_rows)]


@SETTINGS
@given(tables())
def test_row_writer_matches_per_cell_writer(rows):
    assert cli._rows_to_csv(rows) == _per_cell_csv(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{"": ""}],
        [{"text": ""}, {"text": "x"}, {"text": ""}],
        [{"a": "", "b": ""}],
        [{"x": 5e-324, "n": np.int64(-3), "flag": True, "kind": 'q"x,\n'}],
        [{"x": 1.0, "y": 2}, {"x": 3, "y": 4.0}],
        [{"f": math.nan}, {"f": -math.inf}, {"f": -0.0}, {"f": 2.2250738585072014e-308}],
    ],
    ids=["empty", "lone-empty-header", "lone-empty-cells", "two-empty-cells", "one-of-each",
         "swapped-types", "edge-floats"],
)
def test_row_writer_edge_tables(rows):
    assert cli._rows_to_csv(rows) == _per_cell_csv(rows)


def test_lone_empty_field_is_quoted():
    assert cli._rows_to_csv([{"s": ""}, {"s": "a"}]) == 's\n""\na\n'


def test_carriage_return_is_quoted_and_reads_back():
    rows = [{"s": "a\rb", "n": 1}]
    text = cli._rows_to_csv(rows)
    assert text == 's,n\n"a\rb",1\n'
    assert list(csv.DictReader(io.StringIO(text, newline=""))) == [{"s": "a\rb", "n": "1"}]
