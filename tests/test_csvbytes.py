"""The vectorised ``%.17e`` of :mod:`entwitness.csvbytes` against Python's own.

``csvbytes.e17`` must print every double exactly as ``'%.17e' % x`` does.
The golden files compare floats to a relative tolerance, so only these
tests catch a wrong last digit.  Each case runs under
``np.errstate(all="raise")``: the kernel may raise no floating-point
warning.  Examples are derandomized, so the suite is deterministic.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from entwitness import cli, csvbytes

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
         math.inf, -math.inf, math.nan, -math.nan, 1e-270, 1e270, np.nextafter(1e-270, 0), np.nextafter(1e270, 0)]


def _texts(x: np.ndarray) -> list[str]:
    with np.errstate(all="raise"):
        cells = csvbytes.e17(x)
    assert cells.shape == (x.size, csvbytes.WIDTH)
    return [bytes(row[row != csvbytes.PAD]).decode("ascii") for row in cells]


def _assert_prints_as_percent(values) -> None:
    x = np.asarray(values, dtype=float)
    assert _texts(x) == ["%.17e" % v for v in x.tolist()]


def _powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf)])


def _below_power_of_ten(x: float, exponent: int) -> bool:
    num, den = x.as_integer_ratio()
    return num * 10 ** max(-exponent, 0) < den * 10 ** max(exponent, 0)


@SETTINGS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_random_bit_patterns(bits):
    _assert_prints_as_percent(np.array(bits, dtype=np.uint64).view(np.float64))


def test_zeros_subnormals_extremes_and_non_finite():
    _assert_prints_as_percent(EDGES)


def test_powers_of_ten_and_their_neighbours():
    x = _powers_of_ten_and_neighbours()
    _assert_prints_as_percent(np.concatenate([x, -x]))


def test_rounding_that_carries_into_the_next_power_of_ten():
    # the largest double below each 10^k; its 18 significant digits round up
    # to 10^k when it lies within 5e-18 relative of it, as the double
    # nearest 1e153 does
    below = []
    for k in range(-307, 309):
        x = float(10**k) if k >= 0 else 1 / 10**-k
        below.append(x if _below_power_of_ten(x, k) else math.nextafter(x, 0))
    carries = [x for x in below if ("%.17e" % x).startswith("1.00000000000000000e")]
    assert 1e153 in carries
    _assert_prints_as_percent(below + [-x for x in below])


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 2**20), st.integers(-70, 70), st.booleans()), min_size=1, max_size=300))
def test_short_dyadics_near_ties(parts):
    _assert_prints_as_percent([math.ldexp(-m if neg else m, k) for m, k, neg in parts])


def test_empty_array():
    assert csvbytes.e17(np.empty(0)).shape == (0, csvbytes.WIDTH)


def test_cli_writes_the_row_paths_bytes_under_raising_errstate(tmp_path, monkeypatch):
    argv = ["jc-thermal", "--nbar", "0.02,1", "--points", "200"]
    with np.errstate(all="raise"):
        assert cli.main(argv + ["--output", str(tmp_path / "bytes.csv")]) == 0
    monkeypatch.setattr(cli, "CSV_BYTES_MIN_FLOAT_CELLS", math.inf)
    assert cli.main(argv + ["--output", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "bytes.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
