import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entwitness import cli, families, search, witnesses
from entwitness.search import threshold_scan


def test_locates_known_root():
    got = threshold_scan(lambda x: x**2 > 2.0, 0.0, 3.0, 1e-8)
    assert abs(got - math.sqrt(2)) < 1e-7


def test_direction_does_not_matter():
    got = threshold_scan(lambda x: x < 1.5, 0.0, 3.0, 1e-6)
    assert abs(got - 1.5) < 1e-5


def test_rejects_constant_predicate():
    with pytest.raises(ValueError):
        threshold_scan(lambda x: True, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        threshold_scan(lambda x: False, 0.0, 1.0, 1e-6)


def test_rejects_bad_bracket_and_tolerance():
    with pytest.raises(ValueError):
        threshold_scan(lambda x: x > 0.5, 1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        threshold_scan(lambda x: x > 0.5, 0.0, 1.0, 0.0)


# --- margins and the bracket ----------------------------------------------

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def plain_bisection(predicate, lo, hi, tol, max_iter=200):
    """The scan as bisection alone, with one predicate call per midpoint: the oracle."""
    p_lo = bool(predicate(lo))
    assert p_lo != bool(predicate(hi))
    for _ in range(max_iter):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if bool(predicate(mid)) == p_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def logged(fn):
    calls = []

    def predicate(s):
        calls.append(s)
        return fn(s)

    return predicate, calls


def midpoints(lo, hi, tol):
    """n, the number of midpoints bisection walks on [lo, hi] to ``tol``."""
    n = 0
    while hi - lo >= tol:
        hi, n = 0.5 * (lo + hi), n + 1
    return n


# each shape is strictly increasing in d = s - root and has the sign of d
SHAPES = {
    "linear": lambda d, k: k * d,
    "cubic": lambda d, k: k * d**3,
    "root": lambda d, k: math.copysign(abs(d) ** (1 / k), d),
    "power": lambda d, k: math.copysign(abs(d) ** k, d),
    "tanh": lambda d, k: math.tanh(k * d),
    "linear+cubic": lambda d, k: d + k * d**3,
}


@SETTINGS
@given(
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
    st.floats(1e-6, 1.0 - 1e-6),
    st.sampled_from(sorted(SHAPES)),
    st.floats(1.0, 5.0),
    st.booleans(),
    st.floats(-12.0, -1.0),
)
def test_a_margin_gives_the_boolean_scan_bits(lo, width, at, shape, k, rising, log_tol):
    hi = lo + width
    root = lo + at * width
    sign = 1.0 if rising else -1.0

    def margin(s):
        return sign * SHAPES[shape](s - root, k)

    tol = 10.0**log_tol
    assume(bool(margin(lo) > 0) != bool(margin(hi) > 0))  # not a root rounded onto an end
    got = threshold_scan(margin, lo, hi, tol)
    assert got == threshold_scan(lambda s: margin(s) > 0, lo, hi, tol)
    assert got == plain_bisection(lambda s: margin(s) > 0, lo, hi, tol)


@pytest.mark.parametrize("verdict", [np.bool_, bool])
def test_a_boolean_predicate_is_called_where_bisection_calls_it(verdict):
    want, want_calls = logged(lambda s: s**3 > 0.3)
    got, got_calls = logged(lambda s: verdict(s**3 > 0.3))
    assert threshold_scan(got, 0.0, 1.0, 1e-9) == plain_bisection(want, 0.0, 1.0, 1e-9)
    assert got_calls == want_calls


def test_a_zero_at_a_midpoint_ends_within_the_call_bound():
    # the zero of (s - 1/2)^3 is the first midpoint, with margin exactly 0
    for tol in (1e-1, 1e-3, 1e-6, 1e-12):
        margin, calls = logged(lambda s: (s - 0.5) ** 3)
        got = threshold_scan(margin, 0.0, 1.0, tol)
        assert got == plain_bisection(lambda s: (s - 0.5) ** 3 > 0, 0.0, 1.0, tol)
        assert len(calls) <= 2 + midpoints(0.0, 1.0, tol) + search.MISSED_ESTIMATES


def test_a_margin_that_is_not_a_number_falls_back_to_bisection():
    # a NaN margin reads False; its estimate is NaN, so the midpoint is probed
    margin, calls = logged(lambda s: math.nan if s < 0.3 else s - 0.3)
    want, want_calls = logged(lambda s: s > 0.3)
    assert threshold_scan(margin, 0.0, 1.0, 1e-6) == plain_bisection(want, 0.0, 1.0, 1e-6)
    assert len(calls) <= len(want_calls) + search.MISSED_ESTIMATES


def test_a_smooth_margin_needs_few_calls():
    margin, calls = logged(lambda s: s**2 - 2.0)
    got = threshold_scan(margin, 0.0, 3.0, 1e-12)
    assert got == plain_bisection(lambda s: s**2 > 2.0, 0.0, 3.0, 1e-12)
    assert len(calls) < 2 + midpoints(0.0, 3.0, 1e-12)


# --- the three noise-threshold families -------------------------------------


def _bell_verdict(c1):
    sig = families.bell_signature()
    a, b = families.bell_witness_ops(sig)
    return lambda s: witnesses.cond1(families.noisy_bell(s, c1, sig), a, b).entangled


def _subspace_verdict(seed):
    v1, v2 = families.random_block_vectors(np.random.default_rng(seed))
    basis, b_op = families.subspace_witness_basis()

    def entangled(s):
        state = families.noisy_correlated_subspace(s, v1, v2)
        return witnesses.witness_matrix_expand_a(state, basis, b_op).has_positive_eigenvalue()

    return entangled


# s_star of the boolean scan, as the noise-threshold CSV prints it
@pytest.mark.parametrize(
    "family, tol, recorded",
    [
        ("bell", 1e-3, 6.17983886718749931e-01),
        ("bell", 1e-4, 6.18014068603515598e-01),
        ("bell", 1e-5, 6.18032932281494141e-01),
        ("subspace", 1e-3, 5.00439453125000000e-01),
        ("subspace", 1e-4, 5.00027465820312544e-01),
        ("subspace", 1e-5, 5.00003433227539040e-01),
    ],
)
def test_bell_and_subspace_thresholds_are_unchanged(family, tol, recorded):
    if family == "bell":
        c1 = math.sqrt(0.5)
        s_star = families.bell_threshold_scan(c1, tol=tol)
        want = plain_bisection(_bell_verdict(c1), 0.01, 0.999, tol)
    else:
        s_star = families.subspace_threshold_scan(np.random.default_rng(0), tol=tol)
        want = plain_bisection(_subspace_verdict(0), 0.05, 0.95, tol)
    assert s_star == recorded
    assert s_star == want


@pytest.mark.parametrize(
    "argv",
    [
        ["noise-threshold"],
        ["noise-threshold", "--family", "subspace"],
        ["noise-threshold", "--family", "pair-bilinear"],
    ],
)
def test_each_family_at_its_defaults_makes_at_most_nine_calls(argv, tmp_path, monkeypatch):
    counts = []

    def counted(predicate, *args, **kwargs):
        margin, calls = logged(predicate)
        counts.append(calls)
        return threshold_scan(margin, *args, **kwargs)

    monkeypatch.setattr(families, "threshold_scan", counted)
    assert cli.main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
    (calls,) = counts
    assert len(calls) <= 9
