"""Gaussian states built as one column of their factory's unitary.

`coherent`, `squeezed_vacuum` and `two_mode_squeezed` compute column 0 of
their factory's unitary from the cached factor, with one matrix-vector
product.  Each must equal column 0 of the full unitary of
`operators._checked_exp` to 1e-13, and raise the same `LeakageError` text
on both sides of the truncation edge.  The column helper they share,
`operators._unit_column`, must equal columns 0 and 1 of that unitary, and
column 0 bit for bit as the vacuum-only expression it replaced computed it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import operators as ops
from entwitness.spaces import LEAKAGE_THRESHOLD, LeakageError

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# kind -> (state at magnitude m and phase p, _checked_exp arguments, largest m drawn);
# two_mode_squeezed holds its ladder amplitudes on the diagonal |n,n>
STATES = {
    "displacement": (
        lambda m, p, dim: ops.coherent(m * np.exp(1j * p), dim),
        lambda m, p: (m, float(np.angle(m * np.exp(1j * p))), f"displacement(alpha={m * np.exp(1j * p)})"),
        6.0,
    ),
    "squeeze": (
        lambda m, p, dim: ops.squeezed_vacuum(m * np.exp(1j * p), dim),
        lambda m, p: (m, float(np.angle(m * np.exp(1j * p))) / 2, f"squeeze(z={m * np.exp(1j * p)})"),
        2.5,
    ),
    "pair": (
        lambda m, p, dim: ops.two_mode_squeezed(m, dim, phase=p)[:: dim + 1],
        lambda m, p: (m, p, f"two_mode_squeezed(r={m}) mode 0"),
        2.0,
    ),
}


def _outcome(make):
    try:
        return make(), None
    except LeakageError as err:
        return None, str(err)


def _full_column(kind, m, p, dim):
    magnitude, phase, label = STATES[kind][1](m, p)
    return ops._checked_exp(kind, magnitude, phase, dim, label)[:, 0]


def _assert_matches_full_column(kind, m, p, dim):
    got, got_err = _outcome(lambda: STATES[kind][0](m, p, dim))
    want, want_err = _outcome(lambda: _full_column(kind, m, p, dim))
    assert got_err == want_err
    if want_err is None:
        assert np.abs(got - want).max() <= 1e-13
    return got_err


@SETTINGS
@given(
    kind=st.sampled_from(sorted(STATES)),
    dim=st.integers(4, 64),
    fraction=st.floats(0.0, 1.0),
    phase=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_states_equal_column_zero_of_the_unitary(kind, dim, fraction, phase):
    _assert_matches_full_column(kind, fraction * STATES[kind][2], phase, dim)


def _leakage(kind, m, p, dim):
    magnitude, phase, _ = STATES[kind][1](m, p)
    ed = ops._unit_spectrum(kind, dim)
    u = ed.function_of(lambda w: np.exp(-1j * magnitude * w))
    return float(np.sum(np.abs(u[-2:, 0]) ** 2))


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("dim", [4, 17, 64])
def test_states_match_the_unitary_on_both_sides_of_the_truncation_edge(kind, dim):
    phase = 0.7
    lo, hi = 0.0, STATES[kind][2]
    while _leakage(kind, hi, phase, dim) < LEAKAGE_THRESHOLD:
        hi *= 2
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        if _leakage(kind, mid, phase, dim) < LEAKAGE_THRESHOLD:
            lo = mid
        else:
            hi = mid
    assert _assert_matches_full_column(kind, lo, phase, dim) is None
    assert _assert_matches_full_column(kind, hi, phase, dim) is not None


@pytest.mark.parametrize("dim", [2, 3, 64])
def test_zero_magnitude_is_the_exact_vacuum(dim):
    vacuum = ops.fock(0, dim)
    for kind, (state, _, _) in STATES.items():
        if dim == 2:
            # the vacuum sits in the top two levels of a two-level truncation
            with pytest.raises(LeakageError):
                state(0.0, 0.3, dim)
            continue
        got = state(0.0, 0.3, dim)
        assert np.array_equal(got, vacuum), kind


def _vacuum_only_column(kind, magnitude, phase, dim):
    """Column 0 as the vacuum image was computed before `_unit_column`, unchecked.

    It now comes from `operators._checked_column` with n = 0.  The vacuum
    leads its sector of the cached spectrum: the even-parity block of the
    squeeze, the whole space for displacement and the pair ladder.
    """
    column = np.zeros(dim, dtype=complex)
    if magnitude == 0:
        column[0] = 1.0
        return column
    spectrum = ops._unit_spectrum(kind, dim)
    ((rows, ed),) = [(idx[0], ed) for idx, ed in zip(spectrum.sectors, spectrum.spectra) if idx[0, 0] == 0]
    v = ed.eigenvectors[0]
    column[rows] = v @ (np.exp(-1j * magnitude * ed.eigenvalues[0]) * v[0].conj())
    column *= np.exp(1j * phase * np.arange(dim))
    return column


@SETTINGS
@given(
    kind=st.sampled_from(sorted(STATES)),
    n=st.sampled_from([0, 1]),
    dim=st.integers(4, 64),
    fraction=st.floats(0.0, 1.0),
    arg=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_the_column_helper_equals_a_column_of_the_unitary(kind, n, dim, fraction, arg):
    magnitude, phase, label = STATES[kind][1](fraction * STATES[kind][2], arg)
    with pytest.MonkeyPatch.context() as mp:
        # compare past the truncation edge too: the helper itself checks nothing
        mp.setattr(ops, "require_low_leakage", lambda state: None)
        full = ops._checked_exp(kind, magnitude, phase, dim, label)
    column = ops._unit_column(kind, magnitude, phase, dim, n)
    assert np.abs(column - full[:, n]).max() <= 1e-13
    if n == 0:
        assert column.tobytes() == _vacuum_only_column(kind, magnitude, phase, dim).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 64])
def test_zero_magnitude_is_the_exact_single_photon(dim):
    photon = ops.fock(1, dim)
    for kind in STATES:
        assert np.array_equal(ops._unit_column(kind, 0.0, 0.3, dim, 1), photon), kind
    if dim <= 3:
        # |1> sits in the top two levels of a two- or three-level truncation
        with pytest.raises(LeakageError, match=r"\|1>"):
            ops.squeezed_single_photon(0.0, dim)
        return
    assert np.array_equal(ops.squeezed_single_photon(0.0, dim), photon)
