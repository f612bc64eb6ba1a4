"""The Gaussian factories against full-space references.

`displacement`, `squeeze` and `two_mode_squeezed` rotate one cached
exponential per (kind, dim); here each is checked against `linalg.mat_exp`
of its explicitly built generator, on both sides of the truncation edge,
with the same leakage error where the reference leaks.
`two_mode_squeezed` exponentiates the photon-pair ladder |n,n>; here it is
checked against column 0 of the exponential of the full two-mode generator
built with np.kron, including the leakage error it raises at the truncation
edge.  `squeezed_psi01` takes S(z)|0> and S(z)|1> from the cached factor
and builds no D x D unitary; it must equal the construction that reads
S(z)|1> off the whole S(z) and checks both columns, and raise its leakage
error.  The atom-field Hamiltonian is one function for one or several
atoms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import families, linalg
from entwitness import operators as ops
from entwitness.models import jaynes_cummings as jc
from entwitness.models import tavis_cummings as tc
from entwitness.spaces import (
    LEAKAGE_THRESHOLD,
    LeakageError,
    StateVector,
    boson,
    embed,
    require_low_leakage,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _full_space_two_mode_squeezed(r, dim, phase):
    """Column 0 of exp(xi a^dag b^dag - conj(xi) ab) on the dim*dim space."""
    xi = r * np.exp(1j * phase)
    eye = np.eye(dim, dtype=complex)
    a = np.kron(ops.annihilator(dim), eye)
    b = np.kron(eye, ops.annihilator(dim))
    psi = linalg.mat_exp(xi * (a.conj().T @ b.conj().T) - np.conj(xi) * (a @ b))[:, 0]
    modes = (boson(f"two_mode_squeezed(r={r}) mode {axis}", dim) for axis in (0, 1))
    require_low_leakage(StateVector(signature(*modes), psi))
    return psi


def _outcome(make):
    try:
        return make(), None
    except LeakageError as err:
        return None, str(err)


@SETTINGS
@given(
    dim=st.integers(4, 12),
    r=st.floats(0.0, 1.5),
    phase=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_two_mode_squeezed_matches_the_full_space_exponential(dim, r, phase):
    ladder, ladder_err = _outcome(lambda: ops.two_mode_squeezed(r, dim, phase=phase))
    full, full_err = _outcome(lambda: _full_space_two_mode_squeezed(r, dim, phase))
    assert ladder_err == full_err
    if full_err is None:
        assert np.abs(ladder - full).max() <= 1e-12


def test_two_mode_squeezed_raises_like_the_full_space_exponential():
    for r, dim in ((2.5, 16), (1.5, 4), (0.4, 5)):
        with pytest.raises(LeakageError) as ladder:
            ops.two_mode_squeezed(r, dim)
        with pytest.raises(LeakageError) as full:
            _full_space_two_mode_squeezed(r, dim, 0.0)
        assert str(ladder.value) == str(full.value)


def _explicit_generator(kind, x, dim):
    """The generator of one factory at complex parameter x, built from a and a^dag."""
    a = ops.annihilator(dim)
    adag = a.conj().T
    if kind == "displacement":
        return x * adag - np.conj(x) * a
    if kind == "squeeze":
        return (np.conj(x) * (a @ a) - x * (adag @ adag)) / 2
    pairs = np.arange(1, dim, dtype=float)
    return np.diag(x * pairs, k=-1) - np.diag(np.conj(x) * pairs, k=1)


# kind -> (factory at magnitude m and phase p, its leakage label, largest m drawn);
# two_mode_squeezed gives only the image of |0,0>, read off the diagonal |n,n>
FACTORIES = {
    "displacement": (
        lambda m, p, dim: ops.displacement(m * np.exp(1j * p), dim),
        lambda m, p: f"displacement(alpha={m * np.exp(1j * p)})",
        6.0,
    ),
    "squeeze": (
        lambda m, p, dim: ops.squeeze(m * np.exp(1j * p), dim),
        lambda m, p: f"squeeze(z={m * np.exp(1j * p)})",
        2.5,
    ),
    "pair": (
        lambda m, p, dim: ops.two_mode_squeezed(m, dim, phase=p)[:: dim + 1, None],
        lambda m, p: f"two_mode_squeezed(r={m}) mode 0",
        2.0,
    ),
}


def _reference(kind, m, p, dim):
    """mat_exp of the explicit generator (column 0 only for the pair ladder), unchecked."""
    u = linalg.mat_exp(_explicit_generator(kind, m * np.exp(1j * p), dim))
    return u[:, :1] if kind == "pair" else u


def _reference_leakage(kind, m, p, dim):
    return float(np.sum(np.abs(_reference(kind, m, p, dim)[-2:, 0]) ** 2))


def _assert_factory_matches_reference(kind, m, p, dim):
    factory, label, _ = FACTORIES[kind]
    got, got_err = _outcome(lambda: factory(m, p, dim))

    def reference():
        u = _reference(kind, m, p, dim)
        require_low_leakage(StateVector(signature(boson(label(m, p), dim)), u[:, 0]))
        return u

    want, want_err = _outcome(reference)
    assert got_err == want_err
    if want_err is None:
        assert np.abs(got - want).max() <= 1e-12


@SETTINGS
@given(
    kind=st.sampled_from(sorted(FACTORIES)),
    dim=st.integers(4, 64),
    fraction=st.floats(0.0, 1.0),
    phase=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_factories_match_the_explicit_exponential(kind, dim, fraction, phase):
    _assert_factory_matches_reference(kind, fraction * FACTORIES[kind][2], phase, dim)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("dim", [4, 17, 64])
def test_factories_match_the_reference_at_the_truncation_edge(kind, dim):
    # bisect the magnitude at which the reference starts to leak: the factory
    # must pass just below it and raise the reference's message just above it
    phase = 0.7
    lo, hi = 0.0, FACTORIES[kind][2]
    while _reference_leakage(kind, hi, phase, dim) < LEAKAGE_THRESHOLD:
        hi *= 2
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        if _reference_leakage(kind, mid, phase, dim) < LEAKAGE_THRESHOLD:
            lo = mid
        else:
            hi = mid
    _assert_factory_matches_reference(kind, lo, phase, dim)
    with pytest.raises(LeakageError):
        FACTORIES[kind][0](hi, phase, dim)
    _assert_factory_matches_reference(kind, hi, phase, dim)


@pytest.mark.parametrize("dim", [3, 5, 64])
def test_zero_magnitude_is_the_exact_identity(dim):
    eye = np.eye(dim, dtype=complex)
    assert np.array_equal(ops.displacement(0.0, dim), eye)
    assert np.array_equal(ops.squeeze(0.0, dim), eye)
    assert np.array_equal(ops.gaussian_unitary(ops.GaussianParams(theta=1.3), dim), ops.rotation(1.3, dim))
    assert np.array_equal(ops.two_mode_squeezed(0.0, dim, phase=2.0), np.eye(dim * dim)[0])


def _squeezed_psi01_from_the_full_squeeze(z, dim_a, dim_b=4):
    """The construction that reads S(z)|1> off the whole D x D S(z), both columns checked."""
    photon = ops.squeeze(z, dim_a) @ ops.fock(1, dim_a)
    require_low_leakage(StateVector(signature(boson(f"squeeze(z={z}) |1>", dim_a)), photon))
    return (
        np.kron(ops.squeezed_vacuum(z, dim_a), ops.fock(1, dim_b))
        + np.kron(photon, ops.fock(0, dim_b))
    ) / np.sqrt(2)


def _assert_squeezed_psi01_matches_the_full_squeeze(z, dim_a):
    def no_unitary(*args):
        raise AssertionError(f"squeezed_psi01 built a D x D unitary: {args}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "squeeze", no_unitary)
        mp.setattr(ops, "_checked_exp", no_unitary)
        got, got_err = _outcome(lambda: families.squeezed_psi01(z, dim_a=dim_a).amplitudes)
    want, want_err = _outcome(lambda: _squeezed_psi01_from_the_full_squeeze(z, dim_a))
    assert got_err == want_err
    if want_err is None:
        assert np.abs(got - want).max() <= 1e-13
    return got_err


@SETTINGS
@given(
    dim_a=st.integers(4, 64),
    r=st.floats(0.0, 2.5),
    arg_z=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_squeezed_psi01_builds_no_squeeze(dim_a, r, arg_z):
    _assert_squeezed_psi01_matches_the_full_squeeze(r * np.exp(1j * arg_z), dim_a)


@pytest.mark.parametrize("dim_a", [4, 17, 64])
def test_squeezed_psi01_raises_like_the_full_squeeze_at_the_truncation_edge(dim_a):
    # bisect the magnitude at which the full-squeeze construction starts to
    # leak; squeezed_psi01 must match it just below and raise its text just above
    phase = 0.7

    def leak_error(r):
        return _outcome(lambda: _squeezed_psi01_from_the_full_squeeze(r * np.exp(1j * phase), dim_a))[1]

    lo, hi = 0.0, 2.5
    while leak_error(hi) is None:
        hi *= 2
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        if leak_error(mid) is None:
            lo = mid
        else:
            hi = mid
    assert _assert_squeezed_psi01_matches_the_full_squeeze(lo * np.exp(1j * phase), dim_a) is None
    assert _assert_squeezed_psi01_matches_the_full_squeeze(hi * np.exp(1j * phase), dim_a) is not None


def _explicit_hamiltonian(sig, atoms, omega, kappa):
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    a = embed(ops.annihilator(dim), "field", sig, "a")
    h = omega * embed(ops.number_op(dim), "field", sig)
    for atom in atoms:
        sp = embed(qo["plus"], atom, sig)
        sm = embed(qo["minus"], atom, sig)
        sz = embed(qo["z"], atom, sig)
        h = h + (omega / 2) * sz + kappa * (sp @ a + sm @ a.dag())
    return h


def test_one_atom_field_hamiltonian_for_one_or_two_atoms():
    assert tc.tc_hamiltonian is jc.jc_hamiltonian
    for dim in (6, 20):
        sig = jc.jc_signature(dim)
        expected = _explicit_hamiltonian(sig, ["atom"], 1.0, 0.1)
        assert np.array_equal(jc.jc_hamiltonian(sig, 1.0, 0.1).matrix, expected.matrix)
    for n in (1, 2, 5):
        sig = tc.tc_signature(n)
        expected = _explicit_hamiltonian(sig, ["atom1", "atom2"], 1.3, 0.2)
        assert np.array_equal(tc.tc_hamiltonian(sig, 1.3, 0.2).matrix, expected.matrix)
