"""The paper's invariance claim as a property: local Gaussian unitaries keep the witness inertia.

A local Gaussian unitary U maps the centred mode operators of the moved
state back to a Bogoliubov combination of the original ones,
U^dag delta(a) U = mu delta(a) + nu delta(a)^dag with |mu|^2 - |nu|^2 = 1.
The expanded witness matrix on {delta(a), delta(a)^dag} of the moved state
is therefore a congruence T^dag M T of the original one with |det T| = 1.
By Sylvester's law of inertia the numbers of positive and of negative
eigenvalues do not change, and neither does the determinant, up to
truncation error; the eigenvalues themselves do change under squeezing.
Every moved state is checked to stay inside its truncation.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from entwitness import families, witnesses
from entwitness import operators as ops
from entwitness.spaces import apply_local, embed, require_low_leakage

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)

PHASES = st.floats(-2 * math.pi, 2 * math.pi)


def _gaussians(max_squeeze):
    return st.builds(
        lambda m, arg_alpha, theta, r, arg_z: ops.GaussianParams(
            m * np.exp(1j * arg_alpha), theta, r * np.exp(1j * arg_z)
        ),
        st.floats(0.0, 1.5),
        PHASES,
        PHASES,
        st.floats(0.0, max_squeeze),
        PHASES,
    )


def _inertia(m):
    w = np.linalg.eigvalsh(m)
    eps = witnesses.positivity_threshold(w)
    return int((w > eps).sum()), int((w < -eps).sum())


def _assert_congruent(before, after):
    assert _inertia(after) == _inertia(before)
    assert abs(np.linalg.det(after) - np.linalg.det(before)) <= 1e-6


ATOM_FIELD_DIM = 64
SIG, BELL = families.atom_field_bell(ATOM_FIELD_DIM)
SIGMA_MINUS = embed(ops.qubit_ops()["minus"], "atom", SIG, "sigma-")


def _atom_field_matrix(state):
    basis = families.centered_quadrature_basis(state, "field")
    return witnesses.witness_matrix_expand_b(state, SIGMA_MINUS, basis).matrix


@SETTINGS
@given(g=_gaussians(0.8))
def test_gaussian_field_unitary_keeps_the_atom_field_witness_inertia(g):
    moved = apply_local(BELL, "field", ops.gaussian_unitary(g, ATOM_FIELD_DIM))
    require_low_leakage(moved)
    _assert_congruent(_atom_field_matrix(BELL), _atom_field_matrix(moved))


PSI01_DIM_A = 128


def _psi01_matrix(state):
    quads = families.centered_quadrature_basis(state, "a")
    b_low = embed(ops.annihilator(state.signature.factor("b").dim), "b", state.signature, "b")
    return witnesses.witness_matrix_expand_a(state, [quads[1], quads[0]], b_low).matrix


@SETTINGS
@given(r0=st.floats(0.0, 0.6), arg_z0=PHASES, g=_gaussians(0.6))
def test_gaussian_unitary_keeps_the_squeezed_pair_witness_inertia(r0, arg_z0, g):
    base = families.squeezed_psi01(r0 * np.exp(1j * arg_z0), dim_a=PSI01_DIM_A, dim_b=4)
    moved = apply_local(base, "a", ops.gaussian_unitary(g, PSI01_DIM_A))
    require_low_leakage(moved)
    _assert_congruent(_psi01_matrix(base), _psi01_matrix(moved))
