"""Two atoms resonantly coupled to one field mode, starting from |n, g, g>.

H = omega a^dag a + (omega/2)(sigma_1^z + sigma_2^z)
    + kappa (a sigma_1^+ + a^dag sigma_1^- + a sigma_2^+ + a^dag sigma_2^-).

Total excitation number is conserved, so the dynamics from |n, g, g> lives
in a four-dimensional sector spanned by |n,g,g>, |n-1,e,g>, |n-1,g,e>,
|n-2,e,e> (three-dimensional when n = 1), oscillating at
Omega = kappa sqrt(2(2n-1)).

Two entanglement margins are tracked, both rescaled polynomials in
cos(Omega t), sin(Omega t):

* atom vs field (A = sigma^- of one atom, field side expanded in the
  centered quadratures): the closed form here equals the raw correlation
  margin times 2 (2n-1)^2 / n.
* both atoms vs field (A = a, B = sigma_1^- + sigma_2^-): closed form equals
  the raw margin times (2n-1)^2 / (2n).

Near the revival times (phase Omega t = eps small) both margins behave as
(2n-1) eps^2 minus a quartic correction, so an entanglement window survives
at every n.
"""

from __future__ import annotations

import math

import numpy as np

from .. import linalg
from .. import operators as ops
from .. import witnesses
from ..spaces import (
    LabeledOperator,
    SpaceSignature,
    StateVector,
    basis_state,
    boson,
    embed,
    evolve,
    identity_operator,
    qubit,
    signature,
)
from .jaynes_cummings import jc_hamiltonian


def omega_rabi(n: int, kappa: float) -> float:
    return kappa * math.sqrt(2.0 * (2 * n - 1))


def tc_signature(n: int, extra_levels: int = 3) -> SpaceSignature:
    return signature(boson("field", n + extra_levels), qubit("atom1"), qubit("atom2"))


# the atom-field Hamiltonian sums its atom terms over every qubit factor
tc_hamiltonian = jc_hamiltonian


def excitation_operator(sig: SpaceSignature) -> LabeledOperator:
    """a^dag a + (sigma_1^z + sigma_2^z)/2 + 1, conserved by the dynamics."""
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    out = embed(ops.number_band(dim), "field", sig)
    for atom in ("atom1", "atom2"):
        out = out + 0.5 * embed(qo["z"], atom, sig)
    return out + identity_operator(sig)


def _sector_kets(n: int, sig: SpaceSignature) -> list[StateVector]:
    kets = [
        basis_state(sig, {"field": n, "atom1": 0, "atom2": 0}),
        basis_state(sig, {"field": n - 1, "atom1": 1, "atom2": 0}),
        basis_state(sig, {"field": n - 1, "atom1": 0, "atom2": 1}),
    ]
    if n >= 2:
        kets.append(basis_state(sig, {"field": n - 2, "atom1": 1, "atom2": 1}))
    return kets


def tc_closed_state(n: int, omega_t: float, sig: SpaceSignature | None = None) -> StateVector:
    """Evolved state from |n, g, g> as explicit cosines, global phase dropped."""
    if n < 1:
        raise ValueError("need at least one excitation")
    sig = sig or tc_signature(n)
    cos, sin = math.cos(omega_t), math.sin(omega_t)
    denom = 2 * n - 1
    kets = _sector_kets(n, sig)
    amps = (n * cos + (n - 1)) / denom * kets[0].amplitudes
    mid = -1j * math.sqrt(n / denom) * sin / math.sqrt(2)
    amps = amps + mid * (kets[1].amplitudes + kets[2].amplitudes)
    if n >= 2:
        amps = amps + math.sqrt(n * (n - 1)) * (cos - 1) / denom * kets[3].amplitudes
    return StateVector(sig, amps)


def tc_sector_state(
    n: int,
    omega_t: float,
    sig: SpaceSignature | None = None,
    omega: float = 1.0,
    kappa: float = 0.1,
) -> StateVector:
    """Numerical oracle: evolve |n, g, g> inside its excitation sector.

    The sector Hamiltonian is projected out of the full-space operator, so
    this route shares no algebra with :func:`tc_closed_state`.
    """
    sig = sig or tc_signature(n)
    h = tc_hamiltonian(sig, omega, kappa)
    kets = _sector_kets(n, sig)
    basis = np.stack([k.amplitudes for k in kets], axis=1)
    h_sector = basis.conj().T @ h.matrix @ basis
    t = omega_t / omega_rabi(n, kappa)
    coeff = linalg.mat_exp(-1j * h_sector * t)[:, 0]
    return StateVector(sig, basis @ coeff)


def tc_full_state(
    n: int,
    omega_t: float,
    sig: SpaceSignature | None = None,
    omega: float = 1.0,
    kappa: float = 0.1,
) -> StateVector:
    """Second oracle: :func:`evolve` on the whole tensor space, by H's block spectrum."""
    sig = sig or tc_signature(n)
    h = tc_hamiltonian(sig, omega, kappa)
    start = basis_state(sig, {"field": n, "atom1": 0, "atom2": 0})
    return evolve(h, omega_t / omega_rabi(n, kappa), start)


# raw-margin operators ------------------------------------------------------


def atom_field_margin(state: StateVector) -> float:
    """Correlation margin with A = sigma^- of atom 1, B = centered a."""
    sig = state.signature
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom1", sig, "sigma-")
    a = embed(ops.annihilator_band(dim), "field", sig, "a")
    da = ops.delta(a, state)
    return witnesses.cond1(state, sm, da).margin


def field_both_margin(state: StateVector) -> float:
    """Correlation margin with A = a, B = sigma_1^- + sigma_2^-."""
    sig = state.signature
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    a = embed(ops.annihilator_band(dim), "field", sig, "a")
    j_minus = embed(qo["minus"], "atom1", sig) + embed(qo["minus"], "atom2", sig)
    return witnesses.cond1(state, a, j_minus).margin


def atom_field_scale(n: int) -> float:
    return 2.0 * (2 * n - 1) ** 2 / n


def field_both_scale(n: int) -> float:
    return (2 * n - 1) ** 2 / (2.0 * n)


# closed-form margins -------------------------------------------------------


def tc_atom_field_condition(n: int, omega_t: float) -> float:
    """Closed-form atom-field margin; positive means entangled."""
    cos, sin = math.cos(omega_t), math.sin(omega_t)
    lead = (n / (2 * n - 1)) * sin**2 * (cos + 2 * (n - 1)) ** 2
    rest = (n - 1) * (2 * (n - 2) * (cos - 1) ** 2 + (2 * n - 1) * sin**2)
    return lead - rest


def tc_field_both_condition(n: int, omega_t: float) -> float:
    """Closed-form both-atoms-field margin; the quartic term is halved."""
    cos, sin = math.cos(omega_t), math.sin(omega_t)
    lead = (n / (2 * n - 1)) * sin**2 * (cos + 2 * (n - 1)) ** 2
    rest = (n - 1) * ((n - 2) * (cos - 1) ** 2 + (2 * n - 1) * sin**2)
    return lead - rest


def tc_epsilon_series(n: int, eps: float, which: str = "atom") -> float:
    """Small-phase expansion of the margins around a revival."""
    if which == "atom":
        return (2 * n - 1) * eps**2 - (3 * n**2 + n + 4) / 6.0 * eps**4
    if which == "field":
        return (2 * n - 1) * eps**2 - (3 * n**2 + 11 * n + 2) / 12.0 * eps**4
    raise ValueError(f"unknown margin kind '{which}'")


def tc_epsilon_check(n: int, eps: float, which: str = "atom") -> tuple[float, float]:
    """Exact margin at phase eps next to its quartic series."""
    if not 0 < eps <= 0.05:
        raise ValueError("the expansion is validated for 0 < eps <= 0.05")
    exact = (
        tc_atom_field_condition(n, eps)
        if which == "atom"
        else tc_field_both_condition(n, eps)
    )
    return exact, tc_epsilon_series(n, eps, which)
