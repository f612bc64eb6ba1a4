"""Benchmark state families with known entanglement thresholds.

Three families recur throughout the package:

* a two-term superposition c1|a1 b1> + c2|a2 b2> mixed with flat noise on
  the correlated 2x2 block; the cross-correlation test detects it above a
  noise threshold with the closed form
  s* = (sqrt(1 + 16 |c1 c2|^2) - 1) / (8 |c1 c2|^2).
* the correlated-subspace family: (|v1>|b1> + |v2>|b2>)/sqrt(2) with v1 and
  v2 in two orthogonal two-dimensional subspaces, mixed with flat noise on
  the 4x2 block; the four rank-one hopping operators between the subspaces
  give a 4x4 witness matrix with top eigenvalue (2 s^2 + s - 1)/8
  independent of v1 and v2, hence threshold s* = 1/2.
* the noisy single-photon pair on two modes, probed either directly or
  through the doubly-expanded bilinear form in {centered a, a^dag} x
  {centered b, b^dag}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import witnesses
from .search import threshold_scan
from .spaces import (
    DensityMatrix,
    LabeledOperator,
    SpaceSignature,
    StateVector,
    basis_state,
    boson,
    embed,
    signature,
)


def bell_signature(dims: tuple[int, int] = (2, 2)) -> SpaceSignature:
    return signature(boson("a", dims[0]), boson("b", dims[1]))


def bell_pair(c1: float, sig: SpaceSignature | None = None) -> StateVector:
    """c1|a1 b1> + c2|a2 b2> on the first two levels of each side."""
    sig = sig or bell_signature()
    c2 = np.sqrt(1.0 - abs(c1) ** 2)
    amps = c1 * basis_state(sig, {"a": 0, "b": 0}).amplitudes
    amps = amps + c2 * basis_state(sig, {"a": 1, "b": 1}).amplitudes
    return StateVector(sig, amps)


def noisy_bell(s: float, c1: float, sig: SpaceSignature | None = None) -> DensityMatrix:
    """s |psi><psi| + (1-s)/4 * (flat noise on the correlated 2x2 block)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight s={s} outside [0, 1]")
    sig = sig or bell_signature()
    psi = bell_pair(c1, sig)
    p_a = np.zeros(sig.dims[0])
    p_a[:2] = 1.0
    p_b = np.zeros(sig.dims[1])
    p_b[:2] = 1.0
    noise = np.kron(np.diag(p_a), np.diag(p_b)).astype(complex)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - s) / 4 * noise
    return DensityMatrix(sig, rho)


def bell_witness_ops(sig: SpaceSignature) -> tuple[LabeledOperator, LabeledOperator]:
    """A = |a2><a1| on side a, B = |b1><b2| on side b."""
    da, db = sig.dims
    hop_a = np.zeros((da, da), dtype=complex)
    hop_a[1, 0] = 1.0
    hop_b = np.zeros((db, db), dtype=complex)
    hop_b[0, 1] = 1.0
    return embed(hop_a, "a", sig, "A"), embed(hop_b, "b", sig, "B")


def bell_threshold_closed_form(c1c2_abs: float) -> float:
    u = abs(c1c2_abs) ** 2
    return (np.sqrt(1.0 + 16.0 * u) - 1.0) / (8.0 * u)


def bell_threshold_scan(c1: float, tol: float = 1e-5) -> float:
    """Locate the noise threshold by bisection on the cond1 margin."""
    sig = bell_signature()
    a, b = bell_witness_ops(sig)

    def entangled(s: float) -> bool:
        return witnesses.cond1(noisy_bell(s, c1, sig), a, b).entangled

    return threshold_scan(entangled, 0.01, 0.999, tol)


# ---------------------------------------------------------------------------
# correlated subspaces: 4-dim side a split into two 2-dim blocks
# ---------------------------------------------------------------------------


def subspace_signature() -> SpaceSignature:
    return signature(boson("a", 4), boson("b", 2))


def random_block_vectors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit v1 in span{|0>,|1>} and v2 in span{|2>,|3>} of the 4-dim side."""
    v1 = np.zeros(4, dtype=complex)
    v1[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
    v1 /= np.linalg.norm(v1)
    v2 = np.zeros(4, dtype=complex)
    v2[2:] = rng.normal(size=2) + 1j * rng.normal(size=2)
    v2 /= np.linalg.norm(v2)
    return v1, v2


def correlated_subspace_state(v1: np.ndarray, v2: np.ndarray) -> StateVector:
    sig = subspace_signature()
    amps = (np.kron(v1, [1, 0]) + np.kron(v2, [0, 1])) / np.sqrt(2)
    return StateVector(sig, amps.astype(complex))


def noisy_correlated_subspace(s: float, v1: np.ndarray, v2: np.ndarray) -> DensityMatrix:
    """s |psi><psi| + (1-s)/8 * (flat noise on the 4x2 block)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight s={s} outside [0, 1]")
    sig = subspace_signature()
    psi = correlated_subspace_state(v1, v2)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho = rho + (1 - s) / 8 * np.eye(8, dtype=complex)
    return DensityMatrix(sig, rho)


def subspace_witness_basis() -> tuple[list[LabeledOperator], LabeledOperator]:
    """The four rank-one hops |2..3><0..1| on side a, plus B = |b1><b2|."""
    sig = subspace_signature()
    basis = []
    for lower in (0, 1):
        for upper in (2, 3):
            hop = np.zeros((4, 4), dtype=complex)
            hop[upper, lower] = 1.0
            basis.append(embed(hop, "a", sig, f"|{upper}><{lower}|"))
    # order: |2><0|, |3><0|, |2><1|, |3><1|
    hop_b = np.zeros((2, 2), dtype=complex)
    hop_b[0, 1] = 1.0
    return basis, embed(hop_b, "b", sig, "B")


def subspace_threshold_scan(rng: np.random.Generator, tol: float = 1e-5) -> float:
    v1, v2 = random_block_vectors(rng)
    basis, b_op = subspace_witness_basis()

    def entangled(s: float) -> bool:
        m = witnesses.witness_matrix_expand_a(noisy_correlated_subspace(s, v1, v2), basis, b_op)
        return m.has_positive_eigenvalue()

    return threshold_scan(entangled, 0.05, 0.95, tol)


# ---------------------------------------------------------------------------
# noisy single-photon pair on two modes
# ---------------------------------------------------------------------------


def psi01_signature(dim: int = 4) -> SpaceSignature:
    return signature(boson("a", dim), boson("b", dim))


def psi01_state(sig: SpaceSignature) -> StateVector:
    amps = (
        basis_state(sig, {"a": 0, "b": 1}).amplitudes
        + basis_state(sig, {"a": 1, "b": 0}).amplitudes
    ) / np.sqrt(2)
    return StateVector(sig, amps)


def noisy_psi01(s: float, dim: int = 4) -> DensityMatrix:
    """s |psi01><psi01| + (1-s)/4 * (zero/one-photon block on each mode)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight s={s} outside [0, 1]")
    sig = psi01_signature(dim)
    psi = psi01_state(sig)
    p01 = np.zeros(dim)
    p01[:2] = 1.0
    noise = np.kron(np.diag(p01), np.diag(p01)).astype(complex)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - s) / 4 * noise
    return DensityMatrix(sig, rho)


def centered_quadrature_basis(state, label: str) -> list[LabeledOperator]:
    """{centered a, centered a^dag} for the given mode, centered on the state."""
    sig = state.signature
    dim = sig.factor(label).dim
    a = embed(ops.annihilator(dim), label, sig, label)
    da = ops.delta(a, state)
    return [da, da.dag()]


def psi01_bilinear_x(s: float, dim: int = 4) -> witnesses.WitnessMatrix:
    rho = noisy_psi01(s, dim)
    return witnesses.bilinear_form(
        rho,
        centered_quadrature_basis(rho, "a"),
        centered_quadrature_basis(rho, "b"),
    )


# the two candidate thresholds this family is compared against: the printed
# claim of 0.474, and the value that maximizing the printed quartic actually
# gives, s^3 + 2 s^2 = 1, whose root is (sqrt(5)-1)/2
PRINTED_X_THRESHOLD = 0.474
ANALYTIC_X_THRESHOLD = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class XThresholdComparison:
    scanned: float
    printed_candidate: float
    analytic_candidate: float

    def summary(self) -> str:
        return (
            f"product-vector scan threshold s* = {self.scanned:.4f}; "
            f"printed candidate {self.printed_candidate:.4f} "
            f"(|diff| = {abs(self.scanned - self.printed_candidate):.4f}), "
            f"analytic candidate {self.analytic_candidate:.4f} "
            f"(|diff| = {abs(self.scanned - self.analytic_candidate):.4f})"
        )


def psi01_x_threshold(tol: float = 2e-3, dim: int = 4) -> XThresholdComparison:
    """Noise threshold of the bilinear-form criterion, by see-saw product-vector scan."""

    def entangled(s: float) -> bool:
        x = psi01_bilinear_x(s, dim)
        res = witnesses.product_vector_scan(x)
        return res.value > witnesses.POSITIVITY_EPS

    s_star = threshold_scan(entangled, 0.2, 0.9, tol)
    return XThresholdComparison(s_star, PRINTED_X_THRESHOLD, ANALYTIC_X_THRESHOLD)


def squeezed_psi01(z: complex, dim_a: int = 64, dim_b: int = 4) -> StateVector:
    """Single-mode squeeze applied to one side of the single-photon pair."""
    sig = signature(boson("a", dim_a), boson("b", dim_b))
    s = ops.squeeze(z, dim_a)
    amps = (
        np.kron(s[:, 0], ops.fock(1, dim_b)) + np.kron(s[:, 1], ops.fock(0, dim_b))
    ) / np.sqrt(2)
    return StateVector(sig, amps)


def atom_field_bell(field_dim: int = 4) -> tuple[SpaceSignature, StateVector]:
    """(|e>|0> + |g>|1>)/sqrt(2) on a field (x) atom space."""
    from .spaces import qubit  # local import keeps the module header compact

    sig = signature(boson("field", field_dim), qubit("atom"))
    amps = (
        basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        + basis_state(sig, {"field": 1, "atom": 0}).amplitudes
    ) / np.sqrt(2)
    return sig, StateVector(sig, amps)
