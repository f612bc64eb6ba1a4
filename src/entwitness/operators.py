"""Bosonic and atomic operator factories, Gaussian unitaries, standard states.

Sign and ordering conventions, fixed here and reused everywhere:

* Fock basis ``|0>, ..., |dim-1>``; the annihilator obeys a|n> = sqrt(n)|n-1>
  and the truncated creator kills the top level.
* displacement  D(alpha) = exp(alpha a^dag - conj(alpha) a)
* rotation      R(theta) = exp(i theta a^dag a)
* squeeze       S(z) = exp((conj(z) a^2 - z a^dag^2) / 2),  z = r e^{i phi},
  so that S^dag a S = a cosh r - a^dag e^{+i phi} sinh r.
* two-mode squeeze  exp(xi a^dag b^dag - conj(xi) a b) acting on |0,0>,
  xi = r e^{i theta}, exponentiated on the photon-pair ladder |n,n>.
* beam splitter on an ordered pair (first, second): exp(theta (a^dag b - a b^dag))
  with t = cos theta, r = sin theta, giving the Heisenberg action
  a -> t a + r b and b -> -r a + t b.
* qubit basis order (|g>, |e>); sigma^- = |g><e|.

Squeezing phases are easy to get backwards; every result in this package
that is sensitive to them points back at this docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .spaces import (
    DensityMatrix,
    LabeledOperator,
    SpaceSignature,
    State,
    StateVector,
    boson,
    embed_many,
    expectation,
    require_low_leakage,
    signature,
)


def annihilator(dim: int) -> np.ndarray:
    if dim < 2:
        raise ValueError(f"annihilator needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def creator(dim: int) -> np.ndarray:
    return annihilator(dim).conj().T


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def _checked_exp(generator: np.ndarray, label: str) -> np.ndarray:
    """exp(generator); raises if its column 0 leaks out of the truncation.

    Column 0 is the image of the vacuum, checked as one bosonic factor
    named ``label``.
    """
    u = linalg.mat_exp(generator)
    require_low_leakage(StateVector(signature(boson(label, u.shape[0])), u[:, 0]))
    return u


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha); raises if the displaced vacuum leaks out of the truncation."""
    a = annihilator(dim)
    return _checked_exp(alpha * a.conj().T - np.conj(alpha) * a, f"displacement(alpha={alpha})")


def rotation(theta: float, dim: int) -> np.ndarray:
    """R(theta) = exp(i theta n); diagonal, exact at any truncation."""
    return np.diag(np.exp(1j * theta * np.arange(dim))).astype(complex)


def squeeze(z: complex, dim: int) -> np.ndarray:
    """S(z); raises if the squeezed vacuum leaks out of the truncation."""
    a = annihilator(dim)
    adag = a.conj().T
    return _checked_exp((np.conj(z) * (a @ a) - z * (adag @ adag)) / 2, f"squeeze(z={z})")


@dataclass(frozen=True)
class GaussianParams:
    """One displacement + rotation + squeeze, applied as D(alpha) R(theta) S(z)."""

    alpha: complex = 0.0
    theta: float = 0.0
    z: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))

    @property
    def r(self) -> float:
        return abs(self.z)


def gaussian_unitary(params: GaussianParams, dim: int) -> np.ndarray:
    return (
        displacement(params.alpha, dim)
        @ rotation(params.theta, dim)
        @ squeeze(params.z, dim)
    )


def qubit_ops() -> dict[str, np.ndarray]:
    """sigma^+, sigma^-, sigma^z and the upper-level projector, basis (g, e)."""
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sp = sm.conj().T
    return {
        "plus": sp,
        "minus": sm,
        "z": sp @ sm - sm @ sp,
        "p_excited": sp @ sm,
    }


GROUND = np.array([1, 0], dtype=complex)
EXCITED = np.array([0, 1], dtype=complex)


def collective_spin(n_qubits: int) -> dict[str, np.ndarray]:
    """Summed raising/lowering and z operators on the 2^N product space."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    ops = qubit_ops()
    dim = 2**n_qubits
    j_minus = np.zeros((dim, dim), dtype=complex)
    for i in range(n_qubits):
        mats = [np.eye(2, dtype=complex)] * n_qubits
        mats[i] = ops["minus"]
        j_minus += linalg.kron_all(mats)
    j_plus = j_minus.conj().T
    return {
        "plus": j_plus,
        "minus": j_minus,
        "z": (j_plus @ j_minus - j_minus @ j_plus) / 2,
    }


def delta(op: LabeledOperator, state: State) -> LabeledOperator:
    """Center an operator on a state: op - <op> * identity.

    The subtraction is recomputed for each state under test, so witness
    matrices built from centered operators follow the state they probe.
    """
    mean = expectation(state, op)
    centered = op.local - np.eye(op.local.shape[0], dtype=complex) * mean
    name = f"delta({op.name})" if op.name else ""
    return LabeledOperator(op.signature, centered, op.support, name, op.axes)


# ---------------------------------------------------------------------------
# standard single- and two-mode states (raw amplitude vectors / matrices)
# ---------------------------------------------------------------------------


def fock(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValueError(f"Fock level {n} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def coherent(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha)|0>, built from the matrix exponential."""
    return displacement(alpha, dim)[:, 0].copy()


def squeezed_vacuum(z: complex, dim: int) -> np.ndarray:
    """S(z)|0>."""
    return squeeze(z, dim)[:, 0].copy()


def thermal(nbar: float, dim: int) -> np.ndarray:
    """Thermal density matrix with geometric weights, renormalized to trace 1."""
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
    else:
        q = nbar / (1.0 + nbar)
        w = q ** np.arange(dim) / (1.0 + nbar)
        mode = signature(boson(f"thermal(nbar={nbar})", dim))
        require_low_leakage(DensityMatrix(mode, np.diag(w)))
        w = w / w.sum()
    return np.diag(w).astype(complex)


def two_mode_squeezed(r: float, dim: int, phase: float = 0.0) -> np.ndarray:
    """exp(xi a^dag b^dag - conj(xi) ab)|0,0> with xi = r e^{i phase}.

    Returned as a vector on the dim*dim product space (first mode major).
    The generator conserves n_a - n_b, so the vacuum evolves inside the
    photon-pair ladder |n,n>, n < dim, where it acts as the dim x dim matrix
    K[n+1, n] = xi (n+1), K[n, n+1] = -conj(xi) (n+1).  Column 0 of exp(K)
    holds the pair amplitudes c_n; both modes have level populations
    |c_n|^2, so one leakage check on the ladder covers mode 0 and mode 1.
    """
    if r < 0:
        raise ValueError("squeeze magnitude must be nonnegative")
    xi = r * np.exp(1j * phase)
    pairs = np.arange(1, dim, dtype=float)
    ladder = np.diag(xi * pairs, k=-1) - np.diag(np.conj(xi) * pairs, k=1)
    c = _checked_exp(ladder, f"two_mode_squeezed(r={r}) mode 0")[:, 0]
    psi = np.zeros(dim * dim, dtype=complex)
    psi[:: dim + 1] = c
    return psi


def beamsplitter_pair_matrix(t: float, r: float, dims: tuple[int, int]) -> np.ndarray:
    """Two-mode beam-splitter unitary on its own pair space.

    Heisenberg action: a -> t a + r b and b -> -r a + t b for the ordered
    pair.  Total photon number across the pair is conserved exactly; the
    unitary is masked sector by sector to keep it that way.
    """
    if t < 0 or r < 0 or abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not a unitary beam-splitter pair")
    da, db = dims
    a = np.kron(annihilator(da), np.eye(db, dtype=complex))
    b = np.kron(np.eye(da, dtype=complex), annihilator(db))
    theta = math.atan2(r, t)
    u = linalg.mat_exp(theta * (a.conj().T @ b - a @ b.conj().T))
    occ = (np.arange(da)[:, None] + np.arange(db)[None, :]).ravel()
    return np.where(occ[:, None] == occ[None, :], u, 0.0)


def beamsplitter_unitary(
    t: float,
    r: float,
    labels: tuple[str, str],
    sig: SpaceSignature,
) -> LabeledOperator:
    """Beam splitter on two labeled modes, identity on all other factors."""
    la, lb = labels
    u = beamsplitter_pair_matrix(t, r, (sig.factor(la).dim, sig.factor(lb).dim))
    return embed_many(u, [la, lb], sig, name=f"BS({t:g},{r:g})")
