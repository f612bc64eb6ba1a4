"""Resonant two-level atom coupled to one field mode, thermal field start.

H = omega a^dag a + (omega/2) sigma^z + kappa (sigma^+ a + sigma^- a^dag).

The witness trace follows the 2x2 atom-field matrix built from the centered
field quadratures {delta a, delta a^dag} against A = sigma^-.  With the
field thermal and the atom excited, the matrix stays diagonal: only its
upper-left entry can go positive, and it does so in bursts whose height
shrinks as the thermal occupation grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import operators as ops
from .. import witnesses
from ..spaces import (
    QUBIT,
    DensityMatrix,
    LabeledOperator,
    SpaceSignature,
    boson,
    embed,
    escalate_fock_dim,
    propagator_family,
    qubit,
    require_low_leakage,
    signature,
)

THERMAL_TAIL_LIMIT = 1e-12


@dataclass(frozen=True)
class JCConfig:
    nbar: float
    kt_grid: tuple[float, ...]
    fock_dim: int = 20
    omega: float = 1.0
    kappa: float = 0.1
    atom_initial: str = "excited"

    def __post_init__(self):
        object.__setattr__(self, "kt_grid", tuple(float(t) for t in self.kt_grid))
        if self.nbar < 0:
            raise ValueError("thermal occupation must be nonnegative")
        if self.atom_initial not in ("excited", "ground"):
            raise ValueError(f"unknown atom_initial '{self.atom_initial}'")
        if self.kappa <= 0:
            raise ValueError("coupling must be positive")
        if self.nbar > 0:
            tail = (self.nbar / (1 + self.nbar)) ** self.fock_dim
            if tail >= THERMAL_TAIL_LIMIT:
                raise ValueError(
                    f"fock_dim {self.fock_dim} leaves thermal tail {tail:.2e}; "
                    f"needs to be below {THERMAL_TAIL_LIMIT:.0e}"
                )


def jc_signature(fock_dim: int) -> SpaceSignature:
    return signature(boson("field", fock_dim), qubit("atom"))


def jc_hamiltonian(sig: SpaceSignature, omega: float, kappa: float) -> LabeledOperator:
    """Field term plus the atom terms of every qubit factor (Tavis-Cummings for several)."""
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    a = embed(ops.annihilator(dim), "field", sig, "a")
    h = omega * embed(ops.number_op(dim), "field", sig)
    for atom in (f.label for f in sig.factors if f.kind == QUBIT):
        sp = embed(qo["plus"], atom, sig)
        sm = embed(qo["minus"], atom, sig)
        sz = embed(qo["z"], atom, sig)
        h = h + (omega / 2) * sz + kappa * (sp @ a + sm @ a.dag())
    return h


@dataclass(frozen=True)
class JCWitnessTrace:
    kt: np.ndarray
    m11: np.ndarray
    m22: np.ndarray
    abs_m12: np.ndarray
    lambda_max: np.ndarray
    fock_dim: int
    max_leakage: float


def _trace_at_dim(cfg: JCConfig, dim: int) -> JCWitnessTrace:
    sig = jc_signature(dim)
    h = jc_hamiltonian(sig, cfg.omega, cfg.kappa)
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom", sig, "sigma-")
    a = embed(ops.annihilator(dim), "field", sig, "a")

    atom = ops.EXCITED if cfg.atom_initial == "excited" else ops.GROUND
    rho0 = np.kron(ops.thermal(cfg.nbar, dim), np.outer(atom, atom.conj()))

    u_of_t = propagator_family(h)
    m11 = np.empty(len(cfg.kt_grid))
    m22 = np.empty(len(cfg.kt_grid))
    m12 = np.empty(len(cfg.kt_grid))
    lam = np.empty(len(cfg.kt_grid))
    worst_leak = 0.0
    for i, kt in enumerate(cfg.kt_grid):
        u = u_of_t(kt / cfg.kappa)
        rho_t = DensityMatrix(sig, u.matrix @ rho0 @ u.matrix.conj().T)
        worst_leak = max(worst_leak, require_low_leakage(rho_t, ["field"]))
        da = ops.delta(a, rho_t)
        m = witnesses.witness_matrix_expand_b(rho_t, sm, [da, da.dag()])
        m11[i] = m.matrix[0, 0].real
        m22[i] = m.matrix[1, 1].real
        m12[i] = abs(m.matrix[0, 1])
        lam[i] = m.max_eigenvalue()
    return JCWitnessTrace(np.asarray(cfg.kt_grid), m11, m22, m12, lam, dim, worst_leak)


def jc_witness_trace(cfg: JCConfig) -> JCWitnessTrace:
    """Evolve the thermal-field start and record the witness matrix over time.

    Escalates the field truncation (doubling) if evolution ever populates
    the top Fock levels.
    """
    return escalate_fock_dim(lambda dim: _trace_at_dim(cfg, dim), cfg.fock_dim)


def jc_vacuum_m11(kt: np.ndarray) -> np.ndarray:
    """Closed form for the zero-temperature excited-atom start: sin^2 cos^2."""
    kt = np.asarray(kt, dtype=float)
    return np.sin(kt) ** 2 * np.cos(kt) ** 2
