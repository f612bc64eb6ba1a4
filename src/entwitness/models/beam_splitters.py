"""Entangling two vacuum modes through a cascade of two beam splitters.

Mode a carries the input state through both splitters; modes b and c tap off
one output each:

    b_out = -r1 a + t1 b
    c_out = -r2 (t1 a + r1 b) + t2 c
    a_out = t2 (t1 a + r1 b) + r2 c

With b and c starting in vacuum, every output correlation reduces to input
moments of mode a.  The plain correlation test on (b_out, c_out) fires iff
the input is sub-Poissonian; expanding the b_out side in {b_out^dag, b_out}
gives a 2x2 matrix test that is strictly stronger.  In input moments (all
entries carry the common factor (r1 t1 r2)^2):

    M11 = |<a^2>|^2 - <n^2> + (1 - 1/r1^2) <n>
    M12 = <a^2><n> - <n a^2>
    M22 = <n> - variance(n)

Both routes are checked against a direct three-mode simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import operators as ops
from .. import witnesses
from ..spaces import (
    DensityMatrix,
    SpaceSignature,
    StateVector,
    boson,
    embed,
    require_low_leakage,
    signature,
)
from .dicke import FieldMoments, field_moments


def _check_bs(t: float, r: float, which: str):
    if t < 0 or r < 0 or abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"beam splitter {which}: (t, r) = ({t}, {r}) is not unitary")


@dataclass(frozen=True)
class BSConfig:
    input_amplitudes: np.ndarray
    t1: float = 1 / math.sqrt(2)
    r1: float = 1 / math.sqrt(2)
    t2: float = 1 / math.sqrt(2)
    r2: float = 1 / math.sqrt(2)
    fock_dim: int = 12

    def __post_init__(self):
        _check_bs(self.t1, self.r1, "1")
        _check_bs(self.t2, self.r2, "2")
        object.__setattr__(
            self, "input_amplitudes", np.asarray(self.input_amplitudes, dtype=complex).ravel()
        )
        if len(self.input_amplitudes) > self.fock_dim:
            raise ValueError("input state longer than the truncation")

    def requires_simple_reduction(self):
        if self.r1 * self.t1 * self.r2 == 0.0:
            raise ValueError("the moment reduction needs r1 t1 r2 != 0")


def epsilon_state(eps: float, dim: int = 12) -> np.ndarray:
    """sqrt(1 - (1/sqrt(2) + eps)^2)|0> + (1/sqrt(2) + eps)|2>.

    Slightly super-Poissonian for eps < 0, yet still caught by the matrix
    test for small |eps|.  The |2> component needs ``dim`` >= 3.
    """
    if dim < 3:
        raise ValueError(f"epsilon_state needs dim >= 3 to hold |2>, got dim={dim}")
    c2 = 1 / math.sqrt(2) + eps
    if not abs(c2) < 1.0:
        raise ValueError(f"eps={eps} leaves no weight for the vacuum component")
    v = np.zeros(dim, dtype=complex)
    v[0] = math.sqrt(1.0 - c2**2)
    v[2] = c2
    return v


def simple_margin(moments: FieldMoments) -> float:
    """Sub-Poissonian margin <n> - variance(n); positive means entangled output."""
    return moments.mean_n - moments.variance


def matrix_from_moments(cfg: BSConfig, moments: FieldMoments, na2: complex) -> np.ndarray:
    """The 2x2 output witness matrix written in input moments."""
    cfg.requires_simple_reduction()
    scale = (cfg.r1 * cfg.t1 * cfg.r2) ** 2
    m11 = abs(moments.pair) ** 2 - moments.mean_n2 + (1.0 - 1.0 / cfg.r1**2) * moments.mean_n
    m12 = moments.pair * moments.mean_n - na2
    m22 = moments.mean_n - moments.variance
    return scale * np.array([[m11, m12], [np.conj(m12), m22]], dtype=complex)


def moment_na2(amplitudes: np.ndarray) -> complex:
    v = np.asarray(amplitudes, dtype=complex).ravel()
    a = ops.annihilator(v.size)
    n = ops.number_op(v.size)
    return complex(np.vdot(v, n @ (a @ (a @ v))))


def printed_reduction_sides(cfg: BSConfig, moments: FieldMoments, na2: complex) -> tuple[float, float]:
    """Left and right side of the determinant condition written in input moments.

    Entanglement of the output pair corresponds to lhs > rhs.  Equals
    |M12|^2 vs M11 M22 up to the common (r1 t1 r2)^4 factor; the random-
    moment test in the suite holds the two forms against each other.
    """
    lhs = abs(moments.pair * moments.mean_n - na2) ** 2
    rhs = (moments.mean_n - moments.variance) * (
        abs(moments.pair) ** 2 - moments.mean_n2 + (1.0 - 1.0 / cfg.r1**2) * moments.mean_n
    )
    return lhs, rhs


@dataclass(frozen=True)
class BSReport:
    simple_margin: float
    matrix: np.ndarray
    matrix_entangled: bool
    reduction_lhs: float
    reduction_rhs: float


def bs_conditions(cfg: BSConfig) -> BSReport:
    """Closed-form verdicts from input moments only."""
    m = field_moments(cfg.input_amplitudes)
    na2 = moment_na2(cfg.input_amplitudes)
    mat = matrix_from_moments(cfg, m, na2)
    lhs, rhs = printed_reduction_sides(cfg, m, na2)
    return BSReport(
        simple_margin=simple_margin(m),
        matrix=mat,
        matrix_entangled=witnesses.eig2_positive(mat),
        reduction_lhs=lhs,
        reduction_rhs=rhs,
    )


def bs_signature(fock_dim: int) -> SpaceSignature:
    return signature(boson("a", fock_dim), boson("b", fock_dim), boson("c", fock_dim))


@dataclass(frozen=True)
class BSSimulation:
    simple_margin: float
    matrix: np.ndarray
    matrix_entangled: bool
    scale: float  # (r1 t1 r2)^2, relating raw output margins to input moments


def bs_output_marginal(cfg: BSConfig):
    """(b, c) marginal of the cascade output as a density matrix.

    Each splitter's pair spectrum evolves the three-mode state reshaped to
    (pair, rest), sector by sector, so no unitary is formed.
    """
    dim = cfg.fock_dim
    psi = np.zeros((dim, dim, dim), dtype=complex)
    psi[: len(cfg.input_amplitudes), 0, 0] = cfg.input_amplitudes
    # splitter 1 on (a, b), then splitter 2 on (a, c); the third mode is the rest
    for t, r, order in ((cfg.t1, cfg.r1, (0, 1, 2)), (cfg.t2, cfg.r2, (0, 2, 1))):
        pair = psi.transpose(order).reshape(dim * dim, dim)
        out = ops.beamsplitter_spectrum(t, r, (dim, dim)).apply(lambda w: np.exp(-1j * w), pair)
        psi = out.reshape(dim, dim, dim).transpose(order)
    require_low_leakage(StateVector(bs_signature(dim), psi.ravel()))
    m_out = psi.reshape(dim, dim * dim)
    return DensityMatrix(signature(boson("b", dim), boson("c", dim)), m_out.T @ m_out.conj())


def bs_simulate(cfg: BSConfig) -> BSSimulation:
    """Direct three-mode run: apply both splitters, evaluate output witnesses.

    The two output taps carry all the information, so the witnesses are
    evaluated on the (b, c) marginal of the output state.  The reported
    simple margin is rescaled by (r1 t1 r2)^-2 so the numbers land on the
    same footing as :func:`bs_conditions`; the matrix is reported unscaled
    (both routes already carry the common factor).
    """
    dim = cfg.fock_dim
    rho_bc = bs_output_marginal(cfg)
    sig_bc = rho_bc.signature
    b = embed(ops.annihilator_band(dim), "b", sig_bc, "b")
    c = embed(ops.annihilator_band(dim), "c", sig_bc, "c")
    rep = witnesses.cond1(rho_bc, b, c)
    m = witnesses.witness_matrix_expand_a(rho_bc, [b.dag(), b], c)
    scale = (cfg.r1 * cfg.t1 * cfg.r2) ** 2
    return BSSimulation(
        simple_margin=rep.margin / scale,
        matrix=m.matrix,
        matrix_entangled=m.has_positive_eigenvalue(),
        scale=scale,
    )
