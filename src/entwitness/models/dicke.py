"""Collective atom-field dynamics in the low-excitation bosonic approximation.

N atoms in a cavity split into groups of k and N - k; once the collective
spins are bosonized (valid while atomic excitation stays far below N), the
three-mode Hamiltonian

H = omega (a^dag a + x1^dag x1 + x2^dag x2)
    + kappa sqrt(k) (a x1^dag + a^dag x1) + kappa sqrt(N-k) (a x2^dag + a^dag x2)

is quadratic.  It diagonalizes through an orthogonal mode mix with
eigenfrequencies omega -/+ Omega and omega, Omega = kappa sqrt(N), which
yields closed Heisenberg forms for every second- and fourth-order moment
appearing in the group-group entanglement margins.  With the atoms starting
in vacuum both margins collapse onto properties of the input field alone:

* pairing margin:  |<a^2>|^2 - <n>^2 positive (any squeezing does it)
* correlation margin:  <n> - variance(n) positive (sub-Poissonian field)

The oracle here is an honest three-mode truncated simulation.  H conserves
the total excitation number a^dag a + x1^dag x1 + x2^dag x2, so it is given
as the sum expression of its five local terms and eigensolved only in the
charge sectors the start vector occupies
(:class:`~entwitness.spaces.SectorSpectrum`), which evolves the vector
sector by sector; no full-space matrix is formed, so comfortable
truncations stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import operators as ops
from ..spaces import SectorSpectrum, StateVector, boson, embed, embed_many, signature
from ..spaces import escalate_fock_dim, require_low_leakage


@dataclass(frozen=True)
class FieldMoments:
    mean_n: float
    mean_n2: float
    pair: complex  # <a^2>

    @property
    def variance(self) -> float:
        return self.mean_n2 - self.mean_n**2


def field_moments(amplitudes: np.ndarray) -> FieldMoments:
    v = np.asarray(amplitudes, dtype=complex).ravel()
    dim = v.size
    a = ops.annihilator(dim)
    ns = np.arange(dim)
    probs = np.abs(v) ** 2
    pair = complex(np.vdot(v, a @ (a @ v)))
    return FieldMoments(float(probs @ ns), float(probs @ ns**2), pair)


@dataclass(frozen=True)
class DickeMargins:
    cond1_margin: float  # <n> - variance(n): sub-Poissonian test
    cond2_margin: float  # |<a^2>|^2 - <n>^2: pairing test
    moments: FieldMoments


def dicke_conditions(field_amplitudes: np.ndarray) -> DickeMargins:
    """Group-group entanglement margins from the input field alone.

    Positive cond2 margin: the pairing test flags the two atomic groups as
    entangled for every time with sin(Omega t) != 0.  Positive cond1
    margin: same conclusion from the correlation test.
    """
    m = field_moments(field_amplitudes)
    return DickeMargins(
        cond1_margin=m.mean_n - m.variance,
        cond2_margin=abs(m.pair) ** 2 - m.mean_n**2,
        moments=m,
    )


def hp_single_particle_matrix(n_atoms: int, k: int, omega: float, kappa: float) -> np.ndarray:
    """Coefficient matrix of the quadratic Hamiltonian in the (a, x1, x2) basis."""
    _check_split(n_atoms, k)
    ck, cnk = kappa * math.sqrt(k), kappa * math.sqrt(n_atoms - k)
    return np.array(
        [[omega, ck, cnk], [ck, omega, 0.0], [cnk, 0.0, omega]], dtype=complex
    )


def hp_mode_transform(n_atoms: int, k: int) -> np.ndarray:
    """Rows give the normal modes b0, b1, b2 in terms of (a, x1, x2)."""
    _check_split(n_atoms, k)
    sk = math.sqrt(k / (2.0 * n_atoms))
    snk = math.sqrt((n_atoms - k) / (2.0 * n_atoms))
    return np.array(
        [
            [1 / math.sqrt(2), -sk, -snk],
            [0.0, math.sqrt((n_atoms - k) / n_atoms), -math.sqrt(k / n_atoms)],
            [1 / math.sqrt(2), sk, snk],
        ]
    )


def hp_inverse_transform(n_atoms: int, k: int) -> np.ndarray:
    """Rows give (a, x1, x2) back in terms of the normal modes: the mix is orthogonal."""
    return hp_mode_transform(n_atoms, k).T


def _check_split(n_atoms: int, k: int):
    if not 1 <= k < n_atoms:
        raise ValueError(f"group size k={k} must satisfy 1 <= k < N={n_atoms}")


def heisenberg_moments(
    n_atoms: int,
    k: int,
    omega: float,
    kappa: float,
    t: float,
    field: FieldMoments,
) -> dict[str, complex]:
    """Closed-form moments at time t for the field-in, atoms-vacuum start."""
    _check_split(n_atoms, k)
    big_omega = kappa * math.sqrt(n_atoms)
    s2 = math.sin(big_omega * t) ** 2
    ratio = math.sqrt(k * (n_atoms - k)) / n_atoms
    return {
        "x1x2": -np.exp(-2j * omega * t) * ratio * s2 * field.pair,
        "n1": k / n_atoms * s2 * field.mean_n,
        "n2": (n_atoms - k) / n_atoms * s2 * field.mean_n,
        "x1dag_x2": ratio * s2 * field.mean_n,
        "n1n2": (k * (n_atoms - k) / n_atoms**2) * s2**2 * (field.mean_n2 - field.mean_n),
    }


@dataclass(frozen=True)
class DickeConfig:
    n_atoms: int
    k: int
    field_amplitudes: np.ndarray
    t: float
    omega: float = 1.0
    kappa: float = 0.1
    dims: tuple[int, int, int] | None = None

    def __post_init__(self):
        _check_split(self.n_atoms, self.k)
        object.__setattr__(
            self, "field_amplitudes", np.asarray(self.field_amplitudes, dtype=complex).ravel()
        )

    def default_dims(self) -> tuple[int, int, int]:
        m = field_moments(self.field_amplitudes)
        da = max(len(self.field_amplitudes), int(math.ceil(2 * (m.mean_n + 4 * math.sqrt(m.mean_n) + 4))))
        dxi = max(4, (da + 1) // 2)
        return (da, dxi, dxi)


@dataclass(frozen=True)
class DickeOracleResult:
    moments: dict[str, complex]
    dims: tuple[int, int, int]
    max_leakage: float
    # bosonization is trustworthy only while this stays far below 1
    group_excitation_over_atoms: float = 0.0


def evolve_three_mode(cfg: DickeConfig, dims: tuple[int, int, int]) -> np.ndarray:
    """Evolved three-mode vector at the given truncations; raises on leakage."""
    return _evolve(cfg, dims)[0]


def _evolve(cfg: DickeConfig, dims: tuple[int, int, int]):
    """Evolved vector, its worst leakage and its signature (modes a, x1, x2)."""
    if len(cfg.field_amplitudes) > dims[0]:
        raise ValueError("field amplitudes longer than the mode-a truncation")
    sig = signature(*(boson(f"dicke-oracle {m}", d) for m, d in zip(("a", "x1", "x2"), dims)))
    la = sig.labels[0]
    # H as the sum of five local terms: omega n on each mode, then the hops
    # kappa sqrt(k) (a x1^dag + h.c.) and kappa sqrt(N - k) (a x2^dag + h.c.)
    n_a, n_x1, n_x2 = (embed(ops.number_band(d), lab, sig) * cfg.omega for lab, d in zip(sig.labels, dims))
    h = n_a + n_x1 + n_x2
    for lab, d, size in zip(sig.labels[1:], dims[1:], (cfg.k, cfg.n_atoms - cfg.k)):
        hop = cfg.kappa * math.sqrt(size) * np.kron(ops.annihilator(dims[0]), ops.creator(d))
        h = h + embed_many(hop + hop.conj().T, [la, lab], sig)
    psi0 = np.zeros(sig.total_dim, dtype=complex)
    psi0.reshape(dims)[: len(cfg.field_amplitudes), 0, 0] = cfg.field_amplitudes
    spectrum = SectorSpectrum.of(h, sig.charges[np.flatnonzero(psi0)])
    psi = spectrum.apply(lambda w: np.exp(-1j * w * cfg.t), psi0)
    return psi, require_low_leakage(StateVector(sig, psi)), sig


def _oracle_at_dims(cfg: DickeConfig, dims: tuple[int, int, int]) -> DickeOracleResult:
    psi, worst, sig = _evolve(cfg, dims)
    x1, x2 = (embed(ops.annihilator_band(d), lab, sig) for lab, d in zip(sig.labels[1:], dims[1:]))
    v1, v2 = x1.apply(psi), x2.apply(psi)
    v12 = x1.apply(v2)
    moments = {
        "x1x2": complex(np.vdot(psi, v12)),
        "n1": complex(np.vdot(v1, v1)),
        "n2": complex(np.vdot(v2, v2)),
        "x1dag_x2": complex(np.vdot(v1, v2)),
        "n1n2": complex(np.vdot(v12, v12)),
    }
    ratio = (moments["n1"].real + moments["n2"].real) / cfg.n_atoms
    return DickeOracleResult(moments, dims, worst, ratio)


def dicke_oracle(cfg: DickeConfig) -> DickeOracleResult:
    """Direct truncated three-mode evolution; escalates truncations on leakage."""
    # all three truncations double together, scaled from the largest
    base = cfg.dims or cfg.default_dims()
    top = max(base)
    return escalate_fock_dim(
        lambda dim: _oracle_at_dims(cfg, tuple(d * dim // top for d in base)), top
    )
