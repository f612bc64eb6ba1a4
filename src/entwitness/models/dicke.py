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

The oracle here is an honest three-mode truncated simulation; sparse
storage plus a Krylov-type propagator keeps comfortable truncations cheap.
``scipy.sparse`` and ``scipy.sparse.linalg`` are reached as attributes of
``scipy``, whose lazy loader imports them on the oracle's first call, so
importing this module (and every CLI run, none of which calls the oracle)
leaves them unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .. import operators as ops
from ..spaces import StateVector, boson, escalate_fock_dim, require_low_leakage, signature


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
    """Rows give (a, x1, x2) back in terms of the normal modes."""
    _check_split(n_atoms, k)
    sk = math.sqrt(k / (2.0 * n_atoms))
    snk = math.sqrt((n_atoms - k) / (2.0 * n_atoms))
    return np.array(
        [
            [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
            [-sk, math.sqrt((n_atoms - k) / n_atoms), sk],
            [-snk, -math.sqrt(k / n_atoms), snk],
        ]
    )


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


def _sparse_mode_ops(dims: tuple[int, int, int]):
    eyes = [scipy.sparse.identity(d, dtype=complex, format="csr") for d in dims]
    lowered = []
    for i, d in enumerate(dims):
        mats = list(eyes)
        mats[i] = scipy.sparse.csr_matrix(ops.annihilator(d))
        lowered.append(scipy.sparse.kron(scipy.sparse.kron(mats[0], mats[1]), mats[2], format="csr"))
    return lowered


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
    """Evolved vector, its worst leakage and the two group lowering operators."""
    if len(cfg.field_amplitudes) > dims[0]:
        raise ValueError("field amplitudes longer than the mode-a truncation")
    a, x1, x2 = _sparse_mode_ops(dims)
    number = a.conj().T @ a + x1.conj().T @ x1 + x2.conj().T @ x2
    hop1 = a @ x1.conj().T
    hop2 = a @ x2.conj().T
    h = (
        cfg.omega * number
        + cfg.kappa * math.sqrt(cfg.k) * (hop1 + hop1.conj().T)
        + cfg.kappa * math.sqrt(cfg.n_atoms - cfg.k) * (hop2 + hop2.conj().T)
    )
    field = np.zeros(dims[0], dtype=complex)
    field[: len(cfg.field_amplitudes)] = cfg.field_amplitudes
    psi0 = np.zeros(int(np.prod(dims)), dtype=complex)
    psi0.reshape(dims)[:, 0, 0] = field
    psi = scipy.sparse.linalg.expm_multiply(-1j * cfg.t * h.tocsc(), psi0)
    modes = (boson(f"dicke-oracle {m}", d) for m, d in zip(("a", "x1", "x2"), dims))
    worst = require_low_leakage(StateVector(signature(*modes), psi))
    return psi, worst, x1, x2


def _oracle_at_dims(cfg: DickeConfig, dims: tuple[int, int, int]) -> DickeOracleResult:
    psi, worst, x1, x2 = _evolve(cfg, dims)
    v1 = x1 @ psi
    v2 = x2 @ psi
    v12 = x1 @ v2
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
