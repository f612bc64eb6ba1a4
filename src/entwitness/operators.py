"""Bosonic and atomic operator factories, Gaussian unitaries, standard states.

Sign and ordering conventions, fixed here and reused everywhere:

* Fock basis ``|0>, ..., |dim-1>``; the annihilator obeys a|n> = sqrt(n)|n-1>
  and the truncated creator kills the top level.  a, the number operator
  and the thermal weights each have one real nonzero diagonal, and one
  formula: :func:`annihilator_band`, :func:`number_band` and
  ``Band.diagonal`` of :func:`thermal_weights`, with no dim x dim array.
  Handed to ``embed``, each is stored as that diagonal
  (:class:`~entwitness.spaces.LabeledOperator`), so applying, conjugating,
  scaling or centring one (:func:`delta`) makes no dense copy.  The dense
  :func:`annihilator`, :func:`creator`, :func:`number_op` and
  :func:`thermal` are those bands made dense.
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

Gaussian unitaries are phase rotations of one fixed exponential.  R(theta)
is diagonal and R a R^dag = e^{-i theta} a holds exactly at any truncation,
so each factory is R(phase) exp(m K) R(phase)^dag for a real antisymmetric
unit generator K:

* displacement  K_d = a^dag - a, m = |alpha|, phase = arg alpha;
* squeeze       K_s = (a^2 - a^dag^2) / 2, m = r, phase = phi / 2;
* pair ladder   K_p[n+1, n] = n + 1 = -K_p[n, n+1], m = r, phase = theta.

Only the spectrum of i K is needed: its
:class:`~entwitness.spaces.SectorSpectrum`, the one spectrum type of the
package, eigensolved on the classes of the Fock level modulo K's level
step.  K_s moves the level by 2, so the squeeze is solved as its two
photon-parity blocks in one batched eigensolve; K_d and K_p move it by 1
and are solved whole.  The spectrum is computed, and checked Hermitian,
once per (kind, dim) and kept in a small cache of read-only arrays; a call
then costs one product V e^{-i m lambda} V^dag per block and two phase
scalings.  Zero magnitude gives the identity exactly.  The states
:func:`coherent`, :func:`squeezed_vacuum` and :func:`two_mode_squeezed`
need only the image of the vacuum, column 0, and
:func:`squeezed_single_photon` only column 1; a column costs one
matrix-vector product in the block that holds its level.

The Gaussian and thermal states are checked under the one truncation rule
of :func:`~entwitness.spaces.require_low_leakage`: the four Gaussian states
through :func:`_checked_column`, :func:`thermal` on its weights.  A unitary
factory checks its column 0, the image of the vacuum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bands import Band
from .spaces import (
    LabeledOperator,
    SectorSpectrum,
    State,
    StateVector,
    boson,
    expectation,
    require_low_leakage,
    signature,
)


def annihilator_band(dim: int) -> Band:
    """a by its one diagonal, sqrt(n) at [n - 1, n], with no dim x dim array."""
    if dim < 2:
        raise ValueError(f"annihilator needs dim >= 2, got {dim}")
    return Band.diagonal(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def annihilator(dim: int) -> np.ndarray:
    return annihilator_band(dim).dense(dim)


def creator(dim: int) -> np.ndarray:
    return annihilator(dim).conj().T


def number_band(dim: int) -> Band:
    """The number operator by its diagonal, with no dim x dim array."""
    return Band.diagonal(np.arange(dim, dtype=float))


def number_op(dim: int) -> np.ndarray:
    return number_band(dim).dense(dim)


def _unit_generator(kind: str, dim: int) -> np.ndarray:
    """The real antisymmetric generator K of one Gaussian factory at phase 0."""
    if kind == "pair":
        pairs = np.arange(1, dim, dtype=float)
        return np.diag(pairs, k=-1) - np.diag(pairs, k=1)
    if kind == "displacement":
        a = annihilator(dim)
        return a.conj().T - a
    if kind == "squeeze":
        # (a^2 - a^dag^2) / 2: a^2 has sqrt(n + 1) sqrt(n + 2) at [n, n + 2]
        n = np.arange(dim - 2, dtype=float)
        entries = np.sqrt(n + 1) * np.sqrt(n + 2) / 2
        return (np.diag(entries, k=2) - np.diag(entries, k=-2)).astype(complex)
    raise ValueError(f"unknown Gaussian generator kind {kind!r}")


_SPECTRUM_CACHE_SIZE = 8  # (kind, dim) spectra kept; each holds at most one D x D of eigenvectors


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _unit_spectrum(kind: str, dim: int) -> SectorSpectrum:
    """The read-only :class:`SectorSpectrum` of i K for one generator kind and dim."""
    mode = signature(boson(kind, dim))
    spectrum = SectorSpectrum.of(LabeledOperator(mode, 1j * _unit_generator(kind, dim)))
    for ed in spectrum.spectra:
        ed.eigenvalues.flags.writeable = False
        ed.eigenvectors.flags.writeable = False
    return spectrum


def _checked_exp(kind: str, magnitude: float, phase: float, dim: int, label: str) -> np.ndarray:
    """R(phase) exp(magnitude K) R(phase)^dag; raises if its column 0 leaks.

    Column 0 is the image of the vacuum, checked as one bosonic factor
    named ``label``.
    """
    spectrum = _unit_spectrum(kind, dim)
    if magnitude == 0:
        u = np.eye(dim, dtype=complex)
    else:
        u = spectrum.function_of(lambda w: np.exp(-1j * magnitude * w))
        ph = np.exp(1j * phase * np.arange(dim))
        u *= ph[:, None]
        u *= ph.conj()
    require_low_leakage(StateVector(signature(boson(label, dim)), u[:, 0]))
    return u


@functools.lru_cache(maxsize=2 * _SPECTRUM_CACHE_SIZE)
def _level_position(kind: str, dim: int, n: int) -> tuple[int, int, int]:
    """(group, sector, position) of level n in the sectors of :func:`_unit_spectrum`."""
    for g, idx in enumerate(_unit_spectrum(kind, dim).sectors):
        sector, at = np.nonzero(idx == n)
        if sector.size:
            return g, int(sector[0]), int(at[0])
    raise ValueError(f"level {n} is in no sector of the {kind} spectrum at dim {dim}")


def _unit_column(kind: str, magnitude: float, phase: float, dim: int, n: int) -> np.ndarray:
    """Column n of :func:`_checked_exp`, without the D x D unitary and unchecked.

    The column lies in the sector of level n (:func:`_level_position`).
    With i K = V diag(lambda) V^dag there, its entry k is e^{i phase (k - n)}
    (V (e^{-i m lambda} * conj(V[n])))_k: one matrix-vector product of the
    sector's size, D for displacement and the pair ladder, D / 2 for squeeze.
    """
    spectrum = _unit_spectrum(kind, dim)
    column = np.zeros(dim, dtype=complex)
    if magnitude == 0:
        column[n] = 1.0
        return column
    g, sector, at = _level_position(kind, dim, n)
    ed = spectrum.spectra[g]
    v, w = ed.eigenvectors[sector], ed.eigenvalues[sector]
    column[spectrum.sectors[g][sector]] = v @ (np.exp(-1j * magnitude * w) * v[at].conj())
    column *= np.exp(1j * phase * (np.arange(dim) - n))
    return column


def _checked_column(
    kind: str, magnitude: float, phase: float, dim: int, n: int, label: str
) -> np.ndarray:
    """Column n of :func:`_checked_exp`, without the D x D unitary; raises if it leaks.

    The column is checked as one bosonic factor named ``label``.
    """
    column = _unit_column(kind, magnitude, phase, dim, n)
    require_low_leakage(StateVector(signature(boson(label, dim)), column))
    return column


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha); raises if the displaced vacuum leaks out of the truncation."""
    return _checked_exp(
        "displacement", abs(alpha), float(np.angle(alpha)), dim, f"displacement(alpha={alpha})"
    )


def rotation(theta: float, dim: int) -> np.ndarray:
    """R(theta) = exp(i theta n); diagonal, exact at any truncation."""
    return np.diag(np.exp(1j * theta * np.arange(dim))).astype(complex)


def squeeze(z: complex, dim: int) -> np.ndarray:
    """S(z); raises if the squeezed vacuum leaks out of the truncation."""
    return _checked_exp("squeeze", abs(z), float(np.angle(z)) / 2, dim, f"squeeze(z={z})")


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
    """D(alpha) R(theta) S(z); R(theta) is diagonal, so it scales the columns of D."""
    d_r = displacement(params.alpha, dim) * np.exp(1j * params.theta * np.arange(dim))
    return d_r @ squeeze(params.z, dim)


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
    matrices built from centered operators follow the state they probe.  A
    diagonal-stored local stays one when the centred local has one real
    diagonal: off the main diagonal when <op> is exactly 0 (the centred
    local then equals op's bit for bit), on it when <op> is real; any other
    is a dense copy with <op> subtracted on its diagonal.
    """
    name = f"delta({op.name})" if op.name else ""
    return op._minus_identity(expectation(state, op), name)


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
    """D(alpha)|0>, column 0 of :func:`displacement`, under the same leakage check."""
    return _checked_column(
        "displacement", abs(alpha), float(np.angle(alpha)), dim, 0, f"displacement(alpha={alpha})"
    )


def squeezed_vacuum(z: complex, dim: int) -> np.ndarray:
    """S(z)|0>, column 0 of :func:`squeeze`, under the same leakage check."""
    return _checked_column("squeeze", abs(z), float(np.angle(z)) / 2, dim, 0, f"squeeze(z={z})")


def squeezed_single_photon(z: complex, dim: int) -> np.ndarray:
    """S(z)|1>, column 1 of :func:`squeeze`; raises if it leaks.

    S(z)|1> reaches the top two levels at a smaller r than S(z)|0>, so a
    squeeze that :func:`squeeze` accepts can still fail here.
    """
    return _checked_column(
        "squeeze", abs(z), float(np.angle(z)) / 2, dim, 1, f"squeeze(z={z}) |1>"
    )


def thermal(nbar: float, dim: int) -> np.ndarray:
    """Thermal density matrix: the diagonal matrix of :func:`thermal_weights`."""
    return Band.diagonal(thermal_weights(nbar, dim)).dense(dim)


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Geometric thermal level populations, renormalized to sum 1; raises if they leak.

    The weights are checked as the vector sqrt(w), whose level populations
    are w, before any matrix is built; so a refusal costs O(dim).
    """
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
    else:
        q = nbar / (1.0 + nbar)
        w = q ** np.arange(dim) / (1.0 + nbar)
        mode = signature(boson(f"thermal(nbar={nbar})", dim))
        require_low_leakage(StateVector(mode, np.sqrt(w)))
        w = w / w.sum()
    return w


def two_mode_squeezed(r: float, dim: int, phase: float = 0.0) -> np.ndarray:
    """exp(xi a^dag b^dag - conj(xi) ab)|0,0> with xi = r e^{i phase}.

    Returned as a vector on the dim*dim product space (first mode major).
    The generator conserves n_a - n_b, so the vacuum evolves inside the
    photon-pair ladder |n,n>, n < dim, where it acts as the dim x dim matrix
    K[n+1, n] = xi (n+1), K[n, n+1] = -conj(xi) (n+1), which is
    R(phase) r K_p R(phase)^dag.  Column 0 of exp(K) holds the pair
    amplitudes c_n; both modes have level populations |c_n|^2, so one
    leakage check on the ladder covers mode 0 and mode 1.
    """
    if r < 0:
        raise ValueError("squeeze magnitude must be nonnegative")
    c = _checked_column("pair", r, phase, dim, 0, f"two_mode_squeezed(r={r}) mode 0")
    psi = np.zeros(dim * dim, dtype=complex)
    psi[:: dim + 1] = c
    return psi


def beamsplitter_spectrum(t: float, r: float, dims: tuple[int, int]) -> SectorSpectrum:
    """Block spectrum of G = i atan2(r, t) (a^dag b - a b^dag) on the pair space of (a, b).

    exp(-i G) is the beam splitter a -> t a + r b, b -> -r a + t b.
    """
    if t < 0 or r < 0 or abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not a unitary beam-splitter pair")
    da, db = dims
    hop = np.kron(creator(da), annihilator(db))  # a^dag b
    g = 1j * math.atan2(r, t) * (hop - hop.conj().T)
    return SectorSpectrum.of(LabeledOperator(signature(boson("a", da), boson("b", db)), g))
