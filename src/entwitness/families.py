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

It also holds the states and probes of the worked examples, so the
experiment runners and the demos share one definition: the squeezed
single-photon pair with its quadrature-expanded witness and plain
correlation test (:func:`squeezed_pair_witnesses`), the local-uncertainty
sums of the two-mode squeezed vacuum (:func:`tmsv_lur`) and of the
atom-field superposition (:func:`atom_field_lur`), and the random ensemble
of the partial-transpose cross-check (:func:`ppt_trials`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
    qubit,
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


def _with_flat_noise(s: float, psi: StateVector, levels_a: int, levels_b: int) -> DensityMatrix:
    """s |psi><psi| + (1-s) * (flat noise on the lowest levels_a x levels_b levels)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight s={s} outside [0, 1]")
    sig = psi.signature
    p_a = np.zeros(sig.dims[0])
    p_a[:levels_a] = 1.0
    p_b = np.zeros(sig.dims[1])
    p_b[:levels_b] = 1.0
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho += 0.0  # the noise is +0.0 off the diagonal: adding it turns a -0.0 entry into +0.0
    rho.flat[:: sig.total_dim + 1] += (1 - s) / (levels_a * levels_b) * np.outer(p_a, p_b).ravel()
    return DensityMatrix(sig, rho)


def noisy_bell(s: float, c1: float, sig: SpaceSignature | None = None) -> DensityMatrix:
    """s |psi><psi| + (1-s)/4 * (flat noise on the correlated 2x2 block)."""
    return _with_flat_noise(s, bell_pair(c1, sig or bell_signature()), 2, 2)


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
    """Locate the noise threshold on the cond1 margin beyond its tolerance."""
    sig = bell_signature()
    a, b = bell_witness_ops(sig)

    def entangled(s: float) -> float:
        rep = witnesses.cond1(noisy_bell(s, c1, sig), a, b)
        return rep.margin - rep.tolerance

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
    return _with_flat_noise(s, correlated_subspace_state(v1, v2), 4, 2)


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

    def entangled(s: float) -> float:
        m = witnesses.witness_matrix_expand_a(noisy_correlated_subspace(s, v1, v2), basis, b_op)
        return witnesses.positive_eigenvalue_margin(m.matrix)

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
    return _with_flat_noise(s, psi01_state(psi01_signature(dim)), 2, 2)


def centered_quadrature_basis(state, label: str) -> list[LabeledOperator]:
    """{centered a, centered a^dag} for the given mode, centered on the state."""
    sig = state.signature
    dim = sig.factor(label).dim
    a = embed(ops.annihilator_band(dim), label, sig, label)
    da = ops.delta(a, state)
    return [da, da.dag()]


def _psi01_bilinear_forms(dim: int) -> Callable[[float], witnesses.WitnessMatrix]:
    """The map s -> ``psi01_bilinear_x(s, dim)``.

    The signature, |psi01> and the annihilators of both modes are built
    here, once; each call mixes in the noise and centres the annihilators on
    the noisy state.
    """
    sig = psi01_signature(dim)
    psi = psi01_state(sig)
    a = embed(ops.annihilator_band(dim), "a", sig, "a")
    b = embed(ops.annihilator_band(dim), "b", sig, "b")

    def form(s: float) -> witnesses.WitnessMatrix:
        rho = _with_flat_noise(s, psi, 2, 2)
        da, db = ops.delta(a, rho), ops.delta(b, rho)
        return witnesses.bilinear_form(rho, [da, da.dag()], [db, db.dag()])

    return form


def psi01_bilinear_x(s: float, dim: int = 4) -> witnesses.WitnessMatrix:
    return _psi01_bilinear_forms(dim)(s)


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
    """Noise threshold of the bilinear-form criterion, by see-saw product-vector scan.

    The signature, |psi01> and the two annihilators are built once per scan;
    each probed point only mixes in its noise, centres the annihilators and
    scans the form, up to the first product vector above the positivity
    threshold.
    """
    form = _psi01_bilinear_forms(dim)

    def entangled(s: float) -> float:
        eps = witnesses.POSITIVITY_EPS
        return witnesses.product_vector_scan(form(s), stop_above=eps).value - eps

    s_star = threshold_scan(entangled, 0.2, 0.9, tol)
    return XThresholdComparison(s_star, PRINTED_X_THRESHOLD, ANALYTIC_X_THRESHOLD)


def _squeezed_psi01_on(z: complex, sig: SpaceSignature) -> StateVector:
    """:func:`squeezed_psi01` on a given signature of modes a and b."""
    dim_a, dim_b = sig.dims
    amps = (
        np.kron(ops.squeezed_vacuum(z, dim_a), ops.fock(1, dim_b))
        + np.kron(ops.squeezed_single_photon(z, dim_a), ops.fock(0, dim_b))
    ) / np.sqrt(2)
    return StateVector(sig, amps)


def squeezed_psi01(z: complex, dim_a: int = 64, dim_b: int = 4) -> StateVector:
    """Single-mode squeeze applied to one side of the single-photon pair.

    S(z)|0> is :func:`operators.squeezed_vacuum`, the vector every factory
    gives for it, and S(z)|1> is :func:`operators.squeezed_single_photon`;
    each is one column of S(z) taken from the cached factor, so no D x D
    unitary is built.  Both columns pass the leakage check; S(z)|1> reaches
    the top two levels at a somewhat smaller r, so it is the one that
    raises first (labelled ``squeeze(z=...) |1>``).
    """
    return _squeezed_psi01_on(z, signature(boson("a", dim_a), boson("b", dim_b)))


def squeezed_pair_sweep(
    r_values: Sequence[float], dim_a: int, dim_b: int = 4
) -> list[tuple[witnesses.WitnessMatrix, witnesses.WitnessReport]]:
    """:func:`squeezed_pair_witnesses` for each r, in order.

    The signature and the annihilators a and b are built once per sweep.
    """
    sig = signature(boson("a", dim_a), boson("b", dim_b))
    a = embed(ops.annihilator_band(dim_a), "a", sig, "a")
    b = embed(ops.annihilator_band(dim_b), "b", sig, "b")
    out = []
    for r in r_values:
        st = _squeezed_psi01_on(r, sig)
        da = ops.delta(a, st)
        m = witnesses.witness_matrix_expand_a(st, [da.dag(), da], b)
        out.append((m, witnesses.cond1(st, a, b)))
    return out


def squeezed_pair_witnesses(
    r: float, dim_a: int, dim_b: int = 4
) -> tuple[witnesses.WitnessMatrix, witnesses.WitnessReport]:
    """The two verdicts of ``two-mode-invariant`` on :func:`squeezed_psi01`.

    Returns the witness matrix of [delta a^dag, delta a] (centered on the
    state) against b, whose positive eigenvalue survives every squeeze, and
    the plain ``cond1(a, b)`` report, which flips at tanh r = 1/sqrt(2).
    It is the one-r case of :func:`squeezed_pair_sweep`, which builds the
    signature and the annihilators once for all of its r values.
    """
    return squeezed_pair_sweep([r], dim_a, dim_b)[0]


def tmsv_lur(
    r_values: Sequence[float], dim: int
) -> list[tuple[float, witnesses.WitnessReport, witnesses.WitnessReport]]:
    """Local-uncertainty sum of (a, b^dag) on two-mode squeezed vacua.

    One (r, phase-0 report, phase-pi report) per r.  Every separable state
    keeps the sum at or above 1; the pi branch lands on e^{-2r}, the phase-0
    branch on e^{+2r}.  The signature and the pair are built once.
    """
    sig = signature(boson("a", dim), boson("b", dim))
    a = embed(ops.annihilator_band(dim), "a", sig, "a")
    b = embed(ops.annihilator_band(dim), "b", sig, "b")
    pair = [(a, b.dag())]
    out = []
    for r in r_values:
        plus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=0.0))
        minus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=math.pi))
        out.append((r, witnesses.lur_value(plus, pair, 1.0), witnesses.lur_value(minus, pair, 1.0)))
    return out


def atom_field_signature(field_dim: int = 4) -> SpaceSignature:
    """A field mode truncated to ``field_dim`` levels, then a two-level atom."""
    return signature(boson("field", field_dim), qubit("atom"))


def atom_field_bell(field_dim: int = 4) -> tuple[SpaceSignature, StateVector]:
    """(|e>|0> + |g>|1>)/sqrt(2) on a field (x) atom space."""
    sig = atom_field_signature(field_dim)
    amps = (
        basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        + basis_state(sig, {"field": 1, "atom": 0}).amplitudes
    ) / np.sqrt(2)
    return sig, StateVector(sig, amps)


def atom_field_superposition(theta: float, phi: float, sig: SpaceSignature) -> StateVector:
    """cos(theta)|0, e> + e^{i phi} sin(theta)|1, g> on an :func:`atom_field_signature`."""
    amps = (
        math.cos(theta) * basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        + math.sin(theta)
        * np.exp(1j * phi)
        * basis_state(sig, {"field": 1, "atom": 0}).amplitudes
    )
    return StateVector(sig, amps)


def atom_field_lur(
    thetas: Sequence[float], phis: Sequence[float]
) -> list[tuple[float, float, witnesses.WitnessReport]]:
    """Local-uncertainty sum of (a^dag, J+) on :func:`atom_field_superposition`.

    One (theta, phi, report) per pair, theta in the outer loop, on a
    four-level field.  The sum dips below the separable bound 1 on the
    phi = 0 branch for theta in (-pi/4, 0) and on the phi = pi branch for
    theta in (0, pi/4), and is back on the bound at both ends of each interval.
    """
    sig = atom_field_signature(4)
    a_dag = embed(ops.annihilator_band(4), "field", sig, "a").dag()
    jp = embed(ops.collective_spin(1)["plus"], "atom", sig, "J+")
    return [
        (
            theta,
            phi,
            witnesses.lur_value(atom_field_superposition(theta, phi, sig), [(a_dag, jp)], 1.0),
        )
        for theta in thetas
        for phi in phis
    ]


# ---------------------------------------------------------------------------
# random ensemble of the partial-transpose cross-check
# ---------------------------------------------------------------------------

# cap on the bytes of one stacked D x D complex array of a block of trials:
# a block holds PPT_BLOCK_BYTES // (16 D^2) trials (16 at D = 16), at least one
PPT_BLOCK_BYTES = 1 << 16
# trials whose streams are seeded by one hash call (32 bytes of seed state each)
PPT_SEED_CHUNK = 4096

# numpy.random.SeedSequence with its default pool of four 32-bit words: the
# constants of the pool hash (A), of the output hash of generate_state (B)
# and of the mix of two words
_WORD_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: its 32-bit words, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [(n >> shift) & _WORD_MASK for shift in range(0, max(n.bit_length(), 1), 32)]


def _hash_pools(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` with one column per entropy word.

    ``entropy`` holds the i-th 32-bit word of every row; the result has one
    row of four 64-bit words per row.  The hash constants do not depend on
    the data, so they advance as Python ints while the words stay ``uint32``
    arrays, whose products wrap modulo 2^32 as the C hash does.
    """
    n = len(entropy[0])
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _WORD_MASK
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        out ^= out >> np.uint32(16)
        return out

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _WORD_MASK
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        state[:, i] = value
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _trial_seed_states(seed: int, trials: Sequence[int]) -> np.ndarray:
    """``np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)`` for each k of ``trials``.

    One row per trial, hashed for all trials at once: the entropy is the
    32-bit words of ``seed`` followed by those of k, and trials with the same
    number of words share one call of :func:`_hash_pools`.
    """
    k = np.asarray(trials, dtype=np.uint64).reshape(-1)
    lead = _seed_words(seed)
    low = (k & np.uint64(_WORD_MASK)).astype(np.uint32)
    high = (k >> np.uint64(32)).astype(np.uint32)
    states = np.empty((len(k), 4), dtype=np.uint64)
    for rows, words in ((high == 0, [low]), (high != 0, [low, high])):
        n = int(np.count_nonzero(rows))
        if n:
            entropy = [np.full(n, word, dtype=np.uint32) for word in lead]
            states[rows] = _hash_pools(entropy + [word[rows] for word in words])
    return states


@functools.cache
def _hashed_seed_type() -> type:
    """A seed sequence that hands PCG64 the state :func:`_trial_seed_states` hashed.

    Built on first use: ``numpy.random`` is imported lazily, and importing
    it with the package would cost every run that draws nothing.
    """
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state  # PCG64 asks once, for 4 words of np.uint64

    return HashedSeed


def _trial_streams(seed: int, trials: Sequence[int]) -> Iterator[np.random.Generator]:
    """The stream ``np.random.default_rng((seed, k))`` of each k of ``trials``, in order.

    The seed states are hashed ``PPT_SEED_CHUNK`` trials at a time, so memory
    stays flat however many trials there are; a stream then costs one PCG64
    and one Generator, without a SeedSequence.
    """
    hashed_seed = _hashed_seed_type()
    for start in range(0, len(trials), PPT_SEED_CHUNK):
        for state in _trial_seed_states(seed, trials[start : start + PPT_SEED_CHUNK]):
            yield np.random.Generator(np.random.PCG64(hashed_seed(state)))


@dataclass(frozen=True)
class PptTrialBlock:
    """Trials of one kind on one space, stacked for ``witnesses.ppt_crosscheck_batch``.

    ``states`` holds kets (n, D) for kind "pure" and density matrices
    (n, D, D) for kind "separable"; ``ga`` (n, d_a, d_a) and ``gb``
    (n, d_b, d_b) are the local matrices of the probe operators A and B.
    """

    kind: str
    dims: tuple[int, int]
    trials: list[int]
    states: np.ndarray
    ga: np.ndarray
    gb: np.ndarray


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """``v`` with each row divided by its 2-norm, bit for bit ``row / np.linalg.norm(row)``.

    ``np.vecdot`` on the real and imaginary parts reaches the same BLAS
    ``ddot`` per row, with the same strides, as ``np.linalg.norm`` does on
    one row; an einsum or batched-matmul norm sums in another order.
    """
    re, im = v.real, v.imag
    return v / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]


def _product_kets(x: np.ndarray, da: int, db: int) -> np.ndarray:
    """Unit product kets v_a (x) v_b, one per row of ``x``.

    A row holds the real and imaginary parts of v_a, then of v_b.
    """
    va = _unit_rows(x[:, :da] + 1j * x[:, da : 2 * da])
    vb = _unit_rows(x[:, 2 * da : 2 * da + db] + 1j * x[:, 2 * da + db :])
    return (va[:, :, None] * vb[:, None, :]).reshape(len(x), da * db)


def _mixture(weights: np.ndarray, v: np.ndarray, v_conj: np.ndarray) -> np.ndarray:
    """sum_j w_j |v_j><v_j| with the weights normalised to sum to one."""
    w = weights / weights.sum()
    return (w[:, None, None] * (v[:, :, None] * v_conj[:, None, :])).sum(axis=0)


def _local_stack(x: np.ndarray, d: int) -> np.ndarray:
    """The (n, d, d) complex stack whose real, then imaginary, parts are the rows of ``x``."""
    return (x[:, : d * d] + 1j * x[:, d * d :]).reshape(len(x), d, d)


def random_separable(rng: np.random.Generator, da: int, db: int, products: int) -> np.ndarray:
    """A mixture of 1 to ``products`` random product states with random weights.

    It draws ``integers``, ``random``, then one ``normal`` holding every
    product ket, and computes what a separable block of ``ppt_trials`` does
    for one trial.
    """
    n_prod = int(rng.integers(1, products + 1))
    weights = rng.random(n_prod)
    v = _product_kets(rng.normal(size=(n_prod, 2 * (da + db))), da, db)
    return _mixture(weights, v, v.conj())


def _separable_block(
    rngs: Iterable[np.random.Generator], n: int, da: int, db: int, products: int
) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices (n, D, D) of a separable block, and its rows of local draws."""
    width = 2 * (da + db)
    local = np.empty((n, 2 * (da * da + db * db)))
    x = np.empty((n * products, width))
    weights = np.empty(n * products)
    ends = []
    used = 0
    for i, rng in enumerate(rngs):
        n_prod = int(rng.integers(1, products + 1))
        weights[used : used + n_prod] = rng.random(n_prod)
        draw = rng.normal(size=n_prod * width + local.shape[1])
        x[used : used + n_prod] = draw[: n_prod * width].reshape(n_prod, width)
        local[i] = draw[n_prod * width :]
        used += n_prod
        ends.append(used)
    v = _product_kets(x[:used], da, db)
    v_conj = v.conj()
    states = np.empty((n, da * db, da * db), dtype=complex)
    start = 0
    for i, end in enumerate(ends):
        states[i] = _mixture(weights[start:end], v[start:end], v_conj[start:end])
        start = end
    return states, local


def ppt_trials(
    seed: int,
    trials: int,
    dim_pairs: Sequence[tuple[int, int]],
    products: int,
) -> Iterator[PptTrialBlock]:
    """The ``ppt-crosscheck`` ensemble, in blocks of one kind and one pair of dims.

    Trial k draws everything from one stream, ``np.random.default_rng((seed,
    k))``, so it can be reproduced alone.  The streams are not built by
    ``default_rng``: :func:`_trial_seed_states` hashes the seed states of a
    few thousand trials at once, as ``SeedSequence((seed, k))`` would, and
    each state seeds a ``PCG64`` directly.  It lives on the space of
    ``dim_pairs[k % len(dim_pairs)]``; an even k is a pure state with
    complex Gaussian amplitudes, an odd k a separable mixture of 1 to
    ``products`` random product states (``integers`` for their number, then
    ``random`` for their weights).  The local matrices of A and B are
    complex Gaussian too.  After that a trial makes one ``normal`` draw: the
    real and imaginary parts of the ket or of each product's v_a and v_b,
    then of g_a, then of g_b.  The complex stacks are assembled and every
    ket normalised once per block, with the bits of one trial at a time.
    Trials are grouped by (kind, d_a, d_b), ascending within a group, and
    yielded in blocks of at most ``PPT_BLOCK_BYTES // (16 D^2)`` trials, so
    memory stays bounded however many trials run.
    """
    groups: dict[tuple[str, int, int], list[int]] = {}
    for trial in range(trials):
        kind = "pure" if trial % 2 == 0 else "separable"
        groups.setdefault((kind, *dim_pairs[trial % len(dim_pairs)]), []).append(trial)
    for (kind, da, db), members in groups.items():
        d = da * db
        size = max(1, PPT_BLOCK_BYTES // (16 * d * d))
        streams = _trial_streams(seed, members)
        for start in range(0, len(members), size):
            block = members[start : start + size]
            rngs = itertools.islice(streams, len(block))
            if kind == "pure":
                x = np.empty((len(block), 2 * (d + da * da + db * db)))
                for i, rng in enumerate(rngs):
                    x[i] = rng.normal(size=x.shape[1])
                states = _unit_rows(x[:, :d] + 1j * x[:, d : 2 * d])
                local = x[:, 2 * d :]
            else:
                states, local = _separable_block(rngs, len(block), da, db, products)
            ga = _local_stack(local[:, : 2 * da * da], da)
            gb = _local_stack(local[:, 2 * da * da :], db)
            yield PptTrialBlock(kind, (da, db), block, states, ga, gb)
