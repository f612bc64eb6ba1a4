"""Labeled tensor-product spaces: states, operators, embedding, evolution.

A :class:`SpaceSignature` fixes an ordered list of subsystem factors, each a
truncated bosonic mode or a qubit.  Every state and operator carries its
signature, so partial traces, partial transposes and operator embeddings
never have to guess a tensor layout.

Operators are local: a :class:`LabeledOperator` keeps the matrix of the
factors it acts on and applies it by tensor contraction on the reshaped
full-space index of a vector, a stack of vectors or a density matrix, so
memory for an operator on a few modes does not grow with the total
dimension D.  The dense D x D ``.matrix`` is built only when a caller reads
it: Hermitian eigensolves of Hamiltonians (and so every propagator) and
sector projections.  Other D x D arrays are density matrices themselves,
the eigenvector matrix of a Hamiltonian, and the identity root of a density
matrix in the witness moment tables, an explicit ``np.eye(D)`` to which
the operator words are applied.

Evolution: :func:`evolve` and :func:`propagator_family` build U(t) for one
time at a time.  :func:`evolved_expectations` serves a whole time grid from
one eigendecomposition: it returns the T x K table of <O_k> along
exp(-i H t).  Each operator is rotated once into the eigenbasis and written
beside the others into a D x (k D) stack, and a block of times reads every
operator of a stack with one product, so no propagator or state is formed
per time.  :data:`_BLOCK_BYTES` bounds the stack and the per-block product
(an operator larger than the bound is a stack by itself), so memory is
O(T D + D^2).  A generator computes its eigendecomposition once and keeps
it, so the tables, propagators and evolved states of one H share it.

Truncation policy: each bosonic factor has an explicit dimension, and the
population of its top two levels ("leakage") measures how badly a state is
feeling the cutoff.  Only two functions hold the rule, and the package has
no other.  :func:`require_low_leakage` raises :class:`LeakageError` once a
factor's leakage reaches :data:`LEAKAGE_THRESHOLD`; raw vectors are checked
by wrapping them in a state whose factor labels name what is checked.
:func:`escalate_fock_dim` is the only retry: it runs again with the
truncation doubled, capped at :data:`MAX_FOCK_DIM`.  :func:`leakage_projector` is the leakage as an
observable, so a time grid can locate its worst point in an
:func:`evolved_expectations` table and hand that one state to the rule.

All values here are immutable and safe to share across threads; the
only state an operator changes is its cached full-space matrix and
eigendecomposition, each the same array whichever thread builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import linalg

BOSON = "boson"
QUBIT = "qubit"

LEAKAGE_THRESHOLD = 1e-6
MAX_FOCK_DIM = 4096
_BLOCK_BYTES = 512 * 2**10  # bound on each temporary of evolved_expectations


class SignatureError(ValueError):
    """Mismatched or malformed space signatures."""


class LeakageError(RuntimeError):
    """Population of the top Fock levels exceeded the truncation budget."""

    def __init__(self, label: str, population: float, threshold: float):
        self.label = label
        self.population = float(population)
        self.threshold = float(threshold)
        super().__init__(
            f"factor '{label}' holds {self.population:.3e} of its population in the "
            f"top two levels (threshold {self.threshold:.1e}); increase the truncation"
        )


@dataclass(frozen=True)
class Factor:
    label: str
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (BOSON, QUBIT):
            raise SignatureError(f"unknown factor kind '{self.kind}'")
        if self.dim < 2:
            raise SignatureError(f"factor '{self.label}' needs dim >= 2, got {self.dim}")
        if self.kind == QUBIT and self.dim != 2:
            raise SignatureError(f"qubit factor '{self.label}' must have dim 2")


def boson(label: str, dim: int) -> Factor:
    """A bosonic mode truncated to its lowest ``dim`` Fock levels."""
    return Factor(label, BOSON, int(dim))


def qubit(label: str) -> Factor:
    """A two-level factor with basis order (ground, excited)."""
    return Factor(label, QUBIT, 2)


@dataclass(frozen=True)
class SpaceSignature:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        labels = [f.label for f in self.factors]
        if not labels:
            raise SignatureError("a signature needs at least one factor")
        if len(set(labels)) != len(labels):
            raise SignatureError(f"duplicate factor labels in {labels}")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise SignatureError(f"no factor labeled '{label}' in {self.labels}")

    def factor(self, label: str) -> Factor:
        return self.factors[self.axis(label)]


def signature(*factors: Factor) -> SpaceSignature:
    return SpaceSignature(tuple(factors))


def _same_signature(a: SpaceSignature, b: SpaceSignature):
    if a != b:
        raise SignatureError(f"signature mismatch: {a.labels} vs {b.labels}")


@dataclass(frozen=True)
class StateVector:
    signature: SpaceSignature
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != self.signature.total_dim:
            raise SignatureError(
                f"{amps.size} amplitudes for a space of dim {self.signature.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.signature, self.amplitudes / n)

    def to_density(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix(self.signature, np.outer(a, a.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    signature: SpaceSignature
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.signature.total_dim
        if m.shape != (d, d):
            raise SignatureError(f"matrix shape {m.shape} does not match dim {d}")
        object.__setattr__(self, "matrix", m)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


State = Union[StateVector, DensityMatrix]


class LabeledOperator:
    """An operator stored as its local matrix on the factors it acts on.

    ``local`` acts on the factors at signature positions ``axes``, in that
    order (its tensor layout is the Kronecker product of those factors);
    every other factor carries the identity.  ``support`` is the set of
    factor labels the operator is meant for, which witnesses use to keep
    the two sides of a criterion apart.

    ``LabeledOperator(sig, matrix, support, name)`` takes a full-space
    matrix (``axes`` is every factor, in signature order); pass ``axes`` to
    give a local matrix instead.  :func:`embed` and :func:`embed_many` store
    the local matrix, ``dag``, ``-op`` and scalar ``*`` act on it, and ``@``,
    ``+`` and ``-`` lift both operands to the union of their axes, in
    signature order.  :meth:`apply` contracts the local matrix into the
    full-space index of an array, so expectation values and witnesses never
    form a full-space matrix.  The full-space D x D :attr:`matrix` is built
    on first access and cached; for an operator on every factor in
    signature order (Hamiltonians, propagators) it is the stored array.
    """

    __slots__ = ("signature", "local", "axes", "support", "name", "_matrix", "_eig")

    def __init__(
        self,
        signature: SpaceSignature,
        matrix: np.ndarray,
        support: Iterable[str] = frozenset(),
        name: str = "",
        axes: Sequence[int] | None = None,
    ):
        axes = tuple(range(len(signature.factors))) if axes is None else tuple(axes)
        local = np.asarray(matrix, dtype=complex)
        sub_dims = tuple(signature.dims[ax] for ax in axes)
        d = math.prod(sub_dims)
        if local.shape != (d, d):
            raise SignatureError(
                f"matrix shape {local.shape} does not match factor dims {sub_dims}"
            )
        self.signature = signature
        self.local = local
        self.axes = axes
        self.support = frozenset(support)
        self.name = name
        self._matrix = None
        self._eig = None

    @property
    def matrix(self) -> np.ndarray:
        """The full-space D x D matrix, built on first access."""
        if self._matrix is None:
            self._matrix = self._lifted(tuple(range(len(self.signature.factors))))
        return self._matrix

    def _spectrum(self) -> linalg.EigenDecomposition:
        """The checked eigendecomposition of the full-space matrix, built on first use."""
        if self._eig is None:
            self._eig = linalg.herm_eig(self.matrix)
        return self._eig

    def _lifted(self, axes: tuple[int, ...]) -> np.ndarray:
        """The local matrix on ``axes`` (a superset of ``self.axes``), identity elsewhere."""
        if axes == self.axes:
            return self.local
        dims = self.signature.dims
        rest = [ax for ax in axes if ax not in self.axes]
        d_rest = math.prod(dims[ax] for ax in rest)
        d = self.local.shape[0] * d_rest
        # kron(local, identity), laid out over (own axes..., rest...)
        big = np.multiply.outer(self.local, np.eye(d_rest, dtype=complex)).transpose(0, 2, 1, 3)
        order = list(self.axes) + rest
        n = len(order)
        perm = [order.index(ax) for ax in axes]
        t = big.reshape([dims[ax] for ax in order] * 2)
        return t.transpose(perm + [p + n for p in perm]).reshape(d, d)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``op.matrix @ x`` by contraction, without the full-space matrix.

        ``x`` is a full-space vector, or an array whose second-to-last index
        runs over the full space (a D x m stack, a density matrix, or a batch
        of either), as for ``np.matmul``.  The local matrix is contracted into
        the factors at ``self.axes`` of that index.
        """
        dims, axes, k = self.signature.dims, self.axes, len(self.axes)
        m = x.shape[-1] if x.ndim > 1 else 1
        if not axes or axes == tuple(range(axes[0], axes[0] + k)):
            # adjacent factors in signature order: one (batched) matmul
            post = math.prod(dims[axes[-1] + 1 :]) if axes else self.signature.total_dim
            y = x.reshape(-1, self.local.shape[0], post * m)
            return np.matmul(self.local, y).reshape(x.shape)
        at = [1 + ax for ax in axes]
        t = np.tensordot(
            self.local.reshape([dims[ax] for ax in axes] * 2),
            x.reshape((-1,) + dims + (m,)),
            axes=(list(range(k, 2 * k)), at),
        )
        return np.moveaxis(t, list(range(k)), at).reshape(x.shape)

    def dag(self) -> "LabeledOperator":
        name = f"{self.name}^dag" if self.name else ""
        return LabeledOperator(self.signature, self.local.conj().T, self.support, name, self.axes)

    def _combine(self, other: "LabeledOperator", fn) -> "LabeledOperator":
        _same_signature(self.signature, other.signature)
        axes = tuple(sorted(set(self.axes) | set(other.axes)))
        local = fn(self._lifted(axes), other._lifted(axes))
        return LabeledOperator(self.signature, local, self.support | other.support, "", axes)

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._combine(other, np.matmul)

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "LabeledOperator":
        local = self.local * scalar
        return LabeledOperator(self.signature, local, self.support, self.name, self.axes)

    __rmul__ = __mul__

    def __neg__(self) -> "LabeledOperator":
        return self * (-1.0)


def identity_operator(sig: SpaceSignature) -> LabeledOperator:
    """The identity, stored as the 1 x 1 matrix [[1]] on no factor."""
    return LabeledOperator(sig, np.ones((1, 1)), frozenset(), "I", axes=())


def embed_many(
    local: np.ndarray,
    labels: Sequence[str],
    sig: SpaceSignature,
    name: str = "",
) -> LabeledOperator:
    """An operator on chosen factors (its matrix laid out in the given order).

    The remaining factors carry the identity; the local matrix is stored as
    given, not lifted to the full space.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise SignatureError(f"repeated labels in {labels}")
    return LabeledOperator(sig, local, labels, name, [sig.axis(lab) for lab in labels])


def embed(local: np.ndarray, label: str, sig: SpaceSignature, name: str = "") -> LabeledOperator:
    """A single-factor operator, identity elsewhere."""
    return embed_many(local, [label], sig, name)


def basis_state(sig: SpaceSignature, occupations: Mapping[str, int]) -> StateVector:
    """Product basis vector |n_1, n_2, ...> given one level index per factor."""
    parts = []
    for f in sig.factors:
        n = int(occupations.get(f.label, 0))
        if not 0 <= n < f.dim:
            raise SignatureError(f"level {n} out of range for factor '{f.label}'")
        v = np.zeros(f.dim, dtype=complex)
        v[n] = 1.0
        parts.append(v)
    return StateVector(sig, linalg.kron_all(parts))


def product_state(sig: SpaceSignature, parts: Mapping[str, np.ndarray]) -> StateVector:
    """Tensor product of one amplitude vector per factor."""
    vecs = []
    for f in sig.factors:
        if f.label not in parts:
            raise SignatureError(f"missing amplitudes for factor '{f.label}'")
        v = np.asarray(parts[f.label], dtype=complex).ravel()
        if v.size != f.dim:
            raise SignatureError(f"factor '{f.label}' expects dim {f.dim}, got {v.size}")
        vecs.append(v)
    return StateVector(sig, linalg.kron_all(vecs))


def density_of(state: State) -> np.ndarray:
    if isinstance(state, StateVector):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


def expectation(state: State, op: LabeledOperator) -> complex:
    """<psi|O|psi> for vectors, Tr(rho O) for density matrices."""
    _same_signature(state.signature, op.signature)
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, op.apply(state.amplitudes)))
    return complex(np.trace(op.apply(state.matrix)))


def apply_operator(state: State, op: LabeledOperator) -> State:
    """O|psi> or O rho O^dag; used for local unitaries."""
    _same_signature(state.signature, op.signature)
    if isinstance(state, StateVector):
        return StateVector(state.signature, op.apply(state.amplitudes))
    # O rho O^dag = (O (O rho)^dag)^dag
    return DensityMatrix(state.signature, op.apply(op.apply(state.matrix).conj().T).conj().T)


def apply_local(state: State, label: str, u_local: np.ndarray) -> State:
    return apply_operator(state, embed(u_local, label, state.signature))


def evolve(h: LabeledOperator, t: float, state: State) -> State:
    """Propagate a state under exp(-i H t) for a Hermitian generator."""
    return apply_operator(state, propagator_family(h)(t))


def evolved_expectations(
    h: LabeledOperator,
    times: Sequence[float],
    state: State,
    ops: Sequence[LabeledOperator],
) -> np.ndarray:
    """T x K table of <O_k> in the state evolved by exp(-i H t), at every time.

    One eigendecomposition H = V diag(E) V^dag serves the whole grid.  With
    the phases u = exp(-i E t) and tilde X = V^dag X V,
    Tr(O rho(t)) = sum_n conj(u_n) (u (tilde O^T * tilde rho))_n, and
    <psi(t)|O|psi(t)> = sum_n conj(phi_n) (phi tilde O^T)_n with
    phi = u * tilde psi.  Each operator is rotated once and written beside
    the others into one D x (k D) stack, k operators at a time, so that a
    block of times is one (t x D)(D x k D) product followed by one batched
    product against the conjugate phases.  :data:`_BLOCK_BYTES` bounds the
    stack (unless one operator alone is larger) and the product, which
    sets k and the number of times per block.  The phase table is the only
    array that grows with T; no propagator or state is formed per time.
    """
    _same_signature(state.signature, h.signature)
    for op in ops:
        _same_signature(state.signature, op.signature)
    ed = h._spectrum()
    v, vh = ed.eigenvectors, ed.eigenvectors.conj().T
    d = v.shape[0]
    pure = isinstance(state, StateVector)
    tilde_state = vh @ state.amplitudes if pure else vh @ state.matrix @ v
    phases = np.outer(np.asarray(times, dtype=float), -1j * ed.eigenvalues)
    np.exp(phases, out=phases)
    n_t = phases.shape[0]
    table = np.empty((n_t, len(ops)), dtype=complex)
    row_bytes = d * table.itemsize
    per_stack = max(1, min(len(ops), _BLOCK_BYTES // (d * row_bytes)))
    stack = np.empty((d, per_stack * d), dtype=complex)
    for k0 in range(0, len(ops), per_stack):
        chunk = ops[k0 : k0 + per_stack]
        k = len(chunk)
        for j, op in enumerate(chunk):
            # tilde O^T = (O V)^T conj(V), written in place
            o_t = np.matmul(op.apply(v).T, vh.T, out=stack[:, j * d : (j + 1) * d])
            if not pure:
                o_t *= tilde_state
        step = max(1, _BLOCK_BYTES // (k * row_bytes))
        for start in range(0, n_t, step):
            u = phases[start : start + step]
            left = u * tilde_state if pure else u
            prod = (left @ stack[:, : k * d]).reshape(-1, k, d)
            values = np.matmul(prod, left.conj()[:, :, None])
            table[start : start + step, k0 : k0 + k] = values[..., 0]
    return table


def propagator_family(h: LabeledOperator):
    """One eigendecomposition, many times: returns U(t) as a callable."""
    ed = h._spectrum()

    def u_of_t(t: float) -> LabeledOperator:
        u = ed.function_of(lambda w: np.exp(-1j * w * t))
        return LabeledOperator(h.signature, u, h.support)

    return u_of_t


@dataclass(frozen=True)
class DensityValidation:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity_defect <= 1e-10
            and self.trace_defect <= 1e-8
            and self.min_eigenvalue >= -1e-8
        )


def validate_density(rho: DensityMatrix) -> DensityValidation:
    """Report-only check of Hermiticity, unit trace and positivity."""
    m = rho.matrix
    herm = float(np.abs(m - m.conj().T).max())
    tr = abs(complex(np.trace(m)) - 1.0)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return DensityValidation(herm, float(tr), float(w[0]))


def level_populations(state: State, label: str) -> np.ndarray:
    """Marginal occupation probabilities of one factor's levels."""
    sig = state.signature
    ax = sig.axis(label)
    dims = sig.dims
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes.reshape(dims)) ** 2
    else:
        probs = np.real(np.diag(state.matrix)).reshape(dims)
    other = tuple(i for i in range(len(dims)) if i != ax)
    return probs.sum(axis=other) if other else probs


def leakage(state: State, label: str) -> float:
    """Population of the top two levels of a bosonic factor."""
    pops = level_populations(state, label)
    return float(pops[-2:].sum())


def leakage_projector(sig: SpaceSignature, label: str) -> LabeledOperator:
    """Projector onto the top two levels of a factor: its expectation is the leakage."""
    dim = sig.factor(label).dim
    return embed(np.diag((np.arange(dim) >= dim - 2).astype(float)), label, sig)


def require_low_leakage(
    state: State,
    labels: Iterable[str] | None = None,
    threshold: float = LEAKAGE_THRESHOLD,
) -> float:
    """Raise :class:`LeakageError` if a bosonic factor leaks; return the worst leakage."""
    sig = state.signature
    if labels is None:
        labels = [f.label for f in sig.factors if f.kind == BOSON]
    worst = 0.0
    for lab in labels:
        pop = leakage(state, lab)
        if pop >= threshold:
            raise LeakageError(lab, pop, threshold)
        worst = max(worst, pop)
    return worst


def escalate_fock_dim(run, start_dim: int, max_dim: int = MAX_FOCK_DIM):
    """Retry ``run(dim)`` with doubled truncation until leakage is acceptable.

    ``run`` must raise :class:`LeakageError` when the truncation is too
    small.  Dimensions double from ``start_dim`` up to ``max_dim``.
    """
    dim = int(start_dim)
    while True:
        try:
            return run(dim)
        except LeakageError:
            if dim >= max_dim:
                raise
            dim = min(2 * dim, max_dim)
