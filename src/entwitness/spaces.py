"""Labeled tensor-product spaces: states, operators, embedding, evolution.

A :class:`SpaceSignature` fixes an ordered list of subsystem factors, each a
truncated bosonic mode or a qubit.  Every state and operator carries its
signature, so partial transposes and operator embeddings never have to
guess a tensor layout.

Operators are local: a :class:`LabeledOperator` keeps the matrix of the
factors it acts on and applies it by tensor contraction on the reshaped
full-space index of a vector, a stack of vectors or a density matrix, so
memory for an operator on a few modes does not grow with the total
dimension D.  An operator keeps the local it is given: a, a^dag, the
number operator and the leakage projector are built as their one real
diagonal (:mod:`~entwitness.bands`), stored as it and applied as one
shifted, scaled copy, and any other local is stored dense.  Sums, scalar
multiples and products on disjoint factors keep their expression and
read their sector blocks from it, so an operator built from per-factor
locals forms no D x D array.  The dense D x D ``.matrix`` is built only
when a caller reads it; no eigensolve does.  Other D x D arrays are
density matrices, their propagators, the eigenvector matrix of a
Hamiltonian, and the identity root of a density matrix in the witness
moment tables, an explicit ``np.eye(D)`` to which the operator words are applied.

Evolution: a generator has one spectrum, its :class:`SectorSpectrum`,
built once and kept.  The charge of a basis state is its total level
number (:attr:`SpaceSignature.charges`).  A generator's charge step m is
the gcd of the charge changes of its nonzero entries, and it is
eigensolved on the classes of the charge modulo m, one batched
:func:`linalg.herm_eig` per class size: by charge sector for m = 0 (a
generator that conserves the charge, such as the Jaynes-Cummings H), by
photon parity for m = 2 (a squeeze generator), and as one sector, the
whole space, for m = 1.  A sum of local terms that each conserve the
charge, passed as its expression, can be eigensolved in just the sectors a
start vector occupies.
:func:`evolve` applies exp(-i H t) to a vector sector by sector and to a
density matrix as the D x D propagator.  :func:`evolved_expectations`
returns the T x K table of <O_k> along a time grid, with no propagator or
state per time, or the B x T x K table of a stack of B states.  It takes an
H whose spectrum is by charge sector and states that couple no sectors,
refuses any other generator or state with a ValueError, and sums
Tr(O_NN rho_N(t)) over the sectors: only the diagonal blocks of each
observable are read, a block of 2 x 2 sectors contributes one cos/sin
phase per sector, and the states of a stack meet the phases in one
product.  :data:`_BLOCK_BYTES` bounds the observable blocks held at once
and their products with the state blocks.

Truncation policy: each bosonic factor has an explicit dimension, and the
population of its top two levels ("leakage") measures how badly a state is
feeling the cutoff.  Only two functions hold the policy, and the package
has no other.  :func:`check_leakage` raises :class:`LeakageError` once a
measured leakage reaches :data:`LEAKAGE_THRESHOLD`.  It judges each bosonic
factor of a state in :func:`require_low_leakage` (raw vectors are wrapped in
a state whose factor labels name what is checked), and the largest entry of
a :func:`leakage_projector` column of an :func:`evolved_expectations` table.
:func:`escalate_fock_dim` is the only retry: it runs again with the
truncation doubled, capped at :data:`MAX_FOCK_DIM`.

All values here are immutable and safe to share across threads; the
only state an operator changes is its cached full-space matrix, dense
local (of a diagonal-stored one or an expression, which it then drops),
diagonal sector blocks and spectrum, each the same array whichever thread
builds it, and the phase table its spectrum keeps for the last time grid,
replaced whole; a :class:`BlockIndex` keeps its index arithmetic so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import linalg
from .bands import Band

BOSON = "boson"
QUBIT = "qubit"

LEAKAGE_THRESHOLD = 1e-6
MAX_FOCK_DIM = 4096
# bound on the observable blocks that evolved_expectations holds at once,
# and on their products with the state blocks
_BLOCK_BYTES = 512 * 2**10
# an operand whose expression is this deep is evaluated before it is combined
# again, so reading an expression (which recurses into it) stays shallow
_MAX_DEPTH = 32


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

    @cached_property
    def levels(self) -> np.ndarray:
        """F x D array: the level index of each factor in each basis state."""
        levels = np.indices(self.dims).reshape(len(self.dims), -1)
        levels.setflags(write=False)
        return levels

    @cached_property
    def charges(self) -> np.ndarray:
        """The charge of each basis state: the sum of its factors' level indices.

        A level index is the Fock number of a boson and 0/1 for a qubit's
        ground/excited state, so an operator that conserves the total
        excitation number (a^dag a + sigma^+ sigma^-) has no entry between
        basis states of different charge.
        """
        charges = self.levels.sum(axis=0)
        charges.setflags(write=False)
        return charges

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Basis indices of the charge sectors, grouped by sector size (:func:`_classes` of the charges)."""
        return _classes(self.charges)

    @cached_property
    def block_indices(self) -> tuple["BlockIndex", ...]:
        """One :class:`BlockIndex` per index array of :attr:`sectors`, shared by every operator on this space."""
        return tuple(BlockIndex(self, idx) for idx in self.sectors)

    def axis(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise SignatureError(f"no factor labeled '{label}' in {self.labels}")

    def factor(self, label: str) -> Factor:
        return self.factors[self.axis(label)]


class BlockIndex:
    """The (n, s, s) blocks of one (n, s) index array: the factor levels of their rows and columns.

    The index arithmetic that every operator on the space repeats to read
    its entries there is kept, keyed by the factors it is for.
    """

    __slots__ = ("rows", "cols", "_kept")

    def __init__(self, sig: SpaceSignature, index: np.ndarray):
        levels = sig.levels[:, index]
        self.rows, self.cols = levels[..., :, None], levels[..., None, :]
        self._kept = {}

    def local(self, axes: tuple[int, ...], dims) -> tuple:
        """The (row, column) index into a local on the factors at ``axes``, in that order."""
        key = ("local", axes)
        if key not in self._kept:
            row = col = 0
            for ax in axes:
                row = row * dims[ax] + self.rows[ax]
                col = col * dims[ax] + self.cols[ax]
            self._kept[key] = (row, col)
        return self._kept[key]

    def band(self, ax: int, offset: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Where a band of ``size`` values on factor ``ax`` holds a value, and which one (index into the values)."""
        key = ("band", ax, offset)
        if key not in self._kept:
            rows, cols = self.rows[ax], self.cols[ax]
            self._kept[key] = (cols - rows == offset, np.minimum(np.minimum(rows, cols), size - 1))
        return self._kept[key]

    def identity(self, own: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
        """The identity's entries, 1 + 0j or 0j, on the factors of ``axes`` outside ``own``."""
        key = ("identity", own, axes)
        if key not in self._kept:
            same = True
            for ax in axes:
                if ax not in own:
                    same = same & (self.rows[ax] == self.cols[ax])
            self._kept[key] = np.where(same, 1.0 + 0j, 0j)
        return self._kept[key]


def _classes(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Basis indices of equal ``keys`` (integers 0, 1, ...), grouped by class size.

    One read-only (n, s) array per size s, in ascending s; each row lists
    the basis states of one class, in ascending index, and the classes of
    one size come in ascending key.  A key below the largest with no basis
    state is a class of size 0.
    """
    counts = np.bincount(keys)
    # by class size, then key, then index: each size's run is its (n, s) array, row by row
    order = np.argsort(counts[keys] * counts.size + keys, kind="stable")
    sizes, numbers = np.unique(counts, return_counts=True)
    ends = np.cumsum(sizes * numbers)
    groups = tuple(order[end - n * s : end].reshape(n, s) for s, n, end in zip(sizes, numbers, ends))
    for idx in groups:
        idx.setflags(write=False)
    return groups


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
    give a local matrix instead, or a :class:`~entwitness.bands.Band` on one
    factor.  :func:`embed` and :func:`embed_many` store the local, and
    ``dag`` and ``_minus_identity`` act on it.  :meth:`apply` contracts the
    local into the full-space index of an array, so expectation values and
    witnesses never form a full-space matrix.  The full-space D x D
    :attr:`matrix` is built on first access and cached; for an operator on
    every factor in signature order it is the local itself.

    ``+``, ``-``, a scalar ``*`` of a local that is not a band, and ``@`` on
    disjoint factors keep the expression they were built from, on the union
    of the operands' axes in signature order.  ``local`` evaluates it on
    first read, then drops it: a sum lifts both operands to the union and
    adds them, and ``@`` is :func:`~entwitness.linalg.kron` of the locals
    with the operand on the lower-numbered factor first (so ``A @ B`` and
    ``B @ A`` have the same bits).  :meth:`_block` reads sector blocks from
    the expression with the same complex arithmetic entry by entry, so they
    hold the bits of :attr:`matrix`, signed zeros included.  ``@`` of two
    bands on one factor is a band (:meth:`~entwitness.bands.Band.matmul`);
    any other product on shared factors multiplies the lifted locals.

    The constructor (so :func:`embed`) stores what it is given: a
    :class:`~entwitness.bands.Band` by its diagonal, (offset, values), with
    no dense local kept, and a dense local dense, whatever its entries.
    ``dag``, scalar ``*``, ``-op`` and :func:`~entwitness.operators.delta`
    carry the diagonal, and fall back to the dense local only where the
    result has no such diagonal (a complex scalar, or a nonzero mean off
    the main diagonal).  :meth:`apply` is then one shifted, scaled copy
    along the factor's axis.  ``.local`` is built from the diagonal on
    first access and kept; it equals the dense local bit for bit, signed zeros included.
    """

    __slots__ = (
        "signature", "axes", "support", "name", "_local", "_band", "_expr", "_depth", "_matrix", "_sectors",
        "_diagonal",
    )

    def __init__(
        self,
        signature: SpaceSignature,
        matrix: np.ndarray | Band,
        support: Iterable[str] = frozenset(),
        name: str = "",
        axes: Sequence[int] | None = None,
    ):
        axes = tuple(range(len(signature.factors))) if axes is None else tuple(axes)
        sub_dims = tuple(signature.dims[ax] for ax in axes)
        if isinstance(matrix, Band):
            if len(axes) != 1 or len(matrix.values) + abs(matrix.offset) != sub_dims[0]:
                raise SignatureError(f"a band of offset {matrix.offset} does not fit factor dims {sub_dims}")
            local, band = None, matrix
        else:
            local, band = np.asarray(matrix, dtype=complex), None
            d = math.prod(sub_dims)
            if local.shape != (d, d):
                raise SignatureError(
                    f"matrix shape {local.shape} does not match factor dims {sub_dims}"
                )
        self._set(signature, axes, frozenset(support), name, local, band)

    def _set(self, signature, axes, support, name, local, band, expr=None):
        self.signature = signature
        self.axes = axes
        self.support = support
        self.name = name
        self._local = local
        self._band = band
        # (fn, x, y): the local is fn of the operands (np.multiply by a scalar y,
        # linalg.kron of disjoint factors, np.add or np.subtract of lifted ones)
        self._expr = expr
        self._depth = 0
        if expr is not None:
            operands = [op for op in expr[1:] if isinstance(op, LabeledOperator)]
            for op in operands:
                if op._depth >= _MAX_DEPTH:
                    op.local
            self._depth = 1 + max(op._depth for op in operands)
        self._matrix = None
        self._sectors = None
        self._diagonal = None

    @classmethod
    def _stored(cls, signature, axes, support, name, local=None, band=None, expr=None) -> "LabeledOperator":
        """An operator stored as given: no shape check and no search for a diagonal."""
        op = cls.__new__(cls)
        op._set(signature, axes, support, name, local, band, expr)
        return op

    def _derived(self, name: str, local=None, band=None, expr=None) -> "LabeledOperator":
        """An operator on the same factors and support, stored as given."""
        return self._stored(self.signature, self.axes, self.support, name, local, band, expr)

    @property
    def local(self) -> np.ndarray:
        """The local matrix on ``axes``; for a diagonal-stored local or an expression, built on first access."""
        if self._local is None:
            if self._band is not None:
                self._local = self._band.dense(self.signature.dims[self.axes[0]])
            else:
                self._local = self._evaluate()
                self._expr, self._depth = None, 0
        return self._local

    def _evaluate(self) -> np.ndarray:
        """The local of the expression, from its operands' locals."""
        fn, x, y = self._expr
        if fn is np.multiply:
            return x.local * y
        if fn is linalg.kron:
            return _reordered(linalg.kron(x.local, y.local), x.axes + y.axes, self.axes, self.signature.dims)
        return fn(x._lifted(self.axes), y._lifted(self.axes))

    @property
    def matrix(self) -> np.ndarray:
        """The full-space D x D matrix, built on first access."""
        if self._matrix is None:
            self._matrix = self._lifted(tuple(range(len(self.signature.factors))))
        return self._matrix

    def _block_spectrum(self) -> "SectorSpectrum":
        """The checked :class:`SectorSpectrum`, built on first use and kept."""
        if self._sectors is None:
            self._sectors = SectorSpectrum.of(self)
        return self._sectors

    def _sector_blocks(self) -> tuple[np.ndarray, ...]:
        """Diagonal charge-sector blocks of the full-space matrix (:meth:`_block`).

        One (n, s, s) stack per index array of ``signature.sectors``, built
        on first use and kept.
        """
        if self._diagonal is None:
            self._diagonal = tuple(self._block(at) for at in self.signature.block_indices)
        return self._diagonal

    def _block(self, at: BlockIndex) -> np.ndarray:
        """Entries M[i, j] of the full-space matrix for i, j in one row of ``at``'s index, as an (n, s, s) stack.

        Read from the expression or the local, with no full-space matrix
        formed; bit for bit the entries of :attr:`matrix`.
        """
        return self._lifted_entries(tuple(range(len(self.signature.factors))), at)

    def _entries(self, at: BlockIndex) -> np.ndarray:
        """Entries of ``local`` at the rows and columns of ``at``'s blocks."""
        band = self._band
        if band is not None:
            on, k = at.band(self.axes[0], band.offset, len(band.values))
            return np.where(on, band.values[k], band.zero)
        expr = self._expr
        if expr is None:
            return self.local[at.local(self.axes, self.signature.dims)]
        fn, x, y = expr
        if fn is np.multiply:
            return x._entries(at) * y
        if fn is linalg.kron:
            return x._entries(at) * y._entries(at)
        return fn(x._lifted_entries(self.axes, at), y._lifted_entries(self.axes, at))

    def _lifted_entries(self, axes: tuple[int, ...], at: BlockIndex) -> np.ndarray:
        """Entries of :meth:`_lifted` ``(axes)``, times the identity's 1 or 0 as the dense lift multiplies."""
        if axes == self.axes:
            return self._entries(at)
        return self._entries(at) * at.identity(self.axes, axes)

    def _lifted(self, axes: tuple[int, ...]) -> np.ndarray:
        """The local matrix on ``axes`` (a superset of ``self.axes``), identity elsewhere."""
        if axes == self.axes:
            return self.local
        rest = tuple(ax for ax in axes if ax not in self.axes)
        d_rest = math.prod(self.signature.dims[ax] for ax in rest)
        # kron(local, identity), laid out over (own axes..., rest...)
        big = np.multiply.outer(self.local, np.eye(d_rest, dtype=complex)).transpose(0, 2, 1, 3)
        return _reordered(big, self.axes + rest, axes, self.signature.dims)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``op.matrix @ x`` by contraction, without the full-space matrix.

        ``x`` is a full-space vector, or an array whose second-to-last index
        runs over the full space (a D x m stack, a density matrix, or a batch
        of either), as for ``np.matmul``.  A diagonal-stored local scales and
        shifts the factor's index of ``x``; any other local matrix is
        contracted into the factors at ``self.axes`` of that index.
        """
        if self._band is None:
            return self._contract(x)
        dims, ax = self.signature.dims, self.axes[0]
        m = x.shape[-1] if x.ndim > 1 else 1
        y = x.reshape(-1, dims[ax], math.prod(dims[ax + 1 :]) * m)
        return self._band.apply(y).reshape(x.shape)

    def _contract(self, x: np.ndarray) -> np.ndarray:
        """:meth:`apply` of the dense local matrix."""
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
        if self._band is not None:
            return self._derived(name, band=self._band.dag())
        return self._derived(name, local=self.local.conj().T)

    def _minus_identity(self, value: complex, name: str) -> "LabeledOperator":
        """``self - value * identity``, the local's diagonal lowered by ``value``."""
        if self._band is not None:
            band = self._band.minus_identity(value)
            if band is not None:
                return self._derived(name, band=band)
        centred = self.local.copy()
        centred.flat[:: centred.shape[0] + 1] -= value
        return self._derived(name, local=centred)

    def _combined(self, other: "LabeledOperator", fn) -> "LabeledOperator":
        """``fn`` of the operands on the union of their axes, kept as an expression."""
        _same_signature(self.signature, other.signature)
        axes = tuple(sorted(set(self.axes) | set(other.axes)))
        return self._stored(self.signature, axes, self.support | other.support, "", expr=(fn, self, other))

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        if not set(self.axes) & set(other.axes):
            # the operand on the lower-numbered factor is the left Kronecker factor
            first, second = sorted((self, other), key=lambda op: min(op.axes, default=-1))
            return first._combined(second, linalg.kron)
        _same_signature(self.signature, other.signature)
        support = self.support | other.support
        if self._band is not None and other._band is not None and self.axes == other.axes:
            band = self._band.matmul(other._band, self.signature.dims[self.axes[0]])
            if band is not None:
                return self._stored(self.signature, self.axes, support, "", band=band)
        axes = tuple(sorted(set(self.axes) | set(other.axes)))
        return self._stored(self.signature, axes, support, "", np.matmul(self._lifted(axes), other._lifted(axes)))

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._combined(other, np.add)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._combined(other, np.subtract)

    def __mul__(self, scalar) -> "LabeledOperator":
        if self._band is not None:
            band = self._band.scaled(scalar)
            if band is not None:
                return self._derived(self.name, band=band)
        return self._derived(self.name, expr=(np.multiply, self, scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "LabeledOperator":
        return self * (-1.0)


def _reordered(local: np.ndarray, order: tuple[int, ...], axes: tuple[int, ...], dims) -> np.ndarray:
    """A local laid out over the factors at ``order``, laid out over ``axes`` (the same set) instead."""
    d = math.prod(dims[ax] for ax in order)
    if order == axes:
        return local.reshape(d, d)
    n = len(order)
    perm = [order.index(ax) for ax in axes]
    t = local.reshape([dims[ax] for ax in order] * 2)
    return t.transpose(perm + [p + n for p in perm]).reshape(d, d)


def _charge_changes(term: LabeledOperator) -> frozenset[int]:
    """Row charge less column charge, over the term's axes, of the nonzero entries of its local.

    Exact for a stored local; for an expression, the changes its operands
    allow, which may hold more than its local has.
    """
    if term._band is not None:
        return frozenset((-term._band.offset,) if term._band.values.any() else ())
    expr = term._expr
    if expr is None:
        charge = np.zeros(1, dtype=np.intp)  # level sum over the term's axes, per local index
        for ax in term.axes:
            charge = (charge[:, None] + np.arange(term.signature.dims[ax])).ravel()
        rows, cols = np.nonzero(term.local)
        return frozenset((charge[rows] - charge[cols]).tolist())
    fn, x, y = expr
    if fn is np.multiply:
        return _charge_changes(x)
    if fn is linalg.kron:
        return frozenset(a + b for a in _charge_changes(x) for b in _charge_changes(y))
    return _charge_changes(x) | _charge_changes(y)


def _charge_step(term: LabeledOperator) -> int:
    """The gcd of the charge changes of ``term``'s nonzero local entries; 0 if none changes it.

    The charge over the term's own axes is their level sum, so the step is
    read from the nonzero entries of ``local`` alone; a diagonal-stored
    local's step is its offset.  An expression whose operands allow no
    change (such as the Jaynes-Cummings H) is not evaluated.
    """
    changes = _charge_changes(term)
    if any(changes) and term._expr is not None:
        term.local  # evaluate the expression; its local's own entries decide
        changes = _charge_changes(term)
    return math.gcd(*changes)


class SectorSpectrum:
    """Eigendecomposition of an operator, one sector at a time.

    ``spectra[g]`` holds the n eigendecompositions of the sectors in
    ``sectors[g]`` (an (n, s) index array, one sector per row, as
    :func:`_classes` groups them): eigenvalues (n, s) and eigenvectors
    (n, s, s), from one batched :func:`linalg.herm_eig` per sector size.  A
    sector of size 1 is its own eigenbasis and needs no eigensolve; its
    entry passes the same Hermiticity check.  The sectors of an operator
    are the classes of the charge modulo its charge step m
    (:meth:`of`): the charge sectors (:attr:`SpaceSignature.sectors`) for
    m = 0, the two photon-parity classes of a squeeze generator for m = 2,
    and the whole space in basis order for m = 1.  The
    phase table of the last time grid is kept (:meth:`phases`), so every
    state evolved under one generator on one grid reads the same table.
    """

    __slots__ = ("dim", "sectors", "spectra", "pairs", "_phases")

    def __init__(self, dim: int, sectors, spectra):
        self.dim = dim
        self.sectors = tuple(sectors)
        self.spectra = tuple(spectra)
        # (m, n) with m < n within a sector of each size: the order of the phase columns
        self.pairs = tuple(np.triu_indices(idx.shape[1], 1) for idx in self.sectors)
        for m, n in self.pairs:
            m.setflags(write=False)
            n.setflags(write=False)
        self._phases = None

    @classmethod
    def of(cls, op: LabeledOperator, charges: Sequence[int] | None = None) -> "SectorSpectrum":
        """The block spectrum of one operator.

        Its charge step m is the gcd of the charge changes of its nonzero
        local entries (over its own axes, :func:`_charge_step`), and its
        sectors are the classes of :attr:`SpaceSignature.charges` modulo m:
        the charge sectors for m = 0, and one sector, the whole space, for
        m = 1.  ``charges`` keeps only the charge sectors of those charges
        (all if None), and is ignored for m > 0.  A sum of local terms is
        passed as its expression, whose blocks are read from the terms
        entry by entry (:meth:`LabeledOperator._block`); the whole block of
        an operator on every factor, in signature order, is its local
        matrix itself.
        """
        sig = op.signature
        step = _charge_step(op)
        if step:
            sectors = _classes(sig.charges % step)
        else:
            sectors = sig.sectors
            if charges is not None:
                sectors = [idx[np.isin(sig.charges[idx[:, 0]], charges)] for idx in sectors]
                sectors = [idx for idx in sectors if len(idx)]
        spectra = []
        for idx in sectors:
            if step == 1 and op.axes == tuple(range(len(sig.factors))):
                b = op.local[None]  # the whole space in basis order: the block is the local
            else:
                b = op._block(BlockIndex(sig, idx))
            if b.shape[-1] == 1:
                b = linalg.require_hermitian(b)
                spectra.append(linalg.EigenDecomposition(b[..., 0].real, np.ones_like(b)))
            else:
                spectra.append(linalg.herm_eig(b))
        return cls(sig.total_dim, sectors, spectra)

    def function_of(self, f) -> np.ndarray:
        """The full-space D x D matrix V f(Lambda) V^dag, block by block (0 off the built sectors)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, ed in zip(self.sectors, self.spectra):
            out[idx[:, :, None], idx[:, None, :]] = ed.function_of(f)
        return out

    def apply(self, f, x: np.ndarray) -> np.ndarray:
        """V f(Lambda) V^dag times a vector or D x m stack in the built sectors, sector by sector."""
        rest = np.array(x, dtype=complex).reshape(self.dim, -1)
        out = np.zeros_like(rest)
        for idx, ed in zip(self.sectors, self.spectra):
            out[idx] = ed.function_of(f) @ rest[idx]
            rest[idx] = 0
        if rest.any():
            raise ValueError(f"the vector has weight {np.linalg.norm(rest):.3e} outside the sectors built")
        return out.reshape(np.shape(x))

    def phases(self, times: np.ndarray) -> tuple[np.ndarray, ...]:
        """[cos | sin] of the in-block frequencies at every time, one table per sector size.

        The frequencies of a size-s group are E_m - E_n for m < n in each
        sector, n * s (s - 1) / 2 of them in (sector, pair) order, so the
        table is T x n s (s - 1), C-contiguous (T x 0 for s = 1).  The
        tables of the last grid are kept.
        """
        key = times.tobytes()
        cached = self._phases
        if cached is not None and cached[0] == key:
            return cached[1]
        tables = []
        for (m, n), ed in zip(self.pairs, self.spectra):
            angle = np.multiply.outer(times, (ed.eigenvalues[:, m] - ed.eigenvalues[:, n]).ravel())
            tables.append(np.concatenate([np.cos(angle), np.sin(angle)], axis=1))
        tables = tuple(tables)
        self._phases = (key, tables)
        return tables


def identity_operator(sig: SpaceSignature) -> LabeledOperator:
    """The identity, stored as the 1 x 1 matrix [[1]] on no factor."""
    return LabeledOperator(sig, np.ones((1, 1)), frozenset(), "I", axes=())


def embed_many(
    local: np.ndarray | Band,
    labels: Sequence[str],
    sig: SpaceSignature,
    name: str = "",
) -> LabeledOperator:
    """An operator on chosen factors (its matrix laid out in the given order).

    The remaining factors carry the identity; the local is stored as given,
    a dense matrix or a :class:`~entwitness.bands.Band` on one factor, not
    lifted to the full space.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise SignatureError(f"repeated labels in {labels}")
    return LabeledOperator(sig, local, labels, name, [sig.axis(lab) for lab in labels])


def embed(local: np.ndarray | Band, label: str, sig: SpaceSignature, name: str = "") -> LabeledOperator:
    """A single-factor operator, identity elsewhere."""
    return embed_many(local, [label], sig, name)


def basis_state(sig: SpaceSignature, occupations: Mapping[str, int]) -> StateVector:
    """Product basis vector |n_1, n_2, ...> given one level index per factor.

    Its one nonzero amplitude sits at the row-major flat index of the levels.
    """
    index = 0
    for f in sig.factors:
        n = int(occupations.get(f.label, 0))
        if not 0 <= n < f.dim:
            raise SignatureError(f"level {n} out of range for factor '{f.label}'")
        index = index * f.dim + n
    amps = np.zeros(sig.total_dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(sig, amps)


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
    """exp(-i H t) on a state, from H's spectrum: a vector sector by sector, rho by the D x D propagator."""
    spectrum = h._block_spectrum()
    _same_signature(state.signature, h.signature)
    if isinstance(state, StateVector):
        return StateVector(state.signature, spectrum.apply(lambda w: np.exp(-1j * w * t), state.amplitudes))
    u = spectrum.function_of(lambda w: np.exp(-1j * w * t))
    return apply_operator(state, LabeledOperator(h.signature, u, h.support))


def evolved_expectations(
    h: LabeledOperator,
    times: Sequence[float],
    state: State | LabeledOperator | Iterable[State | LabeledOperator],
    ops: Sequence[LabeledOperator],
) -> np.ndarray:
    """T x K table of <O_k> in the state evolved by exp(-i H t), at every time.

    ``state`` is one state, or an iterable of B states that gives a
    B x T x K table: a vector, a density matrix, or a density operator (a
    :class:`LabeledOperator`, read by its blocks).  The states are drawn one
    at a time and each is kept only as its diagonal sector blocks.

    H's spectrum must be by charge sector (charge step 0,
    :attr:`SpaceSignature.sectors`), and a state (rho, or psi psi^dag) must
    have no entry between charge sectors; any other generator or state
    raises a ValueError.  Then Tr(O rho(t)) = sum_N Tr(O_NN rho_N(t)) over
    the diagonal blocks, evolved by H's block spectrum
    (:class:`SectorSpectrum`).  In a sector with H_N = V diag(E) V^dag,
    tilde X = V^dag X V and W[m, n] = tilde O[n, m] tilde rho[m, n], the
    term is sum_m W[m, m] plus, for each pair m < n with w = E_m - E_n,
    (W[m, n] + W[n, m]) cos(w t) - i (W[m, n] - W[n, m]) sin(w t).  The
    constants add up directly, and the cos/sin table of each sector size
    (:meth:`SectorSpectrum.phases`, kept with H) meets the coefficients of
    every observable in one real C-contiguous product per state, all of a
    stack in one stacked matmul; the state blocks are rotated once, as one
    stack.  A state's table has the same bits alone and in any stack.  Only the
    diagonal blocks of an observable are read (:meth:`LabeledOperator._block`); an
    observable whose diagonal blocks are all 0 reads exactly 0 and is never
    contracted.  :data:`_BLOCK_BYTES` bounds the blocks of the observables
    held at once, which does not depend on the stack, and their products
    with as many states' blocks as are held at once.
    """
    single = isinstance(state, (StateVector, DensityMatrix, LabeledOperator))
    for op in ops:
        _same_signature(h.signature, op.signature)
    times = np.asarray(times, dtype=float).ravel()
    spectrum = h._block_spectrum()
    charges = h.signature.charges
    # by charge sector (step 0) iff every sector holds one charge
    if not all((charges[idx] == charges[idx[:, :1]]).all() for idx in spectrum.sectors):
        raise ValueError("the generator has an entry between charge sectors")
    blocks = [_state_blocks(st, h.signature) for st in ([state] if single else state)]
    if not blocks:
        return np.empty((0, times.size, len(ops)), dtype=complex)
    table = _sector_expectations(spectrum, times, blocks, ops)
    return table[0] if single else table


def _state_blocks(state: State | LabeledOperator, sig: SpaceSignature) -> list[np.ndarray]:
    """Diagonal sector blocks of rho (or psi psi^dag); a ValueError if it has weight between sectors.

    A density matrix is read as the density operator ``LabeledOperator(sig, rho)``.
    """
    _same_signature(state.signature, sig)
    if isinstance(state, StateVector):
        psi = state.amplitudes
        if np.unique(sig.charges[psi != 0]).size > 1:
            raise ValueError("the state vector has weight in more than one charge sector")
        return [psi[idx][:, :, None] * psi[idx].conj()[:, None, :] for idx in sig.sectors]
    if isinstance(state, LabeledOperator):
        op, kind = state, "operator"
    else:
        op, kind = LabeledOperator(sig, state.matrix), "matrix"
    if _charge_step(op):
        raise ValueError(f"the density {kind} has an entry between charge sectors")
    return [op._block(at) for at in sig.block_indices]


def _sector_expectations(
    spectrum: SectorSpectrum,
    times: np.ndarray,
    state_blocks: list[list[np.ndarray]],
    ops: Sequence[LabeledOperator],
) -> np.ndarray:
    """The sector path of :func:`evolved_expectations`: the B x T x K table of B states' blocks."""
    vs = [ed.eigenvectors for ed in spectrum.spectra]
    n_states = len(state_blocks)
    # every state's blocks of one sector size, rotated as one (B, n, s, s) stack
    tilde_rho = [v.conj().swapaxes(-1, -2) @ np.stack(r) @ v for v, *r in zip(vs, *state_blocks)]
    phases = spectrum.phases(times)
    table = np.zeros((n_states, times.size, len(ops)), dtype=complex)
    op_bytes = 16 * sum(idx.size * idx.shape[1] for idx in spectrum.sectors)
    per_stack = max(1, _BLOCK_BYTES // op_bytes)
    for k0 in range(0, len(ops), per_stack):
        cols, stacks = [], []
        for k in range(k0, min(k0 + per_stack, len(ops))):
            blocks = ops[k]._sector_blocks()
            if any(b.any() for b in blocks):
                cols.append(k)
                stacks.append(blocks)
        if not cols:
            continue
        k = len(cols)
        tilde_o = [v.conj().swapaxes(-1, -2) @ np.stack([b[g] for b in stacks]) @ v for g, v in enumerate(vs)]
        per_group = max(1, _BLOCK_BYTES // (k * op_bytes))  # states whose W are held at once
        for b0 in range(0, n_states, per_group):
            rhos = [rho[b0 : b0 + per_group] for rho in tilde_rho]
            nb = len(rhos[0])
            values = np.zeros((nb, times.size, k), dtype=complex)
            for o, rho, (m, n), phase in zip(tilde_o, rhos, spectrum.pairs, phases):
                w = o.swapaxes(-1, -2) * rho[:, None]  # W[b, k, sector, m, n]
                values += w.diagonal(axis1=-2, axis2=-1).sum(axis=(-2, -1))[:, None, :]
                if m.size:
                    upper, lower = w[..., m, n], w[..., n, m]
                    coef = np.empty((nb, 2, upper[0, 0].size, k), dtype=complex)
                    coef[:, 0] = (upper + lower).reshape(nb, k, -1).swapaxes(-1, -2)
                    coef[:, 1] = (-1j * (upper - lower)).reshape(nb, k, -1).swapaxes(-1, -2)
                    # per state, a real (T x 2P)(2P x 2K) product on the complex
                    # coefficients' float view, all in one stacked matmul; one
                    # (T x 2P)(2P x 2BK) product would round a state's columns
                    # by the width of the whole stack (BLAS edge kernels)
                    values += (phase @ coef.reshape(nb, -1, k).view(float)).view(complex)
            table[b0 : b0 + nb, :, cols] = values
    return table


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
    return embed(Band.diagonal((np.arange(dim) >= dim - 2).astype(float)), label, sig)


def check_leakage(label: str, population: float, threshold: float = LEAKAGE_THRESHOLD) -> float:
    """Raise :class:`LeakageError` if a factor's top-two population reaches ``threshold``; else return it."""
    if population >= threshold:
        raise LeakageError(label, population, threshold)
    return population


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
        worst = max(worst, check_leakage(lab, leakage(state, lab), threshold))
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
