"""Entanglement criteria built from expectation values of non-hermitian operators.

The two base tests for a bipartite state, with A supported on one side and B
on the other:

* cross-correlation test:   |<A^dag B>|^2  >  <A^dag A B^dag B>
* pairing test:             |<A B>|^2      >  <A^dag A> <B^dag B>

Either inequality certifies entanglement; both hold with <= for every
separable state.  Expanding A = sum_j u_j F_j and B = sum_k v_k G_k turns the
first test into a Hermitian form on the coefficients, built from two moment
tables, c[j, k] = <F_j^dag G_k> and t[j, k, j', k'] = <F_j^dag F_j' G_k^dag G_k'>:
X[(j, k), (j', k')] = c[j, k'] conj(c[j', k]) - t.  Expanding one side only is
the case with a one-element other side, and the first test is the 1x1 case.
:func:`form_from_moments` is the one assembly of X; it takes tables with
leading batch axes, so a whole time trace of tables (the expectations of
:func:`moment_operators`) becomes a stack of forms in one call, and
:func:`eig2` gives the eigenvalues of a stack of 2x2 forms in closed form.

Every moment the module reads is an entry of a Gram table
G[i, j] = <W_i^dag W_j> = vdot(W_i bra, W_j ket) over a few operator words W
(products of operators; the empty word is the identity) for the state's
roots (bra, ket): (psi, psi) for a vector, (I, rho) for a density matrix.
Words reach the roots by contraction (:meth:`LabeledOperator.apply`).

* cond1 and cond2 read the table of [I, A, B, AB]: |G[A, B]|^2 against
  G[AB, AB], and |G[I, AB]|^2 against G[A, A] G[B, B];
* :func:`lur_value` reads the table of [I, A, B] of each pair:
  <D^dag D> is the sum of its A, B block and <D> = G[I, A] + G[I, B];
* :func:`bilinear_form` (and the expanded matrices, its one-sided cases)
  reads c and t as two blocks of the table of [F_j] + [G_k] + [F_j G_k];
* :func:`ppt_crosscheck_batch` builds the tables of [I, A, B, AB] of a
  stack of states on one space at once and reads them through the helper
  cond1 and cond2 read one table with, next to the partial-transpose
  minimum eigenvalue as a cross-check; the verdicts come back as columns
  (:class:`PptColumns`, :class:`ReportColumns`).

The module also provides product-vector search on the form.

An eigenvalue counts as positive when it exceeds
``POSITIVITY_EPS * max(1, spectral scale)``; everything below that is
numerical noise, not entanglement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .spaces import (
    LabeledOperator,
    SignatureError,
    State,
    StateVector,
    density_of,
)

POSITIVITY_EPS = 1e-9
WITNESS_TOL_SCALE = 1e-9
SEESAW_SEEDS = 3
SEESAW_RTOL = 1e-15
SEESAW_MAX_STEPS = 1000


class SupportError(SignatureError):
    """Operators meant for different sides share a factor."""


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a single criterion evaluation.

    ``margin = lhs - rhs``; the state is flagged entangled when the margin
    exceeds the tolerance.
    """

    lhs: float
    rhs: float
    margin: float
    entangled: bool
    tolerance: float


@dataclass(frozen=True)
class WitnessMatrix:
    """Hermitian coefficient matrix of an expanded criterion.

    For a single-side expansion the matrix is indexed by the expansion
    operators; for a bilinear (two-side) expansion it is indexed by pairs,
    row-major in (side a, side b), and ``dims`` records the two basis sizes.
    """

    matrix: np.ndarray
    basis_a: tuple[str, ...]
    basis_b: tuple[str, ...] = ()

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.basis_a), max(len(self.basis_b), 1))

    def max_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[-1])

    def has_positive_eigenvalue(self) -> bool:
        return matrix_has_positive_eigenvalue(self.matrix)


def positivity_threshold(eigenvalues: np.ndarray) -> float:
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return POSITIVITY_EPS * max(1.0, scale)


def positive_eigenvalue_margin(m: np.ndarray) -> float:
    """lambda_max(m) minus its positivity threshold: positive exactly when the test passes."""
    w = np.linalg.eigvalsh(np.asarray(m, dtype=complex))
    return float(w[-1] - positivity_threshold(w))


def matrix_has_positive_eigenvalue(m: np.ndarray) -> bool:
    return positive_eigenvalue_margin(m) > 0


def _names(ops_list: Sequence[LabeledOperator], stem: str) -> tuple[str, ...]:
    return tuple(op.name or f"{stem}{j + 1}" for j, op in enumerate(ops_list))


def _check_disjoint(side_a: Iterable[LabeledOperator], side_b: Iterable[LabeledOperator]):
    sup_a = frozenset().union(*(op.support for op in side_a))
    sup_b = frozenset().union(*(op.support for op in side_b))
    if sup_a & sup_b:
        raise SupportError(f"operator supports overlap on factors {sorted(sup_a & sup_b)}")


@dataclass(frozen=True)
class ReportColumns:
    """The fields of a stack of :class:`WitnessReport`, one array per field."""

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    entangled: np.ndarray
    tolerance: np.ndarray

    def report(self, i: int) -> WitnessReport:
        return WitnessReport(
            float(self.lhs[i]),
            float(self.rhs[i]),
            float(self.margin[i]),
            bool(self.entangled[i]),
            float(self.tolerance[i]),
        )


def _reports(lhs: np.ndarray, rhs: np.ndarray) -> ReportColumns:
    """:func:`_report` entry by entry, with its bits.

    ``np.fmax`` keeps Python's ``max(1.0, nan) == 1.0``.
    """
    tol = WITNESS_TOL_SCALE * np.fmax(1.0, np.abs(rhs))
    margin = lhs - rhs
    return ReportColumns(lhs, rhs, margin, margin > tol, tol)


def _report(lhs: float, rhs: float) -> WitnessReport:
    tol = WITNESS_TOL_SCALE * max(1.0, abs(rhs))
    margin = lhs - rhs
    return WitnessReport(lhs, rhs, margin, bool(margin > tol), tol)


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """|z|^2 entry by entry, bit for bit Python's ``abs(z) ** 2``.

    Python's complex ``abs`` is ``hypot`` and ``** 2`` is ``pow``; ``np.abs``
    of a complex array and ``x * x`` (and ``np.power(x, 2)``) round
    differently now and then.  Where ``** 2`` raises ``OverflowError``, this
    raises ``FloatingPointError``.
    """
    with np.errstate(over="raise"):
        return np.float_power(np.hypot(z.real, z.imag), 2)


def _not_real(what: str, imag: float, tol: float) -> linalg.NonHermitianError:
    err = linalg.NonHermitianError(abs(imag), tol)
    err.args = (f"{what} should be real, got imaginary part {imag:.3e}",)
    return err


def _real(value: complex, what: str) -> float:
    tol = 1e-8 * max(1.0, abs(value))
    if abs(value.imag) > tol:
        raise _not_real(what, value.imag, tol)
    return float(value.real)


def _real_parts(values: np.ndarray, what: Sequence[str]) -> np.ndarray:
    """:func:`_real` of every entry of ``values`` (..., len(what)); column j names ``what[j]``.

    The first entry out of tolerance in row-major order raises: the first
    row of a stack and, within it, the first column.
    """
    tol = 1e-8 * np.fmax(1.0, np.hypot(values.real, values.imag))
    bad = np.flatnonzero(np.abs(values.imag) > tol)
    if bad.size:
        i = int(bad[0])
        raise _not_real(what[i % len(what)], float(values.imag.flat[i]), float(tol.flat[i]))
    return values.real


_Word = tuple[LabeledOperator, ...]


def _images(state: State, words: Sequence[_Word]) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (bras, kets) of W @ bra and W @ ket, one flattened row per word W.

    A word (X, Y, ...) is the product X Y ...; it reaches the roots right to
    left, and the image of a suffix shared by several words is computed once.
    """

    def stack(root: np.ndarray) -> np.ndarray:
        images: dict[_Word, np.ndarray] = {(): root}
        for word in words:
            for i in reversed(range(len(word))):
                if word[i:] not in images:
                    images[word[i:]] = word[i].apply(images[word[i + 1 :]])
        return np.array([images[w] for w in words]).reshape(len(words), -1)

    if isinstance(state, StateVector):
        kets = stack(state.amplitudes)
        return kets, kets
    return stack(np.eye(state.signature.total_dim, dtype=complex)), stack(state.matrix)


def _gram(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """G[..., i, j] = vdot(bras[..., i, :], kets[..., j, :]); leading axes are a batch.

    Row i is one (1 x L)(L x n) product of bra i with the kets: under OpenBLAS as
    fast as one (n x L)(L x n) product for a few long rows, twice as fast at n = 3.
    """
    rows = np.matmul(bras.conj()[..., None, :], kets.swapaxes(-1, -2)[..., None, :, :])
    return rows[..., 0, :]


# the entries of the table of [I, A, B, AB] that the base tests read: the two
# they square, <A^dag B> and <AB>, then the three that must be real, in the
# order they are checked
_BASE_ROWS, _BASE_COLS = [1, 0, 3, 1, 2], [2, 3, 3, 1, 2]
_REAL_MOMENTS = ("<A^dag A B^dag B>", "<A^dag A>", "<B^dag B>")


def _base_moments(state: State, a: LabeledOperator, b: LabeledOperator) -> np.ndarray:
    """The base-test entries of the Gram table of the words [I, A, B, AB], as a (1, 5) row."""
    _check_disjoint([a], [b])
    return _gram(*_images(state, [(), (a,), (b,), (a, b)]))[None, _BASE_ROWS, _BASE_COLS]


def _base_columns(moments: np.ndarray) -> tuple[ReportColumns, ReportColumns]:
    """cond1 and cond2 of each row (n, 5) of base-test entries of Gram tables."""
    real = _real_parts(moments[:, 2:], _REAL_MOMENTS)
    rhs = real[:, :2].copy()
    rhs[:, 1] *= real[:, 2]
    both = _reports(_abs_squared(moments[:, :2]), rhs)
    fields = (both.lhs, both.rhs, both.margin, both.entangled, both.tolerance)
    return ReportColumns(*(f[:, 0] for f in fields)), ReportColumns(*(f[:, 1] for f in fields))


def cond1(state: State, a: LabeledOperator, b: LabeledOperator) -> WitnessReport:
    """Cross-correlation test: |<A^dag B>|^2 > <A^dag A B^dag B>."""
    return _base_columns(_base_moments(state, a, b))[0].report(0)


def cond2(state: State, a: LabeledOperator, b: LabeledOperator) -> WitnessReport:
    """Pairing test: |<A B>|^2 > <A^dag A><B^dag B>."""
    return _base_columns(_base_moments(state, a, b))[1].report(0)


def witness_matrix_expand_a(
    state: State,
    ops_a: Sequence[LabeledOperator],
    b: LabeledOperator,
) -> WitnessMatrix:
    """Expand A = sum_j z_j E_j against a fixed B: ``bilinear_form(ops_a, [b])``.

    The returned Hermitian matrix M satisfies
    z^dag M z = cond1 margin of (sum_j z_j E_j, B) for every coefficient
    vector z, so a positive eigenvalue certifies entanglement.
    """
    return WitnessMatrix(bilinear_form(state, ops_a, [b]).matrix, _names(ops_a, "E"))


def witness_matrix_expand_b(
    state: State,
    a: LabeledOperator,
    ops_b: Sequence[LabeledOperator],
) -> WitnessMatrix:
    """Expand B = sum_j z_j F_j against a fixed A: ``bilinear_form([a], ops_b)``.

    M_jk = <A^dag F_j>^* <A^dag F_k> - <A^dag A F_j^dag F_k>, and
    z^dag M z reproduces the cond1 margin of (A, sum_j z_j F_j).
    """
    return WitnessMatrix(bilinear_form(state, [a], ops_b).matrix, _names(ops_b, "F"))


def eig2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of Hermitian 2x2 matrices in closed form.

    ``m`` has shape (..., 2, 2); the leading axes are a batch.
    """
    m11, m22 = m[..., 0, 0].real, m[..., 1, 1].real
    disc = np.sqrt((m11 - m22) ** 2 + 4 * abs(m[..., 0, 1]) ** 2)
    return 0.5 * ((m11 + m22) - disc), 0.5 * ((m11 + m22) + disc)


def eig2_positive(m: WitnessMatrix | np.ndarray) -> bool:
    """Positive-eigenvalue test for a 2x2 Hermitian matrix, in closed form.

    Equivalent to (M11 + M22) > 0 or |M12|^2 > M11 M22.
    """
    mat = m.matrix if isinstance(m, WitnessMatrix) else np.asarray(m, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    lam_min, lam_max = eig2(mat)
    return bool(lam_max > positivity_threshold(np.array([lam_max, lam_min])))


def bilinear_form(
    state: State,
    ops_a: Sequence[LabeledOperator],
    ops_b: Sequence[LabeledOperator],
) -> WitnessMatrix:
    """Expand both sides: A = sum_j u_j F_j, B = sum_k v_k G_k.

    Returns the Hermitian form X on the coefficient product space with
    (u (x) v)^dag X (u (x) v) = cond1 margin of (A, B).  Entanglement is
    certified by a product coefficient vector with positive form value.
    """
    _check_disjoint(ops_a, ops_b)
    x = form_from_moments(*_moments(state, ops_a, ops_b))
    return WitnessMatrix(x, _names(ops_a, "F"), _names(ops_b, "G"))


def _moments(
    state: State,
    ops_a: Sequence[LabeledOperator],
    ops_b: Sequence[LabeledOperator],
) -> tuple[np.ndarray, np.ndarray]:
    """Moment tables c[j, k] and t[j, k, j', k'] of F_j = ops_a[j], G_k = ops_b[k].

    Both are blocks of the Gram table of the words [F_j] + [G_k] + [F_j G_k]:
    F and G have disjoint supports, so they commute and
    t[j, k, j', k'] = <(F_j G_k)^dag F_j' G_k'>.
    """
    na, nb = len(ops_a), len(ops_b)
    words = [(f,) for f in ops_a] + [(g,) for g in ops_b] + [(f, g) for f in ops_a for g in ops_b]
    g = _gram(*_images(state, words))
    return g[:na, na : na + nb], g[na + nb :, na + nb :].reshape(na, nb, na, nb)


def form_from_moments(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The form X[(j, k), (j', k')] = c[j, k'] conj(c[j', k]) - t, symmetrised.

    ``c`` has shape (..., na, nb) and ``t`` (..., na, nb, na, nb); leading
    axes are a batch, and X has shape (..., na nb, na nb).
    """
    na, nb = c.shape[-2:]
    x = np.einsum("...jq,...pk->...jkpq", c, c.conj()) - t
    x = x.reshape(c.shape[:-2] + (na * nb, na * nb))
    return (x + x.conj().swapaxes(-1, -2)) / 2


def moment_operators(
    ops_a: Sequence[LabeledOperator],
    ops_b: Sequence[LabeledOperator],
) -> tuple[list[LabeledOperator], list[LabeledOperator]]:
    """Operators whose expectations, in row-major order, are the moment tables.

    <F_j^dag G_k> fills c[j, k] (shape na x nb) and <F_j^dag F_j' G_k^dag G_k'>
    fills t[j, k, j', k'], the same numbers that :func:`bilinear_form` reads
    from the Gram table of a state; :func:`form_from_moments` turns either
    into the form.  Each t-word is built per side, (F_j^dag F_j') (G_k^dag G_k'):
    the sides act on disjoint factors and commute, so a word is lifted to
    the union of their axes once, not after every factor.
    """
    _check_disjoint(ops_a, ops_b)
    c_ops = [f.dag() @ g for f in ops_a for g in ops_b]
    t_ops = [
        (f.dag() @ f2) @ (g.dag() @ g2)
        for f in ops_a
        for g in ops_b
        for f2 in ops_a
        for g2 in ops_b
    ]
    return c_ops, t_ops


def xv_slice(x: WitnessMatrix, v: np.ndarray) -> np.ndarray:
    """Contract the side-b indices of X with a fixed vector v.

    The result X_v is Hermitian on the side-a coefficient space and obeys
    u^dag X_v u = (u (x) v)^dag X (u (x) v).
    """
    v = np.asarray(v, dtype=complex).ravel()
    if np.linalg.norm(v) == 0.0:
        raise ValueError("slice vector must be nonzero")
    na, nb = x.dims
    if v.size != nb:
        raise ValueError(f"slice vector has length {v.size}, expected {nb}")
    t = x.matrix.reshape(na, nb, na, nb)
    return np.einsum("jkml,k,l->jm", t, v.conj(), v)


def reduced_criterion(x: WitnessMatrix) -> bool:
    """Positive eigenvalue of the side-b partial trace of X.

    Sufficient for a satisfying product vector to exist (recoverable with
    :func:`product_vector_scan`), but not necessary.
    """
    na, nb = x.dims
    x1 = np.einsum("jkmk->jm", x.matrix.reshape(na, nb, na, nb))
    return matrix_has_positive_eigenvalue(x1)


@dataclass(frozen=True)
class ProductScanResult:
    value: float
    u: np.ndarray
    v: np.ndarray


@functools.lru_cache(maxsize=8)
def _seed_mesh(grid: int) -> np.ndarray:
    """Read-only side-b seed vectors of a grid x grid mesh: the two poles, then the ring rows.

    Row t of the ring (t strictly between the poles) holds v = (cos t, e^{i phi} sin t)
    for ``grid`` phases phi.
    """
    ts = np.linspace(0.0, np.pi / 2, grid)[1:-1, None]
    phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, grid, endpoint=False))
    ring = np.stack(np.broadcast_arrays(np.cos(ts), phases * np.sin(ts)), axis=-1)
    vs = np.concatenate([[[1.0, 0.0], [0.0, 1.0]], ring.reshape(-1, 2)])
    vs.flags.writeable = False
    return vs


def product_vector_scan(
    x: WitnessMatrix, grid: int = 12, stop_above: float = math.inf
) -> ProductScanResult:
    """Maximize (u (x) v)^dag X (u (x) v) over unit product vectors by see-saw.

    The seeds are cells of a grid x grid mesh of side-b vectors
    v = (cos t, e^{i phi} sin t), each pole one cell, ranked by lambda_max(X_v):
    the :data:`SEESAW_SEEDS` best, and as many best that no neighbour beats.
    From each, the see-saw (Werner & Wolf, QIC 1, 1 (2001)) alternates
    u <- top eigenvector of X_v and v <- top eigenvector of X_u, neither of
    which lowers the value.  The seeds step together: each half-step is one
    ``eigh`` over the stack of the seeds still live.  Each seed keeps its own
    stop rule and leaves the stack once its value rises by at most
    :data:`SEESAW_RTOL` relative, or after :data:`SEESAW_MAX_STEPS` steps; the
    first seed with the best value wins.  Requires a 2-dim side b.

    With ``stop_above`` set, the scan returns as soon as an accepted value
    exceeds it, with the best value accepted so far: a lower bound on the
    maximum, above ``stop_above``.  Accepted values only rise, so the
    returned value exceeds ``stop_above`` exactly when the full scan's does.
    """
    na, nb = x.dims
    if nb != 2:
        raise ValueError("the product scan is implemented for a 2-dim side-b space")
    t4 = x.matrix.reshape(na, nb, na, nb)
    vs = _seed_mesh(grid)
    lams = np.linalg.eigvalsh(np.einsum("jkml,pk,pl->pjm", t4, vs.conj(), vs))[:, -1]
    # neighbours: around phi, and along t, where each pole neighbours its whole end row
    rows = lams[2:].reshape(-1, grid)
    padded = np.vstack([np.full(grid, lams[0]), rows, np.full(grid, lams[1])])
    wrapped = np.concatenate([rows[:, -1:], rows, rows[:, :1]], axis=1)
    top_near = np.maximum(
        np.maximum(padded[:-2], padded[2:]), np.maximum(wrapped[:, :-2], wrapped[:, 2:])
    )
    poles = [lams[0] >= rows[:1].max(initial=-np.inf), lams[1] >= rows[-1:].max(initial=-np.inf)]
    peaks = np.concatenate([poles, (rows >= top_near).ravel()])
    order = np.argsort(-lams, kind="stable")
    seeds = list(dict.fromkeys([*order[:SEESAW_SEEDS], *order[peaks[order]][:SEESAW_SEEDS]]))
    # per seed: the value, u and v of its last accepted step
    n = len(seeds)
    values = np.empty(n)
    us = np.empty((n, na), dtype=complex)
    v_best = np.empty((n, nb), dtype=complex)
    live, v = np.arange(n), vs[seeds]
    for step in range(SEESAW_MAX_STEPS):
        w, vecs = np.linalg.eigh(np.einsum("jkml,pk,pl->pjm", t4, v.conj(), v))
        top = w[:, -1]
        if step:
            old = values[live]
            rising = ~(top <= old + SEESAW_RTOL * abs(old))  # a NaN keeps stepping
            live, top, vecs, v = live[rising], top[rising], vecs[rising], v[rising]
            if not live.size:
                break
        values[live] = top
        us[live] = vecs[:, :, -1]
        v_best[live] = v
        if top.max() > stop_above:
            break
        u = us[live]
        v = np.linalg.eigh(np.einsum("jkml,pj,pm->pkl", t4, u.conj(), u))[1][:, :, -1]
    scores = values.tolist()
    best = max(range(n), key=scores.__getitem__)  # the first best, as max over a list picks
    return ProductScanResult(scores[best], us[best], v_best[best])


def product_from_two_positive(x: WitnessMatrix) -> ProductScanResult:
    """Build a product vector with positive form value from two positive eigenvalues.

    Any combination alpha x1 + beta x2 of the two top eigenvectors keeps a
    positive form value; the product condition on its 2x2 coefficient matrix
    is one quadratic equation in y = alpha/beta.  Falls back to
    :func:`product_vector_scan` when no root gives a product vector.
    """
    na, nb = x.dims
    if na != 2 or nb != 2:
        raise ValueError("the quadratic construction needs a 2 (x) 2 coefficient space")
    w, vecs = np.linalg.eigh(x.matrix)
    thresh = positivity_threshold(w)
    if np.sum(w > thresh) < 2:
        raise ValueError("need at least two positive eigenvalues")
    x1 = vecs[:, -1]
    x2 = vecs[:, -2]

    kappa, left, right = linalg.schmidt(x1, (2, 2))
    if kappa[1] <= 1e-12:
        # x1 is already a product vector
        value = float(np.real(np.conj(x1) @ x.matrix @ x1))
        return ProductScanResult(value, left[:, 0], right[:, 0])
    # expand x2 in the Schmidt basis of x1
    d = left.conj().T @ x2.reshape(2, 2) @ right.conj()
    coeffs = [kappa[0] * kappa[1], kappa[0] * d[1, 1] + kappa[1] * d[0, 0],
              d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]]
    roots = np.roots(coeffs)
    best = None
    for y in roots if np.all(np.isfinite(roots)) else ():
        vec = y * x1 + x2
        nrm = np.linalg.norm(vec)
        if nrm < 1e-12:
            continue
        vec = vec / nrm
        s, lv, rv = linalg.schmidt(vec, (2, 2))
        if s[1] > 1e-8:
            continue
        value = float(np.real(np.conj(vec) @ x.matrix @ vec))
        if best is None or value > best.value:
            best = ProductScanResult(value, lv[:, 0], rv[:, 0])
    return best if best is not None else product_vector_scan(x)


def lur_value(
    state: State,
    pairs: Sequence[tuple[LabeledOperator, LabeledOperator]],
    separable_bound: float,
) -> WitnessReport:
    """Local-uncertainty sum sum_j [<D_j^dag D_j> - |<D_j>|^2] with D_j = A_j + B_j.

    Every separable state obeys value >= bound, so the report's lhs is the
    caller-supplied bound and rhs is the measured value: a positive margin
    (value below the bound) certifies entanglement.
    """
    total = 0.0
    for a, b in pairs:
        _check_disjoint([a], [b])
        # the table of [I, A, B]: A + B itself would span the full space
        g = _gram(*_images(state, [(), (a,), (b,)])).tolist()
        d_dag_d = g[1][1] + g[1][2] + g[2][1] + g[2][2]
        total += _real(d_dag_d, "<D^dag D>") - abs(g[0][1] + g[0][2]) ** 2
    return _report(float(separable_bound), total)


def ppt_min_eig(state: State, transpose_labels: Iterable[str]) -> float:
    """Minimum eigenvalue of the partial transpose over the given factors.

    A value below -1e-10 certifies entanglement across the corresponding cut.
    """
    sig = state.signature
    rho = density_of(state)
    labels = list(transpose_labels)
    if not labels:
        raise ValueError("need at least one factor to transpose")
    for lab in labels:
        rho = linalg.partial_transpose(rho, sig.dims, sig.axis(lab))
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])


PPT_TOL = 1e-10


@dataclass(frozen=True)
class PptCrosscheck:
    cond1: WitnessReport
    cond2: WitnessReport
    min_eigenvalue: float

    @property
    def flagged(self) -> bool:
        return self.cond1.entangled or self.cond2.entangled

    @property
    def consistent(self) -> bool:
        """Criteria only fire on states whose partial transpose is negative."""
        return (not self.flagged) or self.min_eigenvalue < -PPT_TOL


@dataclass(frozen=True)
class PptColumns:
    """The fields of a stack of :class:`PptCrosscheck`, one array per field."""

    cond1: ReportColumns
    cond2: ReportColumns
    min_eigenvalue: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        return self.cond1.entangled | self.cond2.entangled

    @property
    def consistent(self) -> np.ndarray:
        return ~self.flagged | (self.min_eigenvalue < -PPT_TOL)


def ppt_crosscheck(state: State, a: LabeledOperator, b: LabeledOperator) -> PptCrosscheck:
    """Evaluate both base criteria and the partial-transpose eigenvalue together.

    Both criteria are implied by the partial-transpose test, so any state
    they flag must have a negative partial transpose; the report makes that
    implication checkable.
    """
    rep1, rep2 = (c.report(0) for c in _base_columns(_base_moments(state, a, b)))
    labels = sorted(a.support) or [state.signature.labels[0]]
    return PptCrosscheck(rep1, rep2, ppt_min_eig(state, labels))


def ppt_crosscheck_batch(states: np.ndarray, ga: np.ndarray, gb: np.ndarray) -> PptColumns:
    """:func:`ppt_crosscheck` for a stack of states on one space a (x) b, as columns.

    ``states`` holds n kets (n, D) or n density matrices (n, D, D) with
    D = d_a d_b, ``ga`` (n, d_a, d_a) and ``gb`` (n, d_b, d_b) the local
    matrices of A and B on sides a and b, and the partial transpose is taken
    on side a.  Entry i of every column equals that field of
    ``ppt_crosscheck(state_i, embed(ga[i], "a", sig), embed(gb[i], "b", sig))``
    for ``sig = signature(boson("a", d_a), boson("b", d_b))`` bit for bit:
    the images of the words [I, A, B, AB] are contracted with the inner
    shapes of :meth:`LabeledOperator.apply`, batched over the stack, one
    :func:`_gram` call gives every table, both criteria read the tables
    through the helper the per-state reports read, and the partial-transpose
    eigenvalues come from one ``eigvalsh`` call.  A moment that should be
    real and is not raises the error of the first such state in the stack.
    """
    n, da, db = len(ga), ga.shape[-1], gb.shape[-1]
    d = da * db

    def images(roots: np.ndarray) -> np.ndarray:
        # roots (n, D, m); rows I, A, B, AB as in _images, each written in place
        m = roots.shape[-1]
        out = np.empty((n, 4, d * m), dtype=complex)
        out[:, 0] = roots.reshape(n, -1)
        a, b, ab = (out[:, k].reshape(n, da, db * m) for k in (1, 2, 3))
        np.matmul(gb[:, None], roots.reshape(n, da, db, m), out=b.reshape(n, da, db, m))
        np.matmul(ga, roots.reshape(n, da, db * m), out=a)
        np.matmul(ga, b, out=ab)
        return out

    if states.ndim == 2:
        bras = kets = images(states[:, :, None])
        rho = states[:, :, None] * states.conj()[:, None, :]
    else:
        bras = images(np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)))
        kets = images(states)
        rho = states
    cond1_cols, cond2_cols = _base_columns(_gram(bras, kets)[:, _BASE_ROWS, _BASE_COLS])
    pt = rho.reshape(n, da, db, da, db).swapaxes(1, 3).reshape(n, d, d)
    min_eig = np.linalg.eigvalsh((pt + pt.conj().swapaxes(1, 2)) / 2)[:, 0]
    return PptColumns(cond1_cols, cond2_cols, min_eig)
