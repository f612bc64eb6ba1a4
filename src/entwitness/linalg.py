"""Dense complex linear algebra for truncated quantum systems.

Matrices are plain numpy arrays with complex128 entries.  Nothing in this
module knows about physics, only about shapes: Hermitian eigenproblems
(of one matrix or of a stack of equal-size blocks), matrix exponentials,
Kronecker products, partial transposes, and Schmidt decompositions of
bipartite vectors.

Storage is dense throughout; the systems handled by this package stay at a
few thousand dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy

HERMITICITY_RTOL = 1e-10


class NonHermitianError(ValueError):
    """Raised when a matrix violates the Hermiticity tolerance."""

    def __init__(self, max_asymmetry: float, tolerance: float):
        self.max_asymmetry = float(max_asymmetry)
        self.tolerance = float(tolerance)
        super().__init__(
            f"matrix is not Hermitian: max |H - H^dag| = {self.max_asymmetry:.3e} "
            f"exceeds tolerance {self.tolerance:.3e}"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order, orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def function_of(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Return V f(Lambda) V^dag with f applied entrywise to the spectrum (per matrix of a stack)."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _square_stack(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def require_hermitian(h, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Check each matrix of a ``(..., d, d)`` stack for Hermiticity; return the stack.

    Each matrix must be Hermitian within ``rtol`` relative to its own
    largest entry (at least 1); otherwise a :class:`NonHermitianError`
    reports the block that exceeds its tolerance by the largest factor.
    """
    h = _square_stack(h)
    if h.size == 0:
        return h
    tol = rtol * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    asym = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = asym > tol
    if bad.any():
        worst = np.argmax(np.where(bad, asym / tol, 0.0))
        raise NonHermitianError(asym.flat[worst], tol.flat[worst])
    return h


def herm_eig(h, rtol: float = HERMITICITY_RTOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``h`` is one d x d matrix or a ``(..., d, d)`` stack; the result then
    has eigenvalues of shape ``(..., d)`` and eigenvectors ``(..., d, d)``,
    one ``numpy.linalg.eigh`` call for the whole stack.  Every matrix must
    pass :func:`require_hermitian`; otherwise a :class:`NonHermitianError`
    reports the worst one.
    """
    h = require_hermitian(h, rtol)
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential exp(A).

    (Anti-)Hermitian inputs, which cover every generator used here, go
    through an exact eigendecomposition; anything else falls back to
    scipy's Pade scaling-and-squaring.  ``scipy.linalg`` is loaded on the
    first such fallback, through scipy's lazy submodule attribute, so
    importing this module does not pay for it.
    """
    a = _square(a)
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    tol = 1e-12 * max(1.0, scale)
    if np.abs(a - a.conj().T).max() <= tol:
        ed = herm_eig(a)
        return ed.function_of(np.exp)
    if np.abs(a + a.conj().T).max() <= tol:
        # a = iH with H Hermitian, so exp(a) = V exp(i lambda) V^dag
        ed = herm_eig(-1j * a)
        return ed.function_of(lambda w: np.exp(1j * w))
    return scipy.linalg.expm(a)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"dims {dims} give total {total}, matrix has shape {m.shape}")
    return dims


def partial_transpose(m, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose a single tensor factor, leaving the others untouched.

    Pure index permutation: applying it twice restores the input exactly.
    """
    m = _square(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    subsystem = int(subsystem)
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"subsystem {subsystem} out of range for {n} factors")
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, subsystem, subsystem + n)
    return t.reshape(m.shape)


def schmidt(v, dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a vector on a d1 x d2 product space.

    Returns (coefficients, left, right): coefficients are nonnegative and
    descending (ties keep first-occurrence order from the SVD), left[:, j]
    and right[:, j] are the orthonormal Schmidt vectors, and
    v = sum_j coefficients[j] * kron(left[:, j], right[:, j]).
    """
    v = np.asarray(v, dtype=complex).ravel()
    d1, d2 = (int(d) for d in dims)
    if v.size != d1 * d2:
        raise ValueError(f"vector of length {v.size} does not fit dims ({d1}, {d2})")
    if np.linalg.norm(v) == 0.0:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    u, s, vh = np.linalg.svd(v.reshape(d1, d2), full_matrices=False)
    return s, u, vh.T
