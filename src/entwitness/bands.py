"""One-factor operator locals stored by their one nonzero diagonal.

A :class:`Band` is how :class:`~entwitness.spaces.LabeledOperator` keeps a
local on one factor whose nonzero entries are real and lie on one diagonal:
the Fock ladder a and a^dag, the number operator, thermal weights and the
leakage projector, each built as a band by its factory and so embedded.
It holds that diagonal and the one complex zero every other entry holds,
so the dense local is rebuilt bit for bit, signed zeros included, and it
is applied as one shifted, scaled copy.  The product of two bands on one
factor is a band, with the offsets added (:meth:`Band.matmul`).

The values must be real: their products with complex entries are then
exact, so a band's product equals the dense matmul entry for entry.  A
complex diagonal is not stored as a band, because BLAS complex kernels that
use fused multiply-adds round such a product differently in the last bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Band(NamedTuple):
    """A d x d local whose entry [i, i + offset] is values[i] and every other entry ``zero``.

    ``values`` (complex dtype) has zero imaginary parts.  ``zero`` is the
    complex128 zero the dense local holds off the diagonal, with the sign
    bits that ``dag`` and scalar ``*`` give it there.  A band's arrays are
    never written; the bands derived from one another share them.
    """

    offset: int
    values: np.ndarray
    zero: np.complex128

    @classmethod
    def checked(cls, offset: int, values: np.ndarray, zero: np.complex128) -> "Band | None":
        """The band, or None unless ``values`` is real and ``zero`` is a zero."""
        if values.imag.any() or zero != 0:
            return None
        return cls(offset, values, zero)

    @classmethod
    def diagonal(cls, values, offset: int = 0) -> "Band":
        """The band of ``np.diag(values, offset).astype(complex)``: real values, +0 everywhere else."""
        return cls(offset, np.asarray(values, dtype=float).astype(complex), np.complex128(0))

    def dag(self) -> "Band":
        return Band(-self.offset, self.values.conj(), self.zero.conjugate())

    def scaled(self, scalar) -> "Band | None":
        return Band.checked(self.offset, self.values * scalar, self.zero * scalar)

    def minus_identity(self, value: complex) -> "Band | None":
        """The band of local - value * identity, or None if that local is not one."""
        if self.offset == 0:
            return Band.checked(0, self.values - value, self.zero)
        # the main diagonal holds ``zero``: unchanged only if zero - value has its bits
        return self if (self.zero - value).tobytes() == self.zero.tobytes() else None

    def dense(self, d: int) -> np.ndarray:
        """The d x d local."""
        local = np.full((d, d), self.zero)
        start = self.offset if self.offset >= 0 else -self.offset * d
        local.reshape(-1)[start :: d + 1][: d - abs(self.offset)] = self.values
        return local

    def matmul(self, other: "Band", d: int) -> "Band | None":
        """The band of ``self.dense(d) @ other.dense(d)``, bit for bit, or None where that is not known.

        Entry [i, i + offset] is the one product self[i, j] other[j, i + offset]
        (j = i + self.offset), 0 where j falls outside the factor, and every
        other entry is +0.  That is the dense matmul's bits when no real part
        of either local has its sign bit set (a, a^dag, the number operator
        and the qubit ladder): the other products in its sums are then exact
        zeros, and the sum of a product with them keeps its value and reads
        +0 for a zero (checked against numpy's matmul in the tests).  Any
        other pair, or a product with no diagonal inside the factor, gives
        None.
        """
        offset = self.offset + other.offset
        if abs(offset) >= d or not (_nonnegative(self) and _nonnegative(other)):
            return None
        n = d - abs(offset)
        i = max(-offset, 0)  # the row of the product's first entry
        j = i + self.offset  # and its inner index
        lo, hi = max(0, -j), min(n, d - j)  # the entries whose inner index lies inside the factor
        values = np.zeros(n, dtype=complex)
        if lo < hi:
            # row r of a band holds values[r - max(-offset, 0)]
            x, y = i - max(-self.offset, 0), j - max(-other.offset, 0)
            values[lo:hi] = self.values[x + lo : x + hi] * other.values[y + lo : y + hi] + 0j
        return Band(offset, values, np.complex128(0))

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The local times index 1 of a (batch, d, rest) array: level i reads level i + offset."""
        n = len(self.values)
        lo = max(-self.offset, 0)
        out = np.zeros(y.shape, dtype=complex)
        source = y[:, lo + self.offset : lo + self.offset + n]
        np.multiply(self.values[:, None], source, out=out[:, lo : lo + n])
        return out


def _nonnegative(band: Band) -> bool:
    """No real part of the band's dense local has its sign bit set."""
    return not (np.signbit(band.values.real).any() or np.signbit(band.zero.real))
