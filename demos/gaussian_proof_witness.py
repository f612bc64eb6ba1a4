"""A witness that local Gaussian operations cannot fool.

Squeezing one side of (|01> + |10>)/sqrt(2) degrades the plain correlation
test until it flips its verdict at tanh r = 1/sqrt(2) = 0.7071.  Expanding
the probe operator in the centered quadratures {delta a, delta a^dag} makes
the verdict invariant: the matrix keeps a positive eigenvalue for every
squeeze, displacement or rotation applied to that side.
"""

import math

import numpy as np

from entwitness import families, operators as ops, witnesses
from entwitness.spaces import apply_local, embed

print(f"{'r':>5} {'tanh r':>8} {'plain margin':>13} {'matrix lambda_max':>18}")
for r in (0.2, 0.6, 0.8814, 1.1):
    m, plain = families.squeezed_pair_witnesses(r, dim_a=128)
    print(f"{r:>5.2f} {math.tanh(r):>8.4f} {plain.margin:>13.6f} {m.max_eigenvalue():>18.6f}")

print("\natom-field pair state under displacement + rotation + squeeze of the field:")
sig, st = families.atom_field_bell(96)
sm = embed(ops.qubit_ops()["minus"], "atom", sig, "sigma-")
for g in (
    ops.GaussianParams(),
    ops.GaussianParams(alpha=1.2),
    ops.GaussianParams(z=0.7),
    ops.GaussianParams(alpha=1.0 + 0.5j, theta=1.3, z=0.6 * np.exp(0.4j)),
):
    moved = apply_local(st, "field", ops.gaussian_unitary(g, 96))
    m = witnesses.witness_matrix_expand_b(
        moved, sm, families.centered_quadrature_basis(moved, "field")
    )
    print(
        f"  alpha={g.alpha!s:>12}, theta={g.theta:.2f}, r={g.r:.2f}: "
        f"lambda_max = {m.max_eigenvalue():+.6f}"
    )
