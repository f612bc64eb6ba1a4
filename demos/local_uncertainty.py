"""Variance sums that separable states cannot beat.

For the pair (A, B) = (a, b^dag) every separable two-mode state keeps
<D^dag D> - |<D>|^2 at or above 1, with D = a + b^dag.  A two-mode squeezed
vacuum dips to e^{-2r}, but only on the squeezing phase that correlates the
right quadratures; the opposite branch climbs to e^{+2r}.  The analogous
atom-field sum over cos(t)|0,e> + e^{i phi} sin(t)|1,g> dips below 1 for
t < 0 on the phi = 0 branch and, mirrored, for t > 0 on the pi branch.
"""

import math

import numpy as np

from entwitness import families

print(f"{'r':>5} {'phase 0 value':>14} {'phase pi value':>15} {'e^-2r':>9}")
for r, plus, minus in families.tmsv_lur((0.1, 0.3, 0.6), 48):
    print(f"{r:>5.2f} {plus.rhs:>14.6f} {minus.rhs:>15.6f} {math.exp(-2 * r):>9.6f}")
print("only the pi branch violates the separable bound of 1")

print("\natom-field sum over the superposition phase (values below 1 violate):")
scan = families.atom_field_lur(np.linspace(-math.pi / 4, math.pi / 4, 201), (0.0, math.pi))
for phi, label in ((0.0, "plus branch"), (math.pi, "pi branch")):
    violating = [theta for theta, branch, rep in scan if branch == phi and rep.entangled]
    if violating:
        print(f"  {label}: violations for theta in ({min(violating):+.3f}, {max(violating):+.3f})")
    else:
        print(f"  {label}: no violation")
