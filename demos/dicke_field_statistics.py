"""What kind of light entangles two groups of atoms?

With the collective spins bosonized at low excitation, the group-group
margins depend only on the input field: squeezing fires the pairing test,
sub-Poissonian counting fires the correlation test, and coherent light,
which keeps the whole system in a product of coherent states, fires
nothing.  A direct three-mode simulation backs the closed forms.
"""

import math

from entwitness import operators as ops
from entwitness.models import dicke as dk

cases = {
    "coherent(1.0)": ops.coherent(1.0, 40),
    "squeezed(0.3)": ops.squeezed_vacuum(0.3, 16),
    "fock(3)": ops.fock(3, 8),
}

print(f"{'input':>15} {'<n>-var(n)':>12} {'|<aa>|^2-<n>^2':>15}  verdicts")
for name, field in cases.items():
    m = dk.dicke_conditions(field)
    verdicts = []
    if m.cond1_margin > 1e-9:
        verdicts.append("sub-Poissonian test fires")
    if m.cond2_margin > 1e-9:
        verdicts.append("pairing test fires")
    print(
        f"{name:>15} {m.cond1_margin:>12.5f} {m.cond2_margin:>15.5f}  "
        f"{'; '.join(verdicts) or 'nothing fires'}"
    )

print("\nthree-mode oracle vs closed Heisenberg moments (N=4, k=2, squeezed 0.3):")
n_atoms, k, omega, kappa = 4, 2, 1.0, 0.1
field = ops.squeezed_vacuum(0.3, 16)
t = (math.pi / 3) / (kappa * math.sqrt(n_atoms))
res = dk.dicke_oracle(dk.DickeConfig(n_atoms, k, field, t, omega, kappa, dims=(20, 20, 20)))
expected = dk.heisenberg_moments(n_atoms, k, omega, kappa, t, dk.field_moments(field))
for key in expected:
    err = abs(res.moments[key] - expected[key])
    print(f"  {key:>10}: oracle {res.moments[key]:+.8f}  closed {expected[key]:+.8f}  |diff| {err:.1e}")
