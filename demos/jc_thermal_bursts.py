"""Entanglement bursts of an excited atom in a slightly thermal cavity.

The 2x2 witness matrix (sigma^- against the centered field quadratures)
stays diagonal for this start; its upper-left entry M11 rises above zero in
bursts.  A little thermal light suppresses the bursts, which is the whole
story of this scenario: compare the burst heights across nbar.
"""

import numpy as np

from entwitness.models.jaynes_cummings import JCConfig, jc_witness_traces

kt = np.linspace(0.0, 6.0, 241)

nbars = (0.0, 0.01, 0.02, 0.03)
traces = dict(zip(nbars, jc_witness_traces(JCConfig(nbar=n, kt_grid=tuple(kt), fock_dim=20) for n in nbars)))

print("peak M11 per thermal occupation:")
for nbar, tr in traces.items():
    i = int(np.argmax(tr.m11))
    print(f"  nbar = {nbar:.2f}:  max M11 = {tr.m11[i]:+.5f} at kt = {tr.kt[i]:.3f}")

print("\nM11 at kt = 2.24 (strictly decreasing in nbar):")
idx = int(np.argmin(np.abs(kt - 2.24)))
for nbar, tr in traces.items():
    print(f"  nbar = {nbar:.2f}:  M11 = {tr.m11[idx]:+.6f}")

worst_offdiag = max(tr.abs_m12.max() for tr in traces.values())
print(f"\nlargest off-diagonal entry over all runs: {worst_offdiag:.2e} (stays zero)")
print(f"largest M22 over all runs: {max(tr.m22.max() for tr in traces.values()):+.2e} (never positive)")
