"""Both base criteria are blunter cousins of the partial-transpose test.

Whenever either inequality flags a state, the partial transpose of that
state must have a negative eigenvalue; and convex mixtures of product
states can never be flagged.  A quick Monte Carlo run makes the implication
visible: the Schmidt-adapted probe fires on essentially every random pure
state, and the partial transpose confirms every single verdict.
"""

import numpy as np

from entwitness import families, linalg, witnesses
from entwitness.spaces import DensityMatrix, StateVector, boson, embed, signature

rng = np.random.default_rng(5)
fired = confirmed = 0
for trial in range(200):
    da, db = [(2, 4), (3, 3)][trial % 2]
    sig = signature(boson("a", da), boson("b", db))
    amps = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    state = StateVector(sig, amps / np.linalg.norm(amps))
    _, left, right = linalg.schmidt(state.amplitudes, (da, db))
    a_op = embed(np.outer(left[:, 1], left[:, 0].conj()), "a", sig)
    b_op = embed(np.outer(right[:, 0], right[:, 1].conj()), "b", sig)
    chk = witnesses.ppt_crosscheck(state, a_op, b_op)
    if chk.flagged:
        fired += 1
        if chk.min_eigenvalue < -1e-10:
            confirmed += 1
print(f"random pure states: criterion fired on {fired}/200, "
      f"partial transpose confirmed {confirmed}/{fired}")

false_alarms = 0
for trial in range(200):
    sig = signature(boson("a", 3), boson("b", 3))
    rho = families.random_separable(rng, 3, 3, 16)
    ga = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    chk = witnesses.ppt_crosscheck(
        DensityMatrix(sig, rho), embed(ga, "a", sig), embed(gb, "b", sig)
    )
    false_alarms += int(chk.flagged)
print(f"separable mixtures: false alarms {false_alarms}/200")
