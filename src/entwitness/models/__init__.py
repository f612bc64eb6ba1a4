"""Dynamical scenarios: resonant atom-field models, collective-spin dynamics
under the bosonization approximation, and the two-beam-splitter cascade.

Each scenario has a closed-form route and an independent brute-force
simulation oracle; the tests hold the two against each other.
"""

from .jaynes_cummings import JCConfig, jc_hamiltonian, jc_signature, jc_witness_trace
from .tavis_cummings import (
    tc_atom_field_condition,
    tc_closed_state,
    tc_epsilon_check,
    tc_field_both_condition,
    tc_hamiltonian,
    tc_sector_state,
    tc_signature,
)
from .dicke import DickeConfig, dicke_conditions, dicke_oracle, heisenberg_moments
from .beam_splitters import BSConfig, bs_conditions, bs_simulate, epsilon_state

__all__ = [
    "JCConfig",
    "jc_hamiltonian",
    "jc_signature",
    "jc_witness_trace",
    "tc_atom_field_condition",
    "tc_closed_state",
    "tc_epsilon_check",
    "tc_field_both_condition",
    "tc_hamiltonian",
    "tc_sector_state",
    "tc_signature",
    "DickeConfig",
    "dicke_conditions",
    "dicke_oracle",
    "heisenberg_moments",
    "BSConfig",
    "bs_conditions",
    "bs_simulate",
    "epsilon_state",
]
