"""Every model state flagged entangled must have a negative partial transpose."""

import math

import numpy as np

from entwitness import operators as ops, witnesses
from entwitness.models import beam_splitters as bs
from entwitness.models import dicke as dk
from entwitness.models import jaynes_cummings as jc
from entwitness.models import tavis_cummings as tc
from entwitness.spaces import DensityMatrix, boson, evolve, signature

PPT_TOL = 1e-10


def test_tavis_states_flagged_by_either_margin_are_npt():
    for n in (1, 2, 3):
        sig = tc.tc_signature(n)
        for w in np.linspace(0.1, 2 * math.pi, 17):
            state = tc.tc_sector_state(n, w, sig)
            if tc.tc_atom_field_condition(n, w) > 1e-6:
                assert witnesses.ppt_min_eig(state, ["atom1"]) < -PPT_TOL
            if tc.tc_field_both_condition(n, w) > 1e-6:
                assert witnesses.ppt_min_eig(state, ["field"]) < -PPT_TOL


def test_jc_thermal_flagged_times_are_npt():
    kt = np.linspace(0.2, 6.0, 30)
    cfg = jc.JCConfig(nbar=0.01, kt_grid=tuple(kt), fock_dim=16)
    trace = jc.jc_witness_trace(cfg)
    sig = jc.jc_signature(trace.fock_dim)
    h = jc.jc_hamiltonian(sig, cfg.omega, cfg.kappa)
    rho0 = DensityMatrix(
        sig, np.kron(ops.thermal(cfg.nbar, trace.fock_dim), np.outer(ops.EXCITED, ops.EXCITED.conj()))
    )
    flagged = [i for i in range(len(kt)) if trace.m11[i] > 1e-6]
    assert flagged
    for i in flagged:
        rho_t = evolve(h, kt[i] / cfg.kappa, rho0)
        assert witnesses.ppt_min_eig(rho_t, ["atom"]) < -PPT_TOL


def test_dicke_flagged_inputs_give_npt_group_marginal():
    n_atoms, k, omega, kappa = 4, 2, 1.0, 0.1
    big = kappa * math.sqrt(n_atoms)
    cases = [
        (ops.fock(2, 5), (5, 5, 5)),            # sub-Poissonian: correlation test
        (ops.squeezed_vacuum(0.3, 16), (16, 12, 12)),  # squeezed: pairing test
    ]
    for field, dims in cases:
        margins = dk.dicke_conditions(field)
        assert margins.cond1_margin > 1e-6 or margins.cond2_margin > 1e-6
        cfg = dk.DickeConfig(n_atoms, k, field, t=1.1 / big, omega=omega, kappa=kappa, dims=dims)
        psi = dk.evolve_three_mode(cfg, dims)
        m = psi.reshape(dims[0], dims[1] * dims[2])
        rho_groups = DensityMatrix(
            signature(boson("x1", dims[1]), boson("x2", dims[2])),
            np.einsum("ax,ay->xy", m, m.conj()),
        )
        assert witnesses.ppt_min_eig(rho_groups, ["x1"]) < -PPT_TOL


def test_beamsplitter_flagged_outputs_are_npt():
    for eps in (-0.02, 0.0, 0.05):
        cfg = bs.BSConfig(bs.epsilon_state(eps, 10), fock_dim=10)
        rep = bs.bs_conditions(cfg)
        assert rep.matrix_entangled
        rho_bc = bs.bs_output_marginal(cfg)
        assert witnesses.ppt_min_eig(rho_bc, ["b"]) < -PPT_TOL
