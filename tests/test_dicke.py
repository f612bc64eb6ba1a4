import math

import numpy as np
import pytest

from entwitness import linalg, operators as ops
from entwitness.models.dicke import (
    DickeConfig,
    dicke_conditions,
    dicke_oracle,
    field_moments,
    heisenberg_moments,
    hp_inverse_transform,
    hp_mode_transform,
    hp_single_particle_matrix,
)


def test_conditions_coherent_input_silent():
    margins = dicke_conditions(ops.coherent(1.0, 40))
    assert abs(margins.cond1_margin) < 1e-8
    assert abs(margins.cond2_margin) < 1e-8


def test_conditions_squeezed_input_pairing():
    for r in (0.1, 0.3, 0.5):
        margins = dicke_conditions(ops.squeezed_vacuum(r, 48))
        sh, ch = math.sinh(r), math.cosh(r)
        # |<a^2>|^2 - <n>^2 = sinh^2 (cosh^2 - sinh^2) = sinh^2
        assert margins.cond2_margin == pytest.approx(sh**2, abs=1e-7)
        assert margins.cond2_margin > 0
        # photon-number noise of squeezed vacuum is super-Poissonian
        assert margins.cond1_margin < 0


def test_conditions_fock_input_sub_poissonian():
    margins = dicke_conditions(ops.fock(3, 8))
    assert margins.cond1_margin == pytest.approx(3.0, abs=1e-12)
    assert margins.cond2_margin == pytest.approx(-9.0, abs=1e-12)


def test_single_particle_spectrum():
    n_atoms, k, omega, kappa = 7, 3, 1.0, 0.17
    m = hp_single_particle_matrix(n_atoms, k, omega, kappa)
    ed = linalg.herm_eig(m)
    big = kappa * math.sqrt(n_atoms)
    assert np.abs(ed.eigenvalues - np.array([omega - big, omega, omega + big])).max() < 1e-12


def test_mode_transform_roundtrip_and_diagonalization():
    for n_atoms, k in [(2, 1), (4, 2), (9, 4)]:
        t = hp_mode_transform(n_atoms, k)
        t_inv = hp_inverse_transform(n_atoms, k)
        assert np.abs(t @ t_inv - np.eye(3)).max() < 1e-12
        assert np.abs(t_inv - t.T).max() < 1e-12
        m = hp_single_particle_matrix(n_atoms, k, 1.0, 0.2)
        big = 0.2 * math.sqrt(n_atoms)
        diag = t @ m.real @ t.T
        assert np.abs(diag - np.diag([1.0 - big, 1.0, 1.0 + big])).max() < 1e-12


def test_oracle_vacuum_input():
    cfg = DickeConfig(n_atoms=4, k=2, field_amplitudes=ops.fock(0, 4), t=3.0, dims=(4, 4, 4))
    res = dicke_oracle(cfg)
    for v in res.moments.values():
        assert abs(v) < 1e-12


def test_oracle_matches_heisenberg_exactly_on_finite_input():
    # (|0> + |2>)/sqrt(2) keeps total quanta <= 2: truncation error vanishes
    field = (ops.fock(0, 5) + ops.fock(2, 5)) / math.sqrt(2)
    n_atoms, k, omega, kappa = 4, 2, 1.0, 0.1
    big = kappa * math.sqrt(n_atoms)
    for omega_t_frac in (0.3, 1.2):
        t = omega_t_frac / big
        cfg = DickeConfig(n_atoms, k, field, t, omega, kappa, dims=(5, 5, 5))
        res = dicke_oracle(cfg)
        expected = heisenberg_moments(n_atoms, k, omega, kappa, t, field_moments(field))
        for key in expected:
            assert abs(res.moments[key] - expected[key]) < 1e-10, key


def test_oracle_matches_heisenberg_squeezed_input():
    r = 0.3
    field = ops.squeezed_vacuum(r, 16)
    n_atoms, k, omega, kappa = 4, 2, 1.0, 0.1
    big = kappa * math.sqrt(n_atoms)
    t = (math.pi / 3) / big
    cfg = DickeConfig(n_atoms, k, field, t, omega, kappa, dims=(20, 20, 20))
    res = dicke_oracle(cfg)
    expected = heisenberg_moments(n_atoms, k, omega, kappa, t, field_moments(field))
    for key in expected:
        assert abs(res.moments[key] - expected[key]) < 1e-7, key
    # group occupation picks up the advertised share of the input photons
    assert res.moments["n1"].real == pytest.approx(
        (k / n_atoms) * math.sin(math.pi / 3) ** 2 * math.sinh(r) ** 2, abs=1e-7
    )
    # bosonized description comfortably valid for this run
    assert res.group_excitation_over_atoms < 0.05


def test_oracle_escalates_truncation():
    field = ops.squeezed_vacuum(0.3, 14)
    cfg = DickeConfig(4, 2, field, t=8.0, dims=(14, 4, 4))
    res = dicke_oracle(cfg)
    assert res.dims[1] > 4  # the tiny group truncation had to grow
    assert res.max_leakage < 1e-6


def test_config_validates_split():
    with pytest.raises(ValueError):
        DickeConfig(n_atoms=4, k=4, field_amplitudes=ops.fock(0, 4), t=1.0)
    with pytest.raises(ValueError):
        DickeConfig(n_atoms=4, k=0, field_amplitudes=ops.fock(0, 4), t=1.0)


def test_oracle_escalation_doubles_every_truncation_together():
    field = ops.squeezed_vacuum(0.3, 14)
    res = dicke_oracle(DickeConfig(4, 2, field, t=8.0, dims=(14, 4, 4)))
    assert res.dims == (56, 16, 16)


def test_inverse_transform_validates_split():
    for k in (0, 4):
        with pytest.raises(ValueError):
            hp_inverse_transform(4, k)
