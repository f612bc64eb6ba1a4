import math

import numpy as np
import pytest

from entwitness import operators as ops
from entwitness.models.beam_splitters import (
    BSConfig,
    bs_conditions,
    bs_simulate,
    epsilon_state,
    field_moments,
    matrix_from_moments,
    printed_reduction_sides,
)
from entwitness.models.dicke import FieldMoments


def test_epsilon_state_variance_slope():
    # variance(n) - <n> = -2 sqrt(2) eps to lowest order
    for eps in (1e-4, -1e-4):
        m = field_moments(epsilon_state(eps))
        assert m.variance - m.mean_n == pytest.approx(-2 * math.sqrt(2) * eps, abs=1e-6)


def test_single_photon_input_flags_both():
    cfg = BSConfig(ops.fock(1, 8), fock_dim=8)
    rep = bs_conditions(cfg)
    assert rep.simple_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.matrix_entangled
    sim = bs_simulate(cfg)
    assert sim.simple_margin == pytest.approx(1.0, abs=1e-9)
    assert sim.matrix_entangled


def test_coherent_input_flags_nothing():
    cfg = BSConfig(ops.coherent(0.9, 16), fock_dim=16)
    rep = bs_conditions(cfg)
    assert abs(rep.simple_margin) < 1e-9
    assert not rep.matrix_entangled
    sim = bs_simulate(cfg)
    assert abs(sim.simple_margin) < 1e-7
    assert not sim.matrix_entangled


def test_epsilon_family_matrix_beats_simple():
    cfg = BSConfig(epsilon_state(-0.02))
    rep = bs_conditions(cfg)
    assert rep.simple_margin < 0  # super-Poissonian input
    assert rep.matrix_entangled  # yet the matrix test still fires
    assert rep.reduction_lhs > rep.reduction_rhs
    sim = bs_simulate(cfg)
    assert sim.simple_margin < 0
    assert sim.matrix_entangled


def test_simulation_matches_closed_forms():
    for eps in (-0.02, 0.05):
        for t1, r1 in [(1 / math.sqrt(2), 1 / math.sqrt(2)), (0.8, 0.6)]:
            cfg = BSConfig(epsilon_state(eps), t1=t1, r1=r1)
            rep = bs_conditions(cfg)
            sim = bs_simulate(cfg)
            assert abs(sim.simple_margin - rep.simple_margin) < 1e-7
            assert np.abs(sim.matrix - rep.matrix).max() < 1e-7


def test_printed_reduction_equals_matrix_determinant_condition():
    # the input-moment inequality is algebraically |M12|^2 > M11 M22; hold
    # the two forms against each other on random pseudo-moments
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = FieldMoments(
            mean_n=float(rng.uniform(0.0, 4.0)),
            mean_n2=float(rng.uniform(0.0, 20.0)),
            pair=complex(rng.normal(), rng.normal()),
        )
        na2 = complex(rng.normal(), rng.normal())
        t1 = float(rng.uniform(0.3, 0.95))
        cfg = BSConfig(ops.fock(0, 4), t1=t1, r1=math.sqrt(1 - t1**2), fock_dim=4)
        mat = matrix_from_moments(cfg, m, na2)
        lhs, rhs = printed_reduction_sides(cfg, m, na2)
        scale = (cfg.r1 * cfg.t1 * cfg.r2) ** 2
        det_gap = abs(mat[0, 1]) ** 2 - mat[0, 0].real * mat[1, 1].real
        assert det_gap / scale**2 == pytest.approx(lhs - rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_sub_poissonian_always_satisfies_matrix_condition():
    # the matrix right factor is Schwarz-negative, so positive simple margin
    # forces the determinant condition
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        cfg = BSConfig(v, fock_dim=12)
        rep = bs_conditions(cfg)
        if rep.simple_margin > 1e-9:
            assert rep.matrix_entangled


def test_config_validation():
    with pytest.raises(ValueError):
        BSConfig(ops.fock(0, 4), t1=0.9, r1=0.6)
    with pytest.raises(ValueError):
        BSConfig(np.ones(20), fock_dim=12)
    with pytest.raises(ValueError):
        epsilon_state(0.4)
    cfg = BSConfig(ops.fock(1, 4), t1=1.0, r1=0.0)
    with pytest.raises(ValueError):
        bs_conditions(cfg)
