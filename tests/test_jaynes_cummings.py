import tracemalloc

import numpy as np
import pytest

from entwitness.models.jaynes_cummings import (
    JCConfig,
    jc_hamiltonian,
    jc_signature,
    jc_vacuum_m11,
    jc_witness_trace,
    jc_witness_traces,
)


def test_config_validation():
    with pytest.raises(ValueError):
        JCConfig(nbar=-0.1, kt_grid=(0.0, 1.0))
    with pytest.raises(ValueError):
        JCConfig(nbar=0.01, kt_grid=(0.0,), atom_initial="sideways")


def test_vacuum_field_excited_atom_closed_form():
    kt = np.linspace(0.0, 6.0, 61)
    trace = jc_witness_trace(JCConfig(nbar=0.0, kt_grid=kt, fock_dim=6))
    assert np.abs(trace.m11 - jc_vacuum_m11(kt)).max() < 1e-9
    assert np.all(trace.m22 <= 1e-9)
    assert np.abs(trace.abs_m12).max() < 1e-9


def test_thermal_start_structure():
    kt = np.linspace(0.0, 6.0, 121)
    trace = jc_witness_trace(JCConfig(nbar=0.02, kt_grid=kt, fock_dim=20))
    assert np.abs(trace.abs_m12).max() < 1e-9
    assert np.all(trace.m22 <= 1e-9)
    assert trace.m11.max() > 0  # entanglement windows survive a little heat
    assert trace.max_leakage < 1e-6
    # the top eigenvalue of a diagonal matrix is just the bigger entry
    assert np.abs(trace.lambda_max - np.maximum(trace.m11, trace.m22)).max() < 1e-9


def test_m11_decreases_with_thermal_occupation():
    kt = (2.24,)
    vals = [
        jc_witness_trace(JCConfig(nbar=nbar, kt_grid=kt, fock_dim=20)).m11[0]
        for nbar in (0.01, 0.02, 0.03)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_ground_start_never_fires_at_zero_temperature():
    kt = np.linspace(0.0, 6.0, 31)
    trace = jc_witness_trace(
        JCConfig(nbar=0.0, kt_grid=kt, fock_dim=6, atom_initial="ground")
    )
    # |g, 0> is stationary: no correlations ever develop
    assert np.abs(trace.m11).max() < 1e-12
    assert np.all(trace.lambda_max <= 1e-9)


def test_hamiltonian_shape():
    sig = jc_signature(8)
    h = jc_hamiltonian(sig, 1.0, 0.1)
    assert h.matrix.shape == (16, 16)
    assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12


def test_a_trace_at_fock_dim_1280_holds_o_d_memory():
    """D = 2560: one D x D complex array would be 100 MiB; the whole trace peaks at a few MiB."""
    cfg = JCConfig(nbar=0.02, kt_grid=tuple(np.linspace(0.0, 40.0, 50)), fock_dim=1280)
    tracemalloc.start()
    try:
        (trace,) = jc_witness_traces([cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.fock_dim == 1280 and trace.m11.shape == (50,)
    assert peak < 8 * 2**20, f"the trace peaked at {peak / 2**20:.1f} MiB"
