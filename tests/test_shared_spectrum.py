"""A generator computes its eigendecomposition once; whatever evolves under it shares it."""

import numpy as np
import pytest

from entwitness import linalg
from entwitness.models.jaynes_cummings import JCConfig, jc_witness_trace
from entwitness.spaces import (
    LabeledOperator,
    basis_state,
    boson,
    evolve,
    propagator_family,
    signature,
)


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    real = linalg.herm_eig

    def counting(h, *args, **kwargs):
        calls.append(h.shape)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "herm_eig", counting)
    return calls


def test_jc_trace_makes_one_eigendecomposition(eig_calls):
    trace = jc_witness_trace(JCConfig(nbar=0.01, kt_grid=(0.0, 0.7, 1.9), fock_dim=20))
    assert trace.fock_dim == 20
    assert len(eig_calls) == 1


def test_propagators_and_evolve_share_the_spectrum(eig_calls):
    sig = signature(boson("a", 3))
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = LabeledOperator(sig, m + m.conj().T)
    u = propagator_family(h)(0.4)
    again = propagator_family(h)(0.4)
    state = evolve(h, 0.4, basis_state(sig, {"a": 1}))
    assert len(eig_calls) == 1
    assert np.array_equal(u.matrix, again.matrix)
    np.testing.assert_allclose(state.amplitudes, u.matrix[:, 1], rtol=0, atol=1e-15)


def test_non_hermitian_generator_still_raises_every_time():
    sig = signature(boson("a", 2))
    h = LabeledOperator(sig, np.array([[0.0, 1.0], [0.0, 0.0]]))
    for _ in range(2):
        with pytest.raises(linalg.NonHermitianError):
            propagator_family(h)
