"""A generator computes its eigendecomposition once; whatever evolves under it shares it."""

import numpy as np
import pytest

from entwitness import linalg
from entwitness import operators as ops
from entwitness.models.jaynes_cummings import JCConfig, jc_witness_trace
from entwitness.spaces import (
    DensityMatrix,
    LabeledOperator,
    basis_state,
    boson,
    evolve,
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
    u = h._block_spectrum().function_of(lambda w: np.exp(-0.4j * w))
    again = h._block_spectrum().function_of(lambda w: np.exp(-0.4j * w))
    state = evolve(h, 0.4, basis_state(sig, {"a": 1}))
    rho = evolve(h, 0.4, DensityMatrix(sig, np.diag([0.5, 0.5, 0.0])))
    assert len(eig_calls) == 1
    assert np.array_equal(u, again)
    np.testing.assert_allclose(state.amplitudes, u[:, 1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rho.matrix, u[:, :2] @ u[:, :2].conj().T / 2, rtol=0, atol=1e-15)


def test_non_hermitian_generator_still_raises_every_time():
    sig = signature(boson("a", 2))
    h = LabeledOperator(sig, np.array([[0.0, 1.0], [0.0, 0.0]]))
    for _ in range(2):
        with pytest.raises(linalg.NonHermitianError):
            evolve(h, 0.4, basis_state(sig, {"a": 0}))


@pytest.fixture
def fresh_gaussian_spectra():
    ops._unit_spectrum.cache_clear()
    yield
    ops._unit_spectrum.cache_clear()


def test_gaussian_factories_make_one_eigendecomposition_per_kind_and_dim(
    eig_calls, fresh_gaussian_spectra
):
    # the squeeze generator moves the level by 2: its two parity blocks in one batched eigensolve
    for r, phi in zip((0.1, 0.3, 0.5, 0.7, 0.9), (0.0, 1.0, -2.0, 3.0, 5.5)):
        ops.squeeze(r * np.exp(1j * phi), 64)
    assert eig_calls == [(2, 32, 32)]
    ops.squeeze(0.4, 48)
    ops.squeezed_vacuum(0.2, 48)
    ops.squeezed_single_photon(0.2, 48)
    assert eig_calls == [(2, 32, 32), (2, 24, 24)]
    # displacement and the pair ladder move it by 1: one sector, the whole space
    ops.displacement(0.4 - 0.2j, 64)
    ops.two_mode_squeezed(0.4, 64, phase=1.0)
    ops.gaussian_unitary(ops.GaussianParams(0.3j, 0.5, 0.2), 48)
    ops.coherent(0.3j, 48)
    assert eig_calls == [(2, 32, 32), (2, 24, 24), (1, 64, 64), (1, 64, 64), (1, 48, 48)]


def test_tampered_gaussian_generator_fails_the_hermiticity_check(
    monkeypatch, fresh_gaussian_spectra
):
    real = ops._unit_generator

    def tampered(kind, dim):
        k = real(kind, dim).copy()
        k[0, 1] += 0.5
        return k

    monkeypatch.setattr(ops, "_unit_generator", tampered)
    for _ in range(2):
        with pytest.raises(linalg.NonHermitianError):
            ops.squeeze(0.3, 8)


def test_cached_gaussian_spectra_are_read_only(fresh_gaussian_spectra):
    u = ops.squeeze(0.3, 24)
    ops.displacement(0.3, 24)
    for kind in ("squeeze", "displacement"):
        spectrum = ops._unit_spectrum(kind, 24)
        cached = [*spectrum.sectors, *(i for pair in spectrum.pairs for i in pair)]
        cached += [a for ed in spectrum.spectra for a in (ed.eigenvalues, ed.eigenvectors)]
        assert len(cached) == 5
        for array in cached:
            with pytest.raises(ValueError):
                array[0] = 0
    # the unitary itself belongs to the caller
    u[0, 0] = 5.0
    assert ops.squeeze(0.3, 24)[0, 0] != 5.0
