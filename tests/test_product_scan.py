"""The see-saw product-vector scan against the dense grid + Nelder-Mead reference.

``reference_scan`` is the scan the see-saw replaced: lambda_max(X_v) on a
dense grid x grid mesh of v = (cos t, e^{i phi} sin t), then a Nelder-Mead
polish of the best cell.  It stays here as the oracle; the package itself no
longer imports ``scipy.optimize``.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import entwitness
from entwitness import families, witnesses
from entwitness.search import threshold_scan
from entwitness.witnesses import ProductScanResult, WitnessMatrix, product_vector_scan

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def reference_scan(x: WitnessMatrix, grid: int = 120) -> ProductScanResult:
    na, nb = x.dims
    t4 = x.matrix.reshape(na, nb, na, nb)
    ts = np.linspace(0.0, np.pi / 2, grid)
    phis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    tt, pp = np.meshgrid(ts, phis, indexing="ij")
    vs = np.stack([np.cos(tt), np.exp(1j * pp) * np.sin(tt)], axis=-1).reshape(-1, 2)
    lams = np.linalg.eigvalsh(np.einsum("jkml,pk,pl->pjm", t4, vs.conj(), vs))[..., -1]
    best = int(np.argmax(lams))

    def neg_best(params):
        t, phi = params
        v = np.array([np.cos(t), np.exp(1j * phi) * np.sin(t)])
        return -float(np.linalg.eigvalsh(np.einsum("jkml,k,l->jm", t4, v.conj(), v))[-1])

    x0 = np.array([tt.ravel()[best], pp.ravel()[best]])
    res = scipy.optimize.minimize(
        neg_best, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14}
    )
    t_opt, phi_opt = res.x if -res.fun >= lams[best] else x0
    v = np.array([np.cos(t_opt), np.exp(1j * phi_opt) * np.sin(t_opt)])
    w, vecs = np.linalg.eigh(np.einsum("jkml,k,l->jm", t4, v.conj(), v))
    return ProductScanResult(float(w[-1]), vecs[:, -1], v)


def _form(seed: int, na: int, kind: str) -> WitnessMatrix:
    """A random Hermitian form on C^na (x) C^2: complex, real, or low-rank minus a shift."""
    rng = np.random.default_rng(seed)
    d = 2 * na
    if kind == "complex":
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    elif kind == "real":
        m = rng.normal(size=(d, d)).astype(complex)
    else:
        g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        m = g @ g.conj().T - 2 * rng.random() * np.eye(d)
    return WitnessMatrix((m + m.conj().T) / 2, tuple(f"F{j}" for j in range(na)), ("G1", "G2"))


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(["complex", "real", "low-rank"]),
)
def test_seesaw_reaches_the_dense_scan(seed, na, kind):
    x = _form(seed, na, kind)
    res = product_vector_scan(x)
    assert res.value >= reference_scan(x).value - 1e-10
    assert res.value <= np.linalg.eigvalsh(x.matrix)[-1] + 1e-12
    assert np.linalg.norm(res.u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(res.v) == pytest.approx(1.0, abs=1e-12)
    vec = np.kron(res.u, res.v)
    assert abs(np.vdot(vec, x.matrix @ vec).real - res.value) <= 1e-12


# Forms on which one half of the seeding alone stops short of the maximum.
# Complex: the 3 best cells all lie in one basin, and the best cell of the
# other basin ranks below them.  Real: the best peak cells are real, and from
# a real v the see-saw stays on real vectors, where it reaches only a saddle.
@pytest.mark.parametrize(
    "seed, na, kind", [(538, 4, "complex"), (696, 2, "complex"), (72, 2, "real"), (163, 4, "real")]
)
def test_seesaw_seeds_reach_every_basin(seed, na, kind):
    x = _form(seed, na, kind)
    assert product_vector_scan(x).value >= reference_scan(x).value - 1e-10


def test_seesaw_matches_the_reference_on_the_pair_family():
    for s in np.linspace(0.2, 0.9, 36):
        x = families.psi01_bilinear_x(s)
        assert product_vector_scan(x).value == reference_scan(x).value


@pytest.mark.parametrize(
    "tol, recorded", [(1e-3, 6.18017578125000022e-01), (1e-4, 6.18060302734374956e-01)]
)
def test_pair_threshold_is_unchanged(tol, recorded):
    def entangled(s):
        return reference_scan(families.psi01_bilinear_x(s)).value > witnesses.POSITIVITY_EPS

    s_star = families.psi01_x_threshold(tol=tol).scanned
    assert s_star == recorded
    assert s_star == threshold_scan(entangled, 0.2, 0.9, tol)


def test_product_scan_still_needs_a_two_dim_side_b():
    x = WitnessMatrix(np.eye(6, dtype=complex), ("F1", "F2"), ("G1", "G2", "G3"))
    with pytest.raises(ValueError, match="2-dim side-b"):
        product_vector_scan(x)


def test_package_import_leaves_scipy_optimize_out():
    code = "import sys, entwitness, entwitness.cli; print('scipy.optimize' in sys.modules)"
    src = str(pathlib.Path(entwitness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
