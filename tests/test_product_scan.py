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
    "tol, recorded",
    [
        (1e-3, 6.18017578125000022e-01),
        (1e-4, 6.18060302734374956e-01),
        (1e-5, 6.18036270141601562e-01),
    ],
)
def test_pair_threshold_is_unchanged(tol, recorded):
    def entangled(s):
        return reference_scan(families.psi01_bilinear_x(s)).value > witnesses.POSITIVITY_EPS

    s_star = families.psi01_x_threshold(tol=tol).scanned
    assert s_star == recorded
    assert s_star == threshold_scan(entangled, 0.2, 0.9, tol)


def _stops_with_the_full_verdict(x: WitnessMatrix):
    eps = witnesses.POSITIVITY_EPS
    full = product_vector_scan(x)
    stopped = product_vector_scan(x, stop_above=eps)
    assert (stopped.value > eps) == (full.value > eps)
    assert stopped.value <= full.value
    if full.value <= eps:
        _assert_bit_identical(stopped, full)
    vec = np.kron(stopped.u, stopped.v)
    assert abs(np.vdot(vec, x.matrix @ vec).real - stopped.value) <= 1e-12


def test_a_stopped_scan_keeps_the_verdict_on_the_pair_family():
    for s in np.linspace(0.2, 0.9, 36):
        _stops_with_the_full_verdict(families.psi01_bilinear_x(s))


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(["complex", "real", "low-rank"]),
)
def test_a_stopped_scan_keeps_the_verdict_on_random_forms(seed, na, kind):
    _stops_with_the_full_verdict(_form(seed, na, kind))


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


def seesaw_one_seed_at_a_time(x: WitnessMatrix, grid: int = 12) -> ProductScanResult:
    """The see-saw as one loop per seed: the oracle of the batched scan.

    Same mesh, same seeds and same stop rule as ``product_vector_scan``, but
    every half-step is an ``eigh`` of one seed's 2-D X_v or X_u.
    """
    na, nb = x.dims
    t4 = x.matrix.reshape(na, nb, na, nb)
    ts = np.linspace(0.0, np.pi / 2, grid)[1:-1, None]
    phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, grid, endpoint=False))
    ring = np.stack(np.broadcast_arrays(np.cos(ts), phases * np.sin(ts)), axis=-1)
    vs = np.concatenate([[[1.0, 0.0], [0.0, 1.0]], ring.reshape(-1, 2)])
    lams = np.linalg.eigvalsh(np.einsum("jkml,pk,pl->pjm", t4, vs.conj(), vs))[:, -1]
    rows = lams[2:].reshape(-1, grid)
    padded = np.vstack([np.full(grid, lams[0]), rows, np.full(grid, lams[1])])
    top_near = np.max([padded[:-2], padded[2:], np.roll(rows, 1, 1), np.roll(rows, -1, 1)], axis=0)
    poles = [lams[0] >= rows[:1].max(initial=-np.inf), lams[1] >= rows[-1:].max(initial=-np.inf)]
    peaks = np.concatenate([poles, (rows >= top_near).ravel()])
    order = np.argsort(-lams, kind="stable")
    n_seeds = witnesses.SEESAW_SEEDS
    seeds = dict.fromkeys([*order[:n_seeds], *order[peaks[order]][:n_seeds]])
    results = []
    for v in vs[list(seeds)]:
        res = None
        for _ in range(witnesses.SEESAW_MAX_STEPS):
            w, vecs = np.linalg.eigh(np.einsum("jkml,k,l->jm", t4, v.conj(), v))
            if res is not None and w[-1] <= res.value + witnesses.SEESAW_RTOL * abs(res.value):
                break
            res = ProductScanResult(float(w[-1]), vecs[:, -1], v)
            v = np.linalg.eigh(np.einsum("jkml,j,m->kl", t4, res.u.conj(), res.u))[1][:, -1]
        results.append(res)
    return max(results, key=lambda res: res.value)


def _assert_bit_identical(got: ProductScanResult, want: ProductScanResult):
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for name in ("u", "v"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes(), name


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(["complex", "real", "low-rank"]),
)
def test_batched_seesaw_equals_the_per_seed_loop(seed, na, kind):
    x = _form(seed, na, kind)
    _assert_bit_identical(product_vector_scan(x), seesaw_one_seed_at_a_time(x))


@pytest.mark.parametrize(
    "seed, na, kind", [(538, 4, "complex"), (696, 2, "complex"), (72, 2, "real"), (163, 4, "real")]
)
def test_batched_seesaw_equals_the_per_seed_loop_on_the_basin_cases(seed, na, kind):
    x = _form(seed, na, kind)
    _assert_bit_identical(product_vector_scan(x), seesaw_one_seed_at_a_time(x))


def test_batched_seesaw_equals_the_per_seed_loop_on_the_pair_family():
    for s in np.linspace(0.2, 0.9, 36):
        x = families.psi01_bilinear_x(s)
        _assert_bit_identical(product_vector_scan(x), seesaw_one_seed_at_a_time(x))


def test_writing_into_a_result_leaves_the_next_scan_unchanged():
    # the top of this form sits on the pole v = (1, 0), a cell of the seed mesh,
    # so the best seed stops at its first check and returns its seed vector
    x = WitnessMatrix(np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex), ("F1", "F2"), ("G1", "G2"))
    first = product_vector_scan(x)
    assert first.v.tolist() == [1.0, 0.0]
    want = ProductScanResult(first.value, first.u.copy(), first.v.copy())
    first.u[:] = 7.0
    first.v[:] = 7.0
    _assert_bit_identical(product_vector_scan(x), want)
    _assert_bit_identical(product_vector_scan(x), seesaw_one_seed_at_a_time(x))


def test_the_pair_threshold_builds_its_state_and_annihilators_once(monkeypatch):
    calls = {"annihilator_band": 0, "basis_state": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        families.ops, "annihilator_band", counted("annihilator_band", families.ops.annihilator_band)
    )
    monkeypatch.setattr(families, "basis_state", counted("basis_state", families.basis_state))
    assert families.psi01_x_threshold(tol=1e-3).scanned == 6.18017578125000022e-01
    assert calls == {"annihilator_band": 2, "basis_state": 2}
