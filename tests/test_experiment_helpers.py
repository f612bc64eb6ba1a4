"""The worked-example helpers of `families` that the runners and demos share.

`two-mode-invariant` and `lur` take their states, probes and reports from
`families.squeezed_pair_witnesses`, `families.tmsv_lur` and
`families.atom_field_lur`.  The runner bodies that built them inline are
kept here verbatim as `reference_two_mode_invariant` and `reference_lur`:
the CSV of the runners' columns must stay byte-identical to that of their
rows (read as columns by `conftest.columns_of`), and a run that fails must
fail the same way.  The three noisy-state builders share one
flat-noise helper; the parent formulas are kept as references and the
density matrices must match exactly.
"""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import cli, families, operators as ops, witnesses
from entwitness.spaces import (
    DensityMatrix,
    LeakageError,
    StateVector,
    boson,
    embed,
    signature,
)

from conftest import columns_of

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def reference_two_mode_invariant(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    dim_a = 128 if common.fock_dim is None else common.fock_dim
    rows = []
    for r in p["r_values"]:
        if r < 0:
            raise cli.ConfigError("squeeze magnitudes must be nonnegative")
        st = families.squeezed_psi01(r, dim_a=dim_a, dim_b=4)
        sig = st.signature
        a = embed(ops.annihilator(dim_a), "a", sig, "a")
        b = embed(ops.annihilator(4), "b", sig, "b")
        basis = families.centered_quadrature_basis(st, "a")
        m = witnesses.witness_matrix_expand_a(st, [basis[1], basis[0]], b)
        rep = witnesses.cond1(st, a, b)
        rows.append(
            {
                "r": r,
                "tanh_r": math.tanh(r),
                "lambda_max": m.max_eigenvalue(),
                "matrix_entangled": m.has_positive_eigenvalue(),
                "cond1_margin": rep.margin,
                "cond1_entangled": rep.entangled,
            }
        )
    rows.sort(key=lambda row: row["r"])
    return rows, {"dim_a": dim_a, "plain_flip_at_tanh": 1 / math.sqrt(2)}


def reference_lur(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    mode = p["mode"]
    rows = []
    if mode == "tmsv":
        dim = 48 if common.fock_dim is None else common.fock_dim
        sig = signature(boson("a", dim), boson("b", dim))
        a = embed(ops.annihilator(dim), "a", sig, "a")
        b = embed(ops.annihilator(dim), "b", sig, "b")
        for r in p["r_values"]:
            plus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=0.0))
            minus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=math.pi))
            rep_plus = witnesses.lur_value(plus, [(a, b.dag())], 1.0)
            rep_minus = witnesses.lur_value(minus, [(a, b.dag())], 1.0)
            rows.append(
                {
                    "r": r,
                    "value_plus_phase": rep_plus.rhs,
                    "value_pi_phase": rep_minus.rhs,
                    "exp_minus_2r": math.exp(-2 * r),
                    "bound": 1.0,
                    "violated_pi_phase": rep_minus.entangled,
                }
            )
        diag = {"correlating_branch": "pi", "dim": dim}
    elif mode == "atom-field":
        sig = families.atom_field_signature(4)
        a_dag = embed(ops.annihilator(4), "field", sig, "a").dag()
        jp = embed(ops.collective_spin(1)["plus"], "atom", sig, "J+")
        for theta in np.linspace(-math.pi / 4, math.pi / 4, int(p["points"])):
            for phi in (0.0, math.pi):
                state = families.atom_field_superposition(theta, phi, sig)
                rep = witnesses.lur_value(state, [(a_dag, jp)], 1.0)
                rows.append(
                    {
                        "theta": float(theta),
                        "phi": phi,
                        "value": rep.rhs,
                        "bound": 1.0,
                        "violated": rep.entangled,
                    }
                )
        diag = {"note": "violation interval sits at theta in (0, pi/4) only on the pi branch"}
    else:
        raise cli.ConfigError(f"unknown mode '{mode}' (tmsv, atom-field)")
    return rows, diag


def _common(fock_dim=None) -> argparse.Namespace:
    return argparse.Namespace(fock_dim=fock_dim, tolerance=None)


def _outcome(runner, p: dict, common):
    """CSV and diagnostics of a run, or the type and text of its failure."""
    try:
        table, diag = runner(p, 0, common)
    except (cli.ConfigError, LeakageError) as err:
        return type(err), str(err)
    if isinstance(table, list):  # the rows of a reference runner
        table = columns_of(table)
    return cli._columns_to_csv(table), diag


r_sets = st.lists(
    st.floats(min_value=0.0, max_value=1.6, allow_nan=False), min_size=1, max_size=4
)


@SETTINGS
@given(r_values=r_sets, fock_dim=st.integers(min_value=16, max_value=96))
def test_two_mode_invariant_matches_inline_runner(r_values, fock_dim):
    p = {"r_values": tuple(r_values)}
    common = _common(fock_dim)
    assert _outcome(cli._run_two_mode_invariant, p, common) == _outcome(
        reference_two_mode_invariant, p, common
    )


@SETTINGS
@given(r_values=r_sets, fock_dim=st.integers(min_value=16, max_value=96))
def test_lur_tmsv_matches_inline_runner(r_values, fock_dim):
    p = {"mode": "tmsv", "r_values": tuple(r_values), "points": 41}
    common = _common(fock_dim)
    assert _outcome(cli._run_lur, p, common) == _outcome(reference_lur, p, common)


@pytest.mark.parametrize("fock_dim", [None, 56])
def test_default_runs_match_inline_runners(fock_dim):
    common = _common(fock_dim)
    p = {"r_values": (0.2, 0.6, 0.9, 1.1)}
    assert _outcome(cli._run_two_mode_invariant, p, common) == _outcome(
        reference_two_mode_invariant, p, common
    )
    p = {"mode": "tmsv", "r_values": (0.1, 0.3, 0.5), "points": 41}
    assert _outcome(cli._run_lur, p, common) == _outcome(reference_lur, p, common)


def test_negative_squeeze_still_rejected():
    p = {"r_values": (0.3, -0.1)}
    out = _outcome(cli._run_two_mode_invariant, p, _common(16))
    assert out == _outcome(reference_two_mode_invariant, p, _common(16))
    assert out[0] is cli.ConfigError


@pytest.mark.parametrize("points", [1, 2, 9, 40, 41, 200])
def test_lur_atom_field_matches_inline_runner(points):
    p = {"mode": "atom-field", "r_values": (0.1,), "points": points}
    columns, diag = cli._run_lur(p, 0, _common())
    ref_rows, _ = reference_lur(p, 0, _common())
    assert cli._columns_to_csv(columns) == cli._columns_to_csv(columns_of(ref_rows))
    # the note names the mirrored intervals the rows show
    assert "(-pi/4, 0) at phi = 0" in diag["note"] and "(0, pi/4) at phi = pi" in diag["note"]
    for theta, phi, violated in zip(columns["theta"], columns["phi"], columns["violated"]):
        interior = abs(theta) < math.pi / 4 - 1e-9 and theta != 0.0
        mirrored = (theta < 0) == (phi == 0.0)
        assert violated == (interior and mirrored)


def test_unknown_lur_mode_rejected():
    p = {"mode": "bogus", "r_values": (0.1,), "points": 3}
    assert _outcome(cli._run_lur, p, _common()) == _outcome(reference_lur, p, _common())


def test_helpers_build_probes_once_per_call(monkeypatch):
    calls = []
    real = families.embed

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "embed", counting)
    families.tmsv_lur((0.1, 0.2, 0.3, 0.4), 16)
    assert calls == ["a", "b"]
    calls.clear()
    out = families.atom_field_lur(np.linspace(-0.5, 0.5, 7), (0.0, math.pi))
    assert calls == ["field", "atom"]
    assert [(t, phi) for t, phi, _ in out] == [
        (t, phi) for t in np.linspace(-0.5, 0.5, 7) for phi in (0.0, math.pi)
    ]


# ---------------------------------------------------------------------------
# noisy-state builders against the formulas they replaced
# ---------------------------------------------------------------------------


def reference_noisy_bell(s, c1, sig=None):
    sig = sig or families.bell_signature()
    psi = families.bell_pair(c1, sig)
    p_a = np.zeros(sig.dims[0])
    p_a[:2] = 1.0
    p_b = np.zeros(sig.dims[1])
    p_b[:2] = 1.0
    noise = np.kron(np.diag(p_a), np.diag(p_b)).astype(complex)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - s) / 4 * noise
    return DensityMatrix(sig, rho)


def reference_noisy_correlated_subspace(s, v1, v2):
    sig = families.subspace_signature()
    psi = families.correlated_subspace_state(v1, v2)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho = rho + (1 - s) / 8 * np.eye(8, dtype=complex)
    return DensityMatrix(sig, rho)


def reference_noisy_psi01(s, dim=4):
    sig = families.psi01_signature(dim)
    psi = families.psi01_state(sig)
    p01 = np.zeros(dim)
    p01[:2] = 1.0
    noise = np.kron(np.diag(p01), np.diag(p01)).astype(complex)
    rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - s) / 4 * noise
    return DensityMatrix(sig, rho)


S_GRID = [*np.linspace(0.0, 1.0, 101), 1e-300, 0.1 + 0.2, 1 / 3, 0.474, 1 - 1e-16]


def _same(new: DensityMatrix, ref: DensityMatrix) -> bool:
    return new.signature == ref.signature and np.array_equal(new.matrix, ref.matrix)


def test_noisy_bell_bit_identical():
    for sig in (None, families.bell_signature((3, 5))):
        for c1 in (1 / math.sqrt(2), 0.3, 0.95):
            for s in S_GRID:
                assert _same(families.noisy_bell(s, c1, sig), reference_noisy_bell(s, c1, sig))


def test_noisy_correlated_subspace_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(3):
        v1, v2 = families.random_block_vectors(rng)
        for s in S_GRID:
            assert _same(
                families.noisy_correlated_subspace(s, v1, v2),
                reference_noisy_correlated_subspace(s, v1, v2),
            )


def test_noisy_psi01_bit_identical():
    for dim in (2, 4, 7):
        for s in S_GRID:
            assert _same(families.noisy_psi01(s, dim), reference_noisy_psi01(s, dim))


def test_noisy_builders_keep_the_sign_of_every_zero():
    # array_equal counts -0.0 == +0.0; the bytes tell them apart
    rng = np.random.default_rng(7)
    blocks = [families.random_block_vectors(rng) for _ in range(3)]
    for s in S_GRID:
        pairs = [(families.noisy_psi01(s, dim), reference_noisy_psi01(s, dim)) for dim in (2, 4, 7)]
        pairs += [(families.noisy_bell(s, 0.3), reference_noisy_bell(s, 0.3))]
        pairs += [
            (families.noisy_correlated_subspace(s, v1, v2), reference_noisy_correlated_subspace(s, v1, v2))
            for v1, v2 in blocks
        ]
        for new, ref in pairs:
            assert new.matrix.tobytes() == ref.matrix.tobytes()


@pytest.mark.parametrize("s", [-1e-12, -0.5, 1 + 1e-12, 2.0, math.nan, -math.inf])
def test_mixing_weight_outside_unit_interval_raises(s):
    v1, v2 = families.random_block_vectors(np.random.default_rng(0))
    for build in (
        lambda: families.noisy_bell(s, 0.6),
        lambda: families.noisy_correlated_subspace(s, v1, v2),
        lambda: families.noisy_psi01(s),
    ):
        with pytest.raises(ValueError, match="outside"):
            build()


def test_random_separable_matches_product_loop():
    """The demo's separable draw, once a loop over products, is the shared draw."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = np.zeros((9, 9), dtype=complex)
        weights = rng.random(rng.integers(1, 17))
        weights /= weights.sum()
        for w in weights:
            va = rng.normal(size=3) + 1j * rng.normal(size=3)
            vb = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
            rho += w * np.outer(v, v.conj())
        assert np.array_equal(families.random_separable(np.random.default_rng(seed), 3, 3, 16), rho)


def test_two_mode_invariant_builds_its_annihilator_once(monkeypatch, tmp_path):
    dims = []
    real = ops.annihilator_band

    def counted(dim):
        dims.append(dim)
        return real(dim)

    argv = ["two-mode-invariant", "--fock-dim", "64", "--r-values", "0.1,0.2,0.3,0.4,0.5"]
    argv += ["--output", str(tmp_path / "inv.csv")]
    # a first run fills the cached squeeze spectrum, whose generator reads the annihilator too
    assert cli.main(argv) == 0
    monkeypatch.setattr(ops, "annihilator_band", counted)
    assert cli.main(argv) == 0
    assert dims.count(64) == 1
