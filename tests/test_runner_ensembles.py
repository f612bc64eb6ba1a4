"""The ensembles and states the CLI runners take from `families`.

`ppt-crosscheck` draws its trials from `families.ppt_trials` and evaluates
them in stacks with `witnesses.ppt_crosscheck_batch`.  The per-trial loop
the runner used before is kept here verbatim as `reference_rows`: the
batched runner's columns must give the CSV of its rows (read as columns by
`conftest.columns_of`) byte for byte, each batch entry must equal
`witnesses.ppt_crosscheck` on its own state bit for bit, and the blocks
must keep the peak memory of a bench-size run near that of the loop.  The
blocks normalise their kets all at once, which keeps the loop's bits only
while `np.vecdot` sums a row as `np.linalg.norm` does; that is pinned here
too, as are the seed states hashed for many trials at once (equal to
`np.random.SeedSequence((seed, k))`, so each stream is that of
`default_rng((seed, k))`) and the columns of the batch, whose floats must
keep the bits of Python's `abs(z) ** 2` and `max(1.0, abs(rhs))`.
`lur --mode atom-field` takes its state from
`families.atom_field_superposition`, checked against the inline
construction it replaced.
"""

import csv
import dataclasses
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import cli, families, linalg, witnesses
from entwitness.spaces import (
    DensityMatrix,
    StateVector,
    basis_state,
    boson,
    embed,
    signature,
)

from conftest import columns_of

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
BENCH_DIMS = ("2x4", "3x3", "4x4", "3x5")


def reference_rows(p: dict, seed: int, common=None) -> tuple[list[dict], dict]:
    """The ppt-crosscheck runner as a loop over trials, one state at a time."""
    trials = int(p["trials"])
    dim_pairs = []
    for ds in p["dims"]:
        try:
            da, db = (int(x) for x in ds.split("x"))
        except ValueError as err:
            raise cli.ConfigError(f"bad dims entry '{ds}', expected like 2x4") from err
        if da < 2 or db < 2:
            raise cli.ConfigError("local dimensions must be at least 2")
        dim_pairs.append((da, db))
    rows = []
    violations = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        da, db = dim_pairs[trial % len(dim_pairs)]
        sig = signature(boson("a", da), boson("b", db))
        kind = "pure" if trial % 2 == 0 else "separable"
        if kind == "pure":
            amps = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
            state = StateVector(sig, amps / np.linalg.norm(amps))
        else:
            n_prod = int(rng.integers(1, int(p["products"]) + 1))
            weights = rng.random(n_prod)
            weights /= weights.sum()
            rho = np.zeros((da * db, da * db), dtype=complex)
            for w in weights:
                va = rng.normal(size=da) + 1j * rng.normal(size=da)
                vb = rng.normal(size=db) + 1j * rng.normal(size=db)
                v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
                rho += w * np.outer(v, v.conj())
            state = DensityMatrix(sig, rho)
        ga = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        gb = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        chk = witnesses.ppt_crosscheck(state, embed(ga, "a", sig), embed(gb, "b", sig))
        if not chk.consistent or (kind == "separable" and chk.flagged):
            violations += 1
        rows.append(
            {
                "trial": trial,
                "kind": kind,
                "dim_a": da,
                "dim_b": db,
                "cond1_margin": chk.cond1.margin,
                "cond2_margin": chk.cond2.margin,
                "ppt_min_eig": chk.min_eigenvalue,
                "flagged": chk.flagged,
                "consistent": chk.consistent,
            }
        )
    return rows, {"violations": violations, "trials": trials}


def _params(trials, dims=("2x4", "3x3"), products=16):
    return {"trials": trials, "dims": tuple(dims), "products": products}


def _assert_same_csv(p, seed):
    columns, diag = cli._run_ppt_crosscheck(p, seed, None)
    ref_rows, ref_diag = reference_rows(p, seed)
    assert cli._columns_to_csv(columns) == cli._columns_to_csv(columns_of(ref_rows))
    assert {k: diag[k] for k in ref_diag} == ref_diag
    return columns, diag


@pytest.mark.parametrize("seed", [0, 1, 3, 11])
@pytest.mark.parametrize("dims", [("2x4", "3x3"), BENCH_DIMS, ("2x4", "4x2", "3x5", "2x2")])
def test_batched_runner_matches_the_per_trial_loop(seed, dims):
    _assert_same_csv(_params(120, dims), seed)


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_fewer_trials_than_dims(trials):
    columns, _ = _assert_same_csv(_params(trials, ("2x4", "4x2", "3x5", "2x2")), 4)
    assert columns["trial"].tolist() == list(range(trials))


def test_trials_not_a_multiple_of_the_block():
    d = 16
    block = families.PPT_BLOCK_BYTES // (16 * d * d)
    trials = 4 * block + 3
    # each kind gets about half the trials: neither count is a multiple of the block
    assert (trials + 1) // 2 % block and trials // 2 % block
    _assert_same_csv(_params(trials, ("4x4",)), 2)


def test_products_one():
    _assert_same_csv(_params(60, ("2x4", "3x3", "2x2"), products=1), 5)


def test_blocks_cover_every_trial_once_in_ascending_order():
    blocks = list(families.ppt_trials(7, 101, [(2, 4), (3, 3), (4, 4)], 16))
    seen = []
    for blk in blocks:
        d = blk.dims[0] * blk.dims[1]
        assert 1 <= len(blk.trials) <= max(1, families.PPT_BLOCK_BYTES // (16 * d * d))
        assert blk.trials == sorted(blk.trials)
        assert {t % 2 for t in blk.trials} == {0 if blk.kind == "pure" else 1}
        assert blk.states.shape[1:] == ((d,) if blk.kind == "pure" else (d, d))
        seen += blk.trials
    assert sorted(seen) == list(range(101))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.tuples(st.integers(2, 6), st.integers(2, 6)), min_size=1, max_size=4),
    products=st.integers(1, 16),
    trials=st.integers(1, 40),
)
def test_runner_equals_the_per_trial_loop_on_random_configs(seed, dims, products, trials):
    _assert_same_csv(_params(trials, [f"{da}x{db}" for da, db in dims], products), seed)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    seed=st.one_of(st.integers(0, 2**64), st.sampled_from([0, 2**31, 2**32 - 1, 2**32, 2**64])),
    trials=st.lists(
        st.one_of(st.integers(0, 5000), st.integers(0, 2**64 - 1)), min_size=1, max_size=12
    ),
)
def test_seed_states_equal_seed_sequence_and_streams_equal_default_rng(seed, trials):
    states = families._trial_seed_states(seed, trials)
    for k, state, rng in zip(trials, states, families._trial_streams(seed, trials)):
        want = np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)
        assert state.tobytes() == want.tobytes()
        ref = np.random.default_rng((seed, k))
        assert rng.normal() == ref.normal()
        assert rng.integers(1, 17) == ref.integers(1, 17)
        assert rng.random() == ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_streams_cross_the_hash_chunks_in_order(monkeypatch):
    monkeypatch.setattr(families, "PPT_SEED_CHUNK", 7)
    trials = list(range(3, 60, 2)) + [2**32 + 1, 2**40]
    for k, rng in zip(trials, families._trial_streams(11, trials), strict=True):
        assert rng.bit_generator.state == np.random.default_rng((11, k)).bit_generator.state


def test_the_package_import_leaves_numpy_random_unloaded():
    """The trial streams' seed type is built on first use, not at import."""
    src = str(pathlib.Path(families.__file__).resolve().parents[1])
    code = "import sys, entwitness, entwitness.cli, entwitness.models; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_a_negative_seed_exits_2(capsys):
    assert cli.main(["ppt-crosscheck", "--trials", "3", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2, 1e5])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_block_normalisation_equals_linalg_norm_bit_for_bit(kind, scale):
    """ppt_trials normalises a block of rows at once; each row must keep its per-row bits.

    Real rows reach ``ddot`` with unit stride; complex rows through the
    strided ``.real`` and ``.imag`` views.
    """
    rng = np.random.default_rng(int(scale * 1000) + len(kind))
    for length in range(1, 65):
        x = scale * rng.normal(size=(8, length))
        if kind == "complex":
            x = x + 1j * scale * rng.normal(size=(8, length))
        got = families._unit_rows(x)
        want = np.array([row / np.linalg.norm(row) for row in x])
        assert got.tobytes() == want.tobytes(), length


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_same_report(got: witnesses.ReportColumns, i: int, want: witnesses.WitnessReport):
    for field in ("lhs", "rhs", "margin", "tolerance"):
        assert _bits(getattr(got, field)[i]) == _bits(getattr(want, field)), field
    assert got.entangled[i] == want.entangled


def _schmidt_hops(psi, da, db):
    """Probes hopping between the first two Schmidt vectors of psi, which fire on it."""
    _, left, right = linalg.schmidt(psi, (da, db))
    return np.outer(left[:, 1], left[:, 0].conj()), np.outer(right[:, 0], right[:, 1].conj())


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    da=st.integers(2, 4),
    db=st.integers(2, 4),
    n=st.integers(1, 6),
    kind=st.sampled_from(["pure", "mixed", "pure-hops"]),
)
def test_batch_entries_equal_the_per_state_crosscheck_bit_for_bit(seed, da, db, n, kind):
    rng = np.random.default_rng(seed)
    d = da * db
    ga = rng.normal(size=(n, da, da)) + 1j * rng.normal(size=(n, da, da))
    gb = rng.normal(size=(n, db, db)) + 1j * rng.normal(size=(n, db, db))
    if kind == "mixed":
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(n, d, rank)) + 1j * rng.normal(size=(n, d, rank))
        rho = g @ g.conj().swapaxes(1, 2)
        states = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]
    else:
        psi = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        states = psi / np.linalg.norm(psi, axis=1)[:, None]
        if kind == "pure-hops":
            for i in range(n):
                ga[i], gb[i] = _schmidt_hops(states[i], da, db)
    sig = signature(boson("a", da), boson("b", db))
    got = witnesses.ppt_crosscheck_batch(states, ga, gb)
    assert len(got.min_eigenvalue) == n
    for i in range(n):
        state = StateVector(sig, states[i]) if states.ndim == 2 else DensityMatrix(sig, states[i])
        want = witnesses.ppt_crosscheck(state, embed(ga[i], "a", sig), embed(gb[i], "b", sig))
        _assert_same_report(got.cond1, i, want.cond1)
        _assert_same_report(got.cond2, i, want.cond2)
        assert _bits(got.min_eigenvalue[i]) == _bits(want.min_eigenvalue)
        assert (got.flagged[i], got.consistent[i]) == (want.flagged, want.consistent)


def test_schmidt_hops_flag_pure_states_in_a_batch():
    rng = np.random.default_rng(5)
    da, db, n = 3, 3, 8
    psi = rng.normal(size=(n, da * db)) + 1j * rng.normal(size=(n, da * db))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    hops = [_schmidt_hops(v, da, db) for v in psi]
    checks = witnesses.ppt_crosscheck_batch(
        psi, np.array([h[0] for h in hops]), np.array([h[1] for h in hops])
    )
    assert checks.flagged.all() and checks.consistent.all()


def test_a_non_real_moment_in_a_batch_raises_as_the_per_state_call():
    """The first trial in block order raises, naming its first non-real moment.

    Trial 1 is not Hermitian and has B = 0, so only <A^dag A> is not real;
    trial 2 has a non-real <A^dag A B^dag B>, which is checked first within
    a trial but comes later in the stack.
    """
    rng = np.random.default_rng(3)
    da, db, n = 2, 3, 4
    d = da * db
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    rho = g @ g.conj().swapaxes(1, 2)
    states = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]
    states[1:3] += 0.3j * rng.normal(size=(2, d, d))
    ga = rng.normal(size=(n, da, da)) + 1j * rng.normal(size=(n, da, da))
    gb = rng.normal(size=(n, db, db)) + 1j * rng.normal(size=(n, db, db))
    gb[1] = 0.0
    sig = signature(boson("a", da), boson("b", db))
    with pytest.raises(linalg.NonHermitianError) as per_state:
        witnesses.ppt_crosscheck(DensityMatrix(sig, states[1]), embed(ga[1], "a", sig), embed(gb[1], "b", sig))
    with pytest.raises(linalg.NonHermitianError) as batch:
        witnesses.ppt_crosscheck_batch(states, ga, gb)
    assert str(per_state.value).startswith("<A^dag A> should be real")
    assert str(batch.value) == str(per_state.value)
    assert (batch.value.max_asymmetry, batch.value.tolerance) == (
        per_state.value.max_asymmetry,
        per_state.value.tolerance,
    )
    with pytest.raises(linalg.NonHermitianError, match=r"^<A\^dag A B\^dag B> should be real"):
        witnesses.ppt_crosscheck_batch(states[2:], ga[2:], gb[2:])


def _edge_floats(*extra):
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 2.0**-1022, 1.0, -1.0, *extra]),
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(re=st.lists(_edge_floats(), min_size=1, max_size=8), data=st.data())
def test_report_columns_keep_the_bits_of_python_floats(re, data):
    """|z|^2 and the report fields as Python computes them for one report (``_report``).

    A NaN goes into rhs only: Python's ``abs`` of a complex NaN may raise.
    """
    im = data.draw(st.lists(_edge_floats(), min_size=len(re), max_size=len(re)))
    rhs = data.draw(st.lists(_edge_floats(math.nan), min_size=len(re), max_size=len(re)))
    z = np.array(re) + 1j * np.array(im)
    lhs = witnesses._abs_squared(z)
    cols = witnesses._reports(lhs, np.array(rhs))
    for i, (zi, r) in enumerate(zip(z.tolist(), rhs)):
        want = witnesses._report(abs(zi) ** 2, r)
        assert _bits(lhs[i]) == _bits(want.lhs)
        _assert_same_report(cols, i, want)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bench_size_run_stays_near_the_per_trial_peak():
    p = _params(2000, BENCH_DIMS)
    cli._run_ppt_crosscheck(_params(8, BENCH_DIMS), 0, None)  # imports and caches
    reference_rows(_params(8, BENCH_DIMS), 0)
    batched = _peak_bytes(lambda: cli._run_ppt_crosscheck(p, 0, None))
    per_trial = _peak_bytes(lambda: reference_rows(p, 0))
    assert batched <= per_trial + 1_000_000


@pytest.mark.parametrize("seed", [0, 2, 9])
def test_separable_trials_are_never_flagged(seed):
    columns, diag = cli._run_ppt_crosscheck(_params(400, BENCH_DIMS + ("2x2", "5x3")), seed, None)
    separable = columns["kind"] == "separable"
    assert np.count_nonzero(separable) == 200
    assert not columns["flagged"][separable].any()
    assert (columns["ppt_min_eig"][separable] > -1e-8).all()
    assert diag["violations"] == 0


def test_meta_diagnostics_count_flags_and_the_closest_margin(tmp_path):
    out = tmp_path / "ppt.csv"
    argv = ["ppt-crosscheck", "--trials", "90", "--dims", "2x4,3x3,2x2", "--seed", "6"]
    assert cli.main(argv + ["--output", str(out)]) == 0
    diag = json.loads((tmp_path / "ppt.csv.meta.json").read_text())["diagnostics"]
    assert set(diag) == {"violations", "trials", "flagged", "min_abs_margin_over_tol"}
    rows = out.read_text().splitlines()[1:]
    assert diag["trials"] == len(rows) == 90
    assert diag["flagged"] == sum(",true," in row for row in rows)
    closest = math.inf
    for blk in families.ppt_trials(6, 90, [(2, 4), (3, 3), (2, 2)], 16):
        sig = signature(boson("a", blk.dims[0]), boson("b", blk.dims[1]))
        for state, ga, gb in zip(blk.states, blk.ga, blk.gb):
            state = StateVector(sig, state) if blk.kind == "pure" else DensityMatrix(sig, state)
            chk = witnesses.ppt_crosscheck(state, embed(ga, "a", sig), embed(gb, "b", sig))
            for rep in (chk.cond1, chk.cond2):
                closest = min(closest, abs(rep.margin) / rep.tolerance)
    assert diag["min_abs_margin_over_tol"] == closest


def test_violations_count_inconsistent_and_flagged_separable_trials(monkeypatch, tmp_path):
    real = witnesses.ppt_crosscheck_batch

    def forced(states, ga, gb):
        # in each block: flagged with a positive partial transpose (inconsistent),
        # flagged with a negative one (consistent), then left as drawn
        checks = real(states, ga, gb)
        k = 2 * (len(checks.min_eigenvalue) // 3)
        entangled, min_eig = checks.cond1.entangled.copy(), checks.min_eigenvalue.copy()
        entangled[:k] = True
        min_eig[:k] = (-1.0) ** np.arange(k)
        cond1 = dataclasses.replace(checks.cond1, entangled=entangled)
        return dataclasses.replace(checks, cond1=cond1, min_eigenvalue=min_eig)

    monkeypatch.setattr(witnesses, "ppt_crosscheck_batch", forced)
    out = tmp_path / "ppt.csv"
    assert cli.main(["ppt-crosscheck", "--trials", "60", "--dims", "2x2,3x3", "--output", str(out)]) == 0
    diag = json.loads((tmp_path / "ppt.csv.meta.json").read_text())["diagnostics"]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {(r["kind"], r["flagged"], r["consistent"]) for r in rows}
    assert {("pure", "true", "true"), ("pure", "true", "false"), ("separable", "true", "true")} <= kinds
    bad = [r["consistent"] == "false" or (r["kind"] == "separable" and r["flagged"] == "true") for r in rows]
    assert diag["violations"] == sum(bad)
    assert diag["flagged"] == sum(r["flagged"] == "true" for r in rows)


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_abs_squared_keeps_python_bits_where_x_times_x_does_not(scale):
    """About 1 in 1200 of these |z| square differently as ``x * x`` than as ``x ** 2``."""
    rng = np.random.default_rng(int(scale * 1e5))
    z = scale * (rng.normal(size=50_000) + 1j * rng.normal(size=50_000))
    want = np.array([abs(x) ** 2 for x in z.tolist()])
    assert witnesses._abs_squared(z).tobytes() == want.tobytes()


def test_an_overflowing_square_raises_as_python_does():
    z = 1e200 + 0j
    with pytest.raises(OverflowError):
        abs(z) ** 2
    with pytest.raises(FloatingPointError):
        witnesses._abs_squared(np.array([1.0, z]))


def test_the_closest_margin_skips_a_nan_ratio_as_python_min_did(monkeypatch):
    real = witnesses.ppt_crosscheck_batch
    ratios = []

    def with_a_nan(states, ga, gb):
        checks = real(states, ga, gb)
        margin = checks.cond1.margin.copy()
        margin[0] = math.nan
        checks = dataclasses.replace(checks, cond1=dataclasses.replace(checks.cond1, margin=margin))
        for rep in (checks.cond1, checks.cond2):
            ratios.extend((np.abs(rep.margin) / rep.tolerance).tolist())
        return checks

    monkeypatch.setattr(witnesses, "ppt_crosscheck_batch", with_a_nan)
    columns, diag = cli._run_ppt_crosscheck(_params(40, ("2x4", "3x3")), 2, None)
    assert np.isnan(columns["cond1_margin"]).sum() == 2  # one per block: pure on 2x4, mixed on 3x3
    assert diag["min_abs_margin_over_tol"] == min(math.inf, *ratios)
    assert not math.isnan(diag["min_abs_margin_over_tol"])


def test_rerun_is_byte_identical(tmp_path):
    argv = ["ppt-crosscheck", "--trials", "37", "--dims", "4x2,2x2,3x5", "--seed", "3"]
    outputs = []
    for name in ("one.csv", "two.csv"):
        assert cli.main(argv + ["--output", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert [int(r.split(",")[0]) for r in outputs[0].decode().splitlines()[1:]] == list(range(37))


@pytest.mark.parametrize("theta", np.linspace(-math.pi / 4, math.pi / 4, 9).tolist())
@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_atom_field_superposition_matches_the_inline_construction(theta, phi):
    sig = families.atom_field_signature(4)
    amps = (
        math.cos(theta) * basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        + math.sin(theta)
        * np.exp(1j * phi)
        * basis_state(sig, {"field": 1, "atom": 0}).amplitudes
    )
    state = families.atom_field_superposition(theta, phi, sig)
    assert state.signature == sig
    assert state.amplitudes.tobytes() == amps.astype(complex).tobytes()
