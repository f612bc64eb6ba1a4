"""Experiment runner: one subcommand per scenario, machine-readable output.

Every runner returns ``(columns, diagnostics)``.  ``columns`` maps each
column name, in header order, to a 1-D numpy array of one dtype, all of one
length; the rows are the entries at one index.  The CSV writer takes each
column's format from its dtype: ``%.17e`` floats, ``%d`` integers, and
``true``/``false`` or quoted text for the rest.  The JSON writer lists the
same rows as objects.  Margins keep full precision, so verdicts can be
recomputed downstream; a JSON sidecar holds the resolved configuration,
library version and truncation diagnostics.  Re-running with the same
configuration and seed is byte-identical.

Every option is one ``Param``: an experiment's own in its ``params``, the
five shared ones in ``COMMON_PARAMS``.  That table gives the flags of the
parser, built once per process, and reads the config file: an option takes
its flag value, else its non-null file value read as its flag reads the
same text, else its default.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__, csvbytes, families, linalg, operators as ops, witnesses
from .models import beam_splitters as bs
from .models import dicke as dk
from .models import jaynes_cummings as jc
from .models import tavis_cummings as tc
from .spaces import LeakageError


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Rejected experiment configuration.

    It is also an ``ArgumentTypeError``, so a flag that a ``Param.parse``
    rejects prints this text, the reason a config file's value prints too.
    """


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in str(text).split(",") if x.strip() != "")
    except ValueError as err:
        raise ConfigError(f"could not parse float list '{text}'") from err


def _bool(text: str) -> bool:
    """1/true/yes or 0/false/no in any case; a JSON boolean reads as its text."""
    word = str(text).lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ConfigError(f"could not parse boolean '{text}' (use 1/true/yes or 0/false/no)")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in str(text).split(",") if x.strip() != "")


def parse_field_spec(spec: str, dim: int) -> np.ndarray:
    """Single-mode state specs: fock:N, coherent:ALPHA, squeezed:R, amps:c0,c1,..."""
    kind, _, arg = str(spec).partition(":")
    try:
        if kind == "fock":
            return ops.fock(int(arg), dim)
        if kind == "coherent":
            return ops.coherent(complex(arg), dim)
        if kind == "squeezed":
            return ops.squeezed_vacuum(complex(arg), dim)
        if kind == "amps":
            v = np.array([complex(x) for x in arg.split(",")], dtype=complex)
            if v.size > dim or np.linalg.norm(v) == 0:
                raise ConfigError(f"bad amplitude list in '{spec}'")
            out = np.zeros(dim, dtype=complex)
            out[: v.size] = v / np.linalg.norm(v)
            return out
    except ConfigError:
        raise
    except (ValueError, TypeError) as err:
        raise ConfigError(f"could not parse field spec '{spec}'") from err
    raise ConfigError(f"unknown field spec kind '{kind}' (use fock/coherent/squeezed/amps)")


@dataclass(frozen=True)
class Param:
    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    check: Callable[[Any], None] = lambda value: None


def _positive_int(name):
    def check(v):
        if int(v) < 1:
            raise ConfigError(f"{name} must be a positive integer")

    return check


def _nonnegative(name):
    def check(v):
        if v < 0:
            raise ConfigError(f"{name} must be nonnegative")

    return check


@dataclass(frozen=True)
class Experiment:
    name: str
    summary: str
    description: str
    params: tuple[Param, ...]
    # (params, seed, common) -> (columns, diagnostics); see the module docstring
    runner: Callable[[dict, int, argparse.Namespace], tuple[dict[str, np.ndarray], dict]]


# ---------------------------------------------------------------------------
# experiment runners: each returns (columns, diagnostics)
# ---------------------------------------------------------------------------


def _sorted_by(columns: dict[str, np.ndarray], *keys: str) -> dict[str, np.ndarray]:
    """The columns with their rows reordered by ``keys``, the first key major; stable."""
    order = np.lexsort([columns[k] for k in reversed(keys)])
    return {name: col[order] for name, col in columns.items()}


def _run_jc_thermal(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    kt = np.linspace(0.0, p["kt_max"], int(p["points"]))
    kt_grid = tuple(kt.tolist())  # Python floats, built once for every nbar
    fock_dim = 20 if common.fock_dim is None else common.fock_dim
    traces = jc.jc_witness_traces(
        jc.JCConfig(nbar=nbar, kt_grid=kt_grid, fock_dim=fock_dim, atom_initial=p["atom"])
        for nbar in p["nbar"]
    )
    columns = {
        "kt": np.tile(kt, len(traces)),
        "nbar": np.repeat(p["nbar"], kt.size),
        "M11": np.concatenate([t.m11 for t in traces]),
        "M22": np.concatenate([t.m22 for t in traces]),
        "absM12": np.concatenate([t.abs_m12 for t in traces]),
        "lambda_max": np.concatenate([t.lambda_max for t in traces]),
    }
    diag = {
        "fock_dims": [t.fock_dim for t in traces],
        "max_leakage": max(0.0, *(t.max_leakage for t in traces)),
    }
    return _sorted_by(columns, "nbar", "kt"), diag


def _run_tavis(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    n = int(p["n"])
    grid = np.linspace(0.0, p["omega_t_max"], int(p["grid"]))
    columns = {
        "omega_t": grid,
        "atom_field_margin": np.array([tc.tc_atom_field_condition(n, w) for w in grid]),
        "field_both_margin": np.array([tc.tc_field_both_condition(n, w) for w in grid]),
    }
    return columns, {"n": n, "rabi_frequency_scale": math.sqrt(2.0 * (2 * n - 1))}


def _run_dicke(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    n_atoms, k = int(p["N"]), int(p["k"])
    if not 1 <= k < n_atoms:
        raise ConfigError("group size must satisfy 1 <= k < N")
    fock_dim = 24 if common.fock_dim is None else common.fock_dim
    field = parse_field_spec(p["input"], fock_dim)
    margins = dk.dicke_conditions(field)
    moments = margins.moments
    omega, kappa = 1.0, 0.1
    big = kappa * math.sqrt(n_atoms)
    grid = np.linspace(0.0, p["omega_t_max"], int(p["points"]))
    moms = [dk.heisenberg_moments(n_atoms, k, omega, kappa, w / big, moments) for w in grid]
    columns = {
        "omega_t": grid,
        "abs_x1x2": np.array([abs(m["x1x2"]) for m in moms]),
        "n1": np.array([m["n1"].real for m in moms]),
        "n2": np.array([m["n2"].real for m in moms]),
        "abs_x1dag_x2": np.array([abs(m["x1dag_x2"]) for m in moms]),
        "n1n2": np.array([m["n1n2"].real for m in moms]),
        "cond1_margin": np.full(grid.size, margins.cond1_margin),
        "cond2_margin": np.full(grid.size, margins.cond2_margin),
    }
    diag = {
        "mean_n": moments.mean_n,
        "variance_n": moments.variance,
        "hp_ratio_mean_excitation_over_atoms": moments.mean_n / n_atoms,
    }
    return columns, diag


def _run_beamsplitters(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    fock_dim = 12 if common.fock_dim is None else common.fock_dim
    cfgs = [
        bs.BSConfig(
            bs.epsilon_state(eps, fock_dim),
            t1=p["t1"],
            r1=math.sqrt(max(0.0, 1 - p["t1"] ** 2)),
            t2=p["t2"],
            r2=math.sqrt(max(0.0, 1 - p["t2"] ** 2)),
            fock_dim=fock_dim,
        )
        for eps in p["epsilon"]
    ]
    reps = [bs.bs_conditions(cfg) for cfg in cfgs]
    columns = {
        "epsilon": np.array(p["epsilon"]),
        "simple_margin": np.array([rep.simple_margin for rep in reps]),
        "M11": np.array([rep.matrix[0, 0].real for rep in reps]),
        "absM12": np.array([abs(rep.matrix[0, 1]) for rep in reps]),
        "M22": np.array([rep.matrix[1, 1].real for rep in reps]),
        "matrix_entangled": np.array([rep.matrix_entangled for rep in reps]),
    }
    if p["simulate"]:
        sims = [bs.bs_simulate(cfg) for cfg in cfgs]
        columns["sim_simple_margin"] = np.array([sim.simple_margin for sim in sims])
        columns["sim_matrix_entangled"] = np.array([sim.matrix_entangled for sim in sims])
        columns["sim_M11"] = np.array([sim.matrix[0, 0].real for sim in sims])
        columns["sim_M22"] = np.array([sim.matrix[1, 1].real for sim in sims])
    return _sorted_by(columns, "epsilon"), {"fock_dim": fock_dim}


def _run_noise_threshold(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    family = p["family"]
    # pair-bilinear keeps its coarser default so that its recorded s_star stays the same
    default_tol = 1e-3 if family == "pair-bilinear" else 1e-4
    tol = default_tol if common.tolerance is None else common.tolerance
    if family == "bell":
        c1 = p["c1"]
        if not 0 < c1 < 1:
            raise ConfigError("c1 must lie strictly between 0 and 1")
        s_star = families.bell_threshold_scan(c1, tol=tol)
        closed_form = families.bell_threshold_closed_form(c1 * math.sqrt(1 - c1**2))
    elif family == "subspace":
        c1, closed_form = math.nan, 0.5
        s_star = families.subspace_threshold_scan(np.random.default_rng(seed), tol=tol)
    elif family == "pair-bilinear":
        comparison = families.psi01_x_threshold(tol=tol)
        columns = {
            "family": np.array([family]),
            "s_star": np.array([comparison.scanned]),
            "printed_candidate": np.array([comparison.printed_candidate]),
            "analytic_candidate": np.array([comparison.analytic_candidate]),
        }
        return columns, {"comparison": comparison.summary()}
    else:
        raise ConfigError(f"unknown family '{family}' (bell, subspace, pair-bilinear)")
    columns = {
        "family": np.array([family]),
        "c1": np.array([c1]),
        "s_star": np.array([s_star]),
        "closed_form": np.array([closed_form]),
    }
    return columns, {}


def _run_two_mode_invariant(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    dim_a = 128 if common.fock_dim is None else common.fock_dim
    r = np.array(p["r_values"])
    if (r < 0).any():
        raise ConfigError("squeeze magnitudes must be nonnegative")
    pairs = families.squeezed_pair_sweep(p["r_values"], dim_a)
    columns = {
        "r": r,
        "tanh_r": np.array([math.tanh(x) for x in p["r_values"]]),
        "lambda_max": np.array([m.max_eigenvalue() for m, _ in pairs]),
        "matrix_entangled": np.array([m.has_positive_eigenvalue() for m, _ in pairs]),
        "cond1_margin": np.array([rep.margin for _, rep in pairs]),
        "cond1_entangled": np.array([rep.entangled for _, rep in pairs]),
    }
    return _sorted_by(columns, "r"), {"dim_a": dim_a, "plain_flip_at_tanh": 1 / math.sqrt(2)}


def _run_lur(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    mode = p["mode"]
    if mode == "tmsv":
        dim = 48 if common.fock_dim is None else common.fock_dim
        r, plus, minus = zip(*families.tmsv_lur(p["r_values"], dim))
        columns = {
            "r": np.array(r),
            "value_plus_phase": np.array([rep.rhs for rep in plus]),
            "value_pi_phase": np.array([rep.rhs for rep in minus]),
            "exp_minus_2r": np.array([math.exp(-2 * x) for x in r]),
            "bound": np.ones(len(r)),
            "violated_pi_phase": np.array([rep.entangled for rep in minus]),
        }
        return columns, {"correlating_branch": "pi", "dim": dim}
    if mode == "atom-field":
        thetas = np.linspace(-math.pi / 4, math.pi / 4, int(p["points"]))
        theta, phi, reps = zip(*families.atom_field_lur(thetas, (0.0, math.pi)))
        columns = {
            "theta": np.array(theta),
            "phi": np.array(phi),
            "value": np.array([rep.rhs for rep in reps]),
            "bound": np.ones(len(reps)),
            "violated": np.array([rep.entangled for rep in reps]),
        }
        return columns, {"note": "violated for theta in (-pi/4, 0) at phi = 0, in (0, pi/4) at phi = pi"}
    raise ConfigError(f"unknown mode '{mode}' (tmsv, atom-field)")


def _run_ppt_crosscheck(p: dict, seed: int, common) -> tuple[dict[str, np.ndarray], dict]:
    trials = int(p["trials"])
    dim_pairs = []
    for ds in p["dims"]:
        try:
            da, db = (int(x) for x in ds.split("x"))
        except ValueError as err:
            raise ConfigError(f"bad dims entry '{ds}', expected like 2x4") from err
        if da < 2 or db < 2:
            raise ConfigError("local dimensions must be at least 2")
        dim_pairs.append((da, db))
    columns = {
        "trial": np.arange(trials),
        "kind": np.empty(trials, dtype=object),
        "dim_a": np.empty(trials, dtype=int),
        "dim_b": np.empty(trials, dtype=int),
        "cond1_margin": np.empty(trials),
        "cond2_margin": np.empty(trials),
        "ppt_min_eig": np.empty(trials),
        "flagged": np.empty(trials, dtype=bool),
        "consistent": np.empty(trials, dtype=bool),
    }
    closest = math.inf  # min |margin| / tol over both criteria and all trials
    for block in families.ppt_trials(seed, trials, dim_pairs, int(p["products"])):
        checks = witnesses.ppt_crosscheck_batch(block.states, block.ga, block.gb)
        at = np.asarray(block.trials)
        columns["kind"][at] = block.kind
        columns["dim_a"][at], columns["dim_b"][at] = block.dims
        columns["cond1_margin"][at] = checks.cond1.margin
        columns["cond2_margin"][at] = checks.cond2.margin
        columns["ppt_min_eig"][at] = checks.min_eigenvalue
        columns["flagged"][at] = checks.flagged
        columns["consistent"][at] = checks.consistent
        # fmin skips a NaN ratio as Python's min over floats did
        closest = np.fmin.reduce(
            [np.abs(rep.margin) / rep.tolerance for rep in (checks.cond1, checks.cond2)],
            axis=None,
            initial=closest,
        )
    flagged = columns["flagged"]
    separable = columns["kind"] == "separable"
    return columns, {
        "violations": int(np.count_nonzero(~columns["consistent"] | (separable & flagged))),
        "trials": trials,
        "flagged": int(np.count_nonzero(flagged)),
        "min_abs_margin_over_tol": float(closest),
    }


EXPERIMENTS: dict[str, Experiment] = {
    "jc-thermal": Experiment(
        "jc-thermal",
        "atom-field witness trace for a thermal field start",
        "Resonant two-level atom coupled to one field mode that starts thermal\n"
        "(atom excited by default).  Tracks the 2x2 witness matrix built from\n"
        "sigma^- against the centered field quadratures over time; H and the\n"
        "start conserve the excitation number, so <a> stays 0 and these are a\n"
        "and a^dag.  Off-diagonals stay zero, the lower-right entry stays\n"
        "negative, and the upper-left entry rises into entanglement bursts\n"
        "that shrink as the thermal occupation grows.  Columns: kt, nbar, M11,\n"
        "M22, absM12, lambda_max.\n"
        "--fock-dim (default 20) is where the field truncation starts: it doubles\n"
        "while the thermal start or its evolution leaks, and the dims used per\n"
        "nbar are in the .meta.json sidecar (fock_dims).",
        (
            Param("nbar", _float_list, (0.01, 0.02, 0.03), "thermal occupations (comma list)"),
            Param("kt_max", float, 6.0, "trace length in coupling units", _nonnegative("kt_max")),
            Param("points", int, 600, "grid points", _positive_int("points")),
            Param("atom", str, "excited", "initial atom state: excited|ground"),
        ),
        _run_jc_thermal,
    ),
    "tavis": Experiment(
        "tavis",
        "two-atom collective margins over the Rabi phase",
        "Two atoms and one mode starting from |n, g, g>.  Emits the closed-form\n"
        "entanglement margins (single atom vs field, both atoms vs field) over a\n"
        "grid of Rabi phases; positive margin means entangled.  The two margins\n"
        "coincide for n <= 2 and the collective one is never harder to satisfy.\n"
        "Columns: omega_t, atom_field_margin, field_both_margin.",
        (
            Param("n", int, 2, "initial photon number (total excitations)", _positive_int("n")),
            Param("grid", int, 400, "grid points", _positive_int("grid")),
            Param("omega_t_max", float, 2 * math.pi, "phase range", _nonnegative("omega_t_max")),
        ),
        _run_tavis,
    ),
    "dicke": Experiment(
        "dicke",
        "group-group entanglement from input-field statistics",
        "N atoms split into groups of k and N-k, bosonized at low excitation\n"
        "(Holstein-Primakoff reduction).  The group-group margins collapse onto\n"
        "input-field statistics: squeezing fires the pairing test, sub-Poissonian\n"
        "counting fires the correlation test, coherent light fires nothing.\n"
        "Also emits the closed-form evolved moments over the Rabi phase.",
        (
            Param("N", int, 4, "total atoms", _positive_int("N")),
            Param("k", int, 2, "first group size", _positive_int("k")),
            Param("input", str, "squeezed:0.3", "field spec: fock:N|coherent:A|squeezed:R|amps:..."),
            Param("points", int, 60, "phase grid points", _positive_int("points")),
            Param("omega_t_max", float, math.pi, "phase range", _nonnegative("omega_t_max")),
        ),
        _run_dicke,
    ),
    "beamsplitters": Experiment(
        "beamsplitters",
        "two-splitter cascade: matrix test vs sub-Poissonian test",
        "Mode a crosses two beam splitters; vacuum taps b and c pick up\n"
        "entanglement iff the input is nonclassical enough.  Evaluates the\n"
        "sub-Poissonian margin and the stronger 2x2 matrix condition on the\n"
        "vacuum-plus-two-photon family, optionally cross-checked by a direct\n"
        "three-mode simulation.  Negative epsilon kills the simple test while\n"
        "the matrix test keeps firing.",
        (
            Param("epsilon", _float_list, (-0.02,), "epsilon values for the |0>/|2> family"),
            Param("t1", float, 1 / math.sqrt(2), "first splitter transmittance"),
            Param("t2", float, 1 / math.sqrt(2), "second splitter transmittance"),
            Param("simulate", _bool, True, "run the 3-mode check"),
        ),
        _run_beamsplitters,
    ),
    "noise-threshold": Experiment(
        "noise-threshold",
        "bisection thresholds for the noisy superposition families",
        "Noise thresholds located by bisection on the criterion verdicts:\n"
        "family 'bell' (two-term superposition vs closed form), family\n"
        "'subspace' (correlated subspaces, threshold 1/2 independent of the\n"
        "block vectors), and family 'pair-bilinear' (doubly-expanded form, see-saw\n"
        "product-vector search from a 12x12 seed mesh, against both candidates).\n"
        "--tolerance is the bracket width: 1e-4 by default, 1e-3 for pair-bilinear.",
        (
            Param("family", str, "bell", "bell | subspace | pair-bilinear"),
            Param("c1", float, 1 / math.sqrt(2), "first superposition amplitude (bell family)"),
        ),
        _run_noise_threshold,
    ),
    "two-mode-invariant": Experiment(
        "two-mode-invariant",
        "squeezing-proof witness for the single-photon pair",
        "One side of (|01> + |10>)/sqrt(2) is squeezed harder and harder.  The\n"
        "witness expanded in the centered quadratures keeps a positive\n"
        "eigenvalue for every z, while the plain correlation test flips its\n"
        "verdict at tanh|z| = 1/sqrt(2).",
        (
            Param("r_values", _float_list, (0.2, 0.6, 0.9, 1.1), "squeeze magnitudes"),
        ),
        _run_two_mode_invariant,
    ),
    "lur": Experiment(
        "lur",
        "local-uncertainty sums with non-hermitian pairs",
        "Variance-style sums that every separable state keeps at or above 1.\n"
        "Mode 'tmsv': the two-mode squeezed value lands on e^{-2r} on the\n"
        "correlating phase branch (and e^{+2r} on the other).  Mode\n"
        "'atom-field': cos(t)|0,e> + e^{i phi} sin(t)|1,g> dips below 1 for t in\n"
        "(-pi/4, 0) on the phi = 0 branch and for t in (0, pi/4) on the pi branch.",
        (
            Param("mode", str, "tmsv", "tmsv | atom-field"),
            Param("r_values", _float_list, (0.1, 0.3, 0.5), "squeeze magnitudes (tmsv)"),
            Param("points", int, 41, "theta grid (atom-field)", _positive_int("points")),
        ),
        _run_lur,
    ),
    "ppt-crosscheck": Experiment(
        "ppt-crosscheck",
        "Monte Carlo consistency with the partial-transpose test",
        "Random pure states and random separable mixtures, probed with random\n"
        "non-hermitian local operators.  Every state flagged by either base\n"
        "criterion must show a negative partial transpose, and separable\n"
        "mixtures must trip nothing; the run counts violations (expected: 0).",
        (
            Param("trials", int, 500, "number of trials", _positive_int("trials")),
            Param("dims", _str_list, ("2x4", "3x3"), "local dimension pairs"),
            Param("products", int, 16, "max products per separable mixture", _positive_int("products")),
        ),
        _run_ppt_crosscheck,
    ),
}


# ---------------------------------------------------------------------------
# configuration plumbing and output
# ---------------------------------------------------------------------------


def _check_format(value: str) -> None:
    if value not in ("csv", "json"):
        raise ConfigError(f"unknown format '{value}'")


def _check_fock_dim(value: int) -> None:
    if value < 2:
        raise ConfigError(f"fock_dim must be at least 2, got {value}")


def _check_tolerance(value: float) -> None:
    if not value > 0:
        raise ConfigError(f"tolerance must be positive, got {value}")


# options shared by every experiment; a None default means unset, which for
# fock_dim and tolerance means the experiment's own value
COMMON_PARAMS: tuple[Param, ...] = (
    Param("output", str, None, "output file (default stdout)"),
    Param("format", str, "csv", "output format: csv | json", _check_format),
    Param("seed", int, 0, "master seed"),
    Param("fock_dim", int, None, "Fock truncation per mode (default: the experiment's own)", _check_fock_dim),
    Param("tolerance", float, None, "criterion tolerance (default: the experiment's own)", _check_tolerance),
)


def _parse_file_value(p: Param, value) -> Any:
    """Read a config-file value as its flag would read the same text."""
    text = ",".join(str(v) for v in value) if isinstance(value, list) else str(value)
    try:
        return p.parse(text)
    except ValueError as err:
        raise ConfigError(f"bad value {value!r} for '{p.name}' in config file: {err}") from err


def _read_config_file(exp: Experiment, path: str) -> dict[str, Any]:
    """The non-null values of a config file, each read as its flag reads the same text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"could not read config file: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigError("config file must hold a JSON object")
    if blob.get("experiment") not in (None, exp.name):
        raise ConfigError(f"config file is for '{blob.get('experiment')}', not '{exp.name}'")
    file_params = blob.get("params", {})
    if not isinstance(file_params, dict):
        raise ConfigError(f"'params' in config file must be a JSON object, got {json.dumps(file_params)}")
    known = {p.name: p for p in exp.params}
    for key in file_params:
        if key not in known:
            raise ConfigError(f"unknown parameter '{key}' for experiment '{exp.name}'")
    common = {p.name: p for p in COMMON_PARAMS}
    for key in blob:
        if key not in ("experiment", "params", *common):
            raise ConfigError(f"unknown config key '{key}'")
    entries = [(known[k], v) for k, v in file_params.items()]
    entries += [(common[k], v) for k, v in blob.items() if k in common]
    return {p.name: _parse_file_value(p, v) for p, v in entries if v is not None}


def _check_finite(name: str, value) -> None:
    """A float must be finite; a list must be non-empty with finite float entries."""
    if isinstance(value, tuple):
        if not value:
            raise ConfigError(f"{name} must not be empty")
        for entry in value:
            _check_finite(name, entry)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def _resolve_config(exp: Experiment, args: argparse.Namespace) -> tuple[dict, argparse.Namespace]:
    """``(params, common)``: each option's flag value, else its config-file value, else its default."""
    from_file = _read_config_file(exp, args.config) if args.config else {}
    values = {}
    for p in (*exp.params, *COMMON_PARAMS):
        value = getattr(args, p.name)
        if value is None:
            value = from_file.get(p.name, p.default)
        if value is not None:
            _check_finite(p.name, value)
            p.check(value)
        values[p.name] = value
    params = {p.name: values.pop(p.name) for p in exp.params}
    return params, argparse.Namespace(**values)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17e}"
    return str(value)


def _csv_quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it beside other fields.

    A field holding a comma, a quote, CR or LF is quoted.  Before Python
    3.13 ``csv.writer`` left a lone CR unquoted, which its reader then
    splits on; no runner writes one.
    """
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_header(columns: dict[str, np.ndarray]) -> str:
    return (",".join(_csv_quote(str(k)) for k in columns) or '""') + "\n"


def _csv_by_rows(columns: dict[str, np.ndarray]) -> str:
    """The CSV of a non-empty table, one ``%`` per row.

    A column's dtype gives its printf code: ``%.17e`` for floats, ``%d`` for
    integers, else ``%s`` over its :func:`_format_cell` texts, quoted as
    ``csv.writer`` quotes them.  ``%.17e`` and ``%d`` print what
    :func:`_format_cell` does.  As with ``csv.writer``, a row of one empty
    field is written ``""``.
    """
    codes, cells = [], []
    for col in columns.values():
        code = {"f": "%.17e", "i": "%d"}.get(col.dtype.kind, "%s")
        values = col.tolist()
        if code == "%s":
            values = [_csv_quote(_format_cell(v)) for v in values]
            if len(columns) == 1:
                values = [t or '""' for t in values]
        codes.append(code)
        cells.append(values)
    fmt = ",".join(codes) + "\n"
    return _csv_header(columns) + "".join([fmt % row for row in zip(*cells)])


def _csv_by_bytes(columns: dict[str, np.ndarray]) -> str:
    """The same text as :func:`_csv_by_rows`, written by :func:`csvbytes.rows` from one byte buffer."""
    lone = len(columns) == 1

    def text(value) -> str:
        cell = _csv_quote(_format_cell(value))
        return (cell or '""') if lone else cell

    return _csv_header(columns) + csvbytes.rows(list(columns.values()), text)


# A table with at least this many float cells is written by _csv_by_bytes, a
# smaller one by _csv_by_rows.  The byte path costs 0.1-0.3 ms a call however
# small the table; the row path costs 1-1.5 us a float cell.  On a shared
# 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the two broke even at 140-210
# float cells, for tables of 6 float columns (jc-thermal's), of 5 float and
# 1 bool, and of 3 float among 6 int, text and bool columns (ppt-crosscheck's).
CSV_BYTES_MIN_FLOAT_CELLS = 200


def _columns_to_csv(columns: dict[str, np.ndarray]) -> str:
    """The columns as CSV under a header of their names; every cell as :func:`_format_cell` prints it.

    Floats print as ``%.17e``, integers as ``%d``, the rest as their text,
    quoted as ``csv.writer`` quotes it.  A large table is written by
    :func:`_csv_by_bytes`, a small one by :func:`_csv_by_rows`, chosen by
    its float cell count against :data:`CSV_BYTES_MIN_FLOAT_CELLS`; both
    give the same text.
    """
    if not columns:
        return "\n"
    float_cells = sum(col.size for col in columns.values() if col.dtype.kind == "f")
    return (_csv_by_bytes if float_cells >= CSV_BYTES_MIN_FLOAT_CELLS else _csv_by_rows)(columns)


def _numpy_scalar(value):
    """``json`` hook: a numpy scalar as the Python scalar it holds.

    ``np.float64`` subclasses ``float`` and never reaches the hook; ``json``
    writes it as it writes the ``float`` of the same value.
    """
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(blob) -> str:
    return json.dumps(blob, indent=2, sort_keys=True, default=_numpy_scalar)


def _write_output(config: dict, columns, diagnostics, common: argparse.Namespace) -> None:
    meta = {"config": config, "version": __version__, "diagnostics": diagnostics}
    if common.format == "csv":
        payload = _columns_to_csv(columns)
    else:
        rows = [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]
        payload = _dumps({**meta, "rows": rows}) + "\n"
    if common.output:
        with open(common.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        with open(common.output + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(_dumps(meta) + "\n")
    else:
        sys.stdout.write(payload)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``entwitness`` parser, built once per process; every option flag is one ``Param``."""
    parser = argparse.ArgumentParser(
        prog="entwitness",
        description="entanglement-criteria experiments on truncated bosonic/qubit systems",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list the available experiments")
    desc = sub.add_parser("describe", help="describe one experiment")
    desc.add_argument("experiment", choices=sorted(EXPERIMENTS))
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.summary)
        for param in (*exp.params, *COMMON_PARAMS):
            p.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name,
                type=param.parse,
                default=None,
                help=param.help if param.default is None else f"{param.help} (default {param.default})",
            )
        p.add_argument("--config", default=None, help="JSON config file; flags win")
        p.add_argument("--dump-config", action="store_true", help="print resolved config and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name}: {EXPERIMENTS[name].summary}")
        return EXIT_OK
    if args.command == "describe":
        exp = EXPERIMENTS[args.experiment]
        print(f"{exp.name} - {exp.summary}\n")
        print(exp.description)
        return EXIT_OK

    exp = EXPERIMENTS[args.command]
    try:
        params, common = _resolve_config(exp, args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    config = {"experiment": exp.name, "params": params, **vars(common)}
    if args.dump_config:
        print(_dumps(config))
        return EXIT_OK
    try:
        columns, diagnostics = exp.runner(params, common.seed, common)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (LeakageError, linalg.NonHermitianError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        # numpy's MemoryError names the allocation it refused; a bare one says nothing
        print(f"numerical failure: out of memory ({str(err) or 'no detail'})", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        # range problems surface during the run for a handful of parameters
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    _write_output(config, columns, diagnostics, common)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
