"""Experiment runner: one subcommand per scenario, machine-readable output.

Every experiment writes CSV (or JSON) rows carrying full-precision margins,
so verdicts can be recomputed downstream, plus a JSON sidecar with the
resolved configuration, library version and truncation diagnostics.
Re-running with the same configuration and seed is byte-identical.

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

from . import __version__, families, linalg, operators as ops, witnesses
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
    runner: Callable[[dict, int, argparse.Namespace], tuple[list[dict], dict]]


# ---------------------------------------------------------------------------
# experiment runners: each returns (rows, diagnostics)
# ---------------------------------------------------------------------------


def _run_jc_thermal(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    kt = np.linspace(0.0, p["kt_max"], int(p["points"]))
    fock_dim = 20 if common.fock_dim is None else common.fock_dim
    rows = []
    worst_leak = 0.0
    dims_used = []
    try:
        for nbar in p["nbar"]:
            cfg = jc.JCConfig(
                nbar=nbar, kt_grid=tuple(kt), fock_dim=fock_dim, atom_initial=p["atom"]
            )
            trace = jc.jc_witness_trace(cfg)
            worst_leak = max(worst_leak, trace.max_leakage)
            dims_used.append(trace.fock_dim)
            for i, t in enumerate(trace.kt):
                rows.append(
                    {
                        "kt": float(t),
                        "nbar": nbar,
                        "M11": trace.m11[i],
                        "M22": trace.m22[i],
                        "absM12": trace.abs_m12[i],
                        "lambda_max": trace.lambda_max[i],
                    }
                )
    finally:
        jc._system.cache_clear()  # the nbar of one run share a system; runs do not
    rows.sort(key=lambda r: (r["nbar"], r["kt"]))
    return rows, {"fock_dims": dims_used, "max_leakage": worst_leak}


def _run_tavis(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    n = int(p["n"])
    grid = np.linspace(0.0, p["omega_t_max"], int(p["grid"]))
    rows = [
        {
            "omega_t": float(w),
            "atom_field_margin": tc.tc_atom_field_condition(n, w),
            "field_both_margin": tc.tc_field_both_condition(n, w),
        }
        for w in grid
    ]
    return rows, {"n": n, "rabi_frequency_scale": math.sqrt(2.0 * (2 * n - 1))}


def _run_dicke(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    fock_dim = 24 if common.fock_dim is None else common.fock_dim
    field = parse_field_spec(p["input"], fock_dim)
    margins = dk.dicke_conditions(field)
    moments = margins.moments
    n_atoms, k = int(p["N"]), int(p["k"])
    if not 1 <= k < n_atoms:
        raise ConfigError("group size must satisfy 1 <= k < N")
    omega, kappa = 1.0, 0.1
    big = kappa * math.sqrt(n_atoms)
    rows = []
    for w in np.linspace(0.0, p["omega_t_max"], int(p["points"])):
        t = w / big
        mom = dk.heisenberg_moments(n_atoms, k, omega, kappa, t, moments)
        rows.append(
            {
                "omega_t": float(w),
                "abs_x1x2": abs(mom["x1x2"]),
                "n1": mom["n1"].real,
                "n2": mom["n2"].real,
                "abs_x1dag_x2": abs(mom["x1dag_x2"]),
                "n1n2": mom["n1n2"].real,
                "cond1_margin": margins.cond1_margin,
                "cond2_margin": margins.cond2_margin,
            }
        )
    diag = {
        "mean_n": moments.mean_n,
        "variance_n": moments.variance,
        "hp_ratio_mean_excitation_over_atoms": moments.mean_n / n_atoms,
    }
    return rows, diag


def _run_beamsplitters(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    fock_dim = 12 if common.fock_dim is None else common.fock_dim
    rows = []
    for eps in p["epsilon"]:
        cfg = bs.BSConfig(
            bs.epsilon_state(eps, fock_dim),
            t1=p["t1"],
            r1=math.sqrt(max(0.0, 1 - p["t1"] ** 2)),
            t2=p["t2"],
            r2=math.sqrt(max(0.0, 1 - p["t2"] ** 2)),
            fock_dim=fock_dim,
        )
        rep = bs.bs_conditions(cfg)
        row = {
            "epsilon": eps,
            "simple_margin": rep.simple_margin,
            "M11": rep.matrix[0, 0].real,
            "absM12": abs(rep.matrix[0, 1]),
            "M22": rep.matrix[1, 1].real,
            "matrix_entangled": rep.matrix_entangled,
        }
        if p["simulate"]:
            sim = bs.bs_simulate(cfg)
            row["sim_simple_margin"] = sim.simple_margin
            row["sim_matrix_entangled"] = sim.matrix_entangled
            row["sim_M11"] = sim.matrix[0, 0].real
            row["sim_M22"] = sim.matrix[1, 1].real
        rows.append(row)
    rows.sort(key=lambda r: r["epsilon"])
    return rows, {"fock_dim": fock_dim}


def _run_noise_threshold(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    family = p["family"]
    # pair-bilinear keeps its coarser default so that its recorded s_star stays the same
    default_tol = 1e-3 if family == "pair-bilinear" else 1e-4
    tol = default_tol if common.tolerance is None else common.tolerance
    if family == "bell":
        c1 = p["c1"]
        if not 0 < c1 < 1:
            raise ConfigError("c1 must lie strictly between 0 and 1")
        c1c2 = c1 * math.sqrt(1 - c1**2)
        s_star = families.bell_threshold_scan(c1, tol=tol)
        rows = [
            {
                "family": "bell",
                "c1": c1,
                "s_star": s_star,
                "closed_form": families.bell_threshold_closed_form(c1c2),
            }
        ]
    elif family == "subspace":
        rng = np.random.default_rng(seed)
        s_star = families.subspace_threshold_scan(rng, tol=tol)
        rows = [{"family": "subspace", "c1": float("nan"), "s_star": s_star, "closed_form": 0.5}]
    elif family == "pair-bilinear":
        comparison = families.psi01_x_threshold(tol=tol)
        rows = [
            {
                "family": "pair-bilinear",
                "s_star": comparison.scanned,
                "printed_candidate": comparison.printed_candidate,
                "analytic_candidate": comparison.analytic_candidate,
            }
        ]
        return rows, {"comparison": comparison.summary()}
    else:
        raise ConfigError(f"unknown family '{family}' (bell, subspace, pair-bilinear)")
    return rows, {}


def _run_two_mode_invariant(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    dim_a = 128 if common.fock_dim is None else common.fock_dim
    rows = []
    for r in p["r_values"]:
        if r < 0:
            raise ConfigError("squeeze magnitudes must be nonnegative")
        m, rep = families.squeezed_pair_witnesses(r, dim_a)
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


def _run_lur(p: dict, seed: int, common) -> tuple[list[dict], dict]:
    mode = p["mode"]
    if mode == "tmsv":
        dim = 48 if common.fock_dim is None else common.fock_dim
        rows = [
            {
                "r": r,
                "value_plus_phase": plus.rhs,
                "value_pi_phase": minus.rhs,
                "exp_minus_2r": math.exp(-2 * r),
                "bound": 1.0,
                "violated_pi_phase": minus.entangled,
            }
            for r, plus, minus in families.tmsv_lur(p["r_values"], dim)
        ]
        return rows, {"correlating_branch": "pi", "dim": dim}
    if mode == "atom-field":
        thetas = np.linspace(-math.pi / 4, math.pi / 4, int(p["points"]))
        rows = [
            {
                "theta": float(theta),
                "phi": phi,
                "value": rep.rhs,
                "bound": 1.0,
                "violated": rep.entangled,
            }
            for theta, phi, rep in families.atom_field_lur(thetas, (0.0, math.pi))
        ]
        return rows, {"note": "violated for theta in (-pi/4, 0) at phi = 0, in (0, pi/4) at phi = pi"}
    raise ConfigError(f"unknown mode '{mode}' (tmsv, atom-field)")


def _run_ppt_crosscheck(p: dict, seed: int, common) -> tuple[list[dict], dict]:
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
    rows: list[dict | None] = [None] * trials
    violations = flagged = 0
    closest = math.inf  # min |margin| / tol over both criteria and all trials
    for block in families.ppt_trials(seed, trials, dim_pairs, int(p["products"])):
        checks = witnesses.ppt_crosscheck_batch(block.states, block.ga, block.gb)
        for trial, chk in zip(block.trials, checks):
            violations += not chk.consistent or (block.kind == "separable" and chk.flagged)
            flagged += chk.flagged
            closest = min(closest, *(abs(r.margin) / r.tolerance for r in (chk.cond1, chk.cond2)))
            rows[trial] = {
                "trial": trial,
                "kind": block.kind,
                "dim_a": block.dims[0],
                "dim_b": block.dims[1],
                "cond1_margin": chk.cond1.margin,
                "cond2_margin": chk.cond2.margin,
                "ppt_min_eig": chk.min_eigenvalue,
                "flagged": chk.flagged,
                "consistent": chk.consistent,
            }
    return rows, {
        "violations": violations,
        "trials": trials,
        "flagged": flagged,
        "min_abs_margin_over_tol": closest,
    }


EXPERIMENTS: dict[str, Experiment] = {
    "jc-thermal": Experiment(
        "jc-thermal",
        "atom-field witness trace for a thermal field start",
        "Resonant two-level atom coupled to one field mode that starts thermal\n"
        "(atom excited by default).  Tracks the 2x2 witness matrix built from\n"
        "sigma^- against the centered field quadratures over time: off-diagonals\n"
        "stay zero, the lower-right entry stays negative, and the upper-left\n"
        "entry rises into entanglement bursts that shrink as the thermal\n"
        "occupation grows.  Columns: kt, nbar, M11, M22, absM12, lambda_max.\n"
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


def _column_code(values: list) -> str:
    """One printf code for a column: ``%.17e`` floats, ``%d`` ints, else ``%s``."""
    types = set(map(type, values))
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "%.17e"
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types):
        return "%d"
    return "%s"


def _rows_to_csv(rows: list[dict]) -> str:
    """The rows as CSV under a header of the first row's keys, one ``%`` per row.

    Each column gets one printf code from the types of its values; a ``%s``
    column holds its :func:`_format_cell` texts, quoted as ``csv.writer``
    quotes them.  ``%.17e`` and ``%d`` print what :func:`_format_cell` does.
    As with ``csv.writer``, a row of one empty field is written ``""``.
    """
    header = list(rows[0].keys()) if rows else []
    if not header:
        return "\n" * (len(rows) + 1)
    columns = [[row[k] for row in rows] for k in header]
    codes = [_column_code(col) for col in columns]
    for i, code in enumerate(codes):
        if code == "%s":
            texts = [_csv_quote(_format_cell(v)) for v in columns[i]]
            columns[i] = [t or '""' for t in texts] if len(header) == 1 else texts
    fmt = ",".join(codes) + "\n"
    head = ",".join(_csv_quote(str(k)) for k in header) or '""'
    return head + "\n" + "".join([fmt % cells for cells in zip(*columns)])


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


def _write_output(config: dict, rows, diagnostics, common: argparse.Namespace) -> None:
    meta = {"config": config, "version": __version__, "diagnostics": diagnostics}
    if common.format == "csv":
        payload = _rows_to_csv(rows)
    else:
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
        rows, diagnostics = exp.runner(params, common.seed, common)
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
    _write_output(config, rows, diagnostics, common)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
