"""Resonant two-level atom coupled to one field mode, thermal field start.

H = omega a^dag a + (omega/2) sigma^z + kappa (sigma^+ a + sigma^- a^dag).

The witness trace follows the 2x2 atom-field matrix built from the centered
field quadratures {delta a, delta a^dag} against A = sigma^-.  With the
field thermal and the atom excited, the matrix stays diagonal: only its
upper-left entry can go positive, and it does so in bursts whose height
shrinks as the thermal occupation grows.

The whole trace comes from one spectral table
(:func:`~entwitness.spaces.evolved_expectations`) of seven observables at
every grid time: [top_two, sigma^+ a, sigma^+ a^dag, four P_e words], the
top-two field population and the moment tables of sigma^- against
[a, a^dag] (P_e = sigma^+ sigma^-).  H conserves the excitation number
N = a^dag a + sigma^+ sigma^-, and so does every start allowed here, a
thermal field times |e> or |g>, so the state commutes with N at every
time; a lowers N, so <a>(t) = 0 and delta a = a.  The table is read sector
by sector: each sector {|n, g>, |n-1, e>} is a 2 x 2 block of H, all of them
eigensolved in one batched call, and an observable contributes only through
its diagonal blocks (sigma^+ a^dag, P_e a^dag a^dag and P_e a a, which
change N, have none and read exactly 0).
:func:`~entwitness.witnesses.form_from_moments` assembles every 2x2 matrix
at once, and :func:`~entwitness.witnesses.eig2` gives lambda_max in closed
form.  No propagator, density matrix or centred operator is built per time
point, and no D x D spectrum at all; the leakage rule judges the largest
top-two population of the table's own column.  H, its block spectrum and
the 7 observables depend only on the truncation and the couplings, so
:func:`jc_witness_traces` builds them once for consecutive configs that
share these, and those configs also share the cos/sin phase table of their
time grid, which the block spectrum keeps; nothing outlives the call.

Truncation: ``fock_dim`` is where escalation starts.  The thermal start is
built first and checked by the one leakage rule,
:func:`~entwitness.spaces.check_leakage`, so a start too wide for the
truncation doubles it (:func:`~entwitness.spaces.escalate_fock_dim`) before
any D x D work; so does a trace that reaches the top levels later.  A new
system is refused with ``MemoryError`` when its estimated size,
:data:`SYSTEM_BYTES_PER_D2` bytes per D^2 (D = 2 fock_dim), exceeds
:func:`_available_memory`: the kernel's ``MemAvailable``, or the headroom
under the process's cgroup v2 memory limit where that is smaller.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .. import operators as ops
from .. import witnesses
from ..spaces import (
    QUBIT,
    DensityMatrix,
    LabeledOperator,
    SpaceSignature,
    boson,
    check_leakage,
    embed,
    escalate_fock_dim,
    evolved_expectations,
    leakage_projector,
    qubit,
    signature,
)

# peak bytes of one trace per D^2, an upper bound in whole complex D x D
# arrays: H, the local matrices of the field-atom observables and the
# thermal start; the peak RSS of jc-thermal --nbar 0.02 --points 50 grows by
# about 170 bytes per D^2 from fock_dim 320 (D = 640) to 640 (D = 1280)
SYSTEM_BYTES_PER_D2 = 11 * 16

# where _available_memory reads the kernel's and the cgroup's figures
MEMINFO = "/proc/meminfo"
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


@dataclass(frozen=True)
class JCConfig:
    nbar: float
    kt_grid: tuple[float, ...]
    fock_dim: int = 20
    omega: float = 1.0
    kappa: float = 0.1
    atom_initial: str = "excited"

    def __post_init__(self):
        object.__setattr__(self, "kt_grid", tuple(float(t) for t in self.kt_grid))
        if self.nbar < 0:
            raise ValueError("thermal occupation must be nonnegative")
        if self.atom_initial not in ("excited", "ground"):
            raise ValueError(f"unknown atom_initial '{self.atom_initial}'")
        if self.kappa <= 0:
            raise ValueError("coupling must be positive")


def jc_signature(fock_dim: int) -> SpaceSignature:
    return signature(boson("field", fock_dim), qubit("atom"))


def jc_hamiltonian(sig: SpaceSignature, omega: float, kappa: float) -> LabeledOperator:
    """Field term plus the atom terms of every qubit factor (Tavis-Cummings for several)."""
    dim = sig.factor("field").dim
    qo = ops.qubit_ops()
    a = embed(ops.annihilator(dim), "field", sig, "a")
    h = omega * embed(ops.number_op(dim), "field", sig)
    for atom in (f.label for f in sig.factors if f.kind == QUBIT):
        sp = embed(qo["plus"], atom, sig)
        sm = embed(qo["minus"], atom, sig)
        sz = embed(qo["z"], atom, sig)
        h = h + (omega / 2) * sz + kappa * (sp @ a + sm @ a.dag())
    return h


@dataclass(frozen=True)
class JCWitnessTrace:
    kt: np.ndarray
    m11: np.ndarray
    m22: np.ndarray
    abs_m12: np.ndarray
    lambda_max: np.ndarray
    fock_dim: int
    max_leakage: float


def _read_text(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _meminfo_available() -> int | None:
    """``MemAvailable`` in bytes: free memory plus the cache the kernel can reclaim."""
    for line in (_read_text(MEMINFO) or "").splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] == "MemAvailable:" and fields[1].isdigit():
            return int(fields[1]) * 1024
    return None


def _cgroup_headroom() -> int | None:
    """``memory.max`` less ``memory.current`` of this process's cgroup v2, if a number."""
    for line in (_read_text(PROC_CGROUP) or "").splitlines():
        if line.startswith("0::"):
            group = os.path.join(CGROUP_ROOT, line[3:].strip().lstrip("/"))
            limit = (_read_text(os.path.join(group, "memory.max")) or "").strip()
            current = (_read_text(os.path.join(group, "memory.current")) or "").strip()
            if limit.isdigit() and current.isdigit():
                return max(0, int(limit) - int(current))
    return None


def _available_memory() -> int | None:
    """Bytes a new allocation can take, or None where nothing can be read.

    The smaller of ``MemAvailable`` and the cgroup v2 headroom, of those
    that can be read; else the free pages of ``os.sysconf``, which leave
    out reclaimable cache.
    """
    known = [b for b in (_meminfo_available(), _cgroup_headroom()) if b is not None]
    if known:
        return min(known)
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


def _require_free_memory(dim: int) -> None:
    """Raise ``MemoryError`` if a trace at this truncation would not fit in free memory.

    Free memory is :func:`_available_memory`; where none can be read,
    nothing is checked.
    """
    d = 2 * dim
    need = SYSTEM_BYTES_PER_D2 * d * d
    free = _available_memory()
    if free is not None and need > free:
        raise MemoryError(
            f"a jc trace at fock_dim {dim} (D = {d}) needs about {need / 2**20:.1f} MiB, "
            f"but only {free / 2**20:.1f} MiB are free"
        )


def _system(
    dim: int, omega: float, kappa: float
) -> tuple[SpaceSignature, LabeledOperator, tuple[LabeledOperator, ...]]:
    """Signature, H and the observables [top_two, *c_ops, *t_ops] at one truncation.

    A truncation too large for free memory is refused before anything is built.
    """
    _require_free_memory(dim)
    sig = jc_signature(dim)
    h = jc_hamiltonian(sig, omega, kappa)
    sm = embed(ops.qubit_ops()["minus"], "atom", sig, "sigma-")
    a = embed(ops.annihilator(dim), "field", sig, "a")
    c_ops, t_ops = witnesses.moment_operators([sm], [a, a.dag()])
    return sig, h, (leakage_projector(sig, "field"), *c_ops, *t_ops)


def _trace_at_dim(cfg: JCConfig, dim: int, system) -> JCWitnessTrace:
    # first, so that a start too wide for dim raises before any system is built
    field = ops.thermal(cfg.nbar, dim)
    sig, h, observables = system(dim, cfg.omega, cfg.kappa)
    atom = ops.EXCITED if cfg.atom_initial == "excited" else ops.GROUND
    rho0 = DensityMatrix(sig, np.kron(field, np.outer(atom, atom.conj())))
    times = np.asarray(cfg.kt_grid) / cfg.kappa
    table = evolved_expectations(h, times, rho0, observables)
    n = times.size
    worst_leak = check_leakage("field", float(table[:, 0].real.max(initial=0.0)))
    m = witnesses.form_from_moments(table[:, 1:3].reshape(n, 1, 2), table[:, 3:].reshape(n, 1, 2, 1, 2))
    return JCWitnessTrace(
        np.asarray(cfg.kt_grid),
        m[:, 0, 0].real,
        m[:, 1, 1].real,
        abs(m[:, 0, 1]),
        witnesses.eig2(m)[1],
        dim,
        worst_leak,
    )


def jc_witness_traces(cfgs: Iterable[JCConfig]) -> list[JCWitnessTrace]:
    """Evolve each thermal-field start and record its witness matrix over time.

    One trace per config, in order.  Each starts at ``cfg.fock_dim`` and
    escalates the field truncation (doubling) if the thermal start or its
    evolution populates the top Fock levels.  Consecutive configs with the
    same truncation and couplings share one system, dropped on return.
    """
    system = functools.lru_cache(maxsize=1)(_system)
    return [escalate_fock_dim(lambda dim: _trace_at_dim(cfg, dim, system), cfg.fock_dim) for cfg in cfgs]


def jc_witness_trace(cfg: JCConfig) -> JCWitnessTrace:
    """:func:`jc_witness_traces` of one config."""
    return jc_witness_traces([cfg])[0]


def jc_vacuum_m11(kt: np.ndarray) -> np.ndarray:
    """Closed form for the zero-temperature excited-atom start: sin^2 cos^2."""
    kt = np.asarray(kt, dtype=float)
    return np.sin(kt) ** 2 * np.cos(kt) ** 2
