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
the 7 observables depend only on the truncation and the couplings.  No
D x D array is built anywhere on this path: the field locals are bands
(:class:`~entwitness.bands.Band`), H and the field-atom words are sums
and products of per-factor locals, kept as expressions
(:class:`~entwitness.spaces.LabeledOperator`), and their 2 x 2 sector
blocks are read from those expressions entry by entry; a trace holds O(D)
memory.

Batches: :func:`jc_witness_traces` evaluates each run of consecutive
configs that share the truncation, the couplings, the atom start and the
time grid as one batch.  It builds one system, stacks the thermal starts,
and reads one (B, T, 7) table from one sector evaluation, whose cos/sin
phase table the block spectrum keeps; ``form_from_moments`` and ``eig2``
then run once over (B, T).  A batch is cut into stacks of at most as many
configs as keep the (B, T, 7) complex table within
:data:`~entwitness.spaces._BLOCK_BYTES` (at least one).  A thermal start
is the product of its field weights and the atom projector, and only its
sector blocks are read.  Consecutive batches with the same
truncation and couplings share the system; nothing outlives the call.

Truncation: ``fock_dim`` is where escalation starts.  The thermal start's
weights are checked first by the one leakage rule,
:func:`~entwitness.spaces.check_leakage`, so a start too wide for the
truncation doubles it (:func:`~entwitness.spaces.escalate_fock_dim`) before
any system is built; so does a trace that reaches the top levels later.
Only the config that leaks escalates, alone; the rest of its batch keep
their traces at the batch's truncation, and the traces come back in
config order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .. import operators as ops
from .. import spaces
from .. import witnesses
from ..bands import Band
from ..spaces import (
    QUBIT,
    LabeledOperator,
    LeakageError,
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

@dataclass(frozen=True, eq=False)
class JCConfig:
    nbar: float
    kt_grid: np.ndarray  # held as a read-only float64 array, converted once
    fock_dim: int = 20
    omega: float = 1.0
    kappa: float = 0.1
    atom_initial: str = "excited"

    def __post_init__(self):
        kt = np.array(self.kt_grid, dtype=float)
        kt.setflags(write=False)
        object.__setattr__(self, "kt_grid", kt)
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
    a = embed(ops.annihilator_band(dim), "field", sig, "a")
    h = omega * embed(ops.number_band(dim), "field", sig)
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


def _system(
    dim: int, omega: float, kappa: float
) -> tuple[SpaceSignature, LabeledOperator, tuple[LabeledOperator, ...]]:
    """Signature, H and the observables [top_two, *c_ops, *t_ops] at one truncation.

    Every field local is a band and every field-atom operator a product or
    sum of per-factor locals, so nothing here holds more than O(D) entries.
    """
    sig = jc_signature(dim)
    h = jc_hamiltonian(sig, omega, kappa)
    sm = embed(ops.qubit_ops()["minus"], "atom", sig, "sigma-")
    a = embed(ops.annihilator_band(dim), "field", sig, "a")
    c_ops, t_ops = witnesses.moment_operators([sm], [a, a.dag()])
    return sig, h, (leakage_projector(sig, "field"), *c_ops, *t_ops)


def _start(weights: np.ndarray, projector: LabeledOperator) -> LabeledOperator:
    """The thermal field of level populations ``weights`` times the atom ``projector``, a product of the two locals.

    Its matrix is ``np.kron(ops.thermal(nbar, dim), |atom><atom|)``, bit for bit.
    """
    return embed(Band.diagonal(weights), "field", projector.signature) @ projector  # ops.thermal, from its checked weights


def _traces_at_dim(batch: list[JCConfig], dim: int, system) -> list[JCWitnessTrace | LeakageError]:
    """The trace of each config of one batch at truncation ``dim``, or the LeakageError of its start or trace.

    The configs share their couplings, atom start and time grid.  Every
    thermal start is checked first, so a batch whose starts all leak builds
    no system.  The other starts go through
    :func:`~entwitness.spaces.evolved_expectations` as one stack, ``cap``
    at a time, so that each (B, T, K) table stays within
    :data:`~entwitness.spaces._BLOCK_BYTES` (at least one config per
    stack).  Each start is the product of its thermal weights and the
    atom projector, read by its sector blocks (:func:`_start`).
    """
    results: list = [None] * len(batch)
    weights = {}
    for i, cfg in enumerate(batch):
        try:
            weights[i] = ops.thermal_weights(cfg.nbar, dim)
        except LeakageError as err:
            results[i] = err
    if not weights:
        return results
    cfg = batch[0]
    sig, h, observables = system(dim, cfg.omega, cfg.kappa)
    atom = ops.EXCITED if cfg.atom_initial == "excited" else ops.GROUND
    projector = embed(np.outer(atom, atom.conj()), "atom", sig)
    times = cfg.kt_grid / cfg.kappa
    n = times.size
    cap = max(1, spaces._BLOCK_BYTES // (16 * max(n, 1) * len(observables)))
    live = list(weights)
    for first in range(0, len(live), cap):
        chunk = live[first : first + cap]
        table = evolved_expectations(h, times, (_start(weights[i], projector) for i in chunk), observables)
        b = len(chunk)
        m = witnesses.form_from_moments(table[..., 1:3].reshape(b, n, 1, 2), table[..., 3:].reshape(b, n, 1, 2, 1, 2))
        lambda_max = witnesses.eig2(m)[1]
        for j, i in enumerate(chunk):
            try:
                leak = check_leakage("field", float(table[j, :, 0].real.max(initial=0.0)))
            except LeakageError as err:
                results[i] = err
                continue
            results[i] = JCWitnessTrace(
                batch[i].kt_grid.copy(),
                m[j, :, 0, 0].real,
                m[j, :, 1, 1].real,
                abs(m[j, :, 0, 1]),
                lambda_max[j],
                dim,
                leak,
            )
    return results


def _batch_key(cfg: JCConfig) -> tuple:
    """Configs of one key share the system, the atom start and the time grid, bit for bit."""
    return (cfg.fock_dim, cfg.omega, cfg.kappa, cfg.atom_initial, cfg.kt_grid.tobytes())


def jc_witness_traces(cfgs: Iterable[JCConfig]) -> list[JCWitnessTrace]:
    """Evolve each thermal-field start and record its witness matrix over time.

    One trace per config, in order.  Each run of consecutive configs with
    the same truncation, couplings, atom start and time grid is one batch:
    one system and stacked sector evaluations at the run's ``fock_dim``,
    each stack capped so that its (B, T, K) table stays within
    ``spaces._BLOCK_BYTES`` (:func:`_traces_at_dim`).  A config whose
    thermal start or evolution populates the top Fock levels escalates
    alone through :func:`~entwitness.spaces.escalate_fock_dim`, doubling
    the field truncation; the others keep their batch's traces.
    Consecutive batches with the same truncation and couplings share one
    system, dropped on return.  A batch of one config is the single trace.
    """
    system = functools.lru_cache(maxsize=1)(_system)
    traces = []
    for _, run in itertools.groupby(cfgs, key=_batch_key):
        batch = list(run)
        for cfg, result in zip(batch, _traces_at_dim(batch, batch[0].fock_dim, system)):

            def alone(dim, cfg=cfg, result=result):
                # the batch's result at the run's fock_dim, this config alone above it
                trace = result if dim == cfg.fock_dim else _traces_at_dim([cfg], dim, system)[0]
                if isinstance(trace, LeakageError):
                    raise trace
                return trace

            traces.append(escalate_fock_dim(alone, cfg.fock_dim))
    return traces


def jc_witness_trace(cfg: JCConfig) -> JCWitnessTrace:
    """:func:`jc_witness_traces` of one config."""
    return jc_witness_traces([cfg])[0]


def jc_vacuum_m11(kt: np.ndarray) -> np.ndarray:
    """Closed form for the zero-temperature excited-atom start: sin^2 cos^2."""
    kt = np.asarray(kt, dtype=float)
    return np.sin(kt) ** 2 * np.cos(kt) ** 2
