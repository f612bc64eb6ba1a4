"""Traced run: spans around every layer's public functions, installed from outside.

The program itself records nothing.  :func:`install` replaces each public
function of the layer modules (``linalg``, ``spaces``, ``operators``,
``witnesses``, ``families``, ``search``, ``models.*``, ``cli``) with a
wrapper that records a span, and does so under every name the package binds
it to: ``cli.embed`` and ``models.jaynes_cummings.embed`` are separate
bindings of ``spaces.embed`` and are patched too.  The ``LabeledOperator``
algebra methods, the experiment runners in ``cli.EXPERIMENTS``, the U(t)
callables returned by ``propagator_family`` and the predicates handed to
``threshold_scan`` get spans of their own.

A span is (name, start_ns, end_ns, parent index, work).  ``work`` is a
computed operation count for the spans that have one: d^3 for a Hermitian
eigensolve of size d, the bytes of the full-space matrix an embedding
produced, 1 for a threshold located.  Spans stay in memory and are written
out once, when the run ends.

No layer has a queue or a second thread, so every span is busy time and
there is no waiting time to report.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("linalg", "spaces", "operators", "witnesses", "families", "search", "models", "cli")
ALGEBRA_METHODS = ("__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "dag")

# metric group -> span names; a group's calls are its outermost spans
GROUPS = {
    "linalg.herm_eig": {"linalg.herm_eig"},
    "linalg.mat_exp": {"linalg.mat_exp"},
    "linalg.partial_transpose": {"linalg.partial_transpose"},
    "spaces.embed": {"spaces.embed", "spaces.embed_many"},
    "spaces.op_algebra": {f"spaces.LabeledOperator.{m}" for m in ALGEBRA_METHODS},
    "spaces.expectation": {"spaces.expectation"},
    "spaces.propagator": {"spaces.propagator_family", "spaces.propagator_family.u_of_t"},
    "spaces.leakage": {"spaces.leakage", "spaces.require_low_leakage", "spaces.level_populations"},
    "operators.gaussian": {
        "operators.displacement",
        "operators.squeeze",
        "operators.rotation",
        "operators.gaussian_unitary",
    },
    "operators.delta": {"operators.delta"},
    "operators.states": {
        "operators.fock",
        "operators.coherent",
        "operators.squeezed_vacuum",
        "operators.thermal",
        "operators.two_mode_squeezed",
    },
    "witnesses.base": {"witnesses.cond1", "witnesses.cond2"},
    "witnesses.expanded": {
        "witnesses.witness_matrix_expand_a",
        "witnesses.witness_matrix_expand_b",
        "witnesses.bilinear_form",
    },
    "witnesses.lur": {"witnesses.lur_value"},
    "witnesses.ppt": {"witnesses.ppt_min_eig", "witnesses.ppt_crosscheck"},
    "witnesses.product_scan": {"witnesses.product_vector_scan", "witnesses.product_from_two_positive"},
    "search.threshold_scan": {"search.threshold_scan"},
    "search.predicate": {"search.predicate"},
    "cli.output": {"cli.main", "cli.build_parser"},
}
# groups defined by a span-name prefix instead of a list
PREFIX_GROUPS = {
    "families": "families.",
    "models.jc": "models.jaynes_cummings.",
    "cli.runner": "cli.runner.",
}

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("linalg.herm_eig.calls", "count", "lower", "items_per_s on squeeze-threshold; setup_s everywhere"),
    ("linalg.herm_eig.self_s", "s", "lower", "items_per_s on squeeze-threshold; setup_s everywhere"),
    ("linalg.herm_eig.d3_sum", "count", "lower", "items_per_s on squeeze-threshold; setup_s everywhere"),
    ("linalg.mat_exp.calls", "count", "lower", "items_per_s on squeeze-threshold; setup_s everywhere"),
    ("linalg.mat_exp.self_s", "s", "lower", "items_per_s on squeeze-threshold; setup_s everywhere"),
    ("linalg.partial_transpose.self_s", "s", "lower", "items_per_s on ppt-mc"),
    ("spaces.embed.calls", "count", "lower", "peak_rss_mb and items_per_s on lur-tmsv"),
    ("spaces.embed.self_s", "s", "lower", "peak_rss_mb and items_per_s on lur-tmsv"),
    ("spaces.embed.bytes_computed", "bytes", "lower", "peak_rss_mb and items_per_s on lur-tmsv"),
    ("spaces.op_algebra.calls", "count", "lower", "items_per_s on jc-trace (by count) and lur-tmsv (by size)"),
    ("spaces.op_algebra.self_s", "s", "lower", "items_per_s on jc-trace (by count) and lur-tmsv (by size)"),
    ("spaces.expectation.calls", "count", "lower", "items_per_s on jc-trace"),
    ("spaces.expectation.self_s", "s", "lower", "items_per_s on jc-trace"),
    ("spaces.propagator.calls", "count", "lower", "items_per_s on jc-trace"),
    ("spaces.propagator.self_s", "s", "lower", "items_per_s on jc-trace"),
    ("spaces.leakage.self_s", "s", "lower", "items_per_s on jc-trace"),
    ("operators.gaussian.calls", "count", "lower", "items_per_s on squeeze-threshold"),
    ("operators.gaussian.self_s", "s", "lower", "items_per_s on squeeze-threshold"),
    ("operators.delta.calls", "count", "lower", "items_per_s on jc-trace"),
    ("operators.delta.self_s", "s", "lower", "items_per_s on jc-trace"),
    ("operators.states.self_s", "s", "lower", "items_per_s on lur-tmsv; setup_s"),
    ("witnesses.base.calls", "count", "lower", "items_per_s on ppt-mc"),
    ("witnesses.base.self_s", "s", "lower", "items_per_s on ppt-mc"),
    ("witnesses.expanded.calls", "count", "lower", "items_per_s on jc-trace and squeeze-threshold"),
    ("witnesses.expanded.self_s", "s", "lower", "items_per_s on jc-trace and squeeze-threshold"),
    ("witnesses.lur.self_s", "s", "lower", "items_per_s on lur-tmsv"),
    ("witnesses.ppt.self_s", "s", "lower", "items_per_s on ppt-mc"),
    ("witnesses.product_scan.calls", "count", "lower", "items_per_s on squeeze-threshold"),
    ("witnesses.product_scan.self_s", "s", "lower", "items_per_s on squeeze-threshold"),
    ("families.self_s", "s", "lower", "items_per_s on squeeze-threshold"),
    ("search.threshold_scan.calls", "count", "lower", "items_per_s on squeeze-threshold"),
    ("search.predicate_evals", "count", "lower", "items_per_s on squeeze-threshold"),
    ("search.useful_ratio", "ratio", "higher", "items_per_s on squeeze-threshold"),
    ("models.jc.self_s", "s", "lower", "items_per_s on jc-trace"),
    ("cli.runner.self_s", "s", "lower", "items_per_s on ppt-mc and jc-trace"),
    ("cli.output.self_s", "s", "lower", "items_per_s on ppt-mc and jc-trace"),
    ("trace.spans", "count", "lower", "none: spans recorded per traced pass"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced pass time"),
    ("trace.overhead_ratio", "ratio", "lower", "none: tracing overhead over the untraced pass time"),
)


class Tracer:
    """Span recorder; one per traced process, reset at the start of each pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None, result=None):
        """Return ``fn`` recording one span per call.

        ``work(result)`` gives the span's operation count; ``result(value)``
        may replace the returned value (used to trace returned callables).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            amount = 0
            try:
                value = fn(*args, **kwargs)
                if work is not None:
                    amount = work(value)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, amount)
            return result(value) if result is not None else value

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function under every binding in the package."""
        import entwitness.cli as cli
        from entwitness.spaces import LabeledOperator

        packages = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if name == "entwitness" or name.startswith("entwitness.")
        }
        wrapped = {}
        for name, mod in packages.items():
            short = name[len("entwitness."):]
            if short.split(".")[0] not in LAYER_MODULES:
                continue
            # a model's private per-truncation helper runs as the callback of
            # spaces.escalate_fock_dim; without a span of its own, the model's
            # per-point loop would count as escalate_fock_dim's self time
            private_ok = short.startswith("models.")
            for attr, fn in vars(mod).items():
                hidden = attr.startswith("__") or (attr.startswith("_") and not private_ok)
                if hidden or not inspect.isfunction(fn) or fn.__module__ != name:
                    continue
                wrapped[id(fn)] = (fn, self._wrap_function(f"{short}.{attr}", fn))
        for mod in packages.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for method in ALGEBRA_METHODS:
            fn = vars(LabeledOperator)[method]
            self._set(LabeledOperator, method, self.wrap(f"spaces.LabeledOperator.{method}", fn))
        for exp_name, exp in list(cli.EXPERIMENTS.items()):
            traced = dataclasses.replace(exp, runner=self.wrap(f"cli.runner.{exp_name}", exp.runner))
            self._restore.append((cli.EXPERIMENTS, exp_name, exp))
            cli.EXPERIMENTS[exp_name] = traced

    def _wrap_function(self, name, fn):
        if name == "linalg.herm_eig":
            return self.wrap(name, fn, work=lambda ed: len(ed.eigenvalues) ** 3)
        if name in GROUPS["spaces.embed"]:
            return self.wrap(name, fn, work=_matrix_bytes)
        if name == "spaces.propagator_family":
            return self.wrap(name, fn, result=lambda u: self.wrap(f"{name}.u_of_t", u))
        if name == "search.threshold_scan":

            def threshold_scan(predicate, *args, **kwargs):
                return fn(self.wrap("search.predicate", predicate), *args, **kwargs)

            return self.wrap(name, functools.wraps(fn)(threshold_scan), work=lambda _: 1)
        return self.wrap(name, fn)

    def uninstall(self):
        """Put every patched binding back, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def _matrix_bytes(op) -> int:
    return int(getattr(getattr(op, "matrix", None), "nbytes", 0))


@functools.lru_cache(maxsize=None)
def group_of(name: str) -> str | None:
    for group, names in GROUPS.items():
        if name in names:
            return group
    for group, prefix in PREFIX_GROUPS.items():
        if name.startswith(prefix):
            return group
    return None


def pass_metrics(spans: list) -> dict:
    """Per-layer counts and self times (seconds) of one traced pass."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    groups = [group_of(span[0]) for span in spans]
    calls: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    work: dict = defaultdict(int)
    outer_work: dict = defaultdict(int)
    for i, (name, start, end, parent, amount) in enumerate(spans):
        group = groups[i]
        if group is None:
            continue
        self_ns[group] += (end - start) - covered[i]
        work[group] += amount
        if parent < 0 or groups[parent] != group:
            calls[group] += 1
            outer_work[group] += amount
    out = {}
    for group in list(GROUPS) + list(PREFIX_GROUPS):
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_s"] = self_ns[group] / 1e9
    out["linalg.herm_eig.d3_sum"] = work["linalg.herm_eig"]
    out["spaces.embed.bytes_computed"] = outer_work["spaces.embed"]
    evals = calls["search.predicate"]
    out["search.predicate_evals"] = evals
    out["search.useful_ratio"] = work["search.threshold_scan"] / evals if evals else 0.0
    out["trace.spans"] = len(spans)
    return out


def write_spans(path, spans: list):
    """One line per span: index, name, start_ns, end_ns, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent}\n")
