"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each seaqt layer (and numpy's
Hermitian eigensolvers, which every layer calls directly) by replacing the
module attributes for the duration of a traced round, then restores them.
Each call becomes a span ``[name, start, end, parent, tag]`` kept in
memory; self time is a span's duration minus the durations of its direct
children.  Counts are taken at the same boundaries.  Nothing here is
imported by the program, and untraced rounds run the unmodified code.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

# (module name, attribute, span name) for every traced boundary
SPANS = [
    ("operators", "partial_trace", "operators.partial_trace"),
    ("operators", "tensor_interleave", "operators.tensor_interleave"),
    ("states", "rho_log_rho", "states.rho_log_rho"),
    ("states", "validate", "states.validate"),
    ("sea", "sea_rhs", "sea.sea_rhs"),
    ("sea", "dissipator_anticommutator", "sea.dissipator"),
    ("sea", "entropy_production_rate", "sea.entropy_production_rate"),
    ("composite", "composite_rhs", "composite.composite_rhs"),
    ("composite", "dissipative_term", "composite.dissipative_term"),
    ("composite", "composite_entropy_production", "composite.entropy_production"),
    ("composite", "is_pure_product", "composite.is_pure_product"),
    ("composite", "reduced_state", "composite.reduced_state"),
    ("integrate", "project", "integrate.project"),
    ("equilibrium", "gibbs_state", "equilibrium.gibbs_state"),
    ("equilibrium", "solve_multipliers", "equilibrium.solve_multipliers"),
    ("lindblad", "kl_rhs", "lindblad.kl_rhs"),
    ("ensemble", "evolve_measure", "ensemble.evolve_measure"),
    ("ensemble", "measure", "ensemble.measure"),
    ("ensemble", "maxent_known_spectrum", "ensemble.maxent_known_spectrum"),
] + [("serialize", f, "serialize.decode") for f in (
    "decode_matrix", "decode_vector", "decode_state", "decode_units",
    "decode_single_model", "decode_composite_model", "decode_lindblad",
    "decode_pauli", "decode_measure")] + [
    ("serialize", f, "serialize.encode") for f in (
        "encode_matrix", "encode_state", "encode_measure")]

COUNTS = [("operators", "hermitize", "operators.hermitize")]

# span tags: extra facts recorded from a call's arguments or result (the
# result is None when the call raised)
TAGS = {
    "sea.sea_rhs": lambda args, kwargs, out: args[1].dim,
    "sea.dissipator": lambda args, kwargs, out: out is not None and not out.any(),
}

RHS_CALLS_PER_ATTEMPT = {"rk45": 7, "rk4": 4}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if tag is not None:
                    rec[4] = tag(args, kwargs, out)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _integrate(self, fn):
        """integrate() with the callables passed to it wrapped as well; the
        span is tagged with the integration method and projection mode."""
        def integrate(rho0, rhs, config, observables=None, eq_norm=None):
            rhs = self.span("integrate.rhs", rhs)
            if observables is not None and observables.g_rate is not None:
                observables = replace(observables, g_rate=self.span(
                    "integrate.observables", observables.g_rate))
            return fn(rho0, rhs, config, observables, eq_norm)

        def tag(args, kwargs, out):
            config = args[2] if len(args) > 2 else kwargs["config"]
            return config.method, config.projection
        return self.span("integrate.integrate", integrate, tag)

    @contextmanager
    def installed(self, seaqt):
        """Replace the traced attributes of ``seaqt`` and numpy, restore on exit."""
        patches = []

        def patch(obj, attr, new):
            patches.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

        for mod, attr, name in SPANS:
            obj = getattr(seaqt, mod)
            patch(obj, attr, self.span(name, getattr(obj, attr), TAGS.get(name)))
        for mod, attr, name in COUNTS:
            obj = getattr(seaqt, mod)
            patch(obj, attr, self.counter(name, getattr(obj, attr)))
        for attr in ("eigh", "eigvalsh"):
            patch(np.linalg, attr, self.span("states.eigh", getattr(np.linalg, attr)))
        patch(seaqt.integrate, "integrate", self._integrate(seaqt.integrate.integrate))
        traj = seaqt.integrate.Trajectory
        patch(traj, "to_csv", self.span("integrate.to_csv", traj.to_csv))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    def stats(self) -> dict:
        """Mergeable raw statistics of everything recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                children.setdefault(parent, []).append(i)
        out = empty_stats()
        calls, total, self_s = out["calls"], out["total"], out["self"]
        rhs_by_dim = out["sea_rhs_by_dim"]
        calls.update(self.counts)
        for i, (name, t0, t1, parent, tag) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if name == "sea.sea_rhs":
                entry = rhs_by_dim.setdefault(str(tag), [0, 0.0])
                entry[0] += 1
                entry[1] += dur
            elif name == "sea.dissipator" and tag:
                out["dissipator_zero"] += 1
            elif name == "operators.partial_trace" and \
                    self._has_ancestor(i, "composite.composite_rhs"):
                out["partial_trace_in_composite_rhs"] += 1
            elif name == "integrate.integrate" and tag is not None:
                method, projection = tag
                kids = [spans[c][0] for c in children.get(i, [])]
                accepted = kids.count("integrate.project") - (projection != "off")
                attempts = kids.count("integrate.rhs") // RHS_CALLS_PER_ATTEMPT[method]
                out["accepted_steps"] += max(0, accepted)
                out["rejected_steps"] += max(0, attempts - accepted)
                if parent >= 0 and spans[parent][0] in ("ensemble.evolve_measure",
                                                         "cli.ensemble"):
                    out["member_s"].append(dur)
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def empty_stats() -> dict:
    return {"calls": {}, "total": {}, "self": {}, "sea_rhs_by_dim": {},
            "dissipator_zero": 0, "accepted_steps": 0, "rejected_steps": 0,
            "partial_trace_in_composite_rhs": 0, "member_s": []}


def merge(stats_list) -> dict:
    """Sum raw statistics from several rounds or processes."""
    out = empty_stats()
    for st in stats_list:
        for key in ("calls", "total", "self"):
            for name, v in st[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for d, (n, t) in st["sea_rhs_by_dim"].items():
            entry = out["sea_rhs_by_dim"].setdefault(d, [0, 0.0])
            entry[0] += n
            entry[1] += t
        for key in ("dissipator_zero", "accepted_steps", "rejected_steps",
                    "partial_trace_in_composite_rhs"):
            out[key] += st[key]
        out["member_s"].extend(st["member_s"])
    return out


def layer_metrics(st: dict, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round, from merged raw statistics."""
    calls, total, self_s = st["calls"], st["total"], st["self"]

    def n(name):
        return calls.get(name, 0) / rounds

    def s(name):
        return self_s.get(name, 0.0) / rounds

    def us_per_call(name_calls, name_total):
        c = calls.get(name_calls, 0)
        return 1e6 * total.get(name_total, 0.0) / c if c else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "operators.partial_trace.calls": (n("operators.partial_trace"), "count"),
        "operators.partial_trace.self_s": (s("operators.partial_trace"), "s"),
        "operators.tensor_interleave.calls": (n("operators.tensor_interleave"), "count"),
        "operators.tensor_interleave.self_s": (s("operators.tensor_interleave"), "s"),
        "operators.hermitize.calls": (n("operators.hermitize"), "count"),
        "states.eigh.calls": (n("states.eigh"), "count"),
        "states.eigh.self_s": (s("states.eigh"), "s"),
        "states.rho_log_rho.calls": (n("states.rho_log_rho"), "count"),
        "states.rho_log_rho.self_s": (s("states.rho_log_rho"), "s"),
        "states.validate.calls": (n("states.validate"), "count"),
        "states.validate.self_s": (s("states.validate"), "s"),
        "sea.sea_rhs.calls": (n("sea.sea_rhs"), "count"),
        "sea.sea_rhs.us_per_call": (us_per_call("sea.sea_rhs", "sea.sea_rhs"), "us"),
    }
    by_dim = st["sea_rhs_by_dim"]
    for d in ("16", "32", "64"):
        c, t = by_dim.get(d, (0, 0.0))
        m[f"sea.sea_rhs.us_per_call.d{d}"] = (1e6 * t / c if c else 0.0, "us")
    m.update({
        "sea.dissipator.calls": (n("sea.dissipator"), "count"),
        "sea.dissipator.self_s": (s("sea.dissipator"), "s"),
        "sea.dissipator.zero_share": (
            ratio(st["dissipator_zero"], calls.get("sea.dissipator", 0)), "share"),
        "sea.entropy_production_rate.calls": (n("sea.entropy_production_rate"), "count"),
        "sea.entropy_production_rate.self_s": (s("sea.entropy_production_rate"), "s"),
        "composite.composite_rhs.calls": (n("composite.composite_rhs"), "count"),
        "composite.composite_rhs.us_per_call": (
            us_per_call("composite.composite_rhs", "composite.composite_rhs"), "us"),
        "composite.dissipative_term.self_s": (s("composite.dissipative_term"), "s"),
        "composite.entropy_production.self_s": (s("composite.entropy_production"), "s"),
        "composite.is_pure_product.self_s": (s("composite.is_pure_product"), "s"),
        "composite.reduced_state.calls": (n("composite.reduced_state"), "count"),
        "composite.partial_traces_per_rhs": (
            ratio(st["partial_trace_in_composite_rhs"],
                  calls.get("composite.composite_rhs", 0)), "ratio"),
        "integrate.accepted_steps": (st["accepted_steps"] / rounds, "count"),
        "integrate.rejected_steps": (st["rejected_steps"] / rounds, "count"),
        "integrate.rhs_calls": (n("integrate.rhs"), "count"),
        "integrate.rhs_per_accepted_step": (
            ratio(calls.get("integrate.rhs", 0), st["accepted_steps"]), "ratio"),
        "integrate.project.calls": (n("integrate.project"), "count"),
        "integrate.project.self_s": (s("integrate.project"), "s"),
        "integrate.observables.self_s": (s("integrate.observables"), "s"),
        "integrate.observables.total_s": (
            total.get("integrate.observables", 0.0) / rounds, "s"),
        "integrate.integrate.self_s": (s("integrate.integrate"), "s"),
        "integrate.to_csv.self_s": (s("integrate.to_csv"), "s"),
        "equilibrium.gibbs_state.calls": (n("equilibrium.gibbs_state"), "count"),
        "equilibrium.solve_multipliers.calls": (n("equilibrium.solve_multipliers"), "count"),
        "equilibrium.solve_multipliers.self_s": (s("equilibrium.solve_multipliers"), "s"),
        "lindblad.kl_rhs.calls": (n("lindblad.kl_rhs"), "count"),
        "lindblad.kl_rhs.us_per_call": (us_per_call("lindblad.kl_rhs", "lindblad.kl_rhs"), "us"),
        "ensemble.evolve_measure.self_s": (s("ensemble.evolve_measure"), "s"),
        "ensemble.member_s": (
            statistics.median(st["member_s"]) if st["member_s"] else 0.0, "s"),
        "ensemble.measure.self_s": (s("ensemble.measure"), "s"),
        "ensemble.maxent_known_spectrum.self_s": (s("ensemble.maxent_known_spectrum"), "s"),
        "serialize.decode.self_s": (s("serialize.decode"), "s"),
        "serialize.encode.self_s": (s("serialize.encode"), "s"),
    })
    return m
