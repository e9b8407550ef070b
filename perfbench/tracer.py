"""Spans around relopt's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each function in ``TARGETS`` at the module
attribute its callers resolve (``relopt.reduction.to_hybrid`` and so on) with
a wrapper that records a span, and puts the originals back on exit.  The IP
solver is wrapped through the ``IpSolver`` seam by ``Tracer.ip_solver``.

A span is ``[name, start_ns, end_ns, parent, instance, extra]``: ``parent`` is
the index of the enclosing span or -1, ``instance`` the slot the harness was
solving, and ``extra`` a count read from the call's arguments or result.
Spans stay in memory until ``write`` dumps them.  A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from time import perf_counter_ns

MARK = "_perfbench_span"


def _domain_vars(args, kwargs):
    domains = args[3] if len(args) > 3 else kwargs.get("domains")
    return len(domains) if domains else 0


def _hybrid_info(args, kwargs, result):
    info = result[1]
    return (info.get("copy_fast_path"), info.get("heavy_sets", 0))


# (module, attribute, span name, extra(args, kwargs, result) or None)
TARGETS = (
    ("relopt.reduction", "normalize_formula", "reduction.normalize", None),
    ("relopt.reduction", "remove_hyperedges", "reduction.hyperedge", None),
    ("relopt.reduction", "solve_positive_cross_edge", "reduction.side", None),
    ("relopt.reduction", "solve_cross_free_lift", "reduction.lift", None),
    # heavy-vertex solves pass one fixed variable, top-K re-solves all k
    ("relopt.reduction", "baseline_opt_restricted", "reduction.restricted",
     lambda a, kw, r: _domain_vars(a, kw)),
    ("relopt.reduction", "baseline_opt", "reduction.baseline_opt", None),
    ("relopt.reduction", "remove_parallel_edges", "reduction.parallel_edge", None),
    ("relopt.reduction", "to_hybrid", "reduction.to_hybrid", None),
    ("relopt.reduction", "solve_hybrid_with_info", "hybrid.solve", _hybrid_info),
    ("relopt.reduction", "multi_counting_opt", "fastcount.multicount", None),
    ("relopt.hybrid", "hybrid_to_basic", "hybrid.to_basic", None),
    ("relopt.hybrid", "basic_to_ip", "hybrid.to_ip", None),
    ("relopt.hybrid", "universe_reduce", "hybrid.universe_reduce", None),
    ("relopt.fastcount", "triangle_counts", "fastcount.triangle", None),
    ("relopt.baseline", "baseline_values", "baseline.values", None),
)


def installed_wrappers() -> list[str]:
    """Targets that currently hold a wrapper; empty outside ``installed()``."""
    return [
        f"{mod}.{attr}"
        for mod, attr, _, _ in TARGETS
        if hasattr(getattr(importlib.import_module(mod), attr), MARK)
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = -1

    def wrap(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, extra in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, extra))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def ip_solver(self, solver):
        from relopt.ip import IpSolver

        def tuples(args, kwargs, result):
            return math.prod(len(f) for f in args[0].families)

        return IpSolver(solver.kind, solver.ratio, self.wrap("ip.solve", solver.solve, tuples))

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, instance, extra in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "instance": instance, "extra": extra,
                }) + "\n")


def prune_frac(stages: list[dict]) -> float:
    """1 - sum(min(top_k, combos)) / sum(combos) over the lift stages."""
    lifts = [st["cross-free-lift"] for st in stages if "cross-free-lift" in st]
    combos = sum(s.get("combos", 0) for s in lifts)
    kept = sum(min(s.get("top_k", 0), s.get("combos", 0)) for s in lifts)
    return 1 - kept / combos if combos else 0.0


def layer_metrics(
    spans: list[list], stages: list[dict], factor: dict | None = None
) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``spans`` holds one ``pipeline`` root span per instance and may hold
    ``oracle`` roots; ``stages`` holds, per pipeline call, the stage
    statistics of its ``ReductionTrace``; ``factor`` maps (root span name,
    instance) to the number that scales the durations of that solve's spans.
    Every metric except ``baseline.values_*`` counts spans under ``pipeline``
    roots only.
    """
    n = len(spans)
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            root[i] = root[s[3]]
    dur = [
        (s[2] - s[1]) * (factor[(spans[root[i]][0], s[4])] if factor else 1)
        for i, s in enumerate(spans)
    ]
    child = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    in_pipe = [spans[root[i]][0] == "pipeline" for i in range(n)]

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    resolve_calls = resolve_ns = heavy_ns = heavy_sets = fast = reached = tuples = 0
    for i, (name, _, _, parent, _, extra) in enumerate(spans):
        if not in_pipe[i] and name != "baseline.values":
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[i]
        self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]
        if name == "reduction.restricted" and parent >= 0 and spans[parent][0] == "reduction.lift":
            if extra >= 2:
                resolve_calls += 1
                resolve_ns += dur[i]
            else:
                heavy_ns += dur[i]
        elif name == "hybrid.solve":
            copy_path, heavy = extra
            heavy_sets += heavy
            if copy_path is not None:
                reached += 1
                fast += bool(copy_path)
        elif name == "ip.solve":
            tuples += extra

    def ms(ns):
        return ns / 1e6

    def t(name):
        return ms(total.get(name, 0))

    lifts = [st["cross-free-lift"] for st in stages if "cross-free-lift" in st]
    ip_ns = total.get("ip.solve", 0)
    return {
        "reduction.normalize_ms": t("reduction.normalize"),
        "reduction.hyperedge_ms": t("reduction.hyperedge"),
        "reduction.side_calls": calls.get("reduction.side", 0),
        "reduction.side_ms": t("reduction.side"),
        "reduction.lift_self_ms": ms(self_ns.get("reduction.lift", 0)),
        "reduction.heavy": sum(s.get("heavy", 0) for s in lifts),
        "reduction.heavy_ms": ms(heavy_ns),
        "reduction.combos": sum(s.get("combos", 0) for s in lifts),
        "reduction.top_k": sum(s.get("top_k", 0) for s in lifts),
        "reduction.prune_frac": prune_frac(stages),
        "reduction.resolve_calls": resolve_calls,
        "reduction.resolve_ms": ms(resolve_ns),
        "reduction.parallel_edge_ms": t("reduction.parallel_edge"),
        "reduction.to_hybrid_ms": t("reduction.to_hybrid"),
        "reduction.hybrid_universe_max": max(
            (st["hybrid"].get("universe", 0) for st in stages if "hybrid" in st), default=0
        ),
        "hybrid.solve_calls": calls.get("hybrid.solve", 0),
        "hybrid.solve_self_ms": ms(self_ns.get("hybrid.solve", 0)),
        "hybrid.to_basic_ms": t("hybrid.to_basic") + t("hybrid.to_ip"),
        "hybrid.copy_fast_path_frac": fast / reached if reached else 0.0,
        "hybrid.heavy_sets": heavy_sets,
        "hybrid.universe_reduce_calls": calls.get("hybrid.universe_reduce", 0),
        "hybrid.universe_reduce_ms": t("hybrid.universe_reduce"),
        "ip.calls": calls.get("ip.solve", 0),
        "ip.solve_ms": ms(ip_ns),
        "ip.tuples": tuples,
        "ip.ns_per_tuple": ip_ns / tuples if tuples else 0.0,
        "fastcount.multicount_self_ms": ms(self_ns.get("fastcount.multicount", 0)),
        "fastcount.triangle_calls": calls.get("fastcount.triangle", 0),
        "fastcount.triangle_ms": t("fastcount.triangle"),
        "baseline.values_calls": calls.get("baseline.values", 0),
        "baseline.values_ms": t("baseline.values"),
    }
