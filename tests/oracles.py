"""Independent brute-force oracles and random instance helpers for tests.

Everything here deliberately avoids the engine's solver code paths: counting
is done by plain nested loops (or numpy tensor sums), so the oracles stay
independent of the implementations they check.
"""
from __future__ import annotations

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

import numpy as np

from relopt.formula import OptFormula, evaluate_body, parse_formula
from relopt.structure import RelationalStructure, build_structure


def nested_loop_values(structure, formula, domains=None):
    """Val for every opt tuple by exhaustive enumeration of all variables."""
    doms = {}
    everything = tuple(range(structure.n))
    for v in formula.opt_vars + formula.count_vars:
        doms[v] = tuple(domains[v]) if domains and v in domains else everything
    out = {}
    for xs in product(*(doms[v] for v in formula.opt_vars)):
        asn = dict(zip(formula.opt_vars, xs))
        total = 0
        for ys in product(*(doms[v] for v in formula.count_vars)):
            asn.update(zip(formula.count_vars, ys))
            total += evaluate_body(formula, structure, asn)
        out[xs] = total
    return out


def nested_loop_opt(structure, formula, domains=None):
    table = nested_loop_values(structure, formula, domains)
    if not table:
        return None
    best = None
    for key in sorted(table):
        val = table[key]
        if best is None or (val > best[0] if formula.kind == "max" else val < best[0]):
            best = (val, key)
    return best


def guarded_opt(structure, formula, domains, guard):
    """The best value over the optimization tuples that pass the guard, with
    the least witness, by a nested loop that counts only those tuples; None
    if no tuple passes.  A domain is read as a set, as the engine reads it."""
    everything = range(structure.n)
    doms = {
        v: sorted(set(domains[v])) if domains and v in domains else everything
        for v in formula.opt_vars + formula.count_vars
    }
    checks = [(atom.args, structure.relation(atom.pred).records, want) for atom, want in guard]
    best = None
    for xs in product(*(doms[v] for v in formula.opt_vars)):
        asn = dict(zip(formula.opt_vars, xs))
        if any((tuple(asn[v] for v in args) in records) != want for args, records, want in checks):
            continue
        value = 0
        for ys in product(*(doms[v] for v in formula.count_vars)):
            asn.update(zip(formula.count_vars, ys))
            value += evaluate_body(formula, structure, asn)
        # tuples come in lexicographic order: only a strict gain moves the best
        if best is None or (value > best[0] if formula.kind == "max" else value < best[0]):
            best = (value, xs)
    return best


def triangle_counts_naive(nx, ny, nz, xy, xz, yz, table):
    """Cubic count of phi(E(x,y), E(x,z), E(y,z)) pairs per x, via numpy.

    ``table`` is an 8-entry sequence indexed by (a1 << 2) | (a2 << 1) | a3.
    """
    A = np.zeros((nx, ny), dtype=np.int64)
    B = np.zeros((nx, nz), dtype=np.int64)
    C = np.zeros((ny, nz), dtype=np.int64)
    for i, j in xy:
        A[i, j] = 1
    for i, j in xz:
        B[i, j] = 1
    for i, j in yz:
        C[i, j] = 1
    out = np.zeros(nx, dtype=np.int64)
    for a1 in (0, 1):
        for a2 in (0, 1):
            for a3 in (0, 1):
                if not table[(a1 << 2) | (a2 << 1) | a3]:
                    continue
                Am = A if a1 else 1 - A
                Bm = B if a2 else 1 - B
                Cm = C if a3 else 1 - C
                # count over (y, z): Am[x,y] * Cm[y,z] * Bm[x,z]
                out += ((Am @ Cm) * Bm).sum(axis=1)
    return out.tolist()


def hybrid_val_naive(instance, chosen):
    """Total value of a family tuple by direct per-element membership tests."""
    sets = [instance.families[i][si] for i, si in enumerate(chosen)]
    total = 0
    per_tau = {}
    for u in range(instance.size):
        tau = instance.element_types[u]
        ok = all((u in sets[i]) == bool(tau >> i & 1) for i in range(instance.k))
        if ok:
            per_tau[tau] = per_tau.get(tau, 0) + 1
            total += 1
    return per_tau, total


def hybrid_opt_naive(instance):
    """Exhaustive optimum over all family tuples."""
    if any(not fam for fam in instance.families):
        return None
    best = None
    for chosen in product(*(range(len(f)) for f in instance.families)):
        _, total = hybrid_val_naive(instance, chosen)
        if best is None or (
            total > best[0] if instance.kind == "max" else total < best[0]
        ):
            best = (total, chosen)
    return best


def random_hybrid(
    rng: random.Random,
    k: int,
    universe: int,
    max_set: int = 5,
    max_family: int = 4,
    kind: str | None = None,
):
    from relopt.hybrid import HybridInstance

    types = [rng.randrange(1 << k) for _ in range(universe)]
    families = []
    for _ in range(k):
        fam = []
        for _ in range(rng.randint(1, max_family)):
            size = rng.randint(0, min(max_set, universe))
            fam.append(frozenset(rng.sample(range(universe), size)) if universe else frozenset())
        families.append(fam)
    return HybridInstance(k, kind or rng.choice(["max", "min"]), types, families)


# --- the lift's grouping, object by object ----------------------------------

def greedy_groups(structure: RelationalStructure, objects, threshold: int):
    """Greedy partition of ``objects`` into contiguous runs of their sorted
    order: a run closes once its total degree exceeds the threshold, so every
    group but the last has degree above it.  The reference of the lift's
    grouping rule."""
    groups = []
    cur: list[int] = []
    cur_deg = 0
    for v in sorted(objects):
        cur.append(v)
        cur_deg += structure.degree(v)
        if cur_deg > threshold:
            groups.append(tuple(cur))
            cur, cur_deg = [], 0
    if cur:
        groups.append(tuple(cur))
    return tuple(groups)


# --- random instance generation for module tests ---------------------------

def random_structure(
    rng: random.Random,
    n_objects: int,
    binary: int = 2,
    unary: int = 1,
    ternary: int = 0,
    density: float = 0.25,
) -> RelationalStructure:
    labels = [f"o{i}" for i in range(n_objects)]
    rels = {}
    arities = {}
    for b in range(binary):
        name = f"E{b}"
        recs = set()
        target = max(1, int(density * n_objects * n_objects))
        for _ in range(rng.randint(1, target)):
            recs.add((rng.randrange(n_objects), rng.randrange(n_objects)))
        rels[name] = recs
        arities[name] = 2
    for u in range(unary):
        name = f"P{u}"
        rels[name] = {(i,) for i in range(n_objects) if rng.random() < 0.5}
        arities[name] = 1
    for t in range(ternary):
        name = f"R{t}"
        recs = set()
        for _ in range(rng.randint(1, max(1, n_objects))):
            recs.add(
                (
                    rng.randrange(n_objects),
                    rng.randrange(n_objects),
                    rng.randrange(n_objects),
                )
            )
        rels[name] = recs
        arities[name] = 3
    return build_structure(labels, rels, arities)


def random_body_text(
    rng: random.Random,
    opt_vars,
    count_vars,
    binary: int = 2,
    unary: int = 1,
    ternary: int = 0,
    allow_cross: bool = True,
    size: int = 4,
) -> str:
    """A random body over the predicate pool of random_structure."""
    pool = []
    for b in range(binary):
        for x in opt_vars:
            for y in count_vars:
                pool.append(f"E{b}({x},{y})")
                pool.append(f"E{b}({y},{x})")
        if allow_cross and len(opt_vars) >= 2:
            for i, x in enumerate(opt_vars):
                for x2 in opt_vars[i + 1 :]:
                    pool.append(f"E{b}({x},{x2})")
    for u in range(unary):
        for v in list(opt_vars) + list(count_vars):
            pool.append(f"P{u}({v})")
    for t in range(ternary):
        for x in opt_vars:
            for y in count_vars:
                x2 = opt_vars[(opt_vars.index(x) + 1) % len(opt_vars)]
                pool.append(f"R{t}({x},{x2},{y})")

    def gen(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.4:
            leaf = rng.choice(pool)
            return f"!{leaf}" if rng.random() < 0.3 else leaf
        op = rng.choice(["&", "|"])
        return f"({gen(depth - 1)} {op} {gen(depth - 1)})"

    parts = [gen(2) for _ in range(rng.randint(1, size))]
    op = rng.choice([" & ", " | "])
    return op.join(parts)


def random_instance(
    rng: random.Random,
    k: int = 2,
    ell: int = 1,
    n_objects: int = 8,
    kind: str | None = None,
    **kw,
):
    structure = random_structure(
        rng,
        n_objects,
        binary=kw.get("binary", 2),
        unary=kw.get("unary", 1),
        ternary=kw.get("ternary", 0),
        density=kw.get("density", 0.25),
    )
    opt_vars = tuple(f"x{i+1}" for i in range(k))
    count_vars = tuple(f"y{j+1}" for j in range(ell))
    body = random_body_text(
        rng,
        opt_vars,
        count_vars,
        binary=kw.get("binary", 2),
        unary=kw.get("unary", 1),
        ternary=kw.get("ternary", 0),
        allow_cross=kw.get("allow_cross", True),
        size=kw.get("size", 4),
    )
    kind = kind or rng.choice(["max", "min"])
    text = f"{kind} {','.join(opt_vars)} . count {','.join(count_vars)} . {body}"
    return structure, parse_formula(text)


# --- sparse instances on which the cross-edge lift prunes ---------------------

SPARSE_LIFT_BODY = "E0(x1,y1) & (E0(x2,y1) | P0(y1)) & !E1(x1,x2)"


def sparse_lift_instances(count: int = 8):
    """Seeded sparse instances of a body with one cross atom, alternately max
    and min, over 40-64 objects: P0 on half of them and 3/4 of a binary record
    per object, no object in more than 3 records.  With m = 5n/4 the lift's
    degree threshold ceil(m^(1/3)) is 4, so no vertex is heavy, the g groups
    give g^2 combinations well above the K = m + 1 it re-solves, and the IP
    values alone choose which combinations those are."""
    out = []
    for i in range(count):
        rng = random.Random(f"sparse-lift/{i}")
        n = 40 + 8 * (i // 2 % 4)
        marked = rng.sample(range(n), n // 2)
        degree = [0] * n
        for v in marked:
            degree[v] += 1
        binary: set[tuple[int, int, int]] = set()
        while len(binary) < 3 * n // 4:
            rec = (rng.randrange(2), rng.randrange(n), rng.randrange(n))
            ends = set(rec[1:])
            if rec in binary or any(degree[v] >= 3 for v in ends):
                continue
            binary.add(rec)
            for v in ends:
                degree[v] += 1
        rels = {f"E{b}": {(a, c) for bb, a, c in binary if bb == b} for b in range(2)}
        rels["P0"] = {(v,) for v in marked}
        structure = build_structure(
            [f"o{v}" for v in range(n)], rels, {"E0": 2, "E1": 2, "P0": 1}
        )
        kind = ("max", "min")[i % 2]
        out.append(
            (structure, parse_formula(f"{kind} x1,x2 . count y1 . {SPARSE_LIFT_BODY}"))
        )
    return out


def bench_instances():
    """The benchmark's ``perfbench/instances.py`` module, whose
    ``instance_texts(workload, seed)`` draws a workload's instance set."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
