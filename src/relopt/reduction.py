"""The simplification chain for single-counting-variable formulas: hyperedge
removal, cross-edge elimination with grouped top-K re-solving, conversion to
the Hybrid Problem, and the end-to-end driver.

The lift's scores only choose which K of its g^k group combinations get an
exact re-solve, so the driver runs it only where g^k > K and answers every
other main problem with its guarded baseline query.

The paper merges the r binary edge predicates into one ("parallel-edge
removal") before the hybrid conversion; ``to_hybrid`` does both in one pass
from the pair colours.  ``remove_parallel_edges`` stays as the paper's lemma:
``relopt reduce`` dumps its output and the tests check it, but no solve
calls it.

Guard handling: each removal step excludes some optimization tuples from the
main problem and hands them to exactly solved side problems.  For maximization
a conjunction of negated literals inside the body would do, but a masked tuple
evaluates to 0, which is not neutral for minimization.  Guards therefore
travel beside the body as explicit (atom, expected) literals and every solver
in the chain skips tuples that fail them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Sequence

from .baseline import (
    OptResult,
    PreparedBaseline,
    ProjectedAtom,
    _atom_truth,
    baseline_opt,
    baseline_opt_restricted,
    guard_holds,
    opt_of_table,
    resolve_domains,
)
from .errors import ContractError, ResourceLimitError
from .fastcount import multi_counting_opt
from .formula import (
    And,
    Atom,
    Const,
    Expr,
    Not,
    OptFormula,
    atoms_of,
    classify,
    conjoin,
    conjuncts,
    disjoin,
    eval_expr_table,
    map_atoms,
    substitute_atoms,
)
from .hybrid import HybridInstance, solve_hybrid_with_info
from .ip import IpSolver
from .structure import ObjectId, Relation, RelationalStructure

Guard = tuple[tuple[Atom, bool], ...]
Domains = Mapping[str, Sequence[ObjectId]]

SLOT_SEP = "@"
COPY_SEP = "#"
DEFAULT_R_CAP = 4
SIGMA_CAP = 1 << 16


def _fresh(name: str, taken) -> str:
    while name in taken:
        name = "_" + name
    return name


def combine_results(kind: str, results) -> OptResult | None:
    """Optimum over sub-results, ties broken by lexicographic witness."""
    return opt_of_table(
        {res.witness: res.value for res in results if res is not None}, kind
    )


# --- repeated-variable and orientation normalization ------------------------

def normalize_formula(
    structure: RelationalStructure, formula: OptFormula
) -> tuple[RelationalStructure, OptFormula]:
    """Collapse atoms with repeated variables into derived lower-arity
    predicates and orient every opt/count binary atom as (x, y).

    After this pass every atom has pairwise distinct arguments, so an atom is
    a hyperedge exactly when it has three or more arguments.
    """
    new_relations = dict(structure.relations)
    derived: dict[tuple, str] = {}
    opt = set(formula.opt_vars)
    cnt = set(formula.count_vars)

    def rewrite(atom: Atom) -> Atom:
        args = atom.args
        distinct = tuple(dict.fromkeys(args))
        if len(distinct) != len(args):
            pattern = tuple(distinct.index(v) for v in args)
            key = ("collapse", atom.pred, pattern)
            name = derived.get(key)
            if name is None:
                name = _fresh(
                    f"{atom.pred}_d{''.join(str(p) for p in pattern)}", new_relations
                )
                derived[key] = name
                rel = structure.relation(atom.pred)
                recs = set()
                for rec in rel.records:
                    vals = {}
                    ok = True
                    for pos, x in zip(pattern, rec):
                        if vals.setdefault(pos, x) != x:
                            ok = False
                            break
                    if ok:
                        recs.add(tuple(vals[i] for i in range(len(distinct))))
                new_relations[name] = Relation(name, len(distinct), frozenset(recs))
            atom = Atom(name, distinct)
        if (
            len(atom.args) == 2
            and atom.args[0] in cnt
            and atom.args[1] in opt
        ):
            key = ("reverse", atom.pred)
            name = derived.get(key)
            if name is None:
                name = _fresh(f"{atom.pred}_rev", new_relations)
                derived[key] = name
                rel = new_relations[atom.pred]
                recs = frozenset((b, a) for a, b in rel.records)
                new_relations[name] = Relation(name, 2, recs)
            atom = Atom(name, (atom.args[1], atom.args[0]))
        return atom

    body = map_atoms(formula.body, rewrite)
    if body == formula.body:
        return structure, formula
    return (
        RelationalStructure(structure.labels, new_relations),
        formula.with_body(body),
    )


# --- positive-cross-edge exact solver ---------------------------------------

class _CountOverY:
    """Counts #{y : body} for a full assignment of the optimization variables
    in O(candidate neighbourhood) after one shared indexing pass."""

    def __init__(self, structure: RelationalStructure, formula: OptFormula):
        self.structure = structure
        self.formula = formula
        self.y = formula.count_vars[0]
        self.atoms = tuple(dict.fromkeys(atoms_of(formula.body)))
        fixed_vars = set(formula.opt_vars)
        self.fixed_atoms = [a for a in self.atoms if self.y not in a.args]
        self.y_atoms = [a for a in self.atoms if self.y in a.args]
        self.y_proj = [
            ProjectedAtom(structure, a, fixed_vars, (self.y,)) for a in self.y_atoms
        ]
        self._memo: dict[tuple, bool] = {}

    def _phi(self, fixed_bits: int, y_bits: int) -> bool:
        key = (fixed_bits, y_bits)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        values = {a: bool(fixed_bits >> i & 1) for i, a in enumerate(self.fixed_atoms)}
        for i, a in enumerate(self.y_atoms):
            values[a] = bool(y_bits >> i & 1)
        out = eval_expr_table(self.formula.body, values)
        self._memo[key] = out
        return out

    def count(self, asn: Mapping[str, ObjectId], dom_y: Sequence[ObjectId]) -> int:
        fixed_bits = 0
        for i, a in enumerate(self.fixed_atoms):
            if _atom_truth(self.structure, a, asn):
                fixed_bits |= 1 << i
        y_sets = [p.query(asn) for p in self.y_proj]
        dom = set(dom_y)
        candidates: dict[ObjectId, int] = {}
        for i, s in enumerate(y_sets):
            for (yv,) in s:
                if yv in dom:
                    candidates[yv] = candidates.get(yv, 0) | 1 << i
        total = sum(1 for bits in candidates.values() if self._phi(fixed_bits, bits))
        if self._phi(fixed_bits, 0):
            total += len(dom) - len(candidates)
        return total


def solve_positive_cross_edge(
    structure: RelationalStructure,
    formula: OptFormula,
    forced: Atom,
    domains: Domains | None = None,
    extra_guard: Guard = (),
    include_edgeless_pairs: bool = True,
) -> OptResult | None:
    """Exact solver for bodies of the shape E(x_i, x_j) & phi'.

    With ``include_edgeless_pairs`` (the formula semantics) every tuple
    participates and pairs without the forced edge have value 0.  The
    decomposition passes False to optimize over forced-edge tuples only, plus
    an accumulated guard.  Uses the heavy/heavy/light-light degree split.
    """
    if formula.ell != 1:
        raise ContractError("positive-cross-edge solver needs exactly one count variable")
    if forced not in conjuncts(formula.body):
        raise ContractError("forced atom must be a top-level conjunct of the body")
    if len(forced.args) != 2 or forced.args[0] == forced.args[1]:
        raise ContractError("forced atom must be binary over two distinct variables")
    xi, xj = forced.args
    if xi not in formula.opt_vars or xj not in formula.opt_vars:
        raise ContractError("forced atom must relate two optimization variables")

    doms = resolve_domains(structure, formula, domains)
    m = structure.m
    erel = structure.relation(forced.pred)

    def is_heavy(v: ObjectId) -> bool:
        d = structure.degree(v)
        return d * d >= m

    guard_all: Guard = tuple(extra_guard) + ((forced, True),)
    others = [v for v in formula.opt_vars if v not in (xi, xj)]
    counter = _CountOverY(structure, formula)
    candidates: list[OptResult] = []
    sub_guard = tuple(extra_guard) if include_edgeless_pairs else guard_all
    evaluator: PreparedBaseline | None = None  # built at the first heavy endpoint

    def sub_opt(fixed: dict[str, ObjectId]) -> OptResult | None:
        nonlocal evaluator
        if evaluator is None:
            evaluator = PreparedBaseline(structure, formula)
        sub_domains = dict(doms)
        for var, v in fixed.items():
            sub_domains[var] = (v,)
        return evaluator.opt(sub_domains, sub_guard)

    def run_core(other_asn: dict[str, ObjectId]):
        # case 1 and 2: a heavy endpoint is brute-forced with the baseline
        for var in (xi, xj):
            for v in doms[var]:
                if is_heavy(v):
                    res = sub_opt({**other_asn, var: v})
                    if res is not None:
                        candidates.append(res)
        # case 3: light-light pairs carrying the forced edge
        di, dj = set(doms[xi]), set(doms[xj])
        for a, b in sorted(erel.records):
            if a not in di or b not in dj or is_heavy(a) or is_heavy(b):
                continue
            asn = {**other_asn, xi: a, xj: b}
            if not guard_holds(structure, extra_guard, asn):
                continue
            value = counter.count(asn, doms[formula.count_vars[0]])
            witness = tuple(asn[v] for v in formula.opt_vars)
            candidates.append(OptResult(value, witness))
        # light-light pairs without the edge all have value 0; the first one
        # that passes the guard stands for them
        if include_edgeless_pairs:
            edgeless = (
                {**other_asn, xi: a, xj: b}
                for a in doms[xi] if not is_heavy(a)
                for b in doms[xj] if not is_heavy(b) and (a, b) not in erel.records
            )
            for asn in edgeless:
                if guard_holds(structure, extra_guard, asn):
                    witness = tuple(asn[v] for v in formula.opt_vars)
                    candidates.append(OptResult(0, witness))
                    break

    if others:
        for combo in product(*(doms[v] for v in others)):
            run_core(dict(zip(others, combo)))
    else:
        run_core({})
    return combine_results(formula.kind, candidates)


# --- step 1: hyperedge removal ----------------------------------------------

@dataclass(frozen=True)
class SideProblem:
    structure: RelationalStructure
    formula: OptFormula
    forced: Atom


@dataclass(frozen=True)
class DecompositionPlan:
    """Main simplified instance plus exactly solvable side problems; the
    original optimum is the combiner over all sub-optima."""

    main_structure: RelationalStructure
    main_core: OptFormula  # body without the guard literals
    main_guard: Guard
    side_problems: tuple[SideProblem, ...]
    combiner: str

    @property
    def main_formula(self) -> OptFormula:
        guard_expr = [
            Atom(a.pred, a.args) if want else Not(Atom(a.pred, a.args))
            for a, want in self.main_guard
        ]
        return self.main_core.with_body(
            conjoin(guard_expr + [self.main_core.body])
        )


def remove_hyperedges(
    structure: RelationalStructure, formula: OptFormula
) -> DecompositionPlan:
    """Replace hyperpredicates by false in the main problem, guarded by
    non-adjacency in a fresh co-occurrence relation N; every pair of
    optimization variables gets an exactly solvable side problem."""
    if formula.ell != 1:
        raise ContractError("hyperedge removal expects exactly one count variable")
    structure, formula = normalize_formula(structure, formula)
    hyper = [a for a in dict.fromkeys(atoms_of(formula.body)) if len(a.args) >= 3]
    if not hyper:
        return DecompositionPlan(structure, formula, (), (), formula.kind)

    opt = set(formula.opt_vars)
    n_records = set()
    for atom in hyper:
        rel = structure.relation(atom.pred)
        opt_positions = [p for p, v in enumerate(atom.args) if v in opt]
        for rec in rel.records:
            vals = [rec[p] for p in opt_positions]
            for a in vals:
                for b in vals:
                    n_records.add((a, b))
    n_name = _fresh("N", structure.relations)
    relations = dict(structure.relations)
    relations[n_name] = Relation(n_name, 2, frozenset(n_records))
    main_structure = RelationalStructure(structure.labels, relations)

    phi0 = substitute_atoms(
        formula.body, {a: Const(False) for a in hyper}
    )
    guard = tuple(
        (Atom(n_name, (formula.opt_vars[i], formula.opt_vars[j])), False)
        for i in range(formula.k)
        for j in range(i + 1, formula.k)
    )
    sides = tuple(
        SideProblem(
            main_structure,
            formula.with_body(And(atom, formula.body)),
            atom,
        )
        for atom, _ in guard
    )
    return DecompositionPlan(
        main_structure, formula.with_body(phi0), guard, sides, formula.kind
    )


# --- step 2: cross-edge elimination (the grouped lift) -----------------------

@dataclass(frozen=True)
class GroupPartition:
    """Greedy partition of the light vertices; the same partition applies to
    every optimization variable's domain.  Total degree per group is at most
    twice the threshold."""

    threshold: int
    groups: tuple[tuple[ObjectId, ...], ...]


def build_group_partition(
    structure: RelationalStructure, light: Sequence[ObjectId], threshold: int
) -> GroupPartition:
    groups = []
    cur: list[ObjectId] = []
    cur_deg = 0
    for v in sorted(light):
        cur.append(v)
        cur_deg += structure.degree(v)
        if cur_deg > threshold:
            groups.append(tuple(cur))
            cur, cur_deg = [], 0
    if cur:
        groups.append(tuple(cur))
    return GroupPartition(threshold, tuple(groups))


@dataclass(frozen=True)
class LiftGrouping:
    """The lift's split of the objects for k optimization variables: vertices
    of degree at least ``ceil(m^(1/(k+1)))`` are heavy, the light ones are
    grouped, and ``bound`` is K = C(k,2)·m·n^(k-2) + 1, the number of the g^k
    group combinations (``combos``) that the scores select for re-solving."""

    heavy: tuple[ObjectId, ...]
    partition: GroupPartition
    combos: int
    bound: int

    @property
    def prunes(self) -> bool:
        return self.combos > self.bound


def lift_grouping(structure: RelationalStructure, k: int) -> LiftGrouping:
    m, n = structure.m, structure.n
    threshold = math.ceil(m ** (1.0 / (k + 1))) if m else 0
    heavy = tuple(v for v in range(n) if structure.degree(v) >= threshold)
    light = [v for v in range(n) if structure.degree(v) < threshold]
    partition = build_group_partition(structure, light, threshold)
    bound = math.comb(k, 2) * m * (n ** (k - 2) if k >= 2 else 0) + 1
    return LiftGrouping(heavy, partition, len(partition.groups) ** k, bound)


def split_cross_atoms(formula: OptFormula) -> tuple[list[Atom], OptFormula]:
    """The cross atoms of the body (binary over two distinct optimization
    variables) and the cross-free core, the body with each of them false."""
    opt = set(formula.opt_vars)
    cross = [
        a
        for a in dict.fromkeys(atoms_of(formula.body))
        if len(a.args) == 2
        and a.args[0] in opt
        and a.args[1] in opt
        and a.args[0] != a.args[1]
    ]
    core = formula.with_body(
        substitute_atoms(formula.body, {a: Const(False) for a in cross})
    )
    return cross, core


Groups = Sequence[Sequence[ObjectId]]
Scorer = Callable[[Groups], Sequence["int | None"]]
PrepareScorer = Callable[[RelationalStructure, OptFormula], Scorer]


def solve_cross_free_lift(
    structure: RelationalStructure,
    formula: OptFormula,
    prepare: PrepareScorer,
    guard: Guard = (),
    top_k: int | None = None,
    stats_out: dict | None = None,
) -> OptResult | None:
    """Eliminate cross edges: exact side problems per cross atom, heavy-vertex
    brute force, grouped relaxed scoring, and exact top-K re-solving under the
    guarded main body.  The re-solve makes one exact query per slot prefix:
    the selected combinations that share their first k-1 groups are solved
    together, over the union of their last groups.

    ``prepare(structure, core)`` is called once, when there is at least one
    group, and returns the scorer of the cross-free core.  The scorer is
    called once, with the groups, and returns the relaxed value of every
    combination of groups (group ci as the domain of the i-th optimization
    variable) in ``itertools.product`` order, None where none exists.
    ``top_k`` overrides the number of re-solved combinations (testing only).
    """
    if formula.ell != 1:
        raise ContractError("the lift expects exactly one count variable")
    k = formula.k
    cross, core = split_cross_atoms(formula)
    candidates: list[OptResult] = []

    # (1) exact side problems, one per cross atom
    for atom in cross:
        side = solve_positive_cross_edge(
            structure,
            formula.with_body(And(atom, formula.body)),
            atom,
            extra_guard=guard,
            include_edgeless_pairs=False,
        )
        if side is not None:
            candidates.append(side)

    full_guard: Guard = tuple(guard) + tuple((a, False) for a in cross)
    # one evaluator of the guarded core serves steps (2) and (5)
    evaluator = PreparedBaseline(structure, core)

    # (2) heavy vertices: fix and solve the residual problem with the baseline
    grouping = lift_grouping(structure, k)
    for v in grouping.heavy:
        for var in formula.opt_vars:
            res = evaluator.opt({var: (v,)}, full_guard)
            if res is not None:
                candidates.append(res)

    # (3) the groups of the light vertices
    groups = grouping.partition.groups
    stats = {} if stats_out is None else stats_out
    stats.update(
        threshold=grouping.partition.threshold,
        heavy=len(grouping.heavy),
        heavy_solves=len(grouping.heavy) * k,
        groups=len(groups),
        m=structure.m,
        n=structure.n,
    )

    if groups:
        # (4) score every group combination on the relaxed body
        scores = prepare(structure, core)(groups)
        combos = product(range(len(groups)), repeat=k)
        scored = [
            (value, combo)
            for combo, value in zip(combos, scores, strict=True)
            if value is not None
        ]
        if top_k is None:
            top_k = min(grouping.combos, grouping.bound)
        reverse = formula.kind == "max"
        scored.sort(key=lambda vc: ((-vc[0] if reverse else vc[0]), vc[1]))
        selected = scored[:top_k]

        # (5) exact re-solve of the selected combinations under the guard, one
        # query per prefix combo[:-1]: the last slot's domain is the union of
        # the prefix's selected groups, which are disjoint, so the query covers
        # exactly the tuples of those combinations, and its best value and
        # least witness are those of their per-combination optima
        last_groups: dict[tuple[int, ...], list[int]] = {}
        for _, combo in selected:
            last_groups.setdefault(combo[:-1], []).append(combo[-1])
        stats.update(
            combos=len(scored),
            top_k=top_k,
            resolves=len(selected),
            resolve_queries=len(last_groups),
        )
        *prefix_vars, last_var = formula.opt_vars
        for prefix, lasts in last_groups.items():
            domains = {var: groups[ci] for var, ci in zip(prefix_vars, prefix)}
            domains[last_var] = [v for ci in sorted(lasts) for v in groups[ci]]
            res = evaluator.opt(domains, full_guard)
            if res is not None:
                candidates.append(res)

    return combine_results(formula.kind, candidates)


# --- parallel-edge removal, the paper's lemma (off the solve path) -----------

def _slot_label(label: str, slot: int) -> str:
    return f"{label}{SLOT_SEP}{slot + 1}"


def _copy_label(label: str, pattern_index: int) -> str:
    return f"{label}{COPY_SEP}{pattern_index}"


def remove_parallel_edges(
    structure: RelationalStructure,
    formula: OptFormula,
    r_cap: int = DEFAULT_R_CAP,
) -> tuple[RelationalStructure, OptFormula]:
    """Combine the r binary opt/count predicates into one edge predicate.

    Every object v is cloned once per optimization slot (labelled ``v@i``,
    marked by a fresh unary predicate per slot) and copied once per color
    tuple alpha in ({0,1}^r)^k (labelled ``v#j``, marked C_j).  An edge
    (x-clone at slot i, copy y_alpha) exists iff alpha_i is the exact color of
    (x, y) or alpha_i = 0 with a nonzero color.  Slot markers keep the shared
    object domain from mixing slots; tuple values are preserved under the
    slot-clone back-map.
    """
    if formula.ell != 1:
        raise ContractError("parallel-edge removal expects one count variable")
    structure, formula = normalize_formula(structure, formula)
    k = formula.k
    y = formula.count_vars[0]
    opt = set(formula.opt_vars)
    atoms = tuple(dict.fromkeys(atoms_of(formula.body)))
    for a in atoms:
        if len(a.args) >= 3:
            raise ContractError("hyperpredicates must be removed first")
        if len(a.args) == 2 and set(a.args) <= opt:
            raise ContractError("cross predicates must be removed first")
    edge_preds = sorted(
        {a.pred for a in atoms if len(a.args) == 2 and a.args[1] == y}
    )
    r = len(edge_preds)
    if r > r_cap:
        raise ResourceLimitError(
            f"{r} parallel edge predicates would blow the universe up by "
            f"2^{r * k}; raise r_cap only if that is affordable"
        )
    patterns = list(product(range(1 << r), repeat=k))

    # colors of all (object, object) pairs over the edge predicates
    pair_color: dict[tuple[ObjectId, ObjectId], int] = {}
    for bit, pred in enumerate(edge_preds):
        for a, b in structure.relation(pred).records:
            pair_color[a, b] = pair_color.get((a, b), 0) | 1 << bit

    n = structure.n
    labels: list[str] = []
    clone_id: dict[tuple[ObjectId, int], int] = {}
    copy_id: dict[tuple[ObjectId, int], int] = {}
    for v in range(n):
        for i in range(k):
            clone_id[v, i] = len(labels)
            labels.append(_slot_label(structure.labels[v], i))
    for v in range(n):
        for pi in range(len(patterns)):
            copy_id[v, pi] = len(labels)
            labels.append(_copy_label(structure.labels[v], pi))

    relations: dict[str, frozenset] = {}
    arities: dict[str, int] = {}
    taken = set(structure.relations)

    slot_names = []
    for i in range(k):
        name = _fresh(f"slot{i + 1}", taken)
        taken.add(name)
        slot_names.append(name)
        relations[name] = frozenset((clone_id[v, i],) for v in range(n))
        arities[name] = 1
    copy_names = []
    for pi in range(len(patterns)):
        name = _fresh(f"C{pi}", taken)
        taken.add(name)
        copy_names.append(name)
        relations[name] = frozenset((copy_id[v, pi],) for v in range(n))
        arities[name] = 1

    # original unary predicates are inherited by clones and copies
    unary_preds = sorted(
        {a.pred for a in atoms if len(a.args) == 1}
    )
    for pred in unary_preds:
        members = structure.unary_members(pred)
        recs = set()
        for v in members:
            recs.update((clone_id[v, i],) for i in range(k))
            recs.update((copy_id[v, pi],) for pi in range(len(patterns)))
        relations[pred] = frozenset(recs)
        arities[pred] = 1

    e_name = _fresh("E", taken)
    taken.add(e_name)
    edges = set()
    for (v, w), color in pair_color.items():
        for i in range(k):
            vc = clone_id[v, i]
            for pi, alpha in enumerate(patterns):
                if alpha[i] == color or alpha[i] == 0:
                    edges.add((vc, copy_id[w, pi]))
    relations[e_name] = frozenset(edges)
    arities[e_name] = 2

    rels = {
        name: Relation(name, arities[name], recs)
        for name, recs in relations.items()
    }
    new_structure = RelationalStructure(tuple(labels), rels)

    disjuncts = []
    for pi, alpha in enumerate(patterns):
        parts: list[Expr] = [Atom(copy_names[pi], (y,))]
        for i, xvar in enumerate(formula.opt_vars):
            e_atom = Atom(e_name, (xvar, y))
            parts.append(e_atom if alpha[i] else Not(e_atom))
        sub = {}
        for a in atoms:
            if len(a.args) == 2 and a.args[1] == y:
                i = formula.opt_vars.index(a.args[0])
                bit = edge_preds.index(a.pred)
                sub[a] = Const(bool(alpha[i] >> bit & 1))
        parts.append(substitute_atoms(formula.body, sub))
        disjuncts.append(conjoin(parts))
    slot_atoms: list[Expr] = [
        Atom(slot_names[i], (xvar,))
        for i, xvar in enumerate(formula.opt_vars)
    ]
    body = conjoin(slot_atoms + [disjoin(disjuncts)])
    return new_structure, formula.with_body(body)


def slotted_domains(
    original: RelationalStructure,
    transformed: RelationalStructure,
    formula: OptFormula,
) -> dict[str, tuple[ObjectId, ...]]:
    """Domains mapping each optimization variable to its slot clones, in
    original object order (the tuple back-map of remove_parallel_edges)."""
    out = {}
    for i, var in enumerate(formula.opt_vars):
        out[var] = tuple(
            transformed.index(_slot_label(original.labels[v], i))
            for v in range(original.n)
        )
    return out


# --- step 3: conversion to the Hybrid Problem --------------------------------

@dataclass(frozen=True)
class HybridBackMap:
    """Witness back-map for one unary assignment: the object each family set
    came from."""

    family_objects: tuple[tuple[ObjectId, ...], ...]


def to_hybrid(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> list[tuple[HybridInstance, HybridBackMap]]:
    """Rewrite a cross-free, hyperedge-free formula as Hybrid Problem
    instances, one per realized unary assignment sigma of the optimization
    variables; parallel-edge removal is fused into the conversion.

    With the r forward edge predicates P_0..P_{r-1}, the colour c(x, y) of a
    pair has bit b set when P_b(x, y) holds.  A universe element is a pair
    (y, alpha), alpha a colour per slot packed r bits per slot, kept when the
    body holds under P_b(x_i, y) := bit b of alpha_i; its type has bit i set
    when alpha_i != 0.  The set of object x in slot i holds the elements
    (y, alpha) with c(x, y) != 0 and alpha_i in {0, c(x, y)}, so a tuple
    counts exactly the elements whose alpha is its colour vector, and tuple
    values are preserved instance-wise under the back-map.  Elements are
    labelled ``y:alpha``.
    """
    if formula.ell != 1:
        raise ContractError("hybrid conversion expects one count variable")
    structure, formula = normalize_formula(structure, formula)
    k = formula.k
    y = formula.count_vars[0]
    slot = {var: i for i, var in enumerate(formula.opt_vars)}
    atoms = tuple(dict.fromkeys(atoms_of(formula.body)))
    for a in atoms:
        if len(a.args) > 2 or len(a.args) == 2 and a.args[1] != y:
            raise ContractError(f"atom {a} is not unary or a forward edge")
    edge_preds = sorted({a.pred for a in atoms if len(a.args) == 2})
    r = len(edge_preds)
    if r > DEFAULT_R_CAP:
        raise ResourceLimitError(
            f"{r} parallel edge predicates would blow the universe up by "
            f"2^{r * k}"
        )
    low = (1 << r) - 1
    alphas = range(1 << (r * k))
    type_of = [
        sum(1 << i for i in range(k) if alpha >> (r * i) & low) for alpha in alphas
    ]
    unary_atoms = [a for a in atoms if len(a.args) == 1]
    edge_shifts = [
        (a, r * slot[a.args[0]] + edge_preds.index(a.pred))
        for a in atoms
        if len(a.args) == 2
    ]

    out_edges: dict[ObjectId, dict[ObjectId, int]] = {}
    for bit, pred in enumerate(edge_preds):
        for a, b in structure.relation(pred).records:
            colours = out_edges.setdefault(a, {})
            colours[b] = colours.get(b, 0) | 1 << bit

    doms = resolve_domains(structure, formula, domains)
    membership = {a.pred: structure.unary_members(a.pred) for a in unary_atoms}
    x_preds = {a.pred for a in unary_atoms if a.args[0] != y}
    y_preds = {a.pred for a in unary_atoms if a.args[0] == y}

    def colour_of(v: ObjectId, preds: set[str]) -> frozenset[str]:
        return frozenset(p for p in preds if v in membership[p])

    realized: list[list[frozenset[str]]] = []
    members_by_colour: list[dict[frozenset[str], list[ObjectId]]] = []
    for var in formula.opt_vars:
        groups: dict[frozenset[str], list[ObjectId]] = {}
        for v in doms[var]:
            groups.setdefault(colour_of(v, x_preds), []).append(v)
        realized.append(sorted(groups, key=sorted))
        members_by_colour.append(groups)
    count = math.prod(len(colours) for colours in realized)
    if count > SIGMA_CAP:
        raise ResourceLimitError(
            f"{count} unary assignments exceed the cap of {SIGMA_CAP}"
        )

    kept_memo: dict[tuple, list[int]] = {}

    def kept(y_colour: frozenset[str], sigma) -> list[int]:
        # the alphas for which the body holds, per (y colour, sigma)
        hit = kept_memo.get((y_colour, sigma))
        if hit is None:
            values = {
                a: a.pred in (y_colour if a.args[0] == y else sigma[slot[a.args[0]]])
                for a in unary_atoms
            }
            hit = []
            for alpha in alphas:
                for a, shift in edge_shifts:
                    values[a] = bool(alpha >> shift & 1)
                if eval_expr_table(formula.body, values):
                    hit.append(alpha)
            kept_memo[y_colour, sigma] = hit
        return hit

    y_domain = doms[y]
    y_colours = {v: colour_of(v, y_preds) for v in y_domain}
    out: list[tuple[HybridInstance, HybridBackMap]] = []
    for sigma in product(*realized):
        fam_objects = tuple(
            tuple(members_by_colour[i][sigma[i]]) for i in range(k)
        )
        types: list[int] = []
        labels: list[str] = []
        elements_of: dict[ObjectId, list[tuple[int, int]]] = {}
        for v in y_domain:
            for alpha in kept(y_colours[v], sigma):
                elements_of.setdefault(v, []).append((alpha, len(types)))
                types.append(type_of[alpha])
                labels.append(f"{structure.labels[v]}:{alpha}")
        families = [
            [
                frozenset(
                    u
                    for w, c in out_edges.get(x, {}).items()
                    for alpha, u in elements_of.get(w, ())
                    if (alpha >> (r * i) & low) in (0, c)
                )
                for x in objects
            ]
            for i, objects in enumerate(fam_objects)
        ]
        set_labels = [[structure.labels[x] for x in objects] for objects in fam_objects]
        inst = HybridInstance(
            k, formula.kind, types, families, labels=labels, set_labels=set_labels
        )
        out.append((inst, HybridBackMap(fam_objects)))
    return out


# --- the lift's scorer ---------------------------------------------------------

class HybridScorer:
    """The lift's scorer for one (structure, cross-free core).

    The hybrid conversion runs once, at construction.  A call scores every
    combination of the given groups with one IP block query per hybrid
    instance (one instance per unary assignment sigma): family i's blocks are
    the set indices of each group's objects in that instance.  A
    combination's score is its best value over the instances.

    ``ip_calls`` counts the IP solver's ``solve`` calls, ``block_calls`` its
    block queries and ``pairs_joined`` the vector pairs its joins counted.
    """

    def __init__(
        self,
        structure: RelationalStructure,
        formula: OptFormula,
        ip_solver: IpSolver,
    ):
        instances = to_hybrid(structure, formula)
        self.k = formula.k
        self.ip_solver = ip_solver
        self.better = max if formula.kind == "max" else min
        # per unary assignment: the instance and, per family, the set index
        # of each object
        self.per_sigma = [
            (
                inst,
                [{v: j for j, v in enumerate(objects)} for objects in back.family_objects],
            )
            for inst, back in instances
        ]
        self.universe = max((inst.size for inst, _ in instances), default=0)
        self.ip_calls = self.block_calls = self.pairs_joined = 0

    def __call__(self, groups: Groups) -> list[int | None]:
        best: list[int | None] = [None] * len(groups) ** self.k
        for inst, set_index in self.per_sigma:
            blocks = [
                [[index[v] for v in group if v in index] for group in groups]
                for index in set_index
            ]
            if not all(any(fam_blocks) for fam_blocks in blocks):
                continue  # some family keeps no set: no combination has a value
            values, info = solve_hybrid_with_info(inst, self.ip_solver, blocks)
            self.block_calls += 1
            self.ip_calls += info.get("solve_calls", 0)
            self.pairs_joined += info.get("pairs_joined", 0)
            best = [
                b if v is None else v if b is None else self.better(b, v)
                for b, v in zip(best, values)
            ]
        return best


# --- end-to-end driver --------------------------------------------------------

@dataclass
class ReductionTrace:
    """Per-stage statistics of one reduce_and_solve run."""

    path: str = ""
    stages: list[tuple[str, dict]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    witness: tuple[ObjectId, ...] | None = None

    def add(self, name: str, **stats):
        self.stages.append((name, stats))

    def answer(self, res: OptResult | None) -> tuple[int | None, ReductionTrace]:
        """The driver's return value for its optimum ``res``."""
        self.witness = None if res is None else res.witness
        return (None if res is None else res.value), self

    def render(self) -> str:
        lines = [f"path {self.path}"]
        for name, stats in self.stages:
            kv = " ".join(f"{key}={value}" for key, value in sorted(stats.items()))
            lines.append(f"stage {name} {kv}".rstrip())
        for w in self.warnings:
            lines.append(f"warning {w}")
        return "\n".join(lines) + "\n"


def reduce_and_solve(
    structure: RelationalStructure,
    formula: OptFormula,
    ip_solver: IpSolver,
) -> tuple[int | None, ReductionTrace]:
    """Route an instance through the full pipeline.

    Two or more counting variables go to the multi-counting solver; a single
    optimization variable is a baseline base case; everything else runs
    hyperedge removal with its exact side problems.  The main problem goes
    through the grouped cross-edge lift with the hybrid-through-IP scorer
    only where the scores can prune (``LiftGrouping.prunes``).  Elsewhere,
    and past a resource limit of the lift, one guarded baseline query solves
    it; where nothing is pruned the lift's sources cover exactly the guarded
    tuples, so the (value, witness) is the lift's.
    """
    if ip_solver.kind != formula.kind:
        raise ContractError("ip solver kind does not match the formula")
    classify(formula, structure)
    trace = ReductionTrace()
    trace.add("input", m=structure.m, n=structure.n, k=formula.k, ell=formula.ell)

    if formula.ell >= 2:
        trace.path = "multicount"
        return trace.answer(multi_counting_opt(structure, formula))

    if formula.k == 1:
        trace.path = "baseline"
        return trace.answer(baseline_opt(structure, formula))

    trace.path = "reduction"
    structure0, formula0 = normalize_formula(structure, formula)
    plan = remove_hyperedges(structure0, formula0)
    trace.add(
        "hyperedge-removal",
        m=plan.main_structure.m,
        n=plan.main_structure.n,
        sides=len(plan.side_problems),
    )

    candidates = [
        solve_positive_cross_edge(
            side.structure, side.formula, side.forced, include_edgeless_pairs=False
        )
        for side in plan.side_problems
    ]

    scorer: HybridScorer | None = None

    def prepare(s: RelationalStructure, f: OptFormula) -> HybridScorer:
        nonlocal scorer
        scorer = HybridScorer(s, f, ip_solver)
        return scorer

    grouping = lift_grouping(plan.main_structure, plan.main_core.k)
    fallback: dict | None = None
    if grouping.prunes:
        lift_stats: dict = {}
        try:
            main = solve_cross_free_lift(
                plan.main_structure,
                plan.main_core,
                prepare,
                guard=plan.main_guard,
                stats_out=lift_stats,
            )
        except ResourceLimitError as exc:
            trace.warnings.append(f"falling back to baseline: {exc}")
            fallback = {"reason": "resource-limit"}
        trace.add("cross-free-lift", **lift_stats)
        if scorer is not None:
            trace.add(
                "hybrid",
                universe=scorer.universe,
                ip_calls=scorer.ip_calls,
                block_calls=scorer.block_calls,
                pairs_joined=scorer.pairs_joined,
            )
    else:
        groups = len(grouping.partition.groups)
        fallback = {"reason": "no-prune", "groups": groups, "bound": grouping.bound}
    if fallback is not None:
        trace.add("guarded-baseline", **fallback)
        main = baseline_opt_restricted(
            plan.main_structure, plan.main_core, plan.main_guard
        )
    return trace.answer(combine_results(formula.kind, candidates + [main]))
