"""The simplification chain for single-counting-variable formulas: hyperedge
removal, cross-edge elimination with grouped re-solving, conversion to the
Hybrid Problem, and the end-to-end driver.

The lift's scores only choose which of its g^k group combinations get an
exact re-solve: those ranked up to the first clean one and its possible
ties, at most K.  The driver runs it only where g^k > K.  Every other
instance, and one where the lift hits a resource limit, is answered by one
baseline query of the input: the side problems and the guarded main problem
partition its tuples, so solving them apart would only repeat that query's
work.

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

A side problem (a hyperedge pair's N atom, or a cross atom E(x_i, x_j)) is
the normalized input over the tuples that carry its atom, so the lift
answers each with one guarded query (``solve_positive_cross_edge``) on the
one evaluator of the input that also answers its heavy and re-solve
queries.  The paper's degree split of such a side is not needed: the
evaluator seeds its loop over the last optimization variable from the hits
of a positive guard literal over it and checks any other literal once per
assignment of its last variable, as the split's light-light query did.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Mapping, Sequence

from .baseline import (
    OptResult,
    PreparedBaseline,
    baseline_opt,
    # unused here, but the benchmark's tracer wraps it at this attribute and
    # resolves every target it names, traced run or not
    baseline_opt_restricted,  # noqa: F401
    opt_of_table,
    resolve_domains,
)
from .errors import ContractError, ResourceLimitError
from .fastcount import multi_counting_opt
from .formula import (
    Atom,
    Const,
    Expr,
    Not,
    OptFormula,
    atoms_of,
    check_schema,
    conjoin,
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


def _winner(
    kind: str, candidates: Sequence[tuple[str, OptResult | None]]
) -> tuple[OptResult | None, str | None]:
    """``combine_results`` over (source, result) candidates, with the source
    of the first candidate that holds the optimum."""
    best = combine_results(kind, [res for _, res in candidates])
    if best is None:
        return None, None
    return best, next(source for source, res in candidates if res == best)


# --- repeated-variable and orientation normalization ------------------------

def normalize_formula(
    structure: RelationalStructure, formula: OptFormula
) -> tuple[RelationalStructure, OptFormula]:
    """Collapse atoms with repeated variables into derived lower-arity
    predicates and orient every opt/count binary atom as (x, y).

    After this pass every atom has pairwise distinct arguments, so an atom is
    a hyperedge exactly when it has three or more arguments.
    """
    check_schema(formula, structure)
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

def solve_positive_cross_edge(
    evaluator: PreparedBaseline, forced: Atom, guard: Guard = ()
) -> OptResult | None:
    """The optimum and least witness of the evaluator's formula over the
    tuples that carry the forced edge E(x_i, x_j) and pass ``guard``; None
    if no tuple does.

    This is one guarded query, ``evaluator.opt(None, guard + ((forced,
    True),))``.  It replaces the paper's degree split (heavy endpoints
    brute-forced, light-light tuples enumerated along their edges) at no
    extra cost: the evaluator seeds its loop over the last optimization
    variable from the hits of a positive literal over it, so a forced edge
    that ends there is enumerated along its records, and checks any other
    literal once per assignment of its last variable, as the split's
    light-light query did.
    """
    if len(forced.args) != 2 or forced.args[0] == forced.args[1]:
        raise ContractError("forced atom must be binary over two distinct variables")
    if not set(forced.args) <= set(evaluator.formula.opt_vars):
        raise ContractError("forced atom must relate two optimization variables")
    return evaluator.opt(None, tuple(guard) + ((forced, True),))


# --- step 1: hyperedge removal ----------------------------------------------

@dataclass(frozen=True)
class DecompositionPlan:
    """The normalized instance split into a guarded main problem and one
    side per guard atom: the side of atom N is ``formula`` over the tuples
    that carry N, and the main problem is ``main_core`` over those that
    pass every guard literal.  The original optimum is the best of them.
    ``grouping`` is the lift's split of the main structure's objects."""

    main_structure: RelationalStructure
    formula: OptFormula  # the normalized input, which the sides solve
    main_core: OptFormula  # body without the guard literals
    main_guard: Guard

    @property
    def main_formula(self) -> OptFormula:
        guard_expr = [
            Atom(a.pred, a.args) if want else Not(Atom(a.pred, a.args))
            for a, want in self.main_guard
        ]
        return self.main_core.with_body(
            conjoin(guard_expr + [self.main_core.body])
        )

    @cached_property
    def grouping(self) -> LiftGrouping:
        return lift_grouping(self.main_structure, self.formula.k)


def remove_hyperedges(
    structure: RelationalStructure, formula: OptFormula
) -> DecompositionPlan:
    """Replace hyperpredicates by false in the main problem, guarded by
    non-adjacency in a fresh co-occurrence relation N; every pair of
    optimization variables gets an exactly solvable side, the tuples that
    carry its N atom."""
    if formula.ell != 1:
        raise ContractError("hyperedge removal expects exactly one count variable")
    structure, formula = normalize_formula(structure, formula)
    hyper = [a for a in dict.fromkeys(atoms_of(formula.body)) if len(a.args) >= 3]
    if not hyper:
        return DecompositionPlan(structure, formula, formula, ())

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
    return DecompositionPlan(main_structure, formula, formula.with_body(phi0), guard)


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
    grouped, and ``bound`` is K = C(k,2)·m·n^(k-2) + 1.  At most K - 1 of the
    g^k group combinations (``combos``) hold a record of a cross atom or a
    guard between their groups, so K caps the combinations the lift
    re-solves; its rule (``solve_cross_free_lift``) stops at the first clean
    one, mostly far sooner.  The lift runs only where it ``prunes``
    (g^k > K)."""

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
# per pair of slots (i, j), the (group at i, group at j) pairs of a record
DirtyPairs = Mapping[tuple[int, int], set[tuple[int, int]]]


def _dirty_pairs(
    structure: RelationalStructure,
    opt_vars: Sequence[str],
    atoms: Sequence[Atom],
    groups: Groups,
) -> DirtyPairs:
    """The group pairs that a record of a side atom (binary over two
    distinct optimization variables) falls between, per pair of the atom's
    slots."""
    slot = {v: i for i, v in enumerate(opt_vars)}
    group_of = {v: gi for gi, group in enumerate(groups) for v in group}
    out: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for atom in atoms:
        args = atom.args
        pairs = out.setdefault((slot[args[0]], slot[args[1]]), set())
        for a, b in structure.relation(atom.pred).records:
            if a in group_of and b in group_of:
                pairs.add((group_of[a], group_of[b]))
    return out


def _select_combinations(
    kind: str,
    scores: Sequence[int | None],
    g: int,
    k: int,
    dirty: DirtyPairs,
    ratio: float,
    top_k: int,
) -> tuple[list[tuple[int, ...]], int | None, int]:
    """The combinations the lift re-solves by its rule (see
    ``solve_cross_free_lift``), best first; the rank of the first clean one
    from 1, or None; and the number of scored combinations.  The ranking is
    a heap of (signed score, index), the index being the combination's
    position in ``itertools.product`` order, which is combination order."""
    sign = -1 if kind == "max" else 1
    heap = [(sign * value, i) for i, value in enumerate(scores) if value is not None]
    heapq.heapify(heap)
    combos = len(heap)
    selected: list[tuple[int, ...]] = []
    clean: tuple[int, int] | None = None  # (S*, c*'s first group)
    clean_rank = None
    while heap and len(selected) < top_k:
        key, i = heapq.heappop(heap)
        combo = _combo_of(i, g, k)
        if clean is None:
            if not any(
                (combo[a], combo[b]) in pairs for (a, b), pairs in dirty.items()
            ):
                clean, clean_rank = (sign * key, combo[0]), len(selected) + 1
        elif not _may_reach(kind, sign * key, combo[0], clean, ratio):
            break
        selected.append(combo)
    return selected, clean_rank, combos


def _combo_of(index: int, g: int, k: int) -> tuple[int, ...]:
    """The combination at ``index`` in ``product(range(g), repeat=k)``."""
    digits = []
    for _ in range(k):
        index, digit = divmod(index, g)
        digits.append(digit)
    return tuple(reversed(digits))


def _may_reach(
    kind: str, score: int, first: int, clean: tuple[int, int], ratio: float
) -> bool:
    """Whether a combination ranked after c* may hold the lift's answer: with
    an exact scorer a tie at S* in c*'s first group, with a c-approximate one
    any score within the ratio of S*."""
    best, clean_first = clean
    if ratio == 1:
        return score == best and first == clean_first
    return score * ratio >= best if kind == "max" else score <= ratio * best


def solve_cross_free_lift(
    plan: DecompositionPlan,
    prepare: PrepareScorer,
    top_k: int | None = None,
    stats_out: dict | None = None,
    ratio: float = 1.0,
) -> OptResult | None:
    """The optimum and least witness of ``plan.formula`` over all tuples;
    None if there is none.

    The lift solves the whole plan: an exact side per side atom (the plan's
    guard atoms, then the cross atoms of ``plan.main_core``: the tuples that
    carry the atom), heavy-vertex brute force (one query per slot, with the
    heavy vertices as its domain), grouped relaxed scoring, and an exact
    re-solve of a prefix of the ranked group combinations.  The heavy and
    re-solve queries take the tuples on which every side atom is false;
    there every hyperedge and cross atom is false, so ``plan.formula`` is
    the cross-free core.  The re-solve makes one exact query per slot
    prefix: the selected combinations that share their first k-1 groups are
    solved together, over the union of their last groups.  One
    ``PreparedBaseline`` of ``plan.formula`` answers every query.

    ``prepare(plan.main_structure, core)`` is called once, when there is at
    least one group, and returns the scorer of the cross-free core.  The
    scorer is called once, with the groups, and returns the relaxed value of
    every combination of groups (group ci as the domain of the i-th
    optimization variable) in ``itertools.product`` order, None where none
    exists.  Its values lie within ``ratio`` of the core's optimum over the
    combination: in [OPT/ratio, OPT] for max and [OPT, ratio·OPT] for min.

    The rule.  A combination is *dirty* when a record of a side atom (a
    guard atom of the plan or a cross atom, each over two distinct
    optimization variables) falls between its groups in the atom's slots,
    and *clean* otherwise.  Every tuple of a clean combination carries no
    side atom, so its guarded optimum is the core's optimum over it.  The
    combinations are ranked lazily, best score first and ties in
    combination order, until the rule is met.  Let c* be the first clean
    one and S* its score.
    - Exact scorer (``ratio`` 1): re-solve every combination ranked before
      c*, c* and the combinations tied at S* that share c*'s first group.
      For max, a combination's guarded optimum is at most its score and
      c*'s is S*, so one ranked after c* beats S* never and ties it only if
      its score is S*.  Such a tie comes after c* in combination order; if
      its first group differs from c*'s, that group is a later run of the
      sorted light objects, so each of its tuples has a larger x1 than
      c*'s witness.  For min, a guarded optimum is at least the score, and
      the same argument holds with every inequality reversed.
    - c-approximate scorer: c*'s guarded optimum is its core optimum, at
      least S* for max, and any combination's guarded optimum is at most
      its core optimum, at most score·c.  So only a combination with
      ``score·c >= S*`` can reach c*'s; for min, with every inequality
      reversed, only one with ``score <= c·S*``.  Re-solve every ranked
      combination that can, ties included.
    Either way the lift returns the exact optimum and least witness of its
    tuples.  The selection is capped at ``top_k`` (by default min(g^k, K));
    where no clean combination is ranked within the cap, the top ``top_k``
    are re-solved.  ``top_k`` is overridden by tests only.

    ``stats_out`` receives the stage's counts and ``source``, the step whose
    candidate is the answer: ``side``, ``heavy`` or ``resolve``.  ``sides``
    counts the cross-atom side queries (the hyperedge-removal stage counts
    the plan's guard atoms), ``dirty`` the dirty combinations ranked before
    c* (all those ranked, where none is clean), ``clean_rank`` is c*'s rank
    from 1 (None where none is clean within the cap), ``resolves`` the
    re-solved combinations and ``resolve_queries`` their exact queries.
    """
    structure, formula = plan.main_structure, plan.formula
    k = formula.k
    cross, core = split_cross_atoms(plan.main_core)
    sides = [atom for atom, _ in plan.main_guard] + cross

    # one evaluator of the formula answers steps (1), (2) and (5); on the
    # tuples that pass full_guard every hyperedge and cross atom is false,
    # so there the formula is the core
    evaluator = PreparedBaseline(structure, formula)

    # (1) exact side problems, one per side atom
    candidates: list[tuple[str, OptResult | None]] = [
        ("side", solve_positive_cross_edge(evaluator, atom)) for atom in sides
    ]
    full_guard: Guard = tuple((atom, False) for atom in sides)

    # (2) heavy vertices: per slot, one query with the heavy set as its domain
    grouping = plan.grouping
    if grouping.heavy:
        for var in formula.opt_vars:
            heavy = evaluator.opt({var: grouping.heavy}, full_guard)
            candidates.append(("heavy", heavy))

    # (3) the groups of the light vertices
    groups = grouping.partition.groups
    stats = {} if stats_out is None else stats_out
    stats.update(
        threshold=grouping.partition.threshold,
        sides=len(cross),
        heavy=len(grouping.heavy),
        heavy_solves=k if grouping.heavy else 0,
        groups=len(groups),
        m=structure.m,
        n=structure.n,
    )

    if groups:
        # (4) score every group combination on the relaxed body
        scores = prepare(structure, core)(groups)
        if len(scores) != len(groups) ** k:
            raise ContractError("the scorer must score every group combination")
        if top_k is None:
            top_k = min(grouping.combos, grouping.bound)
        dirty = _dirty_pairs(structure, formula.opt_vars, sides, groups)
        selected, clean_rank, combos = _select_combinations(
            formula.kind, scores, len(groups), k, dirty, ratio, top_k
        )

        # (5) exact re-solve of the selected combinations under the guard, one
        # query per prefix combo[:-1]: the last slot's domain is the union of
        # the prefix's selected groups, which are disjoint, so the query covers
        # exactly the tuples of those combinations, and its best value and
        # least witness are those of their per-combination optima
        last_groups: dict[tuple[int, ...], list[int]] = {}
        for combo in selected:
            last_groups.setdefault(combo[:-1], []).append(combo[-1])
        stats.update(
            combos=combos,
            top_k=top_k,
            dirty=len(selected) if clean_rank is None else clean_rank - 1,
            clean_rank=clean_rank,
            resolves=len(selected),
            resolve_queries=len(last_groups),
        )
        *prefix_vars, last_var = formula.opt_vars
        for prefix, lasts in last_groups.items():
            domains = {var: groups[ci] for var, ci in zip(prefix_vars, prefix)}
            domains[last_var] = [v for ci in sorted(lasts) for v in groups[ci]]
            candidates.append(("resolve", evaluator.opt(domains, full_guard)))

    best, stats["source"] = _winner(formula.kind, candidates)
    return best


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
    body holds under P_b(x_i, y) := bit b of alpha_i and every nonzero
    alpha_i is the colour c(x, y) of some object x (no tuple counts the other
    elements); its type has bit i set when alpha_i != 0.  The set of object
    x in slot i holds the elements (y, alpha) with c(x, y) != 0 and alpha_i
    in {0, c(x, y)}, so a tuple counts exactly the elements whose alpha is
    its colour vector, and tuple values are preserved instance-wise under
    the back-map.  Elements are labelled ``y:alpha``.
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
    # per y, the slot colours alpha_i a tuple can give it: 0 and each c(x, y)
    in_colours: dict[ObjectId, set[int]] = {}
    for colours in out_edges.values():
        for b, c in colours.items():
            in_colours.setdefault(b, {0}).add(c)

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

    def kept(y_colour: frozenset[str], sigma, at_y: frozenset[int]) -> list[int]:
        # the alphas whose every slot colour is in at_y, the colours realized
        # at y, and for which the body holds, per (y colour, sigma, at_y)
        key = (y_colour, sigma, at_y)
        hit = kept_memo.get(key)
        if hit is None:
            values = {
                a: a.pred in (y_colour if a.args[0] == y else sigma[slot[a.args[0]]])
                for a in unary_atoms
            }
            hit = []
            for alpha in alphas:
                if not all((alpha >> (r * i) & low) in at_y for i in range(k)):
                    continue
                for a, shift in edge_shifts:
                    values[a] = bool(alpha >> shift & 1)
                if eval_expr_table(formula.body, values):
                    hit.append(alpha)
            kept_memo[key] = hit
        return hit

    y_domain = doms[y]
    y_colours = {v: colour_of(v, y_preds) for v in y_domain}
    y_in_colours = {v: frozenset(in_colours.get(v, (0,))) for v in y_domain}
    out: list[tuple[HybridInstance, HybridBackMap]] = []
    for sigma in product(*realized):
        fam_objects = tuple(
            tuple(members_by_colour[i][sigma[i]]) for i in range(k)
        )
        types: list[int] = []
        labels: list[str] = []
        elements_of: dict[ObjectId, list[tuple[int, int]]] = {}
        for v in y_domain:
            for alpha in kept(y_colours[v], sigma, y_in_colours[v]):
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
    """Per-stage statistics of one reduce_and_solve run, and the source of
    its answer: ``side`` (a side problem), ``heavy`` (a heavy vertex),
    ``resolve`` (a re-solved group combination), ``baseline`` or
    ``multicount``; None when no tuple exists."""

    path: str = ""
    stages: list[tuple[str, dict]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    witness: tuple[ObjectId, ...] | None = None
    source: str | None = None

    def add(self, name: str, **stats):
        self.stages.append((name, stats))

    def answer(
        self, res: OptResult | None, source: str | None
    ) -> tuple[int | None, ReductionTrace]:
        """The driver's return value for its optimum ``res``, which
        ``source`` produced."""
        self.witness = None if res is None else res.witness
        self.source = None if res is None else source
        return (None if res is None else res.value), self

    def render(self) -> str:
        lines = [f"path {self.path}"]
        for name, stats in self.stages:
            kv = " ".join(f"{key}={value}" for key, value in sorted(stats.items()))
            lines.append(f"stage {name} {kv}".rstrip())
        if self.source is not None:
            lines.append(f"source {self.source}")
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
    hyperedge removal.  Where the lift's scores can prune
    (``LiftGrouping.prunes``), the grouped cross-edge lift with the
    hybrid-through-IP scorer solves the whole plan, its hyperedge and cross
    sides included.  Elsewhere, and past a resource limit of the lift, one
    baseline query of the input answers: the side problems and the guarded
    main problem partition its tuples, so the (value, witness) is theirs.
    """
    if ip_solver.kind != formula.kind:
        raise ContractError("ip solver kind does not match the formula")
    check_schema(formula, structure)
    trace = ReductionTrace()
    trace.add("input", m=structure.m, n=structure.n, k=formula.k, ell=formula.ell)

    if formula.ell >= 2:
        trace.path = "multicount"
        multicount_stats: dict = {}
        res = multi_counting_opt(structure, formula, stats_out=multicount_stats)
        trace.add("multicount", **multicount_stats)
        return trace.answer(res, "multicount")

    if formula.k == 1:
        trace.path = "baseline"
        return trace.answer(baseline_opt(structure, formula), "baseline")

    trace.path = "reduction"
    plan = remove_hyperedges(structure, formula)
    trace.add(
        "hyperedge-removal",
        m=plan.main_structure.m,
        n=plan.main_structure.n,
        sides=len(plan.main_guard),
    )

    def baseline_answer(reason: str) -> tuple[int | None, ReductionTrace]:
        groups = len(plan.grouping.partition.groups)
        trace.add("baseline", reason=reason, groups=groups, bound=plan.grouping.bound)
        return trace.answer(baseline_opt(structure, formula), "baseline")

    if not plan.grouping.prunes:
        return baseline_answer("no-prune")

    scorer: HybridScorer | None = None

    def prepare(s: RelationalStructure, f: OptFormula) -> HybridScorer:
        nonlocal scorer
        scorer = HybridScorer(s, f, ip_solver)
        return scorer

    lift_stats: dict = {}
    limit: ResourceLimitError | None = None
    try:
        res = solve_cross_free_lift(
            plan, prepare, stats_out=lift_stats, ratio=ip_solver.ratio
        )
    except ResourceLimitError as exc:
        limit = exc
    source = lift_stats.pop("source", None)
    trace.add("cross-free-lift", **lift_stats)
    if scorer is not None:
        trace.add(
            "hybrid",
            universe=scorer.universe,
            ip_calls=scorer.ip_calls,
            block_calls=scorer.block_calls,
            pairs_joined=scorer.pairs_joined,
        )
    if limit is not None:
        trace.warnings.append(f"falling back to baseline: {limit}")
        return baseline_answer("resource-limit")
    return trace.answer(res, source)
