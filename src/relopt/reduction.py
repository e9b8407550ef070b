"""The simplification chain for single-counting-variable formulas: hyperedge
removal, cross-edge elimination with grouped re-solving, conversion to the
Hybrid Problem, and the end-to-end driver.

The lift's scores only choose which of its g^k group combinations get an
exact re-solve: those ranked up to the first clean one and its possible
ties, at most K.  The driver runs it only for k=2 and only where the
paper's grouping of the light vertices would have more than K
combinations.  Every other instance, and one where the lift hits a
resource limit, is answered by one baseline query of the input: the side
problems and the guarded main problem partition its tuples, so solving them
apart would only repeat that query's work.

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
one evaluator of the input that also answers its re-solve queries.  The
paper's degree split of such a side is not needed: the positive literal of
the atom narrows the evaluator's loop of each variable it mentions to the
values that extend the assignment to one of the atom's records.  So the
query enumerates the tuples along the atom's records, about m of them, and
runs one base case per x1 with a record, as the split's light-light query
did.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, islice, product, repeat
from typing import Callable, Iterator, Mapping, Sequence

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
    FALSE,
    TRUE,
    Atom,
    Expr,
    Not,
    OptFormula,
    atoms_of,
    check_schema,
    conjoin,
    disjoin,
    eval_expr_table,
    map_atoms,
)
from .hybrid import HybridInstance, solve_hybrid_with_info
from .ip import IpSolver, check_ratio
from .structure import ObjectId, Relation, RelationalStructure

Guard = tuple[tuple[Atom, bool], ...]
Domains = Mapping[str, Sequence[ObjectId]]

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
    evaluator: PreparedBaseline, forced: Atom
) -> OptResult | None:
    """The optimum and least witness of the evaluator's formula over the
    tuples that carry the forced edge E(x_i, x_j); None if no tuple does.

    This is one guarded query, ``evaluator.opt(None, ((forced, True),))``.
    It replaces the paper's degree split (heavy endpoints brute-forced,
    light-light tuples enumerated along their edges) at no extra cost: the
    positive literal narrows the evaluator's loop of each variable it
    mentions to the values that extend the assignment to one of the edge's
    records.  So the query runs base cases only for the prefixes that
    extend to an edge (for E(x1,x2) at k=2, one per object of E's first
    column) and enumerates the tuples along the edge's records, as the
    split's light-light query did.
    """
    if len(forced.args) != 2 or forced.args[0] == forced.args[1]:
        raise ContractError("forced atom must be binary over two distinct variables")
    if not set(forced.args) <= set(evaluator.formula.opt_vars):
        raise ContractError("forced atom must relate two optimization variables")
    return evaluator.opt(None, ((forced, True),))


# --- step 1: hyperedge removal ----------------------------------------------

@dataclass(frozen=True)
class DecompositionPlan:
    """The normalized instance split into a guarded main problem and one
    side per guard atom: the side of atom N is ``formula`` over the tuples
    that carry N, and the main problem is ``main_core`` over those that
    pass every guard literal.  The original optimum is the best of them.
    ``grouping`` is the lift's split of the main structure's objects.
    ``cross`` and ``core`` are ``split_cross_atoms(main_core)``, and
    ``sides`` the atoms of the exact sides: the guard atoms, then ``cross``."""

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

    @cached_property
    def _cross_split(self) -> tuple[list[Atom], OptFormula]:
        return split_cross_atoms(self.main_core)

    cross = property(lambda self: self._cross_split[0])
    core = property(lambda self: self._cross_split[1])

    @cached_property
    def sides(self) -> tuple[Atom, ...]:
        return tuple(atom for atom, _ in self.main_guard) + tuple(self.cross)


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

    phi0 = map_atoms(formula.body, lambda a: FALSE if a in hyper else a)
    guard = tuple(
        (Atom(n_name, (formula.opt_vars[i], formula.opt_vars[j])), False)
        for i in range(formula.k)
        for j in range(i + 1, formula.k)
    )
    return DecompositionPlan(main_structure, formula, formula.with_body(phi0), guard)


# --- step 2: cross-edge elimination (the grouped lift) -----------------------

@dataclass(frozen=True)
class LiftGrouping:
    """The lift's split of the objects for k optimization variables, with
    the degree threshold ``ceil(m^(1/(k+1)))``, built in one pass over the
    objects in order (``lift_grouping``).  A group closes once its total
    degree exceeds the threshold, so every group but the last has degree
    above it.  ``groups`` partition every object into contiguous runs, each
    a ``range``, and ``group_of`` maps each object to its group's index.
    Contiguity carries the lift's tie step: a combination whose first group
    comes after the group of a witness's x1 holds only tuples with a larger
    x1.  ``combos`` is the groups' g^k.
    ``heavy`` counts the vertices of degree at least the threshold; each
    fills its group to the threshold, so the group ends with it or with the
    next object of positive degree.
    ``bound`` is K = C(k,2)·m·n^(k-2) + 1, the paper's bound on the group
    combinations that hold a record of a cross atom or a guard between
    their groups when each relation serves one pair of slots.  The lift's
    default re-solve cap is at least K and covers every combination a side
    record marks (``solve_cross_free_lift``); its rule stops at the first
    clean one, mostly far sooner.

    The driver's routing is the paper's count: the lift runs only where it
    ``prunes``, when the g^k of the light vertices' groups alone
    (``light_groups`` of them, grouped by the same rule) exceeds K."""

    threshold: int
    groups: tuple[range, ...]
    group_of: tuple[int, ...]
    heavy: int
    light_groups: int
    bound: int
    k: int

    @property
    def combos(self) -> int:
        return len(self.groups) ** self.k

    @property
    def prunes(self) -> bool:
        return self.light_groups ** self.k > self.bound


def lift_grouping(structure: RelationalStructure, k: int) -> LiftGrouping:
    m, n = structure.m, structure.n
    threshold = math.ceil(m ** (1.0 / (k + 1))) if m else 0
    groups: list[range] = []
    group_of: list[int] = []
    start = run = 0  # the open group's first object and its degree
    heavy = light_groups = light_run = 0
    light_open = False  # whether the light vertices' open group holds any
    for v, d in enumerate(map(structure.degree, range(n))):
        group_of.append(len(groups))
        run += d
        if run > threshold:
            groups.append(range(start, v + 1))
            start, run = v + 1, 0
        if d >= threshold:
            heavy += 1
            continue
        light_run += d
        light_open = True
        if light_run > threshold:
            light_groups += 1
            light_run, light_open = 0, False
    if start < n:
        groups.append(range(start, n))
    bound = math.comb(k, 2) * m * (n ** (k - 2) if k >= 2 else 0) + 1
    return LiftGrouping(
        threshold,
        tuple(groups),
        tuple(group_of),
        heavy,
        light_groups + light_open,
        bound,
        k,
    )


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
        map_atoms(formula.body, lambda a: FALSE if a in cross else a)
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
    group_of: Sequence[int],
) -> DirtyPairs:
    """The group pairs that a record of a side atom (binary over two
    distinct optimization variables) falls between, per pair of the atom's
    slots; ``group_of`` maps each object to its group."""
    slot = {v: i for i, v in enumerate(opt_vars)}
    out: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for atom in atoms:
        args = atom.args
        out.setdefault((slot[args[0]], slot[args[1]]), set()).update(
            (group_of[a], group_of[b]) for a, b in structure.relation(atom.pred).records
        )
    return out


def _ranked(
    kind: str, scores: Sequence[int | None], g: int, k: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The scored combinations as (score, combination), best score first and
    ties in combination order, the order of (signed score, index), the index
    being the combination's position in ``itertools.product`` order.

    The stream is lazy per score level: the distinct scores are sorted once,
    and each level the caller reaches costs one C-level scan of ``scores``
    for the indices that hold it.  ``operator.eq`` is the test, since a None
    entry must compare unequal (``int.__eq__(None)`` is ``NotImplemented``,
    which is truthy)."""
    levels = set(scores)
    levels.discard(None)
    indices = range(len(scores))
    for level in sorted(levels, reverse=kind == "max"):
        for i in compress(indices, map(operator.eq, scores, repeat(level))):
            yield level, _combo_of(i, g, k)


def _combo_of(index: int, g: int, k: int) -> tuple[int, ...]:
    """The combination at ``index`` in ``product(range(g), repeat=k)``."""
    digits = []
    for _ in range(k):
        index, digit = divmod(index, g)
        digits.append(digit)
    return tuple(reversed(digits))


def _may_reach(
    kind: str, score: int, first: int, bar: tuple[int, int], ratio: float
) -> bool:
    """Whether a combination of this score and first group may beat or tie
    the bar (B, the group of w's x1): its guarded optimum is at most
    score·ratio for max and at least score/ratio for min, and a tie needs
    its first group not after w's."""
    best, bar_first = bar
    low, high = (best, score * ratio) if kind == "max" else (score, ratio * best)
    return high > low or high == low and first <= bar_first


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
    carry the atom), grouped relaxed scoring, and an exact re-solve of a
    prefix of the ranked group combinations.  The groups
    (``plan.grouping.groups``, each a ``range``) are contiguous runs of the
    sorted objects and cover all of them, heavy vertices included, so the
    combinations partition the tuples.  The re-solve queries take the
    tuples on which every side atom is false; there every hyperedge and
    cross atom is false, so ``plan.formula`` is the cross-free core.  The
    re-solve makes one exact query per slot prefix: the selected
    combinations that share their first k-1 groups are solved together,
    over the union of their last groups.
    One ``PreparedBaseline`` of ``plan.formula`` answers every query.

    ``prepare(plan.main_structure, core)`` is called once, when there is at
    least one group, before any evaluator work, so that a resource limit it
    raises wastes none; it returns the scorer of the cross-free core.  The
    scorer is called once, with the groups, and returns the relaxed value of
    every combination of groups (group ci as the domain of the i-th
    optimization variable) in ``itertools.product`` order, None where none
    exists.  Its values lie within ``ratio`` of the core's optimum over the
    combination: in [OPT/ratio, OPT] for max and [OPT, ratio·OPT] for min.
    A ``ratio`` below 1, nan or inf raises ``ContractError``: the cut below
    would drop combinations that can beat the bar.

    The rule.  A combination is *dirty* when a record of a side atom (a
    guard atom of the plan or a cross atom, each over two distinct
    optimization variables) falls between its groups in the atom's slots,
    and *clean* otherwise.  Every tuple of a clean combination carries no
    side atom, so its guarded optimum is the core's optimum over it.  The
    combinations are ranked lazily, one score level at a time (``_ranked``),
    best score first and ties in combination order.  Let c* be the first
    clean one and S* its score.
    - The bar.  The lift compares the other combinations with (B, w), the
      value and least witness of one of its candidates.  Under an exact
      scorer (``ratio`` 1) that candidate is c*'s re-solve, known before it
      runs: c*'s guarded optimum is its core optimum S*, and its least
      witness lies in c*'s first group, so B = S* with no extra query.
      Under a c-approximate scorer c* is re-solved on its own first (one
      query, over c*'s groups), and (B, w) is the best of the sides and c*.
    - The cut.  For max, a combination's guarded optimum is at most its
      core optimum, at most score·c.  So it can beat B only if
      ``score·c > B``, and tie B only if ``score·c >= B``.  A tie also needs
      a witness before w: if the combination's first group comes after the
      group of w's x1, that group is a later run of the sorted objects, so
      each of its tuples has a larger x1 than w.  For min, the guarded
      optimum is at least score/c, and the same holds with every inequality
      reversed: beat only if ``score < c·B``, tie only if ``score <= c·B``.
      Every ranked combination other than a re-solved c*, before c* or
      after it, is kept where it can beat (B, w), or tie it with its first
      group not after w's.  The ranking stops at the first combination it
      does not keep: each one ranked later has a worse score, which cannot
      tie B either, or the same score and a first group no earlier.  The
      kept combinations are re-solved in one query per slot prefix
      (below).  Under an exact scorer this keeps every combination ranked
      before c*, c* and the combinations tied at S* in c*'s first group.
    The selection, c*'s own re-solve included, is capped at ``top_k``;
    where no clean combination is ranked within the cap, the top ``top_k``
    are re-solved.  ``top_k`` is overridden by tests only.  The default cap
    is min(g^k, max(K, D + 1)), D being g^(k-2) times the group pairs that
    side records mark, summed over the side atoms' slot pairs.  A marked
    pair is dirty in g^(k-2) combinations, so at most D combinations are
    dirty and the cap reaches c* wherever a clean combination is scored;
    where none is, it covers every scored combination.  (K alone does not
    suffice: with one relation as a cross atom in both orientations each
    record marks two pairs, up to 2m dirty combinations for k=2 against
    K - 1 = m.)

    What this gives.  The side queries cover every tuple that carries a
    side atom, and every other tuple lies in exactly one combination.  The
    answer is the best of the sides and the re-solves, so it is at least as
    good as (B, w): a better value, or B with a witness no later than w.
    Where the cap cuts nothing, a combination that is not re-solved has a
    guarded optimum worse than B, or equal to B with every witness after
    w; either way it changes neither the value nor the least witness.  So
    wherever the kept set fits the cap, the answer is the exact optimum
    and least witness of the input, under a c-approximate scorer too.  The cap itself
    drops only combinations ranked after c*, since c* and the ones ranked
    before it number at most ``top_k``.  For max, such a combination's
    guarded optimum is at most score·c <= S*·c, and the answer is at least
    c*'s guarded optimum, itself at least S*; for min the same with every
    inequality reversed.  So the answer is always within the ratio of the
    optimum once c* is reached, and with an exact scorer it is the exact
    value.

    Degrees do not enter this argument.  It needs only that the groups are
    disjoint contiguous runs of the sorted objects (the tie step) and that
    the default cap passes every dirty combination.  A dirty combination
    holds a side record between its groups, so D, a count of the side
    atoms' records, bounds their number whatever the groups' sizes.  The
    paper's heavy vertices (degree at least the threshold) are brute-forced
    apart only to keep its groups small for its IP analysis; the scorer's
    cost does not depend on group degree, so here a heavy vertex is grouped
    like any other object.

    ``stats_out`` receives the stage's counts and ``source``, the step whose
    candidate is the answer: ``side`` or ``resolve``.  ``heavy`` counts the
    vertices at or above the threshold, ``sides`` the cross-atom side
    queries (the hyperedge-removal stage counts the plan's guard atoms),
    ``dirty`` the dirty combinations ranked before c* (all those ranked,
    where none is clean), ``clean_rank`` is c*'s rank from 1 (None where
    none is clean within the cap), ``bar`` is B (None where c* is not
    reached), ``resolves`` the re-solved combinations and
    ``resolve_queries`` their exact queries, c*'s own included.  ``exact``
    is 1 where the cap cut no combination that the rule keeps (where none
    is clean within the cap: where the ranking ran out), so the answer is
    the exact optimum and least witness, and 0 where it is only within the
    ratio.  ``base_cases`` and ``pair_deltas`` are the evaluator's work
    counts over all its queries, sides and re-solves (see ``baseline_opt``).
    """
    check_ratio(ratio)
    structure, formula = plan.main_structure, plan.formula
    k = formula.k

    # (0) the groups of the objects, and the scorer of the core
    grouping = plan.grouping
    groups = grouping.groups
    stats = {} if stats_out is None else stats_out
    stats.update(
        threshold=grouping.threshold,
        heavy=grouping.heavy,
        groups=len(groups),
        m=structure.m,
        n=structure.n,
    )
    score = prepare(structure, plan.core) if groups else None

    # one evaluator of the formula answers steps (1), (4) and (5); on the tuples
    # that pass full_guard every hyperedge and cross atom is false, so there
    # the formula is the core
    evaluator = PreparedBaseline(structure, formula)

    # (1) exact side problems, one per side atom
    candidates: list[tuple[str, OptResult | None]] = [
        ("side", solve_positive_cross_edge(evaluator, atom)) for atom in plan.sides
    ]
    stats["sides"] = len(plan.cross)
    full_guard: Guard = tuple((atom, False) for atom in plan.sides)

    if score is not None:
        # (2) score every group combination on the relaxed body
        scores = score(groups)
        if len(scores) != len(groups) ** k:
            raise ContractError("the scorer must score every group combination")
        dirty = _dirty_pairs(
            structure, formula.opt_vars, plan.sides, grouping.group_of
        )
        if top_k is None:
            # each marked group pair is dirty in g^(k-2) combinations
            marked = sum(map(len, dirty.values())) * len(groups) ** max(k - 2, 0)
            top_k = min(grouping.combos, max(grouping.bound, marked + 1))
        kind = formula.kind
        ranked = _ranked(kind, scores, len(groups), k)

        # (3) rank up to c*, the first clean combination within the cap
        before: list[tuple[int, tuple[int, ...]]] = []
        clean = None
        for scored in islice(ranked, top_k):
            combo = scored[1]
            if not any(
                (combo[a], combo[b]) in pairs for (a, b), pairs in dirty.items()
            ):
                clean = scored
                break
            before.append(scored)

        # (4) the bar (B, w), then the kept combinations: without c*, the top
        # top_k, which the rule would all keep, so the cap cut nothing only
        # where the ranking ran out
        selected = [combo for _, combo in before]
        bar = None  # (B, the group of w's x1)
        solo = 0  # c*'s own re-solve query
        exact = clean is not None or next(ranked, None) is None
        if clean is not None:
            if ratio == 1:
                # c*'s guarded optimum is S* and its least witness lies in its
                # first group: c* is the bar, re-solved with the kept ones
                bar = (clean[0], clean[1][0])
                queue = before + [clean]
            else:
                solo = 1
                domains = {var: groups[ci] for var, ci in zip(formula.opt_vars, clean[1])}
                candidates.append(("resolve", evaluator.opt(domains, full_guard)))
                so_far = combine_results(kind, [res for _, res in candidates])
                bar = (so_far.value, grouping.group_of[so_far.witness[0]])
                queue = before
            # the stream is in rank order, so past the first combination that
            # is not kept none is
            selected = []
            for value, combo in chain(queue, ranked):
                if not _may_reach(kind, value, combo[0], bar, ratio):
                    break
                if solo + len(selected) == top_k:
                    exact = False  # the cap cuts a combination the rule keeps
                    break
                selected.append(combo)

        # (5) exact re-solve of the kept combinations under the guard, one
        # query per prefix combo[:-1]: the last slot's domain is the union of
        # the prefix's kept groups, which are disjoint, so the query covers
        # exactly the tuples of those combinations, and its best value and
        # least witness are those of their per-combination optima
        last_groups: dict[tuple[int, ...], list[int]] = {}
        for combo in selected:
            last_groups.setdefault(combo[:-1], []).append(combo[-1])
        stats.update(
            combos=len(scores) - scores.count(None),
            top_k=top_k,
            dirty=len(before),
            exact=int(exact),
            clean_rank=None if clean is None else len(before) + 1,
            bar=None if bar is None else bar[0],
            resolves=solo + len(selected),
            resolve_queries=solo + len(last_groups),
        )
        *prefix_vars, last_var = formula.opt_vars
        for prefix, lasts in last_groups.items():
            domains = {var: groups[ci] for var, ci in zip(prefix_vars, prefix)}
            domains[last_var] = [v for ci in sorted(lasts) for v in groups[ci]]
            candidates.append(("resolve", evaluator.opt(domains, full_guard)))

    stats.update(base_cases=evaluator.base_cases, pair_deltas=evaluator.pair_deltas)
    best, stats["source"] = _winner(formula.kind, candidates)
    return best


# --- parallel-edge removal, the paper's lemma (off the solve path) -----------

def _edge_colours(
    structure: RelationalStructure, atoms: Sequence[Atom], y: str, k: int
) -> tuple[list[str], dict[ObjectId, dict[ObjectId, int]]]:
    """The sorted forward edge predicates P_0..P_{r-1} of the atoms (binary,
    ending in ``y``) and the colour map x -> y -> c(x, y) of the pairs with a
    nonzero colour, bit b of c(x, y) set when P_b(x, y) holds.  More than
    ``DEFAULT_R_CAP`` predicates raise ``ResourceLimitError``: both callers
    build 2^(r*k) colour vectors."""
    edge_preds = sorted({a.pred for a in atoms if len(a.args) == 2 and a.args[1] == y})
    r = len(edge_preds)
    if r > DEFAULT_R_CAP:
        raise ResourceLimitError(
            f"{r} parallel edge predicates would blow the universe up by "
            f"2^{r * k}"
        )
    colours: dict[ObjectId, dict[ObjectId, int]] = {}
    for bit, pred in enumerate(edge_preds):
        for a, b in structure.relation(pred).records:
            row = colours.setdefault(a, {})
            row[b] = row.get(b, 0) | 1 << bit
    return edge_preds, colours


def remove_parallel_edges(
    structure: RelationalStructure,
    formula: OptFormula,
) -> tuple[RelationalStructure, OptFormula, dict[str, tuple[ObjectId, ...]]]:
    """Combine the r binary opt/count predicates into one edge predicate.

    Every object v is cloned once per optimization slot (labelled ``v@i``,
    marked by a fresh unary predicate per slot) and copied once per color
    tuple alpha in ({0,1}^r)^k (labelled ``v#j``, marked C_j).  An edge
    (x-clone at slot i, copy y_alpha) exists iff alpha_i is the exact color of
    (x, y) or alpha_i = 0 with a nonzero color.  Slot markers keep the shared
    object domain from mixing slots.  The third value maps each optimization
    variable to its slot's clones in original object order: tuple values
    are preserved under that back-map.
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
    edge_preds, colours = _edge_colours(structure, atoms, y, k)
    patterns = list(product(range(1 << len(edge_preds)), repeat=k))

    n = structure.n
    labels: list[str] = []
    clone_id: dict[tuple[ObjectId, int], int] = {}
    copy_id: dict[tuple[ObjectId, int], int] = {}
    for v in range(n):
        for i in range(k):
            clone_id[v, i] = len(labels)
            labels.append(f"{structure.labels[v]}@{i + 1}")
    for v in range(n):
        for pi in range(len(patterns)):
            copy_id[v, pi] = len(labels)
            labels.append(f"{structure.labels[v]}#{pi}")

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
    for v, row in colours.items():
        for w, color in row.items():
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
                sub[a] = TRUE if alpha[i] >> bit & 1 else FALSE
        parts.append(map_atoms(formula.body, lambda a: sub.get(a, a)))
        disjuncts.append(conjoin(parts))
    slot_atoms: list[Expr] = [
        Atom(slot_names[i], (xvar,))
        for i, xvar in enumerate(formula.opt_vars)
    ]
    body = conjoin(slot_atoms + [disjoin(disjuncts)])
    domains = {
        var: tuple(clone_id[v, i] for v in range(n))
        for i, var in enumerate(formula.opt_vars)
    }
    return new_structure, formula.with_body(body), domains


# --- step 3: conversion to the Hybrid Problem --------------------------------

def to_hybrid(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> list[tuple[HybridInstance, tuple[tuple[ObjectId, ...], ...]]]:
    """Rewrite a cross-free, hyperedge-free formula as Hybrid Problem
    instances, one per realized unary assignment sigma of the optimization
    variables; parallel-edge removal is fused into the conversion.  Each
    instance comes with its witness back-map: per family, the object each
    set came from.

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

    The per-object work follows the records: an object in no unary
    predicate of the body has the empty colour, a y with no in-edge can
    only be given alpha_i = 0, and an x with no out-edge has the empty set,
    so each of them costs one lookup.
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
    edge_preds, out_edges = _edge_colours(structure, atoms, y, k)
    r = len(edge_preds)
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

    # per y with an in-edge, the slot colours alpha_i a tuple can give it: 0
    # and each c(x, y); every other y can only be given 0
    in_sets: dict[ObjectId, set[int]] = {}
    for colours in out_edges.values():
        for b, c in colours.items():
            in_sets.setdefault(b, {0}).add(c)
    in_colours = {b: frozenset(cs) for b, cs in in_sets.items()}
    no_in = frozenset({0})

    def unary_colours(preds: set[str]) -> dict[ObjectId, frozenset[str]]:
        # the unary predicates of preds holding each object in one of them;
        # every other object has the empty colour
        held: dict[ObjectId, set[str]] = {}
        for p in preds:
            for v in structure.unary_members(p):
                held.setdefault(v, set()).add(p)
        return {v: frozenset(ps) for v, ps in held.items()}

    doms = resolve_domains(structure, formula, domains)
    no_colour: frozenset[str] = frozenset()
    x_colours = unary_colours({a.pred for a in unary_atoms if a.args[0] != y})
    y_colours = unary_colours({a.pred for a in unary_atoms if a.args[0] == y})

    realized: list[list[frozenset[str]]] = []
    members_by_colour: list[dict[frozenset[str], list[ObjectId]]] = []
    for var in formula.opt_vars:
        groups: dict[frozenset[str], list[ObjectId]] = {}
        for v in doms[var]:
            groups.setdefault(x_colours.get(v, no_colour), []).append(v)
        realized.append(sorted(groups, key=sorted))
        members_by_colour.append(groups)
    assignments = math.prod(len(colours) for colours in realized)
    if assignments > SIGMA_CAP:
        raise ResourceLimitError(
            f"{assignments} unary assignments exceed the cap of {SIGMA_CAP}"
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

    no_set: frozenset[int] = frozenset()
    out: list[tuple[HybridInstance, tuple[tuple[ObjectId, ...], ...]]] = []
    for sigma in product(*realized):
        fam_objects = tuple(
            tuple(members_by_colour[i][sigma[i]]) for i in range(k)
        )
        types: list[int] = []
        labels: list[str] = []
        # per y with an in-edge, its elements as (alpha, element); no set
        # holds an element of any other y
        elements_of: dict[ObjectId, list[tuple[int, int]]] = {}
        for v in doms[y]:
            hit = kept(y_colours.get(v, no_colour), sigma, in_colours.get(v, no_in))
            if not hit:
                continue
            if v in in_colours:
                elements_of[v] = list(zip(hit, count(len(types))))
            types.extend(map(type_of.__getitem__, hit))
            name = structure.labels[v]
            labels.extend(f"{name}:{alpha}" for alpha in hit)
        families = [
            [
                frozenset(
                    u
                    for w, c in out_edges[x].items()
                    for alpha, u in elements_of.get(w, ())
                    if (alpha >> (r * i) & low) in (0, c)
                )
                if x in out_edges
                else no_set
                for x in objects
            ]
            for i, objects in enumerate(fam_objects)
        ]
        set_labels = [[structure.labels[x] for x in objects] for objects in fam_objects]
        inst = HybridInstance(
            k, formula.kind, types, families, labels=labels, set_labels=set_labels
        )
        out.append((inst, fam_objects))
    return out


# --- the lift's scorer ---------------------------------------------------------

class HybridScorer:
    """The lift's scorer for one (structure, cross-free core).

    The hybrid conversion runs once, at construction.  A call scores every
    combination of the given groups with one batched query of the IP solver
    (``IpSolver.query``) per hybrid instance (one instance per unary
    assignment sigma; see ``solve_hybrid_with_info``): family i's blocks are
    the set indices of each group's objects in that instance.  A
    combination's score is its best value over the instances.

    ``block_calls`` counts the batched queries, ``ip_calls`` the
    per-instance ``solve`` calls they made, ``coords`` the coordinates they
    read and ``pairs_joined`` the pairs of sets their joins counted.  A
    query that leaves ``coords`` unset breaks the ``IpSolver`` contract.
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
                [{v: j for j, v in enumerate(objects)} for objects in family_objects],
            )
            for inst, family_objects in instances
        ]
        self.universe = max((inst.size for inst, _ in instances), default=0)
        self.ip_calls = self.block_calls = self.coords = self.pairs_joined = 0

    def __call__(self, groups: Groups) -> list[int | None]:
        best: list[int | None] | None = None
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
            if "coords" not in info:
                raise ContractError(
                    "the IP solver's query must set info['coords'], the coordinates it read"
                )
            self.coords += info["coords"]
            self.pairs_joined += info.get("pairs_joined", 0)
            if best is None:
                best = values  # the first scored instance's values, as they are
            else:
                best = [
                    b if v is None else v if b is None else self.better(b, v)
                    for b, v in zip(best, values)
                ]
        return [None] * len(groups) ** self.k if best is None else best


# --- end-to-end driver --------------------------------------------------------

@dataclass
class ReductionTrace:
    """Per-stage statistics of one reduce_and_solve run, and the source of
    its answer: ``side`` (a side problem), ``resolve`` (a re-solved group
    combination; the groups hold every object, heavy vertices included),
    ``baseline`` or ``multicount``; None when no tuple exists."""

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

    def engine_answer(
        self, engine: str, structure: RelationalStructure, formula: OptFormula, **route
    ) -> tuple[int | None, ReductionTrace]:
        """The (value, trace) to return when one query of an exact engine,
        ``baseline`` or ``multicount``, answers the input; the stage named
        after the engine holds ``route`` and the query's work counts."""
        solve = baseline_opt if engine == "baseline" else multi_counting_opt
        stats: dict = {}
        res = solve(structure, formula, stats_out=stats)
        self.add(engine, **route, **stats)
        return self.answer(res, engine)

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
    optimization variable is a baseline base case (stage ``baseline
    reason=k=1``).  So are three or more (``reason=k>=3``): there the scorer
    solves one IP instance per group combination, so the lift loses to one
    oracle query wherever it prunes.  k=2 runs hyperedge removal.  Where
    the lift's scores can prune (``LiftGrouping.prunes``), the grouped
    cross-edge lift with the hybrid-through-IP scorer solves the whole plan,
    its hyperedge and cross sides included.  Elsewhere, and past
    a resource limit of the lift, one baseline query of the input answers:
    the side problems and the guarded main problem partition its tuples, so
    the (value, witness) is theirs.
    """
    if ip_solver.kind != formula.kind:
        raise ContractError("ip solver kind does not match the formula")
    check_schema(formula, structure)
    trace = ReductionTrace()
    trace.add("input", m=structure.m, n=structure.n, k=formula.k, ell=formula.ell)

    if formula.ell >= 2:
        trace.path = "multicount"
        return trace.engine_answer("multicount", structure, formula)

    if formula.k != 2:
        trace.path = "baseline"
        reason = "k>=3" if formula.k >= 3 else "k=1"
        return trace.engine_answer("baseline", structure, formula, reason=reason)

    trace.path = "reduction"
    plan = remove_hyperedges(structure, formula)
    trace.add(
        "hyperedge-removal",
        m=plan.main_structure.m,
        n=plan.main_structure.n,
        sides=len(plan.main_guard),
    )

    def baseline_answer(reason: str) -> tuple[int | None, ReductionTrace]:
        grouping = plan.grouping
        return trace.engine_answer(
            "baseline", structure, formula,
            reason=reason, groups=grouping.light_groups, bound=grouping.bound,
        )

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
            coords=scorer.coords,
            pairs_joined=scorer.pairs_joined,
        )
    if limit is not None:
        trace.warnings.append(f"falling back to baseline: {limit}")
        return baseline_answer("resource-limit")
    return trace.answer(res, source)
