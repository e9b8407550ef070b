import hashlib
import json
import math
import random
from itertools import product
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from relopt.baseline import (
    OptResult,
    PreparedBaseline,
    baseline_opt,
    baseline_opt_restricted,
    baseline_values,
    guard_holds,
    naive_values,
    opt_of_table,
)
from relopt.errors import ContractError, ResourceLimitError
from relopt.formula import (
    And,
    Atom,
    Not,
    Or,
    atoms_of,
    eval_expr_table,
    parse_expr,
    parse_formula,
)
from relopt.hybrid import val
from relopt.ip import IpSolver, approx_wrapper, exact_solver, make_ip_solver
from relopt.reduction import (
    HybridScorer,
    _combo_of,
    _ranked,
    combine_results,
    lift_grouping,
    normalize_formula,
    reduce_and_solve,
    remove_hyperedges,
    remove_parallel_edges,
    solve_cross_free_lift,
    solve_positive_cross_edge,
    split_cross_atoms,
    to_hybrid,
)
from relopt.structure import Relation, RelationalStructure, build_structure, load_structure

from oracles import (
    bench_instances,
    greedy_groups,
    guarded_opt,
    nested_loop_opt,
    random_body_text,
    random_instance,
)
from test_baseline import GOLDEN_SETS


def conforming_instance(rng, k=2, n_objects=7, unary=2, kind=None):
    """Random instance whose body is already in the to_hybrid shape."""
    from oracles import random_structure

    structure = random_structure(rng, n_objects, binary=1, unary=unary)
    opt_vars = tuple(f"x{i+1}" for i in range(k))
    pool = [f"E0({x},y1)" for x in opt_vars]
    for u in range(unary):
        pool.append(f"P{u}(y1)")
        pool.extend(f"P{u}({x})" for x in opt_vars)

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            leaf = rng.choice(pool)
            return f"!{leaf}" if rng.random() < 0.35 else leaf
        op = rng.choice(["&", "|"])
        return f"({gen(depth-1)} {op} {gen(depth-1)})"

    body = gen(3)
    kind = kind or rng.choice(["max", "min"])
    text = f"{kind} {','.join(opt_vars)} . count y1 . {body}"
    return structure, parse_formula(text)


# --- normalize ----------------------------------------------------------------

def test_normalize_repeated_variables():
    s = load_structure("rel E 2\nE a a\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x1) & E(x1,y)")
    s2, f2 = normalize_formula(s, f)
    atoms = list({a.pred: a for a in __import__("relopt.formula", fromlist=["atoms_of"]).atoms_of(f2.body)}.values())
    unary = [a for a in atoms if len(a.args) == 1]
    assert len(unary) == 1
    members = s2.unary_members(unary[0].pred)
    assert members == frozenset({s2.index("a")})


def test_normalize_orients_reversed_edges():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x . count y . E(y,x)")
    s2, f2 = normalize_formula(s, f)
    from relopt.formula import atoms_of

    atom = next(iter(atoms_of(f2.body)))
    assert atom.args == ("x", "y")
    assert (s2.index("b"), s2.index("a")) in s2.relation(atom.pred).records


def test_normalize_preserves_values():
    rng = random.Random(50)
    for _ in range(25):
        structure, formula = random_instance(rng, k=2, ell=1, n_objects=6)
        s2, f2 = normalize_formula(structure, formula)
        assert baseline_values(s2, f2) == baseline_values(structure, formula)


# --- positive cross edge --------------------------------------------------------

def _cross_edge(structure, formula, forced):
    return solve_positive_cross_edge(PreparedBaseline(structure, formula), forced)


def test_cross_edge_toy():
    s = load_structure("rel E 2\nrel F 2\nE a b\nF a 1\nF a 2\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & F(x1,y)")
    forced = Atom("E", ("x1", "x2"))
    res = _cross_edge(s, f, forced)
    assert res == (2, (s.index("a"), s.index("b")))
    assert res == guarded_opt(s, f, None, [(forced, True)])


def test_cross_edge_without_forced_records_is_none():
    # no tuple carries the forced edge, so the side has no optimum
    s = load_structure("rel E 2\nrel F 2\nF a 1\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & F(x1,y)")
    forced = Atom("E", ("x1", "x2"))
    assert _cross_edge(s, f, forced) is None
    assert guarded_opt(s, f, None, [(forced, True)]) is None


def test_cross_edge_rejects_a_forced_atom_over_a_count_variable():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    for args in (("x1", "y"), ("y", "x2"), ("x1", "x1")):
        with pytest.raises(ContractError):
            _cross_edge(s, f, Atom("E", args))


def test_cross_edge_matches_baseline_random():
    rng = random.Random(51)
    for trial in range(150):
        k = rng.choice([2, 2, 3])
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(2, 7), allow_cross=True
        )
        forced = Atom("E0", (formula.opt_vars[0], formula.opt_vars[1]))
        want = guarded_opt(structure, formula, None, [(forced, True)])
        assert _cross_edge(structure, formula, forced) == want, f"trial {trial} {formula}"


def test_cross_edge_restricted_mode():
    s = load_structure("rel E 2\nrel F 2\nE a b\nF a 1\nF b 1\n")
    fmin = parse_formula("min x1,x2 . count y . E(x1,x2) & F(x1,y)")
    forced = Atom("E", ("x1", "x2"))
    # only the single E pair takes part, value 1; over every tuple the
    # pairs without the edge drag the minimum to 0
    evaluator = PreparedBaseline(s, fmin)
    assert evaluator.opt(None, ((forced, True),)) == (1, (s.index("a"), s.index("b")))
    assert baseline_opt(s, fmin).value == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cross_edge_is_the_guarded_optimum_of_the_forced_tuples(data):
    # k in {2, 3}, both kinds and both orientations of the forced atom, which
    # the body may also hold plain, negated or under a disjunction; an extra
    # (atom, False) literal may join the guard
    k = data.draw(st.sampled_from([2, 3]))
    rng = data.draw(st.randoms(use_true_random=False))
    structure, formula = random_instance(
        rng,
        k=k,
        n_objects=data.draw(st.integers(2, 6)),
        kind=data.draw(st.sampled_from(["max", "min"])),
    )
    forced = Atom("E0", tuple(data.draw(st.permutations(formula.opt_vars))[:2]))
    placed = data.draw(st.sampled_from(["none", "and", "not-and", "or", "not-or"]))
    if placed != "none":
        literal = Not(forced) if placed.startswith("not") else forced
        join = And if placed.endswith("and") else Or
        formula = formula.with_body(join(literal, formula.body))
    guard = []
    if data.draw(st.booleans()):
        a, b = data.draw(st.permutations(formula.opt_vars))[:2]
        guard.append((Atom("E1", (a, b)), False))
    got = PreparedBaseline(structure, formula).opt(None, tuple(guard) + ((forced, True),))
    assert got == guarded_opt(structure, formula, None, guard + [(forced, True)]), (
        f"{formula} forced {forced} guard {guard}"
    )


def test_side_query_runs_a_base_case_per_object_of_its_atom(monkeypatch):
    # the forced atom's positive literal narrows the loop of x1 too, so a
    # side query of the lift runs one base case per x1 that has a record of
    # the atom, not one per object: 399 base cases on lift-sparse seed 1,
    # whose 8 instances have 1,127 objects
    from relopt import reduction

    calls = []

    def counting(evaluator, forced):
        before = evaluator.base_cases
        res = solve_positive_cross_edge(evaluator, forced)
        column = forced.args.index(evaluator.formula.opt_vars[0])
        records = evaluator.structure.relation(forced.pred).records
        calls.append((evaluator.base_cases - before, len({r[column] for r in records})))
        return res

    monkeypatch.setattr(reduction, "solve_positive_cross_edge", counting)
    instances = bench_instances()
    for structure_text, formula_text in instances.instance_texts("lift-sparse", 1):
        formula = parse_formula(formula_text)
        reduce_and_solve(load_structure(structure_text), formula, exact_solver(formula.kind))
    assert calls, "no side query ran"
    for ran, objects in calls:
        assert ran <= objects, calls
    assert sum(ran for ran, _ in calls) == 399


def _seeded_pairs(evaluator, forced):
    """Over the base cases of a k=2 side query forced by E(x1,x2) or
    E(x2,x1), the mixed pairs (u, w), static and dynamic, of each base
    case's seeded u objects: one (x1, u) per record of E, and per record
    each w that makes a mixed atom true."""
    formula, structure = evaluator.formula, evaluator.structure
    u, (w,) = formula.opt_vars[-1], formula.count_vars
    mixed = [
        (a.args, structure.relation(a.pred).records)
        for a in atoms_of(formula.body)
        if u in a.args and w in a.args
    ]
    total = 0
    for rec in structure.relation(forced.pred).records:
        asn = dict(zip(forced.args, rec))
        for wv in range(structure.n):
            asn[w] = wv
            total += any(tuple(asn[v] for v in args) in records for args, records in mixed)
    return total


def test_side_query_applies_only_its_seeded_u_objects_pair_deltas(monkeypatch):
    # a side query's positive literal seeds each base case's u objects, and
    # each is recounted from its own mixed pairs: no other u is corrected, so
    # the query applies at most the deltas of those pairs.  On lift-sparse
    # seed 1 that is 185 deltas over the 8 side queries, where a walk over
    # every u that a moved w reaches through its static partners applies 428
    from relopt import reduction

    calls = []

    def counting(evaluator, forced):
        before = evaluator.pair_deltas
        res = solve_positive_cross_edge(evaluator, forced)
        calls.append((evaluator.pair_deltas - before, _seeded_pairs(evaluator, forced)))
        return res

    monkeypatch.setattr(reduction, "solve_positive_cross_edge", counting)
    instances = bench_instances()
    for structure_text, formula_text in instances.instance_texts("lift-sparse", 1):
        formula = parse_formula(formula_text)
        reduce_and_solve(load_structure(structure_text), formula, exact_solver(formula.kind))
    assert len(calls) == 8 and sum(bound for _, bound in calls) > 0, calls
    for applied, bound in calls:
        assert applied <= bound, calls


def test_side_queries_never_reach_the_walks_memo(monkeypatch):
    # a side query's positive literal on u (x2 at k=2) reads x1, so it pins
    # every leading variable: its walk gets no key function, and builds and
    # stores no key
    from relopt import baseline, reduction

    walks, side_walks = [], []

    class Recording(baseline.LeadingWalk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            walks.append(self)

    def side(evaluator, forced):
        before = len(walks)
        res = solve_positive_cross_edge(evaluator, forced)
        side_walks.extend(walks[before:])
        return res

    monkeypatch.setattr(baseline, "LeadingWalk", Recording)
    monkeypatch.setattr(reduction, "solve_positive_cross_edge", side)
    instances = bench_instances()
    for structure_text, formula_text in instances.instance_texts("lift-sparse", 1):
        formula = parse_formula(formula_text)
        reduce_and_solve(load_structure(structure_text), formula, exact_solver(formula.kind))
    assert side_walks, "no side query ran"
    for walk in side_walks:
        assert walk.key is None and walk.memo == {} and walk.reused == 0
        assert walk.cases > 0


# --- hyperedge removal ----------------------------------------------------------

def test_remove_hyperedges_identity():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    plan = remove_hyperedges(s, f)
    assert plan.main_guard == ()
    assert plan.formula == plan.main_core == f


def test_remove_hyperedges_ternary():
    s = load_structure("rel R 3\nR a b c\nR a b d\n")
    f = parse_formula("max x1,x2 . count y . R(x1,x2,y)")
    plan = remove_hyperedges(s, f)
    assert len(plan.main_guard) == 1
    from relopt.formula import Const, atoms_of

    assert not any(len(a.args) >= 3 for a in atoms_of(plan.main_core.body))
    n_atom = plan.main_guard[0][0]
    n_rel = plan.main_structure.relation(n_atom.pred)
    a, b = s.index("a"), s.index("b")
    assert (a, b) in n_rel.records and (b, a) in n_rel.records


def test_plan_carries_its_cross_split():
    # the lift and `relopt reduce` read the cross split off the plan, built
    # once; the sides are the guard's atoms, then the cross atoms.  E(x1,x1)
    # repeats a variable, so it is no cross atom, normalized or not
    s = load_structure("rel R 3\nR a b c\nrel E 2\nE a b\nE a a\n")
    f = parse_formula(
        "max x1,x2 . count y . R(x1,x2,y) | E(x1,y) & !E(x2,x1) | E(x1,x1)"
    )
    assert split_cross_atoms(f)[0] == [Atom("E", ("x2", "x1"))]
    plan = remove_hyperedges(s, f)
    cross, core = split_cross_atoms(plan.main_core)
    assert len(plan.main_guard) == len(cross) == 1
    assert (plan.cross, plan.core) == (cross, core)
    assert plan.cross is plan.cross and plan.core is plan.core
    assert plan.sides == (plan.main_guard[0][0], *cross)


def _solve_plan(plan):
    """The plan's optimum from the naive oracle: each side is the normalized
    formula over the tuples that carry its guard atom, and the main problem
    the core over the tuples that pass the whole guard."""
    structure = plan.main_structure
    candidates = [
        guarded_opt(structure, plan.formula, None, [(atom, True)])
        for atom, _ in plan.main_guard
    ]
    candidates.append(guarded_opt(structure, plan.main_core, None, plan.main_guard))
    return combine_results(
        plan.formula.kind, [OptResult(*res) for res in candidates if res is not None]
    )


def test_plan_soundness_random():
    rng = random.Random(53)
    for trial in range(80):
        structure, formula = random_instance(
            rng,
            k=2,
            ell=1,
            n_objects=rng.randint(2, 7),
            ternary=rng.choice([0, 1, 1]),
        )
        plan = remove_hyperedges(structure, formula)
        want = baseline_opt(structure, formula)
        assert _solve_plan(plan) == want, f"trial {trial} {formula}"


# --- group partition -------------------------------------------------------------

def test_group_partition_bounds():
    # the reference rule, on the light vertices as the routing groups them
    rng = random.Random(54)
    for _ in range(30):
        from oracles import random_structure

        s = random_structure(rng, rng.randint(2, 12), binary=2, unary=1)
        threshold = rng.randint(1, 6)
        light = [v for v in range(s.n) if s.degree(v) < threshold]
        groups = greedy_groups(s, light, threshold)
        seen = [v for g in groups for v in g]
        assert sorted(seen) == sorted(light)
        for g in groups:
            assert sum(s.degree(v) for v in g) <= 2 * threshold
        total = sum(s.degree(v) for v in light)
        assert len(groups) <= total // max(threshold, 1) + 1


# --- parallel edge removal --------------------------------------------------------

def test_remove_parallel_edges_blowup_counts():
    # r=1, k=2: four copies per object, four edges per nonzero-colored pair
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y) & E(x2,y)")
    s2, f2, _ = remove_parallel_edges(s, f)
    copies = [lab for lab in s2.labels if "#" in lab]
    assert len(copies) == 4 * s.n
    from relopt.formula import atoms_of

    e_pred = next(
        a.pred for a in atoms_of(f2.body) if len(a.args) == 2
    )
    # pair (a, b) has one nonzero color; per slot there are 2*2^(r(k-1)) = 4
    # edges, and a is cloned for both slots
    assert len(s2.relation(e_pred).records) == 8


def test_remove_parallel_edges_r_cap():
    # both lemmas colour the edges through one helper and share its cap;
    # the driver's fallback warning reads this message
    rels = {f"E{i}": {(0, 1)} for i in range(5)}
    s = build_structure(["a", "b"], rels, {f"E{i}": 2 for i in range(5)})
    body = " & ".join(f"E{i}(x1,y)" for i in range(5))
    f = parse_formula(f"max x1,x2 . count y . {body}")
    for lemma in (remove_parallel_edges, to_hybrid):
        with pytest.raises(ResourceLimitError, match="^5 parallel edge predicates"):
            lemma(s, f)


def test_remove_parallel_edges_rejects_cross():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2)")
    with pytest.raises(ContractError):
        remove_parallel_edges(s, f)


def test_remove_parallel_edges_preserves_values():
    rng = random.Random(55)
    for trial in range(40):
        k = rng.choice([2, 2, 3])
        structure, formula = random_instance(
            rng,
            k=k,
            ell=1,
            n_objects=rng.randint(2, 5),
            binary=1 if k == 3 else rng.choice([1, 2]),
            allow_cross=False,
        )
        s2, f2, doms = remove_parallel_edges(structure, formula)
        got = baseline_values(s2, f2, doms)
        want = baseline_values(structure, formula)
        mapping = {v: i for i, v in enumerate(range(structure.n))}
        for key, value in want.items():
            mapped = tuple(doms[formula.opt_vars[i]][key[i]] for i in range(k))
            assert got[mapped] == value, f"trial {trial} {formula}"


def test_remove_parallel_edges_zero_color_copy():
    # an object unrelated to anything still counts through its zero copy
    s = load_structure("rel E 2\nrel P 1\nE a b\nP c\n")
    f = parse_formula("max x1,x2 . count y . !E(x1,y) & P(y)")
    s2, f2, doms = remove_parallel_edges(s, f)
    got = baseline_values(s2, f2, doms)
    want = baseline_values(s, f)
    for key, value in want.items():
        mapped = tuple(doms[f.opt_vars[i]][key[i]] for i in range(2))
        assert got[mapped] == value


def test_remove_parallel_edges_slot_domains_follow_labels_and_markers():
    # the returned back-map keeps the labelling rule: slot i's domain maps
    # object v to the clone labelled <label(v)>@<i+1>, and it is exactly the
    # member set of the slot's marker, the one fresh unary relation on x_i
    rng = random.Random(57)
    for trial in range(40):
        k = rng.choice([2, 2, 3])
        structure, formula = random_instance(
            rng,
            k=k,
            ell=1,
            n_objects=rng.randint(1, 6),
            binary=1 if k == 3 else rng.choice([1, 2]),
            allow_cross=False,
        )
        if rng.random() < 0.3:
            # a relation already named like a marker makes the marker fresh
            taken = Relation("slot1", 1, frozenset())
            structure = RelationalStructure(
                structure.labels, {**structure.relations, "slot1": taken}
            )
        normalized, _ = normalize_formula(structure, formula)
        s2, f2, doms = remove_parallel_edges(structure, formula)
        assert list(doms) == list(formula.opt_vars), f"trial {trial}"
        for i, var in enumerate(formula.opt_vars):
            want = [f"{structure.labels[v]}@{i + 1}" for v in range(structure.n)]
            assert [s2.labels[c] for c in doms[var]] == want, f"trial {trial}"
            markers = {
                a.pred
                for a in atoms_of(f2.body)
                if a.args == (var,) and a.pred not in normalized.relations
            }
            assert len(markers) == 1, f"trial {trial} {markers}"
            assert s2.unary_members(markers.pop()) == set(doms[var]), f"trial {trial}"


# --- to_hybrid ---------------------------------------------------------------------

def test_to_hybrid_sparse_max_ip_shape():
    s = load_structure("rel E 2\nE a 1\nE a 2\nE b 2\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y) & E(x2,y)")
    instances = to_hybrid(s, f)
    assert len(instances) == 1
    inst, back = instances[0]
    assert set(inst.element_types) == {3}
    # y = 1 and y = 2 are the only objects with an edge into them
    assert inst.size == 2


def test_to_hybrid_empty_body_universe():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . false")
    instances = to_hybrid(s, f)
    inst, _ = instances[0]
    assert inst.size == 0


def test_to_hybrid_negated_edges_universe_in_zero_part():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . !E(x1,y) & !E(x2,y)")
    instances = to_hybrid(s, f)
    inst, back = instances[0]
    assert set(inst.element_types) == {0}
    want = baseline_opt(s, f)
    got = max(
        val(inst, key)[1]
        for key in product(*(range(len(fam)) for fam in inst.families))
    )
    assert got == want.value


def test_to_hybrid_rejects_cross():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & E(x1,y)")
    with pytest.raises(ContractError):
        to_hybrid(s, f)


def _tuple_values(instances):
    seen = {}
    for inst, family_objects in instances:
        for key in product(*(range(len(f)) for f in inst.families)):
            tup = tuple(family_objects[i][j] for i, j in enumerate(key))
            seen[tup] = val(inst, key)[1]
    return seen


# atoms with a repeated variable, which normalization turns into unary ones
REPEATED_ATOMS = ("E0(x1,x1)", "!E0(x2,x2)", "E0(y1,y1)", "!E1(x1,x1)")


def test_to_hybrid_preserves_values():
    rng = random.Random(56)
    for trial in range(50):
        k = rng.choice([2, 2, 3])
        structure, formula = conforming_instance(rng, k=k, n_objects=rng.randint(2, 7))
        want = baseline_values(structure, formula)
        seen = _tuple_values(to_hybrid(structure, formula))
        assert seen == want, f"trial {trial} {formula}"
    # parallel edges: several forward and reversed edge predicates, fused
    # into the conversion; on k=2 there are as many instances as in the
    # two-step chain, none larger, since only the fused conversion sees the
    # colours realized at each y
    compared = 0
    for trial in range(40):
        k = rng.choice([2, 2, 3])
        binary = rng.randint(1, 3)
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(2, 5), binary=binary,
            allow_cross=False,
        )
        extra = rng.choice(REPEATED_ATOMS[:3] if binary == 1 else REPEATED_ATOMS)
        formula = formula.with_body(
            (And if rng.random() < 0.5 else Or)(formula.body, parse_expr(extra))
        )
        instances = to_hybrid(structure, formula)
        want = baseline_values(structure, formula)
        assert _tuple_values(instances) == want, f"trial {trial} {formula}"
        if k == 2:
            s2, f2, doms = remove_parallel_edges(structure, formula)
            chain = to_hybrid(s2, f2, domains=doms)
            sizes = sorted(inst.size for inst, _ in instances)
            chain_sizes = sorted(inst.size for inst, _ in chain)
            assert len(sizes) == len(chain_sizes), f"trial {trial} {formula}"
            assert all(map(int.__le__, sizes, chain_sizes)), f"trial {trial} {formula}"
            compared += 1
    assert compared


def test_to_hybrid_keeps_only_alphas_realized_at_y():
    # an element (y, alpha) whose nonzero alpha_i is no colour c(x, y) of any
    # object x is counted by no tuple: it is dropped, and the tuple values
    # stay those of the nested-loop evaluation
    rng = random.Random(61)
    dropped = 0
    for trial in range(60):
        k = rng.choice([2, 2, 3])
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(2, 6), binary=rng.randint(1, 2),
            allow_cross=False,
        )
        instances = to_hybrid(structure, formula)
        want = naive_values(structure, formula)
        assert _tuple_values(instances) == want, f"trial {trial} {formula}"
        s0, f0 = normalize_formula(structure, formula)
        preds = sorted({a.pred for a in atoms_of(f0.body) if len(a.args) == 2})
        r, low = len(preds), (1 << len(preds)) - 1
        colour = {}
        for bit, pred in enumerate(preds):
            for a, b in s0.relation(pred).records:
                colour[a, b] = colour.get((a, b), 0) | 1 << bit
        at = {y: {0} | {c for (_, b), c in colour.items() if b == y} for y in range(s0.n)}
        for inst, _ in instances:
            for label in inst.labels:
                y_label, alpha = label.rsplit(":", 1)
                slots = [int(alpha) >> (r * i) & low for i in range(k)]
                assert set(slots) <= at[s0.index(y_label)], f"trial {trial} {label}"
        # some y lacks a colour, so there were alphas to drop
        dropped += any(len(at[y]) < 1 << r for y in range(s0.n))
    assert dropped


def _hybrid_reference(structure, formula, domains=None):
    """to_hybrid's instances by its docstring's definition, one object and
    one alpha at a time: per realized sigma, (element types, families,
    labels, set labels, back-map).  An object's unary colour is the set of
    unary predicates on optimization variables that hold at it; slot i's
    realized colours are those of its domain, in the order of their sorted
    predicate names, and a family lists its objects in domain order."""
    s, f = normalize_formula(structure, formula)
    k, y = f.k, f.count_vars[0]
    atoms = set(atoms_of(f.body))
    preds = sorted({a.pred for a in atoms if len(a.args) == 2})
    r, low = len(preds), (1 << len(preds)) - 1

    def domain(var):
        return sorted(set(domains[var])) if domains and var in domains else range(s.n)

    def colour(x, v):  # c(x, y): bit b set when P_b(x, y) holds
        return sum(1 << b for b, p in enumerate(preds) if (x, v) in s.relation(p))

    x_preds = {a.pred for a in atoms if len(a.args) == 1 and a.args[0] != y}

    def unary_colour(v):
        return frozenset(p for p in x_preds if v in s.unary_members(p))

    realized = [
        sorted({unary_colour(v) for v in domain(var)}, key=sorted) for var in f.opt_vars
    ]
    out = []
    for sigma in product(*realized):
        elements = []  # (y, alpha), in order
        for v in domain(y):
            at_v = {0} | {colour(x, v) for x in range(s.n)}
            for alpha in range(1 << (r * k)):
                slots = [alpha >> (r * i) & low for i in range(k)]
                if any(c not in at_v for c in slots):
                    continue
                values = {}
                for a in atoms:
                    if len(a.args) == 2:
                        i = f.opt_vars.index(a.args[0])
                        values[a] = bool(slots[i] >> preds.index(a.pred) & 1)
                    elif a.args[0] == y:
                        values[a] = v in s.unary_members(a.pred)
                    else:
                        values[a] = a.pred in sigma[f.opt_vars.index(a.args[0])]
                if eval_expr_table(f.body, values):
                    elements.append((v, alpha))
        back = tuple(
            tuple(x for x in domain(var) if unary_colour(x) == sigma[i])
            for i, var in enumerate(f.opt_vars)
        )
        families = tuple(
            tuple(
                frozenset(
                    u
                    for u, (v, alpha) in enumerate(elements)
                    if colour(x, v) and (alpha >> (r * i) & low) in (0, colour(x, v))
                )
                for x in objects
            )
            for i, objects in enumerate(back)
        )
        types = tuple(
            sum(1 << i for i in range(k) if alpha >> (r * i) & low) for _, alpha in elements
        )
        labels = tuple(f"{s.labels[v]}:{alpha}" for v, alpha in elements)
        set_labels = tuple(tuple(s.labels[x] for x in objects) for objects in back)
        out.append((types, families, labels, set_labels, back))
    return out


def _hybrid_dump(instances):
    return [
        (inst.element_types, inst.families, inst.labels, inst.set_labels, back)
        for inst, back in instances
    ]


def test_to_hybrid_matches_a_per_object_reference():
    # f is isolated; e has a unary colour and no edge; a, d, e and f have no
    # in-edge; the unary colours {P0}, {P1}, {P0, P1} and {} are realized in
    # both slots, so there are 16 sigmas
    labels = ["a", "b", "c", "d", "e", "f"]
    a, b, c, d, e, _ = range(6)
    structure = build_structure(
        labels,
        {
            "E0": {(a, b), (a, c), (d, b)},
            "E1": {(a, c), (c, b), (b, b)},
            "P0": {(a,), (e,)},
            "P1": {(b,), (e,)},
        },
    )
    formula = parse_formula(
        "max x1,x2 . count y . (E0(x1,y) | P1(y)) & (E1(x2,y) | !P1(x2)) | P0(x1) & !E0(x2,y)"
    )
    instances = to_hybrid(structure, formula)
    assert len(instances) == 16
    assert _hybrid_dump(instances) == _hybrid_reference(structure, formula)
    # random instances with extra isolated objects, some restricted to
    # domains; each case below must occur
    rng = random.Random(73)
    seen = dict(isolated_x=0, coloured_no_edge=0, no_in_edge=0, sigmas=0, domains=0)
    for trial in range(60):
        k = rng.choice([2, 2, 3])
        n = rng.randint(3, 7)
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=n, binary=rng.randint(1, 2),
            unary=rng.randint(1, 2), density=0.15, allow_cross=False,
        )
        structure = build_structure(
            structure.labels + ("z0", "z1"),
            {name: rel.records for name, rel in structure.relations.items()},
            arities={name: rel.arity for name, rel in structure.relations.items()},
        )
        domains = None
        if rng.random() < 0.3:
            domains = {
                var: rng.sample(range(structure.n), rng.randint(1, structure.n))
                for var in formula.opt_vars + formula.count_vars
            }
            seen["domains"] += 1
        instances = to_hybrid(structure, formula, domains=domains)
        assert _hybrid_dump(instances) == _hybrid_reference(structure, formula, domains), (
            f"trial {trial} {formula}"
        )
        s0, f0 = normalize_formula(structure, formula)
        binary = [rel for rel in s0.relations.values() if rel.arity == 2]
        tails = {x for rel in binary for x, _ in rel.records}
        heads = {v for rel in binary for _, v in rel.records}
        unary = set().union(*(rel.records for rel in s0.relations.values() if rel.arity == 1))
        seen["isolated_x"] += any(x not in tails | heads for x in range(s0.n))
        seen["coloured_no_edge"] += any((x,) in unary and x not in tails for x in range(s0.n))
        seen["no_in_edge"] += any(v not in heads for v in range(s0.n))
        seen["sigmas"] += len(instances) >= 2
    assert all(seen.values()), seen


# --- the lift and the driver ---------------------------------------------------------

@st.composite
def _score_lists(draw):
    g, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    values = st.none() | st.integers(-3, 3)
    if draw(st.booleans()):
        values = st.none() | st.just(draw(st.integers(-3, 3)))  # one level
    return g, k, draw(st.lists(values, min_size=g**k, max_size=g**k))


@given(st.sampled_from(["max", "min"]), _score_lists())
@example("max", (2, 2, [None, 1, None, 1]))
@example("min", (3, 1, [None, None, None]))
@example("max", (2, 2, [0, 0, 0, 0]))
@settings(max_examples=200, deadline=None)
def test_ranked_is_the_sorted_signed_scores(kind, drawn):
    # best score first, ties in combination order, None entries never
    # ranked: the order of sorted (signed score, index)
    g, k, scores = drawn
    sign = -1 if kind == "max" else 1
    combos = list(product(range(g), repeat=k))
    want = [
        (sign * key, combos[i])
        for key, i in sorted((sign * v, i) for i, v in enumerate(scores) if v is not None)
    ]
    assert list(_ranked(kind, scores, g, k)) == want
    assert [_combo_of(i, g, k) for i in range(g**k)] == combos



def _baseline_inner(structure, formula):
    def score(groups):
        out = []
        for combo in product(groups, repeat=formula.k):
            res = baseline_opt(structure, formula, dict(zip(formula.opt_vars, combo)))
            out.append(None if res is None else res.value)
        return out

    return score


def test_lift_no_cross_exact_inner_matches_baseline():
    rng = random.Random(57)
    for trial in range(40):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 8), allow_cross=False
        )
        got = solve_cross_free_lift(remove_hyperedges(structure, formula), _baseline_inner)
        assert got == baseline_opt(structure, formula), f"trial {trial} {formula}"


def test_lift_with_cross_matches_baseline():
    rng = random.Random(58)
    for trial in range(60):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 8), allow_cross=True
        )
        got = solve_cross_free_lift(remove_hyperedges(structure, formula), _baseline_inner)
        assert got == baseline_opt(structure, formula), f"trial {trial} {formula}"


def _hub_structure():
    # a hub of degree 8, and two objects of degree 1
    recs = {("h", str(i)) for i in range(8)}
    recs |= {("u", "1"), ("v", "2")}
    return load_structure(
        "rel E 2\n" + "\n".join(f"E {a} {b}" for a, b in sorted(recs)) + "\n"
    )


def test_lift_heavy_vertex_optimum():
    # pin the optimum on the highest-degree vertex: its group must hold it
    s = _hub_structure()
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    got = solve_cross_free_lift(remove_hyperedges(s, f), _baseline_inner)
    want = baseline_opt(s, f)
    assert got == want and want.value == 8


HUB_MIN = "min x1,x2 . count y . E(x1,y) & !E(x2,y)"


@pytest.mark.parametrize("ratio", [0.5, math.nan, math.inf])
def test_lift_rejects_bad_ratios(ratio):
    # the cut trusts the ratio: an exact scorer declared at 0.5 lets it drop
    # combinations that beat the bar
    plan = remove_hyperedges(_hub_structure(), parse_formula(HUB_MIN))
    with pytest.raises(ContractError, match="approximation ratio"):
        solve_cross_free_lift(plan, _baseline_inner, ratio=ratio)


@pytest.mark.parametrize("ratio", [1, 1.0, 2])
def test_lift_accepts_ratios(ratio):
    # exact scores lie within every ratio of at least 1
    s, f = _hub_structure(), parse_formula(HUB_MIN)
    got = solve_cross_free_lift(remove_hyperedges(s, f), _baseline_inner, ratio=ratio)
    assert got == baseline_opt(s, f)


def test_lift_k_override_plumbs_through():
    s = load_structure("rel E 2\nE a 1\nE b 2\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    stats = {}
    solve_cross_free_lift(
        remove_hyperedges(s, f),
        _baseline_inner,
        top_k=1,
        stats_out=stats,
    )
    assert stats["top_k"] == 1


def test_hybrid_scorer_matches_baseline_on_domains():
    # one scorer per instance, many group partitions: the prepared state is
    # reused, and every group combination's score is the baseline optimum
    # with the groups as domains
    rng = random.Random(64)
    values = nones = 0
    for trial in range(30):
        kind = ("max", "min")[trial % 2]
        structure, formula = conforming_instance(
            rng, k=rng.choice([2, 3]), n_objects=rng.randint(2, 7), kind=kind
        )
        score = HybridScorer(structure, formula, exact_solver(kind))
        for _ in range(6):
            # disjoint groups of a random subset of the objects, some empty
            owner = [rng.randrange(-1, 4) for _ in range(structure.n)]
            groups = [
                tuple(v for v in range(structure.n) if owner[v] == g)
                for g in range(rng.randint(1, 4))
            ]
            got = score(groups)
            combos = list(product(groups, repeat=formula.k))
            assert len(got) == len(combos)
            for combo, value in zip(combos, got):
                want = baseline_opt(structure, formula, dict(zip(formula.opt_vars, combo)))
                assert value == (None if want is None else want.value), f"trial {trial}"
                if not all(combo):
                    assert value is None
                    nones += 1
                else:
                    values += 1
    assert values and nones


def test_lift_converts_to_hybrid_at_most_once(monkeypatch):
    import relopt.reduction as reduction

    calls = []
    real = reduction.to_hybrid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, "to_hybrid", counting)
    # parallel-edge removal is fused into to_hybrid; the lift never runs it
    chain_calls = []
    monkeypatch.setattr(
        reduction, "remove_parallel_edges", lambda *a, **kw: chain_calls.append(a)
    )
    rng = random.Random(65)
    cases = [
        (load_structure("rel E 2\n"), parse_formula("max x1,x2 . count y . E(x1,y)"))
    ] + [
        random_instance(rng, k=rng.choice([2, 3]), ell=1, n_objects=rng.randint(2, 8))
        for _ in range(20)
    ]
    grouped = 0
    for structure, formula in cases:
        calls.clear()
        stats = {}
        solver = exact_solver(formula.kind)
        solve_cross_free_lift(
            remove_hyperedges(structure, formula),
            lambda s, f: HybridScorer(s, f, solver),
            stats_out=stats,
        )
        assert len(calls) == (1 if stats["groups"] else 0), formula
        grouped += bool(stats["groups"])
    assert 0 < grouped < len(cases)
    assert chain_calls == []


def _cycle_structure(n=18):
    """An n-cycle with P on every third object: the lift forms groups of
    light vertices.  At n = 18, g^2 = 36 > K = 25, so it prunes; at n = 12,
    g^2 = 16 <= K = 17."""
    edges = "".join(f"E o{i} o{(i + 1) % n}\n" for i in range(n))
    marks = "".join(f"P o{i}\n" for i in range(0, n, 3))
    return load_structure("rel E 2\nrel P 1\n" + edges + marks)


CYCLE_BODIES = (
    "max x1,x2 . count y . E(x1,y) & !E(x2,y) & P(y)",
    "min x1,x2 . count y . E(x1,y) & E(x2,y) | E(x1,x2) & P(x1)",
)


class Rule(NamedTuple):
    """The lift's re-solves by its rule: the combinations (c*'s own re-solve
    first where it has one), the exact queries, c*'s rank from 1 (None where
    it is not within the cap), the bar B, and whether the rule's set fits
    the cap."""

    combos: list
    queries: int
    clean_rank: int | None
    bar: int | None
    fits: bool


def _rule_combinations(plan, scores, top_k, ratio=1.0):
    """The lift's re-solves, recomputed from the scores, the records and
    brute-force optima.  Rank the scored combinations best first, ties by
    the least combination; c* is the first one within top_k all of whose
    tuples pass the plan's guard with every cross atom false, S* its score.
    The bar (B, w) is (S*, c*'s least witness) under an exact scorer, and
    otherwise the naive optimum and least witness over the tuples that fail
    that guard and c*'s, c* being re-solved on its own.  Keep a ranked
    combination other than that re-solved c* while its score can still tie
    B, if it can beat B or its first group is not after the group of w's
    x1; cap the re-solves at top_k.  Without c*, the top top_k.  The
    queries are one per slot prefix of the kept combinations, plus c*'s.
    The set fits the cap where the cap cuts none of it."""
    structure, formula = plan.main_structure, plan.formula
    cross, _ = split_cross_atoms(plan.main_core)
    full_guard = tuple(plan.main_guard) + tuple((a, False) for a in cross)
    groups = lift_grouping(structure, formula.k).groups
    is_max = formula.kind == "max"
    ranked = sorted(
        ((-value if is_max else value, combo), value)
        for combo, value in zip(product(range(len(groups)), repeat=formula.k), scores)
        if value is not None
    )
    ranked = [(value, combo) for (_, combo), value in ranked]

    def clean(combo):
        return all(
            guard_holds(structure, full_guard, dict(zip(formula.opt_vars, xs)))
            for xs in product(*(groups[ci] for ci in combo))
        )

    star = next((r for r, (_, c) in enumerate(ranked[:top_k]) if clean(c)), None)
    if star is None:
        top = [combo for _, combo in ranked[:top_k]]
        return Rule(top, len({c[:-1] for c in top}), None, None, len(ranked) <= top_k)
    s_star, c_star = ranked[star]
    if ratio == 1:
        bar, bar_group, solo = s_star, c_star[0], []
    else:
        values = _side_and_combo_values(plan, full_guard, groups, c_star)
        bar, w = opt_of_table(values, formula.kind)
        bar_group = next(gi for gi, group in enumerate(groups) if w[0] in group)
        solo = [c_star]
    kept = []
    for value, combo in ranked[:star] + ranked[star + len(solo):]:
        # the combination's guarded optimum is at most value·c (max), at
        # least value/c (min)
        beat = value * ratio > bar if is_max else value < ratio * bar
        tie = value * ratio >= bar if is_max else value <= ratio * bar
        if not tie:
            break
        if beat or combo[0] <= bar_group:
            kept.append(combo)
    capped = kept[: top_k - len(solo)]
    return Rule(
        solo + capped,
        len(solo) + len({c[:-1] for c in capped}),
        star + 1,
        bar,
        len(solo) + len(kept) <= top_k,
    )


def _side_and_combo_values(plan, full_guard, groups, combo):
    """The naive values of ``plan.formula`` over the tuples that carry a side
    atom of ``full_guard`` and over the combination's tuples."""
    structure, formula = plan.main_structure, plan.formula
    values = naive_values(
        structure, formula, dict(zip(formula.opt_vars, (groups[ci] for ci in combo)))
    )
    for atom, _ in full_guard:
        for rec in structure.relation(atom.pred).records:
            # every tuple with the atom's variables at the record
            domains = {var: [x] for var, x in zip(atom.args, rec)}
            values.update(naive_values(structure, formula, domains))
    return values


def _lift_scores(structure, formula, solver):
    """The lift's scores of the cross-free core under the solver."""
    _, core = split_cross_atoms(formula)
    groups = lift_grouping(structure, formula.k).groups
    return HybridScorer(structure, core, solver)(groups) if groups else []


def test_a_query_that_leaves_coords_unset_breaks_the_contract():
    # the scorer sums each batched query's info["coords"]; a query that
    # returns values without setting it is refused by name, not left to
    # escape as a bare KeyError
    structure, formula = _cycle_structure(), parse_formula(CYCLE_BODIES[0])
    exact = exact_solver("max")

    def query(instance, blocks, info):
        values = exact.query(instance, blocks, info)
        del info["coords"]
        return values

    solver = IpSolver("max", 1.0, exact.solve, query)
    with pytest.raises(ContractError, match=r"info\['coords'\]"):
        _lift_scores(structure, formula, solver)
    with pytest.raises(ContractError, match=r"info\['coords'\]"):
        reduce_and_solve(structure, formula, solver)
    assert _lift_scores(structure, formula, exact)  # the shipped query sets it


def test_trace_counts_heavy_solves_resolves_and_ip_calls(monkeypatch):
    from relopt.baseline import PreparedBaseline

    opt_calls = []
    real_opt = PreparedBaseline.opt

    def counting_opt(self, *args, **kwargs):
        opt_calls.append(args)
        return real_opt(self, *args, **kwargs)

    monkeypatch.setattr(PreparedBaseline, "opt", counting_opt)
    structure = _cycle_structure()
    seen = set()
    for text, c in product(CYCLE_BODIES, (1, 2)):
        formula = parse_formula(text)
        plan = remove_hyperedges(structure, formula)
        scorer = approx_wrapper(exact_solver(formula.kind), c)
        reports = []  # the info of each batched query

        def query(instance, blocks, info, scorer=scorer):
            values = scorer.query(instance, blocks, info)
            reports.append(dict(info))
            return values

        opt_calls.clear()
        _, trace = reduce_and_solve(
            structure, formula, IpSolver(scorer.kind, scorer.ratio, scorer.solve, query)
        )
        stages = dict(trace.stages)
        lift = stages["cross-free-lift"]
        assert lift["groups"] and reports
        hybrid = stages["hybrid"]
        assert hybrid["block_calls"] == len(reports)
        for stage_key, info_key in (
            ("ip_calls", "solve_calls"), ("coords", "coords"), ("pairs_joined", "pairs_joined")
        ):
            assert hybrid[stage_key] == sum(r.get(info_key, 0) for r in reports)
        # the heavy vertices are grouped like any other object: no query of
        # their own
        assert lift["heavy"] and "heavy_solves" not in lift
        # the re-solved combinations are the rule's, recomputed from the
        # scores, the records and brute-force optima, within the cap; under
        # the approximate scorer c*'s own re-solve is one more query
        scores = _lift_scores(structure, formula, scorer)
        rule = _rule_combinations(plan, scores, lift["top_k"], c)
        assert lift["resolves"] == len(rule.combos) <= lift["top_k"]
        assert lift["resolve_queries"] == rule.queries
        assert lift["bar"] == rule.bar is not None
        assert (lift["clean_rank"], lift["dirty"]) == (rule.clean_rank, rule.clean_rank - 1)
        # a cross atom's side problem is one query
        cross, _ = split_cross_atoms(formula)
        assert lift["sides"] == len(cross)
        assert len(opt_calls) == lift["resolve_queries"] + len(cross)
        # an explicit top_k caps the rule's combinations, c*'s own re-solve
        # included; where no clean one is ranked within it, the top top_k
        # are re-solved
        for top_k in (1, 3, 100):
            stats = {}

            def prepare(s, f, scorer=scorer):
                return HybridScorer(s, f, scorer)

            solve_cross_free_lift(plan, prepare, top_k=top_k, stats_out=stats, ratio=c)
            rule = _rule_combinations(plan, scores, top_k, c)
            assert stats["resolves"] == len(rule.combos) <= top_k
            assert (stats["clean_rank"], stats["bar"]) == (rule.clean_rank, rule.bar)
            assert stats["exact"] == rule.fits
            if rule.clean_rank is None:
                assert stats["dirty"] == stats["resolves"] == top_k
            # one query per prefix of the kept combinations, plus c*'s
            assert stats["resolve_queries"] == rule.queries
            seen.add((c, rule.clean_rank, len(rule.combos) < top_k))
    # under either scorer the rule stops short of the cap at a c* of rank 1
    # and of rank 3 (past two dirty ones), and at top_k 1 the second body
    # has no clean combination within the cap
    cases = ((1, True), (3, True), (None, False))
    assert {(c, rank, short) for c in (1, 2) for rank, short in cases} <= seen


def _two_record_instance(rng, k, kind):
    """A random instance whose objects lie in at most two records each,
    before normalization adds its reversed and collapsed relations."""
    n = rng.randint(14, 20)
    degree = [0] * n
    rels = {"E0": set(), "E1": set(), "P0": set()}
    for _ in range(4 * n):
        pred = rng.choice(sorted(rels))
        rec = tuple(rng.randrange(n) for _ in range(1 if pred == "P0" else 2))
        if rec in rels[pred] or any(degree[v] >= 2 for v in set(rec)):
            continue
        rels[pred].add(rec)
        for v in set(rec):
            degree[v] += 1
    structure = build_structure(
        [f"o{v}" for v in range(n)], rels, {"E0": 2, "E1": 2, "P0": 1}
    )
    opt_vars = [f"x{i + 1}" for i in range(k)]
    # without cross atoms there are no side problems, so the re-solved
    # combinations alone give the answer
    body = random_body_text(rng, opt_vars, ["y1"], allow_cross=rng.random() < 0.5)
    return structure, parse_formula(f"{kind} {','.join(opt_vars)} . count y1 . {body}")


def test_batched_resolve_equals_one_query_per_selected_combination():
    # the re-solve answers one query per slot prefix; the reference re-solves
    # every combination of the rule on its own.  Under inverted or random
    # scores the selection is not the best combinations, so a query that
    # also covers unselected ones changes the answer.
    rng = random.Random(71)
    pruned = batched = capped = 0
    for trial in range(100):
        k = (2, 3)[trial % 2]
        kind = ("max", "min")[trial // 2 % 2]
        plan = remove_hyperedges(*_two_record_instance(rng, k, kind))
        structure, formula = plan.main_structure, plan.formula
        cross, core = split_cross_atoms(formula)
        evaluator = PreparedBaseline(structure, core)
        grouping = lift_grouping(structure, k)
        groups = grouping.groups
        # the exact scores (the optimum of the cross-free core per
        # combination), the same in inverted order, or random ones
        mode = trial // 4 % 3
        scores = []
        for combo in product(groups, repeat=k):
            res = evaluator.opt(dict(zip(formula.opt_vars, combo)))
            if res is not None:
                res = (res.value, -res.value, rng.randrange(100))[mode]
            scores.append(res)

        def prepare(s, f, scores=scores):
            return lambda groups: scores

        # a random cap, or one just short of c*'s uncapped rank, where the
        # cap binds before the rule is met
        star = _rule_combinations(plan, scores, len(scores)).clean_rank
        top_k = rng.choice(
            [1, rng.randint(2, 6), rng.randint(1, max(1, grouping.combos))]
            + ([star - 1] if star and star > 1 else [])
        )
        guard = tuple((a, False) for a in cross)
        # top_k=0: the side problems only
        rest = solve_cross_free_lift(plan, prepare, top_k=0)
        # ratio 2 re-solves c* on its own first, and its cut compares with the
        # best of the sides and c*
        for ratio in (1, 2):
            stats = {}
            got = solve_cross_free_lift(
                plan, prepare, top_k=top_k, stats_out=stats, ratio=ratio
            )
            rule = _rule_combinations(plan, scores, top_k, ratio)
            resolved = [
                evaluator.opt(
                    {v: groups[ci] for v, ci in zip(formula.opt_vars, combo)}, guard
                )
                for combo in rule.combos
            ]
            want = combine_results(kind, [rest] + resolved)
            assert got == want, f"trial {trial} top_k {top_k} ratio {ratio} {formula}"
            if not groups:
                continue
            assert stats["resolves"] == len(rule.combos) <= top_k
            assert stats["resolve_queries"] == rule.queries
            assert (stats["clean_rank"], stats["bar"]) == (rule.clean_rank, rule.bar)
            if ratio == 1:
                pruned += stats["resolves"] < stats["combos"]
                batched += stats["resolve_queries"] < stats["resolves"]
                capped += rule.clean_rank is None
    assert pruned > 50 and batched > 25 and capped, (pruned, batched, capped)


def test_reduce_and_solve_skips_the_lift_where_nothing_is_pruned(monkeypatch):
    # on the 12-cycle the lift would re-solve every one of g^2 = 16 <= K = 17
    # group combinations, so one baseline query answers without scoring
    import relopt.reduction as reduction

    conversions = []
    real = reduction.to_hybrid
    monkeypatch.setattr(
        reduction, "to_hybrid", lambda *a, **kw: conversions.append(a) or real(*a, **kw)
    )
    structure = _cycle_structure(12)
    for text in CYCLE_BODIES:
        formula = parse_formula(text)
        exact = exact_solver(formula.kind)
        queries = []

        def query(instance, blocks, info, exact=exact):
            queries.append(instance)
            return exact.query(instance, blocks, info)

        value, trace = reduce_and_solve(
            structure, formula, IpSolver(exact.kind, exact.ratio, exact.solve, query)
        )
        want = baseline_opt(structure, formula)
        assert (value, trace.witness) == (want.value, want.witness)
        assert conversions == [] and queries == []
        stages = dict(trace.stages)
        assert "cross-free-lift" not in stages and "hybrid" not in stages
        # one base case per x1; each moves the one w of E(x1,y), whose static
        # pair E(x2,y) is the only delta a base case applies (the second body's
        # E(x1,x2) recolours one u, whose static pair is walked too).  Every
        # x1 has a record of E, so each key pins x1 and the memo reuses none
        deltas = 12 if formula.kind == "max" else 24
        assert stages["baseline"] == {
            "reason": "no-prune", "groups": 4, "bound": 17,
            "base_cases": 12, "reused": 0, "pair_deltas": deltas,
        }
        assert trace.source == "baseline"
        rendered = trace.render()
        assert (
            f"stage baseline base_cases=12 bound=17 groups=4 pair_deltas={deltas} "
            "reason=no-prune reused=0\n"
        ) in rendered
        assert rendered.endswith("source baseline\n")


K3_BODY = "x1,x2,x3 . count y . E(x1,y) & !E(x2,y) | E(x3,y) & E(x1,x2)"


def test_reduce_and_solve_answers_k3_with_one_baseline_query(monkeypatch):
    # on a 26-cycle the k=3 lift would prune (the light vertices' g^3 =
    # 13^3 = 2197 > K = 2029), but at k >= 3 its scorer solves one IP
    # instance per combination: one oracle query answers, and no scorer is
    # built
    import relopt.reduction as reduction

    built = []

    class Counting(HybridScorer):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(reduction, "HybridScorer", Counting)
    n = 26
    structure = load_structure(
        "rel E 2\n" + "".join(f"E o{i} o{(i + 1) % n}\n" for i in range(n))
    )
    for kind in ("max", "min"):
        formula = parse_formula(f"{kind} {K3_BODY}")
        assert remove_hyperedges(structure, formula).grouping.prunes
        value, trace = reduce_and_solve(structure, formula, exact_solver(kind))
        assert (value, trace.witness) == tuple(baseline_opt(structure, formula))
        assert built == []
        assert trace.path == "baseline" and trace.source == "baseline"
        assert [name for name, _ in trace.stages] == ["input", "baseline"]
        # 26^2 base cases; each moves the w objects of E(x1,y) and E(x2,y),
        # one static partner (over E(x3,y)) each, one w where x1 = x2; every
        # object has a record of E, so each key pins (x1, x2) and none recurs
        assert (
            "stage baseline base_cases=676 pair_deltas=1326 reason=k>=3 reused=0\n"
        ) in trace.render()
    # the same counter sees the k=2 lift build its scorer
    reduce_and_solve(_cycle_structure(), parse_formula(CYCLE_BODIES[0]), exact_solver("max"))
    assert len(built) == 1


def _hub_cycle_structure(n=24):
    """An n-cycle with P on every third object, a hub of degree 8 and two
    records of the ternary R: the lift prunes, and on R(x1,x2,y) hyperedge
    removal gives one side."""
    return load_structure(
        "rel E 2\nrel P 1\nrel R 3\nR o0 o5 o1\nR o7 o2 o3\n"
        + "".join(f"E o{i} o{(i + 1) % n}\n" for i in range(n))
        + "".join(f"P o{i}\n" for i in range(0, n, 3))
        + "".join(f"E h o{i}\n" for i in range(0, 16, 2))
    )


HUB_BODY = "x1,x2 . count y . E(x1,y) & E(x2,y) | E(x1,x2) & P(x1) | R(x1,x2,y)"


def test_prune_path_builds_one_evaluator_and_one_query_per_side(monkeypatch):
    # the body has one hyperedge pair and one cross atom: one evaluator of
    # the normalized input answers both sides, the heavy vertices and the
    # re-solves
    import relopt.reduction as reduction

    built, opt_calls, per_side = [], [], []

    class Counting(PreparedBaseline):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def opt(self, *args, **kwargs):
            opt_calls.append(args)
            return super().opt(*args, **kwargs)

    real_side = reduction.solve_positive_cross_edge

    def side(*args, **kwargs):
        before = len(opt_calls)
        result = real_side(*args, **kwargs)
        per_side.append(len(opt_calls) - before)
        return result

    monkeypatch.setattr(reduction, "PreparedBaseline", Counting)
    monkeypatch.setattr(reduction, "solve_positive_cross_edge", side)
    structure = _hub_cycle_structure()
    for kind in ("max", "min"):
        formula = parse_formula(f"{kind} {HUB_BODY}")
        built.clear()
        per_side.clear()
        value, trace = reduce_and_solve(structure, formula, exact_solver(kind))
        assert (value, trace.witness) == tuple(baseline_opt(structure, formula))
        assert len(built) == 1
        assert per_side == [1, 1]
        stages = dict(trace.stages)
        assert stages["hyperedge-removal"]["sides"] == stages["cross-free-lift"]["sides"] == 1


def test_baseline_answers_past_a_resource_limit_of_the_lift(monkeypatch):
    import relopt.reduction as reduction

    def over_cap(*args, **kwargs):
        raise ResourceLimitError("over the cap")

    # the cycle's body has no side; the hub cycle's has a hyperedge side and
    # a cross atom
    cases = [(_cycle_structure(), CYCLE_BODIES[0])] + [
        (_hub_cycle_structure(), f"{kind} {HUB_BODY}") for kind in ("max", "min")
    ]
    for structure, text in cases:
        formula = parse_formula(text)
        solver = exact_solver(formula.kind)
        counts: dict = {}
        want = baseline_opt(structure, formula, stats_out=counts)
        _, trace = reduce_and_solve(structure, formula, solver)
        assert "baseline" not in dict(trace.stages)  # the lift answers
        with monkeypatch.context() as patch:
            patch.setattr(reduction, "to_hybrid", over_cap)
            value, trace = reduce_and_solve(structure, formula, solver)
        assert (value, trace.witness) == (want.value, want.witness), text
        grouping = remove_hyperedges(structure, formula).grouping
        stages = dict(trace.stages)
        # the groups the routing counted: the light vertices'
        assert stages["baseline"] == {
            "reason": "resource-limit",
            "groups": grouping.light_groups,
            "bound": grouping.bound,
            **counts,  # the oracle query's base_cases and pair_deltas
        }
        assert trace.source == "baseline"
        assert "cross-free-lift" in stages and "hybrid" not in stages
        assert trace.warnings == ["falling back to baseline: over the cap"]


def test_lift_converts_hybrid_instances_to_basic_only_under_the_vector_query(
    monkeypatch,
):
    # at k=2 the exact solver's query scores the sparse sets with the signed
    # join and converts nothing; the query of a plain IpSolver(kind, ratio,
    # solve) is the vector query, which converts each instance it scores
    # exactly once and calls solve once per block combination
    import relopt.hybrid as hybrid

    converted = []
    real = hybrid.hybrid_to_basic

    def counting(instance, tau):
        converted.append(instance)
        return real(instance, tau)

    monkeypatch.setattr(hybrid, "hybrid_to_basic", counting)
    formula = parse_formula(CYCLE_BODIES[1])
    assert formula.k == 2
    exact = exact_solver(formula.kind)
    solves = []

    def solve(instance):
        solves.append(instance)
        return exact.solve(instance)

    for solver, plain in (
        (exact, False),
        (IpSolver(exact.kind, exact.ratio, solve), True),
    ):
        converted.clear()
        scorers = []
        score_calls = []

        def prepare(s, f, solver=solver):
            scorer = HybridScorer(s, f, solver)
            scorers.append(scorer)

            def score(groups):
                score_calls.append(groups)
                return scorer(groups)

            return score

        stats = {}
        solve_cross_free_lift(
            remove_hyperedges(_cycle_structure(), formula), prepare, stats_out=stats
        )
        (scorer,) = scorers
        prepared = {id(inst) for inst, _ in scorer.per_sigma}
        assert len(prepared) > 1
        # one scorer call, one block query per instance, for all the combinations
        assert len(score_calls) == 1 and stats["combos"] > scorer.block_calls > 0
        if not plain:
            assert converted == [] and scorer.ip_calls == 0
            continue
        assert len({id(inst) for inst in converted}) == len(converted)
        assert {id(inst) for inst in converted} <= prepared
        assert scorer.block_calls == len(converted)
        assert scorer.ip_calls == len(solves) > 0


def test_lift_indexes_relations_independently_of_top_k(monkeypatch):
    import relopt.baseline as baseline

    built = []
    real_init = baseline.ProjectedAtom.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(baseline.ProjectedAtom, "__init__", counting_init)
    structure = _cycle_structure()
    for text in CYCLE_BODIES:
        formula = parse_formula(text)
        solver = exact_solver(formula.kind)
        scores = _lift_scores(structure, formula, solver)
        runs = {}
        for top_k in (1, None):
            built.clear()
            stats = {}
            solve_cross_free_lift(
                remove_hyperedges(structure, formula),
                lambda s, f: HybridScorer(s, f, solver),
                top_k=top_k,
                stats_out=stats,
            )
            rule = _rule_combinations(
                remove_hyperedges(structure, formula), scores, stats["top_k"]
            )
            assert stats["resolves"] == len(rule.combos) <= stats["top_k"], text
            runs[top_k] = (len(built), stats["resolves"])
        # the rule re-solves more than one combination without the cap of 1,
        # and the evaluator indexes the same relations either way
        assert runs[1][1] < runs[None][1], text
        assert runs[1][0] == runs[None][0], text


def test_lift_projects_each_atom_once_per_key(monkeypatch):
    # the lift's evaluator projects E1(x1,x2) with x1 bound as a u-atom, and
    # the side query's and the re-solve's guards take that projection, not
    # a copy: no (atom, bound variables, free variables) is built twice
    import relopt.baseline as baseline

    built = []
    real_init = baseline.ProjectedAtom.__init__

    def recording_init(self, structure, atom, *args):
        real_init(self, structure, atom, *args)
        built.append((atom, self.fixed_key, self.present_free))

    monkeypatch.setattr(baseline.ProjectedAtom, "__init__", recording_init)
    for structure_text, formula_text in bench_instances().instance_texts("lift-sparse", 1):
        formula = parse_formula(formula_text)
        built.clear()
        _, trace = reduce_and_solve(
            load_structure(structure_text), formula, exact_solver(formula.kind)
        )
        assert "cross-free-lift" in dict(trace.stages), trace.render()
        assert built and len(set(built)) == len(built), built


@st.composite
def l1_instances(draw):
    """Small instances with one counting variable: k in {1, 2, 3}, max and
    min, one or two binary predicates with self-loops among their random
    records, a unary predicate that may hold for no object, an optional
    ternary predicate (a hyperedge) and an optional atom with a repeated
    variable."""
    k = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    structure, formula = random_instance(
        rng,
        k=k,
        n_objects=draw(st.integers(1, 6)),
        kind=draw(st.sampled_from(["max", "min"])),
        binary=draw(st.integers(1, 2)),
        ternary=draw(st.integers(0, 1)),
    )
    repeated = [a for a in REPEATED_ATOMS[:3] if k > 1 or "x2" not in a]
    extra = draw(st.sampled_from([None] + repeated))
    if extra is not None:
        join = draw(st.sampled_from([And, Or]))
        formula = formula.with_body(join(formula.body, parse_expr(extra)))
    return structure, formula


def _pipeline_agrees_with_baseline(structure, formula):
    value, trace = reduce_and_solve(structure, formula, exact_solver(formula.kind))
    want = baseline_opt(structure, formula)
    got = None if value is None else (value, trace.witness)
    assert got == (None if want is None else tuple(want)), str(formula)
    return want, trace


@given(l1_instances())
@settings(max_examples=150, deadline=None)
def test_reduce_and_solve_equals_baseline_on_l1_instances(instance):
    import relopt.reduction as reduction

    structure, formula = instance
    with mock.patch.object(
        reduction, "solve_positive_cross_edge", wraps=reduction.solve_positive_cross_edge
    ) as sides:
        want, trace = _pipeline_agrees_with_baseline(structure, formula)
    assert want == nested_loop_opt(structure, formula), str(formula)
    # where the lift would not prune, the one baseline query is all that runs
    if "baseline" in dict(trace.stages):
        assert sides.call_count == 0
        assert trace.source in (None, "baseline")


SPARSE_ARITY = {"E0": 2, "E1": 2, "P0": 1, "R0": 3}


def _sparse_records(rng, n):
    """Random records of E0, E1, P0 and R0 over n objects, no object in
    more than two of them."""
    rels = {pred: set() for pred in SPARSE_ARITY}
    degree = [0] * n
    for _ in range(3 * n):
        pred = rng.choice(sorted(SPARSE_ARITY))
        rec = tuple(rng.randrange(n) for _ in range(SPARSE_ARITY[pred]))
        if rec in rels[pred] or any(degree[v] >= 2 for v in set(rec)):
            continue
        rels[pred].add(rec)
        for v in set(rec):
            degree[v] += 1
    return rels


@st.composite
def sparse_prune_instances(draw, k=2):
    """Instances with k optimization variables over 24-36 objects, no object
    in more than two records (binary, unary or ternary), with a random body
    that may hold cross atoms and a hyperedge.  At k=2 the lift prunes on
    each; at k=3, g^3 stays below K at this size, so the lift's cap never
    binds."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(24, 36))
    structure = build_structure(
        [f"o{v}" for v in range(n)], _sparse_records(rng, n), SPARSE_ARITY
    )
    opt_vars = [f"x{i + 1}" for i in range(k)]
    body = random_body_text(rng, opt_vars, ["y1"], ternary=draw(st.integers(0, 1)))
    kind = draw(st.sampled_from(["max", "min"]))
    formula = parse_formula(f"{kind} {','.join(opt_vars)} . count y1 . {body}")
    if k == 2:
        assume(remove_hyperedges(structure, formula).grouping.prunes)
    return structure, formula


@given(sparse_prune_instances())
@settings(max_examples=60, deadline=None)
def test_reduce_and_solve_equals_baseline_where_the_lift_prunes(instance):
    structure, formula = instance
    _, trace = _pipeline_agrees_with_baseline(structure, formula)
    assert "cross-free-lift" in dict(trace.stages)
    assert trace.source in (None, "side", "resolve")


def _lift_route(structure, formula, solver):
    """The lift of the whole plan, taken whether or not it prunes, scored
    under the solver.  Returns the optimum, the lift's stats, the plan and
    the scores."""
    plan = remove_hyperedges(structure, formula)
    scores = []

    def prepare(s, f):
        scorer = HybridScorer(s, f, solver)

        def score(groups):
            scores.extend(scorer(groups))
            return scores

        return score

    stats = {}
    got = solve_cross_free_lift(plan, prepare, stats_out=stats, ratio=solver.ratio)
    return got, stats, plan, scores


def _dirty_first_scores(structure, formula, guard, scores):
    """The scores with every dirty combination's (one with a tuple that
    fails the guard or a cross atom) shifted to rank before every clean
    one, so the rule reaches c* only past all of them; and the number of
    scored dirty combinations."""
    cross, _ = split_cross_atoms(formula)
    full_guard = tuple(guard) + tuple((a, False) for a in cross)
    groups = lift_grouping(structure, formula.k).groups
    group_of = {v: gi for gi, group in enumerate(groups) for v in group}
    dirty = {
        tuple(group_of[x] for x in xs)
        for xs in product(group_of, repeat=formula.k)
        if not guard_holds(structure, full_guard, dict(zip(formula.opt_vars, xs)))
    }
    shift = max((v for v in scores if v is not None), default=0) + 1
    if formula.kind == "min":
        shift = -shift
    combos = list(product(range(len(groups)), repeat=formula.k))
    return [
        v if v is None or c not in dirty else v + shift for c, v in zip(combos, scores)
    ], sum(v is not None and c in dirty for c, v in zip(combos, scores))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lift_rule_gives_the_optimum_under_exact_and_approximate_scores(data):
    # the re-solved combinations are the rule's, recomputed from the scores
    # and the guard; with exact scores the answer is the optimum, and with
    # c-approximate ones too wherever the rule's combinations fit the cap
    k = data.draw(st.sampled_from([2, 3]))
    structure, formula = data.draw(sparse_prune_instances(k))
    want = baseline_opt(structure, formula)
    exact = exact_solver(formula.kind)
    c = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    for solver in (exact, approx_wrapper(exact, c)):
        got, stats, plan, scores = _lift_route(structure, formula, solver)
        if not scores:
            assert got == want, str(formula)
            continue
        rule = _rule_combinations(plan, scores, stats["top_k"], solver.ratio)
        assert stats["resolves"] == len(rule.combos) <= stats["top_k"]
        assert stats["resolve_queries"] == rule.queries
        assert (stats["clean_rank"], stats["bar"]) == (rule.clean_rank, rule.bar)
        if rule.fits:
            assert got == want, f"{formula} ratio {solver.ratio}"
    if not scores:
        return

    # scores that rank every dirty combination first: the rule's c* is the
    # first clean one past all of them, so the marking of every guard record
    # decides it
    dirty_first, dirty = _dirty_first_scores(
        plan.main_structure, plan.main_core, plan.main_guard, scores
    )
    stats = {}
    solve_cross_free_lift(
        plan, lambda s, f: (lambda groups: dirty_first), stats_out=stats
    )
    rule = _rule_combinations(plan, dirty_first, stats["top_k"])
    assert (stats["resolves"], stats["clean_rank"]) == (len(rule.combos), rule.clean_rank)
    assert rule.clean_rank is None or stats["dirty"] == rule.clean_rank - 1 == dirty


def test_lift_cut_keeps_the_ties_that_can_hold_the_least_witness(monkeypatch):
    # instances where the lift's answer sits in a combination that can only
    # tie the bar, and where the first-group cut drops a possible tie.  Read
    # with a strict ">" in place of the tie test (may-tie as may-beat), the
    # lift misses the least witness on some of them; without the cut (every
    # possible tie kept) it re-solves more than the rule on some, a count
    # the oracle pins, though the answer stays the same there: a dropped cut
    # only adds ties ranked after every combination that can beat the bar.
    import relopt.reduction as reduction

    real = reduction._may_reach
    # a first group after every bar's never ties, one before every bar's
    # always does
    mutants = {
        "strict": lambda kind, score, first, bar, ratio: real(
            kind, score, math.inf, bar, ratio
        ),
        "no-cut": lambda kind, score, first, bar, ratio: real(kind, score, -1, bar, ratio),
    }
    rng = random.Random(1)
    wrong = {1: 0, 2: 0}
    more = {1: 0, 2: 0}
    for trial in range(22):
        kind = rng.choice(["max", "min"])
        n = rng.randint(24, 36)
        structure = build_structure(
            [f"o{v}" for v in range(n)], _sparse_records(rng, n), SPARSE_ARITY
        )
        body = random_body_text(rng, ["x1", "x2"], ["y1"], ternary=rng.randint(0, 1))
        formula = parse_formula(f"{kind} x1,x2 . count y1 . {body}")
        want = baseline_opt(structure, formula)
        for c in (1, 2):
            solver = approx_wrapper(exact_solver(kind), c)
            got, stats, plan, scores = _lift_route(structure, formula, solver)
            assert got == want, f"trial {trial} ratio {c}"
            if not scores:
                continue
            rule = _rule_combinations(plan, scores, stats["top_k"], c)
            counts = (stats["resolves"], stats["resolve_queries"])
            assert counts == (len(rule.combos), rule.queries)
            with monkeypatch.context() as m:
                m.setattr(reduction, "_may_reach", mutants["strict"])
                wrong[c] += _lift_route(structure, formula, solver)[0] != want
                m.setattr(reduction, "_may_reach", mutants["no-cut"])
                mutant_stats = _lift_route(structure, formula, solver)[1]
                more[c] += mutant_stats["resolves"] > stats["resolves"]
    assert all(wrong.values()) and all(more.values()), (wrong, more)


@given(sparse_prune_instances(), st.sampled_from([None, 1, 2, 8]))
@settings(max_examples=40, deadline=None)
def test_approximate_lift_is_exact_wherever_the_kept_set_fits_the_cap(instance, top_k):
    # under a 2-approximate scorer the lift re-solves c* first and cuts at its
    # exact bar: where the kept set fits the cap the answer is the oracle's
    # (value, witness), and past it within the ratio of the optimum
    structure, formula = instance
    want = baseline_opt(structure, formula)
    solver = approx_wrapper(exact_solver(formula.kind), 2)
    plan = remove_hyperedges(structure, formula)
    scores = _lift_scores(plan.main_structure, plan.main_core, solver)
    stats = {}
    got = solve_cross_free_lift(
        plan, lambda s, f: (lambda groups: scores), top_k=top_k, stats_out=stats, ratio=2
    )
    rule = _rule_combinations(plan, scores, stats["top_k"], 2)
    assert (stats["resolves"], stats["resolve_queries"]) == (len(rule.combos), rule.queries)
    # the stage says whether the answer is exact: 1 exactly where the kept
    # set fits the cap
    assert stats["exact"] == rule.fits
    if rule.fits:
        event("the kept set fits the cap")
        assert got == want, str(formula)
    elif rule.clean_rank is not None:
        event("the cap cuts the kept set after c*")
        if formula.kind == "max":
            assert want.value / 2 <= got.value <= want.value, str(formula)
        else:
            assert want.value <= got.value <= want.value * 2, str(formula)


def test_default_cap_exceeds_the_dirty_combinations_of_both_orientations():
    # with one relation as a cross atom in both orientations each record
    # marks two group pairs, so more than K - 1 = m combinations can be
    # dirty; the default cap still passes them all, so it reaches c*
    rng = random.Random(79)
    for trial in range(30):
        n = rng.randint(30, 60)
        records = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        structure = build_structure([f"o{v}" for v in range(n)], {"E0": records}, {"E0": 2})
        kind = rng.choice(["max", "min"])
        formula = parse_formula(
            f"{kind} x1,x2 . count y1 . !E0(x1,x2) & !E0(x2,x1) & E0(x1,y1)"
        )
        got, stats, plan, _ = _lift_route(structure, formula, exact_solver(kind))
        groups = plan.grouping.groups
        group_of = {v: gi for gi, group in enumerate(groups) for v in group}
        dirty = {(group_of[a], group_of[b]) for a, b in records}
        dirty |= {(gb, ga) for ga, gb in dirty}
        assert stats["top_k"] > len(dirty), f"trial {trial}"
        assert stats["clean_rank"] is not None, f"trial {trial}"
        assert got == baseline_opt(structure, formula), f"trial {trial}"


@st.composite
def hub_instances(draw):
    """k=2 instances over 20-36 objects: the sparse records of
    ``sparse_prune_instances`` plus 1-4 hubs with 9-14 E0 records each, so
    a hub's degree reaches the lift's threshold ceil(m^(1/3)) and it is
    heavy.  The body is random; in half the draws it is joined by
    ``E0(x_i, y1)``, and a max optimum then tends to sit on a hub.  Returns
    the structure, the formula and the hubs."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(20, 36))
    rels = _sparse_records(rng, n)
    hubs = rng.sample(range(n), draw(st.integers(1, 4)))
    for hub in hubs:
        rels["E0"].update((hub, y) for y in rng.sample(range(n), rng.randint(9, 14)))
    structure = build_structure([f"o{v}" for v in range(n)], rels, SPARSE_ARITY)
    body = random_body_text(rng, ["x1", "x2"], ["y1"], ternary=draw(st.integers(0, 1)))
    if draw(st.booleans()):
        join = draw(st.sampled_from(["|", "&"]))
        body = f"E0({draw(st.sampled_from(['x1', 'x2']))},y1) {join} ({body})"
    kind = draw(st.sampled_from(["max", "min"]))
    return structure, parse_formula(f"{kind} x1,x2 . count y1 . {body}"), hubs


@given(hub_instances(), st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_lift_groups_heavy_vertices_and_keeps_the_optimum(instance, c):
    # the groups hold the heavy vertices: no query of their own, and the
    # lift still returns the oracle's optimum and least witness, also where
    # that witness holds a hub
    structure, formula, hubs = instance
    want = baseline_opt(structure, formula)
    exact = exact_solver(formula.kind)
    for solver in (exact, approx_wrapper(exact, c)):
        got, stats, plan, scores = _lift_route(structure, formula, solver)
        assert stats["heavy"] > 0 and stats["source"] in (None, "side", "resolve")
        # the re-solved combinations are the rule's, ties included, and
        # under the approximate scorer c*'s own re-solve
        rule = _rule_combinations(plan, scores, stats["top_k"], solver.ratio)
        assert stats["resolves"] == len(rule.combos)
        assert stats["resolve_queries"] == rule.queries
        if rule.fits:
            assert got == want, f"{formula} ratio {solver.ratio}"
            continue
        # a c-approximate rule past the cap K: with c* re-solved, the answer
        # is within the ratio of the optimum
        event("the approximate rule passes the cap")
        assert solver.ratio > 1 and stats["clean_rank"] is not None
        if formula.kind == "max":
            assert want.value / c <= got.value <= want.value, str(formula)
        else:
            assert want.value <= got.value <= want.value * c, str(formula)
    grouped = {v for group in plan.grouping.groups for v in group}
    assert grouped == set(range(plan.main_structure.n))
    if want is not None and set(want.witness) & set(hubs):
        event("the optimum holds a hub")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lift_partition_is_contiguous_runs_of_all_objects(data):
    # lift_grouping against the greedy reference, field by field, on sparse
    # records with hubs, or with none at all (m=0: threshold 0, so every
    # object is heavy); the reference puts every object in exactly one
    # group, the groups are runs of the sorted objects, and every group but
    # the last has degree above the threshold
    rng = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(0, 36))
    rels = _sparse_records(rng, n)
    for hub in rng.sample(range(n), data.draw(st.integers(0, min(n, 4)))):
        rels["E0"].update((hub, y) for y in rng.sample(range(n), rng.randint(1, n)))
    if data.draw(st.integers(0, 9)) == 0:
        rels = {pred: set() for pred in rels}
    structure = build_structure([f"o{v}" for v in range(n)], rels, SPARSE_ARITY)
    k = data.draw(st.integers(1, 3))
    m = structure.m
    threshold = math.ceil(m ** (1 / (k + 1))) if m else 0
    groups = greedy_groups(structure, range(n), threshold)
    assert [v for group in groups for v in group] == list(range(n))
    for group in groups[:-1]:
        assert sum(structure.degree(v) for v in group) > threshold
    heavy = [v for v in range(n) if structure.degree(v) >= threshold]
    light = greedy_groups(structure, set(range(n)) - set(heavy), threshold)
    bound = math.comb(k, 2) * m * n ** max(k - 2, 0) + 1

    grouping = lift_grouping(structure, k)
    assert grouping.threshold == threshold
    assert tuple(map(tuple, grouping.groups)) == groups
    assert all(type(group) is range for group in grouping.groups)
    assert grouping.group_of == tuple(gi for gi, group in enumerate(groups) for _ in group)
    assert grouping.heavy == len(heavy)
    assert grouping.light_groups == len(light)
    assert grouping.bound == bound
    assert grouping.combos == len(groups) ** k
    assert grouping.prunes == (len(light) ** k > bound)
    event(f"n>0: {n > 0}, m>0: {m > 0}, heavy: {bool(heavy)}")


def test_reduce_and_solve_exact_small():
    rng = random.Random(59)
    for trial in range(40):
        k = rng.choice([2, 3])
        structure, formula = random_instance(
            rng,
            k=k,
            ell=1,
            n_objects=rng.randint(2, 7),
            binary=rng.choice([1, 2]),
            ternary=rng.choice([0, 1]),
        )
        solver = exact_solver(formula.kind)
        value, trace = reduce_and_solve(structure, formula, solver)
        want = baseline_opt(structure, formula)
        assert value == want.value, f"trial {trial} {formula}"


def test_reduce_and_solve_pure_cross_body():
    # the body ignores y entirely: values are n or 0 per pair
    s = load_structure("rel E0 2\nE0 a b\nE0 c c\n")
    for kind, expected in (("max", s.n), ("min", 0)):
        f = parse_formula(f"{kind} x1,x2 . count y . E0(x1,x2)")
        value, _ = reduce_and_solve(s, f, exact_solver(kind))
        want = baseline_opt(s, f)
        assert value == want.value == expected


def test_reduce_and_solve_cross_under_disjunction():
    s = load_structure("rel E0 2\nE0 a b\nE0 a 1\nE0 b 2\n")
    for kind in ("max", "min"):
        f = parse_formula(f"{kind} x1,x2 . count y . E0(x1,y) | E0(x1,x2)")
        value, _ = reduce_and_solve(s, f, exact_solver(kind))
        assert value == baseline_opt(s, f).value


def test_reduce_and_solve_two_cross_atoms_k3():
    rng = random.Random(65)
    for trial in range(15):
        from oracles import random_structure

        s = random_structure(rng, rng.randint(3, 6), binary=2, unary=1)
        f = parse_formula(
            rng.choice(["max", "min"])
            + " x1,x2,x3 . count y . (E0(x1,x2) & E1(x1,y)) | (E1(x2,x3) & !P0(y))"
        )
        value, _ = reduce_and_solve(s, f, exact_solver(f.kind))
        assert value == baseline_opt(s, f).value, f"trial {trial}"


def test_reduce_and_solve_empty_structure():
    # declared relations, zero records: no objects, so no feasible tuple
    s = load_structure("rel E0 2\nrel P0 1\n")
    f = parse_formula("max x1,x2 . count y . E0(x1,y) | P0(y)")
    value, trace = reduce_and_solve(s, f, exact_solver("max"))
    assert value is None
    assert baseline_opt(s, f) is None


def test_reduce_and_solve_body_true():
    s = load_structure("rel P 1\nP a\nP b\nP c\n")
    f = parse_formula("max x1,x2 . count y . true")
    value, trace = reduce_and_solve(s, f, exact_solver("max"))
    assert value == s.n


def test_reduce_and_solve_routes_multicount():
    rng = random.Random(60)
    structure, formula = random_instance(rng, k=1, ell=2, n_objects=5)
    value, trace = reduce_and_solve(structure, formula, exact_solver(formula.kind))
    assert trace.path == "multicount"
    assert value == baseline_opt(structure, formula).value


def test_reduce_and_solve_k1_routes_baseline():
    rng = random.Random(61)
    structure, formula = random_instance(rng, k=1, ell=1, n_objects=5)
    value, trace = reduce_and_solve(structure, formula, exact_solver(formula.kind))
    assert trace.path == "baseline"
    assert value == baseline_opt(structure, formula).value
    # the route records its stage with the oracle query's work counts, as
    # k>=3 does
    stats = {}
    baseline_opt(structure, formula, stats_out=stats)
    assert trace.stages[1:] == [("baseline", {"reason": "k=1", **stats})]
    lines = trace.render().splitlines()
    assert lines[2].startswith("stage baseline ") and "reason=k=1" in lines[2]
    assert lines[3] == "source baseline"


OVER_CAP_BODY = (
    "max x1,x2 . count y . !E0(x1,y) & !E1(x2,y) & !E2(x1,y) | E3(x2,y) & !E4(x1,y)"
)


def _over_cap_structure(n=20):
    """A 20-cycle whose edges take the predicates E0..E4 in turn: every
    vertex is light, so the lift forms groups and prepares the hybrid
    scorer, and five forward edge predicates exceed the cap of the hybrid
    conversion."""
    return load_structure(
        "".join(f"rel E{b} 2\n" for b in range(5))
        + "".join(f"E{i % 5} o{i} o{(i + 1) % n}\n" for i in range(n))
    )


def test_reduce_and_solve_falls_back_past_the_edge_predicate_cap():
    structure = _over_cap_structure()
    formula = parse_formula(OVER_CAP_BODY)
    value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    want = baseline_opt(structure, formula)
    assert (value, trace.witness) == (want.value, want.witness)
    assert dict(trace.stages)["cross-free-lift"]["groups"] > 0
    assert any(
        w.startswith("falling back to baseline: 5 parallel edge predicates")
        for w in trace.warnings
    ), trace.warnings


def test_a_scorer_past_the_cap_wastes_no_evaluator_work(monkeypatch):
    # the lift prepares its scorer before it builds its evaluator, so when
    # the hybrid conversion hits its cap only the driver's baseline query
    # runs, with or without a cross atom whose side would be a query
    import relopt.baseline as baseline

    built, opt_calls = [], []
    real_init, real_opt = baseline.PreparedBaseline.__init__, baseline.PreparedBaseline.opt

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_opt(self, *args, **kwargs):
        opt_calls.append(args)
        return real_opt(self, *args, **kwargs)

    monkeypatch.setattr(baseline.PreparedBaseline, "__init__", counting_init)
    monkeypatch.setattr(baseline.PreparedBaseline, "opt", counting_opt)
    structure = _over_cap_structure()
    for body in (OVER_CAP_BODY, OVER_CAP_BODY + " | E0(x1,x2)"):
        formula = parse_formula(body)
        built.clear()
        opt_calls.clear()
        value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
        assert dict(trace.stages)["baseline"]["reason"] == "resource-limit"
        assert len(opt_calls) == len(built) == 1, body
        assert value == baseline_opt(structure, formula).value


def _lift_sparse_shaped(rng, n=150, kind="max"):
    """The shape of the benchmark's lift-sparse slots: n objects, about
    n^2/200 binary records split between E0 and E1, P0 on half of them, and
    a body with one cross atom and one edge predicate towards y1."""
    records = set()
    while len(records) < round(0.01 * n * n / 2):
        records.add((rng.randrange(2), rng.randrange(n), rng.randrange(n)))
    text = "rel E0 2\nrel E1 2\nrel P0 1\n"
    text += "".join(f"E{b} o{a} o{c}\n" for b, a, c in sorted(records))
    text += "".join(f"P0 o{v}\n" for v in sorted(rng.sample(range(n), n // 2)))
    body = f"{kind} x1,x2 . count y1 . E0(x1,y1) & (E0(x2,y1) | P0(y1)) & !E1(x1,x2)"
    return load_structure(text), parse_formula(body)


def test_lift_scores_sparse_sets_without_ip_solves():
    # at k=2 the exact solver and its approximation score the hybrid sets
    # with the signed join: no IP solve, and the block queries read at most
    # the sets' m_h coordinates, fewer than the complemented IP vectors hold
    rng = random.Random(71)
    for kind in ("max", "min"):
        structure, formula = _lift_sparse_shaped(rng, kind=kind)
        plan = remove_hyperedges(structure, formula)
        assert plan.grouping.prunes
        _, core = split_cross_atoms(plan.main_core)
        instances = [inst for inst, _ in to_hybrid(plan.main_structure, core)]
        m_h = sum(inst.m_h for inst in instances)
        m_ip = sum(inst.ip.m_ip for inst in instances)
        want = baseline_opt(structure, formula)
        for solver in (exact_solver(kind), approx_wrapper(exact_solver(kind), 2.0)):
            value, trace = reduce_and_solve(structure, formula, solver)
            assert (value, trace.witness) == (want.value, want.witness)
            hybrid = dict(trace.stages)["hybrid"]
            assert hybrid["ip_calls"] == 0
            assert 0 < hybrid["coords"] <= m_h < m_ip
            assert f"coords={hybrid['coords']}" in trace.render()


def test_reduce_and_solve_witness_attains_value():
    from relopt.formula import evaluate_body

    rng = random.Random(64)
    for _ in range(20):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 7)
        )
        value, trace = reduce_and_solve(structure, formula, exact_solver(formula.kind))
        if trace.witness is None:
            assert value is None
            continue
        asn = dict(zip(formula.opt_vars, trace.witness))
        count = 0
        for y in range(structure.n):
            asn[formula.count_vars[0]] = y
            count += evaluate_body(formula, structure, asn)
        assert count == value


def test_reduce_and_solve_approx_interval():
    rng = random.Random(62)
    for trial in range(25):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 7)
        )
        c = 2.0
        solver = approx_wrapper(exact_solver(formula.kind), c)
        value, trace = reduce_and_solve(structure, formula, solver)
        opt = baseline_opt(structure, formula).value
        if formula.kind == "max":
            assert opt / (c + 0.1) <= value <= opt, f"trial {trial}"
        else:
            assert opt <= value <= (c + 0.1) * opt, f"trial {trial}"


def test_false_positive_bound():
    # with an exact inner, the number of group combinations whose relaxed
    # optimum differs from the guarded one is at most C(k,2) * m * n^(k-2)
    import math as _math

    from relopt.formula import FALSE, atoms_of, map_atoms

    rng = random.Random(63)
    checked = 0
    for trial in range(40):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(3, 8), allow_cross=True
        )
        opt = set(formula.opt_vars)
        cross = [
            a
            for a in dict.fromkeys(atoms_of(formula.body))
            if len(a.args) == 2 and set(a.args) <= opt and a.args[0] != a.args[1]
        ]
        if not cross:
            continue
        core = formula.with_body(
            map_atoms(formula.body, lambda a: FALSE if a in cross else a)
        )
        guard = tuple((a, False) for a in cross)
        m, n, k = structure.m, structure.n, formula.k
        # the lift's groups, heavy vertices included
        groups = lift_grouping(structure, k).groups
        if not groups:
            continue
        checked += 1
        mismatches = 0
        for combo in product(range(len(groups)), repeat=k):
            domains = {
                var: groups[ci]
                for var, ci in zip(formula.opt_vars, combo)
            }
            relaxed = baseline_opt(structure, core, domains)
            guarded = baseline_opt_restricted(structure, core, guard, domains)
            g_val = None if guarded is None else guarded.value
            if relaxed is not None and relaxed.value != g_val:
                mismatches += 1
        assert mismatches <= _math.comb(k, 2) * m * n ** (k - 2), f"trial {trial}"
    assert checked >= 5


# --- the pipeline's recorded answers -------------------------------------------

# the baseline oracle's golden sets, and lift-sparse-approx, whose solver is
# approx:2; recorded from an earlier version of relopt.reduction
PIPELINE_SETS = GOLDEN_SETS + (("lift-sparse-approx", (0, 1, 2)),)
PIPELINE_GOLDEN = Path(__file__).resolve().parent / "data" / "pipeline_golden.json"


def pipeline_golden_text() -> str:
    """JSON text of ``reduce_and_solve``'s answer per instance of
    PIPELINE_SETS under its workload's IP solver: one line per set, keyed
    ``workload/seed``, holding the digest of its texts and per instance
    [path, source, value, witness labels, the first 16 hex digits of the
    sha256 of the trace's ``render()``]."""
    instances = bench_instances()
    lines = []
    for workload, seeds in PIPELINE_SETS:
        ip = instances.WORKLOADS[workload].ip
        for seed in seeds:
            texts = instances.instance_texts(workload, seed)
            answers = []
            for structure_text, formula_text in texts:
                structure = load_structure(structure_text)
                formula = parse_formula(formula_text)
                solver = make_ip_solver(formula.kind, ip)
                value, trace = reduce_and_solve(structure, formula, solver)
                witness = trace.witness and [structure.labels[x] for x in trace.witness]
                render = hashlib.sha256(trace.render().encode()).hexdigest()[:16]
                answers.append([trace.path, trace.source, value, witness, render])
            entry = {"digest": instances.texts_digest(texts), "answers": answers}
            lines.append(f"{json.dumps(f'{workload}/{seed}')}: {json.dumps(entry)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_pipeline_reproduces_the_recorded_benchmark_answers():
    # path, source, answer and trace of every solve stay those recorded
    assert pipeline_golden_text() == PIPELINE_GOLDEN.read_text()
