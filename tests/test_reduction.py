import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from relopt.baseline import (
    OptResult,
    PreparedBaseline,
    baseline_opt,
    baseline_opt_restricted,
    baseline_values,
    guard_holds,
    naive_values,
)
from relopt.errors import ContractError, ResourceLimitError
from relopt.formula import And, Atom, Not, Or, atoms_of, parse_expr, parse_formula
from relopt.hybrid import val
from relopt.ip import IpSolver, approx_wrapper, exact_solver
from relopt.reduction import (
    HybridScorer,
    build_group_partition,
    combine_results,
    lift_grouping,
    normalize_formula,
    reduce_and_solve,
    remove_hyperedges,
    remove_parallel_edges,
    slotted_domains,
    solve_cross_free_lift,
    solve_positive_cross_edge,
    split_cross_atoms,
    to_hybrid,
)
from relopt.structure import build_structure, load_structure

from oracles import guarded_opt, nested_loop_opt, random_body_text, random_instance


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
        assert baseline_values(s2, f2).entries == baseline_values(structure, formula).entries


# --- positive cross edge --------------------------------------------------------

def _cross_edge(structure, formula, forced, guard=()):
    return solve_positive_cross_edge(PreparedBaseline(structure, formula), forced, guard)


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
    assert _cross_edge(s, fmin, forced) == (1, (s.index("a"), s.index("b")))
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
    got = _cross_edge(structure, formula, forced, tuple(guard))
    assert got == guarded_opt(structure, formula, None, guard + [(forced, True)]), (
        f"{formula} forced {forced} guard {guard}"
    )


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
    rng = random.Random(54)
    for _ in range(30):
        from oracles import random_structure

        s = random_structure(rng, rng.randint(2, 12), binary=2, unary=1)
        threshold = rng.randint(1, 6)
        light = [v for v in range(s.n) if s.degree(v) < threshold]
        part = build_group_partition(s, light, threshold)
        seen = [v for g in part.groups for v in g]
        assert sorted(seen) == sorted(light)
        for g in part.groups:
            assert sum(s.degree(v) for v in g) <= 2 * threshold
        total = sum(s.degree(v) for v in light)
        assert len(part.groups) <= total // max(threshold, 1) + 1


# --- parallel edge removal --------------------------------------------------------

def test_remove_parallel_edges_blowup_counts():
    # r=1, k=2: four copies per object, four edges per nonzero-colored pair
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y) & E(x2,y)")
    s2, f2 = remove_parallel_edges(s, f)
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
    rels = {f"E{i}": {(0, 1)} for i in range(5)}
    s = build_structure(["a", "b"], rels, {f"E{i}": 2 for i in range(5)})
    body = " & ".join(f"E{i}(x1,y)" for i in range(5))
    f = parse_formula(f"max x1,x2 . count y . {body}")
    with pytest.raises(ResourceLimitError):
        remove_parallel_edges(s, f)


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
        s2, f2 = remove_parallel_edges(structure, formula)
        doms = slotted_domains(structure, s2, formula)
        got = baseline_values(s2, f2, doms).entries
        want = baseline_values(structure, formula).entries
        mapping = {v: i for i, v in enumerate(range(structure.n))}
        for key, value in want.items():
            mapped = tuple(doms[formula.opt_vars[i]][key[i]] for i in range(k))
            assert got[mapped] == value, f"trial {trial} {formula}"


def test_remove_parallel_edges_zero_color_copy():
    # an object unrelated to anything still counts through its zero copy
    s = load_structure("rel E 2\nrel P 1\nE a b\nP c\n")
    f = parse_formula("max x1,x2 . count y . !E(x1,y) & P(y)")
    s2, f2 = remove_parallel_edges(s, f)
    doms = slotted_domains(s, s2, f)
    got = baseline_values(s2, f2, doms).entries
    want = baseline_values(s, f).entries
    for key, value in want.items():
        mapped = tuple(doms[f.opt_vars[i]][key[i]] for i in range(2))
        assert got[mapped] == value


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
    for inst, back in instances:
        for key in product(*(range(len(f)) for f in inst.families)):
            tup = tuple(back.family_objects[i][j] for i, j in enumerate(key))
            seen[tup] = val(inst, key)[1]
    return seen


# atoms with a repeated variable, which normalization turns into unary ones
REPEATED_ATOMS = ("E0(x1,x1)", "!E0(x2,x2)", "E0(y1,y1)", "!E1(x1,x1)")


def test_to_hybrid_preserves_values():
    rng = random.Random(56)
    for trial in range(50):
        k = rng.choice([2, 2, 3])
        structure, formula = conforming_instance(rng, k=k, n_objects=rng.randint(2, 7))
        want = baseline_values(structure, formula).entries
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
        want = baseline_values(structure, formula).entries
        assert _tuple_values(instances) == want, f"trial {trial} {formula}"
        if k == 2:
            s2, f2 = remove_parallel_edges(structure, formula)
            chain = to_hybrid(s2, f2, domains=slotted_domains(structure, s2, f2))
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
        want = naive_values(structure, formula).entries
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


# --- the lift and the driver ---------------------------------------------------------

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


def test_lift_heavy_vertex_optimum():
    # pin the optimum on the highest-degree vertex: the heavy phase must see it
    recs = {("h", str(i)) for i in range(8)}
    recs |= {("u", "1"), ("v", "2")}
    s = load_structure(
        "rel E 2\n" + "\n".join(f"E {a} {b}" for a, b in sorted(recs)) + "\n"
    )
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    got = solve_cross_free_lift(remove_hyperedges(s, f), _baseline_inner)
    want = baseline_opt(s, f)
    assert got == want and want.value == 8


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
    for name in ("remove_parallel_edges", "slotted_domains"):
        monkeypatch.setattr(
            reduction, name, lambda *a, name=name, **kw: chain_calls.append(name)
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


def _rule_combinations(structure, formula, scores, top_k, guard=(), ratio=1.0):
    """The group combinations the lift re-solves, recomputed from the scores
    and the records: rank the scored combinations best first, ties by the
    least combination; c* is the first one within top_k all of whose tuples
    pass the guard with every cross atom false, S* its score.  Keep the
    ranking through c* and on while a combination can still hold the answer
    (exact: a tie at S* in c*'s first group; c-approximate: a score within
    the ratio of S*), then cap at top_k.  Without c*, the top top_k.
    Returns the combinations and c*'s rank from 1, or None."""
    cross, _ = split_cross_atoms(formula)
    full_guard = tuple(guard) + tuple((a, False) for a in cross)
    groups = lift_grouping(structure, formula.k).partition.groups
    is_max = formula.kind == "max"
    sign = -1 if is_max else 1
    ranked = sorted(
        (sign * value, combo)
        for combo, value in zip(product(range(len(groups)), repeat=formula.k), scores)
        if value is not None
    )

    def clean(combo):
        return all(
            guard_holds(structure, full_guard, dict(zip(formula.opt_vars, xs)))
            for xs in product(*(groups[ci] for ci in combo))
        )

    star = next((r for r, (_, c) in enumerate(ranked[:top_k]) if clean(c)), None)
    if star is None:
        return [combo for _, combo in ranked[:top_k]], None
    best, first = sign * ranked[star][0], ranked[star][1][0]

    def may_hold(value, combo):
        if ratio == 1:
            return value == best and combo[0] == first
        return value * ratio >= best if is_max else value <= ratio * best

    end = star + 1
    while end < len(ranked) and may_hold(sign * ranked[end][0], ranked[end][1]):
        end += 1
    return [combo for _, combo in ranked[: min(end, top_k)]], star + 1


def _lift_scores(structure, formula, solver):
    """The lift's scores of the cross-free core under the solver."""
    _, core = split_cross_atoms(formula)
    groups = lift_grouping(structure, formula.k).partition.groups
    return HybridScorer(structure, core, solver)(groups) if groups else []


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
    for text in CYCLE_BODIES:
        formula = parse_formula(text)
        exact = exact_solver(formula.kind)
        ip_calls = []

        def solve(instance, exact=exact):
            ip_calls.append(instance)
            return exact.solve(instance)

        opt_calls.clear()
        _, trace = reduce_and_solve(
            structure, formula, IpSolver(exact.kind, exact.ratio, solve)
        )
        stages = dict(trace.stages)
        lift = stages["cross-free-lift"]
        assert lift["groups"] and ip_calls
        assert stages["hybrid"]["ip_calls"] == len(ip_calls)
        assert lift["heavy"] and lift["heavy_solves"] == formula.k
        # the re-solved combinations are the rule's, recomputed from the
        # scores and the records, within the cap
        scores = _lift_scores(structure, formula, exact)
        rule, clean_rank = _rule_combinations(structure, formula, scores, lift["top_k"])
        assert lift["resolves"] == len(rule) <= lift["top_k"]
        assert lift["resolve_queries"] == len({c[:-1] for c in rule})
        assert (lift["clean_rank"], lift["dirty"]) == (clean_rank, clean_rank - 1)
        # a cross atom's side problem is one query
        cross, _ = split_cross_atoms(formula)
        assert lift["sides"] == len(cross)
        assert len(opt_calls) == (
            lift["heavy_solves"] + lift["resolve_queries"] + len(cross)
        )
        # an explicit top_k caps the rule's combinations; where no clean one
        # is ranked within it, the top top_k are re-solved
        for top_k in (1, 3, 100):
            stats = {}

            def prepare(s, f, exact=exact):
                return HybridScorer(s, f, exact)

            solve_cross_free_lift(
                remove_hyperedges(structure, formula),
                prepare,
                top_k=top_k,
                stats_out=stats,
            )
            rule, clean_rank = _rule_combinations(structure, formula, scores, top_k)
            assert stats["resolves"] == len(rule) <= top_k
            assert stats["clean_rank"] == clean_rank
            if clean_rank is None:
                assert stats["dirty"] == stats["resolves"] == top_k
            # one query per prefix of the selected combinations
            assert stats["resolve_queries"] == len({c[:-1] for c in rule})
            seen.add((clean_rank, len(rule) < top_k))
    # the rule stops short of the cap at a c* of rank 1 and of rank 2, and
    # at top_k 1 the second body has no clean combination within the cap
    assert {(1, True), (2, True), (None, False)} <= seen


def _two_record_instance(rng, k, kind):
    """A random instance whose objects lie in at most two records each: the
    lift's degree threshold is mostly 3 or more, so no vertex is heavy and
    the re-solved combinations cover the light vertices' tuples."""
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
        groups = grouping.partition.groups
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

        top_k = rng.choice(
            [1, rng.randint(2, 6), rng.randint(1, max(1, grouping.combos))]
        )
        stats = {}
        got = solve_cross_free_lift(plan, prepare, top_k=top_k, stats_out=stats)

        guard = tuple((a, False) for a in cross)
        rule, clean_rank = _rule_combinations(structure, formula, scores, top_k)
        resolved = [
            evaluator.opt(
                {v: groups[ci] for v, ci in zip(formula.opt_vars, combo)}, guard
            )
            for combo in rule
        ]
        # top_k=0: the side problems and the heavy vertices only
        rest = solve_cross_free_lift(plan, prepare, top_k=0)
        want = combine_results(kind, [rest] + resolved)
        assert got == want, f"trial {trial} top_k {top_k} {formula}"
        if groups:
            assert stats["resolves"] == len(rule) <= top_k
            assert stats["resolve_queries"] == len({c[:-1] for c in rule})
            assert stats["clean_rank"] == clean_rank
            pruned += stats["resolves"] < stats["combos"]
            batched += stats["resolve_queries"] < stats["resolves"]
            capped += clean_rank is None
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
        ip_calls = []

        def solve(instance, exact=exact):
            ip_calls.append(instance)
            return exact.solve(instance)

        value, trace = reduce_and_solve(
            structure, formula, IpSolver(exact.kind, exact.ratio, solve)
        )
        want = baseline_opt(structure, formula)
        assert (value, trace.witness) == (want.value, want.witness)
        assert conversions == [] and ip_calls == []
        stages = dict(trace.stages)
        assert "cross-free-lift" not in stages and "hybrid" not in stages
        assert stages["baseline"] == {"reason": "no-prune", "groups": 4, "bound": 17}
        assert trace.source == "baseline"
        rendered = trace.render()
        assert "stage baseline bound=17 groups=4 reason=no-prune" in rendered
        assert rendered.endswith("source baseline\n")


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
        want = baseline_opt(structure, formula)
        _, trace = reduce_and_solve(structure, formula, solver)
        assert "baseline" not in dict(trace.stages)  # the lift answers
        with monkeypatch.context() as patch:
            patch.setattr(reduction, "to_hybrid", over_cap)
            value, trace = reduce_and_solve(structure, formula, solver)
        assert (value, trace.witness) == (want.value, want.witness), text
        grouping = remove_hyperedges(structure, formula).grouping
        stages = dict(trace.stages)
        assert stages["baseline"] == {
            "reason": "resource-limit",
            "groups": len(grouping.partition.groups),
            "bound": grouping.bound,
        }
        assert trace.source == "baseline"
        assert "cross-free-lift" in stages and "hybrid" not in stages
        assert trace.warnings == ["falling back to baseline: over the cap"]


def test_lift_converts_each_hybrid_instance_to_basic_once(monkeypatch):
    import relopt.hybrid as hybrid

    converted = []
    real = hybrid.hybrid_to_basic

    def counting(instance, tau):
        converted.append(instance)
        return real(instance, tau)

    monkeypatch.setattr(hybrid, "hybrid_to_basic", counting)
    formula = parse_formula(CYCLE_BODIES[1])
    scorers = []
    score_calls = []

    def prepare(s, f):
        scorer = HybridScorer(s, f, exact_solver(f.kind))
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
    assert len({id(inst) for inst in converted}) == len(converted)
    assert {id(inst) for inst in converted} <= prepared
    # one scorer call, one block query per instance, for all the combinations
    assert len(score_calls) == 1 and stats["combos"] > len(converted)
    assert scorer.block_calls == len(converted)


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
            rule, _ = _rule_combinations(structure, formula, scores, stats["top_k"])
            assert stats["resolves"] == len(rule) <= stats["top_k"], text
            runs[top_k] = (len(built), stats["resolves"])
        # the rule re-solves more than one combination without the cap of 1,
        # and the evaluator indexes the same relations either way
        assert runs[1][1] < runs[None][1], text
        assert runs[1][0] == runs[None][0], text


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


@st.composite
def sparse_prune_instances(draw, k=2):
    """Instances with k optimization variables over 24-36 objects, no object
    in more than two records (binary, unary or ternary), with a random body
    that may hold cross atoms and a hyperedge.  At k=2 the lift prunes on
    each; at k=3, g^3 stays below K at this size, so the lift's cap never
    binds."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(24, 36))
    arity = {"E0": 2, "E1": 2, "P0": 1, "R0": 3}
    rels = {pred: set() for pred in arity}
    degree = [0] * n
    for _ in range(3 * n):
        pred = rng.choice(sorted(arity))
        rec = tuple(rng.randrange(n) for _ in range(arity[pred]))
        if rec in rels[pred] or any(degree[v] >= 2 for v in set(rec)):
            continue
        rels[pred].add(rec)
        for v in set(rec):
            degree[v] += 1
    structure = build_structure([f"o{v}" for v in range(n)], rels, arity)
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
    assert trace.source in (None, "side", "heavy", "resolve")


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
    groups = lift_grouping(structure, formula.k).partition.groups
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
        main = (plan.main_structure, plan.main_core)
        top_k = stats["top_k"]
        rule, clean_rank = _rule_combinations(
            *main, scores, len(scores), plan.main_guard, solver.ratio
        )
        assert stats["resolves"] == min(len(rule), top_k) <= top_k
        within = clean_rank is not None and clean_rank <= top_k
        assert stats["clean_rank"] == (clean_rank if within else None)
        if len(rule) <= top_k:
            assert got == want, f"{formula} ratio {solver.ratio}"
    if not scores:
        return

    # scores that rank every dirty combination first: the rule's c* is the
    # first clean one past all of them, so the marking of every guard record
    # decides it
    dirty_first, dirty = _dirty_first_scores(*main, plan.main_guard, scores)
    stats = {}
    solve_cross_free_lift(
        plan, lambda s, f: (lambda groups: dirty_first), stats_out=stats
    )
    rule, clean_rank = _rule_combinations(
        *main, dirty_first, stats["top_k"], plan.main_guard
    )
    assert (stats["resolves"], stats["clean_rank"]) == (len(rule), clean_rank)
    assert clean_rank is None or stats["dirty"] == clean_rank - 1 == dirty


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


def test_reduce_and_solve_falls_back_past_the_edge_predicate_cap():
    # a 20-cycle whose edges take the predicates E0..E4 in turn: every vertex
    # is light, so the lift forms groups and prepares the hybrid scorer, and
    # five forward edge predicates exceed the cap of the hybrid conversion
    n = 20
    structure = load_structure(
        "".join(f"rel E{b} 2\n" for b in range(5))
        + "".join(f"E{i % 5} o{i} o{(i + 1) % n}\n" for i in range(n))
    )
    formula = parse_formula(
        "max x1,x2 . count y . "
        "!E0(x1,y) & !E1(x2,y) & !E2(x1,y) | E3(x2,y) & !E4(x1,y)"
    )
    value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    want = baseline_opt(structure, formula)
    assert (value, trace.witness) == (want.value, want.witness)
    assert dict(trace.stages)["cross-free-lift"]["groups"] > 0
    assert any(
        w.startswith("falling back to baseline: 5 parallel edge predicates")
        for w in trace.warnings
    ), trace.warnings


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

    from relopt.formula import Const, atoms_of, substitute_atoms

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
            substitute_atoms(formula.body, {a: Const(False) for a in cross})
        )
        guard = tuple((a, False) for a in cross)
        m, n, k = structure.m, structure.n, formula.k
        threshold = _math.ceil(m ** (1.0 / (k + 1))) if m else 0
        light = [v for v in range(n) if structure.degree(v) < threshold]
        part = build_group_partition(structure, light, threshold)
        if not part.groups:
            continue
        checked += 1
        mismatches = 0
        for combo in product(range(len(part.groups)), repeat=k):
            domains = {
                var: part.groups[ci]
                for var, ci in zip(formula.opt_vars, combo)
            }
            relaxed = baseline_opt(structure, core, domains)
            guarded = baseline_opt_restricted(structure, core, guard, domains)
            g_val = None if guarded is None else guarded.value
            if relaxed is not None and relaxed.value != g_val:
                mismatches += 1
        assert mismatches <= _math.comb(k, 2) * m * n ** (k - 2), f"trial {trial}"
    assert checked >= 5
