import random
from itertools import product

import pytest

from relopt.baseline import (
    PreparedBaseline,
    baseline_opt,
    baseline_opt_restricted,
    baseline_values,
)
from relopt.errors import ContractError, ResourceLimitError
from relopt.formula import And, Atom, Or, parse_expr, parse_formula
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

from oracles import nested_loop_opt, random_body_text, random_instance


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

def test_cross_edge_toy():
    s = load_structure("rel E 2\nrel F 2\nE a b\nF a 1\nF a 2\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & F(x1,y)")
    forced = Atom("E", ("x1", "x2"))
    res = solve_positive_cross_edge(s, f, forced)
    assert res.value == 2
    assert res.witness == (s.index("a"), s.index("b"))


def test_cross_edge_no_edges_all_zero():
    s = load_structure("rel E 2\nrel F 2\nF a 1\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & F(x1,y)")
    res = solve_positive_cross_edge(s, f, Atom("E", ("x1", "x2")))
    assert res.value == 0


def test_cross_edge_requires_conjunct():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    with pytest.raises(ContractError):
        solve_positive_cross_edge(s, f, Atom("E", ("x1", "x2")))


def test_cross_edge_matches_baseline_random():
    rng = random.Random(51)
    for trial in range(150):
        k = rng.choice([2, 2, 3])
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(2, 7), allow_cross=True
        )
        # force a cross conjunction onto the body
        forced = Atom("E0", (formula.opt_vars[0], formula.opt_vars[1]))
        formula = formula.with_body(And(forced, formula.body))
        want = baseline_opt(structure, formula)
        got = solve_positive_cross_edge(structure, formula, forced)
        assert got.value == want.value, f"trial {trial} {formula}"
        assert got.witness == want.witness, f"trial {trial} {formula}"


def test_cross_edge_min_kind_counts_edgeless_pairs():
    rng = random.Random(52)
    for trial in range(60):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 6), kind="min"
        )
        forced = Atom("E0", ("x1", "x2"))
        formula = formula.with_body(And(forced, formula.body))
        want = baseline_opt(structure, formula)
        got = solve_positive_cross_edge(structure, formula, forced)
        assert got == want, f"trial {trial}"


def test_cross_edge_restricted_mode():
    s = load_structure("rel E 2\nrel F 2\nE a b\nF a 1\nF b 1\n")
    fmin = parse_formula("min x1,x2 . count y . E(x1,x2) & F(x1,y)")
    forced = Atom("E", ("x1", "x2"))
    # restricted: only the single E pair participates, value 1
    res = solve_positive_cross_edge(
        s, fmin, forced, include_edgeless_pairs=False
    )
    assert res.value == 1
    assert res.witness == (s.index("a"), s.index("b"))
    # masked: edgeless pairs drag the minimum to 0
    res = solve_positive_cross_edge(s, fmin, forced)
    assert res.value == 0


# --- hyperedge removal ----------------------------------------------------------

def test_remove_hyperedges_identity():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    plan = remove_hyperedges(s, f)
    assert plan.side_problems == ()
    assert plan.main_guard == ()
    assert plan.main_core.body == f.body


def test_remove_hyperedges_ternary():
    s = load_structure("rel R 3\nR a b c\nR a b d\n")
    f = parse_formula("max x1,x2 . count y . R(x1,x2,y)")
    plan = remove_hyperedges(s, f)
    assert len(plan.side_problems) == 1
    from relopt.formula import Const, atoms_of

    assert not any(len(a.args) >= 3 for a in atoms_of(plan.main_core.body))
    n_atom = plan.main_guard[0][0]
    n_rel = plan.main_structure.relation(n_atom.pred)
    a, b = s.index("a"), s.index("b")
    assert (a, b) in n_rel.records and (b, a) in n_rel.records


def _solve_plan(plan):
    candidates = []
    for side in plan.side_problems:
        res = solve_positive_cross_edge(
            side.structure, side.formula, side.forced, include_edgeless_pairs=False
        )
        if res is not None:
            candidates.append(res)
    main = baseline_opt_restricted(
        plan.main_structure, plan.main_core, plan.main_guard
    )
    if main is not None:
        candidates.append(main)
    return combine_results(plan.combiner, candidates)


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
        got = _solve_plan(plan)
        assert got is not None and got.value == want.value, f"trial {trial} {formula}"


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
    assert inst.size == s.n  # every object is a candidate y with tau=11


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
    # into the conversion; on k=2 the universes match the two-step chain
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
            assert sorted(inst.size for inst, _ in instances) == sorted(
                inst.size for inst, _ in chain
            ), f"trial {trial} {formula}"
            compared += 1
    assert compared


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
        got = solve_cross_free_lift(structure, formula, _baseline_inner)
        want = baseline_opt(structure, formula)
        assert got.value == want.value, f"trial {trial} {formula}"


def test_lift_with_cross_matches_baseline():
    rng = random.Random(58)
    for trial in range(60):
        structure, formula = random_instance(
            rng, k=2, ell=1, n_objects=rng.randint(2, 8), allow_cross=True
        )
        got = solve_cross_free_lift(structure, formula, _baseline_inner)
        want = baseline_opt(structure, formula)
        assert got.value == want.value, f"trial {trial} {formula}"


def test_lift_heavy_vertex_optimum():
    # pin the optimum on the highest-degree vertex: the heavy phase must see it
    recs = {("h", str(i)) for i in range(8)}
    recs |= {("u", "1"), ("v", "2")}
    s = load_structure(
        "rel E 2\n" + "\n".join(f"E {a} {b}" for a, b in sorted(recs)) + "\n"
    )
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    got = solve_cross_free_lift(s, f, _baseline_inner)
    want = baseline_opt(s, f)
    assert got.value == want.value == 8


def test_lift_k_override_plumbs_through():
    s = load_structure("rel E 2\nE a 1\nE b 2\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    stats = {}
    solve_cross_free_lift(
        s,
        f,
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
            structure,
            formula,
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


def _selected_combinations(structure, formula, prepare, top_k):
    """The group combinations the lift re-solves: the top_k best scores of
    the cross-free core, ties broken by the least combination."""
    _, core = split_cross_atoms(formula)
    groups = lift_grouping(structure, formula.k).partition.groups
    if not groups:
        return []
    scores = prepare(structure, core)(groups)
    sign = -1 if formula.kind == "max" else 1
    ranked = sorted(
        (sign * value, combo)
        for combo, value in zip(product(range(len(groups)), repeat=formula.k), scores)
        if value is not None
    )
    return [combo for _, combo in ranked[:top_k]]


def test_trace_counts_heavy_solves_resolves_and_ip_calls(monkeypatch):
    from relopt.baseline import PreparedBaseline

    opt_calls = []
    real_opt = PreparedBaseline.opt

    def counting_opt(self, *args, **kwargs):
        opt_calls.append(args)
        return real_opt(self, *args, **kwargs)

    monkeypatch.setattr(PreparedBaseline, "opt", counting_opt)
    structure = _cycle_structure()
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
        assert lift["resolves"] == min(lift["top_k"], lift["combos"])
        assert lift["heavy_solves"] == lift["heavy"] * formula.k
        # the cross atom's side problem has no heavy endpoint on a cycle
        assert len(opt_calls) == lift["heavy_solves"] + lift["resolve_queries"]
        assert lift["resolve_queries"] <= lift["resolves"]
        # an explicit top_k selects fewer combinations, or all of them
        for top_k in (3, 100):
            stats = {}

            def prepare(s, f, exact=exact):
                return HybridScorer(s, f, exact)

            solve_cross_free_lift(
                structure, formula, prepare, top_k=top_k, stats_out=stats
            )
            assert stats["resolves"] == min(top_k, stats["combos"])
            # one query per prefix of the selected combinations
            selected = _selected_combinations(structure, formula, prepare, top_k)
            assert stats["resolve_queries"] == len({c[:-1] for c in selected})
            assert stats["resolve_queries"] <= stats["resolves"]


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
    # every selected combination on its own.  Under inverted or random scores
    # the selection is not the best combinations, so a query that also
    # covers unselected ones changes the answer.
    rng = random.Random(71)
    pruned = batched = 0
    for trial in range(100):
        k = (2, 3)[trial % 2]
        kind = ("max", "min")[trial // 2 % 2]
        structure, formula = _two_record_instance(rng, k, kind)
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
        got = solve_cross_free_lift(
            structure, formula, prepare, top_k=top_k, stats_out=stats
        )

        guard = tuple((a, False) for a in cross)
        resolved = [
            evaluator.opt(
                {v: groups[ci] for v, ci in zip(formula.opt_vars, combo)}, guard
            )
            for combo in _selected_combinations(structure, formula, prepare, top_k)
        ]
        # top_k=0: the side problems and the heavy vertices only
        rest = solve_cross_free_lift(structure, formula, prepare, top_k=0)
        want = combine_results(kind, [rest] + resolved)
        assert got == want, f"trial {trial} top_k {top_k} {formula}"
        if groups:
            assert stats["resolves"] == len(resolved)
            pruned += stats["resolves"] < stats["combos"]
            batched += stats["resolve_queries"] < stats["resolves"]
    assert pruned > 50 and batched > 25


def test_reduce_and_solve_skips_the_lift_where_nothing_is_pruned(monkeypatch):
    # on the 12-cycle the lift would re-solve every one of g^2 = 16 <= K = 17
    # group combinations, so the guarded baseline answers without scoring
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
        assert stages["guarded-baseline"] == {
            "reason": "no-prune", "groups": 4, "bound": 17
        }
        assert "stage guarded-baseline bound=17 groups=4 reason=no-prune" in (
            trace.render()
        )


def test_guarded_baseline_answers_past_a_resource_limit_of_the_lift(monkeypatch):
    import relopt.reduction as reduction

    structure = _cycle_structure()
    formula = parse_formula(CYCLE_BODIES[0])
    want = baseline_opt(structure, formula)
    _, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    assert "guarded-baseline" not in dict(trace.stages)

    def over_cap(*args, **kwargs):
        raise ResourceLimitError("over the cap")

    monkeypatch.setattr(reduction, "to_hybrid", over_cap)
    value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    assert (value, trace.witness) == (want.value, want.witness)
    stages = dict(trace.stages)
    assert stages["guarded-baseline"] == {"reason": "resource-limit"}
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
    solve_cross_free_lift(_cycle_structure(), formula, prepare, stats_out=stats)
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
        runs = {}
        for top_k in (1, None):
            built.clear()
            stats = {}
            solve_cross_free_lift(
                structure,
                formula,
                lambda s, f: HybridScorer(s, f, solver),
                top_k=top_k,
                stats_out=stats,
            )
            runs[top_k] = (len(built), stats["resolves"])
        assert runs[1][1] < runs[None][1], text
        assert runs[1][0] == runs[None][0], text


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
