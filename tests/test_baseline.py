import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relopt.baseline import (
    PreparedBaseline,
    ProjectedAtom,
    baseline_opt,
    baseline_opt_restricted,
    baseline_values,
    guard_holds,
    naive_values,
    opt_of_table,
)
from relopt.errors import ContractError, UnsupportedShapeError
from relopt.formula import Atom, parse_formula
from relopt.structure import build_structure, load_structure

from oracles import (
    bench_instances,
    guarded_opt,
    nested_loop_opt,
    nested_loop_values,
    random_instance,
    random_structure,
)


TOY = "rel E 2\nE a 1\nE a 2\nE b 2\n"
TOY_FORMULA = "max x1,x2 . count y . E(x1,y) & E(x2,y)"


def _toy_domains(s):
    ab = [s.index("a"), s.index("b")]
    return {"x1": ab, "x2": ab}


def test_values_on_toy_instance():
    s = load_structure(TOY)
    f = parse_formula(TOY_FORMULA)
    a, b = s.index("a"), s.index("b")
    table = baseline_values(s, f, _toy_domains(s))
    assert table[a, a] == 2
    assert table[a, b] == 1
    assert table[b, b] == 1
    assert table[b, a] == 1


def test_opt_on_toy_instance():
    s = load_structure(TOY)
    f = parse_formula(TOY_FORMULA)
    a = s.index("a")
    res = baseline_opt(s, f, _toy_domains(s))
    assert res.value == 2
    assert res.witness == (a, a)


def test_min_kind_breaks_ties_lexicographically():
    s = load_structure(TOY)
    f = parse_formula("min x1,x2 . count y . E(x1,y) & E(x2,y)")
    res = baseline_opt(s, f, _toy_domains(s))
    assert res.value == 1
    # Val(a,b)=Val(b,a)=Val(b,b)=1; lexicographically least witness wins
    candidates = sorted(
        key
        for key, v in baseline_values(s, f, _toy_domains(s)).items()
        if v == 1
    )
    assert res.witness == candidates[0]


def test_empty_structure_all_zero():
    s = load_structure("rel E 2\nrel P 1\nP a\nP b\n")
    f = parse_formula("max x . count y . E(x,y)")
    table = baseline_values(s, f)
    assert set(table.values()) == {0}


def test_body_true_counts_whole_domain():
    s = load_structure("rel P 1\nP a\nP b\nP c\n")
    f = parse_formula("max x . count y . true")
    table = baseline_values(s, f)
    assert all(v == s.n for v in table.values())


def test_single_opt_object():
    s = load_structure("rel E 2\nE a a\n")
    f = parse_formula("max x . count y . E(x,y)")
    res = baseline_opt(s, f)
    assert res.value == 1 and res.witness == (s.index("a"),)


def test_empty_opt_domain_returns_none():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x1,x2 . count y . E(x1,y)")
    assert baseline_opt(s, f, domains={"x1": []}) is None


def test_unsupported_shape():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x . count y . E(x,y)")
    # k + ell >= 2 always holds for parsed formulas; check the guard directly
    with pytest.raises(UnsupportedShapeError):
        from relopt.formula import OptFormula

        # bypass via a handcrafted formula is impossible (k,l >= 1), so the
        # guard can only fire for malformed constructions; keep the contract
        # covered by calling with a stub
        class Stub:
            k = 1
            ell = 0
            opt_vars = ("x",)
            count_vars = ()

        baseline_values(s, Stub())  # type: ignore[arg-type]


def test_matches_naive_on_random_instances():
    rng = random.Random(42)
    for trial in range(60):
        k = rng.choice([1, 2, 3])
        ell = rng.choice([1, 2])
        if k + ell > 4:
            ell = 1
        n_max = 12 if k + ell <= 3 else 8
        structure, formula = random_instance(
            rng, k=k, ell=ell, n_objects=rng.randint(2, n_max), ternary=rng.choice([0, 1])
        )
        expected = nested_loop_values(structure, formula)
        got = baseline_values(structure, formula)
        assert got == expected, f"trial {trial}"


def test_base_case_matches_naive_exhaustively():
    rng = random.Random(43)
    for trial in range(120):
        k, ell = rng.choice([(1, 1)])
        structure, formula = random_instance(
            rng, k=k, ell=ell, n_objects=rng.randint(1, 8)
        )
        assert baseline_values(structure, formula) == nested_loop_values(
            structure, formula
        ), f"trial {trial}"


def test_matches_naive_with_restricted_domains():
    rng = random.Random(44)
    for _ in range(30):
        structure, formula = random_instance(rng, k=2, ell=1, n_objects=6)
        doms = {
            "x1": [i for i in range(structure.n) if rng.random() < 0.6],
            "y1": [i for i in range(structure.n) if rng.random() < 0.6],
        }
        assert baseline_values(structure, formula, doms) == nested_loop_values(
            structure, formula, doms
        )


def test_opt_invariant_under_relabeling():
    rng = random.Random(45)
    for _ in range(20):
        structure, formula = random_instance(rng, k=2, ell=1, n_objects=6)
        perm = list(range(structure.n))
        rng.shuffle(perm)
        from relopt.structure import build_structure

        relabeled = build_structure(
            [f"q{perm[i]}" for i in range(structure.n)],
            {
                name: {tuple(rec) for rec in rel.records}
                for name, rel in structure.relations.items()
            },
            {name: rel.arity for name, rel in structure.relations.items()},
        )
        r1 = baseline_opt(structure, formula)
        r2 = baseline_opt(relabeled, formula)
        assert r1.value == r2.value


def test_restricted_opt_skips_guard_failures():
    s = load_structure("rel E 2\nrel F 2\nE a b\nF a 1\nF a 2\nF b 1\n")
    f = parse_formula("max x1,x2 . count y . E(x1,x2) & F(x1,y)")
    guard = [(Atom("E", ("x1", "x2")), True)]
    res = baseline_opt_restricted(s, f, guard)
    a, b = s.index("a"), s.index("b")
    assert res.value == 2 and res.witness == (a, b)
    # min over guard-satisfying tuples only: (a, b) is the single E pair
    fmin = parse_formula("min x1,x2 . count y . E(x1,x2) & F(x1,y)")
    res = baseline_opt_restricted(s, fmin, guard)
    assert res.value == 2
    # no guard-satisfying tuple -> None
    res = baseline_opt_restricted(s, f, [(Atom("E", ("x1", "x2")), True)], domains={"x1": [b]})
    assert res is None or res.witness[0] == b


def test_prepared_baseline_answers_many_queries():
    # one evaluator per instance, many (domains, guard) queries
    rng = random.Random(47)
    empties = filtered = found = 0
    for trial in range(6):
        k = rng.choice([2, 3])
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(3, 6), kind=("max", "min")[trial % 2]
        )
        opt_vars = formula.opt_vars
        pool = [Atom("P0", (x,)) for x in opt_vars] + [
            Atom(f"E{b}", (x1, x2))
            for b in range(2)
            for x1 in opt_vars
            for x2 in opt_vars
        ]
        prepared = PreparedBaseline(structure, formula)
        for query in range(30):
            domains = {
                v: [o for o in range(structure.n) if rng.random() < 0.6]
                for v in opt_vars + formula.count_vars
            }
            if query == 0:
                domains[rng.choice(opt_vars)] = []
            literals = rng.sample(pool, rng.randint(0, 2))
            guard = [(a, rng.random() < 0.5) for a in literals]
            entries = naive_values(structure, formula, domains)
            assert prepared.values(domains) == entries
            kept = {
                key: value
                for key, value in entries.items()
                if guard_holds(structure, guard, dict(zip(opt_vars, key)))
            }
            want = opt_of_table(kept, formula.kind)
            assert prepared.opt(domains, guard) == want, f"trial {trial} query {query}"
            if not all(domains[v] for v in opt_vars):
                assert want is None
                empties += 1
            filtered += len(kept) < len(entries)
            found += want is not None
        with pytest.raises(ContractError):
            prepared.opt(guard=[(Atom("P0", ("y1",)), True)])
    assert empties >= 6 and filtered and found


# the most objects per instance, by k + ell, that keep the nested loop small
MAX_OBJECTS = {2: 6, 3: 6, 4: 5, 5: 4}


@st.composite
def instances(draw):
    """An instance with k in {1, 2, 3} and ell in {1, 2}."""
    k, ell = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = draw(st.integers(1, MAX_OBJECTS[k + ell]))
    kind = draw(st.sampled_from(["max", "min"]))
    rng = draw(st.randoms(use_true_random=False))
    return random_instance(rng, k=k, ell=ell, n_objects=n, kind=kind)


@st.composite
def queries(draw, structure, formula):
    """Domains that are absent, empty, a single object, a random list or a
    random subset, and a guard of up to two literals over the optimization
    variables.  A domain is absent (every object) about as often as it is
    anything else, so that many queries have many base cases."""
    n = structure.n
    objects = st.integers(0, n - 1)
    shapes = st.sampled_from(["absent"] * 3 + ["empty", "one", "list", "subset"])
    domains = {}
    for v in formula.opt_vars + formula.count_vars:
        shape = draw(shapes)
        if shape == "empty":
            domains[v] = []
        elif shape == "one":
            domains[v] = [draw(objects)]
        elif shape == "list":
            domains[v] = draw(st.lists(objects, max_size=n))
        elif shape == "subset":
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            domains[v] = [o for o in range(n) if keep[o]]
    opt_vars = formula.opt_vars
    pool = [Atom("P0", (x,)) for x in opt_vars] + [
        Atom(f"E{b}", (x1, x2)) for b in range(2) for x1 in opt_vars for x2 in opt_vars
    ]
    literals = draw(st.lists(st.sampled_from(pool), max_size=2))
    guard = [(a, draw(st.booleans())) for a in literals]
    return domains, guard


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_opt_is_the_best_guarded_value_with_the_least_witness(data):
    # instances of either strategy: ``instances`` bodies are drawn through
    # ``random_instance`` and stay near its simple values, so
    # ``class_balanced_instances`` bodies, whose atoms take every base-case
    # atom class, come in as often; a few queries per instance, each on a
    # fresh evaluator
    structure, formula = data.draw(st.one_of(instances(), class_balanced_instances()))
    for _ in range(3):
        domains, guard = data.draw(queries(structure, formula))
        got = PreparedBaseline(structure, formula).opt(domains, guard)
        assert got == guarded_opt(structure, formula, domains, guard)


# larger than MAX_OBJECTS, so that a query's base cases share colours and pairs
SEQUENCE_OBJECTS = {2: 9, 3: 9, 4: 7, 5: 5}


@st.composite
def class_balanced_instances(draw, ks=st.integers(1, 3), ells=st.integers(1, 2)):
    """An instance with k drawn from ``ks`` and ell from ``ells`` whose body
    has 2-6 literals whose atoms take the base case's atom classes in a
    random turn: over neither of the last two variables (u, w), over u only,
    over w only, and over both."""
    k, ell = draw(ks), draw(ells)
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(SEQUENCE_OBJECTS[k + ell] // 2, SEQUENCE_OBJECTS[k + ell])
    structure = random_structure(rng, n, density=rng.choice([0.25, 0.5]))
    variables = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(ell)]
    u, w = variables[-2:]
    classes: dict[tuple[bool, bool], list[tuple[str, ...]]] = {}
    for args in [(v,) for v in variables] + [(a, b) for a in variables for b in variables]:
        classes.setdefault((u in args, w in args), []).append(args)
    order = rng.sample(sorted(classes), len(classes))
    literals = []
    for i in range(rng.randint(2, 6)):
        args = rng.choice(classes[order[i % len(order)]])
        pred = "P0" if len(args) == 1 else f"E{rng.randrange(2)}"
        literals.append(("!" if rng.random() < 0.3 else "") + f"{pred}({','.join(args)})")
    formula = parse_formula(
        f"{rng.choice(['max', 'min'])} {','.join(variables[:k])} . "
        f"count {','.join(variables[k:])} . {_random_tree(rng, literals)}"
    )
    return structure, formula


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_one_evaluator_answers_a_sequence_of_queries(data):
    # the per-query caches (static rows, class counts, mixed pairs, deltas)
    # must not leak from one query into the next
    structure, formula = data.draw(class_balanced_instances())
    prepared = PreparedBaseline(structure, formula)
    for _ in range(data.draw(st.integers(2, 6))):
        domains, guard = data.draw(queries(structure, formula))
        if data.draw(st.booleans()):
            got = prepared.values(domains)
            assert got == naive_values(structure, formula, domains)
        else:
            got = prepared.opt(domains, guard)
            assert got == guarded_opt(structure, formula, domains, guard)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_seeded_base_cases_match_the_nested_loop_on_a_shared_evaluator(data):
    # a guard whose first literal on u (xk) is positive seeds the base case's
    # u objects, and each is recounted with no row; one evaluator answers
    # seeded, unguarded and negative-only queries in a random turn, so the
    # delta and move memos that both paths fill carry from each into the next
    structure, formula = data.draw(
        class_balanced_instances(ks=st.integers(2, 3), ells=st.just(1))
    )
    *others, u = formula.opt_vars
    on_u = [Atom("P0", (u,))] + [
        Atom(f"E{b}", args) for b in range(2) for x in others for args in ((x, u), (u, x))
    ]
    anywhere = [Atom("P0", (x,)) for x in formula.opt_vars] + [
        Atom(f"E{b}", (x1, x2))
        for b in range(2)
        for x1 in formula.opt_vars
        for x2 in formula.opt_vars
    ]
    turns = ["seeded", "unguarded", "negative"]
    turns = data.draw(st.permutations(turns)) + data.draw(
        st.lists(st.sampled_from(turns), max_size=2)
    )
    prepared = PreparedBaseline(structure, formula)
    for turn in turns:
        domains, _ = data.draw(queries(structure, formula))
        guard = []
        if turn == "seeded":
            guard.append((data.draw(st.sampled_from(on_u)), True))
        if turn == "negative" or turn == "seeded" and data.draw(st.booleans()):
            guard.append((data.draw(st.sampled_from(anywhere)), False))
        got = prepared.opt(domains, guard)
        assert got == guarded_opt(structure, formula, domains, guard), (turn, guard)


def test_projected_atom_keeps_records_whose_repeated_columns_agree():
    s = load_structure("rel R 3\nR a a b\nR a b c\nR b b a\nR b b c\nR c a c\nR b a b\n")
    a, b, c = (s.index(x) for x in "abc")
    p = ProjectedAtom(s, Atom("R", ("x", "x", "y")), ("x",), ("y",))
    assert (p.fixed_key, p.present_free) == (("x",), ("y",))
    assert p.by_fixed == {(a,): {(b,)}, (b,): {(a,), (c,)}}
    assert p.query({"x": b}) == {(a,), (c,)} and p.query({"x": c}) == set()
    p = ProjectedAtom(s, Atom("R", ("x", "y", "x")), (), ("x", "y"))
    assert (p.fixed_key, p.present_free) == ((), ("x", "y"))
    assert p.by_fixed == {(): {(c, a), (b, a)}}


def test_value_table_dump_format():
    # the table is a plain dict from index tuples to counts
    s = load_structure(TOY)
    f = parse_formula(TOY_FORMULA)
    table = baseline_values(s, f, _toy_domains(s))
    a = s.index("a")
    assert type(table) is dict and len(table) == 4
    assert min(table) == (a, a) and table[a, a] == 2


def test_opt_of_table_empty():
    assert opt_of_table({}, "max") is None


def _random_tree(rng, leaves):
    """A random and/or tree that uses every leaf once."""
    parts = list(leaves)
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        parts.append(f"({a} {rng.choice('&|')} {b})")
    return parts[0]


def test_matches_naive_with_more_than_twenty_atoms_in_one_class():
    # bodies like those remove_parallel_edges builds, with one predicate per
    # colour pattern, put far more than twenty atoms in one class; the
    # predicates are sparse, so many objects satisfy none of the atoms of
    # their class and have colour 0
    rng = random.Random(71)
    preds = 24
    for trial in range(30):
        n = rng.randint(3, 8)
        rels = {
            f"P{i}": {(v,) for v in range(n) if rng.random() < 0.05}
            for i in range(preds)
        }
        rels["E"] = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        arities = {f"P{i}": 1 for i in range(preds)} | {"E": 2}
        structure = build_structure([f"o{v}" for v in range(n)], rels, arities)
        atoms = [f"P{i}(y)" for i in range(preds)] + [f"P{i}(x2)" for i in range(preds)]
        atoms += ["E(x2,y)", "E(y,x2)", "E(x1,y)", "E(x1,x2)", "P0(x1)"]
        literals = [f"!{a}" if rng.random() < 0.5 else a for a in atoms]
        kind = rng.choice(["max", "min"])
        formula = parse_formula(
            f"{kind} x1,x2 . count y . {_random_tree(rng, literals)}"
        )
        prepared = PreparedBaseline(structure, formula)
        assert len(prepared.body.atoms["x2",]) > 20 and len(prepared.body.atoms["y",]) > 20
        domains = None
        if trial % 2:
            domains = {
                var: [v for v in range(n) if rng.random() < 0.7]
                for var in ("x1", "x2", "y")
            }
        want = naive_values(structure, formula, domains)
        assert prepared.values(domains) == want, f"trial {trial}"


@st.composite
def folded_pair_instances(draw):
    """An instance whose body puts a static mixed atom E0(u,w) and a dynamic
    one R0(a,u,w) on the same (u, w) pairs, a being an assigned variable: R0
    holds on about half of E0's pairs.  The dynamic w atom E0(a,w) selects
    the w objects that have static partners (u = a among them), and the body
    also takes a dynamic u atom and, at random, static u, w and fixed atoms.
    k + ell is 3 or 4 with ell in {1, 2}, so the sum path runs too."""
    ell = draw(st.integers(1, 2))
    k = draw(st.integers(3 - ell, 4 - ell))
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(2, 6)
    variables = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(ell)]
    *assigned, u, w = variables
    a = rng.choice(assigned)

    def draw_pairs(count):
        return {(rng.randrange(n), rng.randrange(n)) for _ in range(count)}

    pairs = draw_pairs(rng.randint(1, n * n // 2))
    rels = {
        "E0": pairs | draw_pairs(n),
        "E1": draw_pairs(rng.randint(1, n * n // 3)),
        "P0": {(v,) for v in range(n) if rng.random() < 0.5},
        "R0": {(rng.randrange(n), uv, wv) for uv, wv in pairs if rng.random() < 0.5},
    }
    structure = build_structure(
        [f"o{v}" for v in range(n)], rels, {"E0": 2, "E1": 2, "P0": 1, "R0": 3}
    )
    atoms = [f"E0({u},{w})", f"R0({a},{u},{w})", f"E0({a},{w})"]
    atoms.append(rng.choice([f"E1({a},{u})", f"E0({u},{a})"]))
    optional = (f"P0({u})", f"P0({w})", f"P0({a})", f"E1({w},{u})")
    atoms += [atom for atom in optional if rng.random() < 0.5]
    literals = [("!" if rng.random() < 0.3 else "") + atom for atom in atoms]
    formula = parse_formula(
        f"{rng.choice(['max', 'min'])} {','.join(variables[:k])} . "
        f"count {','.join(variables[k:])} . {_random_tree(rng, literals)}"
    )
    return structure, formula


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_folded_rows_move_only_what_an_assignment_moves(data):
    # one evaluator answers several queries, values and guarded optima, whose
    # rows all fold the static pairs in: a guard literal over u narrows the u
    # objects a base case corrects, and the caches of one query must not
    # serve the next
    structure, formula = data.draw(folded_pair_instances())
    prepared = PreparedBaseline(structure, formula)
    u = prepared.u_var
    for _ in range(data.draw(st.integers(2, 5))):
        domains, guard = data.draw(queries(structure, formula))
        if u in formula.opt_vars and data.draw(st.booleans()):
            other = data.draw(st.sampled_from(formula.opt_vars))
            on_u = data.draw(st.sampled_from([Atom("P0", (u,)), Atom("E1", (other, u))]))
            guard = [*guard, (on_u, data.draw(st.booleans()))]
        entries = naive_values(structure, formula, domains)
        assert prepared.values(domains) == entries
        kept = {
            key: value
            for key, value in entries.items()
            if guard_holds(structure, guard, dict(zip(formula.opt_vars, key)))
        }
        assert prepared.opt(domains, guard) == opt_of_table(kept, formula.kind)


def test_a_positive_literal_narrows_every_variable_it_mentions():
    # at k=3 a positive E1(x2,x3) narrows x2 inside the loop over the leading
    # variables, not only the base case's u (x3): one base case per x1 and
    # per x2 of E1's first column
    rng = random.Random(83)
    narrowed = 0
    for trial in range(20):
        structure, formula = random_instance(rng, k=3, n_objects=rng.randint(4, 8))
        domains = {
            v: [o for o in range(structure.n) if rng.random() < 0.7] for v in ("x1", "x2")
        }
        guard = [(Atom("E1", ("x2", "x3")), True)]
        prepared = PreparedBaseline(structure, formula)
        got = prepared.opt(domains, guard)
        heads = {a for a, _ in structure.relation("E1").records} & set(domains["x2"])
        assert prepared.base_cases == len(domains["x1"]) * len(heads), f"trial {trial}"
        kept = {
            key: value
            for key, value in naive_values(structure, formula, domains).items()
            if guard_holds(structure, guard, dict(zip(formula.opt_vars, key)))
        }
        assert got == opt_of_table(kept, formula.kind), f"trial {trial}"
        narrowed += 0 < len(heads) < len(domains["x2"])
    assert narrowed >= 5


# the benchmark instance sets whose oracle answers GOLDEN holds, recorded
# from an earlier version of relopt.baseline
GOLDEN_SETS = (("lift-sparse", (0, 1, 2)), ("desk-mix", (0, 1, 2)), ("multicount", (0,)))
GOLDEN = Path(__file__).resolve().parent / "data" / "baseline_golden.json"


def golden_text() -> str:
    """JSON text of ``baseline_opt``'s answer per instance of GOLDEN_SETS:
    one line per set, keyed ``workload/seed``, holding the digest of its
    texts and per instance [value, witness labels] or null."""
    instances = bench_instances()
    lines = []
    for workload, seeds in GOLDEN_SETS:
        for seed in seeds:
            texts = instances.instance_texts(workload, seed)
            answers = []
            for structure_text, formula_text in texts:
                structure = load_structure(structure_text)
                res = baseline_opt(structure, parse_formula(formula_text))
                answers.append(
                    None
                    if res is None
                    else [res.value, [structure.labels[x] for x in res.witness]]
                )
            entry = {"digest": instances.texts_digest(texts), "answers": answers}
            lines.append(f"{json.dumps(f'{workload}/{seed}')}: {json.dumps(entry)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_oracle_reproduces_the_recorded_benchmark_answers():
    assert golden_text() == GOLDEN.read_text()


def test_base_cases_apply_few_pair_deltas_on_the_benchmark_sets():
    # a base case applies the delta of a mixed (u, w) pair only where its
    # assignment moves the pair, so these sets, whose oracle passes hold
    # 74,350 and 140,274 (u, w) pairs of their base cases' mixed atoms,
    # apply a small share of them
    instances = bench_instances()
    for workload, bound in (("lift-sparse", 2_000), ("desk-mix", 40_000)):
        applied = 0
        for structure_text, formula_text in instances.instance_texts(workload, 1):
            stats: dict = {}
            structure = load_structure(structure_text)
            baseline_opt(structure, parse_formula(formula_text), stats_out=stats)
            assert stats["base_cases"] > 0
            applied += stats["pair_deltas"]
        assert applied <= bound, (workload, applied)


@st.composite
def recurring_key_instances(draw):
    """An instance with k in {2, 3} and ell in {1, 2} whose base cases often
    read the same, with a guard of at most one literal on u where u is xk.
    Its dynamic atoms mention a strict subset of the leading variables where
    there are two or more (x1 where it is the only one), always in the first
    column of E0 or E1, whose records start at some objects only: an
    assignment of any other object reads no record.  Its fixed atoms, over
    the leading variables only, read P0, which any object may hold; its
    static atoms read P0 and E0.  The guard reads P0 or G0, whose records
    start at any object, so it tells apart assignments that the atoms do
    not."""
    k, ell = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rng = draw(st.randoms(use_true_random=False))
    variables = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(ell)]
    *leading, u, w = variables
    n = rng.randint(3, MAX_OBJECTS[k + ell])
    heads = rng.sample(range(n), rng.randint(1, n - 1))
    rels = {
        f"E{b}": {(rng.choice(heads), rng.randrange(n)) for _ in range(rng.randint(1, 2 * n))}
        for b in range(2)
    }
    rels["P0"] = {(v,) for v in range(n) if rng.random() < 0.5}
    rels["G0"] = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.5}
    structure = build_structure(
        [f"o{v}" for v in range(n)], rels, {"E0": 2, "E1": 2, "P0": 1, "G0": 2}
    )
    reading = rng.sample(leading, max(1, len(leading) - 1))
    atoms = [f"E{rng.randrange(2)}({rng.choice(reading)},{x})" for x in (u, w)]
    atoms += [f"P0({x})" for x in leading if rng.random() < 0.6]
    optional = (f"E0({u},{w})", f"P0({u})", f"P0({w})", f"E0({w},{u})")
    atoms += [atom for atom in optional if rng.random() < 0.4]
    literals = [("!" if rng.random() < 0.3 else "") + atom for atom in atoms]
    formula = parse_formula(
        f"{rng.choice(['max', 'min'])} {','.join(variables[:k])} . "
        f"count {','.join(variables[k:])} . {_random_tree(rng, literals)}"
    )
    guard = []
    if ell == 1 and rng.random() < 0.5:
        on_u = rng.choice([Atom("P0", (u,)), Atom("G0", (rng.choice(leading), u))])
        guard.append((on_u, rng.random() < 0.5))
    return structure, formula, guard


def test_the_memo_answers_base_cases_that_read_the_same():
    # two assignments whose keys agree read the same fixed bits, records and
    # guard hits on u, so the second base case is the first's: values and
    # guarded optima still match the nested loops, and most draws reuse one
    reused = []

    @given(recurring_key_instances())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def check(instance):
        structure, formula, guard = instance
        prepared = PreparedBaseline(structure, formula)
        assert prepared.values() == naive_values(structure, formula)
        assert prepared.opt(None, guard) == guarded_opt(structure, formula, None, guard)
        reused.append(prepared.reused > 0)

    check()
    assert sum(reused) >= len(reused) // 2, (sum(reused), len(reused))


def test_keys_that_pin_every_leading_variable_are_not_stored(monkeypatch):
    # at k=2 the dynamic atom E0(x1,y) reads x1's records: where every x1
    # has one, each key pins x1 and belongs to one assignment, so the walk
    # stores none; an x1 without a record (o0 and o1 once their records
    # move to o2) reads what any other such x1 reads, and only their one
    # key is stored
    from relopt import baseline

    walks = []

    class Recording(baseline.LeadingWalk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            walks.append(self)

    monkeypatch.setattr(baseline, "LeadingWalk", Recording)
    n = 6
    cycle = [f"E0 o{i} o{(i + 1) % n}\n" for i in range(n)]
    marks = "rel P0 1\nP0 o0\nP0 o3\n"
    for kind in ("max", "min"):
        formula = parse_formula(f"{kind} x1,x2 . count y . E0(x1,y) & !E0(x2,y) | P0(y)")
        moved = cycle[2:] + ["E0 o2 o1\n"]
        for records, reused, stored in ((cycle, 0, 0), (moved, 1, 1)):
            structure = load_structure("rel E0 2\n" + "".join(records) + marks)
            stats: dict = {}
            got = baseline_opt(structure, formula, stats_out=stats)
            assert got == opt_of_table(naive_values(structure, formula), kind)
            assert (stats["base_cases"], stats["reused"]) == (n, reused)
            walk = walks.pop()
            assert walk.key is not None and len(walk.memo) == stored
