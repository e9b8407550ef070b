import random

import pytest
from hypothesis import given, settings, strategies as st

from relopt.baseline import PreparedBaseline, baseline_opt
from relopt.errors import FormulaParseError, SchemaError
from relopt.fastcount import multi_counting_opt
from relopt.formula import (
    And,
    Atom,
    Const,
    Not,
    Or,
    atoms_of,
    eval_expr_table,
    evaluate_body,
    fold,
    parse_formula,
    print_expr,
)
from relopt.reduction import normalize_formula, remove_hyperedges
from relopt.structure import load_structure

from oracles import random_instance


def test_parse_two_opt_vars():
    f = parse_formula("max x1,x2 . count y . E(x1,y) & E(x2,y)")
    assert f.kind == "max"
    assert f.k == 2 and f.ell == 1
    assert f.body == And(Atom("E", ("x1", "y")), Atom("E", ("x2", "y")))


def test_parse_negation():
    f = parse_formula("min x . count y . !E(x,y)")
    assert f.kind == "min"
    assert f.body == Not(Atom("E", ("x", "y")))


def test_parse_keeps_constants_literal():
    f = parse_formula("max x . count y . E(y,x) | true")
    assert f.body == Or(Atom("E", ("y", "x")), Const(True))
    assert str(f) == "max x . count y . E(y,x) | true"


def test_parse_errors():
    with pytest.raises(FormulaParseError):
        parse_formula("max x . count y . E(x,")
    with pytest.raises(FormulaParseError):
        parse_formula("max x . count y . E(x,z)")  # unbound z
    with pytest.raises(FormulaParseError):
        parse_formula("max x,x . count y . E(x,y)")  # duplicate variable
    with pytest.raises(FormulaParseError):
        parse_formula("sum x . count y . E(x,y)")


def test_precedence_and_parens():
    f = parse_formula("max x . count y . E(x,y) & F(x,y) | G(x,y)")
    assert isinstance(f.body, Or)
    g = parse_formula("max x . count y . E(x,y) & (F(x,y) | G(x,y))")
    assert isinstance(g.body, And)


def _expr_strategy():
    atom = st.sampled_from(
        [Atom("E", ("x", "y")), Atom("F", ("y", "x")), Atom("P", ("x",)), Const(True), Const(False)]
    )
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        ),
        max_leaves=12,
    )


@given(_expr_strategy())
@settings(max_examples=200, deadline=None)
def test_print_parse_fixpoint(expr):
    from relopt.formula import parse_expr

    printed = print_expr(expr)
    reparsed = parse_expr(printed)
    assert print_expr(reparsed) == printed
    # printing strips only redundant parentheses, so semantics must agree
    from relopt.formula import atoms_of, eval_expr_table

    atoms = list(dict.fromkeys(atoms_of(expr)))
    rng = random.Random(0)
    for _ in range(8):
        vals = {a: bool(rng.getrandbits(1)) for a in atoms}
        assert eval_expr_table(expr, vals) == eval_expr_table(reparsed, vals)


def _consts(expr):
    if isinstance(expr, Const):
        return 1
    if isinstance(expr, Not):
        return _consts(expr.arg)
    if isinstance(expr, (And, Or)):
        return _consts(expr.left) + _consts(expr.right)
    return 0


@given(_expr_strategy())
@settings(max_examples=300, deadline=None)
def test_fold_keeps_the_truth_table_and_leaves_no_constant_inside(expr):
    # the folded expression is a lone constant or holds none, and agrees
    # with the original under every assignment of its (at most 3) atoms
    folded = fold(expr)
    assert isinstance(folded, Const) or _consts(folded) == 0, print_expr(folded)
    atoms = list(dict.fromkeys(atoms_of(expr)))
    for bits in range(1 << len(atoms)):
        vals = {a: bool(bits >> i & 1) for i, a in enumerate(atoms)}
        assert eval_expr_table(folded, vals) == eval_expr_table(expr, vals)


# library entry points that read a body's atoms against the structure, with
# the counting variables each takes
SCHEMA_ENTRY_POINTS = {
    "baseline_opt": ("count y1,y2", baseline_opt),
    "PreparedBaseline": ("count y1", PreparedBaseline),
    "multi_counting_opt": ("count y1,y2", multi_counting_opt),
    "normalize_formula": ("count y1", normalize_formula),
    "remove_hyperedges": ("count y1", remove_hyperedges),
}


@pytest.mark.parametrize("entry", list(SCHEMA_ENTRY_POINTS))
@pytest.mark.parametrize(
    "body",
    [
        "P(x1,x1,y1,x2)",  # a repeated variable and more arguments than the arity
        "P(x1,x2,y1)",  # more arguments than the arity
        "Q(x1,y1)",  # no such relation
    ],
)
def test_library_entry_points_check_the_schema(entry, body):
    counted, solve = SCHEMA_ENTRY_POINTS[entry]
    s = load_structure("rel P 1\nP a\nP b\n")
    f = parse_formula(f"max x1,x2 . {counted} . {body}")
    with pytest.raises(SchemaError):
        solve(s, f)


def test_evaluate_body_basics():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x . count y . E(x,y)")
    a, b = s.index("a"), s.index("b")
    assert evaluate_body(f, s, {"x": a, "y": b})
    assert not evaluate_body(f, s, {"x": b, "y": a})


def test_evaluate_body_empty_relation_false():
    s = load_structure("rel E 2\nrel P 1\nP a\n")
    a = s.index("a")
    f = parse_formula("max x . count y . E(x,y)")
    assert not evaluate_body(f, s, {"x": a, "y": a})
    g = parse_formula("max x . count y . E(x,y) | P(x)")
    assert evaluate_body(g, s, {"x": a, "y": a})


def test_evaluate_matches_truth_table_oracle():
    from relopt.formula import atoms_of, eval_expr_table

    rng = random.Random(5)
    for _ in range(50):
        structure, formula = random_instance(rng, k=2, ell=1, n_objects=5)
        atoms = list(dict.fromkeys(atoms_of(formula.body)))
        all_vars = formula.opt_vars + formula.count_vars
        for _ in range(10):
            asn = {v: rng.randrange(structure.n) for v in all_vars}
            direct = evaluate_body(formula, structure, asn)
            vals = {
                a: tuple(asn[v] for v in a.args)
                in structure.relation(a.pred).records
                for a in atoms
            }
            assert direct == eval_expr_table(formula.body, vals)


def test_evaluate_distributes():
    rng = random.Random(6)
    for _ in range(30):
        structure, formula = random_instance(rng, k=2, ell=1, n_objects=5)
        e = formula.body
        all_vars = formula.opt_vars + formula.count_vars
        asn = {v: rng.randrange(structure.n) for v in all_vars}
        from relopt.formula import eval_expr

        assert eval_expr(Not(e), structure, asn) == (not eval_expr(e, structure, asn))
        assert eval_expr(And(e, e), structure, asn) == eval_expr(e, structure, asn)
        assert eval_expr(Or(e, Const(False)), structure, asn) == eval_expr(
            e, structure, asn
        )


# 2,000 conjuncts, each an atom, a negation or a parenthesised disjunction
LONG_BODY = " & ".join(["E(x1,y)", "!E(x2,y)", "(E(y,x1) | P(x2))", "P(y)"] * 500)


def test_long_chain_parses_into_a_shallow_tree_and_solves():
    from relopt.baseline import baseline_opt
    from relopt.ip import exact_solver
    from relopt.reduction import reduce_and_solve

    text = f"max x1,x2 . count y . {LONG_BODY}"
    formula = parse_formula(text)
    assert str(formula) == text

    def depth(e):
        if isinstance(e, Not):
            return 1 + depth(e.arg)
        if isinstance(e, (And, Or)):
            return 1 + max(depth(e.left), depth(e.right))
        return 0

    assert depth(formula.body) < 16  # a left-deep chain would be 2,000 deep
    structure = load_structure(
        "rel E 2\nrel P 1\nE a b\nE c b\nE b a\nE d c\nP b\nP a\n"
    )
    want = baseline_opt(structure, formula)
    value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    assert (value, trace.witness) == (want.value, want.witness)
    assert want.value > 0


@pytest.mark.parametrize(
    "body",
    ["(" * 2000 + "P(y)" + ")" * 2000, "!" * 2000 + "P(y)"],
    ids=["2000-parentheses", "2000-negations"],
)
def test_deep_nesting_is_a_parse_error(body):
    from relopt.formula import MAX_NESTING

    with pytest.raises(FormulaParseError, match=f"deeper than {MAX_NESTING}"):
        parse_formula(f"max x . count y . {body}")


def test_nesting_up_to_the_cap_parses():
    from relopt.formula import MAX_NESTING

    half = MAX_NESTING // 2
    body = "(" * half + "!" * (MAX_NESTING - half) + "P(y)" + ")" * half
    formula = parse_formula(f"max x . count y . {body}")
    assert str(formula) == f"max x . count y . {'!' * (MAX_NESTING - half)}P(y)"
