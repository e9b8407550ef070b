import random
from itertools import product

import pytest
from hypothesis import event, given, settings, strategies as st

import relopt.fastcount as fastcount
from relopt.baseline import baseline_opt, naive_values, opt_of_table
from relopt.errors import ContractError, UnsupportedShapeError
from relopt.fastcount import (
    TripartiteGraph,
    and_basis_coefficients,
    multi_counting_opt,
    triangle_counts,
)
from relopt.formula import parse_formula
from relopt.ip import exact_solver
from relopt.reduction import reduce_and_solve
from relopt.structure import build_structure, load_structure

from oracles import random_instance, triangle_counts_naive


def idx(a1, a2, a3):
    return (a1 << 2) | (a2 << 1) | a3


def test_basis_constant_one():
    dec = and_basis_coefficients([1] * 8)
    assert dec.coefficients[frozenset()] == 1
    assert all(v == 0 for s, v in dec.coefficients.items() if s)


def test_basis_triple_and():
    table = [0] * 8
    table[idx(1, 1, 1)] = 1
    dec = and_basis_coefficients(table)
    assert dec.coefficients[frozenset([1, 2, 3])] == 1
    assert all(v == 0 for s, v in dec.coefficients.items() if s != frozenset([1, 2, 3]))


def test_basis_xor_example():
    table = [0] * 8
    for a1, a2, a3 in product([0, 1], repeat=3):
        table[idx(a1, a2, a3)] = a1 ^ a2
    dec = and_basis_coefficients(table)
    assert dec.coefficients[frozenset([1])] == 1
    assert dec.coefficients[frozenset([2])] == 1
    assert dec.coefficients[frozenset([1, 2])] == -2
    assert dec.coefficients[frozenset()] == 0


def test_basis_reconstructs_all_256_tables():
    for code in range(256):
        table = [(code >> i) & 1 for i in range(8)]
        dec = and_basis_coefficients(table)
        for a1, a2, a3 in product([0, 1], repeat=3):
            assert dec.reconstruct(a1, a2, a3) == table[idx(a1, a2, a3)]


def test_basis_decomposition_is_read_only():
    table = [0] * 8
    table[idx(1, 1, 0)] = 1
    g = TripartiteGraph(
        2, 2, 2,
        frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 1)}), frozenset({(0, 1)}),
    )
    before = triangle_counts(g, table)
    dec = and_basis_coefficients(table)
    with pytest.raises(TypeError):
        dec.coefficients[frozenset([1, 2])] = 5
    with pytest.raises(TypeError):
        del dec.coefficients[frozenset([1, 2, 3])]
    assert and_basis_coefficients(table).coefficients == dec.coefficients
    assert triangle_counts(g, table) == before == triangle_counts_naive(
        g.nx, g.ny, g.nz, g.xy, g.xz, g.yz, table
    )


@pytest.mark.parametrize(
    "xy", [{(0,)}, {(0, 0, 0)}, {0}, {("a", 0)}, {(0.5, 0)}, {(0, 1)}, {(-1, 0)}]
)
def test_tripartite_graph_rejects_an_edge_that_is_no_pair_in_range(xy):
    with pytest.raises(ContractError):
        TripartiteGraph(1, 1, 1, frozenset(xy), frozenset(), frozenset())


@pytest.mark.parametrize("entry", [2, -1, 0.5])
def test_triangle_counts_rejects_a_table_entry_other_than_0_or_1(entry):
    g = TripartiteGraph(1, 1, 1, frozenset({(0, 0)}), frozenset(), frozenset())
    table = [0] * 8
    table[idx(1, 0, 0)] = entry
    with pytest.raises(ContractError):
        triangle_counts(g, table)
    with pytest.raises(ContractError):
        and_basis_coefficients(table)


def random_graph(rng, max_part=8):
    nx, ny, nz = (rng.randint(1, max_part) for _ in range(3))
    def edge_set(na, nb):
        cand = [(i, j) for i in range(na) for j in range(nb)]
        return frozenset(rng.sample(cand, rng.randint(0, len(cand))))
    return TripartiteGraph(nx, ny, nz, edge_set(nx, ny), edge_set(nx, nz), edge_set(ny, nz))


def test_triangle_single_triangle_and():
    g = TripartiteGraph(1, 1, 1, frozenset({(0, 0)}), frozenset({(0, 0)}), frozenset({(0, 0)}))
    table = [0] * 8
    table[idx(1, 1, 1)] = 1
    assert triangle_counts(g, table) == [1]
    table2 = [0] * 8
    table2[idx(1, 1, 0)] = 1  # a1 & a2 & !a3
    assert triangle_counts(g, table2) == [0]


def test_triangle_counts_match_naive_all_tables():
    rng = random.Random(1234)
    graphs = [random_graph(rng) for _ in range(12)]
    for g in graphs:
        for code in range(256):
            table = [(code >> i) & 1 for i in range(8)]
            got = triangle_counts(g, table)
            want = triangle_counts_naive(
                g.nx, g.ny, g.nz, g.xy, g.xz, g.yz, table
            )
            assert got == want, (g, code)


def test_triangle_counts_dense_graph():
    rng = random.Random(99)
    nx = ny = nz = 12
    xy = frozenset((i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.8)
    xz = frozenset((i, j) for i in range(nx) for j in range(nz) if rng.random() < 0.8)
    yz = frozenset((i, j) for i in range(ny) for j in range(nz) if rng.random() < 0.8)
    g = TripartiteGraph(nx, ny, nz, xy, xz, yz)
    table = [0] * 8
    table[idx(1, 1, 1)] = 1
    assert triangle_counts(g, table) == triangle_counts_naive(
        nx, ny, nz, xy, xz, yz, table
    )


def test_triangle_counts_scan_either_side_of_a_skewed_yz_edge():
    # y0 has every x but 7 and z0 only {3, 7}; y1 has only {5, 6} and z1
    # every x but 6: edge (y0, z0) scans z0's x neighbours, (y1, z1) scans
    # y1's, and they meet x3 and x5
    nx = 30
    xy = frozenset((x, 0) for x in range(nx) if x != 7) | {(5, 1), (6, 1)}
    xz = frozenset({(3, 0), (7, 0)}) | {(x, 1) for x in range(nx) if x != 6}
    g = TripartiteGraph(nx, 2, 2, xy, xz, frozenset({(0, 0), (1, 1)}))
    table = [0] * 8
    table[idx(1, 1, 1)] = 1
    want = [0] * nx
    want[3] = want[5] = 1
    assert triangle_counts(g, table) == want == triangle_counts_naive(
        g.nx, g.ny, g.nz, g.xy, g.xz, g.yz, table
    )


@st.composite
def hub_graphs(draw):
    """A tripartite graph of up to 40 objects per part: random edges at a
    drawn density, plus one to three hubs, each an object adjacent to most
    of another part."""
    sizes = [draw(st.integers(1, 40)) for _ in range(3)]
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0, 0.3))
    pairs = ((0, 1), (0, 2), (1, 2))
    sides = {
        (a, b): {(i, j) for i, j in product(range(sizes[a]), range(sizes[b]))
                 if rng.random() < density}
        for a, b in pairs
    }
    for _ in range(draw(st.integers(1, 3))):
        part, other = draw(st.sampled_from(pairs + tuple((b, a) for a, b in pairs)))
        hub = draw(st.integers(0, sizes[part] - 1))
        for o in range(sizes[other]):
            if rng.random() < 0.9:
                if part < other:
                    sides[part, other].add((hub, o))
                else:
                    sides[other, part].add((o, hub))
    return TripartiteGraph(*sizes, *(frozenset(sides[pr]) for pr in pairs))


@given(hub_graphs(), st.lists(st.integers(0, 1), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_triangle_counts_match_naive_on_hub_graphs(g, table):
    triangles = [0] * 8
    triangles[idx(1, 1, 1)] = 1
    for t in (table, triangles):
        assert triangle_counts(g, t) == triangle_counts_naive(
            g.nx, g.ny, g.nz, g.xy, g.xz, g.yz, t
        )


def test_multi_counting_requires_two_count_vars():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x . count y . E(x,y)")
    with pytest.raises(UnsupportedShapeError):
        multi_counting_opt(s, f)


def test_multi_counting_body_false():
    s = load_structure("rel E 2\nE a b\n")
    f = parse_formula("max x . count y1,y2 . false")
    res = multi_counting_opt(s, f)
    assert res.value == 0


def test_multi_counting_ternary_record_count():
    # R holds on exactly 3 records; max_x count_{y1,y2} R(x,y1,y2) is the
    # largest per-x record count
    recs = {(0, 1, 2), (0, 2, 1), (1, 0, 0)}
    s = build_structure(["a", "b", "c"], {"R": recs}, {"R": 3})
    f = parse_formula("max x . count y1,y2 . R(x,y1,y2)")
    res = multi_counting_opt(s, f)
    assert res.value == 2
    assert res.witness == (0,)


def test_multi_counting_matches_baseline_k1():
    rng = random.Random(77)
    for trial in range(60):
        structure, formula = random_instance(
            rng,
            k=1,
            ell=2,
            n_objects=rng.randint(2, 8),
            ternary=rng.choice([0, 0, 1]),
        )
        want = baseline_opt(structure, formula)
        got = multi_counting_opt(structure, formula)
        assert (got.value, got.witness) == (want.value, want.witness), (
            f"trial {trial}: {formula}"
        )


def test_multi_counting_matches_baseline_k2():
    rng = random.Random(78)
    for trial in range(40):
        structure, formula = random_instance(
            rng,
            k=2,
            ell=2,
            n_objects=rng.randint(2, 6),
            ternary=rng.choice([0, 1]),
        )
        want = baseline_opt(structure, formula)
        got = multi_counting_opt(structure, formula)
        assert (got.value, got.witness) == (want.value, want.witness), (
            f"trial {trial}: {formula}"
        )


def test_multi_counting_ell3():
    rng = random.Random(79)
    for _ in range(10):
        structure, formula = random_instance(rng, k=1, ell=3, n_objects=4)
        want = baseline_opt(structure, formula)
        got = multi_counting_opt(structure, formula)
        assert (got.value, got.witness) == (want.value, want.witness)


# prefix variables are brute-forced, so n shrinks as k + ell grows; ell=4
# draws keep n <= 3
_MAX_N = {3: 24, 4: 24, 5: 10, 6: 6}


@st.composite
def multicount_instances(draw):
    """A structure and a formula with k in {1, 2, 3} optimization and ell in
    {2, 3} counting variables, or ell=4 for k <= 2 at n <= 3, over the
    residual variables (u, v, w), the last three; the variables before them
    are brute-forced (assigned), y1 among them where ell=4.  Three bodies in
    four have an atom over (v, w), the last two counting variables, so yz
    sides are non-empty; the others have no atom over v and w without u, so
    no residual graph has a yz edge and every class triple is counted as
    products of partner counts.  Mostly atoms over (u, v) and (u, w); often
    a ternary atom over (u, v, w); and random atoms, some with repeated
    variables.
    With an assigned variable, the body is one of: static (no atom mentions
    an assigned variable, so every run touches nothing); fixed (one atom
    over assigned variables only, so untouched runs differ in its bit); or
    dynamic: some of an atom over an assigned variable and u, one with v,
    one with w (so classes change per run) and a ternary atom over an
    assigned variable and two of u, v, w (a pair atom whose pairs change per
    run).  Records include self-loops, possibly empty relations and, with a
    hub object, skewed degrees: residual graphs whose yz edges join an end
    with many x neighbours to one with few."""
    k = draw(st.integers(1, 3))
    ell = draw(st.integers(2, 4 if k <= 2 else 3))
    n = draw(st.integers(1, 3 if ell == 4 else _MAX_N[k + ell]))
    variables = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(ell)]
    obj = st.integers(0, n - 1)
    hub = draw(st.none() | obj)
    rels = {}
    for name in ("E0", "E1"):
        recs = draw(st.sets(st.tuples(obj, obj), max_size=2 * n))
        recs |= {(o, o) for o in draw(st.sets(obj, max_size=3))}
        if hub is not None:
            recs |= {(hub, o) for o in draw(st.sets(obj))}
            recs |= {(o, hub) for o in draw(st.sets(obj))}
        rels[name] = recs
    rels["P0"] = {(o,) for o in draw(st.sets(obj))}
    rels["R0"] = draw(st.sets(st.tuples(obj, obj, obj), max_size=2 * n))
    arity = {"E0": 2, "E1": 2, "P0": 1, "R0": 3}
    structure = build_structure([f"o{i}" for i in range(n)], rels, arity)

    def atom(pred, args):
        return f"{pred}({','.join(args)})"

    assigned, residual = variables[:-3], variables[-3:]
    u, v, w = residual
    binary = st.sampled_from(["E0", "E1"])
    with_vw = draw(st.integers(0, 3)) > 0

    def allowed(args):
        return with_vw or set(args) & {u, v, w} != {v, w}

    leaves = [atom(draw(binary), draw(st.permutations([v, w])))] if with_vw else []
    for pair in ([u, v], [u, w]):
        if draw(st.integers(0, 3)):
            leaves.append(atom(draw(binary), draw(st.permutations(pair))))
    if draw(st.booleans()):
        leaves.append(atom("R0", draw(st.permutations([u, v, w]))))
    mode = draw(st.sampled_from(["dynamic", "fixed", "static"])) if assigned else "static"
    x = st.sampled_from(assigned)
    if mode == "fixed":
        pred = draw(st.sampled_from(["P0", "E0", "E1"]))
        leaves.append(atom(pred, [draw(x) for _ in range(arity[pred])]))
    if mode == "dynamic":
        pair_atom = draw(st.booleans())
        for r in draw(st.sets(st.sampled_from(residual), min_size=not pair_atom)):
            leaves.append(atom(draw(binary), draw(st.permutations([draw(x), r]))))
        if pair_atom:
            pair = draw(
                st.lists(st.sampled_from(residual), min_size=2, max_size=2, unique=True)
                .filter(allowed)
            )
            leaves.append(atom("R0", draw(st.permutations([draw(x), *pair]))))
    pool = variables if mode == "dynamic" else residual
    for _ in range(draw(st.integers(1, 4))):
        pred = draw(st.sampled_from(sorted(arity)))
        args = draw(
            st.lists(st.sampled_from(pool), min_size=arity[pred], max_size=arity[pred])
            .filter(allowed)
        )
        leaves.append(atom(pred, args))
    leaves = draw(st.permutations(leaves))
    body = leaves[0]
    for leaf in leaves[1:]:
        op = draw(st.sampled_from(["&", "|"]))
        neg = "!" if draw(st.booleans()) else ""
        body = f"({body} {op} {neg}{leaf})"
    kind = draw(st.sampled_from(["max", "min"]))
    text = (
        f"{kind} {','.join(variables[:k])} . count {','.join(variables[k:])} . {body}"
    )
    return structure, parse_formula(text)


@given(multicount_instances())
@settings(max_examples=200, deadline=None)
def test_multi_counting_equals_baseline_property(instance):
    structure, formula = instance
    want = baseline_opt(structure, formula)
    got = multi_counting_opt(structure, formula)
    assert (got.value, got.witness) == (want.value, want.witness), str(formula)
    # both engines walk the leading variables through the same code, so the
    # nested loops check that walk too, where they are cheap: every ell=4 draw
    if structure.n ** (formula.k + formula.ell) <= 3**6:
        naive = opt_of_table(naive_values(structure, formula), formula.kind)
        assert (got.value, got.witness) == tuple(naive), str(formula)


def test_multicount_trace_counts_every_triangle_counts_call(monkeypatch):
    calls = 0
    original = fastcount.triangle_counts

    def counted(g, table):
        nonlocal calls
        calls += 1
        return original(g, table)

    monkeypatch.setattr(fastcount, "triangle_counts", counted)
    rng = random.Random(5)
    products = 0
    for _ in range(10):
        structure, formula = random_instance(rng, k=2, ell=2, n_objects=6)
        before = calls
        value, trace = reduce_and_solve(structure, formula, exact_solver(formula.kind))
        assert trace.path == "multicount"
        stats = dict(trace.stages)["multicount"]
        assert stats["graphs"] == calls - before
        assert stats["runs"] == structure.n  # one per value of x1
        assert 0 <= stats["empty_side"] <= stats["graphs"]
        assert (stats["tables"] > 0) == (stats["graphs"] > 0)
        assert 0 <= stats["touched"] <= stats["runs"] * structure.n
        assert value == baseline_opt(structure, formula).value
        products += stats["products"]
    # random bodies have no atom over (y1, y2): every residual class triple
    # is counted as products of partner counts
    assert products > 0

    # no atom mentions x1: every run reads the same, and the walk's memo
    # answers all runs after the first, but each still counts as a run
    structure, _ = random_instance(rng, k=2, ell=2, n_objects=6)
    formula = parse_formula("max x1,x2 . count y1,y2 . E0(x2,y1) & !E1(y1,y2) | P0(y2)")
    before = calls
    value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    stats = dict(trace.stages)["multicount"]
    assert stats["runs"] == structure.n
    assert stats["reused"] == structure.n - 1
    assert stats["touched"] == 0
    assert (stats["static_atoms"], stats["dynamic_atoms"]) == (3, 0)
    assert stats["graphs"] == calls - before > 0
    assert value == baseline_opt(structure, formula).value

    # no atom over (y1, y2): no class triple has a yz edge, so no graph is
    # built and the residual is counted as products only
    structure, _ = random_instance(rng, k=2, ell=2, n_objects=6)
    formula = parse_formula(
        "min x1,x2 . count y1,y2 . E0(x2,y1) & P0(y2) | !E0(y2,x2) | E1(x1,y1)"
    )
    before = calls
    value, trace = reduce_and_solve(structure, formula, exact_solver("min"))
    stats = dict(trace.stages)["multicount"]
    assert stats["graphs"] == calls - before == 0
    assert stats["empty_side"] == stats["tables"] == 0
    assert stats["products"] > 0
    assert value == baseline_opt(structure, formula).value



def _recount(buckets, ca, cb, pair, bits):
    """Per member of a's class pair[0]: its partners of colour bits in b's
    class pair[1], counted off the buckets; for colour 0 its non-partners."""
    deg = [0] * len(ca.members[pair[0]])
    for i, _ in buckets.get(pair, fastcount._NO_BUCKETS).get(bits, ()):
        deg[i] += 1
    nb = len(cb.members[pair[1]])
    return deg if bits else [nb - d for d in deg]


def _check_delta_counts(residual, asn):
    """On every pair side of the run at ``asn``: the buckets equal those
    built anew off the run's pair colours, and each class pair's
    colour set and count vectors, moved by delta, equal those recounted off
    the buckets, whether the run's colours come from the delta or from the
    buckets.  Returns what the run did to the static classes."""
    _, moved, extra_pairs = residual.moves(asn)
    seen = set()
    for var, (cls, _) in moved.items():
        static = residual.classes[var].members
        if static.keys() - cls.members.keys():
            seen.add("emptied a class")
        if cls.members.keys() - static.keys():
            seen.add("created a class")
    if any(extra_pairs.values()):
        seen.add("touched pairs")
    for (a, b), side in residual.pair_sides.items():
        (ca, changed_a), (cb, changed_b) = moved[a], moved[b]
        extra = extra_pairs[a, b]
        colour = dict(side.color)
        for pair, bits in extra.items():
            colour[pair] = colour.get(pair, 0) | bits
        buckets = side.run_buckets(ca, changed_a, cb, changed_b, extra)
        assert buckets == fastcount._buckets(colour, ca, cb)
        for given_buckets in (None, buckets):
            counts = fastcount._RunCounts(side, ca, changed_a, cb, changed_b, extra, given_buckets)
            for pair in product(ca.members, cb.members):
                colours = set(buckets.get(pair, fastcount._NO_BUCKETS))
                assert set(counts.colours(pair)) == colours, (a, b, pair)
                for bits in sorted(colours):
                    want = _recount(buckets, ca, cb, pair, bits)
                    assert counts.vector(pair, bits) == want, (a, b, pair, bits)
    return seen


def _check_every_run(structure, formula):
    """``_check_delta_counts`` on every assignment of the brute-forced
    variables; the static vectors must come out unchanged.  Returns what
    the runs did to the static classes."""
    residual = fastcount._Residual3(structure, formula)
    static = {
        pr: {key: list(vec) for key, vec in side.counts.vectors.items()}
        for pr, side in residual.pair_sides.items()
    }
    assigned = [x for x in formula.opt_vars + formula.count_vars if x not in residual.free]
    seen = set()
    for objects in product(*(residual.domains[x] for x in assigned)):
        seen |= _check_delta_counts(residual, dict(zip(assigned, objects)))
    for pr, side in residual.pair_sides.items():
        assert side.counts.vectors == static[pr]
    return seen


@given(multicount_instances())
@settings(max_examples=150, deadline=None)
def test_delta_counts_equal_the_counts_of_the_run_buckets(instance):
    structure, formula = instance
    for what in sorted(_check_every_run(structure, formula)):
        event(f"a run {what}")


def test_delta_counts_hold_where_a_run_empties_and_creates_classes():
    # P0 splits y1's static classes; E0(x1,y1) moves y1's objects out of
    # them per value of x1, emptying {o0, o3}'s class at x1 = o2 and creating
    # classes of touched objects, as E1(x1,y3) does for y3's one class;
    # R0(x1,y2,y3) touches (y2, y3) pairs, and the hub o0 carries most
    # pairs of E1
    records = {
        "E0": {(1, 0), (2, 0), (2, 3), (3, 1), (0, 2)},
        "E1": {(0, o) for o in range(5)} | {(o, 0) for o in range(5)} | {(2, 3)},
        "P0": {(0,), (3,)},
        "R0": {(1, 2, 3), (1, 0, 4), (2, 1, 1), (3, 3, 0)},
    }
    arity = {"E0": 2, "E1": 2, "P0": 1, "R0": 3}
    structure = build_structure([f"o{i}" for i in range(5)], records, arity)
    for kind in ("max", "min"):
        formula = parse_formula(
            f"{kind} x1 . count y1,y2,y3 . (P0(y1) | E0(x1,y1)) & "
            "(E1(y1,y2) | R0(x1,y2,y3)) & (E0(y1,y3) | !E1(y3,y1) | P0(y2) | E1(x1,y3))"
        )
        assert _check_every_run(structure, formula) == {
            "emptied a class", "created a class", "touched pairs"
        }
