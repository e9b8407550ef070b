"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared 500-instance
corpus is generated once per session and reused by the exactness and the
approximation criteria.
"""
import math
import random
from dataclasses import replace
from itertools import product

import pytest

from relopt.baseline import PreparedBaseline, baseline_opt, baseline_values
from relopt.fastcount import TripartiteGraph, triangle_counts
from relopt.generate import GenProfile, generate
from relopt.hybrid import (
    hash_element,
    prime_support,
    solve_hybrid,
    universe_reduce,
    val,
)
from relopt.ip import (
    IPInstance,
    IpSolver,
    approx_wrapper,
    brute_force_kmaxip,
    brute_force_kminip,
    densify,
    exact_solver,
    signed_join,
    sparsify,
)
from relopt.reduction import (
    reduce_and_solve,
    remove_parallel_edges,
    solve_positive_cross_edge,
    to_hybrid,
)

from oracles import (
    guarded_opt,
    hybrid_opt_naive,
    random_hybrid,
    random_instance,
    sparse_lift_instances,
    triangle_counts_naive,
)

N_CORPUS = 500


def _corpus_profile(seed: int) -> GenProfile:
    # k in {2, 3}, l = 1, n <= 20, m <= 150, <= 3 binary + <= 2 unary
    if seed % 2 == 0:
        return GenProfile(
            k=2, ell=1, n=6 + seed % 15, density=0.25 + (seed % 4) * 0.05,
            binary=3, unary=2, max_m=150,
        )
    return GenProfile(
        k=3, ell=1, n=6 + seed % 9, density=0.2 + (seed % 3) * 0.05,
        binary=2, unary=2, max_m=100,
    )


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in range(N_CORPUS):
        structure, formula = _corpus_profile(seed), None
        structure, formula = generate(seed, _corpus_profile(seed))
        assert structure.n <= 20 and structure.m <= 150
        res = baseline_opt(structure, formula)
        out.append((seed, structure, formula, res.value if res else None))
    return out


@pytest.fixture(scope="module")
def lift_corpus():
    # the lift prunes on these, so its IP-scored ranking is on the solve path
    out = []
    for i, (structure, formula) in enumerate(sparse_lift_instances()):
        res = baseline_opt(structure, formula)
        out.append((f"sparse-lift/{i}", structure, formula, res.value if res else None))
    return out


def _counting(solver):
    # counts the solver's batched queries, the one call a hybrid solve makes
    calls = []

    def query(instance, blocks, info):
        calls.append(instance)
        return solver.query(instance, blocks, info)

    return IpSolver(solver.kind, solver.ratio, solver.solve, query), calls


def _solve_lift_corpus(lift_corpus, make_solver):
    for name, structure, formula, opt in lift_corpus:
        solver, calls = _counting(make_solver(formula.kind))
        value, _ = reduce_and_solve(structure, formula, solver)
        assert calls, f"{name}: the IP solver was not called"
        yield name, formula, opt, value


def _vector_solver(kind):
    # the paper's plug-in: a per-instance solve, queried on the IP vectors
    return IpSolver(kind, 1.0, exact_solver(kind).solve)


def test_criterion_1_end_to_end_exactness(corpus, lift_corpus):
    for seed, structure, formula, opt in corpus:
        solver = exact_solver(formula.kind)
        value, _ = reduce_and_solve(structure, formula, solver)
        assert value == opt, f"seed {seed}: pipeline {value} != baseline {opt}"
    for make in (exact_solver, _vector_solver):
        for name, _, opt, value in _solve_lift_corpus(lift_corpus, make):
            assert value == opt, f"{name}: pipeline {value} != baseline {opt}"
    print(
        f"\nACCEPTANCE 1 end-to-end exactness over {len(corpus)} + "
        f"{len(lift_corpus)} instances: PASS"
    )


def test_criterion_2_approximation_preservation(corpus, lift_corpus):
    c, eps = 2.0, 0.1
    for seed, structure, formula, opt in corpus:
        solver = approx_wrapper(exact_solver(formula.kind), c)
        value, _ = reduce_and_solve(structure, formula, solver)
        if opt is None:
            assert value is None
            continue
        if formula.kind == "max":
            assert opt / (c + eps) <= value <= opt, f"seed {seed}: {value} vs {opt}"
        else:
            assert opt <= value <= (c + eps) * opt, f"seed {seed}: {value} vs {opt}"
    lift = _solve_lift_corpus(
        lift_corpus, lambda kind: approx_wrapper(exact_solver(kind), c)
    )
    for name, formula, opt, value in lift:
        if formula.kind == "max":
            assert opt / (c + eps) <= value <= opt, f"{name}: {value} vs {opt}"
        else:
            assert opt <= value <= (c + eps) * opt, f"{name}: {value} vs {opt}"
    print(
        f"\nACCEPTANCE 2 (c+eps)-approximation preserved on {len(corpus)} + "
        f"{len(lift_corpus)} instances: PASS"
    )


def test_ip_ranking_decides_the_lift_answer(lift_corpus):
    # an IP solver that inverts the order of the scores sends the wrong
    # combinations to the exact re-solve, so the answer moves off OPT
    def inverted(kind):
        exact = exact_solver(kind)

        def query(instance, blocks, info):
            values = exact.query(instance, blocks, info)
            return [None if v is None else -v for v in values]

        return IpSolver(kind, 1.0, lambda instance: -exact.solve(instance), query)

    answers = {
        solver: {
            name: value for name, _, _, value in _solve_lift_corpus(lift_corpus, make)
        }
        for solver, make in (
            ("exact", exact_solver),
            ("approx", lambda kind: approx_wrapper(exact_solver(kind), 2.0)),
            ("inverted", inverted),
        )
    }
    dropped = 0
    for name, _, formula, opt in lift_corpus:
        if formula.kind != "max":
            continue
        assert answers["exact"][name] == answers["approx"][name] == opt, name
        assert answers["inverted"][name] <= opt, name
        dropped += answers["inverted"][name] < opt
    assert dropped, "the IP ranking never decided a max answer"


def test_criterion_2_fails_on_scores_past_the_declared_ratio(lift_corpus):
    # the lift re-solves only the combinations whose scores reach, within
    # the declared ratio, the score of the first clean one; a solver that
    # overstates the zero scores past that ratio sends a combination of
    # value 0 to the top, so the answer falls out of criterion 2's interval
    c, eps = 2.0, 0.1

    def overstating(kind):
        exact = exact_solver(kind)

        def overstate(value):
            return 10**6 if value == 0 else value

        def query(instance, blocks, info):
            return [overstate(v) for v in exact.query(instance, blocks, info)]

        return IpSolver(kind, c, lambda instance: overstate(exact.solve(instance)), query)

    outside = 0
    for name, formula, opt, value in _solve_lift_corpus(lift_corpus, overstating):
        if formula.kind == "max":
            assert value <= opt, name
            outside += value < opt / (c + eps)
    assert outside, "no overstated score moved a max answer out of the interval"


def test_criterion_1_fails_without_the_shared_coordinate_term(lift_corpus):
    # the exact solver's k=2 query is one sparse join that scores a pair of
    # sets by const + offsets + the weights of the coordinates both hold; a
    # join that drops that last term misranks the combinations, so the
    # lift's re-solves miss the optimum of some instance
    def unshared(kind):
        exact = exact_solver(kind)

        def query(instance, blocks, info):
            pairs = instance.signed_pairs
            flat = replace(pairs, weight=[0] * len(pairs.weight))
            info["coords"] = instance.m_h
            return signed_join(kind, flat, blocks, info)

        return IpSolver(kind, 1.0, exact.solve, query)

    off = 0
    for name, formula, opt, value in _solve_lift_corpus(lift_corpus, unshared):
        # every answer is the value of a re-solved tuple
        assert value <= opt if formula.kind == "max" else value >= opt, name
        off += value != opt
    assert off, "no answer moved off OPT without the shared-coordinate term"


def test_criterion_3_universe_reduction_error_bound():
    rng = random.Random(2024)
    trials = 200
    for trial in range(trials):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 60), max_set=5)
        t = rng.choice([1, 2, 3, 4, 6, 9, 12, 16])
        reduced, red = universe_reduce(inst, t)
        assert red.delta >= 0
        for chosen in product(*(range(len(f)) for f in inst.families)):
            orig = val(inst, chosen)[1]
            new = val(reduced, chosen)[1]
            assert abs(t * orig - new - red.delta) <= red.e_bound, (
                f"trial {trial}: t={t}"
            )
        # the hybrid solve through the exact IP solver recovers the optimum
        got = solve_hybrid(inst, exact_solver(inst.kind))
        want = hybrid_opt_naive(inst)
        assert got == (want[0] if want else None), f"trial {trial}"
    print(
        f"\nACCEPTANCE 3 universe-reduction error bound on {trials} instances: PASS"
    )


def test_criterion_4_collision_bound():
    max_u = 512
    for t in range(1, 17):
        primes = prime_support(t)
        # collision number of u != u' depends only on the difference
        coll = [0] * max_u
        for d in range(1, max_u):
            coll[d] = sum(1 for p in primes if d % p == 0)
        running = 0
        for size in range(2, max_u + 1):
            running = max(running, coll[size - 1])
            assert running <= math.log2(size), f"t={t} |U|={size}"
    # spot check the pair definition against the difference shortcut
    primes = prime_support(6)
    rng = random.Random(99)
    for _ in range(200):
        u, v = rng.randrange(max_u), rng.randrange(max_u)
        if u == v:
            continue
        direct = len(hash_element(u, primes) & hash_element(v, primes))
        assert direct == sum(1 for p in primes if (u - v) % p == 0)
    # hashing lower bound on 1000 random sets
    checked = 0
    while checked < 1000:
        t = rng.randint(1, 16)
        primes = prime_support(t)
        size = rng.randint(1, 64)
        s = rng.sample(range(max_u), size)
        h_union = set()
        for u in s:
            h_union |= hash_element(u, primes)
        assert len(h_union) >= t * size - size * size * math.log2(max_u)
        checked += 1
    print("\nACCEPTANCE 4 collision and hashing bounds (|U| <= 512, t <= 16): PASS")


def test_criterion_5_triangle_counting():
    rng = random.Random(77)
    graphs = []
    for _ in range(50):
        nx, ny, nz = (rng.randint(1, 8) for _ in range(3))

        def edges(na, nb):
            cand = [(i, j) for i in range(na) for j in range(nb)]
            return frozenset(rng.sample(cand, rng.randint(0, len(cand))))

        graphs.append(
            TripartiteGraph(nx, ny, nz, edges(nx, ny), edges(nx, nz), edges(ny, nz))
        )
    for g in graphs:
        for code in range(256):
            table = [(code >> i) & 1 for i in range(8)]
            assert triangle_counts(g, table) == triangle_counts_naive(
                g.nx, g.ny, g.nz, g.xy, g.xz, g.yz, table
            ), f"table {code}"
    print("\nACCEPTANCE 5 triangle counting, 256 tables x 50 graphs: PASS")


def test_criterion_6_multi_counting():
    from relopt.fastcount import multi_counting_opt

    rng = random.Random(88)
    trials = 200
    for trial in range(trials):
        k = rng.choice([1, 2])
        structure, formula = random_instance(
            rng,
            k=k,
            ell=2,
            n_objects=rng.randint(2, 10),
            ternary=rng.choice([0, 0, 1]),
        )
        want = baseline_opt(structure, formula)
        got = multi_counting_opt(structure, formula)
        assert (got.value, got.witness) == (want.value, want.witness), (
            f"trial {trial}: {formula}"
        )
    print(f"\nACCEPTANCE 6 multi-counting solver on {trials} instances: PASS")


def test_criterion_7_per_tuple_value_preservation():
    rng = random.Random(66)
    # parallel-edge removal preserves every tuple value under the slot map
    for trial in range(100):
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
        for key, value in want.items():
            mapped = tuple(doms[formula.opt_vars[i]][key[i]] for i in range(k))
            assert got[mapped] == value, f"rpe trial {trial}"
    # hybrid conversion preserves every tuple value under the back-map
    from test_reduction import conforming_instance

    for trial in range(100):
        k = rng.choice([2, 2, 3])
        structure, formula = conforming_instance(rng, k=k, n_objects=rng.randint(2, 7))
        want = baseline_values(structure, formula)
        seen = {}
        for inst, family_objects in to_hybrid(structure, formula):
            for key in product(*(range(len(f)) for f in inst.families)):
                tup = tuple(family_objects[i][j] for i, j in enumerate(key))
                seen[tup] = val(inst, key)[1]
        assert seen == want, f"to_hybrid trial {trial}"
    print("\nACCEPTANCE 7 per-tuple value preservation (100 + 100 instances): PASS")


def test_criterion_8_positive_cross_edge():
    # the solver is the optimum over the tuples that carry the forced edge,
    # with the least witness, in either orientation of the edge
    from relopt.formula import Atom

    rng = random.Random(44)
    trials = 200
    n_min = 0
    for trial in range(trials):
        k = rng.choice([2, 2, 3])
        kind = rng.choice(["max", "min"])
        n_min += kind == "min"
        structure, formula = random_instance(
            rng, k=k, ell=1, n_objects=rng.randint(2, 7), kind=kind
        )
        forced = Atom("E0", tuple(rng.sample(formula.opt_vars, 2)))
        want = guarded_opt(structure, formula, None, [(forced, True)])
        got = solve_positive_cross_edge(PreparedBaseline(structure, formula), forced)
        assert got == want, f"trial {trial}: {formula} forced {forced}"
    assert n_min >= 50
    print(
        f"\nACCEPTANCE 8 positive-cross-edge solver on {trials} instances "
        f"({n_min} min-kind): PASS"
    )


def test_criterion_9_ip_conversions():
    rng = random.Random(33)
    trials = 100
    for trial in range(trials):
        k = rng.randint(1, 3)
        d = rng.randint(1, 12)
        fams = tuple(
            tuple(
                tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
                for _ in range(rng.randint(1, 4))
            )
            for _ in range(k)
        )
        inst = IPInstance(k, fams, d)
        dense = densify(inst)
        back = sparsify(dense, d)
        assert back == inst
        assert densify(back) == dense
        res = brute_force_kmaxip(inst)
        res_back = brute_force_kmaxip(back)
        assert res == res_back
        rmin = brute_force_kminip(inst)
        assert rmin == brute_force_kminip(back)
    print(f"\nACCEPTANCE 9 sparse/dense conversions on {trials} instances: PASS")
