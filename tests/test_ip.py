import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from relopt.errors import ContractError, ResourceLimitError
from relopt.hybrid import HybridInstance
from relopt.ip import (
    IPInstance,
    IpSolver,
    approx_wrapper,
    brute_force_kmaxip,
    brute_force_kminip,
    densify,
    exact_solver,
    inner_product,
    make_ip_solver,
    parse_ip_instance,
    sparsify,
    vector_query,
)


def vec(bits: str):
    return tuple(i for i, b in enumerate(bits) if b == "1")


def test_max_toy():
    inst = IPInstance(
        2, ((vec("101"), vec("011")), (vec("110"), vec("011"))), 3
    )
    opt, witness = brute_force_kmaxip(inst)
    assert opt == 2
    assert witness == (1, 1)


def test_zero_vectors():
    inst = IPInstance(2, (((),), (vec("111"),)), 3)
    assert brute_force_kmaxip(inst)[0] == 0


def test_k3_full_overlap():
    ones = vec("11111")
    inst = IPInstance(3, (((ones,)), ((ones,)), ((ones,))), 5)
    assert brute_force_kmaxip(inst)[0] == 5


def test_min_disjoint_supports():
    inst = IPInstance(2, ((vec("100"), vec("010")), (vec("001"),)), 3)
    assert brute_force_kminip(inst)[0] == 0


def test_min_all_ones_d2():
    inst = IPInstance(2, ((vec("11"),), (vec("11"),)), 2)
    assert brute_force_kminip(inst)[0] == 2


def test_min_matches_double_loop():
    rng = random.Random(9)
    for _ in range(30):
        d = rng.randint(1, 8)
        fams = tuple(
            tuple(
                tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
                for _ in range(rng.randint(1, 4))
            )
            for _ in range(2)
        )
        inst = IPInstance(2, fams, d)
        expected = min(
            len(set(u) & set(v)) for u in fams[0] for v in fams[1]
        )
        assert brute_force_kminip(inst)[0] == expected


def test_empty_family_returns_none():
    inst = IPInstance(2, ((), (vec("1"),)), 1)
    assert brute_force_kmaxip(inst) is None


def test_budget_enforced():
    fams = ((( ),) * 100, ((),) * 100)
    inst = IPInstance(2, fams, 1)
    with pytest.raises(ResourceLimitError):
        brute_force_kmaxip(inst, budget=10)


def test_validation():
    with pytest.raises(ContractError):
        IPInstance(2, (((3,),), ((0,),)), 2)  # coordinate out of range
    with pytest.raises(ContractError):
        IPInstance(1, (((1, 1),),), 3)  # not strictly increasing
    with pytest.raises(ContractError, match="out of range"):
        IPInstance(1, (((-1, 0),),), 2)  # below the first coordinate
    with pytest.raises(ContractError, match="strictly increasing"):
        IPInstance(1, (((2, 0),),), 3)  # in range, out of order


def test_k_must_be_at_least_one():
    # a k=0 instance has one empty tuple, whose inner product no vector
    # defines; neither the constructor nor the parser builds one
    with pytest.raises(ContractError, match="k must be at least 1"):
        IPInstance(0, (), 3)
    with pytest.raises(ContractError, match="k must be at least 1"):
        parse_ip_instance("dim 3")
    with pytest.raises(ContractError, match="k must be at least 1"):
        parse_ip_instance("dim 3", k=0)


@given(st.integers(0, 50), st.integers(1, 16))
def test_permutation_invariance(seed, d):
    rng = random.Random(seed)
    fams = tuple(
        tuple(
            tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
            for _ in range(rng.randint(1, 4))
        )
        for _ in range(2)
    )
    inst = IPInstance(2, fams, d)
    swapped = IPInstance(2, (fams[1], fams[0]), d)
    perm = list(range(d))
    rng.shuffle(perm)
    permuted = IPInstance(
        2,
        tuple(
            tuple(tuple(sorted(perm[c] for c in v)) for v in fam) for fam in fams
        ),
        d,
    )
    base = brute_force_kmaxip(inst)[0]
    assert brute_force_kmaxip(swapped)[0] == base
    assert brute_force_kmaxip(permuted)[0] == base


def test_inner_product_matches_set_intersection():
    # the count of coordinates c < d that every vector holds, read off the
    # vectors one coordinate at a time, with no set algebra
    rng = random.Random(10)
    for _ in range(100):
        d = rng.randint(1, 20)
        vs = [
            tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
            for _ in range(rng.randint(1, 4))
        ]
        expected = sum(all(c in v for v in vs) for c in range(d))
        assert inner_product(vs) == expected


def test_densify_sparsify_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 10)
        fams = tuple(
            tuple(
                tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
                for _ in range(rng.randint(0, 4))
            )
            for _ in range(rng.randint(1, 3))
        )
        inst = IPInstance(len(fams), fams, d)
        back = sparsify(densify(inst), d)
        assert back == inst
        assert back.m_ip == sum(len(v) for fam in fams for v in fam)


def test_densify_all_zero_row():
    inst = IPInstance(1, (((),),), 4)
    assert densify(inst) == (((0, 0, 0, 0),),)
    assert sparsify(densify(inst), 4) == inst


def test_densify_budget():
    inst = IPInstance(1, (((),),), 1000)
    with pytest.raises(ResourceLimitError):
        densify(inst, budget=10)


def test_approx_wrapper_identity_at_c1():
    solver = approx_wrapper(exact_solver("max"), 1.0)
    inst = IPInstance(2, ((vec("111"),), (vec("111"),)), 3)
    assert solver.solve(inst) == 3


def test_approx_wrapper_examples():
    assert math.ceil(7 / 2) == 4  # frozen arithmetic for the interval check
    d = 7
    inst = IPInstance(2, ((tuple(range(7)),), (tuple(range(7)),)), d)
    out = approx_wrapper(exact_solver("max"), 2.0).solve(inst)
    assert out == 4
    assert 7 / 2 <= out <= 7
    out = approx_wrapper(exact_solver("min"), 2.0).solve(inst)
    assert out == 14
    assert 7 <= out <= 14


def test_approx_wrapper_zero():
    inst = IPInstance(2, (((),), ((),)), 1)
    assert approx_wrapper(exact_solver("max"), 3.0).solve(inst) == 0
    assert approx_wrapper(exact_solver("min"), 3.0).solve(inst) == 0


@given(st.integers(0, 400), st.floats(1.0, 8.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_approx_wrapper_interval_property(opt, c):
    inst = IPInstance(1, ((tuple(range(opt)),),), max(opt, 1))
    got = approx_wrapper(exact_solver("max"), c).solve(inst)
    assert opt / c <= got <= opt
    got = approx_wrapper(exact_solver("min"), c).solve(inst)
    assert opt <= got <= opt * c


def test_make_ip_solver_and_dump_parse():
    solver = make_ip_solver("max", "approx:2")
    assert solver.ratio == 2.0
    inst = IPInstance(2, ((vec("101"),), (vec("100"),)), 3)
    text = inst.dump()
    assert "dim 3" in text
    assert parse_ip_instance(text) == inst


@pytest.mark.parametrize(
    "spec", ["approx:abc", "approx:", "approx:nan", "approx:inf", "approx:0.5"]
)
def test_make_ip_solver_rejects_bad_ratios(spec):
    with pytest.raises(ContractError, match="approximation ratio"):
        make_ip_solver("max", spec)


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.5])
def test_approx_wrapper_rejects_bad_ratios(c):
    with pytest.raises(ContractError, match="approximation ratio"):
        approx_wrapper(exact_solver("max"), c)


@pytest.mark.parametrize("c", [0.5, math.nan, math.inf])
def test_ip_solver_rejects_bad_ratios(c):
    # a solver declared better than exact would let the lift cut
    # combinations that can beat its bar
    exact = exact_solver("max")
    with pytest.raises(ContractError, match="approximation ratio"):
        IpSolver("max", c, exact.solve, exact.query)
    with pytest.raises(ContractError, match="approximation ratio"):
        IpSolver("min", c, exact_solver("min").solve)


@pytest.mark.parametrize("c", [1, 1.0, 2])
def test_ip_solver_and_approx_wrapper_accept_ratios(c):
    inst = IPInstance(2, ((vec("111"),), (vec("110"),)), 3)
    exact = exact_solver("max")
    assert IpSolver("max", c, exact.solve).solve(inst) == 2
    wrapped = approx_wrapper(exact, c)
    assert wrapped.ratio == c
    assert 2 / c <= wrapped.solve(inst) <= 2


def test_dump_parse_roundtrip_with_empty_last_family():
    inst = IPInstance(3, ((vec("101"),), (vec("011"), ()), ()), 3)
    assert parse_ip_instance(inst.dump(), k=3) == inst


def _bad(text, line, k=None, match=None):
    # the id keeps the text-line form of the cases without k
    return pytest.param(
        text, k, match or f"line {line}:", id=f"{text}-{line}" + (f"-k{k}" if k else "")
    )


@pytest.mark.parametrize(
    "text, k, match",
    [
        _bad("dim", 1),
        _bad("dim 3\nvec", 2),
        _bad("dim x", 1),
        _bad("dim 3\nvec 0 x", 2),
        _bad("dim 3\nvec -1 0", 2),
        _bad("dim 3\nvec 0 1\nvec 5 2", 3, k=2),
        _bad("dim 3\nvec 0 1 1", 2),
        _bad("vec 1000 0\ndim 2", None, match="family 0 .*pass k"),
        _bad("dim 3\nvec 0 1\nvec 2 0", None, match="family 1 .*pass k"),
    ],
)
def test_parse_ip_instance_rejects_malformed_lines(text, k, match):
    with pytest.raises(ContractError, match=match):
        parse_ip_instance(text, k=k)


# --- the block query -----------------------------------------------------------

def test_min_block_value_needs_every_pair_to_overlap():
    # every element is of type 3, in both sets: a pair's hybrid value is its
    # inner product, and the IP vectors are the sets themselves
    families = [({0, 1}, {0, 1, 2}), ({0, 1, 2}, {0}, {2})]
    blocks = [[[0, 1]], [[0, 1], [2], []]]
    # block {0, 1} x {0, 1}: every pair shares element 0, smallest count 1;
    # block {0, 1} x {2}: set {0, 1} shares nothing with {2}
    for kind, want in (("min", [1, 0, None]), ("max", [3, 1, None])):
        inst = HybridInstance(2, kind, [3, 3, 3], families)
        exact = exact_solver(kind)
        assert exact.query(inst, blocks, {}) == want  # the signed join
        assert vector_query(exact.solve, inst, blocks, {}) == want


@given(st.integers(1, 3), st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_a_kept_sub_instance_equals_the_checked_one(k, d, data):
    # vector_query's per-combination instances are built with no re-check;
    # each must equal the instance the public constructor checks
    vector = st.sets(st.integers(0, d - 1)).map(lambda s: tuple(sorted(s)))
    fams = tuple(tuple(data.draw(st.lists(vector, min_size=1, max_size=4))) for _ in range(k))
    inst = IPInstance(k, fams, d)
    combo = [data.draw(st.lists(st.sampled_from(range(len(f))), max_size=4)) for f in fams]
    checks = 0
    original = IPInstance.__post_init__

    def counted(self):
        nonlocal checks
        checks += 1
        original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IPInstance, "__post_init__", counted)
        kept = inst._keep(combo)
        assert checks == 0
        want = IPInstance(k, tuple(tuple(f[j] for j in b) for f, b in zip(fams, combo)), d)
    assert kept == want and hash(kept) == hash(want)
    assert (kept.k, kept.families, kept.d) == (want.k, want.families, want.d)


def test_block_query_rejects_overlapping_or_missing_blocks():
    inst = HybridInstance(2, "max", [3], [[{0}], [{0}, {0}]])
    exact = exact_solver("max")
    with pytest.raises(ContractError, match="disjoint"):
        exact.query(inst, [[[0]], [[0, 1], [1]]], {})
    for query in (exact.query, partial(vector_query, exact.solve)):
        with pytest.raises(ContractError, match="one list of blocks per family"):
            query(inst, [[[0]]], {})
