import math
import random
from itertools import chain, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import relopt.ip
from relopt.errors import ContractError
from relopt.hybrid import (
    BasicInstance,
    HybridInstance,
    basic_to_ip,
    collision_number,
    error_bound,
    hash_element,
    hybrid_baseline,
    hybrid_to_basic,
    prime_support,
    solve_hybrid,
    solve_hybrid_with_info,
    universe_reduce,
    val,
)
from relopt.ip import (
    IPInstance,
    IpSolver,
    approx_wrapper,
    brute_force_kmaxip,
    exact_solver,
)

from oracles import hybrid_opt_naive, hybrid_val_naive, random_hybrid


def test_val_single_element_intersection():
    inst = HybridInstance(2, "max", [3], [[frozenset({0})], [frozenset({0})]])
    per_tau, total = val(inst, (0, 0))
    assert per_tau == {3: 1}
    assert total == 1


def test_val_one_sided():
    # two elements of type (in first family, out of second)
    tau = 1  # bit0 set
    inst = HybridInstance(
        2, "max", [tau, tau], [[frozenset({0})], [frozenset({1})]]
    )
    per_tau, total = val(inst, (0, 0))
    assert per_tau == {tau: 1}
    assert total == 1


def test_val_matches_membership_oracle():
    rng = random.Random(21)
    for _ in range(50):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(0, 12))
        chosen = tuple(rng.randrange(len(f)) for f in inst.families)
        per_tau, total = val(inst, chosen)
        o_per, o_total = hybrid_val_naive(inst, chosen)
        assert total == o_total
        assert per_tau == o_per


def test_hybrid_baseline_examples():
    # singleton families: the value of the unique tuple
    inst = HybridInstance(2, "max", [3], [[frozenset({0})], [frozenset({0})]])
    assert hybrid_baseline(inst) == (1, (0, 0))
    # empty universe: zero
    empty = HybridInstance(2, "max", [], [[frozenset()], [frozenset()]])
    assert hybrid_baseline(empty) == (0, (0, 0))


def test_hybrid_to_basic_identity_on_uniform_type():
    tau = 3
    inst = HybridInstance(
        2, "max", [tau, tau], [[frozenset({0, 1})], [frozenset({1})]]
    )
    basic = hybrid_to_basic(inst, tau)
    assert basic.families[0][0] == frozenset({0, 1})
    assert basic.families[1][0] == frozenset({1})


def test_hybrid_to_basic_complements_all_zero_element():
    inst = HybridInstance(2, "max", [0], [[frozenset()], [frozenset()]])
    basic = hybrid_to_basic(inst, 3)
    assert basic.families[0][0] == frozenset({0})
    assert basic.families[1][0] == frozenset({0})
    assert basic.val((0, 0)) == 1 == val(inst, (0, 0))[1]


def test_hybrid_to_basic_preserves_every_tuple():
    rng = random.Random(22)
    for _ in range(40):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 10))
        tau = rng.randrange(1 << k)
        basic = hybrid_to_basic(inst, tau)
        for chosen in product(*(range(len(f)) for f in inst.families)):
            assert basic.val(chosen) == val(inst, chosen)[1]


def test_prime_support_values():
    assert prime_support(1) == (2,)
    assert prime_support(3) == (11, 13, 17)
    assert prime_support(5) == (29, 31, 37, 41, 43)


def test_prime_support_lower_bound_and_distinct():
    for t in range(1, 20):
        primes = prime_support(t)
        assert len(primes) == t
        assert len(set(primes)) == t
        lo = max(2, math.ceil(2 * t * math.log2(t)) if t > 1 else 2)
        assert all(p >= lo for p in primes)
        assert list(primes) == sorted(primes)


def test_hash_element_zero():
    primes = prime_support(4)
    assert hash_element(0, primes) == frozenset((i, 0) for i in range(4))


def test_hash_element_24():
    assert hash_element(24, (11, 13, 17)) == frozenset({(0, 2), (1, 11), (2, 7)})


def test_collision_number_143():
    # 143 = 11 * 13 collides with 0 on both slots
    assert collision_number(0, 143, (11, 13)) == 2


def test_collision_bound_sample():
    primes = prime_support(8)
    size = 256
    for u, v in [(0, 255), (3, 130), (17, 18), (100, 228)]:
        assert collision_number(u, v, primes) <= math.log2(size)


def test_universe_reduce_copy_case_delta_zero():
    rng = random.Random(23)
    inst = random_hybrid(rng, 2, 8)
    reduced, red = universe_reduce(inst, 5)
    # small parts are copied verbatim, so the offset vanishes
    assert all(mode == "copy" for mode in red.part_modes)
    assert red.delta == 0
    assert reduced.size == 5 * inst.size


def test_universe_reduce_all_sets_empty():
    inst = HybridInstance(
        2, "max", [0] * 30, [[frozenset()], [frozenset()]]
    )
    t = 2
    reduced, red = universe_reduce(inst, t)
    basic_val = val(reduced, (0, 0))[1]
    assert basic_val == sum(1 for tau in reduced.element_types if tau == 0)
    assert t * 30 - basic_val == red.delta


def test_universe_reduce_property2_exhaustive():
    rng = random.Random(24)
    for trial in range(60):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 40), max_set=5)
        t = rng.choice([1, 2, 3, 5, 8, 13])
        reduced, red = universe_reduce(inst, t)
        assert red.delta >= 0
        for chosen in product(*(range(len(f)) for f in inst.families)):
            orig = val(inst, chosen)[1]
            new = val(reduced, chosen)[1]
            err = abs(t * orig - new - red.delta)
            assert err <= red.e_bound, (trial, t, err, red.e_bound)


def test_universe_reduce_hash_case_engages():
    # single part of 40 elements with t=2: threshold 4*2*1 = 8 < 40,
    # residue space 5+7=12 < 80, so the part must hash
    inst = HybridInstance(
        1, "max", [1] * 40, [[frozenset(range(3)), frozenset({10, 20})]]
    )
    reduced, red = universe_reduce(inst, 2)
    assert "hash" in red.part_modes
    assert reduced.size < 2 * inst.size


def test_solve_hybrid_exact_matches_exhaustive():
    rng = random.Random(25)
    for trial in range(60):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 40), max_set=5)
        solver = exact_solver(inst.kind)
        got = solve_hybrid(inst, solver)
        want = hybrid_opt_naive(inst)
        assert got == want[0], f"trial {trial}"


def test_solve_hybrid_approx_max_zero_opt():
    inst = HybridInstance(
        2, "max", [3] * 4, [[frozenset()], [frozenset()]]
    )
    solver = approx_wrapper(exact_solver("max"), 2.0)
    got = solve_hybrid(inst, solver)
    assert got == 0


def test_solve_hybrid_approx_intervals():
    rng = random.Random(27)
    for trial in range(40):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 30), max_set=4)
        c = 2.0
        solver = approx_wrapper(exact_solver(inst.kind), c)
        got = solve_hybrid(inst, solver)
        opt = hybrid_opt_naive(inst)[0]
        if inst.kind == "max":
            assert opt / (c + 0.1) <= got <= opt, f"trial {trial}"
        else:
            assert opt <= got <= (c + 0.1) * opt, f"trial {trial}"


def test_solve_hybrid_empty_family():
    inst = HybridInstance(2, "max", [3], [[], [frozenset({0})]])
    assert solve_hybrid(inst, exact_solver("max")) is None


def test_solve_hybrid_empty_universe():
    inst = HybridInstance(2, "min", [], [[frozenset()], [frozenset()]])
    assert solve_hybrid(inst, exact_solver("min")) == 0


def test_universe_reduce_materialization_cap():
    from relopt.errors import ResourceLimitError

    inst = HybridInstance(1, "max", [0] * 100, [[frozenset({0})]])
    with pytest.raises(ResourceLimitError):
        universe_reduce(inst, 200_000)


def test_solve_hybrid_rejects_mismatched_solver():
    inst = HybridInstance(1, "max", [1], [[frozenset({0})]])
    with pytest.raises(ContractError):
        solve_hybrid(inst, exact_solver("min"))


def test_basic_to_ip_roundtrip_value():
    rng = random.Random(28)
    for _ in range(30):
        k = rng.randint(1, 3)
        inst = random_hybrid(rng, k, rng.randint(1, 12), kind="max")
        basic = hybrid_to_basic(inst, (1 << k) - 1)
        ip = basic_to_ip(basic)
        res = brute_force_kmaxip(ip)
        want = hybrid_opt_naive(inst)
        if res is None:
            assert want is None
        else:
            assert res[0] == want[0]


def _sub_instance(inst, picks):
    """A fresh instance over the same universe that keeps the sets picks[i]
    of family i."""
    return HybridInstance(
        inst.k,
        inst.kind,
        inst.element_types,
        [[fam[j] for j in idxs] for fam, idxs in zip(inst.families, picks)],
    )


def test_ip_families_equal_the_basic_conversion():
    # the IP instance an instance caches is its all-ones Basic conversion,
    # and a sub-selection of its vectors is exactly the conversion of the
    # sub-instance keeping those sets
    rng = random.Random(29)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        inst = random_hybrid(rng, k, rng.randint(0, 10))
        ones = (1 << k) - 1
        assert inst.ip == basic_to_ip(hybrid_to_basic(inst, ones))
        for _ in range(3):
            picks = [
                rng.sample(range(len(fam)), rng.randint(1, len(fam)))
                for fam in inst.families
            ]
            selected = tuple(
                tuple(vecs[j] for j in idxs)
                for vecs, idxs in zip(inst.ip.families, picks)
            )
            sub = _sub_instance(inst, picks)
            assert selected == basic_to_ip(hybrid_to_basic(sub, ones)).families


def test_solve_hybrid_with_blocks_matches_the_optimum_of_each_sub_instance():
    rng = random.Random(30)
    values = nones = 0
    for trial in range(60):
        k = rng.choice([1, 2, 3])
        inst = random_hybrid(rng, k, rng.randint(0, 10))
        blocks = []
        for fam in inst.families:
            order = rng.sample(range(len(fam)), len(fam))
            cuts = sorted(rng.randint(0, len(fam)) for _ in range(rng.randint(0, 3)))
            bounds = [0] + cuts + [len(fam)]
            blocks.append([order[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        exact, _ = solve_hybrid_with_info(inst, exact_solver(inst.kind), blocks)
        approx, _ = solve_hybrid_with_info(
            inst, approx_wrapper(exact_solver(inst.kind), 2.0), blocks
        )
        for combo, got, got_approx in zip(product(*blocks), exact, approx, strict=True):
            if not all(combo):
                assert got is got_approx is None
                nones += 1
                continue
            want = hybrid_opt_naive(_sub_instance(inst, combo))[0]
            assert got == want, f"trial {trial}"
            assert got_approx == (math.ceil(want / 2) if inst.kind == "max" else 2 * want)
            values += 1
    assert values and nones


def test_dump_format():
    inst = HybridInstance(
        2,
        "max",
        [3, 0],
        [[frozenset({0})], [frozenset({0, 1})]],
        labels=["u0", "u1"],
        set_labels=[["a"], ["b"]],
    )
    text = inst.dump()
    assert "universe u0 11" in text
    assert "universe u1 00" in text
    assert "set 0 a u0" in text
    assert "set 1 b u0 u1" in text


# --- the batched IP query -----------------------------------------------------

@st.composite
def block_queries(draw):
    """A hybrid instance at k in {1, 2, 3} with every part non-empty, and
    disjoint blocks of sets per family, some of them empty, some sets in
    none and some families empty.  With ``shared`` every set holds element
    0, so every pair shares and no min block has a pair that shares
    nothing."""
    k = draw(st.integers(1, 3))
    parts = list(range(1 << k))
    extra = draw(st.lists(st.sampled_from(parts), max_size=6))
    types = draw(st.permutations(parts + extra))
    shared = draw(st.booleans())
    members = st.sets(st.integers(0, len(types) - 1), max_size=4)
    families, blocks = [], []
    for _ in range(k):
        sets = draw(st.lists(members, max_size=5))
        families.append([s | {0} if shared else s for s in sets])
        count = draw(st.integers(0, 3))
        owner = draw(
            st.lists(st.integers(-1, count - 1), min_size=len(sets), max_size=len(sets))
        )
        blocks.append([[j for j, b in enumerate(owner) if b == i] for i in range(count)])
    kind = draw(st.sampled_from(["max", "min"]))
    return HybridInstance(k, kind, types, families), blocks


def _vector_values(solve, inst, blocks):
    """One ``solve`` per block combination on the IP vectors its blocks
    keep; None where a block is empty."""
    ip = inst.ip
    return [
        solve(
            IPInstance(
                ip.k,
                tuple(tuple(fam[j] for j in b) for fam, b in zip(ip.families, combo)),
                ip.d,
            )
        )
        if all(combo)
        else None
        for combo in product(*blocks)
    ]


@given(block_queries(), st.floats(1.0, 4.0))
@settings(max_examples=500, deadline=None)
def test_every_solver_query_is_the_vector_query_of_its_solve(query, c):
    # a hybrid solve is one query of its solver, whatever the solver and k.
    # Its values are one solve per block combination on the IP vectors, and
    # the approximation wrapper degrades the exact values alike.  At k=2 the
    # exact solver and its wrapper join the sets' signed pairs: they read
    # the sets' m_h coordinates and count the pairs that share an element,
    # with no solve call.  Every other query reads the vectors' m_ip with
    # one solve call per combination with no empty block.
    inst, blocks = query
    exact = exact_solver(inst.kind)
    plain = IpSolver(inst.kind, 1.0, exact.solve)
    want = _vector_values(exact.solve, inst, blocks)
    degraded = [
        None if v is None else math.ceil(v / c) if inst.kind == "max" else math.floor(v * c)
        for v in want
    ]
    calls = sum(v is not None for v in want)
    solvers = (
        (exact, want, True),
        (approx_wrapper(exact, c), degraded, True),
        (plain, want, False),
        (approx_wrapper(plain, c), degraded, False),
    )
    for solver, values, joins in solvers:
        own = _vector_values(solver.solve, inst, blocks)
        with mock.patch.object(
            relopt.ip, "_brute_force", wraps=relopt.ip._brute_force
        ) as brute:
            got, info = solve_hybrid_with_info(inst, solver, blocks)
        assert got == own == values
        if joins and inst.k == 2:
            fam0, fam1 = inst.families
            sharing = sum(
                1
                for i in chain.from_iterable(blocks[0])
                for j in chain.from_iterable(blocks[1])
                if fam0[i] & fam1[j]
            )
            assert brute.call_count == 0
            assert info == {"universe": inst.size, "coords": inst.m_h, "pairs_joined": sharing}
        else:
            assert brute.call_count == calls
            assert info == {"universe": inst.size, "coords": inst.ip.m_ip, "solve_calls": calls}


def test_signed_pairs_expand_the_hybrid_value():
    # one element per part: |P_0| = 1, a(A) = |A∩P_1| - |A∩P_0|,
    # b(B) = |B∩P_2| - |B∩P_0|, w = +1 on P_0 and P_3, -1 on P_1 and P_2
    inst = HybridInstance(
        2, "max", [0, 1, 2, 3], [[{1}, {0, 3}, {0, 1, 2, 3}], [{2}, {0, 1}, {3}]]
    )
    pairs = inst.signed_pairs
    assert pairs.const == 1
    assert pairs.offsets == ([1, -1, 0], [1, -1, 0])
    assert pairs.weight == [1, -1, -1, 1]
    for key in product(range(3), range(3)):
        a, b = (inst.families[f][j] for f, j in enumerate(key))
        score = (
            pairs.const
            + pairs.offsets[0][key[0]]
            + pairs.offsets[1][key[1]]
            + sum(pairs.weight[u] for u in a & b)
        )
        assert score == val(inst, key)[1], key
    with pytest.raises(ContractError, match="k=2"):
        random_hybrid(random.Random(0), 3, 4).signed_pairs
