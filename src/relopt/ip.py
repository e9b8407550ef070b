"""k-ary maximum/minimum inner product over sparse 0/1 vectors.

Vectors are sorted coordinate tuples.  The brute-force solvers are the
reference inner solvers of the reduction pipeline; the external fast solvers
they stand in for plug in through the same IpSolver interface, whose one
batched query (``IpSolver.query``) scores every block combination of a hybrid
instance: on IP vectors (``vector_query``) or, for the exact solver at k=2,
by one sparse join (``signed_join``) of the sets' signed pairs, a constant,
per-set offsets and signed per-coordinate weights, read without
complementing any set.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
from functools import partial
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from .errors import ContractError, ResourceLimitError

if TYPE_CHECKING:
    from .hybrid import HybridInstance

Vector = tuple[int, ...]

DEFAULT_TUPLE_BUDGET = 5_000_000


@dataclass(frozen=True)
class IPInstance:
    """k families of sparse 0/1 vectors in dimension d."""

    k: int
    families: tuple[tuple[Vector, ...], ...]
    d: int

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"k must be at least 1, got {self.k}")
        if len(self.families) != self.k:
            raise ContractError("family count must equal k")
        for fam in self.families:
            for vec in fam:
                if not all(map(operator.lt, vec, vec[1:])):
                    raise ContractError("coordinates must be strictly increasing")
                # sorted, so the ends bound every coordinate
                if vec and not (vec[0] >= 0 and vec[-1] < self.d):
                    raise ContractError("coordinate out of range")

    def _keep(self, combo: Sequence[Sequence[int]]) -> IPInstance:
        """The instance of the vectors at the indices ``combo[i]`` of each
        family i, built with no re-check: each is a vector of this instance,
        checked when it was built."""
        families = tuple(
            tuple(fam[j] for j in block) for fam, block in zip(self.families, combo)
        )
        sub = object.__new__(IPInstance)
        object.__setattr__(sub, "k", self.k)
        object.__setattr__(sub, "families", families)
        object.__setattr__(sub, "d", self.d)
        return sub

    @property
    def m_ip(self) -> int:
        return sum(len(v) for fam in self.families for v in fam)

    def dump(self) -> str:
        lines = [f"dim {self.d}"]
        for i, fam in enumerate(self.families):
            for vec in fam:
                lines.append(f"vec {i} " + " ".join(str(c) for c in vec))
        return "\n".join(lines) + "\n"


_DIRECTIVE_USAGE = {"dim": "'dim D'", "vec": "'vec FAMILY COORD...'"}


def parse_ip_instance(text: str, k: int | None = None) -> IPInstance:
    """Parse the ``dump`` format.  With ``k`` every family index must be
    below it; without, the indices present must be exactly 0..K-1, so an
    empty family needs ``k``."""
    d = None
    fams: dict[int, list[Vector]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        directive, *fields = line.split()
        usage = _DIRECTIVE_USAGE.get(directive)
        if usage is None:
            raise ContractError(f"line {line_no}: unknown directive {directive!r}")
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            numbers = []
        if not numbers or min(numbers) < 0 or (directive == "dim" and len(numbers) > 1):
            raise ContractError(
                f"line {line_no}: expected {usage} with nonnegative integers"
            )
        if directive == "dim":
            d = numbers[0]
            continue
        family, coords = numbers[0], sorted(numbers[1:])
        if k is not None and family >= k:
            raise ContractError(f"line {line_no}: family {family} out of range for k={k}")
        if len(set(coords)) != len(coords):
            raise ContractError(f"line {line_no}: repeated coordinate")
        fams.setdefault(family, []).append(tuple(coords))
    if d is None:
        raise ContractError("missing 'dim' line")
    if k is None:
        k = len(fams)
        missing = next((i for i in range(k) if i not in fams), None)
        if missing is not None:
            raise ContractError(
                f"family {missing} has no 'vec' line; pass k to allow empty families"
            )
    families = tuple(tuple(fams.get(i, [])) for i in range(k))
    return IPInstance(k, families, d)


def inner_product(vectors: Sequence[Vector]) -> int:
    """Size of the common support of one or more vectors."""
    return len(set(vectors[0]).intersection(*vectors[1:]))


def _brute_force(instance: IPInstance, kind: str, budget: int):
    count = math.prod(len(f) for f in instance.families)
    if count > budget:
        raise ResourceLimitError(
            f"{count} tuples exceed the brute-force budget of {budget}"
        )
    if count == 0:
        return None
    best_val = None
    best_key = None
    for key in product(*(range(len(f)) for f in instance.families)):
        val = inner_product([instance.families[i][j] for i, j in enumerate(key)])
        if (
            best_val is None
            or (val > best_val if kind == "max" else val < best_val)
        ):
            best_val, best_key = val, key
    return best_val, best_key


def brute_force_kmaxip(
    instance: IPInstance, budget: int = DEFAULT_TUPLE_BUDGET
) -> tuple[int, tuple[int, ...]] | None:
    """Exact maximum and lexicographically least witness (vector indices)."""
    return _brute_force(instance, "max", budget)


def brute_force_kminip(
    instance: IPInstance, budget: int = DEFAULT_TUPLE_BUDGET
) -> tuple[int, tuple[int, ...]] | None:
    return _brute_force(instance, "min", budget)


def densify(
    instance: IPInstance, budget: int = 50_000_000
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Dense 0/1 rows, value preserving; inverse of sparsify."""
    total = instance.d * sum(len(f) for f in instance.families)
    if total > budget:
        raise ResourceLimitError(f"{total} dense cells exceed budget {budget}")
    out = []
    for fam in instance.families:
        rows = []
        for vec in fam:
            row = [0] * instance.d
            for c in vec:
                row[c] = 1
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


def sparsify(dense_families: Sequence[Sequence[Sequence[int]]], d: int) -> IPInstance:
    families = tuple(
        tuple(tuple(i for i, bit in enumerate(row) if bit) for row in fam)
        for fam in dense_families
    )
    return IPInstance(len(families), families, d)


Blocks = Sequence[Sequence[Sequence[int]]]


@dataclass(frozen=True)
class SignedPairs:
    """The pair scores of two set families, read from their sparse sets:
    the i-th set A of family 0 and the j-th set B of family 1 score

        const + offsets[0][i] + offsets[1][j] + sum of weight[c], c in A ∩ B.

    ``weight`` maps every coordinate to its weight.
    """

    sets: tuple[Sequence[Collection[int]], Sequence[Collection[int]]]
    offsets: tuple[Sequence[int], Sequence[int]]
    weight: Sequence[int]
    const: int


Solve = Callable[[IPInstance], int | None]


@dataclass(frozen=True)
class IpSolver:
    """A value oracle for k-IP with a declared approximation ratio.

    For max kind every value lies in [OPT/c, OPT]; for min kind in
    [OPT, c*OPT].  ``solve`` answers one IP instance, None when some family
    is empty; a fast MaxIP/MinIP algorithm plugs in there.  ``query`` is
    the one query every hybrid solve makes: ``query(instance, blocks,
    info)`` takes a hybrid instance and, per family, blocks of set indices,
    and returns the value of every combination of blocks in
    ``itertools.product`` order, None where a block is empty.  It sets
    ``info["coords"]``, the coordinates it read, and accumulates
    ``solve_calls`` or ``pairs_joined``.  Left out, it is the vector query
    of ``solve`` (``vector_query``).
    """

    kind: str  # "max" | "min"
    ratio: float
    solve: Solve
    query: Callable[[HybridInstance, Blocks, dict], list] | None = None

    def __post_init__(self):
        check_ratio(self.ratio)
        if self.query is None:
            object.__setattr__(self, "query", partial(vector_query, self.solve))


def check_ratio(c: float) -> None:
    """Raise ``ContractError`` unless ``c`` is an approximation ratio: finite
    and at least 1 (nan is neither)."""
    if not 1 <= c < math.inf:
        raise ContractError(f"approximation ratio must be finite and >= 1, not {c}")


def vector_query(
    solve: Solve, instance: HybridInstance, blocks: Blocks, info: dict
) -> list[int | None]:
    """The ``IpSolver.query`` of a per-instance ``solve``: one call per
    combination with no empty block, on the instance's IP vectors
    (``HybridInstance.ip``, built once) that its blocks keep.  ``coords`` is
    the vectors' m_ip."""
    if len(blocks) != instance.k:
        raise ContractError("need one list of blocks per family")
    ip = instance.ip
    info["coords"] = ip.m_ip
    out = []
    calls = 0
    for combo in product(*blocks):
        if all(combo):
            out.append(solve(ip._keep(combo)))
            calls += 1
        else:
            out.append(None)
    info["solve_calls"] = info.get("solve_calls", 0) + calls
    return out


def signed_join(kind: str, pairs: SignedPairs, blocks: Blocks, stats: dict) -> list:
    """The best pair score of every combination of a block of family-0 sets
    and a block of family-1 sets, in ``itertools.product`` order; None where
    a block is empty.  ``stats`` accumulates ``pairs_joined``, the pairs
    that share a coordinate.

    Family 1 is indexed by coordinate, and one pass over family 0 sums the
    shared weights of every pair that shares a coordinate: sum over
    coordinates c of deg_0(c) * deg_1(c).  A pair that shares nothing scores
    const + offsets alone, so a set A's best such partner in a block is the
    first, in the block's offset order, that is not one of A's sharers; it
    is absent when A shares with every set of the block.  Mostly that
    partner is the block's head, its first set.  So per pair of blocks the
    best pair of the head and an A that does not share with it comes from
    the first such A in offset order, and only an A that shares with the
    head walks further, and only where the head's offset could still beat
    the block's best.  Past the join the cost is about one step per pair of
    blocks or per sharing pair.

    For k=2 the hybrid value of ``relopt.hybrid.val`` is such a score.  With
    P_tau the part of type tau, summing the four parts' counts gives

        val(A, B) = |P_0| + a(A) + b(B) + sum of w(u), u in A ∩ B,

    with a(A) = |A∩P_1| - |A∩P_0|, b(B) = |B∩P_2| - |B∩P_0| and w = +1 on
    P_0 ∪ P_3, -1 on P_1 ∪ P_2 (``HybridInstance.signed_pairs``).  So the
    join scores hybrid sets directly, without complementing them.
    """
    if len(blocks) != 2:
        raise ContractError("need one list of blocks per family")
    sets0, sets1 = pairs.sets
    off0, off1 = pairs.offsets
    weight, const = pairs.weight, pairs.const
    blocks0, blocks1 = blocks
    is_max = kind == "max"
    better = max if is_max else min
    block_of: dict[int, int] = {}
    by_coord: dict[int, list[int]] = {}
    for b, block in enumerate(blocks1):
        for j in block:
            if block_of.setdefault(j, b) != b:
                raise ContractError("the blocks of a family must be disjoint")
            for c in sets1[j]:
                by_coord.setdefault(c, []).append(j)
    # per family-1 block its sets, best offset first, and the first's offset
    ranked = [sorted(block, key=off1.__getitem__, reverse=is_max) for block in blocks1]
    heads = {order[0] for order in ranked if order}
    tops = [off1[order[0]] if order else None for order in ranked]
    no_sets = [None] * len(blocks1)
    joined = 0
    out: list[int | None] = []
    for block in blocks0:
        if not block:
            out.extend(no_sets)
            continue
        found: dict[int, int] = {}  # per family-1 block, its best explicit pair
        shared_of = {}
        for i in block:
            shared: dict[int, int] = {}  # sharer -> its shared weight
            for c in sets0[i]:
                w = weight[c]
                for j in by_coord.get(c, ()):
                    shared[j] = shared.get(j, 0) + w
            shared_of[i] = shared
            joined += len(shared)
            base = const + off0[i]
            for j, s in shared.items():
                b = block_of[j]
                value = base + off1[j] + s
                cur = found.get(b)
                if cur is None or (value > cur if is_max else value < cur):
                    found[b] = value
            # in a block whose head A shares, A's best non-sharing partner is
            # the first later set it does not share with; it scores at most
            # base + the head's offset, so look for it only where that beats
            # the block's best so far
            for j in heads.intersection(shared):
                b = block_of[j]
                bound, cur = base + tops[b], found[b]
                if bound > cur if is_max else bound < cur:
                    for p in ranked[b]:
                        if p not in shared:
                            found[b] = better(found[b], base + off1[p])
                            break
        # the best pair of a head and an A that shares nothing with it: the
        # first such A in offset order, mostly the first A
        order0 = sorted(block, key=off0.__getitem__, reverse=is_max)
        lead = const + off0[order0[0]]
        row = [None if top is None else lead + top for top in tops]
        for j in heads.intersection(shared_of[order0[0]]):
            b = block_of[j]
            row[b] = None
            bound, cur = lead + tops[b], found[b]
            if bound > cur if is_max else bound < cur:
                for i in order0:
                    if j not in shared_of[i]:
                        row[b] = const + off0[i] + tops[b]
                        break
        for b, value in found.items():
            cur = row[b]
            row[b] = value if cur is None else better(cur, value)
        out.extend(row)
    stats["pairs_joined"] = stats.get("pairs_joined", 0) + joined
    return out


def exact_solver(kind: str) -> IpSolver:
    """Brute force per instance within ``DEFAULT_TUPLE_BUDGET`` tuples.  Its
    query is one sparse join of a k=2 instance's signed pairs (``signed_join``,
    reading m_h coordinates) and the brute force's vector query at other k."""
    brute = brute_force_kmaxip if kind == "max" else brute_force_kminip

    def solve(instance: IPInstance) -> int | None:
        res = brute(instance)
        return None if res is None else res[0]

    def query(instance: HybridInstance, blocks: Blocks, info: dict) -> list:
        if instance.k != 2:
            return vector_query(solve, instance, blocks, info)
        info["coords"] = instance.m_h
        return signed_join(kind, instance.signed_pairs, blocks, info)

    return IpSolver(kind, 1.0, solve, query)


def approx_wrapper(exact: IpSolver, c: float) -> IpSolver:
    """Degrade an exact solver to a deterministic c-approximation sitting at
    the worst end of the allowed interval (test oracle for ratio preservation).
    Its query degrades each value of the exact solver's query alike."""
    check_ratio(c)

    def degrade(opt: int | None) -> int | None:
        if opt is None:
            return None
        if exact.kind == "max":
            return math.ceil(opt / c)
        return math.floor(opt * c)

    def solve(instance: IPInstance) -> int | None:
        return degrade(exact.solve(instance))

    def query(instance: HybridInstance, blocks: Blocks, info: dict) -> list:
        # the values are few distinct small integers: degrade each one once
        values = exact.query(instance, blocks, info)
        degraded = {v: degrade(v) for v in set(values)}
        return list(map(degraded.__getitem__, values))

    return IpSolver(exact.kind, c * exact.ratio, solve, query)


def make_ip_solver(kind: str, spec: str) -> IpSolver:
    """Build a solver from a CLI-style spec: 'exact' or 'approx:<c>'."""
    if spec == "exact":
        return exact_solver(kind)
    if spec.startswith("approx:"):
        try:
            c = float(spec.split(":", 1)[1])
        except ValueError:
            raise ContractError(f"approximation ratio in {spec!r} is not a number")
        return approx_wrapper(exact_solver(kind), c)
    raise ContractError(f"unknown ip solver spec {spec!r}")
