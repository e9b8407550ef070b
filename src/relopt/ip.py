"""k-ary maximum/minimum inner product over sparse 0/1 vectors.

Vectors are sorted coordinate tuples.  The brute-force solvers are the
reference inner solvers of the reduction pipeline; the external fast solvers
they stand in for plug in through the same IpSolver interface.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from collections import Counter
from itertools import chain, product
from typing import Callable, Sequence

from .errors import ContractError, ResourceLimitError

Vector = tuple[int, ...]

DEFAULT_TUPLE_BUDGET = 5_000_000


@dataclass(frozen=True)
class IPInstance:
    """k families of sparse 0/1 vectors in dimension d."""

    k: int
    families: tuple[tuple[Vector, ...], ...]
    d: int

    def __post_init__(self):
        if len(self.families) != self.k:
            raise ContractError("family count must equal k")
        for fam in self.families:
            for vec in fam:
                if not all(map(operator.lt, vec, vec[1:])):
                    raise ContractError("coordinates must be strictly increasing")
                # sorted, so the ends bound every coordinate
                if vec and not (vec[0] >= 0 and vec[-1] < self.d):
                    raise ContractError("coordinate out of range")

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
    """Size of the common support, by merge intersection of sorted lists."""
    if not vectors:
        return 0
    acc = vectors[0]
    for vec in vectors[1:]:
        if not acc:
            return 0
        merged = []
        i = j = 0
        while i < len(acc) and j < len(vec):
            a, b = acc[i], vec[j]
            if a == b:
                merged.append(a)
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        acc = merged
    return len(acc)


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
BlockQuery = Callable[[IPInstance, Blocks, dict], list]


@dataclass(frozen=True)
class IpSolver:
    """A value oracle for k-IP with a declared approximation ratio.

    For max kind the returned value lies in [OPT/c, OPT]; for min kind in
    [OPT, c*OPT].  ``solve`` returns None when some family is empty.

    ``solve_blocks`` is the optional block query behind ``block_values``;
    a fast MaxIP/MinIP algorithm plugs in there.  Without it every block
    combination goes through ``solve``.
    """

    kind: str  # "max" | "min"
    ratio: float
    solve: Callable[[IPInstance], int | None]
    solve_blocks: BlockQuery | None = None

    def block_values(
        self, instance: IPInstance, blocks: Blocks, stats_out: dict | None = None
    ) -> list[int | None]:
        """The value of every combination of blocks, in ``itertools.product``
        order of the block indices.

        ``blocks[i]`` lists disjoint blocks of vector indices of family i.  A
        combination's value is what ``solve`` gives on the instance that
        keeps its blocks' vectors, and None when one of its blocks is empty.
        ``stats_out`` accumulates ``solve_calls`` and ``pairs_joined``.
        """
        if len(blocks) != instance.k:
            raise ContractError("need one list of blocks per family")
        stats = {} if stats_out is None else stats_out
        if self.solve_blocks is not None:
            return self.solve_blocks(instance, blocks, stats)
        return _block_loop(self.solve, instance, blocks, stats)


def _block_loop(solve, instance: IPInstance, blocks: Blocks, stats: dict) -> list:
    """One ``solve`` call per block combination with no empty block."""
    out = []
    calls = 0
    for combo in product(*blocks):
        if all(combo):
            families = tuple(
                tuple(fam[j] for j in block)
                for fam, block in zip(instance.families, combo)
            )
            out.append(solve(IPInstance(instance.k, families, instance.d)))
            calls += 1
        else:
            out.append(None)
    stats["solve_calls"] = stats.get("solve_calls", 0) + calls
    return out


def _pair_join(kind: str, instance: IPInstance, blocks: Blocks, stats: dict) -> list:
    """Exact k=2 block values from one output-sensitive sparse join.

    Family 1 is indexed by coordinate, and one pass over family 0 counts the
    shared coordinates of every pair that shares any.  That costs the sum
    over coordinates c of deg_0(c) * deg_1(c), plus |family 0| times the
    number of family-1 blocks.  A block pair's max is its largest count, or
    0 when no pair shares a coordinate.  Its min is its smallest count when
    every pair shares one, and 0 otherwise.
    """
    fam0, fam1 = instance.families
    blocks0, blocks1 = blocks
    block_of: dict[int, int] = {}
    by_coord: dict[int, list[int]] = {}
    for b, block in enumerate(blocks1):
        for j in block:
            if block_of.setdefault(j, b) != b:
                raise ContractError("the blocks of a family must be disjoint")
            for c in fam1[j]:
                by_coord.setdefault(c, []).append(j)
    sizes1 = [len(block) for block in blocks1]
    pairs = 0
    out: list[int | None] = []
    for block in blocks0:
        best: list[int | None] = [None] * len(blocks1)  # over sharing pairs
        full = [True] * len(blocks1)  # every pair so far shares
        for i in block:
            counts = Counter(chain.from_iterable(by_coord.get(c, ()) for c in fam0[i]))
            pairs += len(counts)
            hits = [0] * len(blocks1)
            for j, n in counts.items():
                b = block_of[j]
                hits[b] += 1
                if best[b] is None or (n > best[b] if kind == "max" else n < best[b]):
                    best[b] = n
            if kind == "min":
                for b, size in enumerate(sizes1):
                    if hits[b] < size:
                        full[b] = False
        for b, size in enumerate(sizes1):
            if not block or not size:
                out.append(None)
            elif kind == "max" or full[b]:
                out.append(best[b] or 0)
            else:
                out.append(0)
    stats["pairs_joined"] = stats.get("pairs_joined", 0) + pairs
    return out


def exact_solver(kind: str, budget: int = DEFAULT_TUPLE_BUDGET) -> IpSolver:
    """Brute force per instance; for k=2 the block query is one sparse join
    (``_pair_join``), and for other k it loops over ``solve``."""
    brute = brute_force_kmaxip if kind == "max" else brute_force_kminip

    def solve(instance: IPInstance) -> int | None:
        res = brute(instance, budget)
        return None if res is None else res[0]

    def solve_blocks(instance: IPInstance, blocks: Blocks, stats: dict) -> list:
        if instance.k == 2:
            return _pair_join(kind, instance, blocks, stats)
        return _block_loop(solve, instance, blocks, stats)

    return IpSolver(kind, 1.0, solve, solve_blocks)


def approx_wrapper(exact: IpSolver, c: float) -> IpSolver:
    """Degrade an exact solver to a deterministic c-approximation sitting at
    the worst end of the allowed interval (test oracle for ratio preservation).
    The block query degrades each of the exact solver's block values alike."""
    if not 1 <= c < math.inf:
        raise ContractError(f"approximation ratio must be finite and >= 1, not {c}")

    def degrade(opt: int | None) -> int | None:
        if opt is None:
            return None
        if exact.kind == "max":
            return math.ceil(opt / c)
        return math.floor(opt * c)

    def solve(instance: IPInstance) -> int | None:
        return degrade(exact.solve(instance))

    def solve_blocks(instance: IPInstance, blocks: Blocks, stats: dict) -> list:
        return [degrade(v) for v in exact.block_values(instance, blocks, stats)]

    return IpSolver(exact.kind, c * exact.ratio, solve, solve_blocks)


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
