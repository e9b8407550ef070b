"""The Hybrid Problem: k set families over a universe partitioned into 2^k
typed parts, its Basic single-type form, and its solve by one batched IP
query.

The paper shrinks the universe with a deterministic prime-residue reduction
before complementing sets, so that the Basic form stays sparse; the reduction
and its error bounds are implemented here (``universe_reduce``) and tested on
their own.  The solve does not use it: exact recovery needs multiplicity
t = 2*bound + 1, and at that t every part of at most 4*t*log2(t) elements,
far more than the lift's universes hold, is copied verbatim t times; solving
t copies is solving the instance itself.

Universe elements are identified with 0..|U|-1 in canonical order.  Each
set, and each part P_tau (the elements of type tau), is stored once, as a
frozenset, and the set algebra is frozenset algebra.  Types tau are packed
ints with family i at bit i.

``solve_hybrid_with_info`` solves many sub-instances at once, each keeping
one block of sets per family, by one batched query of the IP solver
(``IpSolver.query``).  The exact solver scores a k=2 instance's sets as they
are, reading m_h coordinates, since every tuple value is a constant plus
per-set offsets plus signed weights summed over the elements the two sets
share (``HybridInstance.signed_pairs``).  Other queries solve the vectors of
the IP instance (``HybridInstance.ip``, the all-ones Basic form, built once);
complementing makes each about |U| long, however few elements its set holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

from .errors import ContractError, ResourceLimitError
from .ip import Blocks, IPInstance, IpSolver, SignedPairs

MAX_MATERIALIZED_UNIVERSE = 5_000_000


class HybridInstance:
    """Immutable hybrid problem instance.

    ``element_types[u]`` is the packed type of element ``u``; ``families`` is
    a tuple of k tuples of frozensets of element indices, and ``parts[tau]``
    the frozenset of the elements of type ``tau``.  ``labels`` and
    ``set_labels`` are optional names used by dumps and witness back-maps.
    """

    def __init__(
        self,
        k: int,
        kind: str,
        element_types: Sequence[int],
        families: Sequence[Sequence[frozenset[int]]],
        labels: Sequence[str] | None = None,
        set_labels: Sequence[Sequence[str]] | None = None,
    ):
        if k < 1:
            raise ContractError(f"k must be at least 1, got {k}")
        if kind not in ("max", "min"):
            raise ContractError(f"kind must be max or min, got {kind!r}")
        if len(families) != k:
            raise ContractError("family count must equal k")
        self.k = k
        self.kind = kind
        self.element_types = tuple(element_types)
        size = len(self.element_types)
        parts: list[list[int]] = [[] for _ in range(1 << k)]
        for u, tau in enumerate(self.element_types):
            if not 0 <= tau < (1 << k):
                raise ContractError(f"type {tau} out of range for k={k}")
            parts[tau].append(u)
        self.parts = tuple(map(frozenset, parts))
        self.families = tuple(tuple(frozenset(s) for s in fam) for fam in families)
        for fam in self.families:
            for s in fam:
                for u in s:
                    if not 0 <= u < size:
                        raise ContractError(f"set element {u} outside universe")
        self.labels = tuple(labels) if labels is not None else None
        self.set_labels = (
            tuple(tuple(sl) for sl in set_labels) if set_labels is not None else None
        )

    @property
    def size(self) -> int:
        return len(self.element_types)

    @property
    def m_h(self) -> int:
        return sum(len(s) for fam in self.families for s in fam)

    @cached_property
    def ip(self) -> IPInstance:
        """The IP instance of the all-ones Basic form: one sorted coordinate
        tuple per set, family by family, in dimension |U|."""
        return basic_to_ip(hybrid_to_basic(self, (1 << self.k) - 1))

    @cached_property
    def signed_pairs(self) -> SignedPairs:
        """The k=2 tuple values as signed pairs (``relopt.ip.SignedPairs``):
        constant |P_0|, offsets |A∩P_1| - |A∩P_0| for family 0 and
        |B∩P_2| - |B∩P_0| for family 1, weight +1 on P_0 ∪ P_3 and -1 on
        P_1 ∪ P_2, P_tau being the part of type tau."""
        if self.k != 2:
            raise ContractError("signed pairs need k=2")
        p0, p1, p2, _ = self.parts
        offsets = tuple(
            [len(s & own) - len(s & p0) for s in fam]
            for fam, own in zip(self.families, (p1, p2))
        )
        weight = [1 if tau in (0, 3) else -1 for tau in self.element_types]
        return SignedPairs(self.families, offsets, weight, len(p0))

    def label(self, u: int) -> str:
        return self.labels[u] if self.labels is not None else str(u)

    def dump(self) -> str:
        lines = []
        for u in range(self.size):
            bits = "".join(
                str(self.element_types[u] >> i & 1) for i in range(self.k)
            )
            lines.append(f"universe {self.label(u)} {bits}")
        for i, fam in enumerate(self.families):
            for j, s in enumerate(fam):
                name = (
                    self.set_labels[i][j]
                    if self.set_labels is not None
                    else f"s{j}"
                )
                members = " ".join(self.label(u) for u in sorted(s))
                lines.append(f"set {i} {name} {members}".rstrip())
        return "\n".join(lines) + "\n"


def val(
    instance: HybridInstance, chosen: Sequence[int]
) -> tuple[dict[int, int], int]:
    """Per-type and total value of one set per family (by set index)."""
    if len(chosen) != instance.k:
        raise ContractError("need one chosen set per family")
    sets = [instance.families[i][j] for i, j in enumerate(chosen)]
    per_tau = {}
    for tau, acc in enumerate(instance.parts):
        for i, s in enumerate(sets):
            if not acc:
                break
            acc = acc & s if tau >> i & 1 else acc - s
        if acc:
            per_tau[tau] = len(acc)
    return per_tau, sum(per_tau.values())


def hybrid_baseline(instance: HybridInstance) -> tuple[int, tuple[int, ...]] | None:
    """Exhaustive optimum over all family tuples; the test oracle."""
    if any(not fam for fam in instance.families):
        return None
    best_val = None
    best_key = None
    for key in product(*(range(len(f)) for f in instance.families)):
        _, total = val(instance, key)
        if best_val is None or (
            total > best_val if instance.kind == "max" else total < best_val
        ):
            best_val, best_key = total, key
    return best_val, best_key


@dataclass(frozen=True)
class BasicInstance:
    """Hybrid instance collapsed to a single constraint type."""

    k: int
    kind: str
    tau: int
    size: int
    families: tuple[tuple[frozenset[int], ...], ...]

    def val(self, chosen: Sequence[int]) -> int:
        sets = [self.families[i][j] for i, j in enumerate(chosen)]
        acc = set(range(self.size))
        for i in range(self.k):
            acc = acc & sets[i] if self.tau >> i & 1 else acc - sets[i]
        return len(acc)


def hybrid_to_basic(instance: HybridInstance, tau: int) -> BasicInstance:
    """Convert to an equivalent Basic instance of type ``tau`` by
    complementing sets on every part that disagrees with ``tau``: family i's
    sets become S ^ F_i, F_i the union of the parts whose bit i is not tau's.

    Total tuple values are preserved exactly; sparsity may grow up to
    n * |U|, which the paper bounds by reducing the universe first.  The
    solve and ``relopt reduce`` reach the all-ones form through
    ``HybridInstance.ip``, once per instance.
    """
    fams = []
    for i, fam in enumerate(instance.families):
        flip = frozenset().union(
            *(part for t, part in enumerate(instance.parts) if (t ^ tau) >> i & 1)
        )
        fams.append(tuple(s ^ flip for s in fam))
    return BasicInstance(instance.k, instance.kind, tau, instance.size, tuple(fams))


def basic_to_ip(basic: BasicInstance) -> IPInstance:
    if basic.tau != (1 << basic.k) - 1:
        raise ContractError("IP encoding expects the all-ones type")
    families = tuple(
        tuple(tuple(sorted(s)) for s in fam) for fam in basic.families
    )
    return IPInstance(basic.k, families, basic.size)


# --- deterministic universe reduction ---------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_support(t: int) -> tuple[int, ...]:
    """First t primes at or above max(2, ceil(2 t log2 t)), ascending."""
    if t < 1:
        raise ContractError("t must be at least 1")
    lo = max(2, math.ceil(2 * t * math.log2(t)) if t > 1 else 2)
    primes = []
    n = lo
    while len(primes) < t:
        if _is_prime(n):
            primes.append(n)
        n += 1
    return tuple(primes)


def hash_element(u: int, primes: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Residues of ``u`` modulo every support prime: {(slot, u mod p_slot)}."""
    if u < 0:
        raise ContractError("element index must be nonnegative")
    return frozenset((i, u % p) for i, p in enumerate(primes))


def collision_number(u: int, v: int, primes: Sequence[int]) -> int:
    return len(hash_element(u, primes) & hash_element(v, primes))


@dataclass(frozen=True)
class UniverseReduction:
    """Bookkeeping of one universe reduction: multiplicity t, the prime
    support (when any part was hashed), per-part mode, the exact offset Delta
    for the all-negative type, and the a-priori error bound."""

    t: int
    primes: tuple[int, ...] | None
    part_modes: tuple[str, ...]  # "copy" | "hash" per packed type
    delta: int
    e_bound: int


def error_bound(k: int, s: int, universe_size: int) -> int:
    """A-priori bound on |t*Val - Val' - Delta| over all tuples: collisions
    within the union of k sets of size <= s, summed over the 2^k parts."""
    return (
        2 ** (k + 1) * (k * s) ** 2 * math.ceil(math.log2(max(2, universe_size)))
    )


def universe_reduce(
    instance: HybridInstance, t: int
) -> tuple[HybridInstance, UniverseReduction]:
    """Shrink each part: small parts become t verbatim copies, large parts are
    hashed to prime-residue coordinates.  Returns the reduced instance and the
    offset/bound bookkeeping.

    The copy case also applies whenever t copies are no larger than the
    residue space, which keeps Delta >= 0 for tiny t where the prime support
    overshoots the paper's window.
    """
    if t < 1:
        raise ContractError("t must be at least 1")
    k = instance.k
    copy_threshold = 4 * t * math.log2(t) if t > 1 else 0.0
    part_elements = [sorted(part) for part in instance.parts]
    primes: tuple[int, ...] | None = None
    residue_space = None

    def ensure_primes():
        nonlocal primes, residue_space
        if primes is None:
            primes = prime_support(t)
            residue_space = sum(primes)

    modes = []
    for tau in range(1 << k):
        n_part = len(part_elements[tau])
        if n_part == 0 or n_part <= copy_threshold:
            modes.append("copy")
            continue
        ensure_primes()
        modes.append("copy" if t * n_part <= residue_space else "hash")

    new_types: list[int] = []
    new_labels: list[str] = []
    h_map: dict[int, tuple[int, ...]] = {}
    for tau in range(1 << k):
        elements = part_elements[tau]
        if modes[tau] == "copy":
            if t * len(elements) + len(new_types) > MAX_MATERIALIZED_UNIVERSE:
                raise ResourceLimitError(
                    f"reduced universe would exceed {MAX_MATERIALIZED_UNIVERSE} elements"
                )
            for pos, u in enumerate(elements):
                base = len(new_types)
                new_types.extend([tau] * t)
                new_labels.extend(f"{instance.label(u)}*{c}" for c in range(t))
                h_map[u] = tuple(range(base, base + t))
        else:
            ensure_primes()
            if residue_space + len(new_types) > MAX_MATERIALIZED_UNIVERSE:
                raise ResourceLimitError(
                    f"reduced universe would exceed {MAX_MATERIALIZED_UNIVERSE} elements"
                )
            slot_base = []
            for i, p in enumerate(primes):
                slot_base.append(len(new_types))
                new_types.extend([tau] * p)
                new_labels.extend(f"t{tau}p{i}r{j}" for j in range(p))
            for pos, u in enumerate(elements):
                h_map[u] = tuple(
                    slot_base[i] + (pos % p) for i, p in enumerate(primes)
                )

    new_families = tuple(
        tuple(
            frozenset(nu for u in s for nu in h_map[u]) for s in fam
        )
        for fam in instance.families
    )
    reduced = HybridInstance(
        k,
        instance.kind,
        new_types,
        new_families,
        labels=new_labels,
        set_labels=instance.set_labels,
    )
    n_zero = len(part_elements[0])
    n_zero_new = sum(1 for tau in new_types if tau == 0)
    delta = t * n_zero - n_zero_new
    assert delta >= 0, "Delta must be nonnegative"
    s = max((len(s) for fam in instance.families for s in fam), default=0)
    bound = error_bound(k, s, instance.size)
    return reduced, UniverseReduction(t, primes, tuple(modes), delta, bound)


# --- hybrid solve through IP -------------------------------------------------

def solve_hybrid(instance: HybridInstance, ip_solver: IpSolver) -> int | None:
    (value,), _ = solve_hybrid_with_info(instance, ip_solver)
    return value


def solve_hybrid_with_info(
    instance: HybridInstance, ip_solver: IpSolver, blocks: Blocks | None = None
) -> tuple[list[int | None], dict]:
    """The hybrid optimum of every sub-instance that keeps one block of sets
    per family, in ``itertools.product`` order of the block indices.
    Without ``blocks`` the one sub-instance is the instance.

    The values are one query of the solver (``IpSolver.query``), which
    preserves every tuple value, so each is the sub-instance's optimum
    within the solver's ratio: exact for an exact solver, a c-approximation
    for a c-approximate one.  A value is None where a block is empty.
    ``info`` holds the universe size and what the query reports: ``coords``,
    the coordinates it read (m_h of the sets or m_ip of the vectors), and
    ``pairs_joined`` or ``solve_calls``.
    """
    if ip_solver.kind != instance.kind:
        raise ContractError("ip solver kind does not match instance kind")
    if blocks is None:
        blocks = [[list(range(len(fam)))] for fam in instance.families]
    info = {"universe": instance.size}
    return ip_solver.query(instance, blocks, info), info
