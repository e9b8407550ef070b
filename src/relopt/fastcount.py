"""Improved exact solver for formulas with two or more counting variables.

The residual three-variable problem is solved by per-vertex triangle
counting, after decomposing the ternary Boolean body over the AND basis
{ AND_{i in S} a_i : S subseteq {1,2,3} }.  Each yz edge (y, z) finds its
triangles by scanning the smaller of the x neighbourhoods of y and z for
members of the other.  Over m edges that costs O(m^1.5) (Chiba and
Nishizeki): an edge costs at most sqrt(m) unless both its ends have more
than sqrt(m) x neighbours, and fewer than sqrt(m) objects of a part do.
Everything above three variables is brute-forced by the walk the baseline
shares (``relopt.baseline.LeadingWalk``), which matches the m^(k+l-3/2)
shape.

The residual's atoms are classified and projected by the baseline's
``BodyAtoms``.  Its static part is built once per solve: the colours, classes
and pair buckets (by the unary classes of both endpoints and the colour
bits) of the atoms that mention no brute-forced variable.  A run adds only
what its assignment's atoms select: those objects leave their static class,
those pairs leave their static bucket, and every other class and bucket is
reused as it is.  The walk answers a run from an earlier one that read the
same (``relopt.baseline.BodyAtoms.signature``).  Every per-(class, colour)
graph reads only its own buckets; a nonzero colour without a bucket builds
no graph, as its graph would count 0.  Each truth table is decomposed once
per process, and a graph with an empty side skips the triangle pass: it has
no triangle.

A class triple whose (v, w) class pair has no coloured pair builds no graph.
Without a yz edge psi_3, psi_13, psi_23 and psi_123 vanish, and what is left
of a colour pattern (a0, a1, 0) factors: u's count is N_xy[a0](u) *
N_xz[a1](u), summed over the patterns the body holds for.  N[a](u) is u's
number of partners in the colour-a bucket; for a = 0 it is the size of the
other class less u's degree in the union bucket.  A run builds each (class
pair, colour) vector at most once, and a static bucket at its static class
sizes keeps its vector across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import add, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .baseline import (
    BodyAtoms, LeadingWalk, OptResult, Projections, opt_of_walk, resolve_domains, unary_colors,
)
from .errors import ContractError, UnsupportedShapeError
from .formula import OptFormula, check_schema
from .structure import ObjectId, RelationalStructure

TruthTable = Sequence[int]  # 8 entries indexed by (a1 << 2) | (a2 << 1) | a3


@dataclass(frozen=True)
class TripartiteGraph:
    """Three vertex parts with edges between each pair of parts."""

    nx: int
    ny: int
    nz: int
    xy: frozenset[tuple[int, int]]
    xz: frozenset[tuple[int, int]]
    yz: frozenset[tuple[int, int]]

    def __post_init__(self):
        for name, edges, na, nb in (
            ("xy", self.xy, self.nx, self.ny),
            ("xz", self.xz, self.nx, self.nz),
            ("yz", self.yz, self.ny, self.nz),
        ):
            for e in edges:
                try:
                    i, j = e
                    ok = isinstance(i, int) and isinstance(j, int) and 0 <= i < na and 0 <= j < nb
                except (TypeError, ValueError):  # not a pair
                    ok = False
                if not ok:
                    raise ContractError(f"{name} edge {e!r} is not a pair of endpoints in range")


@dataclass(frozen=True)
class BasisDecomposition:
    """phi(a) = sum over S of alpha_S * prod_{i in S} a_i, multilinear."""

    coefficients: Mapping[frozenset[int], int]

    def reconstruct(self, a1: int, a2: int, a3: int) -> int:
        bits = {1: a1, 2: a2, 3: a3}
        return sum(
            alpha * math.prod(bits[i] for i in s)
            for s, alpha in self.coefficients.items()
        )


_SUBSETS = [frozenset(s) for s in ([], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])]
_S0, _S1, _S2, _S3, _S12, _S13, _S23, _S123 = _SUBSETS


def and_basis_coefficients(table: TruthTable) -> BasisDecomposition:
    """Unique multilinear coefficients by Moebius inversion over subsets.

    A table is decomposed once per process; the coefficients are a read-only
    mapping, so the shared decomposition cannot be changed by a caller."""
    if len(table) != 8:
        raise ContractError("truth table must have 8 entries")
    if any(bit not in (0, 1) for bit in table):
        raise ContractError("truth table entries must be 0 or 1")
    return _decompose(sum(1 << idx for idx, bit in enumerate(table) if bit))


@lru_cache(maxsize=256)
def _decompose(code: int) -> BasisDecomposition:
    def phi_at(s: frozenset[int]) -> int:
        idx = ((1 in s) << 2) | ((2 in s) << 1) | (3 in s)
        return code >> idx & 1

    coeffs = {}
    for s in _SUBSETS:
        total = 0
        for bits in product([0, 1], repeat=len(s)):
            t = frozenset(i for i, b in zip(sorted(s), bits) if b)
            total += (-1) ** (len(s) - len(t)) * phi_at(t)
        coeffs[s] = total
    return BasisDecomposition(MappingProxyType(coeffs))


def _count_all_triangles(g: TripartiteGraph) -> list[int]:
    """Per-x count of (y, z) with all three edges present.

    Each y and each z is mapped to the set of its x neighbours X(y), X(z);
    a yz edge closes a triangle at each x in both, found by scanning the
    smaller set for members of the other.  The cost is the sum over the yz
    edges of min(|X(y)|, |X(z)|), which is O(m^1.5) for m edges (Chiba and
    Nishizeki's argument): an edge whose smaller side has at most sqrt(m)
    members costs at most sqrt(m); fewer than sqrt(m) objects of each part
    have more than sqrt(m) x neighbours, so each y meets fewer than sqrt(m)
    of the remaining edges, and they cost less than the sum of |X(y)| times
    sqrt(m), at most m * sqrt(m)."""
    xs_of_y: dict[int, set[int]] = {}
    for x, y in g.xy:
        xs_of_y.setdefault(y, set()).add(x)
    xs_of_z: dict[int, set[int]] = {}
    for x, z in g.xz:
        xs_of_z.setdefault(z, set()).add(x)
    counts = [0] * g.nx
    for y, z in g.yz:
        small, big = xs_of_y.get(y), xs_of_z.get(z)
        if small is None or big is None:
            continue
        if len(small) > len(big):
            small, big = big, small
        for x in small:
            if x in big:
                counts[x] += 1
    return counts


def _degrees(edges: frozenset[tuple[int, int]], n: int, end: int) -> list[int]:
    deg = [0] * n
    for e in edges:
        deg[e[end]] += 1
    return deg


def triangle_counts(g: TripartiteGraph, table: TruthTable) -> list[int]:
    """For every x: #{(y, z) : phi(E(x,y), E(x,z), E(y,z))}, exactly.

    The sum over S of alpha_S * psi_S(x), where psi_S(x) counts the (y, z)
    with every edge named by S present (1, 2, 3 name the xy, xz, yz edges).
    Only the terms with a non-zero coefficient are computed."""
    coeff = and_basis_coefficients(table).coefficients
    nx, ny, nz = g.nx, g.ny, g.nz
    out = [coeff[_S0] * ny * nz + coeff[_S3] * len(g.yz)] * nx
    a1, a2, a12 = coeff[_S1], coeff[_S2], coeff[_S12]
    if a1 or a2 or a12:
        out = [
            o + dy * (a1 * nz + a12 * dz) + a2 * ny * dz
            for o, dy, dz in zip(out, _degrees(g.xy, nx, 0), _degrees(g.xz, nx, 0))
        ]
    # the path terms psi_{1,3} and psi_{2,3} are 0 without a yz edge
    if coeff[_S13] and g.yz:
        deg_y = _degrees(g.yz, ny, 0)
        for i, j in g.xy:
            out[i] += coeff[_S13] * deg_y[j]
    if coeff[_S23] and g.yz:
        deg_z = _degrees(g.yz, nz, 1)
        for i, l in g.xz:
            out[i] += coeff[_S23] * deg_z[l]
    # psi_{1,2,3} is 0 without an edge on every side
    if coeff[_S123] and g.xy and g.xz and g.yz:
        out = [o + coeff[_S123] * t for o, t in zip(out, _count_all_triangles(g))]
    return out


_NO_EDGES: frozenset[tuple[int, int]] = frozenset()
# the buckets of a class pair without a coloured pair: colour 0, no edge
_NO_BUCKETS: Mapping[int, frozenset[tuple[int, int]]] = MappingProxyType({0: _NO_EDGES})


class _Classes(NamedTuple):
    """A residual variable's objects by unary colour: each object's colour,
    the objects of each colour, and each object's index among them."""

    color: Mapping[ObjectId, int]
    members: Mapping[int, Sequence[ObjectId]]
    pos: Mapping[ObjectId, int]


def _static_classes(dom: Sequence[ObjectId], color: Mapping[ObjectId, int]) -> _Classes:
    """The classes of the static colours; an object without one has colour 0."""
    full: dict[ObjectId, int] = {}
    lists: dict[int, list[ObjectId]] = {}
    pos: dict[ObjectId, int] = {}
    for o in dom:
        c = full[o] = color.get(o, 0)
        cls = lists.setdefault(c, [])
        pos[o] = len(cls)
        cls.append(o)
    return _Classes(full, {c: tuple(cls) for c, cls in lists.items()}, pos)


def _moved(static: _Classes, extra: Mapping[ObjectId, int]) -> tuple[_Classes, set]:
    """A run's classes, given the dynamic colour bits of its touched objects,
    and the objects whose class or index differs from the static one.

    No static colour has a dynamic bit, so a touched object leaves its static
    class for a class of touched objects only, and the last member of the
    class it leaves takes its index.  Every other class and index is kept."""
    if not extra:
        return static, set()
    color = dict(static.color)
    members: dict[int, Sequence[ObjectId]] = dict(static.members)
    pos = dict(static.pos)
    changed = set(extra)
    leaving: dict[int, list[int]] = {}
    for o in extra:
        leaving.setdefault(color[o], []).append(pos[o])
    for c, idxs in leaving.items():
        cls = list(members[c])
        for i in sorted(idxs, reverse=True):
            last = cls.pop()
            if i < len(cls):
                cls[i] = last
                pos[last] = i
                changed.add(last)
        if cls:
            members[c] = cls
        else:
            del members[c]
    for o, bits in extra.items():
        c = color[o] = color[o] | bits
        cls = members.setdefault(c, [])  # a new list: c is no static colour
        pos[o] = len(cls)
        cls.append(o)
    return _Classes(color, members, pos), changed


Buckets = Mapping[tuple[int, int], Mapping[int, frozenset[tuple[int, int]]]]


def _buckets(
    col: Mapping[tuple[ObjectId, ObjectId], int], ca: _Classes, cb: _Classes
) -> Buckets:
    """The coloured pairs (a, b) as in-class index pairs, by (class of a,
    class of b) and then by colour bits.  Bits 0 ("no atom holds") is never
    a pair's colour, so key 0 holds the union: the pairs of any colour."""
    lists: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for (a, b), bits in col.items():
        lists.setdefault((ca.color[a], cb.color[b], bits), []).append(
            (ca.pos[a], cb.pos[b])
        )
    out: dict[tuple[int, int], dict[int, frozenset[tuple[int, int]]]] = {}
    for (c_a, c_b, bits), edges in lists.items():
        out.setdefault((c_a, c_b), {})[bits] = frozenset(edges)
    for per_bits in out.values():
        per_bits[0] = frozenset().union(*per_bits.values())
    return out


def _pair_colors(
    projections: Projections, asn: Mapping[str, ObjectId], dom_a: set, dom_b: set
) -> dict[tuple[ObjectId, ObjectId], int]:
    """Bit i set for the pairs of ``dom_a`` x ``dom_b`` that atom i holds
    for under the assignment; pairs with no bit set are left out."""
    out: dict[tuple[ObjectId, ObjectId], int] = {}
    for i, p in projections:
        for pair in p.query(asn):
            if pair[0] in dom_a and pair[1] in dom_b:
                out[pair] = out.get(pair, 0) | 1 << i
    return out


class _PairSide:
    """The atoms over one pair (a, b) of residual variables, as their static
    and dynamic projections, with the static pair colours and buckets; and
    per object of a (of b) its static partners with their colours."""

    def __init__(
        self,
        static: Projections,
        dynamic: Projections,
        dom_a: set,
        dom_b: set,
        ca: _Classes,
        cb: _Classes,
    ):
        self.dynamic = dynamic
        self.dom_a, self.dom_b = dom_a, dom_b
        self.ca, self.cb = ca, cb
        self.color = _pair_colors(static, {}, dom_a, dom_b)
        self.buckets = _buckets(self.color, ca, cb)
        self.partners_a: dict[ObjectId, list[tuple[ObjectId, int]]] = {}
        self.partners_b: dict[ObjectId, list[tuple[ObjectId, int]]] = {}
        for (a, b), bits in self.color.items():
            self.partners_a.setdefault(a, []).append((b, bits))
            self.partners_b.setdefault(b, []).append((a, bits))
        # partner counts of the static buckets at the static class sizes
        self.static_counts: dict[tuple[int, int, int], list[int]] = {}

    def partner_counts(
        self,
        buckets: Buckets,
        ca: _Classes,
        cb: _Classes,
        pair: tuple[int, int],
        bits: int,
        memo: dict,
    ) -> list[int]:
        """Per member of a's class ``pair[0]`` in a run, by index: its number
        of partners of colour ``bits`` in b's class ``pair[1]``; for colour 0,
        the members of that class it has no pair with.

        ``memo`` keeps the run's counts.  A class pair whose buckets and
        class sizes are the static ones keeps its counts across runs."""
        key = pair + (bits,)
        got = memo.get(key)
        if got is not None:
            return got
        per_bits = buckets.get(pair)
        na, nb = len(ca.members[pair[0]]), len(cb.members[pair[1]])
        static = (
            per_bits is self.buckets.get(pair)
            and na == len(self.ca.members.get(pair[0], ()))
            and nb == len(self.cb.members.get(pair[1], ()))
        )
        got = self.static_counts.get(key) if static else None
        if got is None:
            deg = [0] * na
            try:
                for i, _ in (per_bits or _NO_BUCKETS)[bits]:
                    deg[i] += 1
            except IndexError:
                raise ContractError("pair endpoint out of its class") from None
            got = [nb - d for d in deg] if bits == 0 else deg
            if static:
                self.static_counts[key] = got
        memo[key] = got
        return got

    def run_buckets(
        self,
        ca: _Classes,
        changed_a: set,
        cb: _Classes,
        changed_b: set,
        extra: Mapping[tuple[ObjectId, ObjectId], int],
    ) -> Buckets:
        """A run's buckets, given its classes, the objects whose class or
        index changed, and the dynamic colour bits of its touched pairs.
        Only the pairs of a changed object and the touched pairs leave their
        static bucket; every other bucket is the static one."""
        if not (changed_a or changed_b or extra):
            return self.buckets
        # per (class of a, class of b, colour): the static index pairs that
        # leave, at the static classes, and the run's index pairs that
        # arrive, at the run's; a pair of two changed objects is listed
        # twice, which the set operations absorb
        gone: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        new: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        sa, sb = self.ca, self.cb
        for a in changed_a:
            s_a, q_a = sa.color[a], sa.pos[a]
            c_a, p_a = ca.color[a], ca.pos[a]
            for b, bits in self.partners_a.get(a, ()):
                gone.setdefault((s_a, sb.color[b], bits), []).append((q_a, sb.pos[b]))
                if extra:
                    bits |= extra.get((a, b), 0)
                new.setdefault((c_a, cb.color[b], bits), []).append((p_a, cb.pos[b]))
        for b in changed_b:
            s_b, q_b = sb.color[b], sb.pos[b]
            c_b, p_b = cb.color[b], cb.pos[b]
            for a, bits in self.partners_b.get(b, ()):
                gone.setdefault((sa.color[a], s_b, bits), []).append((sa.pos[a], q_b))
                if extra:
                    bits |= extra.get((a, b), 0)
                new.setdefault((ca.color[a], c_b, bits), []).append((ca.pos[a], p_b))
        for (a, b), bits in extra.items():
            old = self.color.get((a, b), 0)
            if old:
                key = (sa.color[a], sb.color[b], old)
                gone.setdefault(key, []).append((sa.pos[a], sb.pos[b]))
            key = (ca.color[a], cb.color[b], old | bits)
            new.setdefault(key, []).append((ca.pos[a], cb.pos[b]))
        by_pair: dict[tuple[int, int], list[int]] = {}
        for c_a, c_b, bits in gone.keys() | new.keys():
            by_pair.setdefault((c_a, c_b), []).append(bits)
        out = dict(self.buckets)
        for pair, bit_list in by_pair.items():
            per_bits = dict(out.get(pair, _NO_BUCKETS))
            gone_all: list[tuple[int, int]] = []
            new_all: list[tuple[int, int]] = []
            for bits in bit_list:
                leave = gone.get(pair + (bits,), ())
                arrive = new.get(pair + (bits,), ())
                edges = per_bits.get(bits, _NO_EDGES).difference(leave).union(arrive)
                if edges:
                    per_bits[bits] = edges
                else:
                    del per_bits[bits]
                gone_all += leave
                new_all += arrive
            per_bits[0] = per_bits[0].difference(gone_all).union(new_all)
            if per_bits[0]:
                out[pair] = per_bits
            else:
                del out[pair]
        return out


class _Residual3:
    """Counts psi(u) = #{(v, w) : body} for all u, given a partial assignment
    of every other variable.

    Step 1 corrects for atoms over all three free variables via per-u deltas,
    step 2 enumerates unary color classes, step 3 reduces each satisfying
    edge-color combination to a triangle count.

    ``relopt.baseline.BodyAtoms`` classifies and projects the atoms and
    holds the body's truth per class bits.  A static atom mentions no
    brute-forced variable, so it colours the same objects and pairs in every
    run; a dynamic one mentions one.  The static colours,
    classes and buckets (each pair's coloured pairs by the classes of both
    endpoints and by colour, as in-class index pairs) are built once.  A run
    colours only its dynamic atoms.  The objects and pairs they select are
    touched and leave their static class or bucket (``_moved``,
    ``_PairSide.run_buckets``); every other class and bucket is the static
    one.  A colour combination with a nonzero colour that no pair of its
    class pair has builds no graph, and a graph with an empty side costs no
    triangle pass.

    A class triple whose (v, w) class pair has no coloured pair has no yz
    edge, so psi_3, psi_13, psi_23 and psi_123 vanish: it builds no graph,
    and each colour pattern (a0, a1, 0) the body holds for adds the product
    of u's partner counts in colour a0 over v and a1 over w
    (``_PairSide.partner_counts``).
    """

    def __init__(self, structure: RelationalStructure, formula: OptFormula):
        self.body = body = BodyAtoms(structure, formula, 3)
        self.free = body.free
        self.domains = domains = resolve_domains(structure, formula, None)
        self.dom_sets = {var: set(domains[var]) for var in self.free}
        # per variable its dynamic unary atoms and its static classes
        self.single_dynamic: dict[str, Projections] = {}
        self.classes: dict[str, _Classes] = {}
        for var in self.free:
            static, self.single_dynamic[var] = body.split[var,]
            self.classes[var] = _static_classes(
                domains[var], unary_colors(static, {}, self.dom_sets[var])
            )
        self.pair_sides = {
            (a, b): _PairSide(
                *body.split[a, b],
                self.dom_sets[a],
                self.dom_sets[b],
                self.classes[a],
                self.classes[b],
            )
            for a, b in combinations(self.free, 2)
        }
        triple_static, self.triple_dynamic = body.split[self.free]
        self.static_triples = self._triples(triple_static, {})
        # the unary and pair atoms: the classes past the fixed atoms and
        # short of the one over u, v and w
        self.static_atoms, self.dynamic_atoms = (
            sum(len(body.split[c][i]) for c in body.classes[1:-1]) for i in (0, 1)
        )
        # counts over every run, reported by multi_counting_opt's stats_out
        self.touched = 0
        self.graphs = 0
        self.empty_side = 0
        self.products = 0
        self.tables: set[int] = set()

    def _triples(self, projections: Projections, asn) -> set[tuple]:
        """The triples of the domains of (u, v, w) some of the atoms hold for."""
        du, dv, dw = (self.dom_sets[x] for x in self.free)
        return {
            t
            for _, p in projections
            for t in p.query(asn)
            if t[0] in du and t[1] in dv and t[2] in dw
        }

    def run(self, asn: dict[str, ObjectId]) -> dict[ObjectId, int]:
        """psi(u) for every u of its domain; the caller must not change it."""
        u, v, w = self.free
        body = self.body
        fixed_bits = body.bits(asn)
        extra = {
            var: unary_colors(self.single_dynamic[var], asn, self.dom_sets[var])
            for var in self.free
        }
        extra_pairs = {
            pr: _pair_colors(side.dynamic, asn, side.dom_a, side.dom_b)
            for pr, side in self.pair_sides.items()
        }
        extra_triples = self._triples(self.triple_dynamic, asn)
        self.touched += len(set().union(*extra.values()))

        moved = {var: _moved(self.classes[var], extra[var]) for var in self.free}
        cls_u, cls_v, cls_w = (moved[var][0] for var in self.free)
        uv_edges, uw_edges, vw_edges = (
            side.run_buckets(*moved[a], *moved[b], extra_pairs[(a, b)])
            for (a, b), side in self.pair_sides.items()
        )

        truth = body.truth
        side_uv, side_uw, _ = self.pair_sides.values()
        memo_uv: dict = {}
        memo_uw: dict = {}
        psi0 = dict.fromkeys(self.domains[u], 0)
        for delta, us in cls_u.members.items():
            counts = [0] * len(us)
            for beta, vs in cls_v.members.items():
                xy = uv_edges.get((delta, beta), _NO_BUCKETS)
                for gamma, ws in cls_w.members.items():
                    xz = uw_edges.get((delta, gamma), _NO_BUCKETS)
                    yz = vw_edges.get((beta, gamma))
                    # only the colours of some pair of these classes: a
                    # nonzero colour without one asks for an edge on an
                    # empty side, and its graph counts 0
                    if yz is None:
                        # no yz edge: a term is the product of u's partner
                        # counts in its xy and its xz colour
                        for a0, a1 in product(xy, xz):
                            if not truth((fixed_bits, delta, beta, gamma, a0, a1, 0)):
                                continue
                            self.products += 1
                            n0 = side_uv.partner_counts(
                                uv_edges, cls_u, cls_v, (delta, beta), a0, memo_uv
                            )
                            n1 = side_uw.partner_counts(
                                uw_edges, cls_u, cls_w, (delta, gamma), a1, memo_uw
                            )
                            counts = list(map(add, counts, map(mul, n0, n1)))
                        continue
                    for (a0, e0), (a1, e1), (a2, e2) in product(
                        xy.items(), xz.items(), yz.items()
                    ):
                        # the body with the atoms over u, v and w false
                        if not truth((fixed_bits, delta, beta, gamma, a0, a1, a2)):
                            continue
                        g = TripartiteGraph(len(us), len(vs), len(ws), e0, e1, e2)
                        pattern = (bool(a0) << 2) | (bool(a1) << 1) | bool(a2)
                        table = [0] * 8
                        table[pattern] = 1
                        self.graphs += 1
                        self.empty_side += not (e0 and e1 and e2)
                        self.tables.add(pattern)
                        counts = list(map(add, counts, triangle_counts(g, table)))
            psi0.update(zip(us, counts))

        # step 1 correction: triples touched by a three-free-variable atom
        for t in self.static_triples | extra_triples:
            asn2 = dict(asn)
            asn2[u], asn2[v], asn2[w] = t
            bits = tuple(body.bits(asn2, c) for c in body.classes)
            psi0[t[0]] -= truth(bits[:-1]) - truth(bits)
        return psi0

    def run_sum(self, asn: dict[str, ObjectId]) -> int:
        """The sum of ``run``'s psi over u, where u is a counting variable."""
        return sum(self.run(asn).values())


def multi_counting_opt(
    structure: RelationalStructure,
    formula: OptFormula,
    stats_out: dict | None = None,
) -> OptResult | None:
    """Exact optimum for two or more counting variables.

    Runs the walk it shares with the baseline, ``LeadingWalk``, over the
    corrected triangle-count residual, a run answered from the walk's memo
    where an earlier one read the same.  ``stats_out``, when given, receives
    the residual's counts: ``runs`` (one per brute-forced assignment),
    ``reused`` (the runs the memo answered), ``graphs`` (``triangle_counts``
    calls), ``empty_side`` (graphs with an empty side, whose triangle pass
    is skipped), ``products`` (the (class triple, colour) terms of class
    triples with no (v, w) pair, counted as products of partner counts with
    no graph), ``tables`` (distinct truth tables of the graphs), ``static_atoms`` and
    ``dynamic_atoms`` (the residual's unary and pair atoms without and with
    a brute-forced variable) and ``touched`` (per run the memo did not
    answer, the objects that leave a static class of some residual
    variable, summed over those runs).
    """
    if formula.ell < 2:
        raise UnsupportedShapeError("needs at least two counting variables")
    check_schema(formula, structure)
    residual = _Residual3(structure, formula)
    walk = LeadingWalk(
        formula, 3, residual.run, residual.run_sum, residual.domains,
        key=residual.body.signature(),
    )
    result = opt_of_walk(walk.prefixes(), formula.kind)
    if stats_out is not None:
        stats_out.update(
            runs=walk.cases,
            reused=walk.reused,
            graphs=residual.graphs,
            empty_side=residual.empty_side,
            products=residual.products,
            tables=len(residual.tables),
            static_atoms=residual.static_atoms,
            dynamic_atoms=residual.dynamic_atoms,
            touched=residual.touched,
        )
    return result
