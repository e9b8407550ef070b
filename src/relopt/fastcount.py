"""Improved exact solver for formulas with two or more counting variables.

The residual three-variable problem is solved by per-vertex triangle counting
with a heavy/light degree split, after decomposing the ternary Boolean body
over the AND basis { AND_{i in S} a_i : S subseteq {1,2,3} }.  Everything
above three variables is brute-forced, which matches the m^(k+l-3/2) shape.

Each residual run buckets the pair colours once, by the unary classes of
both endpoints and the colour bits, and every per-(class, colour) graph reads
only its own buckets; a nonzero colour without a bucket builds no graph, as
its graph would count 0.  Each truth table is decomposed once per process,
and a graph with an empty side skips the triangle pass: it has no triangle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

from .baseline import OptResult, ProjectedAtom, _atom_truth, opt_of_table, resolve_domains
from .errors import ContractError, UnsupportedShapeError
from .formula import Atom, OptFormula, atoms_of, eval_expr_table
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
        for i, j in self.xy:
            if not (0 <= i < self.nx and 0 <= j < self.ny):
                raise ContractError("xy edge endpoint out of range")
        for i, j in self.xz:
            if not (0 <= i < self.nx and 0 <= j < self.nz):
                raise ContractError("xz edge endpoint out of range")
        for i, j in self.yz:
            if not (0 <= i < self.ny and 0 <= j < self.nz):
                raise ContractError("yz edge endpoint out of range")

    @property
    def m(self) -> int:
        return len(self.xy) + len(self.xz) + len(self.yz)


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
    """Per-x count of (y, z) with all three edges present, via the
    heavy/light split at degree threshold ceil(sqrt(m))."""
    if not (g.xy and g.xz and g.yz):
        return [0] * g.nx  # a triangle needs an edge on every side
    m = g.m
    threshold = math.isqrt(m) + (0 if math.isqrt(m) ** 2 == m else 1)

    deg = [[0] * g.nx, [0] * g.ny, [0] * g.nz]
    n_xy: dict[int, list[int]] = {}
    n_yx: dict[int, list[int]] = {}
    n_xz: dict[int, list[int]] = {}
    n_zx: dict[int, list[int]] = {}
    n_yz: dict[int, list[int]] = {}
    n_zy: dict[int, list[int]] = {}
    for i, j in g.xy:
        deg[0][i] += 1
        deg[1][j] += 1
        n_xy.setdefault(i, []).append(j)
        n_yx.setdefault(j, []).append(i)
    for i, j in g.xz:
        deg[0][i] += 1
        deg[2][j] += 1
        n_xz.setdefault(i, []).append(j)
        n_zx.setdefault(j, []).append(i)
    for i, j in g.yz:
        deg[1][i] += 1
        deg[2][j] += 1
        n_yz.setdefault(i, []).append(j)
        n_zy.setdefault(j, []).append(i)

    # ties at the threshold stay light
    heavy_x = {i for i in range(g.nx) if deg[0][i] > threshold}
    heavy_y = {j for j in range(g.ny) if deg[1][j] > threshold}
    heavy_z = {l for l in range(g.nz) if deg[2][l] > threshold}
    n_heavy = len(heavy_x) + len(heavy_y) + len(heavy_z)
    if threshold:
        assert n_heavy * threshold <= 2 * m, "heavy vertex bound violated"

    counts = [0] * g.nx
    xz = g.xz
    xy = g.xy
    yz = g.yz
    # light y: every triangle through it
    for x, y in g.xy:
        if y in heavy_y:
            continue
        for z in n_yz.get(y, ()):
            if (x, z) in xz:
                counts[x] += 1
    # heavy y, light z
    for x, z in g.xz:
        if z in heavy_z:
            continue
        for y in n_zy.get(z, ()):
            if y in heavy_y and (x, y) in xy:
                counts[x] += 1
    # heavy y, heavy z, light x
    for x in range(g.nx):
        if x in heavy_x:
            continue
        ys = [y for y in n_xy.get(x, ()) if y in heavy_y]
        zs = [z for z in n_xz.get(x, ()) if z in heavy_z]
        for y in ys:
            for z in zs:
                if (y, z) in yz:
                    counts[x] += 1
    # all heavy
    for x in heavy_x:
        ys = [y for y in n_xy.get(x, ()) if y in heavy_y]
        zs = [z for z in n_xz.get(x, ()) if z in heavy_z]
        for y in ys:
            for z in zs:
                if (y, z) in yz:
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
    if coeff[_S123]:
        out = [o + coeff[_S123] * t for o, t in zip(out, _count_all_triangles(g))]
    return out


_NO_EDGES: frozenset[tuple[int, int]] = frozenset()


def _classes(
    dom: Sequence[ObjectId], color: Mapping[ObjectId, int]
) -> tuple[dict[int, list[ObjectId]], dict[ObjectId, int]]:
    """The objects of each unary colour, and each object's index in its class."""
    by_color: dict[int, list[ObjectId]] = {}
    pos: dict[ObjectId, int] = {}
    for o in dom:
        cls = by_color.setdefault(color[o], [])
        pos[o] = len(cls)
        cls.append(o)
    return by_color, pos


def _buckets(
    col: Mapping[tuple[ObjectId, ObjectId], int],
    color_a: Mapping[ObjectId, int],
    color_b: Mapping[ObjectId, int],
    pos_a: Mapping[ObjectId, int],
    pos_b: Mapping[ObjectId, int],
) -> dict[tuple[int, int], dict[int, frozenset[tuple[int, int]]]]:
    """The coloured pairs (a, b) as in-class index pairs, by (class of a,
    class of b) and then by colour bits.  Bits 0 ("no atom holds") is never
    a pair's colour, so key 0 holds the union: the pairs of any colour."""
    lists: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for (a, b), bits in col.items():
        lists.setdefault((color_a[a], color_b[b], bits), []).append((pos_a[a], pos_b[b]))
    out: dict[tuple[int, int], dict[int, frozenset[tuple[int, int]]]] = {}
    for (ca, cb, bits), edges in lists.items():
        out.setdefault((ca, cb), {})[bits] = frozenset(edges)
    for per_bits in out.values():
        per_bits[0] = frozenset().union(*per_bits.values())
    return out


class _Residual3:
    """Counts psi(u) = #{(v, w) : body} for all u, given a partial assignment
    of every other variable.

    Step 1 corrects for atoms over all three free variables via per-u deltas,
    step 2 enumerates unary color classes, step 3 reduces each satisfying
    edge-color combination to a triangle count.  ``run`` buckets each pair's
    coloured pairs once (``_buckets``), so a graph reads only the edges of its
    class pairs.  A colour combination with a nonzero colour that no pair of
    its class pair has builds no graph, and a graph with an empty side costs
    no triangle pass.
    """

    def __init__(
        self,
        structure: RelationalStructure,
        formula: OptFormula,
        domains: Mapping[str, tuple[ObjectId, ...]],
        free: tuple[str, str, str],
    ):
        self.structure = structure
        self.formula = formula
        self.free = free
        self.domains = domains
        self.atoms = tuple(dict.fromkeys(atoms_of(formula.body)))
        u, v, w = free
        fixed = [a for a in self.atoms if not (set(a.args) & set(free))]
        assigned = {x for x in formula.opt_vars + formula.count_vars if x not in free}
        self.fixed_atoms = fixed
        self.single: dict[str, list[Atom]] = {u: [], v: [], w: []}
        self.pairs: dict[tuple[str, str], list[Atom]] = {
            (u, v): [],
            (u, w): [],
            (v, w): [],
        }
        self.triple_atoms: list[Atom] = []
        for a in self.atoms:
            fv = [x for x in free if x in a.args]
            if not fv:
                continue
            if len(fv) == 1:
                self.single[fv[0]].append(a)
            elif len(fv) == 2:
                self.pairs[tuple(fv)].append(a)
            else:
                self.triple_atoms.append(a)
        self.single_proj = {
            var: [ProjectedAtom(structure, a, assigned, (var,)) for a in atoms]
            for var, atoms in self.single.items()
        }
        self.pair_proj = {
            pr: [ProjectedAtom(structure, a, assigned, pr) for a in atoms]
            for pr, atoms in self.pairs.items()
        }
        self.triple_proj = [
            ProjectedAtom(structure, a, assigned, free) for a in self.triple_atoms
        ]
        self._memo: dict[tuple, bool] = {}
        # counts over every run, reported by multi_counting_opt's stats_out
        self.runs = 0
        self.graphs = 0
        self.empty_side = 0
        self.tables: set[int] = set()

    def _phi0(self, fixed_bits, bits_u, bits_v, bits_w, pair_bits) -> bool:
        """Body with three-free-variable atoms replaced by false."""
        key = (fixed_bits, bits_u, bits_v, bits_w, pair_bits)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        u, v, w = self.free
        values: dict[Atom, bool] = {a: False for a in self.triple_atoms}
        for i, a in enumerate(self.fixed_atoms):
            values[a] = bool(fixed_bits >> i & 1)
        for var, bits in ((u, bits_u), (v, bits_v), (w, bits_w)):
            for i, a in enumerate(self.single[var]):
                values[a] = bool(bits >> i & 1)
        off = 0
        for pr in ((u, v), (u, w), (v, w)):
            for i, a in enumerate(self.pairs[pr]):
                values[a] = bool(pair_bits >> (off + i) & 1)
            off += len(self.pairs[pr])
        out = eval_expr_table(self.formula.body, values)
        self._memo[key] = out
        return out

    def _colors(self, var: str, asn) -> dict[ObjectId, int]:
        sets = [p.query(asn) for p in self.single_proj[var]]
        out = {}
        for o in self.domains[var]:
            bits = 0
            for i, s in enumerate(sets):
                if (o,) in s:
                    bits |= 1 << i
            out[o] = bits
        return out

    def _pair_colors(self, pr, asn, dom_a, dom_b) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        da, db = set(dom_a), set(dom_b)
        for i, p in enumerate(self.pair_proj[pr]):
            for pair in p.query(asn):
                if pair[0] in da and pair[1] in db:
                    out[pair] = out.get(pair, 0) | 1 << i
        return out

    def run(self, asn: dict[str, ObjectId]) -> dict[ObjectId, int]:
        u, v, w = self.free
        dom_u = self.domains[u]
        dom_v = self.domains[v]
        dom_w = self.domains[w]
        fixed_bits = 0
        for i, a in enumerate(self.fixed_atoms):
            if _atom_truth(self.structure, a, asn):
                fixed_bits |= 1 << i

        color_u = self._colors(u, asn)
        color_v = self._colors(v, asn)
        color_w = self._colors(w, asn)
        by_color_u, pos_u = _classes(dom_u, color_u)
        by_color_v, pos_v = _classes(dom_v, color_v)
        by_color_w, pos_w = _classes(dom_w, color_w)
        uv_col = self._pair_colors((u, v), asn, dom_u, dom_v)
        uw_col = self._pair_colors((u, w), asn, dom_u, dom_w)
        vw_col = self._pair_colors((v, w), asn, dom_v, dom_w)
        uv_edges = _buckets(uv_col, color_u, color_v, pos_u, pos_v)
        uw_edges = _buckets(uw_col, color_u, color_w, pos_u, pos_w)
        vw_edges = _buckets(vw_col, color_v, color_w, pos_v, pos_w)

        uv_vals = sorted(set(uv_col.values()) | {0})
        uw_vals = sorted(set(uw_col.values()) | {0})
        vw_vals = sorted(set(vw_col.values()) | {0})

        self.runs += 1
        psi0 = {o: 0 for o in dom_u}
        for delta, us in by_color_u.items():
            for beta, vs in by_color_v.items():
                xy = uv_edges.get((delta, beta), {})
                for gamma, ws in by_color_w.items():
                    xz = uw_edges.get((delta, gamma), {})
                    yz = vw_edges.get((beta, gamma), {})
                    for alpha in product(uv_vals, uw_vals, vw_vals):
                        # a nonzero colour with no pair of these classes asks
                        # for an edge on an empty side: the graph counts 0
                        if (
                            alpha[0] and alpha[0] not in xy
                            or alpha[1] and alpha[1] not in xz
                            or alpha[2] and alpha[2] not in yz
                        ):
                            continue
                        if not self._phi0_at(delta, beta, gamma, alpha, fixed_bits):
                            continue
                        g = TripartiteGraph(
                            len(us),
                            len(vs),
                            len(ws),
                            xy.get(alpha[0], _NO_EDGES),
                            xz.get(alpha[1], _NO_EDGES),
                            yz.get(alpha[2], _NO_EDGES),
                        )
                        pattern = (
                            ((alpha[0] != 0) << 2)
                            | ((alpha[1] != 0) << 1)
                            | (alpha[2] != 0)
                        )
                        table = [0] * 8
                        table[pattern] = 1
                        self.graphs += 1
                        self.empty_side += not (g.xy and g.xz and g.yz)
                        self.tables.add(pattern)
                        for o, c in zip(us, triangle_counts(g, table)):
                            psi0[o] += c

        # step 1 correction: triples touched by a three-free-variable atom
        if self.triple_atoms:
            du, dv, dw = set(dom_u), set(dom_v), set(dom_w)
            candidates = set()
            for p in self.triple_proj:
                for t in p.query(asn):
                    if t[0] in du and t[1] in dv and t[2] in dw:
                        candidates.add(t)
            for t in candidates:
                asn2 = dict(asn)
                asn2[u], asn2[v], asn2[w] = t
                values = {a: _atom_truth(self.structure, a, asn2) for a in self.atoms}
                full = eval_expr_table(self.formula.body, values)
                values0 = dict(values)
                for a in self.triple_atoms:
                    values0[a] = False
                without = eval_expr_table(self.formula.body, values0)
                psi0[t[0]] -= int(without) - int(full)
        return psi0

    def _phi0_at(self, delta, beta, gamma, alpha, fixed_bits) -> bool:
        n_uv = len(self.pairs[(self.free[0], self.free[1])])
        n_uw = len(self.pairs[(self.free[0], self.free[2])])
        pair_bits = alpha[0] | alpha[1] << n_uv | alpha[2] << (n_uv + n_uw)
        return self._phi0(fixed_bits, delta, beta, gamma, pair_bits)


def multi_counting_opt(
    structure: RelationalStructure,
    formula: OptFormula,
    stats_out: dict | None = None,
) -> OptResult | None:
    """Exact optimum for two or more counting variables.

    Brute-forces all but the last three variables, then runs the corrected
    triangle-count residual.  ``stats_out``, when given, receives the
    residual's counts: ``runs`` (one per brute-forced assignment), ``graphs``
    (``triangle_counts`` calls), ``empty_side`` (graphs with an empty side,
    whose triangle pass is skipped) and ``tables`` (distinct truth tables).
    """
    if formula.ell < 2:
        raise UnsupportedShapeError("needs at least two counting variables")
    doms = resolve_domains(structure, formula, None)
    order = formula.opt_vars + formula.count_vars
    prefix = order[:-3]
    free = order[-3:]
    k = formula.k
    residual = _Residual3(structure, formula, doms, free)
    u_var = free[0]
    u_is_opt = u_var in formula.opt_vars

    table: dict[tuple[ObjectId, ...], int] = {}
    opt_prefix_len = min(k, len(prefix))

    def rec(depth: int, asn: dict[str, ObjectId]):
        if depth == len(prefix):
            per_u = residual.run(asn)
            opt_key = tuple(asn[x] for x in formula.opt_vars[:opt_prefix_len])
            if u_is_opt:
                for o, c in per_u.items():
                    key = opt_key + (o,)
                    table[key] = table.get(key, 0) + c
            else:
                total = sum(per_u.values())
                table[opt_key] = table.get(opt_key, 0) + total
            return
        var = prefix[depth]
        for o in doms[var]:
            asn[var] = o
            rec(depth + 1, asn)
        if doms[var]:
            del asn[var]

    # make sure every optimization tuple has an entry even if all zero
    opt_domains = [doms[x] for x in formula.opt_vars]
    result = None
    if all(opt_domains):
        rec(0, {})
        for key in product(*opt_domains):
            table.setdefault(key, 0)
        result = opt_of_table(table, formula.kind)
    if stats_out is not None:
        stats_out.update(
            runs=residual.runs,
            graphs=residual.graphs,
            empty_side=residual.empty_side,
            tables=len(residual.tables),
        )
    return result
