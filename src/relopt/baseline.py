"""Exact reference solver: brute-force the leading variables, finish the last
two with a color-decomposition count.

The two-variable base case groups the counting domain by the truth pattern of
its unary-like atoms and counts pair patterns only for pairs occurring in some
positive record; absent pairs are recovered from the complement identity
``C(x; a, 0) = |Y_a| - sum_b C(x; a, b)``.  Only objects in some record the
assignment selects are coloured; the rest of a domain is colour 0, counted by
complement, so a base case costs time in the domain of its first variable and
in those records, not in the domain of the counting variable.  Atoms that
mention no assigned variable (such as ``P(y)``) colour the same objects in
every base case: a query colours them, and counts the counting domain per
their colours, once, and a base case adds only the bits of the other atoms.
This module is also the correctness oracle for everything else in the
package.

``PreparedBaseline`` indexes the structure's relations for one formula once
and then answers queries over any domains; the pipeline keeps one per
(structure, formula) and queries it per domain, and the module functions
build one per call.  A query's guard is applied during the iteration, so the
tuples that fail it are never evaluated: a literal over the base case's
first variable restricts that variable's loop through a projection of its
atom, cached per guard, and any other literal is checked once per
assignment of its last variable.

All inputs are immutable; the outer loop over the leading variable touches
disjoint table slices, so it parallelizes with an associative max/min merge
(kept single-threaded here).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import UnsupportedShapeError
from .formula import Atom, Expr, OptFormula, atoms_of, eval_expr_table
from .structure import ObjectId, RelationalStructure

Domains = Mapping[str, Sequence[ObjectId]]


class OptResult(NamedTuple):
    value: int
    witness: tuple[ObjectId, ...]


@dataclass
class ValueTable:
    """Values of all optimization tuples: entries[(x1, ..., xk)] = count."""

    entries: dict[tuple[ObjectId, ...], int]

    def dump(self, structure: RelationalStructure) -> str:
        lines = []
        for key in sorted(self.entries):
            labs = " ".join(structure.labels[x] for x in key)
            lines.append(f"{labs} {self.entries[key]}")
        return "\n".join(lines) + ("\n" if lines else "")


def resolve_domains(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None,
) -> dict[str, tuple[ObjectId, ...]]:
    everything = tuple(range(structure.n))
    out = {}
    for v in formula.opt_vars + formula.count_vars:
        if domains is not None and v in domains:
            out[v] = tuple(sorted(set(domains[v])))
        else:
            out[v] = everything
    return out


class ProjectedAtom:
    """Records of one atom grouped by the values of its fixed variables.

    ``query(assignment)`` returns the set of value tuples for the atom's free
    variables (in ``free_vars`` order, restricted to variables the atom
    actually uses) that make the atom true under the assignment.
    """

    def __init__(
        self,
        structure: RelationalStructure,
        atom: Atom,
        fixed_vars: Iterable[str],
        free_vars: Sequence[str],
    ):
        fixed = set(fixed_vars)
        args = atom.args
        self.fixed_key = tuple(sorted({v for v in args if v in fixed}))
        self.present_free = tuple(v for v in free_vars if v in args)
        by_fixed: dict[tuple, set[tuple]] = {}
        for rec in structure.relation(atom.pred).records:
            vals: dict[str, ObjectId] = {}
            ok = True
            for v, x in zip(args, rec):
                if vals.setdefault(v, x) != x:
                    ok = False
                    break
            if not ok:
                continue
            key = tuple(vals[v] for v in self.fixed_key)
            free_val = tuple(vals[v] for v in self.present_free)
            by_fixed.setdefault(key, set()).add(free_val)
        self.by_fixed = by_fixed

    def query(self, assignment: Mapping[str, ObjectId]) -> set[tuple]:
        key = tuple(assignment[v] for v in self.fixed_key)
        return self.by_fixed.get(key, set())


def _atom_truth(
    structure: RelationalStructure, atom: Atom, assignment: Mapping[str, ObjectId]
) -> bool:
    rec = tuple(assignment[v] for v in atom.args)
    return rec in structure.relation(atom.pred).records


class PreparedBaseline:
    """The baseline evaluator of one (structure, formula): the relation
    indexes and the body-truth memo are built once, and every query supplies
    its own domains."""

    def __init__(self, structure: RelationalStructure, formula: OptFormula):
        if formula.k + formula.ell < 2:
            raise UnsupportedShapeError("need at least two variables in total")
        self.structure = structure
        self.formula = formula
        self.order = formula.opt_vars + formula.count_vars
        self.atoms = tuple(dict.fromkeys(atoms_of(formula.body)))
        u, w = self.order[-2], self.order[-1]
        assigned = set(self.order[:-2])
        self.u_var, self.w_var = u, w
        self.fixed_atoms = []
        self.u_atoms = []
        self.w_atoms = []
        self.mixed_atoms = []
        for atom in self.atoms:
            vs = set(atom.args)
            if u in vs and w in vs:
                self.mixed_atoms.append(atom)
            elif u in vs:
                self.u_atoms.append(atom)
            elif w in vs:
                self.w_atoms.append(atom)
            else:
                self.fixed_atoms.append(atom)
        # (bit, projection) per u- and w-atom, split by whether the atom
        # mentions an assigned variable: the others colour the same objects in
        # every base case, so a query colours them once
        self.u_static, self.u_dynamic = _split(
            ProjectedAtom(structure, a, assigned, (u,)) for a in self.u_atoms
        )
        self.w_static, self.w_dynamic = _split(
            ProjectedAtom(structure, a, assigned, (w,)) for a in self.w_atoms
        )
        self.mixed_proj = [
            ProjectedAtom(structure, a, assigned, (u, w)) for a in self.mixed_atoms
        ]
        # keyed by the atom bit patterns that occur, so bounded by the queries
        self._phi_memo: dict[tuple, bool] = {}
        # the applied form of each guard queried so far
        self._guards: dict[tuple[tuple[Atom, bool], ...], _Guard] = {}

    def values(self, domains: Domains | None = None) -> ValueTable:
        """Val(x1,...,xk) for every optimization tuple over the domains."""
        return ValueTable(self._table(domains, self._guard(())))

    def opt(
        self,
        domains: Domains | None = None,
        guard: Sequence[tuple[Atom, bool]] = (),
    ) -> OptResult | None:
        """Optimum and lexicographically least witness over the optimization
        tuples satisfying every guard literal; None if no tuple does.

        The guard literals must mention optimization variables only.  This is
        the domain-restricted semantics the decomposition steps need: for
        minimization a conjunction inside the body would masquerade excluded
        tuples as value 0, so exclusion must happen at the tuple level.  The
        tuples that fail the guard are never evaluated.
        """
        table = self._table(domains, self._guard(tuple(guard)))
        return opt_of_table(table, self.formula.kind)

    def _table(self, domains: Domains | None, guard: _Guard) -> dict:
        """The value table of the tuples over the domains that pass the
        guard."""
        doms = resolve_domains(self.structure, self.formula, domains)
        dom_u, dom_w = set(doms[self.u_var]), set(doms[self.w_var])
        u_color = _colors(self.u_static, {}, dom_u)
        w_color = _colors(self.w_static, {}, dom_w)
        w_count: dict[int, int] = {0: len(dom_w) - len(w_color)}
        for bits in w_color.values():
            w_count[bits] = w_count.get(bits, 0) + 1
        query = _Query(doms, dom_u, dom_w, u_color, w_color, w_count, guard)
        table = self._run(query, 0, {})
        assert isinstance(table, dict)
        return table

    def _guard(self, guard: tuple[tuple[Atom, bool], ...]) -> _Guard:
        """The guard's literals, each checked as soon as its variables are
        assigned: a literal over the base case's u restricts the u loop
        through a projection of its atom, any other is checked at the depth
        of its last variable."""
        hit = self._guards.get(guard)
        if hit is not None:
            return hit
        order = self.order
        k = self.formula.k
        at_depth: list[list[tuple[Atom, bool]]] = [[] for _ in range(k)]
        on_u = []
        for atom, want in guard:
            if not set(atom.args) <= set(self.formula.opt_vars):
                raise ValueError(f"guard atom {atom} uses non-optimization variables")
            if self.u_var in atom.args:
                p = ProjectedAtom(self.structure, atom, order[:-2], (self.u_var,))
                on_u.append((p, want))
            else:
                last = max((order.index(v) for v in atom.args), default=0)
                at_depth[last].append((atom, want))
        out = _Guard(tuple(map(tuple, at_depth)), tuple(on_u))
        self._guards[guard] = out
        return out

    def _phi(self, fixed_bits, u_bits, w_bits, m_bits) -> bool:
        key = (fixed_bits, u_bits, w_bits, m_bits)
        hit = self._phi_memo.get(key)
        if hit is not None:
            return hit
        values: dict[Atom, bool] = {}
        for i, a in enumerate(self.fixed_atoms):
            values[a] = bool(fixed_bits >> i & 1)
        for i, a in enumerate(self.u_atoms):
            values[a] = bool(u_bits >> i & 1)
        for i, a in enumerate(self.w_atoms):
            values[a] = bool(w_bits >> i & 1)
        for i, a in enumerate(self.mixed_atoms):
            values[a] = bool(m_bits >> i & 1)
        out = eval_expr_table(self.formula.body, values)
        self._phi_memo[key] = out
        return out

    def _base_case(self, q: _Query, asn: dict[str, ObjectId]) -> dict[ObjectId, int]:
        """psi(u) = #{w : body} for every u in its domain that passes the
        guard, in time linear in the domain of u and the records the
        assignment selects."""
        fixed_bits = 0
        for i, a in enumerate(self.fixed_atoms):
            if _atom_truth(self.structure, a, asn):
                fixed_bits |= 1 << i
        us = q.doms[self.u_var]
        for p, want in q.guard.on_u:
            hits = p.query(asn)
            us = [uv for uv in us if ((uv,) in hits) == want]
        # only objects some u- or w-atom holds for get a colour; every other
        # object of the domain has colour 0.  The query coloured the objects
        # of atoms without assigned variables; add the bits of the others.
        u_static, w_static = q.u_color, q.w_color
        u_extra = _colors(self.u_dynamic, asn, q.dom_u)
        w_extra = _colors(self.w_dynamic, asn, q.dom_w)
        color_count = q.w_count
        if w_extra:
            color_count = dict(color_count)
            for wv, bits in w_extra.items():
                old = w_static.get(wv, 0)
                color_count[old] -= 1
                color_count[old | bits] = color_count.get(old | bits, 0) + 1

        # pairs that make at least one mixed atom true
        pair_bits: dict[tuple[ObjectId, ObjectId], int] = {}
        for i, p in enumerate(self.mixed_proj):
            for pair in p.query(asn):
                uv, wv = pair
                if uv in q.dom_u and wv in q.dom_w:
                    pair_bits[uv, wv] = pair_bits.get((uv, wv), 0) | 1 << i

        # per-u counters C(u; alpha, beta) for beta != 0
        counters: dict[ObjectId, dict[tuple[int, int], int]] = {}
        for (uv, wv), m_bits in pair_bits.items():
            key = (w_static.get(wv, 0) | w_extra.get(wv, 0), m_bits)
            c = counters.setdefault(uv, {})
            c[key] = c.get(key, 0) + 1

        # per u colour, the count if no pair made a mixed atom true; each
        # counted pair then moves from its colour's (alpha, 0) class to
        # (alpha, beta), since C(u; alpha, 0) = |W_alpha| - sum_beta C(u; alpha, beta)
        edgeless: dict[int, int] = {}
        out = {}
        for uv in us:
            u_bits = u_static.get(uv, 0) | u_extra.get(uv, 0)
            cnt = edgeless.get(u_bits)
            if cnt is None:
                cnt = sum(
                    total
                    for alpha, total in color_count.items()
                    if self._phi(fixed_bits, u_bits, alpha, 0)
                )
                edgeless[u_bits] = cnt
            for (alpha, m_bits), c in counters.get(uv, {}).items():
                cnt += c * (
                    self._phi(fixed_bits, u_bits, alpha, m_bits)
                    - self._phi(fixed_bits, u_bits, alpha, 0)
                )
            out[uv] = cnt
        return out

    def _run(self, q: _Query, depth: int, asn: dict[str, ObjectId]):
        """Returns a dict over remaining-opt-variable tuples, or an int when
        only counting variables remain."""
        doms = q.doms
        remaining = len(self.order) - depth
        k = self.formula.k
        if remaining == 2:
            per_u = self._base_case(q, asn)
            if depth <= k - 1:  # order[depth] is an optimization variable
                return {(uv,): c for uv, c in per_u.items()}
            return sum(per_u.values())
        var = self.order[depth]
        if depth < k:
            checks = q.guard.at_depth[depth]
            table: dict[tuple, int] = {}
            for o in doms[var]:
                asn[var] = o
                if checks and not guard_holds(self.structure, checks, asn):
                    continue
                sub = self._run(q, depth + 1, asn)
                if isinstance(sub, dict):
                    for key, val in sub.items():
                        table[(o,) + key] = val
                else:
                    table[(o,)] = sub
            if doms[var]:
                del asn[var]
            return table
        total = 0
        for o in doms[var]:
            asn[var] = o
            total += self._run(q, depth + 1, asn)
        if doms[var]:
            del asn[var]
        return total


class _Guard(NamedTuple):
    """A guard as ``PreparedBaseline`` applies it: per depth below k, the
    literals whose last variable is assigned there, and the projected
    literals over the base case's u."""

    at_depth: tuple[tuple[tuple[Atom, bool], ...], ...]
    on_u: tuple[tuple[ProjectedAtom, bool], ...]


class _Query(NamedTuple):
    """One query's domains, with the last two as sets; the colours of the
    u- and w-atoms that mention no assigned variable, with the number of
    w objects per such colour (colour 0 included); and the guard."""

    doms: Mapping[str, tuple[ObjectId, ...]]
    dom_u: set[ObjectId]
    dom_w: set[ObjectId]
    u_color: dict[ObjectId, int]
    w_color: dict[ObjectId, int]
    w_count: dict[int, int]
    guard: _Guard


Projections = Sequence[tuple[int, ProjectedAtom]]


def _split(projections: Iterable[ProjectedAtom]) -> tuple[Projections, Projections]:
    """(bit, projection) pairs of the projections without and with fixed
    variables."""
    static, dynamic = [], []
    for i, p in enumerate(projections):
        (dynamic if p.fixed_key else static).append((i, p))
    return static, dynamic


def _colors(
    projections: Projections,
    asn: Mapping[str, ObjectId],
    domain: set[ObjectId],
) -> dict[ObjectId, int]:
    """Bit i set for the objects of ``domain`` atom i holds for under the
    assignment; objects with no bit set are left out."""
    color: dict[ObjectId, int] = {}
    for i, p in projections:
        for (v,) in p.query(asn):
            if v in domain:
                color[v] = color.get(v, 0) | 1 << i
    return color


def baseline_values(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> ValueTable:
    """Val(x1,...,xk) for every optimization tuple over the given domains."""
    return PreparedBaseline(structure, formula).values(domains)


def baseline_opt(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> OptResult | None:
    """Optimum and lexicographically least witness; None if no tuple exists."""
    table = baseline_values(structure, formula, domains)
    return opt_of_table(table.entries, formula.kind)


def opt_of_table(
    entries: Mapping[tuple[ObjectId, ...], int], kind: str
) -> OptResult | None:
    best: OptResult | None = None
    for key in sorted(entries):
        val = entries[key]
        if best is None or (val > best.value if kind == "max" else val < best.value):
            best = OptResult(val, key)
    return best


def guard_holds(
    structure: RelationalStructure,
    guard: Sequence[tuple[Atom, bool]],
    assignment: Mapping[str, ObjectId],
) -> bool:
    return all(_atom_truth(structure, a, assignment) == want for a, want in guard)


def baseline_opt_restricted(
    structure: RelationalStructure,
    formula: OptFormula,
    guard: Sequence[tuple[Atom, bool]],
    domains: Domains | None = None,
) -> OptResult | None:
    """Optimum over optimization tuples satisfying all guard literals; see
    ``PreparedBaseline.opt``."""
    return PreparedBaseline(structure, formula).opt(domains, guard)


def naive_values(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> ValueTable:
    """Plain nested-loop evaluation; exponential, for cross-checks only."""
    from .formula import evaluate_body
    from itertools import product

    doms = resolve_domains(structure, formula, domains)
    opt_doms = [doms[v] for v in formula.opt_vars]
    cnt_doms = [doms[v] for v in formula.count_vars]
    entries = {}
    for xs in product(*opt_doms):
        asn = dict(zip(formula.opt_vars, xs))
        total = 0
        for ys in product(*cnt_doms):
            asn.update(zip(formula.count_vars, ys))
            total += evaluate_body(formula, structure, asn)
        entries[xs] = total
    return ValueTable(entries)
