"""Exact reference solver: brute-force the leading variables, finish the last
two with a color-decomposition count.

The two-variable base case (u, w) colours each object by the truth of its
unary-like atoms and counts, per u, the w objects that satisfy the body.
Atoms that mention no assigned variable hold for the same objects and pairs
in every base case: ``P(y)`` colours the same w objects, and a mixed atom
over u and w alone (lift-sparse's ``E0(x2,y1)``) holds for the same static
pairs.  So a query colours them once and builds, per fixed-atom bit pattern,
one row: the count of every u of the domain from its static colour with
every w at its static colour, each static pair's delta
``phi(.., m) - phi(.., 0)`` at those colours folded in, and the row's total.
A base case then pays only for what its assignment moves:

- each w that an atom with an assigned variable colours moves from its
  static colour to a richer one, which shifts the count of a whole static u
  colour class by the same amount (added only to the classes where it is
  nonzero) and changes the delta of each of its static pairs, found through
  a w -> static partners index built once per query;
- each pair of a mixed atom with an assigned variable replaces the folded
  delta of the pair (zero where it is not static) with the delta at its
  full bits, the pair's static bits or-ed in;
- each u that an atom with an assigned variable colours is recounted from
  scratch: its class count at its full colour, that colour's shift and the
  delta of each of its pairs at the w's full bits.

With one counting variable the base case copies the row and applies the
shifts and corrections; with more, the caller needs only their sum, which is
the row's total plus each class shift times the class size plus the
corrections, with no per-u copy.  A guard whose first literal on u is
positive seeds the base case's u objects from that literal's records,
usually a few of them (deg(x1) for a lift side query's E(x1,x2)): each one
is recounted as above, so the query builds no row and no w -> partners
index, and its base cases walk no class, partner or other u.  A guard
whose literals on u are all negative narrows the u objects a base case
copies from the row and corrects.  The dynamic pairs
come from the records of those atoms, indexed by the values of the leading
variables and restricted to the query's domains once per index entry.  So
a base case costs one dict copy (none on the sum path, none where the u
objects are seeded) plus time in the records its assignment selects and in
the u classes it shifts, not in the domain of the counting variable.

Many assignments hand the base case the same inputs: an object with no
record of a dynamic atom reads what any other such object reads.  So the
walk keeps, per query, a memo keyed by all that a base case reads: the
fixed-atom bits, the values of each dynamic atom's fixed variables (None
where no atom over them has a record there), and the values the guard's
literals on u read.  A key whose values pin every leading variable belongs
to one assignment and is never stored, and a guard on u that alone pins
them (the lift's side queries) turns the memo off, so the memo holds only
keys that can recur.

This module is also the correctness oracle for everything else in the
package.

``BodyAtoms`` holds the atom bookkeeping this solver shares with the
multi-counting one (``relopt.fastcount``): it classifies the body's atoms by
the counted variables they mention, projects each atom once per set of bound
variables, memoizes the body's truth per class bits and builds the memo key
of a base case (``signature``).
``PreparedBaseline`` indexes the structure's relations for one formula once
and then answers queries over any domains; the pipeline keeps one per
(structure, formula) and queries it per domain, and the module functions
build one per call.  ``LeadingWalk``, the one recursion over the leading
variables, serves both solvers: ``values`` stores what it yields and
``opt_of_walk`` keeps a running best.  A guard narrows the loops, so the
tuples that fail it are never evaluated: a positive literal narrows the loop
of every variable it mentions to the values that extend the assignment so
far to one of its records, and a negative one filters its last variable's.

All inputs are immutable; the outer loop over the leading variable visits
disjoint prefixes, so it parallelizes with an associative max/min merge
(kept single-threaded here).
"""
from __future__ import annotations

from functools import partial
from itertools import combinations
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ContractError, UnsupportedShapeError
from .formula import Atom, Expr, OptFormula, atoms_of, check_schema, eval_expr_table
from .structure import ObjectId, RelationalStructure

Domains = Mapping[str, Sequence[ObjectId]]


class OptResult(NamedTuple):
    value: int
    witness: tuple[ObjectId, ...]


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


def _projection_key(
    atom: Atom, fixed_vars: Iterable[str], free_vars: Sequence[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The fixed variables the atom mentions, sorted, and its free ones in
    ``free_vars`` order: all a projection of the atom depends on."""
    args = atom.args
    fixed = tuple(sorted(set(fixed_vars).intersection(args)))
    return fixed, tuple(v for v in free_vars if v in args)


def _picker(keys: Sequence) -> Callable[[Any], tuple]:
    """The function that reads ``keys`` (positions or names) off a record or
    an assignment, as a tuple."""
    if not keys:
        return lambda _: ()
    if len(keys) == 1:
        (key,) = keys
        return lambda rec: (rec[key],)
    return itemgetter(*keys)


class ProjectedAtom:
    """Records of one atom grouped by the values of its fixed variables.

    ``query(assignment)`` returns the set of value tuples for the atom's free
    variables (in ``free_vars`` order, restricted to variables the atom
    actually uses) that make the atom true under the assignment.  A record
    whose columns of a repeated variable disagree makes the atom true under
    no assignment.
    """

    def __init__(
        self,
        structure: RelationalStructure,
        atom: Atom,
        fixed_vars: Iterable[str],
        free_vars: Sequence[str],
    ):
        self.fixed_key, self.present_free = _projection_key(atom, fixed_vars, free_vars)
        first = {v: atom.args.index(v) for v in atom.args}
        repeats = [(first[v], i) for i, v in enumerate(atom.args) if first[v] != i]
        key_of = _picker([first[v] for v in self.fixed_key])
        free_of = _picker([first[v] for v in self.present_free])
        by_fixed: dict[tuple, set[tuple]] = {}
        for rec in structure.relation(atom.pred).records:
            if repeats and any(rec[i] != rec[j] for i, j in repeats):
                continue
            key = key_of(rec)
            hits = by_fixed.get(key)
            if hits is None:
                hits = by_fixed[key] = set()
            hits.add(free_of(rec))
        self.by_fixed = by_fixed

    def query(self, assignment: Mapping[str, ObjectId]) -> set[tuple]:
        key = tuple(assignment[v] for v in self.fixed_key)
        return self.by_fixed.get(key, set())


Projections = Sequence[tuple[int, ProjectedAtom]]


class BodyAtoms:
    """The body's atoms for an engine that brute-forces the leading variables
    and counts the last ``free`` ones of the order.

    An atom's class is the tuple of the free variables it mentions, in
    order; ``classes`` lists every subset of them by size and then order,
    from ``()``, the fixed atoms, to all of them.  Atom i of ``atoms[c]`` is
    bit i of class c's bits.  ``split[c]`` holds the (bit, projection) pairs
    of class c with the leading variables bound: static (mentioning none of
    them, so the same in every assignment) and dynamic.  ``project`` builds
    each projection once, for the classes and for a caller's literals."""

    def __init__(self, structure: RelationalStructure, formula: OptFormula, free: int):
        self.structure = structure
        self.formula = formula
        order = formula.opt_vars + formula.count_vars
        bound, self.free = order[: len(order) - free], order[len(order) - free :]
        self.classes = tuple(
            c for size in range(free + 1) for c in combinations(self.free, size)
        )
        self.atoms: dict[tuple[str, ...], list[Atom]] = {c: [] for c in self.classes}
        self._false = dict.fromkeys(atoms_of(formula.body), False)
        for atom in self._false:
            self.atoms[tuple(v for v in self.free if v in atom.args)].append(atom)
        self._projections: dict[tuple, ProjectedAtom] = {}
        self.split: dict[tuple[str, ...], tuple[Projections, Projections]] = {}
        for c in self.classes[1:]:
            static, dynamic = [], []
            for i, atom in enumerate(self.atoms[c]):
                p = self.project(atom, bound, c)
                (dynamic if p.fixed_key else static).append((i, p))
            self.split[c] = static, dynamic
        # for ``signature``: bit j stands for the j-th bound variable, and
        # per fixed key of the dynamic projections, its picker, the records
        # of each projection with that key by its values, and its bits
        self._var_bit = {v: 1 << j for j, v in enumerate(bound)}
        by_key: dict[tuple[str, ...], list[dict]] = {}
        for c in self.classes[1:]:
            for _, p in self.split[c][1]:
                by_key.setdefault(p.fixed_key, []).append(p.by_fixed)
        self._dynamic = [
            (_picker(key), maps, self._pins(key)) for key, maps in by_key.items()
        ]
        # per class, each atom's argument picker and records, for ``bits``
        self._records = {
            c: [(_picker(a.args), structure.relation(a.pred).records) for a in atoms]
            for c, atoms in self.atoms.items()
        }
        # keyed by the class bit patterns that occur, so bounded by the queries
        self._truth: dict[tuple[int, ...], bool] = {}

    def project(
        self, atom: Atom, fixed_vars: Iterable[str], free_vars: Sequence[str]
    ) -> ProjectedAtom:
        """``ProjectedAtom(structure, atom, fixed_vars, free_vars)``, built
        once per (atom, fixed variables, free variables) it mentions."""
        key = (atom, *_projection_key(atom, fixed_vars, free_vars))
        p = self._projections.get(key)
        if p is None:
            p = ProjectedAtom(self.structure, atom, fixed_vars, free_vars)
            self._projections[key] = p
        return p

    def _pins(self, fixed_key: Sequence[str]) -> int:
        """The bits of the bound variables of a projection's fixed key."""
        return sum(self._var_bit[v] for v in fixed_key)

    def signature(
        self, reads: Sequence[ProjectedAtom] = ()
    ) -> Callable[[Mapping[str, ObjectId]], tuple | None] | None:
        """The memo key of a base case: all its assignment of the bound
        variables reads.  That is the fixed-atom bits; per fixed key of the
        dynamic projections of ``split``, its values, or None where no such
        projection has records for them (any such values select nothing);
        and the fixed-key values of ``reads``, the caller's own projections
        that the base case reads.  A walk visits each assignment once, so a
        key whose values pin every bound variable cannot recur: the key
        function returns None for it, and there is none (None) where
        ``reads`` alone pin them."""
        full = sum(self._var_bit.values())
        read_pins = 0
        for p in reads:
            read_pins |= self._pins(p.fixed_key)
        if read_pins == full:
            return None
        dynamic, bits = self._dynamic, self.bits
        read_keys = [_picker(p.fixed_key) for p in reads]

        def key(asn: Mapping[str, ObjectId]) -> tuple | None:
            pinned = read_pins
            parts = []
            for key_of, maps, pins in dynamic:
                values = key_of(asn)
                for by_fixed in maps:
                    if values in by_fixed:
                        parts.append(values)
                        pinned |= pins
                        break
                else:
                    parts.append(None)
            if pinned == full:
                return None
            return bits(asn), *parts, *(read(asn) for read in read_keys)

        return key

    def bits(self, asn: Mapping[str, ObjectId], c: tuple[str, ...] = ()) -> int:
        """The bits of the atoms of class ``c`` (by default the fixed ones)
        that hold under ``asn``, which assigns each of their variables."""
        out = 0
        for i, (args_of, records) in enumerate(self._records[c]):
            if args_of(asn) in records:
                out |= 1 << i
        return out

    def truth(self, bits: tuple[int, ...]) -> bool:
        """The body's truth where the atoms of the i-th class take the i-th
        bits; the atoms of the classes past ``bits`` are false."""
        hit = self._truth.get(bits)
        if hit is None:
            values = dict(self._false)
            for c, c_bits in zip(self.classes, bits):
                for i, atom in enumerate(self.atoms[c]):
                    values[atom] = bool(c_bits >> i & 1)
            hit = self._truth[bits] = eval_expr_table(self.formula.body, values)
        return hit


Prefixes = Iterator[tuple[tuple[ObjectId, ...], dict[ObjectId, int]]]


class LeadingWalk:
    """The brute force over the leading variables that both exact engines
    run: ``prefixes()`` yields (prefix, counts) per assignment of x1..x(k-1)
    that passes the guard, in lexicographic order; counts maps each xk of
    its domain that passes the guard, in domain order, to the value of
    prefix + (xk,).  The base case counts the last ``free`` variables:
    ``case(asn)`` maps each u, the first of them, that the guard lets
    through to its count, in domain order, and ``total(asn)`` is their sum.
    The loops before u run over ``doms``, narrowed by ``guard`` (per depth,
    the literals that ``PreparedBaseline._guard`` projects) within
    ``sets``.

    A walk reaches its base case through one of them: ``case`` where u is
    xk, else ``total``.  Two assignments with one ``key`` (a
    ``BodyAtoms.signature``) read the same, so ``memo`` answers the second
    from the first; it keeps only the keys that are not None and dies with
    the walk.  ``cases`` counts the base cases reached, ``reused`` those the
    memo answered."""

    def __init__(
        self,
        formula: OptFormula,
        free: int,
        case: Callable[[dict[str, ObjectId]], dict[ObjectId, int]],
        total: Callable[[dict[str, ObjectId]], int],
        doms: Mapping[str, Sequence[ObjectId]],
        sets: Sequence[set[ObjectId]] = (),
        guard: _Guard = (),
        key: Callable[[Mapping[str, ObjectId]], tuple | None] | None = None,
    ):
        self.order = formula.opt_vars + formula.count_vars
        self.last, self.base = formula.k - 1, len(self.order) - free  # xk's, u's depth
        self.run = case if self.base == self.last else total
        self.doms, self.sets, self.guard = doms, sets, guard
        self.key = key
        self.memo: dict[tuple, Any] = {}
        self.cases = self.reused = 0

    def prefixes(
        self, depth: int = 0, prefix: tuple[ObjectId, ...] = (), asn: dict | None = None
    ) -> Prefixes:
        asn = {} if asn is None else asn
        if depth < self.last:
            for o in self._assign(depth, asn):
                yield from self.prefixes(depth + 1, prefix + (o,), asn)
        elif depth == self.base:  # xk is the base case's u
            yield prefix, self._base_case(asn)
        else:
            yield prefix, {
                o: self._count(depth + 1, asn) for o in self._assign(depth, asn)
            }

    def _count(self, depth: int, asn: dict[str, ObjectId]) -> int:
        """The assignments from ``depth`` on that satisfy the body."""
        if depth == self.base:
            return self._base_case(asn)
        return sum(self._count(depth + 1, asn) for _ in self._assign(depth, asn))

    def _base_case(self, asn: dict[str, ObjectId]) -> Any:
        """The base case's counts or total, from the memo where an earlier
        assignment read the same."""
        self.cases += 1
        key = self.key(asn) if self.key else None
        if key is None:
            return self.run(asn)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self.run(asn)
        else:
            self.reused += 1
        return hit

    def _assign(self, depth: int, asn: dict[str, ObjectId]) -> Iterator[ObjectId]:
        """Each value the guard lets through, assigned in ``asn`` until the next."""
        var = self.order[depth]
        values = self.doms[var]
        if self.guard and self.guard[depth]:
            values = _narrow(self.guard[depth], asn, values, self.sets[depth])
        for o in values:
            asn[var] = o
            yield o
        asn.pop(var, None)


def opt_of_walk(prefixes: Prefixes, kind: str) -> OptResult | None:
    """The optimum and least witness of a walk's prefixes, or None, with no
    value table: the prefixes and each one's counts come in order, so the
    first optimum met, kept against every later tie, is the least witness."""
    is_max = kind == "max"
    pick = max if is_max else min
    best: OptResult | None = None
    for prefix, counts in prefixes:
        if not counts:
            continue
        value = pick(counts.values())
        if best is None or (value > best.value if is_max else value < best.value):
            last = next(o for o, c in counts.items() if c == value)
            best = OptResult(value, prefix + (last,))
    return best


class PreparedBaseline:
    """The baseline evaluator of one (structure, formula): its atoms
    (``BodyAtoms`` over u and w) and the mixed atoms' pair indexes are built
    once, and every query supplies its own domains."""

    def __init__(self, structure: RelationalStructure, formula: OptFormula):
        if formula.k + formula.ell < 2:
            raise UnsupportedShapeError("need at least two variables in total")
        check_schema(formula, structure)
        self.structure = structure
        self.formula = formula
        self.order = formula.opt_vars + formula.count_vars
        # the u-, w- and mixed atoms; the static u- and w-atoms colour the
        # same objects in every base case, so a query colours them once
        self.body = BodyAtoms(structure, formula, 2)
        self.u_var, self.w_var = u, w = self.body.free
        self.u_static, self.u_dynamic = self.body.split[u,]
        self.w_static, self.w_dynamic = self.body.split[w,]
        # per mixed atom, its (u, w) records as u -> w -> the atom's bit.  The
        # static atoms hold for the same pairs in every base case and are
        # merged into one map, the static pairs; a dynamic atom's records are
        # indexed by its fixed key's values, and a query restricts each entry
        # it reads to its domains once
        static, dynamic = self.body.split[u, w]
        self.mixed_static = _merge_pairs([_by_u(i, p).get((), {}) for i, p in static])
        self.mixed_dynamic = [(p.fixed_key, _by_u(i, p)) for i, p in dynamic]
        # keyed by the atom bit patterns that occur, so bounded by the queries
        self._delta_memo: dict[tuple, int] = {}
        # the projected literals of each guard queried so far
        self._guards: dict[tuple[tuple[Atom, bool], ...], _Guard] = {}
        # per (fixed, u, old w, new w) bits, the shift that moving one w makes
        self._move_memo: dict[tuple, int] = {}
        # work counts since construction: base cases reached (those a guard
        # over u empties included), those of them the walk's memo answered,
        # and the mixed-pair deltas the others applied (the rows' folded
        # deltas not included; where a positive guard literal seeds the u
        # objects, the pairs of the recounted ones)
        self.base_cases = 0
        self.reused = 0
        self.pair_deltas = 0

    def values(self, domains: Domains | None = None) -> dict[tuple[ObjectId, ...], int]:
        """Val(x1,...,xk) for every optimization tuple over the domains."""
        entries = {}
        for prefix, counts in self._walk(domains, ()):
            entries.update((prefix + (o,), c) for o, c in counts.items())
        return entries

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
        return opt_of_walk(self._walk(domains, tuple(guard)), self.formula.kind)

    def _walk(
        self, domains: Domains | None, guard: tuple[tuple[Atom, bool], ...]
    ) -> Prefixes:
        """The prefixes of one query's walk over its (u, w) base case, its
        base case keyed by what it reads, the literals on u included; the
        walk's counts are added to the evaluator's once it is done."""
        doms = resolve_domains(self.structure, self.formula, domains)
        sets = tuple(set(doms[v]) for v in self.order)
        dom_u, dom_w = sets[-2:]
        u_color = unary_colors(self.u_static, {}, dom_u)
        w_color = unary_colors(self.w_static, {}, dom_w)
        w_count: dict[int, int] = {0: len(dom_w) - len(w_color)}
        for bits in w_color.values():
            w_count[bits] = w_count.get(bits, 0) + 1
        if domains is None or not {self.u_var, self.w_var} & set(domains):
            static = self.mixed_static  # over every object: nothing to restrict
        else:
            static = _restrict(self.mixed_static, dom_u, dom_w)
        projected = self._guard(guard)
        seeded = bool(projected[-2]) and projected[-2][0][1]  # u's first literal is positive
        u_classes: dict[int, list[ObjectId]] = {}
        for uv in () if seeded else doms[self.u_var]:
            u_classes.setdefault(u_color.get(uv, 0), []).append(uv)
        partners: dict[ObjectId, list[ObjectId]] = {}
        for uv, m in () if seeded else static.items():
            for wv in m:
                partners.setdefault(wv, []).append(uv)
        q = _Query(
            doms, sets, u_color, w_color, w_count, u_classes, projected, seeded,
            static, partners, rows={}, counts={}, mixed={},
        )
        base = partial(self._base_case, q), partial(self._base_sum, q)
        key = self.body.signature([p for p, _ in q.guard[-2]])  # u's literals
        walk = LeadingWalk(self.formula, 2, *base, doms, sets, q.guard, key)
        yield from walk.prefixes()
        self.base_cases += walk.cases
        self.reused += walk.reused

    def _guard(self, guard: tuple[tuple[Atom, bool], ...]) -> _Guard:
        """Per depth, the projected literals that narrow its variable's loop,
        positive ones first: a positive literal's at every depth it
        mentions, a negative one's at its last."""
        if guard in self._guards:
            return self._guards[guard]
        order = self.order
        at_depth: list[list[tuple[ProjectedAtom, bool]]] = [[] for _ in order]
        for atom, want in guard:
            if not atom.args or not set(atom.args) <= set(self.formula.opt_vars):
                raise ContractError(
                    f"guard atom {atom} needs one or more optimization variables only"
                )
            depths = sorted({order.index(v) for v in atom.args})
            for d in depths if want else depths[-1:]:
                p = self.body.project(atom, order[:d], (order[d],))
                at_depth[d].append((p, want))
        for literals in at_depth:
            literals.sort(key=lambda literal: not literal[1])
        out = self._guards[guard] = tuple(map(tuple, at_depth))
        return out

    def _delta(self, fixed_bits, u_bits, w_bits, m_bits) -> int:
        """The change ``phi(.., m) - phi(.., 0)`` that one (u, w) pair with
        mixed bits m makes to the count of u."""
        key = (fixed_bits, u_bits, w_bits, m_bits)
        hit = self._delta_memo.get(key)
        if hit is None:
            truth = self.body.truth
            hit = truth(key) - truth((fixed_bits, u_bits, w_bits, 0))
            self._delta_memo[key] = hit
        return hit

    def _move(self, fixed_bits, u_bits, old, new) -> int:
        """The change ``phi(.., new, 0) - phi(.., old, 0)`` that one w moving
        from colour old to new makes to the count of a u of colour u_bits."""
        key = (fixed_bits, u_bits, old, new)
        hit = self._move_memo.get(key)
        if hit is None:
            truth = self.body.truth
            hit = truth((fixed_bits, u_bits, new, 0)) - truth((fixed_bits, u_bits, old, 0))
            self._move_memo[key] = hit
        return hit

    def _base_case(self, q: _Query, asn: dict[str, ObjectId]) -> dict[ObjectId, int]:
        """psi(u) = #{w : body} for every u in its domain that passes the
        guard.  Where a positive literal on u seeded the u objects, each one
        is recounted as ``_moves`` says, with no row; otherwise the count is
        a copy of the query's row for the fixed bits, shifted per static u
        colour class, corrected per u and with the recounted u objects
        replaced.  Empty, with nothing coloured, when the guard leaves no u."""
        us = None
        if q.guard[-2]:  # the literals of u, the second-last variable
            us = _narrow(q.guard[-2], asn, q.doms[self.u_var], q.sets[-2])
            if not us:
                return {}
        fixed_bits = self.body.bits(asn)
        if q.seeded:
            return self._moves(q, asn, fixed_bits, us)[1]
        row, _ = self._row(q, fixed_bits)
        shifts, counts, fix = self._moves(q, asn, fixed_bits)
        out = row.copy() if us is None else {uv: row[uv] for uv in us}
        for u_bits, s in shifts.items():
            for uv in q.u_classes[u_bits]:
                if uv in out:
                    out[uv] += s
        for uv, c in fix.items():
            if uv in out:
                out[uv] += c
        for uv, c in counts.items():
            if uv in out:
                out[uv] = c
        return out

    def _base_sum(self, q: _Query, asn: dict[str, ObjectId]) -> int:
        """The sum of ``_base_case``'s counts, for a u with no guard: the
        row's total plus each class shift times the class size plus the
        corrections, a recounted u's count replacing its row entry and class
        shift, with no per-u copy."""
        fixed_bits = self.body.bits(asn)
        row, total = self._row(q, fixed_bits)
        shifts, counts, fix = self._moves(q, asn, fixed_bits)
        for u_bits, s in shifts.items():
            total += s * len(q.u_classes[u_bits])
        for uv, c in counts.items():
            total += c - row[uv] - shifts.get(q.u_color.get(uv, 0), 0)
        return total + sum(fix.values())

    def _moves(
        self,
        q: _Query,
        asn: dict[str, ObjectId],
        fixed_bits: int,
        seeded: Sequence[ObjectId] | None = None,
    ) -> tuple[dict[int, int], dict[ObjectId, int], dict[ObjectId, int]]:
        """What the assignment changes: the nonzero shift of each static u
        colour class, the count of each u recounted, and per other u of the
        domain what to add to its row entry and class shift, where that is
        not zero.

        Each w with dynamic bits moves from its static colour to a richer
        one, which shifts the count of every u by the same amount per u
        colour.  A u is recounted from its full colour (static | dynamic):
        its class count there, plus that colour's shift, plus the delta of
        each of its pairs (static or-ed with dynamic) at the w's full bits.
        The u objects recounted are the ``seeded`` ones, in their order,
        where a positive guard literal on u seeded them; the base case reads
        nothing else, so no class shift, row or correction is made.  Else
        they are the u with dynamic bits, whose colour is another than their
        row entry's.  Of any other u, only a pair the assignment moves needs
        a correction, the delta at its full bits less the one folded into
        the row at static colours: a static pair of a moved w, found through
        the w -> static partners index, and a pair of a dynamic mixed atom,
        with the pair's static bits or-ed in.  Counts the pair deltas it
        applies."""
        u_static, w_static = q.u_color, q.w_color
        u_extra = unary_colors(self.u_dynamic, asn, q.sets[-2])
        w_extra = unary_colors(self.w_dynamic, asn, q.sets[-1])
        moves: dict[tuple[int, int], int] = {}
        for wv, bits in w_extra.items():
            old = w_static.get(wv, 0)
            moves[old, old | bits] = moves.get((old, old | bits), 0) + 1
        move, delta = self._move, self._delta
        shift_of: dict[int, int] = {}

        def shift(u_bits: int) -> int:
            s = shift_of.get(u_bits)
            if s is None:
                s = 0
                for (old, new), c in moves.items():
                    s += c * move(fixed_bits, u_bits, old, new)
                shift_of[u_bits] = s
            return s

        dynamic = self._pairs(q, asn)
        static = q.static
        recount = u_extra
        if seeded is not None:
            recount = {uv: u_extra.get(uv, 0) for uv in seeded}
        counts: dict[ObjectId, int] = {}
        applied = 0
        # per full colour of a recounted u, its count with no mixed atom true
        base_of: dict[int, int] = {}
        for uv, bits in recount.items():
            u_bits = u_static.get(uv, 0) | bits
            c = base_of.get(u_bits)
            if c is None:
                c = base_of[u_bits] = self._class_count(q, fixed_bits, u_bits) + shift(u_bits)
            pairs = static.get(uv)
            own = dynamic.get(uv)
            if own:
                pairs = _or_bits(pairs, own) if pairs else own
            if pairs:
                for wv, m_bits in pairs.items():
                    w_bits = w_static.get(wv, 0) | w_extra.get(wv, 0)
                    c += delta(fixed_bits, u_bits, w_bits, m_bits)
                applied += len(pairs)
            counts[uv] = c
        if seeded is not None:  # the base case reads nothing else
            self.pair_deltas += applied
            return {}, counts, {}
        shifts = {}
        if moves:
            for u_bits in q.u_classes:
                s = shift(u_bits)
                if s:
                    shifts[u_bits] = s
        fix: dict[ObjectId, int] = {}
        # the static pairs of each moved w ...
        partners = q.partners
        for wv, bits in w_extra.items() if partners else ():
            mine = partners.get(wv)
            if mine is None:
                continue
            old = w_static.get(wv, 0)
            for uv in mine:
                if uv in u_extra or wv in dynamic.get(uv, _NO_PAIRS):
                    continue
                m_bits = static[uv][wv]
                u_bits = u_static.get(uv, 0)
                d = delta(fixed_bits, u_bits, old | bits, m_bits) - delta(
                    fixed_bits, u_bits, old, m_bits
                )
                applied += 1
                if d:
                    fix[uv] = fix.get(uv, 0) + d
        # ... and the pairs of the dynamic mixed atoms
        for uv, own in dynamic.items():
            if uv in u_extra:
                continue
            u_bits = u_static.get(uv, 0)
            folded = static.get(uv, _NO_PAIRS)
            c = 0
            for wv, m_bits in own.items():
                old = w_static.get(wv, 0)
                s_bits = folded.get(wv, 0)
                c += delta(
                    fixed_bits, u_bits, old | w_extra.get(wv, 0), s_bits | m_bits
                ) - delta(fixed_bits, u_bits, old, s_bits)
            applied += len(own)
            if c:
                fix[uv] = fix.get(uv, 0) + c
        self.pair_deltas += applied
        return shifts, counts, fix

    def _row(self, q: _Query, fixed_bits: int) -> tuple[dict[ObjectId, int], int]:
        """The query's row for the fixed bits and the row's total.  The row
        maps every u of the domain, in domain order, to its count from its
        static colour with every w at its static colour, the delta of each
        of the u's static pairs at those colours included."""
        hit = q.rows.get(fixed_bits)
        if hit is not None:
            return hit
        u_color, w_color = q.u_color, q.w_color
        per_class = {a: self._class_count(q, fixed_bits, a) for a in q.u_classes}
        row = {uv: per_class[u_color.get(uv, 0)] for uv in q.doms[self.u_var]}
        delta = self._delta
        for uv, m in q.static.items():
            u_bits = u_color.get(uv, 0)
            row[uv] += sum(
                delta(fixed_bits, u_bits, w_color.get(wv, 0), m_bits)
                for wv, m_bits in m.items()
            )
        hit = q.rows[fixed_bits] = (row, sum(row.values()))
        return hit

    def _pairs(
        self, q: _Query, asn: dict[str, ObjectId]
    ) -> dict[ObjectId, dict[ObjectId, int]]:
        """Per u, its w objects that make at least one dynamic mixed atom
        true under the assignment, with their mixed bits.  Each atom's index
        entry is restricted to the query's domains once; several atoms' pairs
        are merged into a new dict, so the cached ones are never changed."""
        found = []
        for j, (fixed_key, index) in enumerate(self.mixed_dynamic):
            key = tuple(asn[v] for v in fixed_key)
            if key in index:
                atom_pairs = q.mixed.get((j, key))
                if atom_pairs is None:
                    atom_pairs = q.mixed[j, key] = _restrict(index[key], *q.sets[-2:])
                if atom_pairs:
                    found.append(atom_pairs)
        return _merge_pairs(found)

    def _class_count(self, q: _Query, fixed_bits: int, u_bits: int) -> int:
        """The count of a u of colour ``u_bits`` with no mixed atom true and
        every w at its static colour."""
        key = (fixed_bits, u_bits)
        cnt = q.counts.get(key)
        if cnt is None:
            cnt = q.counts[key] = sum(
                total
                for alpha, total in q.w_count.items()
                if self.body.truth((fixed_bits, u_bits, alpha, 0))
            )
        return cnt


# per depth, a guard's projected literals on that variable, positive ones first
_Guard = tuple[tuple[tuple[ProjectedAtom, bool], ...], ...]


def _narrow(
    literals: Sequence[tuple[ProjectedAtom, bool]],
    asn: Mapping[str, ObjectId],
    values: Sequence[ObjectId],
    value_set: set[ObjectId],
) -> Sequence[ObjectId]:
    """The sorted values that the literals let through under ``asn``: a
    leading positive one's hits within ``value_set`` replace them, and each
    other one keeps its hits, or its misses if it is negative."""
    for i, (p, want) in enumerate(literals):
        hits = p.query(asn)
        if i == 0 and want:
            values = sorted(v for (v,) in hits if v in value_set)
        else:
            values = [v for v in values if ((v,) in hits) == want]
    return values


class _Query(NamedTuple):
    """One query's domains, in order per variable and as sets per depth;
    the static colours (those of the u- and w-atoms that mention no
    assigned variable), the number of w objects per static colour (colour 0
    included) and the u objects of the domain per static colour, in domain
    order (none where the guard seeds u, as no base case reads a class
    then); the guard, as ``PreparedBaseline._guard`` projects it, and
    whether its first literal on u is positive, so that it seeds the u
    objects; the static pairs within the domains, as u -> w -> mixed bits
    (the evaluator's own map, never changed, where no domain restricts u or
    w), and per w its static partners, the u objects of its static pairs
    (none where the guard seeds u, as no base case reads them then); and
    the caches of its base cases, which die with the query:

    - ``rows``: per fixed-atom bit pattern, the row and its total.  The row
      is the count of every u of the domain from its static colour with
      every w at its static colour, each static pair's delta
      ``phi(.., m) - phi(.., 0)`` at those colours folded in;
    - ``counts``: the count with no mixed atom true per (fixed, u) bits, for
      any u colour;
    - ``mixed``: per (dynamic mixed atom, fixed key values), the atom's
      (u, w) records within the domains, as u -> w -> the atom's bit.
    """

    doms: Mapping[str, tuple[ObjectId, ...]]
    sets: tuple[set[ObjectId], ...]
    u_color: dict[ObjectId, int]
    w_color: dict[ObjectId, int]
    w_count: dict[int, int]
    u_classes: dict[int, list[ObjectId]]
    guard: _Guard
    seeded: bool
    static: dict[ObjectId, dict[ObjectId, int]]
    partners: dict[ObjectId, list[ObjectId]]
    rows: dict[int, tuple[dict[ObjectId, int], int]]
    counts: dict[tuple[int, int], int]
    mixed: dict[tuple[int, tuple], dict[ObjectId, dict[ObjectId, int]]]


def _by_u(i: int, p: ProjectedAtom) -> dict[tuple, dict[ObjectId, dict[ObjectId, int]]]:
    """A mixed atom's (u, w) records per fixed key, as u -> w -> bit i."""
    index: dict[tuple, dict[ObjectId, dict[ObjectId, int]]] = {}
    for key, pairs in p.by_fixed.items():
        by_u = index[key] = {}
        for uv, wv in pairs:
            by_u.setdefault(uv, {})[wv] = 1 << i
    return index


def unary_colors(
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


_NO_PAIRS: Mapping[ObjectId, int] = {}


def _restrict(
    by_u: Mapping[ObjectId, Mapping[ObjectId, int]],
    dom_u: set[ObjectId],
    dom_w: set[ObjectId],
) -> dict[ObjectId, dict[ObjectId, int]]:
    """The (u, w) pairs of ``by_u``, as u -> w -> mixed bits, within the
    domains."""
    out = {}
    for uv, m in by_u.items():
        if uv in dom_u:
            kept = {wv: m_bits for wv, m_bits in m.items() if wv in dom_w}
            if kept:
                out[uv] = kept
    return out


def _or_bits(a: Mapping[ObjectId, int], b: Mapping[ObjectId, int]) -> dict[ObjectId, int]:
    """The union of two w -> mixed bits maps, the bits of a w in both or-ed."""
    out = dict(a)
    for wv, m_bits in b.items():
        out[wv] = out.get(wv, 0) | m_bits
    return out


def _merge_pairs(
    found: Sequence[dict[ObjectId, dict[ObjectId, int]]]
) -> dict[ObjectId, dict[ObjectId, int]]:
    """The union of the pairs of several mixed atoms, their bits or-ed: a
    new map, unless there is one atom, whose own map it returns."""
    if len(found) == 1:
        return found[0]
    merged: dict[ObjectId, dict[ObjectId, int]] = {}
    for atom_pairs in found:
        for uv, m in atom_pairs.items():
            merged[uv] = _or_bits(merged.get(uv, _NO_PAIRS), m)
    return merged


def baseline_values(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
) -> dict[tuple[ObjectId, ...], int]:
    """Val(x1,...,xk) for every optimization tuple over the given domains."""
    return PreparedBaseline(structure, formula).values(domains)


def baseline_opt(
    structure: RelationalStructure,
    formula: OptFormula,
    domains: Domains | None = None,
    stats_out: dict | None = None,
) -> OptResult | None:
    """Optimum and lexicographically least witness; None if no tuple exists.
    ``stats_out``, when given, receives the work counts: ``base_cases``
    reached, ``reused``, those of them the walk's memo answered, and
    ``pair_deltas``, the mixed-pair deltas the others applied.  A query of
    ``PreparedBaseline.opt`` whose guard seeds the u objects with a positive
    literal counts the pairs of the u objects it recounts."""
    evaluator = PreparedBaseline(structure, formula)
    res = evaluator.opt(domains)
    if stats_out is not None:
        stats_out.update(
            base_cases=evaluator.base_cases,
            reused=evaluator.reused,
            pair_deltas=evaluator.pair_deltas,
        )
    return res


def opt_of_table(
    entries: Mapping[tuple[ObjectId, ...], int], kind: str
) -> OptResult | None:
    """``opt_of_walk`` over a table, each key a prefix and its last value."""
    walk = ((key[:-1], {key[-1]: entries[key]}) for key in sorted(entries))
    return opt_of_walk(walk, kind)


def guard_holds(
    structure: RelationalStructure,
    guard: Sequence[tuple[Atom, bool]],
    assignment: Mapping[str, ObjectId],
) -> bool:
    return all(
        (tuple(assignment[v] for v in a.args) in structure.relation(a.pred).records)
        == want
        for a, want in guard
    )


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
) -> dict[tuple[ObjectId, ...], int]:
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
    return entries
