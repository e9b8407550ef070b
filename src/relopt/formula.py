"""Parser, printer and structural analysis for the optimization-query DSL.

Concrete syntax::

    ("max" | "min") varlist "." "count" varlist "." expr

where ``expr`` is built from atoms ``Name(v1,...,va)``, the constants
``true``/``false``, negation ``!``, conjunction ``&``, disjunction ``|`` and
parentheses.  ``&`` binds tighter than ``|``.  The canonical printer emits one
space around the ``.`` separators and no redundant parentheses; printing and
re-parsing is a fixpoint.  Chains of ``&`` and ``|`` parse into balanced
trees, and parentheses and negations may nest at most ``MAX_NESTING`` deep,
so every recursive walker stays shallow.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ContractError, FormulaParseError, SchemaError
from .structure import ObjectId, RelationalStructure


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Atom | Const | Not | And | Or

TRUE = Const(True)
FALSE = Const(False)


def atoms_of(expr: Expr) -> Iterator[Atom]:
    """All atom occurrences, left to right."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Atom):
            yield e
        elif isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (And, Or)):
            stack.append(e.right)
            stack.append(e.left)


def _balanced(parts: list[Expr], node) -> Expr:
    # balanced tree keeps recursive walkers at logarithmic depth even for the
    # wide disjunctions the reductions generate
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_balanced(parts[:mid], node), _balanced(parts[mid:], node))


def conjoin(parts: list[Expr]) -> Expr:
    if not parts:
        return TRUE
    return _balanced(list(parts), And)


def disjoin(parts: list[Expr]) -> Expr:
    if not parts:
        return FALSE
    return _balanced(list(parts), Or)


def map_atoms(expr: Expr, fn) -> Expr:
    """Rebuild the expression, applying ``fn`` to every atom."""
    if isinstance(expr, Atom):
        return fn(expr)
    if isinstance(expr, Not):
        return Not(map_atoms(expr.arg, fn))
    if isinstance(expr, And):
        return And(map_atoms(expr.left, fn), map_atoms(expr.right, fn))
    if isinstance(expr, Or):
        return Or(map_atoms(expr.left, fn), map_atoms(expr.right, fn))
    return expr


@dataclass(frozen=True)
class OptFormula:
    """A parsed ``opt`` formula: kind, optimization and counting variables,
    and a quantifier-free Boolean body."""

    kind: str  # "max" | "min"
    opt_vars: tuple[str, ...]
    count_vars: tuple[str, ...]
    body: Expr

    def __post_init__(self):
        if self.kind not in ("max", "min"):
            raise ContractError(f"kind must be max or min, got {self.kind!r}")
        if not self.opt_vars or not self.count_vars:
            raise ContractError("need at least one optimization and one counting variable")
        declared = self.opt_vars + self.count_vars
        if len(set(declared)) != len(declared):
            raise ContractError("duplicate variable name")
        free = {v for atom in atoms_of(self.body) for v in atom.args}
        unbound = free - set(declared)
        if unbound:
            raise ContractError(f"unbound variables: {sorted(unbound)}")

    @property
    def k(self) -> int:
        return len(self.opt_vars)

    @property
    def ell(self) -> int:
        return len(self.count_vars)

    def with_body(self, body: Expr) -> "OptFormula":
        return OptFormula(self.kind, self.opt_vars, self.count_vars, body)

    def __str__(self) -> str:
        return (
            f"{self.kind} {','.join(self.opt_vars)} . "
            f"count {','.join(self.count_vars)} . {print_expr(self.body)}"
        )


# --- printing --------------------------------------------------------------

def print_expr(expr: Expr, _level: int = 0) -> str:
    # levels: 0 = or-context, 1 = and-context, 2 = negation/primary
    if isinstance(expr, Const):
        return "true" if expr.value else "false"
    if isinstance(expr, Atom):
        return f"{expr.pred}({','.join(expr.args)})"
    if isinstance(expr, Not):
        return "!" + print_expr(expr.arg, 2)
    if isinstance(expr, And):
        s = f"{print_expr(expr.left, 1)} & {print_expr(expr.right, 1)}"
        return f"({s})" if _level >= 2 else s
    if isinstance(expr, Or):
        s = f"{print_expr(expr.left, 0)} | {print_expr(expr.right, 0)}"
        return f"({s})" if _level >= 1 else s
    raise TypeError(f"not an expression: {expr!r}")


# --- parsing ---------------------------------------------------------------

# each level of parentheses or negation is a few frames of recursion in the
# parser and in every expression walker
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[().,&|!]))")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok: str | None = None
        self.tok_pos = 0
        self.depth = 0  # open parentheses and negations around the token
        self.advance()

    def advance(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].strip()
            if rest:
                raise FormulaParseError(f"unexpected character {rest[0]!r}", self.pos)
            self.tok = None
            self.tok_pos = len(self.text)
            return
        self.tok = m.group("ident") or m.group("sym")
        self.tok_pos = m.start("ident") if m.group("ident") else m.start("sym")
        self.pos = m.end()

    def expect(self, tok: str):
        if self.tok != tok:
            raise FormulaParseError(f"expected {tok!r}, got {self.tok!r}", self.tok_pos)
        self.advance()

    def ident(self) -> str:
        tok = self.tok
        if tok is None or not tok[0].isalpha() and tok[0] != "_":
            raise FormulaParseError(f"expected identifier, got {tok!r}", self.tok_pos)
        self.advance()
        return tok


def _parse_varlist(lx: _Lexer) -> tuple[str, ...]:
    out = [lx.ident()]
    while lx.tok == ",":
        lx.advance()
        out.append(lx.ident())
    return tuple(out)


def _parse_primary(lx: _Lexer) -> Expr:
    if lx.tok in ("(", "!"):
        if lx.depth == MAX_NESTING:
            raise FormulaParseError(
                f"nesting deeper than {MAX_NESTING} parentheses and negations",
                lx.tok_pos,
            )
        lx.depth += 1
        opener = lx.tok
        lx.advance()
        if opener == "(":
            e = _parse_or(lx)
            lx.expect(")")
        else:
            e = Not(_parse_primary(lx))
        lx.depth -= 1
        return e
    if lx.tok == "true":
        lx.advance()
        return TRUE
    if lx.tok == "false":
        lx.advance()
        return FALSE
    name = lx.ident()
    lx.expect("(")
    args = _parse_varlist(lx)
    lx.expect(")")
    return Atom(name, args)


def _parse_and(lx: _Lexer) -> Expr:
    parts = [_parse_primary(lx)]
    while lx.tok == "&":
        lx.advance()
        parts.append(_parse_primary(lx))
    return conjoin(parts)


def _parse_or(lx: _Lexer) -> Expr:
    parts = [_parse_and(lx)]
    while lx.tok == "|":
        lx.advance()
        parts.append(_parse_and(lx))
    return disjoin(parts)


def parse_formula(text: str) -> OptFormula:
    """Parse a formula.  Unknown predicate names are allowed here;
    check_schema() checks them against a structure."""
    lx = _Lexer(text)
    kind = lx.tok
    if kind not in ("max", "min"):
        raise FormulaParseError(f"expected 'max' or 'min', got {kind!r}", lx.tok_pos)
    lx.advance()
    opt_vars = _parse_varlist(lx)
    lx.expect(".")
    lx.expect("count")
    count_vars = _parse_varlist(lx)
    lx.expect(".")
    body = _parse_or(lx)
    if lx.tok is not None:
        raise FormulaParseError(f"trailing input {lx.tok!r}", lx.tok_pos)
    try:
        return OptFormula(kind, opt_vars, count_vars, body)
    except ContractError as exc:
        raise FormulaParseError(str(exc), 0) from None


def parse_expr(text: str) -> Expr:
    """Parse a bare body expression (test helper)."""
    lx = _Lexer(text)
    body = _parse_or(lx)
    if lx.tok is not None:
        raise FormulaParseError(f"trailing input {lx.tok!r}", lx.tok_pos)
    return body


# --- analysis --------------------------------------------------------------

def check_schema(formula: OptFormula, structure: RelationalStructure) -> None:
    """Raise ``SchemaError`` unless every predicate used in the body exists
    in the structure with the arity its atoms use."""
    for atom in atoms_of(formula.body):
        if atom.pred not in structure.relations:
            raise SchemaError(f"predicate {atom.pred!r} missing from structure")
        arity = structure.relations[atom.pred].arity
        if arity != len(atom.args):
            raise SchemaError(
                f"atom {atom.pred} used with {len(atom.args)} arguments, "
                f"relation has arity {arity}"
            )


def eval_expr(
    expr: Expr,
    structure: RelationalStructure,
    assignment: Mapping[str, ObjectId],
) -> bool:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Atom):
        rec = tuple(assignment[v] for v in expr.args)
        return rec in structure.relation(expr.pred).records
    if isinstance(expr, Not):
        return not eval_expr(expr.arg, structure, assignment)
    if isinstance(expr, And):
        return eval_expr(expr.left, structure, assignment) and eval_expr(
            expr.right, structure, assignment
        )
    if isinstance(expr, Or):
        return eval_expr(expr.left, structure, assignment) or eval_expr(
            expr.right, structure, assignment
        )
    raise TypeError(f"not an expression: {expr!r}")


def evaluate_body(
    formula: OptFormula,
    structure: RelationalStructure,
    assignment: Mapping[str, ObjectId],
) -> bool:
    """Truth value of the body under a full variable assignment."""
    return eval_expr(formula.body, structure, assignment)


def eval_expr_table(expr: Expr, atom_values: Mapping[Atom, bool]) -> bool:
    """Evaluate with explicit atom truth values (no structure)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Atom):
        return atom_values[expr]
    if isinstance(expr, Not):
        return not eval_expr_table(expr.arg, atom_values)
    if isinstance(expr, And):
        return eval_expr_table(expr.left, atom_values) and eval_expr_table(
            expr.right, atom_values
        )
    if isinstance(expr, Or):
        return eval_expr_table(expr.left, atom_values) or eval_expr_table(
            expr.right, atom_values
        )
    raise TypeError(f"not an expression: {expr!r}")
