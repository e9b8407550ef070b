"""Seeded random instance generation for verification and benchmarks.

All randomness flows from one integer seed; the same seed and profile always
produce byte-identical files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ContractError
from .formula import OptFormula, parse_formula
from .structure import RelationalStructure, load_structure

CAPS = {"k": 4, "ell": 4, "n": 64, "binary": 4, "unary": 4, "ternary": 2}


@dataclass(frozen=True)
class GenProfile:
    """Shape of a generated instance; desk-scale caps are enforced."""

    k: int = 2
    ell: int = 1
    n: int = 10
    density: float = 0.3
    binary: int = 2
    unary: int = 1
    ternary: int = 0
    body_atoms: int = 4
    allow_cross: bool = True
    max_m: int | None = None
    kind: str | None = None  # None: drawn from the seed

    def __post_init__(self):
        for name in ("k", "ell", "n", "binary", "unary", "ternary"):
            value = getattr(self, name)
            if value < 0 or value > CAPS.get(name, value):
                raise ContractError(f"{name}={value} outside desk-scale caps")
        if self.k < 1 or self.ell < 1 or self.binary < 1:
            raise ContractError("need k >= 1, ell >= 1 and at least one binary predicate")
        if not 0.0 <= self.density <= 1.0:
            raise ContractError("density must lie in [0, 1]")


def generate_texts(seed: int, profile: GenProfile) -> tuple[str, str]:
    """Structure file and formula file contents for one seed."""
    rng = random.Random(seed)
    n = profile.n
    labels = [f"o{i}" for i in range(n)]

    lines = [f"# seed {seed}"]
    for b in range(profile.binary):
        lines.append(f"rel E{b} 2")
    for u in range(profile.unary):
        lines.append(f"rel P{u} 1")
    for t in range(profile.ternary):
        lines.append(f"rel R{t} 3")

    records: list[tuple[str, tuple[str, ...]]] = []
    target_binary = int(profile.density * n * n)
    for b in range(profile.binary):
        count = rng.randint(0, max(1, target_binary // profile.binary)) if n else 0
        seen = set()
        for _ in range(count):
            rec = (rng.choice(labels), rng.choice(labels))
            if rec not in seen:
                seen.add(rec)
                records.append((f"E{b}", rec))
    for u in range(profile.unary):
        for lab in labels:
            if rng.random() < 0.5:
                records.append((f"P{u}", (lab,)))
    for t in range(profile.ternary):
        seen = set()
        for _ in range(rng.randint(0, max(1, int(profile.density * n))) if n else 0):
            rec = (rng.choice(labels), rng.choice(labels), rng.choice(labels))
            if rec not in seen:
                seen.add(rec)
                records.append((f"R{t}", rec))
    if profile.max_m is not None and len(records) > profile.max_m:
        rng.shuffle(records)
        records = records[: profile.max_m]
    lines.extend(f"{name} {' '.join(rec)}" for name, rec in records)
    structure_text = "\n".join(lines) + "\n"

    opt_vars = [f"x{i+1}" for i in range(profile.k)]
    count_vars = [f"y{j+1}" for j in range(profile.ell)]
    pool: list[str] = []
    for b in range(profile.binary):
        for x in opt_vars:
            for y in count_vars:
                pool.append(f"E{b}({x},{y})")
                pool.append(f"E{b}({y},{x})")
        if profile.allow_cross and profile.k >= 2:
            for i, x in enumerate(opt_vars):
                for x2 in opt_vars[i + 1 :]:
                    pool.append(f"E{b}({x},{x2})")
    for u in range(profile.unary):
        for v in opt_vars + count_vars:
            pool.append(f"P{u}({v})")
    for t in range(profile.ternary):
        for i, x in enumerate(opt_vars):
            x2 = opt_vars[(i + 1) % profile.k]
            for y in count_vars:
                if x != x2:
                    pool.append(f"R{t}({x},{x2},{y})")
                pool.append(f"R{t}({x},{y},{y})")

    def gen_expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.4:
            leaf = rng.choice(pool)
            return f"!{leaf}" if rng.random() < 0.3 else leaf
        op = rng.choice(["&", "|"])
        return f"({gen_expr(depth - 1)} {op} {gen_expr(depth - 1)})"

    parts = [gen_expr(2) for _ in range(rng.randint(1, max(1, profile.body_atoms // 2)))]
    body = rng.choice([" & ", " | "]).join(parts)
    kind = profile.kind or rng.choice(["max", "min"])
    formula_text = (
        f"{kind} {','.join(opt_vars)} . count {','.join(count_vars)} . {body}\n"
    )
    return structure_text, formula_text


def generate(seed: int, profile: GenProfile) -> tuple[RelationalStructure, OptFormula]:
    structure_text, formula_text = generate_texts(seed, profile)
    return load_structure(structure_text), parse_formula(formula_text)
