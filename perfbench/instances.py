"""Seeded instance sets of the benchmark workloads.

A workload is a fixed ladder of instance slots.  A slot fixes the shape of
its instance: k, ell, the object count n, the exact number of records per
relation, and the query body.  The run seed draws the records.  Bodies are
fixed per slot because the body sets an instance's cost by up to a factor of
a hundred while the records move it far less; fixing them keeps the
difference between two seeds small enough to compare runs, and every seed
still gets fresh structures.

Lift-sparse bodies come from two fixed templates.  Desk-mix and multicount
bodies are drawn once per slot by ``relopt.generate.generate_texts`` from a
seed that depends only on the slot, so they are random bodies of the
generator's own distribution, and the same ones in every run.

The structures here go above the generator's desk-scale cap (n <= 64) without
touching ``GenProfile`` or ``CAPS``.  The same seed gives byte-identical
texts; ``texts_digest`` fingerprints them so a changed workload cannot pass
for a faster program.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# One cross atom each (E1(x1,x2)), one edge predicate towards y, P0 on y.
LIFT_TEMPLATES = (
    "max x1,x2 . count y1 . E0(x1,y1) & (E0(x2,y1) | P0(y1)) & !E1(x1,x2)\n",
    "min x1,x2 . count y1 . E0(x1,y1) & (E0(x2,y1) | P0(y1)) & !E1(x1,x2)\n",
)


@dataclass(frozen=True)
class Slot:
    """Shape of one instance; ``formula`` is the query text."""

    n: int
    binary: int  # binary predicates E0.. and their total record count
    binary_records: int
    unary: int  # unary predicates P0.., each holding n // 2 objects
    ternary: int  # ternary predicates R0.. and the record count of each
    ternary_records: int
    formula: str


@dataclass(frozen=True)
class Workload:
    name: str
    instances: str  # name of the instance set; lift-sparse-approx shares one
    ip: str  # "exact" or "approx:<c>"
    slots: int


EPS = 0.1  # the pipeline's default eps for a c-approximate IP solver

WORKLOADS = {
    w.name: w
    for w in (
        Workload("lift-sparse", "lift-sparse", "exact", 8),
        Workload("lift-sparse-approx", "lift-sparse", "approx:2", 8),
        Workload("desk-mix", "desk-mix", "exact", 150),
        Workload("multicount", "multicount", "exact", 8),
    )
}


def _binary_count(n: int, density: float) -> int:
    # GenProfile's expectation: up to density*n^2 records drawn uniformly.
    return max(1, round(density * n * n / 2))


def _drawn_body(slot_key: str, **profile) -> str:
    from relopt.generate import GenProfile, generate_texts

    seed = random.Random(slot_key).getrandbits(32)
    return generate_texts(seed, GenProfile(**profile))[1]


def slots(instances: str) -> list[Slot]:
    """The slot ladder of an instance set; independent of the run seed."""
    count = max(w.slots for w in WORKLOADS.values() if w.instances == instances)
    out = []
    for i in range(count):
        key = f"{instances}/{i}"
        if instances == "lift-sparse":
            n = 150 + 5 * (i // 2)
            out.append(Slot(n, 2, _binary_count(n, 0.01), 1, 0, 0, LIFT_TEMPLATES[i % 2]))
        elif instances == "desk-mix":
            # k=3 slots draw from one binary and no ternary predicate.  Reversed
            # and collapsed atoms count as edge predicates too, so richer k=3
            # bodies reach (2^4)^3 edge patterns, and one such instance takes
            # 10-40 s, longer than a whole run.
            k = 2 if i % 2 == 0 else 3
            n = 12 + (7 * i) % 29 if k == 2 else 8 + (i // 2) % 9
            binary = 2 if k == 2 else 1
            ternary = 1 + (i // 2) % 2 if k == 2 else 0
            body = _drawn_body(
                key, k=k, ell=1, n=n, density=0.2,
                binary=binary, unary=1, ternary=ternary,
            )
            out.append(Slot(n, binary, _binary_count(n, 0.2), 1, ternary,
                            max(1, round(0.2 * n / 2)), body))
        elif instances == "multicount":
            body = _drawn_body(key, k=2, ell=2, n=64, density=0.3, binary=2, unary=1)
            out.append(Slot(64, 2, _binary_count(64, 0.3), 1, 0, 0, body))
        else:
            raise KeyError(instances)
    return out


def structure_text(slot: Slot, rng: random.Random) -> str:
    labels = [f"o{i}" for i in range(slot.n)]
    lines = [f"rel E{b} 2" for b in range(slot.binary)]
    lines += [f"rel P{u} 1" for u in range(slot.unary)]
    lines += [f"rel R{t} 3" for t in range(slot.ternary)]
    binary: set[tuple[int, int, int]] = set()
    while len(binary) < slot.binary_records:
        binary.add((rng.randrange(slot.binary), rng.randrange(slot.n), rng.randrange(slot.n)))
    lines += [f"E{b} {labels[a]} {labels[c]}" for b, a, c in sorted(binary)]
    for u in range(slot.unary):
        lines += [f"P{u} {labels[v]}" for v in sorted(rng.sample(range(slot.n), slot.n // 2))]
    for t in range(slot.ternary):
        triples: set[tuple[int, int, int]] = set()
        while len(triples) < slot.ternary_records:
            triples.add(tuple(rng.randrange(slot.n) for _ in range(3)))
        lines += [f"R{t} " + " ".join(labels[v] for v in rec) for rec in sorted(triples)]
    return "\n".join(lines) + "\n"


def instance_texts(workload: str, seed: int, count: int | None = None) -> list[tuple[str, str]]:
    """(structure text, formula text) per slot, drawn from ``seed``."""
    w = WORKLOADS[workload]
    ladder = slots(w.instances)[: w.slots if count is None else count]
    return [
        (structure_text(slot, random.Random(f"{w.instances}/{seed}/{i}")), slot.formula)
        for i, slot in enumerate(ladder)
    ]


def texts_digest(texts: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for structure, formula in texts:
        h.update(structure.encode())
        h.update(b"\0")
        h.update(formula.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
