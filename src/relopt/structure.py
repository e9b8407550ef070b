"""Sparse relational structures: objects plus named relations of arbitrary arity.

Objects are identified by dense integer indices assigned in first-appearance
order; the structure keeps the label of each index.  Sparsity ``m`` is the
total number of (deduplicated) records across all relations.  Structures are
immutable after construction and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import SchemaError, StructureParseError, UnknownObjectError

ObjectId = int


@dataclass(frozen=True)
class Relation:
    """A named relation stored as an explicit set of records."""

    name: str
    arity: int
    records: frozenset[tuple[ObjectId, ...]]

    def __post_init__(self):
        for rec in self.records:
            if len(rec) != self.arity:
                raise SchemaError(
                    f"relation {self.name}: record of length {len(rec)}, "
                    f"declared arity {self.arity}"
                )

    def __contains__(self, record: tuple[ObjectId, ...]) -> bool:
        return record in self.records


@dataclass(frozen=True)
class RelationalStructure:
    """Immutable structure: labelled objects and name-indexed relations.

    ``n`` is the object count, ``m`` the total record count.  Objects exist
    exactly when they occur in at least one record.
    """

    labels: tuple[str, ...]
    relations: Mapping[str, Relation]
    duplicate_records: int = 0
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise SchemaError("object labels are not unique")
        degrees = [0] * len(self.labels)
        for rel in self.relations.values():
            for rec in rel.records:
                for x in set(rec):
                    if x < 0 or x >= len(self.labels):
                        raise SchemaError(
                            f"relation {rel.name}: object index {x} out of range"
                        )
                    degrees[x] += 1
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_degrees", tuple(degrees))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(len(rel.records) for rel in self.relations.values())

    def index(self, label: str) -> ObjectId:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownObjectError(f"unknown object label {label!r}") from None

    def degree(self, x: ObjectId) -> int:
        """Number of records containing ``x``, one per record even if repeated."""
        if not 0 <= x < self.n:
            raise UnknownObjectError(f"object index {x} out of range")
        return self._degrees[x]

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def unary_members(self, name: str) -> frozenset[ObjectId]:
        rel = self.relation(name)
        if rel.arity != 1:
            raise SchemaError(f"relation {name!r} has arity {rel.arity}, expected 1")
        return frozenset(rec[0] for rec in rel.records)

    def dump(self) -> str:
        """Canonical text form: declarations, then records sorted by
        relation name and label tuple.  Round-trips through load_structure."""
        lines = []
        for name in sorted(self.relations):
            lines.append(f"rel {name} {self.relations[name].arity}")
        for name in sorted(self.relations):
            recs = sorted(
                tuple(self.labels[x] for x in rec)
                for rec in self.relations[name].records
            )
            for rec in recs:
                lines.append(name + " " + " ".join(rec))
        return "\n".join(lines) + "\n"


def build_structure(
    labels: Sequence[str],
    relations: Mapping[str, Iterable[tuple[ObjectId, ...]]],
    arities: Mapping[str, int] | None = None,
    duplicate_records: int = 0,
) -> RelationalStructure:
    """Assemble a structure from index-based records (test helper)."""
    rels = {}
    for name, recs in relations.items():
        recs = frozenset(tuple(r) for r in recs)
        if arities is not None and name in arities:
            arity = arities[name]
        elif recs:
            arity = len(next(iter(recs)))
        else:
            raise SchemaError(f"relation {name!r}: empty and no declared arity")
        rels[name] = Relation(name, arity, recs)
    return RelationalStructure(tuple(labels), rels, duplicate_records)


def load_structure(text: str) -> RelationalStructure:
    """Parse the line-based structure file format.

    ``# comment`` lines and blank lines are skipped.  ``rel <name> <arity>``
    declares a relation, which must precede its records.  Every other line is
    ``<name> <tok1> ... <tokA>``.  Duplicate records are stored once and
    counted in ``duplicate_records``.
    """
    arities: dict[str, int] = {}
    records: dict[str, set[tuple[int, ...]]] = {}
    labels: list[str] = []
    index: dict[str, int] = {}
    duplicates = 0

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "rel":
            if len(parts) != 3:
                raise StructureParseError("expected 'rel <name> <arity>'", line_no)
            name = parts[1]
            try:
                arity = int(parts[2])
            except ValueError:
                raise StructureParseError(f"bad arity {parts[2]!r}", line_no) from None
            if arity < 1:
                raise StructureParseError("arity must be positive", line_no)
            if name in arities:
                raise StructureParseError(f"relation {name!r} redeclared", line_no)
            arities[name] = arity
            records[name] = set()
            continue
        name = parts[0]
        if name not in arities:
            raise StructureParseError(f"record for undeclared relation {name!r}", line_no)
        if len(parts) - 1 != arities[name]:
            raise SchemaError(
                f"line {line_no}: relation {name!r} has arity {arities[name]}, "
                f"record has {len(parts) - 1} tokens"
            )
        rec = tuple(intern(tok) for tok in parts[1:])
        if rec in records[name]:
            duplicates += 1
        else:
            records[name].add(rec)

    rels = {
        name: Relation(name, arities[name], frozenset(recs))
        for name, recs in records.items()
    }
    return RelationalStructure(tuple(labels), rels, duplicates)

