import random

import pytest

from relopt.errors import SchemaError, StructureParseError, UnknownObjectError
from relopt.structure import build_structure, load_structure

from oracles import random_structure


def test_load_counts_objects_and_records():
    s = load_structure("rel E 2\nE a y1\nE b y1\n")
    assert s.n == 3
    assert s.m == 2
    assert s.labels == ("a", "y1", "b")  # first-appearance order


def test_load_empty_relation_block():
    s = load_structure("rel E 2\n")
    assert s.m == 0
    assert "E" in s.relations
    assert s.relations["E"].records == frozenset()


def test_load_deduplicates_and_reports():
    s = load_structure("rel E 2\nE a b\nE a b\n")
    assert s.m == 1
    assert s.duplicate_records == 1


def test_load_comments_and_blank_lines():
    s = load_structure("# header\n\nrel E 2\n# mid\nE a b\n")
    assert s.m == 1


def test_load_errors():
    with pytest.raises(StructureParseError):
        load_structure("rel E\n")
    with pytest.raises(StructureParseError):
        load_structure("E a b\n")  # record before declaration
    with pytest.raises(StructureParseError):
        load_structure("rel E 2\nrel E 2\n")
    with pytest.raises(SchemaError):
        load_structure("rel E 2\nE a b c\n")  # arity mismatch


def test_degree_basics():
    s = load_structure("rel E 2\nrel P 1\nE a b\nE a c\nP d\n")
    a, b, d = s.index("a"), s.index("b"), s.index("d")
    assert s.degree(a) == 2
    assert s.degree(b) == 1
    assert s.degree(d) == 1
    with pytest.raises(UnknownObjectError):
        s.degree(99)
    with pytest.raises(UnknownObjectError):
        s.index("zzz")


def test_degree_self_loop_counts_once():
    s = load_structure("rel E 2\nE a a\n")
    assert s.degree(s.index("a")) == 1


def test_degree_sum_identity():
    # for binary relations without self-loops the degree sum is twice the
    # record count
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 9)
        recs = set()
        for _ in range(rng.randint(1, 15)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                recs.add((i, j))
        s = build_structure([f"o{i}" for i in range(n)], {"E": recs}, {"E": 2})
        assert sum(s.degree(x) for x in range(s.n)) == 2 * s.m


def test_dump_roundtrip():
    rng = random.Random(3)
    for _ in range(15):
        s = random_structure(rng, rng.randint(2, 8), binary=2, unary=1, ternary=1)
        text = s.dump()
        s2 = load_structure(text)
        assert s2.dump() == text
        assert s2.m == s.m
        assert s2.n == s.n
