"""The benchmark's trace points exist and fire on a lift instance.

``perfbench/tracer.py`` wraps relopt's functions by (module, attribute); a
rename or an inlined call would silently drop spans from the traced benchmark
run.  The tracer is loaded by path and used as it is.
"""
import importlib
import importlib.util
from pathlib import Path

from relopt.baseline import baseline_opt
from relopt.formula import parse_formula
from relopt.ip import exact_solver
from relopt.reduction import reduce_and_solve
from relopt.structure import load_structure

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist():
    for mod, attr, _, _ in _load_tracer().TARGETS:
        assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"


def test_traced_lift_records_hybrid_and_ip_spans():
    structure = load_structure(
        "rel E 2\nE a 1\nE a 2\nE b 2\nE c 3\nE d 4\nE e 5\n"
    )
    formula = parse_formula("max x1,x2 . count y . E(x1,y) & E(x2,y)")
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        value, trace = reduce_and_solve(
            structure, formula, tracer.ip_solver(exact_solver("max"))
        )
    assert value == baseline_opt(structure, formula).value
    assert dict(trace.stages)["cross-free-lift"]["groups"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"reduction.to_hybrid", "hybrid.solve", "ip.solve"} <= names


def test_traced_no_prune_instance_records_one_baseline_query():
    # a hyperedge gives the instance a side problem, but the lift would not
    # prune, so one baseline query of the input answers and no side runs
    structure = load_structure(
        "rel E 2\nrel R 3\nE a 1\nE b 2\nE c 2\nR a b 1\nR b c 2\n"
    )
    formula = parse_formula("max x1,x2 . count y . E(x1,y) & R(x1,x2,y) | E(x2,y)")
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        value, trace = reduce_and_solve(structure, formula, exact_solver("max"))
    assert value == baseline_opt(structure, formula).value
    assert dict(trace.stages)["hyperedge-removal"]["sides"] == 1
    assert dict(trace.stages)["baseline"]["reason"] == "no-prune"
    names = [span[0] for span in tracer.spans]
    assert names.count("reduction.baseline_opt") == 1
    assert "reduction.side" not in names
