"""Command line front end: solve, reduce (dump intermediates), gen, verify,
bench.  Reports are line-oriented ``key value`` text so runs diff cleanly."""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .baseline import OptResult, PreparedBaseline, baseline_opt
from .errors import EngineError
from .formula import And, Atom, check_schema, parse_formula
from .generate import GenProfile, generate, generate_texts
from .ip import make_ip_solver
from .reduction import (
    ReductionTrace,
    reduce_and_solve,
    remove_hyperedges,
    remove_parallel_edges,
    to_hybrid,
)
from .structure import load_structure

EPILOG = """\
formula DSL:
  ("max" | "min") VARLIST "." "count" VARLIST "." EXPR
  EXPR: atoms Name(v1,...,vA) over the structure's relations, constants
  true/false, negation !, conjunction &, disjunction | (& binds tighter),
  parentheses.  Example: max x1,x2 . count y . E(x1,y) & E(x2,y)

structure file (UTF-8, line based):
  '# comment' lines are skipped
  'rel NAME ARITY'  declares a relation (before its records)
  'NAME TOK1 ... TOKA'  adds a record; tokens are whitespace-free labels

ip instance file: 'dim D' then 'vec FAMILY COORD...' lines.
hybrid dump: 'universe ID TAUBITS' then 'set FAMILY NAME ID...' lines.
"""

ENGINES = ("auto", "baseline", "multicount")


def _profile_from_args(args) -> GenProfile:
    return GenProfile(
        k=args.k,
        ell=args.ell,
        n=args.n,
        density=args.density,
        binary=args.binary,
        unary=args.unary,
        ternary=args.ternary,
        allow_cross=not args.no_cross,
        max_m=args.max_m,
        kind=args.kind,
    )


def _add_profile_flags(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--binary", type=int, default=2)
    p.add_argument("--unary", type=int, default=1)
    p.add_argument("--ternary", type=int, default=0)
    p.add_argument("--no-cross", action="store_true")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--kind", choices=["max", "min"], default=None)


def _emit(out, key, value):
    print(f"{key} {value}", file=out)


def _load(args):
    """The structure and the formula a command reads, checked against each
    other: every atom must name a relation of its arity."""
    structure = load_structure(Path(args.structure).read_text())
    formula = parse_formula(Path(args.formula).read_text().strip())
    check_schema(formula, structure)
    return structure, formula


def _run(engine: str, structure, formula, ip: str):
    """One engine's answer: (value, trace, ratio).  ``auto`` runs the routing
    pipeline with the IP solver ``ip`` names; ``baseline`` and ``multicount``
    are forced and exact."""
    if engine == "auto":
        solver = make_ip_solver(formula.kind, ip)
        value, trace = reduce_and_solve(structure, formula, solver)
        return value, trace, solver.ratio
    # a forced engine's trace: its stage and the source line
    route = {"reason": "forced"} if engine == "baseline" else {}
    trace = ReductionTrace(path=engine)
    return (*trace.engine_answer(engine, structure, formula, **route), 1.0)


def _accepts(structure, formula, res: OptResult | None, value, witness, ratio) -> bool:
    """Whether an answer passes against the oracle's ``res``.  Under an exact
    solver (value, witness) must be the oracle's optimum and least witness.
    Under ratio c the value is None exactly when the oracle's is; else it
    lies within c of OPT on the right side, and it is the witness's own value."""
    if ratio == 1.0:
        return (value, witness) == ((None, None) if res is None else tuple(res))
    if res is None or value is None:
        return res is None and value is None
    opt = res.value
    if formula.kind == "max":
        within = opt / ratio <= value <= opt
    else:
        within = opt <= value <= ratio * opt
    if not within or witness is None:
        return False
    # the witness's own value: one query over singleton domains
    domains = {x: (o,) for x, o in zip(formula.opt_vars, witness)}
    at = PreparedBaseline(structure, formula).opt(domains)
    return at is not None and at.value == value


def _answer_text(structure, value, witness) -> str:
    if witness is None:
        return str(value)
    return f"{value} at {' '.join(structure.labels[x] for x in witness)}"


def cmd_solve(args) -> int:
    structure, formula = _load(args)
    out = sys.stdout
    started = time.perf_counter()
    value, trace, ratio = _run(args.engine, structure, formula, args.ip)
    witness = trace.witness
    elapsed = time.perf_counter() - started
    _emit(out, "engine", args.engine)
    _emit(out, "path", trace.path)
    _emit(out, "value", value if value is not None else "none")
    if witness is not None:
        _emit(out, "witness", " ".join(structure.labels[x] for x in witness))
    _emit(out, "seconds", f"{elapsed:.4f}")
    ok = True
    if args.verify:
        res = baseline_opt(structure, formula)
        ok = _accepts(structure, formula, res, value, witness, ratio)
        _emit(out, "verified", "pass" if ok else "FAIL")
    # the trace is written whatever the check says: a failed answer is the
    # one that needs explaining
    if args.trace:
        text = trace.render()
        if args.trace == "-":
            out.write(text)
        else:
            Path(args.trace).write_text(text)
    return 0 if ok else 1


def cmd_reduce(args) -> int:
    structure, formula = _load(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []

    plan = remove_hyperedges(structure, formula)
    (out_dir / "main.structure").write_text(plan.main_structure.dump())
    (out_dir / "main.formula").write_text(str(plan.main_formula) + "\n")
    summary.append(
        f"stage hyperedge-removal m={plan.main_structure.m} "
        f"n={plan.main_structure.n} sides={len(plan.main_guard)}"
    )
    def write_side(name: str, atom: Atom) -> None:
        # a side is the normalized formula over the tuples that carry its
        # atom, written as that atom conjoined to the body
        side = plan.formula.with_body(And(atom, plan.formula.body))
        (out_dir / name).write_text(str(side) + "\n")

    for idx, (atom, _) in enumerate(plan.main_guard):
        write_side(f"side{idx}.formula", atom)

    # cross atoms leave the main body exactly as in the lift: one exactly
    # solved side problem each, false inside the relaxed core
    for idx, atom in enumerate(plan.cross):
        write_side(f"cross{idx}.formula", atom)
    (out_dir / "crossfree.formula").write_text(str(plan.core) + "\n")
    summary.append(f"stage cross-edge-removal sides={len(plan.cross)}")

    transformed, tf, _ = remove_parallel_edges(plan.main_structure, plan.core)
    (out_dir / "paralleled.structure").write_text(transformed.dump())
    (out_dir / "paralleled.formula").write_text(str(tf) + "\n")
    summary.append(
        f"stage parallel-edge-removal m={transformed.m} n={transformed.n}"
    )

    # the hybrid instances the lift's scorer solves, converted from the
    # cross-free core in one pass
    for idx, (inst, _) in enumerate(to_hybrid(plan.main_structure, plan.core)):
        (out_dir / f"hybrid{idx}.txt").write_text(inst.dump())
        (out_dir / f"ip{idx}.txt").write_text(inst.ip.dump())
        summary.append(
            f"stage hybrid index={idx} universe={inst.size} m_h={inst.m_h}"
        )
    (out_dir / "trace.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def cmd_gen(args) -> int:
    profile = _profile_from_args(args)
    structure_text, formula_text = generate_texts(args.seed, profile)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    s_path = prefix.with_suffix(".structure")
    f_path = prefix.with_suffix(".formula")
    s_path.write_text(structure_text)
    f_path.write_text(formula_text)
    # self check: the generated pair must parse and match its structure
    structure = load_structure(structure_text)
    formula = parse_formula(formula_text.strip())
    check_schema(formula, structure)
    print(f"wrote {s_path} and {f_path} (m={structure.m} n={structure.n})")
    return 0


def cmd_verify(args) -> int:
    profile = _profile_from_args(args)
    mismatches = 0
    if args.seeds == 0:
        print("warning no seeds requested; vacuous pass")
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        structure, formula = generate(seed, profile)
        value, trace, ratio = _run("auto", structure, formula, args.ip)
        res = baseline_opt(structure, formula)
        if not _accepts(structure, formula, res, value, trace.witness, ratio):
            mismatches += 1
            got = _answer_text(structure, value, trace.witness)
            want = _answer_text(structure, *(res or (None, None)))
            print(f"mismatch seed {seed} got {got} expected {want}")
    print(f"checked {args.seeds} seeds, mismatches {mismatches}")
    print(f"verified {'FAIL' if mismatches else 'pass'}")
    return 1 if mismatches else 0


def cmd_bench(args) -> int:
    profile = _profile_from_args(args)
    engines = args.engines.split(",")
    for engine in engines:
        if engine not in ENGINES:
            raise EngineError(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
    totals = dict.fromkeys(engines, 0.0)
    mismatches = []
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        structure, formula = generate(seed, profile)
        res = baseline_opt(structure, formula)  # the oracle, not timed
        for engine in engines:
            started = time.perf_counter()
            value, trace, ratio = _run(engine, structure, formula, args.ip)
            totals[engine] += time.perf_counter() - started
            if not _accepts(structure, formula, res, value, trace.witness, ratio):
                mismatches.append(f"mismatch engine={engine} seed={seed}")
    print(f"{'engine':<12} {'seconds':>10} {'per-instance':>14}")
    for engine, total in totals.items():
        per = total / max(args.seeds, 1)
        print(f"{engine:<12} {total:>10.3f} {per:>14.4f}")
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relopt",
        description=(
            "solve max/min counting queries over sparse relational structures "
            "exactly or approximately"
        ),
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--engine", choices=ENGINES, default="auto")
    p.add_argument("--ip", default="exact", help="'exact' or 'approx:<c>'")
    p.add_argument("--trace", default=None, help="write the stage trace ('-' = stdout)")
    p.add_argument("--verify", action="store_true", help="cross-check with the baseline")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="dump every intermediate instance")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="pipeline vs baseline over seeded instances")
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--ip", default="exact")
    _add_profile_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time engines on seeded instances")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument(
        "--engines", default="baseline,auto",
        help=f"comma-separated engines: {', '.join(ENGINES)}",
    )
    p.add_argument("--ip", default="exact")
    _add_profile_flags(p)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError, UnicodeDecodeError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
