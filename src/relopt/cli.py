"""Command line front end: solve, reduce (dump intermediates), gen, verify,
bench.  Reports are line-oriented ``key value`` text so runs diff cleanly."""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .baseline import baseline_opt
from .errors import ContractError, EngineError
from .fastcount import multi_counting_opt
from .formula import And, Atom, check_schema, parse_formula
from .generate import GenProfile, generate, generate_texts
from .hybrid import basic_to_ip, hybrid_to_basic
from .ip import make_ip_solver
from .reduction import (
    ReductionTrace,
    reduce_and_solve,
    remove_hyperedges,
    remove_parallel_edges,
    split_cross_atoms,
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

ENGINES = ("auto", "baseline", "multicount", "reduction")


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


def cmd_solve(args) -> int:
    structure, formula = _load(args)
    out = sys.stdout
    started = time.perf_counter()
    if args.engine in ("baseline", "multicount"):
        # a forced engine's trace: its stage and the source line
        trace = ReductionTrace(path=args.engine)
        if args.engine == "baseline":
            trace.add("baseline", reason="forced")
            res = baseline_opt(structure, formula)
        else:
            stats: dict = {}
            res = multi_counting_opt(structure, formula, stats_out=stats)
            trace.add("multicount", **stats)
        value, trace = trace.answer(res, args.engine)
    else:  # auto and reduction both run the routing pipeline
        solver = make_ip_solver(formula.kind, args.ip)
        value, trace = reduce_and_solve(structure, formula, solver)
    witness, path = trace.witness, trace.path
    elapsed = time.perf_counter() - started
    _emit(out, "engine", args.engine)
    _emit(out, "path", path)
    _emit(out, "value", value if value is not None else "none")
    if witness is not None:
        _emit(out, "witness", " ".join(structure.labels[x] for x in witness))
    _emit(out, "seconds", f"{elapsed:.4f}")
    if args.verify:
        res = baseline_opt(structure, formula)
        ok = (res.value if res else None) == value
        _emit(out, "verified", "pass" if ok else "FAIL")
        if not ok:
            return 1
    if args.trace:
        text = trace.render()
        if args.trace == "-":
            out.write(text)
        else:
            Path(args.trace).write_text(text)
    return 0


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
    cross, core = split_cross_atoms(plan.main_core)
    for idx, atom in enumerate(cross):
        write_side(f"cross{idx}.formula", atom)
    (out_dir / "crossfree.formula").write_text(str(core) + "\n")
    summary.append(f"stage cross-edge-removal sides={len(cross)}")

    transformed, tf = remove_parallel_edges(plan.main_structure, core)
    (out_dir / "paralleled.structure").write_text(transformed.dump())
    (out_dir / "paralleled.formula").write_text(str(tf) + "\n")
    summary.append(
        f"stage parallel-edge-removal m={transformed.m} n={transformed.n}"
    )

    # the hybrid instances the lift's scorer solves, converted from the
    # cross-free core in one pass
    for idx, (inst, _) in enumerate(to_hybrid(plan.main_structure, core)):
        (out_dir / f"hybrid{idx}.txt").write_text(inst.dump())
        basic = hybrid_to_basic(inst, (1 << inst.k) - 1)
        (out_dir / f"ip{idx}.txt").write_text(basic_to_ip(basic).dump())
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
    mismatches = []
    if args.seeds == 0:
        print("warning no seeds requested; vacuous pass")
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        structure, formula = generate(seed, profile)
        solver = make_ip_solver(formula.kind, args.ip)
        if solver.ratio != 1.0 and not 0 < args.eps < 0.5:
            raise ContractError("an approximate verify needs eps in (0, 1/2)")
        value, _ = reduce_and_solve(structure, formula, solver)
        res = baseline_opt(structure, formula)
        opt = res.value if res else None
        if solver.ratio == 1.0:
            ok = value == opt
        elif opt is None:
            ok = value is None
        else:
            hi = solver.ratio + args.eps
            if formula.kind == "max":
                ok = value is not None and opt / hi <= value <= opt
            else:
                ok = value is not None and opt <= value <= hi * opt
        if not ok:
            mismatches.append((seed, value, opt))
            print(f"mismatch seed {seed} got {value} expected {opt}")
    print(f"checked {args.seeds} seeds, mismatches {len(mismatches)}")
    return 1 if mismatches else 0


def cmd_bench(args) -> int:
    profile = _profile_from_args(args)
    engines = args.engines.split(",")
    for engine in engines:
        if engine not in ENGINES:
            raise EngineError(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
    rows = []
    for engine in engines:
        total = 0.0
        values = []
        for seed in range(args.start_seed, args.start_seed + args.seeds):
            structure, formula = generate(seed, profile)
            started = time.perf_counter()
            if engine == "baseline":
                res = baseline_opt(structure, formula)
                values.append(res.value if res else None)
            elif engine == "multicount":
                res = multi_counting_opt(structure, formula)
                values.append(res.value if res else None)
            else:  # auto and reduction both run the routing pipeline
                solver = make_ip_solver(formula.kind, args.ip)
                value, _ = reduce_and_solve(structure, formula, solver)
                values.append(value)
            total += time.perf_counter() - started
        rows.append((engine, total, values))
    print(f"{'engine':<12} {'seconds':>10} {'per-instance':>14}")
    for engine, total, _ in rows:
        per = total / max(args.seeds, 1)
        print(f"{engine:<12} {total:>10.3f} {per:>14.4f}")
    first = rows[0][2]
    for engine, _, values in rows[1:]:
        if values != first and all(v is not None for v in first + values):
            print(f"note {engine} disagrees with {rows[0][0]} on some seeds")
    return 0


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
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
    )
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
    p.add_argument(
        "--eps", type=float, default=0.1,
        help="approximate runs must land within ratio c+eps of the baseline",
    )
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
