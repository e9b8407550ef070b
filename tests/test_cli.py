import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relopt.cli import main

TOY_STRUCTURE = "rel E 2\nrel F 2\nE a b\nF a 1\nF a 2\nF b 1\n"
TOY_FORMULA = "max x1,x2 . count y . E(x1,x2) & F(x1,y)\n"


@pytest.fixture
def toy_files(tmp_path):
    s = tmp_path / "toy.structure"
    f = tmp_path / "toy.formula"
    s.write_text(TOY_STRUCTURE)
    f.write_text(TOY_FORMULA)
    return s, f


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_baseline(toy_files, capsys):
    s, f = toy_files
    code, out = run_main(
        ["solve", "--structure", str(s), "--formula", str(f), "--engine", "baseline"],
        capsys,
    )
    assert code == 0
    assert "value 2" in out
    assert "witness a b" in out


def test_solve_reduction_matches(toy_files, capsys):
    s, f = toy_files
    code, out = run_main(
        [
            "solve",
            "--structure", str(s),
            "--formula", str(f),
            "--engine", "reduction",
            "--ip", "exact",
            "--verify",
        ],
        capsys,
    )
    assert code == 0
    assert "value 2" in out
    assert "verified pass" in out


def test_solve_approx_interval(toy_files, capsys):
    s, f = toy_files
    code, out = run_main(
        [
            "solve",
            "--structure", str(s),
            "--formula", str(f),
            "--engine", "reduction",
            "--ip", "approx:2",
        ],
        capsys,
    )
    assert code == 0
    value = int(next(l.split()[1] for l in out.splitlines() if l.startswith("value")))
    assert 2 / 2.1 <= value <= 2


def test_solve_trace_output(toy_files, capsys, tmp_path):
    s, f = toy_files
    trace = tmp_path / "trace.txt"
    code, _ = run_main(
        [
            "solve",
            "--structure", str(s),
            "--formula", str(f),
            "--engine", "auto",
            "--trace", str(trace),
        ],
        capsys,
    )
    assert code == 0
    text = trace.read_text()
    assert text.startswith("path reduction")
    assert "stage input" in text
    # the toy's lift would not prune: one baseline query answers
    assert "stage baseline " in text and "reason=no-prune" in text
    assert text.endswith("source baseline\n")


def test_solve_trace_prints_the_winning_source_of_the_lift(tmp_path, capsys):
    # an 18-cycle: the lift prunes (g^2 = 36 > K = 25), and the objects with
    # P reach its degree threshold 3, so they are heavy; the optimum holds one
    n = 18
    s = tmp_path / "cycle.structure"
    f = tmp_path / "cycle.formula"
    s.write_text(
        "rel E 2\nrel P 1\n"
        + "".join(f"E o{i} o{(i + 1) % n}\n" for i in range(n))
        + "".join(f"P o{i}\n" for i in range(0, n, 3))
    )
    f.write_text("max x1,x2 . count y . E(x1,y) & !E(x2,y) & P(y)\n")
    code, out = run_main(
        ["solve", "--structure", str(s), "--formula", str(f), "--trace", "-"],
        capsys,
    )
    assert code == 0
    # the top-ranked combination is clean and the lift re-solves it with its
    # 5 ties in its first group, in one query; the 6 heavy vertices take one
    # query per slot
    assert (
        "stage cross-free-lift clean_rank=1 combos=36 dirty=0 groups=6 heavy=6 "
        "heavy_solves=2 m=24 n=18 resolve_queries=1 resolves=6 sides=0 threshold=3 "
        "top_k=25\n"
    ) in out
    assert "witness o2 o0\n" in out and out.endswith("source heavy\n")


def test_solve_trace_prints_the_multicount_stage(tmp_path, capsys):
    s = tmp_path / "mc.structure"
    f = tmp_path / "mc.formula"
    s.write_text("rel E 2\nE a b\nE b c\nE a c\nE c a\n")
    f.write_text("max x . count y1,y2 . E(x,y1) & E(x,y2) & E(y1,y2)\n")
    code, out = run_main(
        ["solve", "--structure", str(s), "--formula", str(f), "--trace", "-"],
        capsys,
    )
    assert code == 0
    assert "value 1" in out
    stage = next(l for l in out.splitlines() if l.startswith("stage multicount"))
    stats = dict(kv.split("=") for kv in stage.split()[2:])
    assert set(stats) == {
        "runs", "graphs", "empty_side", "tables",
        "static_atoms", "dynamic_atoms", "touched",
    }
    assert int(stats["runs"]) == 1  # k + ell = 3: nothing is brute-forced
    assert int(stats["graphs"]) > 0
    # with nothing brute-forced, every atom is static and no run touches one
    assert (stats["static_atoms"], stats["dynamic_atoms"]) == ("3", "0")
    assert stats["touched"] == "0"


@pytest.mark.parametrize("engine", ["baseline", "multicount"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_solve_trace_of_a_forced_engine(tmp_path, capsys, engine, to_file):
    s = tmp_path / "mc.structure"
    f = tmp_path / "mc.formula"
    s.write_text("rel E 2\nE a b\nE b c\nE a c\nE c a\n")
    f.write_text("max x1,x2 . count y1,y2 . E(x1,y1) & E(y1,y2) & !E(x2,y2)\n")
    trace = tmp_path / "trace.txt"
    argv = ["solve", "--structure", str(s), "--formula", str(f), "--engine", engine]
    code, out = run_main(argv + ["--trace", str(trace) if to_file else "-"], capsys)
    assert code == 0
    if to_file:
        lines = trace.read_text().splitlines()
        assert "stage " not in out
    else:  # the trace follows the report, whose last line is the time
        lines = out.splitlines()
        lines = lines[next(i for i, l in enumerate(lines) if l.startswith("seconds")) + 1:]
    assert lines[0] == f"path {engine}"
    assert lines[-1] == f"source {engine}"
    stage = next(l for l in lines if l.startswith(f"stage {engine}"))
    if engine == "multicount":
        stats = dict(kv.split("=") for kv in stage.split()[2:])
        assert int(stats["runs"]) == 3  # one per value of x1
        assert int(stats["dynamic_atoms"]) == 1  # E(x1,y1)
    else:
        assert stage == "stage baseline reason=forced"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "one"
    b = tmp_path / "two"
    for prefix in (a, b):
        code, _ = run_main(
            ["gen", "--seed", "7", "--out-prefix", str(prefix)], capsys
        )
        assert code == 0
    assert (
        a.with_suffix(".structure").read_bytes()
        == b.with_suffix(".structure").read_bytes()
    )
    assert (
        a.with_suffix(".formula").read_bytes() == b.with_suffix(".formula").read_bytes()
    )


def test_gen_density_zero(tmp_path, capsys):
    prefix = tmp_path / "empty"
    code, _ = run_main(
        [
            "gen", "--seed", "1", "--out-prefix", str(prefix),
            "--density", "0", "--unary", "1", "--ternary", "0",
        ],
        capsys,
    )
    assert code == 0
    text = prefix.with_suffix(".structure").read_text()
    assert not any(line.startswith("E0 ") for line in text.splitlines())


def test_gen_self_check(tmp_path, capsys):
    for seed in range(12):
        prefix = tmp_path / f"g{seed}"
        code, _ = run_main(
            [
                "gen", "--seed", str(seed), "--out-prefix", str(prefix),
                "--ternary", "1", "--n", "8",
            ],
            capsys,
        )
        assert code == 0


def test_verify_exact(capsys):
    code, out = run_main(
        ["verify", "--seeds", "8", "--n", "6", "--density", "0.25"], capsys
    )
    assert code == 0
    assert "mismatches 0" in out


def test_verify_approx(capsys):
    code, out = run_main(
        [
            "verify", "--seeds", "6", "--n", "6", "--density", "0.25",
            "--ip", "approx:2", "--eps", "0.1",
        ],
        capsys,
    )
    assert code == 0
    assert "mismatches 0" in out


def test_verify_approx_rejects_large_eps():
    code = main(
        ["verify", "--seeds", "1", "--n", "6", "--ip", "approx:2", "--eps", "0.7"]
    )
    assert code == 2


def test_verify_zero_seeds_warns(capsys):
    code, out = run_main(["verify", "--seeds", "0"], capsys)
    assert code == 0
    assert "warning" in out


def test_reduce_dumps(toy_files, capsys, tmp_path):
    s, f = toy_files
    out_dir = tmp_path / "stages"
    code, out = run_main(
        ["reduce", "--structure", str(s), "--formula", str(f), "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert (out_dir / "main.structure").exists()
    assert (out_dir / "trace.txt").exists()
    hybrids = list(out_dir.glob("hybrid*.txt"))
    assert hybrids
    ips = list(out_dir.glob("ip*.txt"))
    assert ips
    assert "dim" in ips[0].read_text()
    # the dumped intermediate structures re-parse
    from relopt.structure import load_structure

    load_structure((out_dir / "main.structure").read_text())
    load_structure((out_dir / "paralleled.structure").read_text())


def test_reduce_writes_each_cross_side_as_the_lift_solves_it(tmp_path, capsys):
    # the side of a cross atom is the formula over the tuples that carry it:
    # here the body forbids the atom, so the side scores 0, while the bare
    # atom would score n at any pair with an edge
    from relopt.baseline import baseline_opt
    from relopt.formula import parse_formula
    from relopt.structure import load_structure

    s = tmp_path / "tri.structure"
    f = tmp_path / "tri.formula"
    s.write_text("rel E 2\nE a b\nE b c\nE c a\n")
    f.write_text("max x1,x2 . count y . E(x1,y) & !E(x1,x2)\n")
    out_dir = tmp_path / "stages"
    code, _ = run_main(
        ["reduce", "--structure", str(s), "--formula", str(f), "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    structure = load_structure(s.read_text())
    side = parse_formula((out_dir / "cross0.formula").read_text().strip())
    assert str(side) == "max x1,x2 . count y . E(x1,x2) & E(x1,y) & !E(x1,x2)"
    assert baseline_opt(structure, side).value == 0
    bare = parse_formula("max x1,x2 . count y . E(x1,x2)")
    assert baseline_opt(structure, bare).value == structure.n
    assert not (out_dir / "cross1.formula").exists()


def test_bench_runs(capsys):
    code, out = run_main(
        ["bench", "--seeds", "2", "--n", "5", "--engines", "baseline,auto"], capsys
    )
    assert code == 0
    assert "baseline" in out and "auto" in out


@pytest.mark.parametrize("engines", ["foo,baseline", "", "baseline,"])
def test_bench_rejects_unknown_engines(engines, capsys):
    code = main(["bench", "--seeds", "1", "--n", "5", "--engines", engines])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error unknown engine")


def test_error_exit_code(tmp_path, capsys):
    s = tmp_path / "bad.structure"
    s.write_text("rel E\n")
    f = tmp_path / "bad.formula"
    f.write_text("max x . count y . E(x,y)\n")
    code = main(["solve", "--structure", str(s), "--formula", str(f)])
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--ip", "approx:abc"),
        ("--ip", "approx:nan"),
        ("--ip", "approx:inf"),
        ("--structure", "missing.structure"),
        ("--formula", "missing.formula"),
        ("--structure", "."),
    ],
    ids=[
        "ip-abc", "ip-nan", "ip-inf",
        "missing-structure", "missing-formula", "directory",
    ],
)
def test_solve_bad_arguments_exit_2(toy_files, tmp_path, capsys, flag, value):
    # an unusable ratio or an unreadable input file is an error line
    s, f = toy_files
    args = {"--structure": str(s), "--formula": str(f), "--ip": "exact"}
    args[flag] = value if flag == "--ip" else str(tmp_path / value)
    assert main(["solve", *(a for pair in args.items() for a in pair)]) == 2
    assert capsys.readouterr().err.startswith("error ")


@pytest.mark.parametrize(
    "body, code",
    [
        (" & ".join(["E(x1,y)", "!E(x2,y)"] * 1000), 0),
        ("(" * 2000 + "E(x1,y)" + ")" * 2000, 2),
        ("!" * 2000 + "E(x1,y)", 2),
    ],
    ids=["2000-conjuncts", "2000-parentheses", "2000-negations"],
)
def test_solve_long_and_deep_bodies(tmp_path, capsys, body, code):
    s = tmp_path / "toy.structure"
    s.write_text(TOY_STRUCTURE)
    f = tmp_path / "deep.formula"
    f.write_text(f"max x1,x2 . count y . {body}\n")
    assert main(["solve", "--structure", str(s), "--formula", str(f)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error at position") and "deeper than" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "relopt.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "structure file" in proc.stdout


# --- the CLI on arbitrary input -------------------------------------------

_TOKENS = st.sampled_from(
    ["rel", "E", "P", "a", "b", "0", "1", "-1", "99999999999", "#", "x1", "y1",
     "(", ")", ".", ",", "&", "|", "!", "max", "min", "count", "dim", "vec"]
)
_ARITY = {"E": 2, "P": 1, "R": 3}


def _mostly(draw, usual, *odd):
    """``usual`` most of the time, else one of ``odd``."""
    return draw(st.sampled_from(odd)) if draw(st.sampled_from(range(12))) == 0 else usual


def _structure_text(draw, names):
    lines = []
    for name in names:
        arity = _mostly(draw, str(_ARITY[name]), "0", "-1", "99999999999", "x")
        lines.append(f"rel {name} {arity}")
        for _ in range(draw(st.integers(0, 4))):
            size = _mostly(draw, _ARITY[name], 0, 4)
            labels = draw(st.lists(st.sampled_from("abcd"), min_size=size, max_size=size))
            lines.append(" ".join([name, *labels]))
    return "\n".join(lines)


def _formula_text(draw, names):
    k, ell = _mostly(draw, draw(st.integers(1, 3)), 0), _mostly(draw, draw(st.integers(1, 3)), 0)
    variables = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(ell)]
    atoms = []
    for name in names:
        size = _mostly(draw, _ARITY[name], 0, 4)
        args = [_mostly(draw, draw(st.sampled_from(variables or ["z"])), "z") for _ in range(size)]
        atoms.append(f"{name}({','.join(args)})")
    body = draw(st.sampled_from([" & ", " | ", " & !"])).join(atoms) or "true"
    head = _mostly(draw, "max", "min", "avg")
    return f"{head} {','.join(variables[:k])} . count {','.join(variables[k:])} . {body}"


@st.composite
def input_file(draw):
    """The bytes of a small structure, formula or IP instance file; of
    tokens of any of them; or of arbitrary bytes, often not UTF-8."""
    kind = draw(st.sampled_from(["structure", "formula", "ip", "tokens", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    names = draw(st.lists(st.sampled_from("EPR"), max_size=3))
    if kind == "structure":
        text = _structure_text(draw, names)
    elif kind == "formula":
        text = _formula_text(draw, names)
    elif kind == "tokens":
        text = " ".join(draw(st.lists(_TOKENS, max_size=10)))
    else:
        dim = draw(st.integers(-1, 3))
        coords = " ".join(draw(st.lists(st.sampled_from(["0", "1", "2", "a"]), max_size=4)))
        text = f"dim {dim}\nvec {draw(st.sampled_from(['0', '1', 'F']))} {coords}"
    return text.encode()


@st.composite
def input_files(draw):
    """A structure file and a formula file.  Half of the time they share
    their relations (E/2, P/1, R/3), so they mostly fit together; else each
    is an ``input_file``.  Arities may be zero, negative or huge."""
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from("EPR"), min_size=1, max_size=3, unique=True))
        return (
            _structure_text(draw, names).encode(),
            _formula_text(draw, draw(st.lists(st.sampled_from(names), max_size=3))).encode(),
        )
    return draw(input_file()), draw(input_file())


@st.composite
def profile_flags(draw):
    """Generator flags, in and out of their ranges; n stays tiny."""
    flags = []
    for flag, values in (
        ("--k", ["-1", "0", "1", "2", "3", "4", "9"]),
        ("--ell", ["0", "1", "2", "3", "4"]),
        ("--n", ["-1", "0", "1", "3", "4"]),
        ("--density", ["-0.5", "0", "0.3", "1", "2", "nan", "inf", "x"]),
        ("--binary", ["0", "1", "2"]),
        ("--unary", ["0", "1", "2"]),
        ("--ternary", ["0", "1", "2", "3"]),
        ("--max-m", ["0", "3", "-1"]),
        ("--kind", ["max", "min", "avg"]),
    ):
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        flags.append("--no-cross")
    return flags


_IPS = st.sampled_from(["exact", "approx:2", "approx:0.5", "approx:x", "ip"])


@given(data=st.data(), files=input_files())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly(data, files):
    """Every command, on arbitrary small inputs and flags, returns or exits
    with 0, 1 or 2, and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        s, f = tmp / "in.structure", tmp / "in.formula"
        s.write_bytes(files[0])
        f.write_bytes(files[1])
        command = data.draw(st.sampled_from(["solve", "reduce", "gen", "verify", "bench"]))
        if command == "solve":
            engine = data.draw(st.sampled_from(["auto", "baseline", "multicount", "reduction"]))
            argv = ["solve", "--structure", str(s), "--formula", str(f),
                    "--engine", engine, "--ip", data.draw(_IPS)]
            if data.draw(st.booleans()):
                argv.append("--verify")
            if data.draw(st.booleans()):
                argv += ["--trace", data.draw(st.sampled_from(["-", str(tmp / "t.txt"), str(tmp)]))]
        elif command == "reduce":
            argv = ["reduce", "--structure", str(s), "--formula", str(f), "--out", str(tmp / "out")]
        elif command == "gen":
            argv = ["gen", "--seed", data.draw(st.sampled_from(["0", "7", "-3", "x"])),
                    "--out-prefix", str(tmp / "g"), *data.draw(profile_flags())]
        else:
            argv = [command, "--seeds", data.draw(st.sampled_from(["0", "1", "2", "-1"])),
                    *data.draw(profile_flags())]
            if command == "verify":
                argv += ["--ip", data.draw(_IPS)]
            else:
                argv += ["--engines", data.draw(st.sampled_from(
                    ["baseline", "auto", "multicount", "baseline,multicount", "x"]
                ))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
