import subprocess
import sys
from pathlib import Path

import pytest

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
    assert "stage cross-free-lift" in out
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
    assert set(stats) == {"runs", "graphs", "empty_side", "tables"}
    assert int(stats["runs"]) == 1  # k + ell = 3: nothing is brute-forced
    assert int(stats["graphs"]) > 0


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


def test_bench_runs(capsys):
    code, out = run_main(
        ["bench", "--seeds", "2", "--n", "5", "--engines", "baseline,auto"], capsys
    )
    assert code == 0
    assert "baseline" in out and "auto" in out


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
