"""relopt benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload lift-sparse --seed 0 --seconds 28 --trace 0

Run from the root of a checkout; relopt is imported from ``src/`` there and
nowhere else.  The run imports relopt and builds the workload's instance set
from the seed (set-up, timed five times: here and in four fresh child
processes), then solves every instance with ``reduce_and_solve`` and with the
``baseline_opt`` oracle in rounds until ``--seconds`` is spent.  Every
pipeline answer is checked against the oracle.  Per-instance times are the
median over the rounds, scaled to a reference host speed (``HostSpeed``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced round and one traced round and reports the per-layer metrics; its
spans go to ``perfbench/results/`` beside the metrics.  The last line of
standard output is the result as one JSON object; the lines above it print
every metric by name with its unit, plus the run's metadata.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

import instances  # noqa: E402  (sits beside this file)
import tracer as tracing  # noqa: E402

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "pipeline_ms_p50": "ms",
    "baseline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SAMPLES = 5
# Host-speed samples, taken between solves at least every SAMPLE_EVERY_S and
# after every solve of SAMPLE_AFTER_S or longer: the geometric mean of two
# fixed loops' best-of-three times.  On a busy host the integer loop slows
# less than relopt and the loop of tuple keys, dict lookups and set inserts
# slows more; their mean tracks relopt more closely than either.  Reported
# times are scaled to a host where the mean is REFERENCE_SAMPLE_S.
ADDITIONS = 40_000
CONTAINER_STEPS = 5_000
SAMPLE_EVERY_S = 0.2
SAMPLE_AFTER_S = 0.04
REFERENCE_SAMPLE_S = 0.002

# Each workload's defining property, checked on every run.
INVARIANTS = {
    "lift-sparse": ("reduction.prune_frac", ">=", 0.5),
    "lift-sparse-approx": ("reduction.prune_frac", ">=", 0.5),
    "desk-mix": ("reduction.prune_frac", "<=", 0.1),
    "multicount": ("ip.calls", "==", 0),
}


def import_relopt():
    """Import relopt from this checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import relopt
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import relopt from {src}: {exc}")
    if Path(relopt.__file__).resolve().parent != src / "relopt":
        sys.exit(f"perfbench: relopt resolved to {relopt.__file__}, not {src}")
    return relopt


def setup(workload: str, seed: int, tracer=None):
    """Import relopt, generate the instance texts and load them; returns
    (seconds at reference speed, texts, [(structure, formula)])."""
    span = tracer.span if tracer else nullcontext
    speed = HostSpeed()
    started = time.perf_counter()
    relopt = import_relopt()
    with span("generate"):
        texts = instances.instance_texts(workload, seed)
    loaded = []
    for structure_text, formula_text in texts:
        with span("structure.load"):
            structure = relopt.load_structure(structure_text)
        with span("formula.parse"):
            formula = relopt.parse_formula(formula_text)
        loaded.append((structure, formula))
    ended = time.perf_counter()
    speed.sample()
    return speed.scale(started, ended), texts, loaded


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def _additions(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i
    return acc


def _containers(n: int) -> int:
    seen: dict[tuple[int, int], set[int]] = {}
    acc = 0
    for i in range(n):
        key = (i % 97, i % 89)
        members = seen.get(key)
        if members is None:
            members = seen[key] = set()
        members.add(i & 255)
        acc += len(members)
    return acc


def _best_of_three(loop, n: int) -> float:
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        loop(n)
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Calibration samples taken between solves, to scale wall times to the
    reference host speed.

    On a shared host, speed can change by half within a second, for the fixed
    loops and relopt alike.  A time measured over [start, end] is scaled by
    REFERENCE_SAMPLE_S over the mean of the last sample before ``start`` and
    the first one after ``end``.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.sample()

    def sample(self) -> None:
        additions = _best_of_three(_additions, ADDITIONS)
        containers = _best_of_three(_containers, CONTAINER_STEPS)
        self.times.append(time.perf_counter())
        self.seconds.append(math.sqrt(additions * containers))

    def maybe_sample(self, since: float) -> None:
        """Sample if the last sample is old or the solve since ``since`` was
        long enough to deserve its own."""
        now = time.perf_counter()
        if now - self.times[-1] >= SAMPLE_EVERY_S or now - since >= SAMPLE_AFTER_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        sample = (self.seconds[before] + self.seconds[after]) / 2
        return (end - start) * REFERENCE_SAMPLE_S / sample


def make_solver(relopt, workload: str, kind: str):
    return relopt.ip.make_ip_solver(kind, instances.WORKLOADS[workload].ip)


def accepts(kind: str, ratio: float, opt, value) -> bool:
    """Exact answers must equal the oracle; a c-approximate pipeline must land
    in OPT/(c+eps) <= v <= OPT (max) or OPT <= v <= (c+eps)*OPT (min)."""
    if opt is None or value is None or ratio == 1.0:
        return value == opt
    c = ratio + instances.EPS
    return opt / c <= value <= opt if kind == "max" else opt <= value <= c * opt


@dataclass
class Solve:
    """One instance in one round: both engines' answers and time intervals."""

    pipeline: tuple[float, float]
    oracle: tuple[float, float]
    value: int | None
    opt: int | None
    error: str | None
    stages: dict
    pipeline_s: float = 0.0  # at reference speed, set by ``solve_round``
    baseline_s: float = 0.0


def solve_round(relopt, workload, loaded, speed, tracer=None) -> list[Solve]:
    """One pass over the instance set: pipeline, then oracle, per instance."""
    span = tracer.span if tracer else nullcontext
    rows = []
    for i, (structure, formula) in enumerate(loaded):
        solver = make_solver(relopt, workload, formula.kind)
        if tracer:
            solver = tracer.ip_solver(solver)
            tracer.instance = i
        value = error = trace = None
        started = time.perf_counter()
        try:
            with span("pipeline"):
                value, trace = relopt.reduce_and_solve(structure, formula, solver)
        except Exception:  # a raising instance is a counted failure
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        pipeline = (started, time.perf_counter())
        speed.maybe_sample(started)
        started = time.perf_counter()
        with span("oracle"):
            oracle = relopt.baseline_opt(structure, formula)
        oracle_interval = (started, time.perf_counter())
        speed.maybe_sample(started)
        stages = {} if trace is None else {**dict(trace.stages), "path": trace.path}
        rows.append(Solve(pipeline, oracle_interval, value,
                          None if oracle is None else oracle.value, error, stages))
    speed.sample()
    for row in rows:
        row.pipeline_s = speed.scale(*row.pipeline)
        row.baseline_s = speed.scale(*row.oracle)
    return rows


def check(workload, seed, loaded, rounds, ratio) -> int:
    """Failed instance solves, each printed with seed, shape and both values."""
    failed = 0
    for r, rows in enumerate(rounds):
        for i, row in enumerate(rows):
            structure, formula = loaded[i]
            if row.error is None and accepts(formula.kind, ratio, row.opt, row.value):
                continue
            failed += 1
            print(
                f"FAIL workload={workload} seed={seed} slot={i} round={r} "
                f"kind={formula.kind} k={formula.k} ell={formula.ell} "
                f"n={structure.n} m={structure.m} pipeline={row.value} oracle={row.opt}"
                + (f" error={row.error}" if row.error else "")
            )
    return failed


def achieved_ratio(kind, opt, value) -> float:
    if opt is None or value is None or opt == value:
        return 1.0
    # counts are integers, so a zero answer is read as one
    return opt / max(value, 1) if kind == "max" else value / max(opt, 1)


def invariant_violation(workload, metrics) -> str | None:
    name, op, bound = INVARIANTS[workload]
    value = metrics[name]
    ok = {">=": value >= bound, "<=": value <= bound, "==": value == bound}[op]
    return None if ok else f"invariant {name} {op} {bound} broken: {value}"


def stage_counts(rows: list[Solve]) -> dict:
    """The invariant inputs that need no wrappers: read from ReductionTrace."""
    return {
        "reduction.prune_frac": tracing.prune_frac([r.stages for r in rows]),
        # only the multicount path is sure to make no IP call
        "ip.calls": sum(r.stages.get("path") != "multicount" for r in rows),
    }


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_frac") or name == "hybrid.approx_ratio_max":
        return "ratio"
    if name == "ip.ns_per_tuple":
        return "ns"
    return "count"


def end_to_end(rounds, setups) -> tuple[dict, dict]:
    """End-to-end metrics, plus the tail percentile for the metadata."""
    n = len(rounds[0])
    pipe = [statistics.median(rows[i].pipeline_s for rows in rounds) for i in range(n)]
    base = [statistics.median(rows[i].baseline_s for rows in rounds) for i in range(n)]
    metrics = {
        "pipeline_s": sum(pipe),
        "pipeline_ms_p50": statistics.median(pipe) * 1000,
        "baseline_s": sum(base),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    tail = {}
    if n > 10:
        # the highest percentile with at least ten instances beyond it
        p = math.floor(100 * (n - 10) / n)
        tail = {"pipeline_ms_tail": percentile(pipe, p) * 1000,
                "pipeline_ms_tail_percentile": p, "pipeline_ms_tail_samples": n}
    return metrics, tail


def per_layer(setup_tracer, tracer, rounds, loaded) -> dict:
    """Per-layer metrics of the traced round, with times at reference speed."""
    untraced, traced = rounds
    # every span takes the host-speed factor of the solve it belongs to
    factor = {}
    for i, row in enumerate(traced):
        factor[("pipeline", i)] = row.pipeline_s / (row.pipeline[1] - row.pipeline[0])
        factor[("oracle", i)] = row.baseline_s / (row.oracle[1] - row.oracle[0])
    metrics = tracing.layer_metrics(tracer.spans, [row.stages for row in traced], factor)
    metrics["hybrid.approx_ratio_max"] = max(
        achieved_ratio(formula.kind, row.opt, row.value)
        for (_, formula), row in zip(loaded, traced)
    )
    for metric, name in (("structure.load_ms", "structure.load"),
                         ("formula.parse_ms", "formula.parse"), ("generate.ms", "generate")):
        metrics[metric] = sum(s[2] - s[1] for s in setup_tracer.spans if s[0] == name) / 1e6
    metrics["trace.overhead_frac"] = (
        sum(row.pipeline_s for row in traced) / sum(row.pipeline_s for row in untraced) - 1
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    setup_tracer = tracing.Tracer() if args.trace else None
    own_setup, texts, loaded = setup(args.workload, args.seed, setup_tracer)
    relopt = sys.modules["relopt"]
    setups = [own_setup] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    ratio = make_solver(relopt, args.workload, "max").ratio

    wrapped = tracing.installed_wrappers()
    if wrapped:
        sys.exit(f"perfbench: untraced round with wrappers installed: {wrapped}")
    speed = HostSpeed()
    started = time.perf_counter()
    rounds = [solve_round(relopt, args.workload, loaded, speed)]
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            rounds.append(solve_round(relopt, args.workload, loaded, speed, tracer))
    else:
        deadline = started + args.seconds
        while time.perf_counter() + (time.perf_counter() - started) / len(rounds) <= deadline:
            rounds.append(solve_round(relopt, args.workload, loaded, speed))
    measured_s = time.perf_counter() - started

    attempted = sum(len(rows) for rows in rounds)
    failed = check(args.workload, args.seed, loaded, rounds, ratio)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(loaded),
        "instances_sha256": instances.texts_digest(texts),
        "rounds": len(rounds),
        "measured_s": measured_s,
        "calibration_s": statistics.median(speed.seconds),
        "calibration_samples": len(speed.seconds),
        "failed_frac": failed / attempted,
        "raw_pipeline_s": [sum(r.pipeline[1] - r.pipeline[0] for r in rows) for rows in rounds],
        "round_pipeline_s": [sum(r.pipeline_s for r in rows) for rows in rounds],
    }
    if args.trace:
        metrics = per_layer(setup_tracer, tracer, rounds, loaded)
        violation = invariant_violation(args.workload, metrics)
    else:
        metrics, tail = end_to_end(rounds, setups)
        meta.update(tail)
        violation = invariant_violation(args.workload, stage_counts(rounds[0]))
    units = {name: END_TO_END_UNITS.get(name) or unit(name) for name in metrics}
    if violation:
        print(f"FAIL workload={args.workload} seed={args.seed} {violation}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as out:
        json.dump({"meta": meta, "metrics": metrics, "units": units}, out, indent=1)
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")

    for key, value in meta.items():
        print(f"# {key} {value}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and violation is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
