"""The pressgraph benchmark: closed-loop CLI ops, end to end and per layer.

One client in one process sends the next op only when the previous one
returned.  An op is ``pressgraph.cli.main(argv)`` called in-process on
an input the benchmark wrote during set-up, with standard output
captured, so interpreter start stays out of every op.  Every op's exit
code and output bytes are checked against what the input's construction
guarantees; a wrong or failed op counts in ``failed``, never aborts.

Workloads (seeded; the seed only changes the generated inputs):

  recognize-cup     recognize on permuted cup graphs, n = 1024: the yes
                    path, time in the greedy order, root and property
                    check.
  recognize-mirror  recognize on permuted mirrored dense graphs, n = 512:
                    the no path (a tie), time in parsing and graph
                    building; root and property check never run.
  census-5          census 5 --jobs 1, 32768 tiny graphs: per-call
                    overhead and canonical_form; reaches every reason.
  press-replay      press --sequence <planted> on permuted cup graphs,
                    n = 192: the press dynamic on edge sets.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates an untraced op and a traced one (spans
around the library's public calls, see spans.py) and reports per-layer
metrics: per-op medians of span self time and of counters, plus the
tracing overhead.  Each run writes a result file, and a traced run a
trace file, under ``.bench_out/`` in the repository root.

End-to-end times are host-speed corrected: calibration units (see
calibration.py) are timed right before and after every op and, on a
timer, during it; the op's wall time, less the units run inside it, is
scaled to the reference speed by the speed the units saw.  Set-up is
timed in fresh processes (probe.py): import pressgraph and one
smoke-size op of the workload, never the benchmark's input generation;
``setup_s`` is the median of SETUP_ROUNDS such rounds, each corrected
by rounds in its own process.  Result files keep the raw wall-clock
figures beside them.  Per-layer times are raw wall clock.

Usage, from the repository root:

  python3 bench/run.py                      # every workload, both runs
  python3 bench/run.py --workload census-5 --seed 3 --trace 0
  python3 bench/run.py --smoke --seconds 1  # tiny inputs, seconds to run

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  A
single-workload run prints one JSON object as its last stdout line:
``correct``, ``attempted``, ``failed`` (error_rate is failed / attempted)
and the metrics of its mode.  Its result file adds the machine, the git
sha, the percentile the tail latency sits at, the sample count, the
set-up rounds and the raw wall-clock figures.

Self-tests, from the repository root:

  PYTHONPATH=src python3 -m pytest -q bench
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibration
import inputs
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("recognize-cup", "recognize-mirror", "census-5", "press-replay")
# Input size per workload, full and smoke.
SIZES = {
    "recognize-cup": (1024, 24),
    "recognize-mirror": (512, 16),
    "census-5": (5, 3),
    "press-replay": (192, 12),
}
DISTINCT_INPUTS = 16  # ops cycle through this many graphs per seed
SETUP_ROUNDS = 11

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# name: (unit, source).  Span sources read the spans named by the
# metric name without its last dot-separated part ("graphs.press.calls"
# reads "graphs.press" spans): "self" and "inclusive" sum their self or
# whole durations in an op, "calls" counts them.  "counter" reads the
# counter of the same name that spans.py computes from returned values,
# and "ratio" divides the two counters RATIOS names.  Each value is the
# median over traced ops, except "overhead", the run's tracing overhead.
PER_LAYER = {
    "cholesky.find_pressing_order.ms": ("ms", "self"),
    "cholesky.instructional_root.ms": ("ms", "self"),
    "cholesky.greedy_presses": ("count", "counter"),
    "cholesky.root_row_xors": ("count", "counter"),
    "cholesky.presses_after_tie_ratio": ("ratio", "ratio"),
    "recognition.check_properties.ms": ("ms", "self"),
    "recognition.recognize.ms": ("ms", "inclusive"),
    "recognition.recognize.residual_ms": ("ms", "self"),
    "recognition.yes_ratio": ("ratio", "ratio"),
    "graphs.parse_auto.ms": ("ms", "self"),
    "graphs.components.ms": ("ms", "self"),
    "graphs.induced.ms": ("ms", "self"),
    "graphs.adjacency_matrix.ms": ("ms", "self"),
    "graphs.press.ms": ("ms", "self"),
    "graphs.press.calls": ("count", "calls"),
    "graphs.to_text.ms": ("ms", "self"),
    "gf2.is_symmetric.ms": ("ms", "self"),
    "gf2.is_upper_triangular.ms": ("ms", "self"),
    "gf2.root_bytes_moved": ("bytes", "counter"),
    "generate.all_pseudographs.ms": ("ms", "self"),
    "generate.canonical_form.ms": ("ms", "self"),
    "generate.canonical_form.calls": ("count", "calls"),
    "cli.main.self_ms": ("ms", "self"),
    "trace.overhead_ratio": ("ratio", "overhead"),
}
# ratio name: (numerator counter, base counter)
RATIOS = {
    "cholesky.presses_after_tie_ratio": (
        "cholesky.presses_after_tie",
        "cholesky.greedy_presses",
    ),
    "recognition.yes_ratio": (
        "recognition.recognize.yes",
        "recognition.recognize.calls",
    ),
}


def describe(name: str) -> str:
    """How a per-layer metric is measured, for tables and result files."""
    source = PER_LAYER[name][1]
    if source == "ratio":
        return "{} / {} (base)".format(*RATIOS[name])
    if source == "counter":
        return "computed from returned values"
    if source == "overhead":
        return "traced cli.main / untraced op - 1, medians"
    return f"{source} of {name.rsplit('.', 1)[0]} spans"


class Case(NamedTuple):
    """One input: CLI arguments and the exit code and exact stdout its
    construction guarantees."""

    argv: list[str]
    code: int
    expect: str

    def check(self, code, out) -> bool:
        return code == self.code and out == self.expect


def make_cases(workload: str, seed: int, smoke: bool, workdir: Path):
    n = SIZES[workload][1 if smoke else 0]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "census-5":
        argv = ["census", str(n), "--jobs", "1"]
        return [Case(argv, 0, inputs.census_line(n))]
    cases = []
    for i in range(DISTINCT_INPUTS):
        path = workdir / f"{workload}-n{n}-{i}.graph"
        if workload == "recognize-mirror":
            path.write_text(inputs.mirror_case(n, rng))
            want = "verdict: no\nreason: TIE\n"
            cases.append(Case(["recognize", str(path)], 1, want))
            continue
        text, seq = inputs.cup_case(n, rng)
        path.write_text(text)
        if workload == "recognize-cup":
            want = "verdict: yes\nsequence: " + " ".join(map(str, seq)) + "\n"
            cases.append(Case(["recognize", str(path)], 0, want))
        else:
            argv = ["press", "--sequence", ",".join(map(str, seq)), str(path)]
            edgeless = f"{n}\n" + " ".join(map(str, range(1, n + 1))) + "\n"
            cases.append(Case(argv, 0, edgeless))
    return cases


def load_library():
    """Import pressgraph from this checkout's src/ and return its cli."""
    sys.path.insert(0, str(SRC))
    from pressgraph import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"pressgraph loaded from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv):
    """Call cli.main(argv) with captured output: (exit code, stdout, ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed op, not a failed run
            code = None
        ns = time.perf_counter_ns() - start
    return code, out.getvalue(), ns


def census_sweep(tracer: Tracer, n: int) -> str:
    """census n by hand through the public API, as census's output line.

    The traced ``census`` call already spans recognize, canonical_form
    and components; this sweep runs with the tracer uninstalled and
    spans only the steps of all_pseudographs, which census never calls.
    Its tallies must equal the closed forms.
    """
    import pressgraph as pg

    graphs = pg.all_pseudographs(n)
    count = 0
    classes = {}
    while True:
        g = tracer.span("generate.all_pseudographs", next, graphs, None)
        if g is None:
            break
        if not pg.recognize(g).verdict:
            continue
        count += 1
        key = pg.canonical_form(g)
        if key not in classes:
            classes[key] = len(g.components()) == 1 and bool(g.edges)
    return (
        f"n={n} labeled_total={count} up_iso_classes={len(classes)} "
        f"cup_iso_classes={sum(classes.values())}\n"
    )


def tail(sorted_ns: list[int]) -> tuple[int, float]:
    """Highest percentile with at least 10 samples above it, and which.

    Below 21 samples that percentile would not lie above the median,
    so the maximum (percentile 100) is reported instead.
    """
    count = len(sorted_ns)
    if count < 21:
        return sorted_ns[-1], 100.0
    return sorted_ns[count - 11], 100.0 * (count - 10) / count


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def per_layer(snapshots: list[dict], overhead: float) -> dict:
    def per_op(snap, name, source):
        span = name.rsplit(".", 1)[0]
        if source == "self":
            return snap["self_ns"].get(span, 0) / 1e6
        if source == "inclusive":
            return snap["total_ns"].get(span, 0) / 1e6
        if source == "calls":
            return snap["calls"].get(span, 0)
        if source == "counter":
            return snap["counters"][name]
        num, base = (snap["counters"][k] for k in RATIOS[name])
        return num / base if base else 0.0

    values = {}
    for name, (unit, source) in PER_LAYER.items():
        if source == "overhead":
            value = overhead
        else:
            value = statistics.median(
                per_op(s, name, source) for s in snapshots
            )
        values[name] = {"value": float(value), "unit": unit}
    return values


def single(args) -> int:
    if not (SRC / "pressgraph" / "__init__.py").is_file():
        print(f"error: no pressgraph sources under {SRC}", file=sys.stderr)
        return 2
    cli = load_library()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        cases = make_cases(args.workload, args.seed, args.smoke, workdir)
        warm = make_cases(args.workload, args.seed, True, workdir)[0]
        return measure(args, cli, cases, warm)
    finally:
        shutil.rmtree(workdir)


def setup_round(case: Case) -> tuple[float, float, bool]:
    """Time one set-up in a fresh process (probe.py).

    Returns its wall seconds, its host-speed corrected seconds and
    whether the warm-up op's output was right.
    """
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), *case.argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    got = json.loads(proc.stdout)
    if Path(got["module"]).resolve().parent.parent != SRC:
        raise ImportError(f"probe loaded pressgraph from {got['module']}")
    seconds = got["seconds"]
    units, ns = 2 * calibration.ROUND_UNITS, sum(got["calibration_ns"])
    corrected = seconds * calibration.scale(units, ns)
    return seconds, corrected, case.check(got["code"], got["out"])


def measure(args, cli, cases, warm) -> int:
    attempted = failed = 0
    setup_wall, setup = [], []
    for _ in range(SETUP_ROUNDS):
        wall, corrected, good = setup_round(warm)
        setup_wall.append(wall)
        setup.append(corrected)
        attempted += 1
        failed += not good

    latencies = []  # host-speed corrected ns
    wall_ns = []
    cal_ns = []
    snapshots = []
    traced_ns = []
    measured_failed = 0
    tracer = Tracer()
    sampler = calibration.Sampler()
    cal = calibration.round_ns()
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        i += 1
        with sampler:
            code, out, ns = run_op(cli, case.argv)
        after = calibration.round_ns()
        good = case.check(code, out)
        attempted += 1
        failed += not good
        measured_failed += not good
        ns -= sampler.paused_ns
        units = 2 * calibration.ROUND_UNITS + sampler.units
        wall_ns.append(ns)
        latencies.append(
            ns * calibration.scale(units, cal + after + sampler.ns)
        )
        cal_ns.append(after)
        cal = after
        if args.trace:
            tracer.reset_op()
            tracer.install()
            try:
                code, out, ns = run_op(cli, case.argv)
            finally:
                tracer.uninstall()
            good = case.check(code, out)
            if args.workload == "census-5":
                n = SIZES["census-5"][1 if args.smoke else 0]
                swept = tracer.span("census.sweep", census_sweep, tracer, n)
                good = good and swept == case.expect
            attempted += 1
            failed += not good
            traced_ns.append(tracer.total_ns.get("cli.main", ns))
            snapshots.append(
                {
                    "self_ns": tracer.self_ns,
                    "total_ns": tracer.total_ns,
                    "calls": tracer.calls,
                    "counters": tracer.counters,
                }
            )
            cal = calibration.round_ns()
        if time.perf_counter() >= deadline:
            break

    # One client, closed loop: throughput is good ops per second of op
    # time, at the reference speed like the latencies.
    throughput = (len(latencies) - measured_failed) / (sum(latencies) / 1e9)
    latencies.sort()
    tail_ns, tail_pct = tail(latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_kib / 1024,
    }
    wall_ns.sort()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "setup_rounds_s": setup,
        "end_to_end": {
            k: {"value": v, "unit": END_TO_END[k]}
            for k, v in end_to_end.items()
        },
        "calibration": {
            "ref_unit_ns": calibration.REF_UNIT_NS,
            "round_units": calibration.ROUND_UNITS,
            "round_ns_median": statistics.median(cal_ns),
            "round_ns_min": min(cal_ns),
            "round_ns_max": max(cal_ns),
        },
        "wall_clock": {
            "throughput_ops_s": (len(wall_ns) - measured_failed)
            / (sum(wall_ns) / 1e9),
            "latency_p50_ms": statistics.median(wall_ns) / 1e6,
            "latency_tail_ms": tail(wall_ns)[0] / 1e6,
            "setup_s": statistics.median(setup_wall),
            "setup_rounds_s": setup_wall,
        },
    }
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        untraced = statistics.median(wall_ns)
        overhead = statistics.median(traced_ns) / untraced - 1
        metrics = per_layer(snapshots, overhead)
        result["per_layer"] = metrics
        result["per_layer_how"] = {name: describe(name) for name in PER_LAYER}
        result["traced_ops"] = len(snapshots)
        trace_file = OUT / f"trace-{tag}.json"
        with open(trace_file, "w") as fh:
            json.dump(
                {
                    "machine": result["machine"],
                    "workload": args.workload,
                    "seed": args.seed,
                    "names": tracer.names,
                    "span_fields": [
                        "op", "id", "parent", "name", "start_ns", "end_ns"
                    ],
                    "spans": tracer.spans,
                    "spans_dropped": tracer.dropped,
                    "ops": snapshots,
                },
                fh,
            )
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = result["end_to_end"]
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(
        f"{args.workload}: {attempted} ops attempted, {failed} failed, "
        f"error_rate {result['error_rate']:.4g}, tail at "
        f"p{tail_pct:.1f} of {len(latencies)} samples",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Run every workload untraced then traced, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(BENCH / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
            if proc.returncode != 0:
                print(f"error: {cmd} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            tag = f"{workload}-seed{args.seed}-trace{trace}"
            path = OUT / f"result-{tag}.json"
            results[workload, trace] = json.loads(path.read_text())

    def table(title, rows, label_width):
        print(title)
        head = " ".join(f"{w:>16}" for w in WORKLOADS)
        print(f"{'metric':<{label_width}} {'unit':<6} {head}  measured as")
        for name, unit, how, cells in rows:
            line = " ".join(f"{v:>16.4g}" for v in cells)
            print(f"{name:<{label_width}} {unit:<6} {line}  {how}")
        print()

    untraced = [results[w, 0] for w in WORKLOADS]
    rows = [
        (k, u, "ru_maxrss" if k == "peak_rss_mib" else "host-speed corrected",
         [r["end_to_end"][k]["value"] for r in untraced])
        for k, u in END_TO_END.items()
    ]
    rows.append(
        ("error_rate", "ratio", "failed / attempted",
         [r["error_rate"] for r in untraced])
    )
    rows.append(
        ("tail_percentile", "%", "of latency_tail_ms",
         [r["latency_tail_percentile"] for r in untraced])
    )
    rows.append(
        ("samples", "count", "ops timed", [r["samples"] for r in untraced])
    )
    table("end to end", rows, 18)
    rows = [
        (name, unit, describe(name),
         [results[w, 1]["per_layer"][name]["value"] for w in WORKLOADS])
        for name, (unit, _) in PER_LAYER.items()
    ]
    table("per layer (traced run)", rows, 36)
    print(f"machine: {json.dumps(untraced[0]['machine'])}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
