"""Self-tests of the benchmark's generators, tracer and runner.

Run from the repository root:

  PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import inputs
from run import PER_LAYER, WORKLOADS
from spans import Tracer
from pressgraph import (
    census,
    count_sequences_bruteforce,
    cup_count,
    cup_from_choices,
    parse_auto,
    recognize,
    total_count,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("n", range(1, 9))
def test_cup_matches_library_and_is_unique(n):
    rng = random.Random(n)
    for _ in range(12):
        word = inputs.biased_word(n, rng)
        g = parse_auto(inputs.graph_text(inputs.gram(inputs.cup_root(word))))
        assert g == cup_from_choices(word)
        assert count_sequences_bruteforce(g) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_permuted_cup_recognized_with_planted_sequence(n):
    text, seq = inputs.cup_case(n, random.Random(100 + n))
    g = parse_auto(text)
    assert g.is_successful(seq)
    report = recognize(g)
    assert report.verdict and report.sequence == seq


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_mirror_has_no_unique_sequence(n):
    rng = random.Random(n)
    for _ in range(8):
        g = parse_auto(inputs.mirror_case(n, rng))
        assert count_sequences_bruteforce(g) != 1
        report = recognize(g)
        assert not report.verdict and report.reason == "TIE"
        assert len(g.components()) == 1


def test_mirror_swap_is_an_automorphism():
    m = 5
    adj = inputs.mirror_adjacency(m, random.Random(7))
    swap = list(range(m + 1, 2 * m + 1)) + list(range(1, m + 1))
    assert inputs.relabel(adj, swap) == adj


@pytest.mark.parametrize("n", range(1, 6))
def test_census_line_closed_forms(n):
    assert inputs.cup_count(n) == cup_count(n)
    fields = dict(kv.split("=") for kv in inputs.census_line(n).split())
    assert int(fields["up_iso_classes"]) == total_count(n)
    if n <= 4:
        assert inputs.census_line(n) == census(n).to_text()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.reset_op()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.span("child", child) + tracer.span("child", child)

    tracer.span("parent", parent)
    total = tracer.total_ns
    assert tracer.calls == {"child": 2, "parent": 1}
    assert tracer.self_ns["parent"] == total["parent"] - total["child"]
    assert tracer.self_ns["child"] == total["child"]
    ids = {s[1]: s for s in tracer.spans}
    parent_id = next(
        s[1] for s in tracer.spans if tracer.names[s[3]] == "parent"
    )
    for op, sid, par, name, start, end in tracer.spans:
        if tracer.names[name] == "child":
            assert par == parent_id
            assert ids[par][4] <= start <= end <= ids[par][5]


def test_calibration_scales_to_the_reference_speed():
    units = calibration.ROUND_UNITS
    assert calibration.round_ns() > 0
    assert calibration.scale(units, units * calibration.REF_UNIT_NS) == 1
    # A host twice as slow halves the op time counted.
    assert calibration.scale(units, 2 * units * calibration.REF_UNIT_NS) == 0.5


def test_sampler_runs_units_during_an_op():
    with calibration.Sampler() as sampler:
        sum(range(3_000_000))
    assert sampler.units >= 1
    assert 0 < sampler.ns <= sampler.paused_ns


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    units = [u for u, _ in PER_LAYER.values()]
    assert [m["unit"] for m in spec["per_layer"]] == units


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(
        ROOT,
        "--smoke",
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0.3",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_fails_without_the_library(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        tmp_path,
        "--workload", "census-5",
        "--seed", "1",
        "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
