"""Tests of the benchmark itself, on the tiny size of each workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from run import END_TO_END, per_layer_names, unit_of  # noqa: E402
from spans import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_all():
    """Every workload at the tiny size, timed and traced, on a non-default seed."""
    proc = _bench("--workload", "all", "--size", "tiny", "--seconds", "1", "--seed", "3")
    return _result(proc), proc.stdout


def test_tiny_workloads_pass_their_checks(tiny_all):
    result, stdout = tiny_all
    assert result["correct"] is True, stdout
    assert result["failed"] == 0
    # two timed iterations and one traced per workload
    assert result["attempted"] >= 3 * len(WORKLOADS)
    for w in WORKLOADS:
        report = json.loads((BENCH / "out" / f"{w}-seed3-tiny.json").read_text())
        assert report["failed_frac"] == 0.0
        assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"
        assert report["environment"]["nproc"] >= 1
        assert report["end_to_end"]["cell_steps_per_s"] > 0


def test_self_times_and_remainder_sum_to_traced_wall(tiny_all):
    for w in WORKLOADS:
        trace = json.loads((BENCH / "out" / f"{w}-seed3-tiny.trace.json").read_text())
        m = summarize(trace)
        roots = [s for s in trace["spans"] if s["parent"] < 0]
        assert [s["name"].split(".")[0] for s in roots] == ["cli"] * len(roots)
        attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert attributed + m["cli.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-12)
        assert m["trace.wall_s"] == pytest.approx(sum(s["end"] - s["start"] for s in roots))


def test_every_declared_metric_is_printed_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(e2e) == set(END_TO_END)
    assert per_layer_names() == list(layer)
    for name, unit in {**e2e, **layer}.items():
        assert unit_of(name) == unit, name
    for trace, want in (("0", e2e), ("1", layer)):
        proc = _bench("--workload", "upscaled_darcy", "--size", "tiny", "--seconds", "1",
                      "--seed", "1", "--trace", trace)
        result = _result(proc)
        assert set(result["metrics"]) == set(want)
        for name, unit in want.items():
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
            assert name in proc.stdout


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/ must fail."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "converge_default", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_self_time_subtracts_children():
    tracer = Tracer("t")

    def leaf():
        time.sleep(0.01)

    def middle():
        tracer.span("kinetics.ode_step", leaf)
        tracer.span("kinetics.ode_step", leaf)

    tracer.span("cli.main", tracer.span, "homogenize.sweep", middle)
    trace = tracer.to_dict()
    assert [s["parent"] for s in trace["spans"]] == [-1, 0, 1, 1]
    dur = [s["end"] - s["start"] for s in trace["spans"]]
    m = summarize(trace)
    assert m["trace.wall_s"] == pytest.approx(dur[0])
    assert m["homogenize.self_s"] == pytest.approx(dur[1] - dur[2] - dur[3])
    assert m["kinetics.self_s"] == pytest.approx(dur[2] + dur[3])
    assert m["cli.self_s"] + m["homogenize.self_s"] + m["kinetics.self_s"] == pytest.approx(dur[0])
    assert m["kinetics.ode_step.calls"] == 2
