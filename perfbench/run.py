"""porechem benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a porechem checkout)::

    python3 perfbench/run.py --workload converge_default --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50     # every metric, every workload

Each workload is a closed loop of iterations, one after another; every
iteration is a fresh interpreter (``worker.py``) that imports porechem from
``src/``, parses the generated configs and runs the porechem CLI commands.
Iterations start until ``--seconds`` have passed, at least two of them so
that their artifacts can be compared byte for byte.  With ``--trace 1`` one
more iteration runs with spans recorded around calls into each module.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything else
(samples, machine and thread settings, check results, the span file) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import reference_problems  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

MIN_ITERATIONS = 2      # artifacts of two iterations are compared byte for byte
SETUP_SAMPLES = 9       # fresh interpreters timed for setup_s
BUDGET_S = 170.0        # every child is stopped by then

# one process, one BLAS thread; PORECHEM_THREADS is left unset (= 1)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_steps_per_s": "cell-steps/s",
}

# name -> (numerator, denominator); printed with their base
RATIOS = {
    "linalg.cg.implicit.iters_per_solve": ("linalg.cg.implicit.iters", "linalg.cg.implicit.calls"),
    "linalg.cg.implicit.iters_per_newton_call": ("linalg.cg.implicit.iters", "implicit.newton.calls"),
    "linalg.cg.corrector.iters_per_solve": ("linalg.cg.corrector.iters", "linalg.cg.corrector.calls"),
    "implicit.newton.solves_per_call": ("implicit.newton.iters", "implicit.newton.calls"),
    "trace.overhead_frac": ("trace.overhead_s", "trace.untraced_wall_s"),
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("cell_steps"):
        return "cell-steps"
    if name in RATIOS or name == "trace.coverage":
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """The per-layer metrics BENCHMARK.json declares, in its order."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


# -- environment ----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PORECHEM_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


# -- one child process ------------------------------------------------------

class Runner:
    """Starts worker interpreters for one workload and collects records."""

    def __init__(self, root: Path, work: Path, workload: str, configs: list, commands: list,
                 deadline: float, trace_file: Path):
        self.root = root
        self.work = work
        self.workload = workload
        self.configs = configs
        self.commands = commands
        self.deadline = deadline
        self.env = child_env(root)
        self.trace_file = trace_file
        self.count = 0

    def child(self, *, setup_only=False, trace=False):
        """Run one worker and return its record; raises RuntimeError if the
        worker crashed, was stopped at the deadline, or wrote no record."""
        self.count += 1
        tag = f"it{self.count:03d}"
        out = self.work / tag
        spec = {
            "workload": self.workload,
            "configs": self.configs,
            "commands": [
                [a.format(cfg=self.work / "cfg", out=out) for a in argv] + ["--out", str(out), "--quiet"]
                for argv in self.commands
            ],
            "out": str(out),
            "setup_only": setup_only,
            "trace": trace,
            "run_id": tag,
            "record": str(self.work / f"{tag}.record.json"),
            "trace_file": str(self.trace_file),
        }
        spec_path = self.work / f"{tag}.spec.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise RuntimeError(f"{tag}: no time left before the deadline")
        # the clock starts before the interpreter does: setup_s includes it
        spec["t0"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        proc_args = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
        try:
            proc = subprocess.run(proc_args, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{tag}: stopped after {timeout:.0f} s") from None
        record_path = Path(spec["record"])
        if proc.returncode != 0 or not record_path.exists():
            raise RuntimeError(f"{tag}: worker exited with status {proc.returncode}\n{proc.stderr}")
        record = json.loads(record_path.read_text())
        record["tag"] = tag
        if not setup_only:
            shutil.rmtree(out, ignore_errors=True)
            if trace:
                record["trace"] = json.loads(self.trace_file.read_text())
        return record


# -- one workload -----------------------------------------------------------

def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    work = HERE / "out" / f"{workload}-seed{seed}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = write_configs(workload, seed, size, work / "cfg")
    configs = sorted(str(p) for p in (work / "cfg").iterdir())
    trace_file = HERE / "out" / f"{workload}-seed{seed}-{size}.trace.json"
    runner = Runner(root, work, workload, configs, commands, deadline, trace_file)

    warm = runner.child(setup_only=True)  # fills the bytecode and file caches

    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(runner.child())
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(iterations)
        # start another only if at least half of it fits in --seconds, and
        # a traced iteration and the set-up samples still fit the budget
        if len(iterations) >= MIN_ITERATIONS and elapsed + per_iteration / 2 >= seconds:
            break
        reserve = (1.5 * per_iteration if trace else 0.0) + SETUP_SAMPLES * 1.5
        if time.monotonic() + per_iteration > deadline - reserve:
            break
    setup = [r["setup_s"] for r in iterations]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.child(setup_only=True)["setup_s"])
    traced = runner.child(trace=True) if trace else None

    # checks: each iteration's own, byte identity with the first, reference values
    reference = None
    if seed == 0 and size == "full":
        with open(HERE / "reference.json") as f:
            reference = json.load(f).get(workload)
    all_runs = iterations + ([traced] if traced else [])
    first_hashes = iterations[0]["hashes"]
    for rec in all_runs:
        if rec["hashes"] != first_hashes:
            differ = sorted(k for k in set(rec["hashes"]) | set(first_hashes)
                            if rec["hashes"].get(k) != first_hashes.get(k))
            rec["problems"].append(f"artifacts differ from the first iteration: {differ[:5]}")
        if reference is not None and not rec["problems"]:
            rec["problems"].extend(reference_problems(rec["values"], reference))
    failed = sum(1 for r in all_runs if r["problems"])

    walls = [r["wall_s"] for r in iterations]
    wall = statistics.median(walls)
    cell_steps = iterations[0]["cell_steps"]
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in iterations),
        "cell_steps_per_s": cell_steps / wall,
    }
    samples = {"wall_s": walls, "setup_s": setup}
    layer = {}
    if traced is not None:
        layer = summarize(traced["trace"])
        layer["trace.untraced_wall_s"] = wall
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall
        for name, (num, den) in RATIOS.items():
            layer[name] = layer[num] / layer[den] if layer[den] else 0.0
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": len(all_runs),
        "failed": failed,
        "failed_frac": failed / len(all_runs),
        "cell_steps": cell_steps,
        "end_to_end": e2e,
        "per_layer": layer,
        "samples": samples,
        "problems": {r["tag"]: r["problems"] for r in all_runs if r["problems"]},
        "values": iterations[0]["values"],
        "environment": warm["environment"],
        "work": work,
    }


# -- reporting --------------------------------------------------------------

def environment(worker_env: dict) -> dict:
    return {
        **THREAD_ENV,
        "PORECHEM_THREADS": "unset (1)",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **worker_env,
    }


def print_report(result: dict, names: list):
    w = result["workload"]
    print(f"== {w} (seed {result['seed']}, size {result['size']})")
    for k, v in environment(result["environment"]).items():
        print(f"   env {k} = {v}")
    n = len(result["samples"]["wall_s"])
    e2e = result["end_to_end"]
    walls = result["samples"]["wall_s"]
    print(f"   {'wall_s':44s} {e2e['wall_s']:14.6g} s      median of {n} runs "
          f"(min {min(walls):.4g}, max {max(walls):.4g})")
    print(f"   {'setup_s':44s} {e2e['setup_s']:14.6g} s      median of {len(result['samples']['setup_s'])} interpreters")
    print(f"   {'peak_rss_mb':44s} {e2e['peak_rss_mb']:14.6g} MB     median of {n} runs")
    print(f"   {'cell_steps_per_s':44s} {e2e['cell_steps_per_s']:14.6g} cell-steps/s  "
          f"({result['cell_steps']} cell-steps / median wall_s)")
    print(f"   {'failed_frac':44s} {result['failed_frac']:14.6g} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    layer = result["per_layer"]
    for name in names:
        if name not in layer:
            continue
        base = ""
        if name in RATIOS:
            num, den = RATIOS[name]
            base = f"({num} {layer[num]:.6g} / {den} {layer[den]:.6g})"
        print(f"   {name:44s} {layer[name]:14.6g} {unit_of(name):6s} {base}")
    for tag, problems in result["problems"].items():
        for p in problems:
            print(f"   FAILED {tag}: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every mesh and step count (for the benchmark's tests)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "porechem" / "__init__.py").is_file():
        print(f"error: no porechem sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = args.trace == 1 or args.workload == "all"
    results = []
    for i, w in enumerate(workloads):
        # the whole run must end by the deadline: share what is left evenly
        share = (deadline - time.monotonic()) / (len(workloads) - i)
        try:
            results.append(run_workload(root, w, args.seed, args.seconds, trace, args.size,
                                        time.monotonic() + share))
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    out_dir = HERE / "out"
    declared = per_layer_names()
    for r in results:
        print_report(r, declared + sorted(k for k in r["per_layer"] if k not in declared))
        work = r.pop("work")
        shutil.rmtree(work, ignore_errors=True)
        r["environment"] = environment(r["environment"])
        (out_dir / f"{r['workload']}-seed{r['seed']}-{r['size']}.json").write_text(json.dumps(r, indent=1))

    metrics = {}
    for r in results:
        prefix = f"{r['workload']}/" if len(results) > 1 else ""
        chosen = r["per_layer"] if args.trace == 1 else r["end_to_end"]
        for name in (declared if args.trace == 1 else END_TO_END):
            metrics[prefix + name] = {"value": chosen[name], "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
