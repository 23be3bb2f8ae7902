"""One workload iteration in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec (written by
``run.py``) names the config files, the CLI command lines, the output
directory, whether to trace, and the monotonic clock reading taken just
before this interpreter was started.  The worker measures set-up (import
porechem and parse/validate every config), runs the commands through
``porechem.cli.main`` as the ``porechem`` script does, checks the
artifacts, and writes a JSON record next to the spec.
"""

import json
import sys
import time


def _observe_runs(seen: list):
    """Record kind, active cells, steps, final masses and mass drift of
    every transport run; this wraps ``run`` once per run, traced or not."""
    from porechem.macro_sim import MacroSolver
    from porechem.micro_sim import MicroSolver

    def observed(kind, original, cells):
        def run(self):
            result = original(self)
            last = result.mass[-1]
            last = last if isinstance(last, dict) else last.__dict__
            seen.append({
                "kind": kind,
                "cells": cells(self),
                "steps": self.cfg.n_steps,
                "mass_u": last["mass_u"],
                "mass_v": last["mass_v"],
                "drift": last["drift"],
            })
            return result
        return run

    MicroSolver.run = observed("micro", MicroSolver.run, lambda s: s.m)
    MacroSolver.run = observed("macro", MacroSolver.run, lambda s: s.m * s.m)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    import porechem.cli as cli
    from porechem.config import parse_config

    for path in spec["configs"]:
        parse_config(path)
    setup_s = time.monotonic() - spec["t0"]
    record = {"setup_s": setup_s}
    if spec["setup_only"]:
        record["environment"] = _environment()
        with open(spec["record"], "w") as f:
            json.dump(record, f)
        return 0

    import resource
    from pathlib import Path

    from checks import artifact_checks, artifact_hashes
    from spans import Tracer

    runs = []
    _observe_runs(runs)
    tracer = Tracer(spec["run_id"]).install() if spec["trace"] else None
    codes = []
    problems = []
    start = time.perf_counter()
    try:
        for argv in spec["commands"]:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span(f"cli.{argv[0]}", cli.main, argv)
            codes.append((argv, code))
            if code:
                break
    except Exception as e:  # an escaped error fails this iteration, not the benchmark
        problems.append(f"{type(e).__name__}: {e}")
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        with open(spec["trace_file"], "w") as f:
            json.dump(tracer.to_dict(), f)
    out = Path(spec["out"])
    if not problems:
        problems, values = artifact_checks(spec["workload"], out, runs, codes)
    else:
        values = {}
    record.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cell_steps=sum(r["cells"] * r["steps"] for r in runs),
        problems=problems,
        values=values,
        hashes=artifact_hashes(out) if out.is_dir() else {},
    )
    with open(spec["record"], "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
