"""Output checks for one workload iteration, on its artifacts.

Pure Python (csv, configparser, hashlib) so that the benchmark process can
run them without importing numpy.  ``artifact_checks`` returns the list of
problems found and the values that seed 0 compares against
``reference.json``; ``reference_problems`` makes that comparison.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
from pathlib import Path

# files whose content may legitimately differ between reruns
NOT_HASHED = {"run_manifest.txt"}

# an error below this is round-off; it need not fall further with eps
ERROR_FLOOR = 1e-12


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def tolerances(out_dir: Path) -> dict:
    """The [tolerances] section the run echoed to resolved_config.ini."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(out_dir / "resolved_config.ini")
    return {k: float(v) for k, v in parser["tolerances"].items()}


def artifact_hashes(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in NOT_HASHED
    }


def _tensor_values(out_dir: Path, tol: dict, problems: list) -> dict:
    row = read_rows(out_dir / "effective_tensors.csv")[0]
    for key in ("s_quad_err", "k_grad_err"):
        if not float(row[key]) < tol["cell"]:
            problems.append(f"{key} = {row[key]} is not below the cell tolerance {tol['cell']:g}")
    return {
        "S": [float(row[k]) for k in ("s11", "s12", "s21", "s22")],
        "K": [float(row[k]) for k in ("k11", "k12", "k21", "k22")],
    }


def _sweep_values(out_dir: Path, problems: list) -> dict:
    rows = read_rows(out_dir / "convergence_report.csv")
    values = {}
    for key in ("err_u_L2", "err_v_unfolded_L2", "err_r_L2"):
        errs = [float(r[key]) for r in rows]
        for coarse, fine in zip(errs, errs[1:]):
            if fine > coarse and fine > ERROR_FLOOR:
                problems.append(f"{key} grows as eps falls: {errs}")
                break
        values[key] = errs
    return values


def artifact_checks(workload: str, out_dir: Path, runs: list, codes: list) -> tuple[list, dict]:
    """Check one iteration.  ``runs`` holds what the worker saw each
    transport run return: kind, final masses and cumulative mass drift."""
    problems = [f"porechem {' '.join(argv[:1])} exited with status {code}" for argv, code in codes if code]
    if problems:
        return problems, {}
    tol = tolerances(out_dir)
    for r in runs:
        if not abs(r["drift"]) <= tol["invariant_slack"]:
            problems.append(f"{r['kind']} run mass drift {r['drift']:.3e} exceeds {tol['invariant_slack']:g}")
    values = {"final_mass": [[r["mass_u"], r["mass_v"]] for r in runs]}
    if workload in ("converge_default", "upscaled_darcy"):
        values.update(_tensor_values(out_dir, tol, problems))
    if workload == "converge_default":
        values.update(_sweep_values(out_dir, problems))
    return problems, values


def reference_problems(values: dict, reference: dict) -> list:
    """Compare against values recorded from seed 0 of an earlier commit,
    within the absolute and relative tolerances the reference states."""
    problems = []
    for key, want in reference["values"].items():
        atol, rtol = reference["tolerances"][key]
        got = values.get(key)
        flat_got, flat_want = _flatten(got), _flatten(want)
        if got is None or len(flat_got) != len(flat_want):
            problems.append(f"{key}: expected {want}, got {got}")
            continue
        for g, w in zip(flat_got, flat_want):
            if not abs(g - w) <= atol + rtol * abs(w):
                problems.append(f"{key}: {g!r} differs from reference {w!r} (atol {atol:g}, rtol {rtol:g})")
                break
    return problems


def _flatten(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flatten(item)]
    return [] if x is None else [float(x)]
