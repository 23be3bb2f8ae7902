"""Workload definitions: config files generated from a seed.

Each workload is a list of porechem CLI invocations on generated config
files.  Seed 0 writes the sizes and values documented below exactly; any
other seed perturbs initial and boundary values by a few per cent while
keeping every mesh size and step count, so the work done stays the same.
The ``tiny`` size shrinks meshes and step counts for the benchmark's own
tests.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("converge_default", "upscaled_darcy")

SIZES = ("full", "tiny")


def _perturbed(seed: int):
    """Initial precipitate level and Dirichlet value for this seed."""
    if seed == 0:
        return 0.05, 0.0
    rng = random.Random(seed)
    v_init = round(0.05 * (1.0 + 0.1 * (rng.random() - 0.5)), 6)
    dirichlet = round(0.02 * rng.random(), 6)
    return v_init, dirichlet


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _converge_default(seed, size):
    v_init, dirichlet = _perturbed(seed)
    values = {"dirichlet_value": dirichlet, "u_init": "constant:0.0", "v_init": f"constant:{v_init}"}
    sections = {"micro": dict(values), "macro": dict(values)}
    if size == "tiny":
        sections["micro"].update(dt=0.01, t_end=0.1, output_every=5)
        sections["macro"].update(dt=0.01, t_end=0.1, output_every=5, resolution=16)
        sections["sweep"] = {"eps_list": "0.25, 0.125"}
    return {"run.ini": _ini(sections)}, [["converge", "--config", "{cfg}/run.ini"]]


def _upscaled_darcy(seed, size):
    v_init, dirichlet = _perturbed(seed)
    n, m, t_end = (256, 128, 0.25) if size == "full" else (16, 16, 0.05)
    sections = {
        "geometry": {"n": n},
        "macro": {
            "resolution": m,
            "dt": 0.0025,
            "t_end": t_end,
            "output_every": 10,
            "velocity_mode": "darcy",
            "dirichlet_value": dirichlet,
            "u_init": "constant:0.0",
            "v_init": f"constant:{v_init}",
        },
    }
    return {"run.ini": _ini(sections)}, [
        ["cell", "--config", "{cfg}/run.ini"],
        ["macro", "--config", "{cfg}/run.ini", "--tensors", "{out}/effective_tensors.csv"],
    ]


_GENERATORS = {
    "converge_default": _converge_default,
    "upscaled_darcy": _upscaled_darcy,
}


def write_configs(workload: str, seed: int, size: str, cfg_dir: Path):
    """Write the workload's config files into ``cfg_dir`` and return its
    command lines, with ``{cfg}`` and ``{out}`` left for the caller."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    files, commands = _GENERATORS[workload](seed, size)
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (cfg_dir / name).write_text(text)
    return commands
