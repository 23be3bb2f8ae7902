"""Spans and counters recorded around calls into porechem's modules.

The tracer replaces a public function by a timing wrapper under the name
the *calling* module looked it up by: ``micro_sim`` and ``macro_sim``
import ``newton_reaction_diffusion`` by name, ``_implicit`` and
``cell_problems`` import ``cg`` by name, and ``cli`` imports most of what
it calls.  Solver classes are wrapped on the class, which every caller
reaches.  Spans are kept in memory (name, start, end, parent, run id) and
written out once the run ends.  Nothing in porechem is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# span name -> [(module that looks the name up, attribute)], or a
# (class path, method) pair for solver methods
TARGETS = {
    "linalg.cg.implicit": [("porechem._implicit", "cg")],
    "linalg.cg.corrector": [("porechem.cell_problems", "cg")],
    "implicit.newton": [
        ("porechem.micro_sim", "newton_reaction_diffusion"),
        ("porechem.macro_sim", "newton_reaction_diffusion"),
    ],
    "kinetics.ode_step": [
        ("porechem.micro_sim", "ode_step"),
        ("porechem.macro_sim", "ode_step"),
        ("porechem._implicit", "ode_step"),
    ],
    "micro_sim.setup": [("porechem.micro_sim.MicroSolver", "__init__")],
    "micro_sim.run": [("porechem.micro_sim.MicroSolver", "run")],
    "micro_sim.step": [("porechem.micro_sim.MicroSolver", "step")],
    "micro_sim.l1_distance": [("porechem.cli", "l1_distance")],
    "macro_sim.setup": [("porechem.macro_sim.MacroSolver", "__init__")],
    "macro_sim.darcy_solve": [("porechem.macro_sim", "darcy_solve")],
    "macro_sim.run": [("porechem.macro_sim.MacroSolver", "run")],
    "macro_sim.step": [("porechem.macro_sim.MacroSolver", "step")],
    "cell_problems.corrector": [("porechem.cli", "solve_diffusion_cell")],
    "cell_problems.stokes": [("porechem.cli", "solve_stokes_cell")],
    "cell_problems.assemble": [("porechem.cli", "assemble_S"), ("porechem.cli", "assemble_K")],
    "cell_problems.tensor_io": [("porechem.cli", "write_tensor_csv"), ("porechem.cli", "read_tensor_csv")],
    "homogenize.sweep": [("porechem.cli", "sweep")],
    "homogenize.two_scale_errors": [("porechem.homogenize", "two_scale_errors")],
    "homogenize.dq": [("porechem.homogenize", "difference_quotient_norm")],
    "homogenize.report_io": [("porechem.homogenize.ConvergenceReport", "write_csv")],
    "gridio.write_field": [("porechem.cli", "write_field")],
    "gridio.write_csv": [("porechem.cli", "write_csv")],
    "geometry.tile_domain": [("porechem.cli", "tile_domain"), ("porechem.homogenize", "tile_domain")],
    "geometry.write_classification": [("porechem.cli", "write_classification")],
    "config.parse": [("porechem.cli", "parse_config")],
    "config.write_resolved": [("porechem.config.RunConfig", "write_resolved")],
}

# modules whose self time counts as a named layer; the root span of each
# CLI call belongs to ``cli`` and its self time is the unattributed rest
LAYERS = ("linalg", "implicit", "kinetics", "micro_sim", "macro_sim", "cell_problems",
          "homogenize", "gridio", "geometry", "config")


def _resolve(path: str):
    """Import ``a.b.c`` as far as it is a module, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """In-memory span recorder.  ``install`` patches the targets and
    returns the tracer; ``uninstall`` restores every original."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.failed.append(False)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = True
            raise
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        c = self.counters
        if name.startswith("linalg.cg."):
            c[name + ".iters"] += result[2]
        elif name == "micro_sim.step":
            c["micro_sim.cell_steps"] += args[0].m
        elif name == "macro_sim.step":
            c["macro_sim.cell_steps"] += args[0].m * args[0].m
        elif name.startswith("gridio."):
            c[name + ".bytes"] += os.path.getsize(args[0])

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for name, sites in TARGETS.items():
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrapper(name, original))
                self._patched.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_dict(self):
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "failed": f}
                for n, s, e, p, f in zip(self.names, self.starts, self.ends, self.parents, self.failed)
            ],
            "counters": dict(self.counters),
        }


def summarize(trace: dict) -> dict:
    """Per-layer metrics from one traced iteration (``Tracer.to_dict``)."""
    spans = trace["spans"]
    own = [s["end"] - s["start"] for s in spans]
    child_names = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
            child_names[s["parent"]].append(s["name"])

    busy = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    stokes = []
    newton_solves = newton_failed = 0
    wall = 0.0
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        busy[name] += dur
        calls[name] += 1
        self_s[name] += own[i]
        layer_self[name.split(".", 1)[0]] += own[i]
        if s["parent"] < 0:
            wall += dur
        if name == "cell_problems.stokes":
            stokes.append(dur)
        if name == "implicit.newton":
            newton_solves += sum(1 for c in child_names[i] if c == "linalg.cg.implicit")
            newton_failed += s["failed"]

    c = trace["counters"]
    m = {}
    for side in ("implicit", "corrector"):
        key = f"linalg.cg.{side}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.iters"] = int(c.get(f"{key}.iters", 0))
        m[f"{key}.busy_s"] = busy[key]
    m["implicit.newton.calls"] = calls["implicit.newton"]
    m["implicit.newton.iters"] = newton_solves
    m["implicit.newton.busy_s"] = busy["implicit.newton"]
    m["implicit.newton.self_s"] = self_s["implicit.newton"]
    m["implicit.newton.failed"] = newton_failed
    m["kinetics.ode_step.calls"] = calls["kinetics.ode_step"]
    m["kinetics.ode_step.busy_s"] = busy["kinetics.ode_step"]
    for sim in ("micro_sim", "macro_sim"):
        m[f"{sim}.setup_s"] = busy[f"{sim}.setup"]
        if sim == "macro_sim":
            m["macro_sim.darcy_solve.busy_s"] = busy["macro_sim.darcy_solve"]
        m[f"{sim}.step.count"] = calls[f"{sim}.step"]
        m[f"{sim}.step.busy_s"] = busy[f"{sim}.step"]
        m[f"{sim}.step.self_s"] = self_s[f"{sim}.step"]
        m[f"{sim}.cell_steps"] = int(c.get(f"{sim}.cell_steps", 0))
    m["cell_problems.corrector.busy_s"] = busy["cell_problems.corrector"]
    m["cell_problems.stokes.first_s"] = stokes[0] if stokes else 0.0
    m["cell_problems.stokes.second_s"] = sum(stokes[1:])
    m["cell_problems.assemble.busy_s"] = busy["cell_problems.assemble"]
    for key in ("sweep", "two_scale_errors", "dq"):
        m[f"homogenize.{key}.busy_s"] = busy[f"homogenize.{key}"]
    for key in ("write_field", "write_csv"):
        m[f"gridio.{key}.calls"] = calls[f"gridio.{key}"]
        m[f"gridio.{key}.busy_s"] = busy[f"gridio.{key}"]
        m[f"gridio.{key}.bytes"] = int(c.get(f"gridio.{key}.bytes", 0))
    m["geometry.tile_domain.busy_s"] = busy["geometry.tile_domain"]
    m["config.parse_s"] = busy["config.parse"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.self_s"] = layer_self["cli"]
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    m["trace.coverage"] = sum(layer_self[layer] for layer in LAYERS) / wall if wall > 0 else 0.0
    return m
