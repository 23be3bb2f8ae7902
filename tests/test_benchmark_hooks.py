"""The names and records the benchmark in ``perfbench/`` reads from porechem.

The benchmark's tracer wraps functions under the names the calling modules
look them up by (``perfbench/spans.py``), and its worker reads what every
transport run returns (``perfbench/worker.py``).  Both are loaded here by
path, as they are, so that a change to porechem that drops one of those
names or fields fails here rather than in a traced benchmark iteration.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from porechem.geometry import UnitCell, tile_domain
from porechem.macro_sim import MacroConfig, MacroSolver
from porechem.micro_sim import MicroConfig, MicroSolver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")

SITES = [(name, owner, attr) for name, sites in spans.TARGETS.items() for owner, attr in sites]


@pytest.mark.parametrize("name, owner, attr", SITES, ids=[f"{o}.{a}" for _, o, a in SITES])
def test_every_traced_name_is_defined_where_the_tracer_looks(name, owner, attr):
    # Tracer.install reads owner.__dict__[attr]: a name inherited or
    # reached through another module would fail the traced iteration
    assert callable(spans._resolve(owner).__dict__[attr])


def _small_runs():
    common = dict(dt=0.01, t_end=0.03, u_init=0.4, v_init=0.05)
    cell = UnitCell(8, 0.5, (0.5, 0.5))
    micro = MicroSolver(MicroConfig(**common), tile_domain(cell, 0.25)).run()
    macro = MacroSolver(MacroConfig(resolution_cells=8, **common), cell, np.eye(2)).run()
    return micro, macro


def test_the_worker_observes_every_run(monkeypatch):
    # the worker wraps the solvers' run methods on the class; registering
    # them here first restores them afterwards
    for cls in (MicroSolver, MacroSolver):
        monkeypatch.setattr(cls, "run", cls.run)
    seen = []
    _load("worker")._observe_runs(seen)
    micro, macro = _small_runs()
    assert [r["kind"] for r in seen] == ["micro", "macro"]
    for record, run in zip(seen, (micro, macro)):
        last = run.mass[-1]
        assert (record["mass_u"], record["mass_v"], record["drift"]) == (last.mass_u, last.mass_v, last.drift)
        assert record["steps"] == 3 and record["cells"] > 0


def test_a_traced_step_records_its_newton_solve_and_precipitate_update():
    tracer = spans.Tracer("test").install()
    try:
        _small_runs()
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.to_dict())
    assert metrics["micro_sim.step.count"] == metrics["macro_sim.step.count"] == 3
    assert metrics["implicit.newton.calls"] == metrics["kinetics.ode_step.calls"] == 6
    assert metrics["implicit.newton.failed"] == 0 and metrics["linalg.cg.implicit.calls"] > 0
