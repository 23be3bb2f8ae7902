"""Run configuration: plain-text sectioned key/value files.

Every key has a default; the fully resolved configuration (defaults
included) is echoed next to the run artifacts so a run is reproducible
from its resolved config alone.  Unknown sections or keys are rejected
with the list of valid ones.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .cell_problems import CELL_TOL_FLOOR, DEFAULT_TOL
from .errors import ConfigError, labelled
from .geometry import UnitCell, cells_per_edge, check_edges
from .homogenize import check_sweep
from .kinetics import RateLaw
from .macro_sim import MacroConfig
from .micro_sim import MicroConfig
from .transport import TransportConfig


def _text(x: float) -> str:
    """A default as a config file states it: 1e-8, not 1e-08."""
    return np.format_float_scientific(x, trim="-", exp_digits=1)


_DEFAULTS = {
    "geometry": {
        "eps": "0.25",
        "n": "8",
        "hole_side": "0.5",
        "hole_center": "0.5, 0.5",
        "dirichlet_edges": "left",
    },
    "kinetics": {
        "u_onset": "0.0",
        "u_solubility": "1.0",
        "exponent": "2.0",
        "rate_constant": "1.0",
    },
    "micro": {
        "diffusivity": "1.0",
        "dt": "0.01",
        "t_end": "1.0",
        "output_every": "10",
        "velocity_mode": "zero",
        "pressure_gradient": "-1.0, 0.0",
        "dirichlet_value": "0.0",
        "u_init": "constant:0.0",
        "v_init": "constant:0.05",
    },
    "macro": {
        "resolution": "64",
        "dt": "0.01",
        "t_end": "1.0",
        "output_every": "10",
        "velocity_mode": "zero",
        "p_left": "1.0",
        "p_right": "0.0",
        "dirichlet_value": "0.0",
        "u_init": "constant:0.0",
        "v_init": "constant:0.05",
    },
    "sweep": {
        "eps_list": "0.25, 0.125, 0.0625",
    },
    "tolerances": {
        "invariant_slack": _text(TransportConfig.invariant_slack),
        "cell": _text(DEFAULT_TOL),
    },
    "output": {
        "dump_fields": "false",
    },
}


# the most cells a grid of a run may have, a 512 x 512 grid: `cell` at
# n = 512 peaks at 122-130 MB resident (n x n field and FFT arrays, and the
# 1023 x 1023 dense ring matrix of the Stokes u-block), and the micro
# step's sparse factor at 512 x 512 (n = 8, eps = 1/64) holds 6.4M nonzeros
CELL_BUDGET = 512 * 512

# the most steps a transport run may take, and the most grid cells its stored
# snapshots may cover: the mass report keeps a 384-byte row per step (Python
# 3.11), 38 MB for 10^5 steps, a thousand times the default run's 100.  The
# subcommands hand each snapshot to a consumer that writes or folds it, so
# they hold at most two (it and the one before, for the L1 step rate): the
# snapshot budget bounds the output, one field file per snapshot of about 21
# bytes of text per cell, 176 MB for 32 snapshots of 512 x 512 cells
STEP_BUDGET = 100_000
SNAPSHOT_BUDGET = 32 * CELL_BUDGET

# the grids each subcommand builds (the unit cell, the micro grid at
# [geometry] eps, the micro grid at the smallest [sweep] eps, the macro
# grid), and those of them that its transport runs step on
_COMMAND_GRIDS = {
    "cell": ("cell",),
    "micro": ("cell", "micro"),
    "macro": ("macro",),
    "converge": ("cell", "sweep", "macro"),
    "unfold": ("micro", "sweep"),
}
_COMMAND_RUNS = {"micro": ("micro",), "macro": ("macro",), "converge": ("sweep", "macro")}


def _number(section, key, text, kind=float, positive=False):
    """``text`` (all or part of ``[section] key``) as a finite number of the
    given kind; anything else is a ConfigError that names the key."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or not positive)):
        need = "an integer" if kind is int else "a finite positive number" if positive else "a finite number"
        raise ConfigError(f"[{section}] {key} must be {need}, got {text!r}")
    return value


def _parse_floats(section, key, text, count=None):
    vals = tuple(_number(section, key, p) for p in text.split(",") if p.strip())
    if count is not None and len(vals) != count:
        raise ConfigError(f"[{section}] {key}: expected {count} comma-separated values, got {text!r}")
    return vals


def _parse_edges(text):
    return check_edges(tuple(e.strip() for e in text.split(",") if e.strip() and e.strip() != "none"))


@dataclass(frozen=True)
class _Bump:
    """The initial profile ``amplitude * sin(pi x) sin(pi y)``."""

    amplitude: float

    def __call__(self, x, y):
        return self.amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)

    def __str__(self):
        return f"bump:{self.amplitude}"


def _parse_init(section, key, text):
    """``constant:VALUE`` or ``bump:AMPLITUDE`` (amplitude * sin(pi x) sin(pi y)),
    with a nonnegative value or amplitude, the profile's largest value.
    Returns the profile and that value."""
    kind, _, value = text.partition(":")
    kind = kind.strip()
    if kind not in ("constant", "bump"):
        raise ConfigError(f"[{section}] {key}: unknown initial profile {text!r}; use constant:VALUE or bump:VALUE")
    if not value.strip():
        raise ConfigError(f"[{section}] {key}: initial profile {text!r} has no value; use {kind}:VALUE")
    amp = _number(section, key, value)
    if amp < 0.0:
        raise ConfigError(f"[{section}] {key}: initial data must be nonnegative, got {text!r}")
    return (amp if kind == "constant" else _Bump(amp)), amp


def _transport_fields(section, m) -> dict:
    """The fields both transport configs read from their own section, and
    the bound on the initial data: the largest value the profiles take."""
    u_init, u_max = _parse_init(section, "u_init", m["u_init"])
    v_init, v_max = _parse_init(section, "v_init", m["v_init"])
    return dict(
        dt=_number(section, "dt", m["dt"]),
        t_end=_number(section, "t_end", m["t_end"]),
        u_init=u_init,
        v_init=v_init,
        velocity_mode=m["velocity_mode"],
        dirichlet_value=_number(section, "dirichlet_value", m["dirichlet_value"]),
        m0=max(u_max, v_max),
        output_every=_number(section, "output_every", m["output_every"], int),
    )


def _parse_bool(section, key, text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} must be a boolean (true or false), got {text!r}")


def _within_budget(message, amount, budget):
    """ConfigError ``message`` when ``amount`` is more than ``budget``."""
    if amount > budget:
        raise ConfigError(f"{message}, more than the budget of {budget:,}")


@dataclass
class RunConfig:
    """Fully resolved run configuration (all defaults applied)."""

    raw: dict                # section -> key -> string
    cell: UnitCell
    eps: float
    sweep_eps: tuple
    dump_fields: bool
    tolerances: dict
    micro: MicroConfig
    macro: MacroConfig

    def check_budget(self, command):
        """ConfigError naming ``[section] key`` when a grid that subcommand
        ``command`` builds, or one of its transport runs, is over its budget,
        and for ``converge`` what `check_sweep` rejects: micro and macro runs
        the sweep cannot compare, or runs of different problems.  It
        allocates next to nothing, so a run checks it before any work."""
        n, m = self.cell.n, self.macro.resolution_cells
        grids = {  # grid: (section, key, what, cells per edge)
            "cell": ("geometry", "n", "cell", n),
            "micro": ("geometry", "eps", "micro", n * cells_per_edge(self.eps)),
            "sweep": ("sweep", "eps_list", "micro", n * cells_per_edge(min(self.sweep_eps))),
            "macro": ("macro", "resolution", "macro", m),
        }
        for section, key, what, edge in (grids[g] for g in _COMMAND_GRIDS[command]):
            _within_budget(f"[{section}] {key}: the {what} grid has {edge} x {edge} cells", edge * edge, CELL_BUDGET)
        for _, _, what, edge in (grids[g] for g in _COMMAND_RUNS.get(command, ())):
            run = getattr(self, what)
            _within_budget(f"[{what}] t_end: the {what} run takes {run.n_steps:,} steps", run.n_steps, STEP_BUDGET)
            stored = len(run.snapshot_steps)  # at most STEP_BUDGET + 1 steps, after the check above
            _within_budget(f"[{what}] output_every: the {what} run stores {stored:,} snapshots of {edge} x {edge} "
                           f"cells, {stored * edge * edge:,} in all", stored * edge * edge, SNAPSHOT_BUDGET)
        if command == "converge":  # what `sweep` checks, before the cell problems
            check_sweep(self.sweep_eps, self.micro, self.macro)

    def write_resolved(self, path):
        """Echo every key (defaults included) in a fixed order."""
        with open(path, "w") as f:
            for section in _DEFAULTS:
                f.write(f"[{section}]\n")
                for key in _DEFAULTS[section]:
                    f.write(f"{key} = {self.raw[section][key]}\n")
                f.write("\n")


def parse_config(path_or_text) -> RunConfig:
    """Parse and validate a config file (path, or literal text for tests)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        text = str(path_or_text)
        if "\n" in text:
            parser.read_string(text)
        else:
            with open(text) as f:
                parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e

    raw = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(
                f"unknown section [{section}]; valid sections: {', '.join(_DEFAULTS)}"
            )
        for key, value in parser.items(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    f"{', '.join(_DEFAULTS[section])}"
                )
            raw[section][key] = value.strip()

    g = raw["geometry"]
    eps = _number("geometry", "eps", g["eps"])
    cells_per_edge(eps)
    cell = UnitCell(
        n=_number("geometry", "n", g["n"], int),
        # a cell without a grain has no surface: no precipitate, no permeability
        hole_side=_number("geometry", "hole_side", g["hole_side"], positive=True),
        hole_center=_parse_floats("geometry", "hole_center", g["hole_center"], 2),
    )
    dirichlet_edges = _parse_edges(g["dirichlet_edges"])

    k = raw["kinetics"]
    rate_law = RateLaw(
        u_onset=_number("kinetics", "u_onset", k["u_onset"]),
        u_sol=_number("kinetics", "u_solubility", k["u_solubility"]),
        exponent=_number("kinetics", "exponent", k["exponent"]),
        k=_number("kinetics", "rate_constant", k["rate_constant"]),
    )

    # a tolerance that is not finite and positive stalls or disables its check
    tol = {key: _number("tolerances", key, text, positive=True) for key, text in raw["tolerances"].items()}
    # and a cell tolerance below the round-off floor of what it bounds fails the cell solves
    if tol["cell"] < CELL_TOL_FLOOR:
        raise ConfigError(f"[tolerances] cell = {tol['cell']:g} is below {CELL_TOL_FLOOR:g}, the round-off floor of "
                          f"the cell solves' backward errors; set [tolerances] cell >= {CELL_TOL_FLOOR:g}")
    dump_fields = _parse_bool("output", "dump_fields", raw["output"]["dump_fields"])

    sweep_eps = _parse_floats("sweep", "eps_list", raw["sweep"]["eps_list"])
    if not sweep_eps:
        raise ConfigError("[sweep] eps_list is empty; list at least one eps")
    for e in sweep_eps:
        cells_per_edge(e)

    # building the transport configs runs their cross-field checks (kinetic
    # time-step bound at the box bound, modes)
    common = dict(rate_law=rate_law, dirichlet_edges=dirichlet_edges, invariant_slack=tol["invariant_slack"])
    mi, ma = raw["micro"], raw["macro"]
    micro = labelled(
        "[micro]", MicroConfig,
        D=_number("micro", "diffusivity", mi["diffusivity"]),
        pressure_gradient=_parse_floats("micro", "pressure_gradient", mi["pressure_gradient"], 2),
        **_transport_fields("micro", mi), **common,
    )
    macro = labelled(
        "[macro]", MacroConfig,
        resolution_cells=_number("macro", "resolution", ma["resolution"], int),
        p_left=_number("macro", "p_left", ma["p_left"]),
        p_right=_number("macro", "p_right", ma["p_right"]),
        **_transport_fields("macro", ma), **common,
    )
    return RunConfig(raw, cell, eps, sweep_eps, dump_fields, tol, micro, macro)
