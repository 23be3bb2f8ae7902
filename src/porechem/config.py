"""Run configuration: plain-text sectioned key/value files.

Every key has a default; the fully resolved configuration (defaults
included) is echoed next to the run artifacts so a run is reproducible
from its resolved config alone.  Unknown sections or keys are rejected
with the list of valid ones.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import UnitCell
from .kinetics import DissolutionResolution, RateLaw
from .macro_sim import MacroConfig
from .micro_sim import MicroConfig

_DEFAULTS = {
    "geometry": {
        "dim": "2",
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
        "resolution_mode": "exact",
        "delta": "0.01",
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
        "m0": "1.0",
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
        "m0": "1.0",
    },
    "sweep": {
        "eps_list": "0.25, 0.125, 0.0625",
    },
    "tolerances": {
        "linear": "1e-12",
        "newton": "1e-12",
        "invariant_slack": "1e-8",
        "spd": "1e-8",
        "cell": "1e-10",
    },
    "output": {
        "dump_fields": "false",
    },
}


def _parse_floats(text, count=None):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    vals = tuple(float(p) for p in parts)
    if count is not None and len(vals) != count:
        raise ConfigError(f"expected {count} comma-separated values, got {text!r}")
    return vals


def _parse_edges(text):
    edges = tuple(e.strip() for e in text.split(",") if e.strip() and e.strip() != "none")
    for e in edges:
        if e not in ("left", "right", "bottom", "top"):
            raise ConfigError(f"unknown edge {e!r} in dirichlet_edges")
    return edges


def _parse_init(text):
    """``constant:VALUE`` or ``bump:AMPLITUDE`` (amplitude * sin(pi x) sin(pi y))."""
    kind, _, value = text.partition(":")
    kind = kind.strip()
    amp = float(value) if value else 0.0
    if kind == "constant":
        return amp
    if kind == "bump":
        return lambda x, y: amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    raise ConfigError(f"unknown initial profile {text!r}; use constant:VALUE or bump:VALUE")


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


@dataclass
class RunConfig:
    """Fully resolved run configuration (all defaults applied)."""

    raw: dict                       # section -> key -> string
    cell: UnitCell = None
    eps: float = 0.25
    dirichlet_edges: tuple = ("left",)
    rate_law: RateLaw = None
    resolution: DissolutionResolution = None
    sweep_eps: tuple = ()
    dump_fields: bool = False
    tolerances: dict = field(default_factory=dict)

    def micro_config(self) -> MicroConfig:
        m = self.raw["micro"]
        return MicroConfig(
            dt=float(m["dt"]),
            t_end=float(m["t_end"]),
            D=float(m["diffusivity"]),
            rate_law=self.rate_law,
            resolution=self.resolution,
            u_init=_parse_init(m["u_init"]),
            v_init=_parse_init(m["v_init"]),
            velocity_mode=m["velocity_mode"],
            pressure_gradient=_parse_floats(m["pressure_gradient"], 2),
            dirichlet_edges=self.dirichlet_edges,
            dirichlet_value=float(m["dirichlet_value"]),
            m0=float(m["m0"]),
            output_every=int(m["output_every"]),
            lin_tol=self.tolerances["linear"],
            newton_tol=self.tolerances["newton"],
            invariant_slack=self.tolerances["invariant_slack"],
        )

    def macro_config(self, S, K, pore_area, surface_density) -> MacroConfig:
        m = self.raw["macro"]
        return MacroConfig(
            dt=float(m["dt"]),
            t_end=float(m["t_end"]),
            S=S,
            K=K,
            pore_area=pore_area,
            surface_density=surface_density,
            rate_law=self.rate_law,
            resolution=self.resolution,
            resolution_cells=int(m["resolution"]),
            u_init=_parse_init(m["u_init"]),
            v_init=_parse_init(m["v_init"]),
            velocity_mode=m["velocity_mode"],
            p_left=float(m["p_left"]),
            p_right=float(m["p_right"]),
            dirichlet_edges=self.dirichlet_edges,
            dirichlet_value=float(m["dirichlet_value"]),
            m0=float(m["m0"]),
            output_every=int(m["output_every"]),
            lin_tol=self.tolerances["linear"],
            newton_tol=self.tolerances["newton"],
            invariant_slack=self.tolerances["invariant_slack"],
        )

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

    cfg = RunConfig(raw=raw)
    g = raw["geometry"]
    if int(g["dim"]) != 2:
        raise ConfigError("only dim = 2 is supported")
    eps = float(g["eps"])
    inv = 1.0 / eps
    if eps <= 0.0 or abs(inv - round(inv)) > 1e-9 * max(1.0, inv):
        raise ConfigError(f"1/eps must be a positive integer, got eps = {g['eps']}")
    cfg.eps = eps
    center = _parse_floats(g["hole_center"], 2)
    cfg.cell = UnitCell(n=int(g["n"]), hole_side=float(g["hole_side"]), hole_center=center)
    cfg.dirichlet_edges = _parse_edges(g["dirichlet_edges"])

    k = raw["kinetics"]
    cfg.rate_law = RateLaw(
        u_onset=float(k["u_onset"]),
        u_sol=float(k["u_solubility"]),
        exponent=float(k["exponent"]),
        k=float(k["rate_constant"]),
    )
    mode = k["resolution_mode"]
    if mode == "exact":
        cfg.resolution = DissolutionResolution()
    else:
        cfg.resolution = DissolutionResolution(mode=mode, delta=float(k["delta"]))

    t = raw["tolerances"]
    cfg.tolerances = {
        "linear": float(t["linear"]),
        "newton": float(t["newton"]),
        "invariant_slack": float(t["invariant_slack"]),
        "spd": float(t["spd"]),
        "cell": float(t["cell"]),
    }
    cfg.dump_fields = _parse_bool(raw["output"]["dump_fields"])

    sweep_eps = _parse_floats(raw["sweep"]["eps_list"])
    for e in sweep_eps:
        inv = 1.0 / e
        if abs(inv - round(inv)) > 1e-9 * max(1.0, inv):
            raise ConfigError(f"sweep eps {e} does not satisfy 1/eps integer")
    if any(b >= a for a, b in zip(sweep_eps, sweep_eps[1:])):
        raise ConfigError("sweep eps_list must be strictly decreasing")
    cfg.sweep_eps = sweep_eps

    # cross-field invariants: building the sub-configs runs their checks
    # (kinetic time-step bound, box bounds on initial data ranges, modes)
    cfg.micro_config()
    cfg.macro_config(np.eye(2), np.eye(2), cfg.cell.pore_area, cfg.cell.surface_measure)
    if not math.isfinite(cfg.tolerances["linear"]):
        raise ConfigError("non-finite tolerance")
    return cfg
