"""Precipitation/dissolution kinetics with a multivalued dissolution rate.

The precipitation rate ``r(u)`` vanishes below an onset concentration and
increases strictly past it, reaching 1 at the solubility concentration.
The dissolution rate ``w`` is a selection from the Heaviside graph of the
precipitate ``v``::

    w = 0            if v < 0   (unphysical guard)
    w = min(r(u), 1) if v = 0
    w = 1            if v > 0

With the solute concentration frozen, the precipitate ODE
``dv/dt = k (r(u) - w)`` is piecewise linear and is integrated exactly,
including the event where ``v`` hits zero mid-step.  Every update returns a
time-averaged effective rate so that ``v_new - v = dt * k * (r - w_eff)``
holds to machine precision; the transport solvers rely on this identity for
their mass bookkeeping.  This exact selection is the transport step's only
resolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError


@dataclass(frozen=True)
class RateLaw:
    """Power-law precipitation rate ``r(u) = ([u - u_onset]_+ / (u_sol - u_onset))^p``.

    With the defaults (onset 0, solubility 1, p = 2) this is the simplest
    mass-action-like law satisfying: r = 0 below onset, strictly increasing
    past it, r(u_sol) = 1.  ``k`` is the dimensionless rate constant.
    """

    u_onset: float = 0.0
    u_sol: float = 1.0
    exponent: float = 2.0
    k: float = 1.0

    def __post_init__(self):
        if self.u_sol <= self.u_onset:
            raise ConfigError(f"need u_sol > u_onset, got {self.u_sol} <= {self.u_onset}")
        if self.exponent < 1.0:
            raise ConfigError(f"exponent must be >= 1, got {self.exponent}")
        if self.k <= 0.0:
            raise ConfigError(f"rate constant must be positive, got {self.k}")

    def rate(self, u):
        """r(u), vectorized; defined on all of R."""
        s = (np.maximum(np.asarray(u, dtype=float) - self.u_onset, 0.0)) / (self.u_sol - self.u_onset)
        return s**self.exponent

    def rate_derivative(self, u):
        """dr/du (one-sided at the onset kink, taken as 0 from below)."""
        span = self.u_sol - self.u_onset
        s = np.maximum(np.asarray(u, dtype=float) - self.u_onset, 0.0) / span
        return self.exponent * s ** (self.exponent - 1.0) / span

    def lipschitz_bound(self, m: float) -> float:
        """Lipschitz constant of r on [0, m]."""
        return float(self.rate_derivative(max(m, self.u_onset)))


def dissolution_rate(law: RateLaw, u, v):
    """Single-valued resolution of the Heaviside dissolution rate, in [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mid = np.minimum(law.rate(u), 1.0)
    out = np.where(v > 0.0, 1.0, np.where(v < 0.0, 0.0, mid))
    return out if out.ndim else float(out)


def net_rate_and_branch(law: RateLaw, u, v, dt: float):
    """The time-averaged net precipitate rate k*(r - w_eff) over a step of
    dt, ``max(k*(r(u) - 1), -v/dt)``, and the mask of the carriers on its
    smooth branch, from one evaluation of r(u).  Off the mask v hits zero
    mid-step, and the rate ``-v/dt`` that empties it does not depend on u."""
    smooth = law.k * (law.rate(u) - 1.0)
    event = -np.asarray(v, dtype=float) / dt
    return np.maximum(smooth, event), smooth >= event


def net_rate_slope(law: RateLaw, u, smooth_branch):
    """The generalized derivative in u of `net_rate_and_branch`'s rate,
    given its mask: k*r'(u) on the smooth branch, zero on the event
    branch."""
    return np.where(smooth_branch, law.k * law.rate_derivative(u), 0.0)


def ode_step(law: RateLaw, u, v, dt: float):
    """Advance the precipitate ODE by dt with u frozen.

    Returns ``(v_new, w_eff)`` with ``v_new >= 0`` always and
    ``v_new - v == dt * law.k * (r(u) - w_eff)`` exact.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise StateError("negative precipitate on input to ode_step")
    r = law.rate(u)
    v_new = np.maximum(v + dt * law.k * (r - 1.0), 0.0)
    return v_new, r - (v_new - v) / (law.k * dt)
