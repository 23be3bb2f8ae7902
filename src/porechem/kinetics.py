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
resolver.  The ramp regularization ``clip(v/delta, 0, 1)`` of the graph
(`regularized_step`, `regularized_steady_w`) serves only to check that its
delta -> 0 limit reproduces the selection.
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


def regularized_heaviside(delta: float, v):
    """Ramp regularization: 0 for v <= 0, v/delta on (0, delta), 1 beyond."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    out = np.clip(np.asarray(v, dtype=float) / delta, 0.0, 1.0)
    return out if out.ndim else float(out)


def net_rate(law: RateLaw, u, v, dt: float):
    """Time-averaged net precipitate rate k*(r - w_eff) over a step of dt.

    Equals max(k*(r(u) - 1), -v/dt): the unconstrained rate when no event
    occurs, and exactly the rate that empties v when it hits zero mid-step.
    """
    return np.maximum(law.k * (law.rate(u) - 1.0), -np.asarray(v, dtype=float) / dt)


def net_rate_derivative(law: RateLaw, u, v, dt: float):
    """d(net_rate)/du; zero on the event branch, k*r'(u) otherwise."""
    active = law.k * (law.rate(u) - 1.0) >= -np.asarray(v, dtype=float) / dt
    return np.where(active, law.k * law.rate_derivative(u), 0.0)


def ode_step(law: RateLaw, u, v, dt: float):
    """Advance the precipitate ODE by dt with u frozen.

    Returns ``(v_new, w_eff)`` with ``v_new >= 0`` always and
    ``v_new - v == dt * law.k * (r(u) - w_eff)`` exact.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise StateError("negative precipitate on input to ode_step")
    scalar = v.ndim == 0 and u.ndim == 0
    v_new = np.maximum(v + dt * law.k * (law.rate(u) - 1.0), 0.0)
    w_eff = law.rate(u) - (v_new - v) / (law.k * dt)
    if scalar:
        return float(v_new), float(w_eff)
    return v_new, w_eff


def regularized_step(law: RateLaw, delta: float, u, v, dt: float):
    """Advance dv/dt = k*(r - clip(v/delta, 0, 1)) exactly by dt with u
    frozen; returns ``v_new``.

    This is the ramp-regularized precipitate ODE, kept for the delta -> 0
    limit of `regularized_steady_w`.  Piecewise: above the ramp the ODE is
    linear; inside the ramp it is an affine exponential relaxing toward
    delta*r.  At most one region change happens per step for each starting
    side, handled by event times.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = np.atleast_1d(law.rate(u)).astype(float)
    v0 = np.atleast_1d(np.asarray(v, dtype=float)).copy()
    r, v0 = np.broadcast_arrays(r, v0)
    v0 = v0.copy()
    out = np.empty_like(v0)
    k = law.k

    above = v0 >= delta
    # region v >= delta: dv/dt = k (r - 1)
    if np.any(above):
        rr, vv = r[above], v0[above]
        lin = vv + dt * k * (rr - 1.0)
        # time to reach the ramp; never when r >= 1 (no division there)
        tau = np.divide(vv - delta, k * (1.0 - rr), out=np.full_like(vv, np.inf), where=rr < 1.0)
        res = np.where(tau >= dt, lin, np.nan)
        drop = tau < dt  # enters the ramp, finish there
        if np.any(drop):
            res[drop] = _ramp_advance(k, delta, rr[drop], np.full(np.count_nonzero(drop), delta), dt - tau[drop])
        out[above] = res
    # region v < delta: exponential toward delta*r, may exit through the top
    below = ~above
    if np.any(below):
        rr, vv = r[below], v0[below]
        res = _ramp_advance(k, delta, rr, vv, dt)
        esc = rr > 1.0  # attractor above the ramp: crossing time to v = delta
        if np.any(esc):
            num = delta * (rr[esc] - 1.0)
            den = delta * rr[esc] - vv[esc]
            tcross = -(delta / k) * np.log(num / den)
            crossed = tcross < dt
            if np.any(crossed):
                idx = np.flatnonzero(esc)[crossed]
                res[idx] = delta + (dt - tcross[crossed]) * k * (rr[idx] - 1.0)
        out[below] = res
    return out if np.asarray(v).ndim else float(out[0])


def _ramp_advance(k, delta, r, v, t):
    """Closed form inside the ramp: v(t) = delta*r + (v - delta*r) * exp(-k t/delta)."""
    return delta * r + (v - delta * r) * np.exp(-k * np.asarray(t) / delta)


def regularized_steady_w(law: RateLaw, delta: float, u):
    """Steady dissolution rate of the regularized ODE started at v = 0.

    Integrates the regularized precipitate ODE long enough for transients to
    die (40 ramp time constants), then evaluates the ramp.  As delta -> 0
    this reproduces min(r(u), 1), the exact resolver's value at v = 0.
    """
    v = np.zeros_like(np.asarray(u, dtype=float))
    dt = 10.0 * delta / law.k
    for _ in range(4):
        v = regularized_step(law, delta, u, v, dt)
    out = regularized_heaviside(delta, v)
    return out if np.asarray(u).ndim else float(out)
