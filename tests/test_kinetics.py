import warnings

import numpy as np
import pytest

from porechem.errors import StateError
from porechem.kinetics import (
    RateLaw,
    dissolution_rate,
    net_rate_and_branch,
    ode_step,
)

from oracles import (
    heaviside_selection,
    power_rate,
    precipitate_decay_exact,
    ramp_ode_euler,
    regularized_heaviside,
    regularized_steady_w,
    regularized_step,
)

LAW = RateLaw()


def test_rate_examples():
    assert LAW.rate(-0.3) == 0.0
    assert LAW.rate(1.0) == 1.0
    assert LAW.rate(0.5) == 0.25


def test_rate_matches_oracle_on_grid():
    for u in np.linspace(-1, 3, 41):
        assert LAW.rate(u) == pytest.approx(power_rate(u), abs=1e-15)


def test_rate_law_validation():
    with pytest.raises(ValueError):
        RateLaw(u_onset=1.0, u_sol=0.5)
    with pytest.raises(ValueError):
        RateLaw(exponent=0.5)
    with pytest.raises(ValueError):
        RateLaw(k=0.0)


def test_dissolution_branch_examples():
    assert dissolution_rate(LAW, 0.5, 0.0) == 0.25
    assert dissolution_rate(LAW, 2.0, 0.0) == 1.0
    assert dissolution_rate(LAW, 0.1, 0.3) == 1.0
    assert dissolution_rate(LAW, 5.0, -0.1) == 0.0


def test_dissolution_monotonicity():
    us = np.linspace(-0.5, 2.5, 31)
    vs = np.linspace(-0.2, 0.4, 25)
    for u in us:
        w = dissolution_rate(LAW, np.full_like(vs, u), vs)
        assert np.all(np.diff(w) >= -1e-15)  # nondecreasing in v
        assert np.all((w >= 0.0) & (w <= 1.0))
    w0 = dissolution_rate(LAW, us, np.zeros_like(us))
    assert np.all(np.diff(w0) >= -1e-15)  # nondecreasing in u at v = 0


def test_exchange_rate_monotone_in_u_and_v():
    # f(u, v) = r(u) - w(u, v) drives the contraction argument
    us = np.linspace(0.0, 2.0, 21)
    vs = np.linspace(0.0, 0.3, 16)
    f = LAW.rate(us)[:, None] - dissolution_rate(LAW, us[:, None], vs[None, :])
    assert np.all(np.diff(f, axis=0) >= -1e-12)  # nondecreasing in u
    assert np.all(np.diff(f, axis=1) <= 1e-12)   # nonincreasing in v


def test_regularized_heaviside():
    assert regularized_heaviside(0.1, 0.05) == 0.5
    assert regularized_heaviside(0.1, -1.0) == 0.0
    assert regularized_heaviside(0.1, 1.0) == 1.0
    vs = np.linspace(-1, 1, 101)
    h = regularized_heaviside(0.1, vs)
    assert np.all(np.diff(h) >= 0.0)
    with pytest.raises(ValueError):
        regularized_heaviside(0.0, 0.5)
    with pytest.raises(ValueError):
        regularized_heaviside(-0.1, 0.5)


def test_ode_step_decay_event():
    # closed form: v(t) = 0.01 - t hits zero at tau = 0.01, then w = r(0) = 0;
    # averaged w over [0, 0.02] is (0.01*1 + 0.01*0)/0.02 = 0.5
    v_new, w_eff = ode_step(LAW, 0.0, 0.01, 0.02)
    assert v_new == precipitate_decay_exact(0.0, 0.01, 0.02)
    assert w_eff == pytest.approx(0.5, abs=1e-15)


def test_ode_step_growth():
    v_new, w_eff = ode_step(LAW, 2.0, 0.0, 0.1)
    assert v_new == pytest.approx(0.3, abs=1e-15)  # net rate r - 1 = 3
    assert w_eff == pytest.approx(1.0, abs=1e-12)


def test_ode_step_undersaturated_equilibrium():
    v_new, w_eff = ode_step(LAW, 0.5, 0.0, 0.1)
    assert v_new == 0.0
    assert w_eff == 0.25


def test_ode_step_solubility_equilibrium():
    for v0 in (0.0, 0.1, 2.0):
        v_new, w_eff = ode_step(LAW, 1.0, v0, 0.7)
        assert v_new == v0
        assert w_eff == 1.0


def test_ode_step_positivity_any_dt():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.uniform(-1, 3)
        v = rng.uniform(0, 2)
        dt = 10.0 ** rng.uniform(-4, 2)
        v_new, w_eff = ode_step(LAW, u, v, dt)
        assert v_new >= 0.0
        assert v_new - v == pytest.approx(dt * LAW.k * (LAW.rate(u) - w_eff), rel=1e-12, abs=1e-15)


def test_ode_step_rejects_bad_input():
    with pytest.raises(StateError):
        ode_step(LAW, 0.5, -0.01, 0.1)
    with pytest.raises(ValueError):
        ode_step(LAW, 0.5, 0.01, 0.0)


def test_ode_step_vectorized_matches_scalar():
    u = np.array([0.0, 0.5, 1.0, 2.0])
    v = np.array([0.01, 0.0, 0.3, 0.0])
    v_new, w_eff = ode_step(LAW, u, v, 0.02)
    for i in range(4):
        vn, we = ode_step(LAW, float(u[i]), float(v[i]), 0.02)
        assert v_new[i] == vn
        assert w_eff[i] == we


def test_net_rate_matches_ode_step():
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 2, 50)
    v = rng.uniform(0, 0.5, 50)
    dt = 0.03
    v_new, _ = ode_step(LAW, u, v, dt)
    assert np.allclose(net_rate_and_branch(LAW, u, v, dt)[0], (v_new - v) / dt, atol=1e-14)


def test_regularized_step_matches_brute_force():
    delta = 0.05
    for u, v0, dt in ((0.5, 0.2, 0.3), (0.5, 0.01, 0.3), (1.5, 0.0, 0.2), (0.0, 0.3, 0.5)):
        v_new = regularized_step(LAW, delta, u, v0, dt)
        ref = ramp_ode_euler(power_rate(u), v0, dt, delta)
        assert v_new == pytest.approx(ref, abs=5e-6)


def test_regularized_step_at_solubility_divides_by_nothing():
    # u = u_sol gives r = 1: above the ramp v stays put and never reaches it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_new = regularized_step(RateLaw(), 0.1, [1.0, 0.5], [0.5, 0.5], 0.01)
        assert v_new[0] == 0.5
        assert v_new[1] == regularized_step(RateLaw(), 0.1, 0.5, 0.5, 0.01) < 0.5


def test_regularized_limit_reproduces_selection():
    us = np.linspace(0.0, 2.0, 41)
    exact = np.minimum(LAW.rate(us), 1.0)
    for delta in (1e-1, 1e-2, 1e-3):
        w = regularized_steady_w(LAW, delta, us)
        assert np.max(np.abs(w - exact)) <= delta * LAW.lipschitz_bound(2.0)


def test_resolution_validation():
    with pytest.raises(ValueError):
        regularized_step(LAW, 0.0, 0.5, 0.1, 0.01)


def test_branch_table_against_oracle_grid():
    us = np.linspace(-0.5, 2.5, 10)
    vs = np.linspace(-0.1, 0.4, 10)
    for u in us:
        for v in vs:
            expected = heaviside_selection(power_rate(u), v)
            assert dissolution_rate(LAW, u, v) == expected
