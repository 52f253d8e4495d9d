import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenkep import dynamics
from heisenkep.dynamics import (
    ExtendedState,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    extended_poisson_build,
    hamilton_rhs,
    integrate,
    integrate_extended,
    max_line_deviation,
    monitor_conserved,
    trajectory_to_csv,
)
from heisenkep.heisenmodel import (
    CollisionError,
    GroupElement,
    PhaseState1B,
    PhaseState2B,
    PotentialSpec,
    SystemSpec,
    _on_floats,
    condition_coefficient_a,
    hamiltonian,
    particular_solution,
    state_rho,
)
from oracles import per_point_monitor, rhs_fn

TIGHT = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)


@pytest.fixture(scope="module")
def kepler1b():
    return SystemSpec("one-body", 1)


@pytest.fixture(scope="module")
def kepler2b():
    return SystemSpec("two-body", 2, m1=1, m2=3)


@pytest.fixture(scope="module")
def scatter_traj(kepler1b):
    s0 = PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=100.0)
    return integrate(kepler1b, s0, cfg)


def _zero_energy_state():
    r = math.sqrt(1.0 + 16 * 0.04)
    return PhaseState1B(1.0, 0.0, 0.2, 0.0, math.sqrt(2.0 / r), 0.0)


# -- vector field -----------------------------------------------------------

def test_rhs_is_canonical_gradient(kepler1b):
    # compare against a central-difference canonical field
    a = PhaseState1B(1.1, -0.4, 0.3, 0.2, 0.7, -0.1).to_array()
    f = hamilton_rhs(kepler1b, a)
    h = 1e-6
    for i in range(6):
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        dH = (hamiltonian(kepler1b, ap) - hamiltonian(kepler1b, am)) / (2 * h)
        j = i - 3 if i >= 3 else i + 3
        sign = 1.0 if i >= 3 else -1.0
        assert f[j] == pytest.approx(sign * dH, rel=1e-6, abs=1e-8)


# -- conservation on generic orbits -----------------------------------------

def test_energy_drift_long_run(scatter_traj, kepler1b):
    rep = monitor_conserved(kepler1b, scatter_traj)
    assert scatter_traj.flagged_event is None
    assert rep.drifts["H"] < 1e-9
    assert rep.drifts["p_theta"] < 1e-9


def test_djdt_equals_2h_residual(scatter_traj, kepler1b):
    rep = monitor_conserved(kepler1b, scatter_traj)
    assert rep.djdt_residual_max < 1e-7


def test_zero_energy_dilation_invariant(kepler1b):
    s0 = _zero_energy_state()
    assert abs(hamiltonian(kepler1b, s0)) < 1e-14
    traj = integrate(kepler1b, s0, TIGHT)
    rep = monitor_conserved(kepler1b, traj)
    assert rep.j_constant_at_zero_energy is True
    assert rep.j_drift < 1e-8


def test_two_body_integral_drifts(kepler2b):
    s0 = np.array(
        [1.5, 0.0, 0.2, -1.5, 0.0, -0.2, 0.2, 1.5, 0.1, -0.2, -1.8, 0.0]
    )
    traj = integrate(kepler2b, s0, TIGHT)
    assert traj.flagged_event is None
    rep = monitor_conserved(kepler2b, traj)
    for key in ("I1", "I2", "I3", "I4"):
        assert rep.drifts[key] < 1e-8
    assert rep.drifts["H"] < 1e-9


# -- invariant vertical line ------------------------------------------------

def test_particular_solution_is_invariant_line(kepler1b):
    c = 0.5
    s0 = particular_solution(kepler1b, {"c": c}, 0.0)
    traj = integrate(kepler1b, s0, TIGHT)
    pts = traj.at(np.linspace(0, 10, 300))
    assert max_line_deviation(pts[:, :3]) < 1e-9
    assert np.max(np.abs(pts[:, [0, 1, 3, 4]])) < 1e-9
    assert np.max(np.abs(pts[:, 2] - c)) < 1e-9


def test_planar_radial_submanifold_is_straight(kepler1b):
    # z = 0, p_z = 0, p_theta = 0: motion confined to a radial line
    s0 = PhaseState1B(2.0, 1.0, 0.0, 0.6, 0.3, 0.0)
    traj = integrate(kepler1b, s0, TIGHT)
    pts = traj.at(np.linspace(0, 10, 300))
    assert max_line_deviation(pts[:, :3]) < 1e-9
    assert np.max(np.abs(pts[:, 2])) < 1e-12
    assert np.max(np.abs(pts[:, 5])) < 1e-12
    p_theta = pts[:, 0] * pts[:, 4] - pts[:, 1] * pts[:, 3]
    assert np.max(np.abs(p_theta)) < 1e-9


def test_momentum_ramp_matches_prediction(kepler1b):
    c = 0.5
    a = float(condition_coefficient_a(kepler1b, c))
    s0 = particular_solution(kepler1b, {"c": c}, 0.0)
    traj = integrate(kepler1b, s0, TIGHT)
    ts = np.linspace(0, 10, 200)
    pz = traj.at(ts)[:, 5]
    assert np.max(np.abs(pz + 2 * a * ts)) < 1e-9


def test_two_body_momentum_ramp(kepler2b):
    w2 = 1.25
    from heisenkep.heisenmodel import condition_coefficient_a

    a = float(condition_coefficient_a(kepler2b, w2))
    s0 = particular_solution(kepler2b, {"w2": w2, "pw1": 0.0}, 0.0)
    traj = integrate(kepler2b, s0, TIGHT)
    ts = np.linspace(0, 10, 200)
    pts = traj.at(ts)
    pw2 = (pts[:, 8] - pts[:, 11]) / 2
    assert np.max(np.abs(pw2 + 2 * a * ts)) < 1e-9


# -- batched dense output and monitor ---------------------------------------

_TWO_BODY_S0 = PhaseState2B(GroupElement(1.5, 0.0, 0.2), GroupElement(-1.5, 0.0, -0.2),
                            0.2, 1.5, 0.1, -0.2, -1.8, 0.0)


@pytest.fixture(scope="module")
def kind_trajs(kepler1b, kepler2b):
    """{kind: trajectory} for each system at_each is checked on."""
    cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, t_end=3.0)
    return {"one-body": integrate(kepler1b, PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1), cfg),
            "two-body": integrate(kepler2b, _TWO_BODY_S0, cfg)}


@pytest.mark.parametrize("kind", ["one-body", "two-body"])
@settings(max_examples=15, deadline=None)
@given(extra=st.lists(st.floats(-1.0, 4.0), max_size=30))
def test_at_each_is_per_point_at_bit_for_bit(kind_trajs, kind, extra):
    traj = kind_trajs[kind]
    # every step node, where two segments meet, and both ends of each
    # segment (the last one runs past a collision root)
    ts = np.concatenate([traj.t, traj.t[:-1] + traj.h, extra])
    rows = traj.at_each(ts)
    assert rows.shape == (ts.size, traj.dim)
    assert rows.tobytes() == np.array([traj.at(t) for t in ts]).tobytes()


def test_at_each_of_no_time(kind_trajs):
    assert kind_trajs["one-body"].at_each([]).shape == (0, 6)
    assert kind_trajs["two-body"].at_each([]).shape == (0, 12)


@pytest.mark.parametrize("kind", ["one-body", "two-body"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monitor_matches_the_per_point_oracle(kepler1b, kepler2b, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "one-body":
        spec, s0 = kepler1b, PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1).to_array()
    else:
        spec, s0 = kepler2b, _TWO_BODY_S0.to_array()
    s0 = s0 + rng.uniform(-0.05, 0.05, s0.size)
    traj = integrate(spec, s0, IntegratorConfig(abs_tol=1e-11, rel_tol=1e-11, t_end=8.0))
    assert traj.flagged_event is None
    assert (json.dumps(monitor_conserved(spec, traj).to_json(), sort_keys=True)
            == json.dumps(per_point_monitor(spec, traj).to_json(), sort_keys=True))


def test_monitor_of_a_dense_output_at_the_collision_set_raises(kepler1b):
    # one segment whose dense output stays at the origin, where rho = 0
    traj = Trajectory(t=np.array([0.0, 1.0]), y=np.array([[0.0, 0.0, 0.0, 0.1, 0.0, 0.0]] * 2),
                      stats={}, h=np.ones(1), Q=np.zeros((1, 6, 4)))
    for monitor in (monitor_conserved, per_point_monitor):
        with pytest.raises(CollisionError):
            monitor(kepler1b, traj)


def test_monitor_of_a_span_too_short_to_differentiate(kepler1b):
    # no grid point lies h inside both ends, so no residual is taken
    traj = integrate(kepler1b, PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1),
                     IntegratorConfig(t_end=1e-5))
    rep = monitor_conserved(kepler1b, traj)
    assert rep.djdt_residual_max == 0.0
    assert rep.to_json() == per_point_monitor(kepler1b, traj).to_json()


# -- the in-package RK45 against scipy, its oracle ---------------------------

def test_rk45_tableau_is_scipys():
    from scipy.integrate import RK45
    from scipy.integrate._ivp import rk

    for name in "ABCEP":
        ours, theirs = getattr(dynamics, "_" + name), getattr(RK45, name)
        assert (ours.shape, ours.tobytes()) == (theirs.shape, theirs.tobytes())
    assert dynamics._ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order
    assert ((dynamics._SAFETY, dynamics._MIN_FACTOR, dynamics._MAX_FACTOR)
            == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR))


def _outcome(run):
    """run()'s value, or the repr of the ValueError it raised."""
    try:
        return run()
    except ValueError as exc:
        return repr(exc)


def _solve_ivp_orbit(spec, s0, cfg):
    """integrate's orbit as scipy's solve_ivp computes it."""
    from scipy.integrate import solve_ivp

    def near_collision(t, y):
        return state_rho(spec, y) - cfg.rho_min

    near_collision.terminal, near_collision.direction = True, -1
    return solve_ivp(lambda t, y: np.asarray(_on_floats(rhs_fn(spec), y), dtype=float),
                     (0.0, cfg.t_end), s0, method="RK45", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, dense_output=True, events=near_collision)


# the simulate presets' starts; the radial infall is perturbed along its line
_ORBIT_STARTS = {"scatter": (1.0, 0.0, 0.2, 0.3, 1.2, 0.1),
                 "zero energy": tuple(_zero_energy_state().to_array()),
                 "infall": (1.0, 0.0, 0.0, -0.5, 0.0, 0.0),
                 "two-body": tuple(_TWO_BODY_S0.to_array())}


@settings(max_examples=20, deadline=None)
@given(start=st.sampled_from(sorted(_ORBIT_STARTS)),
       noise=st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12),
       tol=st.sampled_from([1e-9, 1e-10, 1e-11, 1e-12]),
       rho_min=st.sampled_from([1e-8, 1e-4, 1e-2]), t_end=st.floats(1.0, 3.0))
def test_rk45_is_solve_ivp_bit_for_bit(kepler1b, kepler2b, start, noise, tol, rho_min, t_end):
    s0 = np.array(_ORBIT_STARTS[start])
    mask = np.zeros(s0.size) if start == "infall" else np.ones(s0.size)
    mask[[0, 3]] = 1.0
    s0 = s0 + mask * noise[:s0.size]
    spec = kepler2b if start == "two-body" else kepler1b
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, t_end=t_end, rho_min=rho_min)
    res = _outcome(lambda: _solve_ivp_orbit(spec, s0, cfg))
    traj = _outcome(lambda: integrate(spec, s0, cfg))
    if isinstance(res, str):  # the event root's bracket lost its sign change
        assert traj == res
        return
    if start == "infall":
        assert res.status == 1
    assert traj.t.tobytes() == res.t.tobytes()
    assert traj.y.tobytes() == res.y.T.tobytes()
    assert (traj.stats == {"nfev": res.nfev, "steps": res.t.size - 1, "status": res.status,
                           "message": res.message})
    assert traj.flagged_event == ("collision_guard" if res.status == 1 else None)
    assert traj.t[-1:].tobytes() == (res.t_events[0] if res.status == 1 else res.t[-1:]).tobytes()
    grid = np.linspace(traj.t[0], traj.t[-1], 400)
    rng = np.random.default_rng(0)
    outside = np.linspace(-1.0, traj.t[-1] + 1.0, 57)  # runs past both ends
    # sorted, shuffled, with repeats, partly outside [t_0, t_end], one time
    for ts in (grid, rng.permutation(grid), rng.permutation(np.repeat(grid[::9], 3)),
               rng.permutation(outside), outside[:1], grid[200:201]):
        ours, theirs = traj.at(ts), res.sol(ts).T
        assert (ours.tobytes(), ours.strides) == (theirs.tobytes(), theirs.strides)
    pts = np.concatenate([traj.t, grid[::7], [t_end]])
    assert (np.array([traj.at(t) for t in pts]).tobytes()
            == np.array([res.sol(t) for t in pts]).tobytes())


def test_rk45_step_underflow_is_solve_ivps():
    # y' = y^2 from y(0) = 1 blows up at t = 1, where the step underflows
    from scipy.integrate import solve_ivp

    res = solve_ivp(lambda t, y: y * y, (0.0, 2.0), np.array([1.0]), rtol=1e-9, atol=1e-9,
                    dense_output=True)
    assert res.status == -1
    cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, t_end=2.0)
    with pytest.raises(IntegrationError, match=f"integration failed: {res.message}") as err:
        dynamics._solve(lambda v: [v * v], np.array([1.0]), cfg)
    assert err.value.last_t == res.t[-1]
    assert err.value.last_state.tobytes() == res.y[:, -1].tobytes()


# a monomial of a polynomial field: (coefficient, j, k) is c * v[j] * v[k],
# where index n stands for the constant 1, so the degree is at most 2
def _field(n, rows):
    def field(*v):
        v = (*v, 1.0)
        return [sum((c * v[j] * v[k] for c, j, k in row), 0.0) for row in rows]
    return field


@st.composite
def _polynomial_fields(draw):
    n = draw(st.integers(1, 12))
    monomial = st.tuples(st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]),
                         st.integers(0, n), st.integers(0, n))
    rows = draw(st.lists(st.lists(monomial, min_size=1, max_size=3), min_size=n, max_size=n))
    y0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return n, rows, np.array(y0)


@settings(max_examples=40, deadline=None)
@given(drawn=_polynomial_fields(), tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
       t_end=st.floats(0.5, 2.0), max_step=st.sampled_from([math.inf, 0.25]))
def test_solve_is_solve_ivp_bit_for_bit_in_every_dimension(drawn, tol, t_end, max_step):
    # the step attempt is generated per dimension: hold each n in 1..12 to
    # solve_ivp on a polynomial field, a blow-up's failed run included
    from scipy.integrate import solve_ivp

    n, rows, y0 = drawn
    field = _field(n, rows)
    res = solve_ivp(lambda t, y: field(*y.tolist()), (0.0, t_end), y0, method="RK45",
                    rtol=tol, atol=tol, max_step=max_step, dense_output=True)
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, t_end=t_end, max_step=max_step)
    if res.status == -1:
        with pytest.raises(IntegrationError, match=res.message) as err:
            dynamics._solve(field, y0, cfg)
        assert err.value.last_t == res.t[-1]
        assert err.value.last_state.tobytes() == res.y[:, -1].tobytes()
        return
    traj = dynamics._solve(field, y0, cfg)
    assert traj.t.tobytes() == res.t.tobytes()
    assert traj.y.tobytes() == res.y.T.tobytes()
    assert (traj.stats == {"nfev": res.nfev, "steps": res.t.size - 1, "status": res.status,
                           "message": res.message})
    grid = np.linspace(0.0, t_end, 50)
    assert traj.at(grid).tobytes() == res.sol(grid).T.tobytes()


@pytest.mark.parametrize("stage", range(1, 7))
def test_numpy_fallback_in_each_stage_keeps_the_bits(monkeypatch, stage):
    # the vector field raises on Python floats at this stage of every step
    # attempt (and at the two calls before the first step): integrate's
    # fallback evaluates it on numpy scalars, which round as floats do
    spec = SystemSpec("one-body", 1)
    s0 = PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=2.0)
    want = integrate(spec, s0, cfg)
    rhs, on_floats, on_numpy = spec._rhs, [], []

    def rhs_raising_on_floats(*v):
        if type(v[0]) is float:
            on_floats.append(v)
            # calls 0 and 1 precede the first step, then 6 per attempt
            k = len(on_floats) - 1
            if k < 2 or (k - 2) % 6 == stage - 1:
                raise OverflowError("(34, 'Numerical result out of range')")
        else:
            on_numpy.append(v)
        return rhs(*v)

    monkeypatch.setattr(spec, "_rhs", rhs_raising_on_floats)
    got = integrate(spec, s0, cfg)
    assert len(on_floats) == want.stats["nfev"]
    assert len(on_numpy) == 2 + (len(on_floats) - 2) // 6
    assert all(type(x) is np.float64 for v in on_numpy for x in v)
    for name in ("t", "y", "h", "Q"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.stats == want.stats


def _tracing(f, xs):
    def g(x):
        xs.append(x)
        return f(x)
    return g


_BRENT_FUNCTIONS = {
    "cubic": lambda c: lambda x: c[0] + c[1] * x + c[2] * x * x + c[3] * x ** 3,
    "flat": lambda c: lambda x: c[0] + c[1] * (x - c[2]) ** 9,
    "staircase": lambda c: lambda x: math.floor(4 * c[1] * (x - c[2])) + 0.5,
    "exp": lambda c: lambda x: math.exp(c[1] * x) - 1.0 - c[0],
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_BRENT_FUNCTIONS)),
       c=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
       xtol=st.sampled_from([4 * np.finfo(float).eps, 1e-12, 1e-6, 0.1]),
       rtol=st.sampled_from([4 * np.finfo(float).eps, 1e-9, 1e-3]),
       maxiter=st.sampled_from([1, 3, 10, 100]))
def test_brentq_port_is_scipys(kind, c, a, b, xtol, rtol, maxiter):
    from scipy.optimize import brentq

    f = _BRENT_FUNCTIONS[kind](c)
    seen = {"ours": [], "scipy": []}

    def run(solver, key):
        try:
            return solver(_tracing(f, seen[key]), a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        except (ValueError, RuntimeError) as exc:
            return repr(exc)

    ours, theirs = run(dynamics._brentq, "ours"), run(brentq, "scipy")
    assert (ours.hex() if isinstance(ours, float) else ours) == (
        theirs.hex() if isinstance(theirs, float) else theirs)
    assert [x.hex() for x in seen["ours"]] == [x.hex() for x in seen["scipy"]]


# -- reversibility and guards -----------------------------------------------

def test_time_reversal_round_trip(kepler1b):
    s0 = PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1).to_array()
    fwd = integrate(kepler1b, s0, TIGHT)
    end = fwd.y[-1].copy()
    end[3:] *= -1
    back = integrate(kepler1b, end, TIGHT)
    rec = back.y[-1].copy()
    rec[3:] *= -1
    assert rec == pytest.approx(s0, abs=1e-8)


def test_collision_guard_flags(kepler1b):
    # radial infall reaches the guard radius and terminates early
    s0 = PhaseState1B(1.0, 0.0, 0.0, -0.5, 0.0, 0.0)
    traj = integrate(kepler1b, s0, IntegratorConfig(t_end=50.0))
    assert traj.flagged_event == "collision_guard"
    assert traj.t[-1] < 50.0


def test_collision_root_search_runs_on_python_floats(kepler1b, monkeypatch):
    # the simulate_collision orbit: every iterate the guard's root search
    # passes to the event is a Python float, so a zero denominator in a
    # step raises the ZeroDivisionError that _brentq catches instead of
    # giving numpy's RuntimeWarning and a NaN
    xs = []
    brentq = dynamics._brentq
    monkeypatch.setattr(dynamics, "_brentq", lambda f, *args: brentq(_tracing(f, xs), *args))
    traj = integrate(kepler1b, PhaseState1B(1.0, 0.0, 0.0, -0.5, 0.0, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.flagged_event == "collision_guard"
    assert len(xs) > 3
    assert [type(x).__name__ for x in xs] == ["float"] * len(xs)


def test_start_on_the_collision_set_raises(kepler1b):
    # the vector field is not finite at rho = 0, so no first step exists
    with pytest.raises(CollisionError):
        integrate(kepler1b, PhaseState1B(0.0, 0.0, 0.0, 0.1, 0.0, 0.0), IntegratorConfig())


@pytest.mark.parametrize("px", [0.1, -0.1])
def test_start_inside_the_collision_guard_raises(kepler1b, px):
    # rho = 1e-10 < rho_min: the guard event would only fire on a crossing
    with pytest.raises(CollisionError, match="inside the collision guard"):
        integrate(kepler1b, PhaseState1B(1e-5, 0.0, 0.0, px, 0.0, 0.0),
                  IntegratorConfig(rho_min=1e-4))


def test_rtol_clamp_warns_at_the_caller(kepler1b):
    with pytest.warns(UserWarning, match="rtol") as caught:
        integrate(kepler1b, PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1),
                  IntegratorConfig(rel_tol=1e-20, t_end=1e-3))
    assert [w.filename for w in caught] == [__file__]


def test_config_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=0.0)


# a NaN or infinite tolerance made integrate spin, rejecting every step; a NaN
# rho_min let an orbit pass through the guard
@pytest.mark.parametrize("field, message", [("abs_tol", "tolerances must be positive"),
                                            ("rel_tol", "tolerances must be positive"),
                                            ("rho_min", "rho_min must be positive")])
@pytest.mark.parametrize("value", [0.0, -1e-8, math.nan, math.inf])
def test_config_rejects_a_nonpositive_or_nonfinite_tolerance_or_rho_min(field, message, value):
    with pytest.raises(ValueError, match=message):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize("t_end", [0.0, -5.0, float("nan"), math.inf])
def test_config_rejects_nonpositive_t_end(t_end):
    with pytest.raises(ValueError, match="t_end must be positive"):
        IntegratorConfig(t_end=t_end)


@pytest.mark.parametrize("max_step", [0.0, -1.0, float("nan")])
def test_config_rejects_nonpositive_max_step(max_step):
    with pytest.raises(ValueError, match="max_step must be positive"):
        IntegratorConfig(max_step=max_step)


def test_trajectory_rejects_bad_grid():
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 0.0]), y=np.zeros((2, 6)), stats={}, h=np.ones(1),
                   Q=np.zeros((1, 6, 4)))


# -- extended Poisson system ------------------------------------------------

@pytest.fixture(scope="module")
def lifted(kepler1b):
    return extended_poisson_build(kepler1b)


def _leaf_point(rng, lifted):
    q = rng.uniform(-2, 2, size=3)
    p = rng.uniform(-2, 2, size=3)
    u = math.sqrt((q[0] ** 2 + q[1] ** 2) ** 2 + 16 * q[2] ** 2)
    return np.concatenate([q, p, [u]])


def test_structure_matrix_rank_and_antisymmetry(lifted):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = _leaf_point(rng, lifted)
        J = lifted.J(x)
        assert np.max(np.abs(J + J.T)) == 0.0
        assert np.linalg.matrix_rank(J, tol=1e-10) == 6


def test_casimir_bracket_vanishes(lifted):
    rng = np.random.default_rng(8)
    probes = [lifted.K] + [lambda x, i=i: float(x[i]) ** 2 for i in range(7)]
    for _ in range(25):
        x = _leaf_point(rng, lifted)
        for f in probes:
            assert abs(lifted.bracket(lifted.P, f, x, grad_f=lifted.grad_P)) < 1e-10


def test_casimir_sources_are_sympys_lambdify():
    # P and its derivatives are written out in the package, as the text
    # sympy's lambdify prints for them
    import inspect

    import sympy as sp

    x, y, z, u = sp.symbols("x y z u", real=True)
    P = u**2 - ((x**2 + y**2) ** 2 + 16 * z**2)
    oracle = (P, [sp.diff(P, v) for v in (x, y, z)], sp.diff(P, u))
    rng = np.random.default_rng(10)
    for fn, expr in zip((dynamics._casimir, dynamics._casimir_grad_q, dynamics._casimir_du),
                        oracle):
        printed = sp.lambdify((x, y, z, u), expr, modules="numpy")
        assert (inspect.getsource(fn).split("\n", 1)[1]
                == inspect.getsource(printed).split("\n", 1)[1])
        for _ in range(10):
            args = rng.uniform(-2.0, 2.0, size=4)
            assert (np.asarray(fn(*args), dtype=float).tobytes()
                    == np.asarray(printed(*args), dtype=float).tobytes())


def test_casimir_in_kernel_exactly(lifted):
    # J(x) grad P(x) = 0 identically, not only on the leaf
    import sympy as sp

    x, y, z, px, py, pz, u = sp.symbols("x y z p_x p_y p_z u", real=True)
    P = u**2 - ((x**2 + y**2) ** 2 + 16 * z**2)
    gradP = [sp.diff(P, v) for v in (x, y, z, px, py, pz, u)]
    rng = np.random.default_rng(9)
    fn = sp.lambdify((x, y, z, px, py, pz, u), gradP, modules="numpy")
    for _ in range(20):
        pt = rng.uniform(0.5, 2.0, size=7)
        res = lifted.J(pt) @ np.asarray(fn(*pt), dtype=float)
        assert np.max(np.abs(res)) < 1e-12


def test_extended_flow_projects_to_canonical(kepler1b, lifted):
    s0 = PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1)
    traj = integrate(kepler1b, s0, TIGHT)
    u0 = math.sqrt((1.0**2 + 0.0**2) ** 2 + 16 * 0.2**2)
    x0 = ExtendedState((1.0, 0.0, 0.2), (0.3, 1.2, 0.1), u0)
    ext = integrate_extended(lifted, x0, TIGHT)
    assert ext.flagged_event is None
    assert ext.stats["max_casimir_residual"] < 1e-8
    ts = np.linspace(0, 10, 200)
    assert np.max(np.abs(ext.at(ts)[:, :6] - traj.at(ts))) < 1e-6


def test_extended_energy_conserved(lifted):
    u0 = math.sqrt(1.0 + 16 * 0.04)
    x0 = ExtendedState((1.0, 0.0, 0.2), (0.3, 1.2, 0.1), u0)
    ext = integrate_extended(lifted, x0, TIGHT)
    ks = [lifted.K(ext.at(t)) for t in np.linspace(0, 10, 100)]
    assert max(abs(k - ks[0]) for k in ks) < 1e-9


@settings(max_examples=10, deadline=None)
@given(noise=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6),
       tol=st.sampled_from([1e-9, 1e-10, 1e-12]), t_end=st.floats(0.5, 2.0))
def test_extended_flow_is_solve_ivp_bit_for_bit(lifted, noise, tol, t_end):
    # leaf states near verify_onebody's start (1, 0, 0.2, 0.3, 1.2, 0.1)
    from scipy.integrate import solve_ivp

    q, p = np.add((1.0, 0.0, 0.2), noise[:3]), np.add((0.3, 1.2, 0.1), noise[3:])
    u = math.sqrt((q[0] ** 2 + q[1] ** 2) ** 2 + 16 * q[2] ** 2)
    x0 = ExtendedState(tuple(q), tuple(p), u)
    res = solve_ivp(lambda t, x: lifted.rhs(x), (0.0, t_end), x0.to_array(), method="RK45",
                    rtol=tol, atol=tol, dense_output=True)
    ext = integrate_extended(lifted, x0, IntegratorConfig(abs_tol=tol, rel_tol=tol, t_end=t_end))
    assert ext.t.tobytes() == res.t.tobytes()
    assert ext.y.tobytes() == res.y.T.tobytes()
    assert ({k: ext.stats[k] for k in ("nfev", "steps", "status", "message")}
            == {"nfev": res.nfev, "steps": res.t.size - 1, "status": res.status,
                "message": res.message})
    grid = np.linspace(0.0, t_end, 50)
    assert ext.at(grid).tobytes() == res.sol(grid).T.tobytes()


def test_extended_rejects_off_leaf(lifted):
    with pytest.raises(ValueError):
        integrate_extended(lifted, ExtendedState((1, 0, 0.2), (0, 0, 0), 5.0), TIGHT)


def test_extended_rejects_a_start_where_the_field_is_not_finite():
    # W = 1/z at z = 0: the first step size used to be NaN, and the step
    # loop never ended
    spec = SystemSpec("one-body", 1, potential=PotentialSpec([[0, 0, 1]], [[1, 0, 1]]))
    x0 = ExtendedState((1.0, 0.0, 0.0), (0.3, 1.2, 0.1), 1.0)
    with pytest.raises(CollisionError, match="vector field is not finite at the initial state"):
        integrate_extended(extended_poisson_build(spec), x0, TIGHT)


def test_extended_rejects_two_body(kepler2b):
    with pytest.raises(ValueError):
        extended_poisson_build(kepler2b)


# -- export -----------------------------------------------------------------

def test_csv_export_round_trip(tmp_path, kepler1b):
    s0 = PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1)
    traj = integrate(kepler1b, s0, IntegratorConfig(t_end=1.0))
    path = tmp_path / "orbit.csv"
    trajectory_to_csv(kepler1b, traj, path, header_meta={"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["t", "x", "y", "z", "p_x", "p_y", "p_z", "H", "p_theta", "J"]
    assert len(rows) - 1 == traj.t.size
    # full float round trip through repr
    k = len(rows) // 2
    got = np.array([float(v) for v in rows[k][1:7]])
    assert np.array_equal(got, traj.y[k - 1])


def test_line_deviation_helper():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2.0]])
    assert max_line_deviation(pts) < 1e-12
    pts2 = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1.0, 0.0]])
    assert max_line_deviation(pts2) > 0.1


def test_line_deviation_of_no_point_and_of_one_point():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean of an empty cloud
        assert max_line_deviation(np.empty((0, 3))) == 0.0
        assert max_line_deviation(np.array([[1.0, -2.0, 0.5]])) == 0.0
