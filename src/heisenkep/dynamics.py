"""Numerical integration of the one-body, two-body, and extended
(algebraic-variable) systems, with conserved-quantity monitoring.

The integrator, ``_solve``, is the Dormand-Prince 5(4) pair with dense output
of scipy's ``solve_ivp`` RK45, repeated op for op, so its bits are scipy's.
Every trajectory keeps its dense output: the monitor samples it and
differentiates J along it.  A symplectic scheme is not used: the
extended system is Poisson with a nonconstant structure matrix, so one
explicit adaptive scheme serves all three systems uniformly.

The step runs on Python floats around its BLAS products.  numpy makes only
the products whose summation order pins the bits (the stages, the 5th- and
4th-order combinations, the dense output's Q and the error norm's ddot);
the rest of the step is IEEE arithmetic on floats, which round as numpy's
elementwise ops do at a fraction of the cost.  Each step attempt is one
straight-line function, generated and compiled once per state dimension,
that hands the vector field each stage state as positional floats; the
collision guard takes the step's list of floats.  H runs on Python floats
too.  The monitor batches what rounds as the scalar path does:
``Trajectory.at_each`` has the bits of per-point dense output, and the
other integrals are IEEE ``+ - * /`` on float64 columns.  H stays per
point (array ``**2`` and ``**1.5`` round apart from C ``pow``), and the
grid keeps the bits of OdeSolution's array call, one BLAS product per run
of times in one segment (see README).

Every evaluator, the extended lift's K and grad K included, is compiled
from source that ``heisenmodel`` prints, so neither sympy nor scipy is
imported: both serve only as the tests' oracles.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .heisenmodel import (
    CollisionError,
    SystemSpec,
    _compile_def,
    _evaluator,
    _hamiltonian_rows,
    _num_grad,
    _on_floats,
    _polynomial_integrals,
    _rho,
    first_integrals,
    state_rho,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "MonitorReport",
    "ExtendedState",
    "ExtendedSystem",
    "IntegrationError",
    "hamilton_rhs",
    "integrate",
    "monitor_conserved",
    "drift_names",
    "extended_poisson_build",
    "integrate_extended",
    "trajectory_to_csv",
    "max_line_deviation",
]


class IntegrationError(RuntimeError):
    """Integration failure (step-size underflow near collision); carries the
    last good state in ``last_state``."""

    def __init__(self, msg, last_t=None, last_state=None):
        super().__init__(msg)
        self.last_t = last_t
        self.last_state = last_state


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = np.inf
    t_end: float = 10.0
    rho_min: float = 1e-8

    def __post_init__(self):
        # a NaN or infinite tolerance makes the step size NaN, and the step
        # loop then rejects every step; an infinite t_end is never reached;
        # a NaN rho_min never fires the guard
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.rho_min < math.inf:
            raise ValueError("rho_min must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


@dataclass
class Trajectory:
    """The accepted steps of an integration: sample times t, states y, and
    the dense output, one row of h and Q per segment t[i]..t[i + 1].  The
    state at a time s in segment i is y[i] + h[i] * Q[i] @ (x, x^2, x^3, x^4)
    with x = (s - t[i]) / h[i]."""

    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    stats: dict
    h: np.ndarray
    Q: np.ndarray  # shape (segments, dim, 4)
    flagged_event: str | None = None

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if self.y.shape[0] != self.t.size:
            raise ValueError("time/state sample count mismatch")

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def at(self, t):
        """The dense output at a time t (a state) or at an array of times (a
        row per time), with the bits of scipy's OdeSolution call: for an
        array, one np.dot(Q[i], p) per run of sorted times in one segment,
        and the elementwise rest done for all times at once."""
        t = np.asarray(t)
        if t.ndim == 0:
            i = self._segment_of(t)
            return _rk_dense(self.t[i], self.h[i], self.Q[i], self.y[i], t)
        order = np.argsort(t)
        t_sorted = t[order]
        seg = self._segment_of(t_sorted)
        h = self.h[seg]
        x = (t_sorted - self.t[seg]) / h
        p = np.cumprod(np.tile(x, (self.Q.shape[2], 1)), axis=0)
        y = np.empty((self.dim, t.size))
        cuts = [*np.flatnonzero(np.diff(seg, prepend=-1)).tolist(), t.size]
        for a, b in zip(cuts, cuts[1:]):  # runs of times in one segment
            y[:, a:b] = np.dot(self.Q[seg[a]], p[:, a:b])
        y *= h
        y += self.y[seg].T
        return y[:, np.argsort(order)].T

    def _segment_of(self, t):
        # the segment with the lower index where two meet
        return np.clip(np.searchsorted(self.t, t) - 1, 0, self.h.size - 1)

    def at_each(self, ts) -> np.ndarray:
        """Row i is at(ts[i]), bit for bit, from one batched pass.

        This is the scalar dense-output step for all t at once: the segment
        at() picks, the cumprod powers of x = (t - t[i])/h, and one stacked
        matmul whose slices make the BLAS call np.dot(Q, p) makes."""
        ts = np.asarray(ts, dtype=float)
        seg = self._segment_of(ts)
        h = self.h[seg]
        x = (ts - self.t[seg]) / h
        Q = self.Q[seg]
        p = np.cumprod(np.repeat(x[:, None], Q.shape[2], axis=1), axis=1)
        y = h[:, None] * np.matmul(Q, p[..., None])[..., 0]
        y += self.y[seg]
        return y


# ---------------------------------------------------------------------------
# Hamiltonian flow
# ---------------------------------------------------------------------------

def hamilton_rhs(spec: SystemSpec, s) -> np.ndarray:
    """Canonical vector field (dH/dp, -dH/dq) in the flat array ordering."""
    a = np.asarray(s, dtype=float) if not hasattr(s, "to_array") else s.to_array()
    if state_rho(spec, a) == 0.0:
        raise CollisionError("vector field evaluated at the collision set")
    return np.asarray(_on_floats(spec._rhs, a), dtype=float)


def integrate(spec: SystemSpec, s0, cfg: IntegratorConfig) -> Trajectory:
    """Adaptive integration of the canonical equations up to cfg.t_end.

    Terminates early with a flagged event when rho drops below cfg.rho_min;
    step-size underflow raises IntegrationError with the last good state.  A
    start on the collision set, inside the guard (rho <= rho_min), where rho
    never falls through rho_min, or where the vector field is not finite (a
    singularity of the potential) raises CollisionError.
    """
    a0 = s0.to_array() if hasattr(s0, "to_array") else np.asarray(s0, dtype=float)
    rho0 = state_rho(spec, a0)
    if rho0 <= cfg.rho_min:
        where = "on the collision set" if rho0 == 0.0 else "inside the collision guard"
        raise CollisionError(f"initial state {where}, rho = {rho0!r}")

    rhs, kind, rho_min = spec._rhs, spec.kind, cfg.rho_min

    def f(*v):
        try:
            return rhs(*v)
        except (ZeroDivisionError, OverflowError):  # numpy's inf or nan, as _on_floats
            return rhs(*np.array(v))

    traj = _solve(f, a0, cfg, lambda v: _rho(kind, v) - rho_min)
    traj.flagged_event = "collision_guard" if traj.stats["status"] == 1 else None
    return traj


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4), as scipy.integrate.RK45
# ---------------------------------------------------------------------------

_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
               [44/45, -56/15, 32/9, 0, 0],
               [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
               [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([  # the quartic dense output, with Shampine's optimum c_6
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_ERROR_ESTIMATOR_ORDER = 4
_ERROR_EXPONENT = -1 / (_ERROR_ESTIMATOR_ORDER + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EPS = float(np.finfo(float).eps)  # a float, so _brentq runs on floats
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


def _rms(x):
    # np.linalg.norm(x) of a 1-d float array: a ddot, a correctly rounded sqrt
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk_dense(t_old, h, Q, y_old, t):
    """The step's dense output at a time t, a 0-d array (RkDenseOutput)."""
    y = h * np.dot(Q, np.cumprod(np.tile((t - t_old) / h, Q.shape[1])))
    y += y_old
    return y


@functools.cache
def _attempt(n: int):
    """The factory of one RK45 step attempt in dimension n, generated and
    compiled once per n.  It takes the stage array K, the bound products
    K[:s].T.dot of stages s = 1..5, K[:-1].T.dot and K.T.dot, fun, atol and
    rtol, and returns attempt(y, abs_y, h): rk_step from the state y, a list
    of floats, with |y| as abs_y, which returns y_new, |y_new| and the
    scaled error e * h / (atol + max(|y|, |y_new|) * rtol), whose max keeps
    a NaN as np.maximum does.  It is rk_step's straight-line form, each
    float operation and BLAS product in rk_step's order, so its bits are
    scipy's: the stage states y + d * h go to fun as positional floats, and
    fun's sequence goes straight into a row of K."""
    def each(form):
        return ", ".join(form.format(i=i) for i in range(n))

    body = [f"{each('y{i}')}, = y"]
    for s in range(1, _C.size):
        body += [f"{each('d{i}')}, = dot{s}(_A{s}).tolist()",
                 f"K[{s}] = fun({each('y{i} + d{i} * h')})"]
    body += [f"{each('d{i}')}, = dot_B(_B).tolist()",
             f"{each('n{i}')}, = y_new = [{each('y{i} + h * d{i}')}]",
             f"K[{_C.size}] = fun({each('n{i}')})",
             f"{each('a{i}')}, = abs_y",
             f"{each('b{i}')}, = abs_y_new = [{each('abs(n{i})')}]",
             f"{each('e{i}')}, = dot_E(_E).tolist()",
             "return y_new, abs_y_new, ["
             + each("e{i} * h / (atol + (a{i} if a{i} >= b{i} or a{i} != a{i} else b{i}) * rtol)")
             + "]"]
    src = (f"def attempt_{n}(K, dot1, dot2, dot3, dot4, dot5, dot_B, dot_E, fun, atol, rtol):\n"
           "    def attempt(y, abs_y, h):\n"
           + "".join(f"        {line}\n" for line in body)
           + "    return attempt\n")
    coefficients = {f"_A{s}": _A[s, :s] for s in range(1, _C.size)}
    return _compile_def(src, "rk45 attempt", {**coefficients, "_B": _B, "_E": _E})


def _solve(fun, y0, cfg: IntegratorConfig, event=None, what="integration") -> Trajectory:
    """solve_ivp(fun, (0, cfg.t_end), y0, method="RK45", dense_output=True,
    events=event) with cfg's tolerances and max_step, op for op.  fun takes
    the state as positional floats (the system is autonomous) and returns a
    sequence of floats, which goes straight into a row of the stage array;
    the event takes the state as a list of floats.  The event is terminal
    and fires where it falls through zero.  A failed run raises
    IntegrationError("<what> failed: ...").  A step attempt is the
    straight-line code _attempt generates for the state's dimension.  Only
    the BLAS products K.a_s, K.b, K.e (in the attempt), K.P and the error
    norm's ddot run in numpy.  A fun(y0) that is not finite raises
    CollisionError (solve_ivp hangs or fails)."""
    t_bound, max_step, rtol, atol = float(cfg.t_end), cfg.max_step, cfg.rel_tol, cfg.abs_tol
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.", stacklevel=3)
        rtol = max(rtol, 100 * _EPS)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    with np.errstate(all="ignore"):  # a singular start raises below
        t, f = 0.0, np.asarray(fun(*y.tolist()), dtype=float)
    if not np.isfinite(f).all():
        raise CollisionError("the vector field is not finite at the initial state")

    # select_initial_step
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    # h0 underflows to 0 when f dwarfs y; solve_ivp's numpy division then
    # makes d2 = 0 / 0 = nan, and max(d1, d2) below is d1
    d2 = (_rms((np.asarray(fun(*(y + h0 * f).tolist()), dtype=float) - f) / scale) / h0
          if h0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ESTIMATOR_ORDER + 1))
    h_abs = min(100 * h0, h1, t_bound, max_step)

    # K holds the stages in rows; the products rk_step takes of its
    # transposed views are bound once, since K is written in place; K[-1],
    # f at a step's end, becomes K[0] when the step is accepted
    K = np.empty((_E.size, y.size))
    dot_E = K.T.dot
    attempt = _attempt(y.size)(K, *(K[:s].T.dot for s in range(1, _C.size)), K[:-1].T.dot,
                               dot_E, fun, atol, rtol)
    K[0] = f
    y, abs_y = y.tolist(), abs_y.tolist()
    ts, ys, dense = [t], [y0], []
    g = None if event is None else event(y)
    attempts, status = 0, None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else min_step if h_abs < min_step else h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, abs_y_new, scaled_error = attempt(y, abs_y, h)
            attempts += 1
            error_norm = _rms(np.array(scaled_error))
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if status == -1:
            break

        t_old, y_old = t, y
        t, y, abs_y = t_new, y_new, abs_y_new
        if t - t_bound >= 0:
            status = 0
        dense.append((h, dot_E(_P)))  # t_old and y_old are ts[-1] and ys[-1]
        K[0] = K[-1]
        if event is not None:
            g_new = event(y)
            if g >= 0 and g_new <= 0:
                seg = (t_old, *dense[-1], y_old)
                t = _brentq(lambda r: event(_rk_dense(*seg, np.asarray(r)).tolist()), t_old, t,
                            4 * _EPS, 4 * _EPS)
                y = _rk_dense(*seg, np.asarray(t))
                status = 1
            g = g_new
        if len(ts) > 1 and ts[-1] == t:
            dense.pop()
        else:
            ts.append(t)
            ys.append(y)

    t, y = np.array(ts), np.array(ys)
    if status == -1:
        raise IntegrationError(f"{what} failed: {_MESSAGES[status]}", last_t=t[-1],
                               last_state=y[-1])
    h, Q = map(np.array, zip(*dense))
    # fun ran once at t = 0, once to select the first step, 6 times a step
    stats = {"nfev": 2 + 6 * attempts, "steps": t.size - 1, "status": status,
             "message": _MESSAGES[status]}
    return Trajectory(t, y, stats, h, Q)


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of f in [xa, xb]: scipy.optimize.brentq, its C loop line for line
    on Python floats (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4)."""
    def fx(x):
        v = f(x)
        if math.isnan(v):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect, as C does when a quotient below is not finite
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
        if 2 * abs(stry) < bound:  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# ---------------------------------------------------------------------------
# Conserved-quantity monitoring
# ---------------------------------------------------------------------------

@dataclass
class MonitorReport:
    drifts: dict  # per-integral max |value - value(0)|
    djdt_residual_max: float
    h_initial: float
    j_constant_at_zero_energy: bool | None  # None when H != 0
    j_drift: float

    def to_json(self) -> dict:
        return {
            "drifts": {k: float(v) for k, v in self.drifts.items()},
            "djdt_residual_max": float(self.djdt_residual_max),
            "h_initial": float(self.h_initial),
            "j_constant_at_zero_energy": self.j_constant_at_zero_energy,
            "j_drift": float(self.j_drift),
        }


def drift_names(spec: SystemSpec) -> list[str]:
    """The integrals whose drift monitor_conserved reports."""
    return ["H", "p_theta"] if spec.kind == "one-body" else ["H", "I1", "I2", "I3", "I4"]


def monitor_conserved(spec: SystemSpec, traj: Trajectory) -> MonitorReport:
    """Drift of the known integrals and the dJ/dt = 2H residual.

    The dJ/dt residual differentiates J along the dense output (central
    differences on the interpolant, not on the raw samples)."""
    ts = np.linspace(traj.t[0], traj.t[-1], 400)
    states = traj.at(ts)  # the array call, whose bytes are pinned
    vals = {"H": np.array(_hamiltonian_rows(spec, states)),
            **_polynomial_integrals(spec.kind, states.T)}
    drifts = {k: float(np.max(np.abs(v - v[0]))) for k, v in vals.items()}
    j_drift = drifts.pop("J")

    # dJ/dt - 2H via dense-output differentiation
    h = max(1e-5, (ts[-1] - ts[0]) * 1e-6)
    inner = ts[(ts > ts[0] + h) & (ts < ts[-1] - h)]
    plus, minus, mid = np.split(traj.at_each(np.concatenate([inner + h, inner - h, inner])), 3)
    jp, jm = (_polynomial_integrals(spec.kind, rows.T)["J"] for rows in (plus, minus))
    hh = np.array(_hamiltonian_rows(spec, mid))
    # fmax skips NaN, as max(0.0, nan) does
    djdt_res = np.fmax.reduce(np.abs((jp - jm) / (2 * h) - 2 * hh), initial=0.0)

    h0 = vals["H"][0]
    j_const = bool(j_drift < 1e-8) if abs(h0) < 1e-9 else None
    return MonitorReport(
        drifts=drifts,
        djdt_residual_max=float(djdt_res),
        h_initial=float(h0),
        j_constant_at_zero_energy=j_const,
        j_drift=j_drift,
    )


def max_line_deviation(points: np.ndarray) -> float:
    """Max orthogonal distance of a point cloud from its best-fit line."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        return 0.0
    d = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    direction = vt[0]
    residual = d - np.outer(d @ direction, direction)
    return float(np.max(np.linalg.norm(residual, axis=1)))


# ---------------------------------------------------------------------------
# Extended Poisson system (algebraic Hamiltonian lift)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedState:
    """State (q, p, u) of the lifted system; on the physical leaf P(u) = 0."""

    q: tuple
    p: tuple
    u: float

    def to_array(self) -> np.ndarray:
        return np.array(list(self.q) + list(self.p) + [self.u], dtype=float)


# The lift's Casimir P = u^2 - ((x^2 + y^2)^2 + 16 z^2), the same for every
# potential, and its derivatives in q and u: the text sympy's lambdify
# prints for them, so the same numpy scalars give the same bits.
def _casimir(x, y, z, u):
    return u**2 - 16*z**2 - (x**2 + y**2)**2


def _casimir_grad_q(x, y, z, u):
    return [-4*x*(x**2 + y**2), -4*y*(x**2 + y**2), -32*z]


def _casimir_du(x, y, z, u):
    return 2*u


class ExtendedSystem:
    """The lifted Kepler-type system in x = (x, y, z, p_x, p_y, p_z, u): the
    structure matrix J, the Hamiltonian K and the Casimir P, its only one.
    K_fn and gradK_fn take the seven coordinates; P is fixed."""

    def __init__(self, K_fn, gradK_fn):
        self._K = K_fn
        self._gradK = gradK_fn

    def K(self, x) -> float:
        return float(self._K(*np.asarray(x, dtype=float)))

    def grad_K(self, x) -> np.ndarray:
        return np.asarray(self._gradK(*np.asarray(x, dtype=float)), dtype=float)

    def P(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(_casimir(*x[:3], x[6]))

    def grad_P(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(7)
        g[:3] = np.asarray(_casimir_grad_q(*x[:3], x[6]), dtype=float)
        g[6] = float(_casimir_du(*x[:3], x[6]))
        return g

    def J(self, x) -> np.ndarray:
        """The degenerate 7 x 7 structure matrix at x: antisymmetric, of
        rank 6 at regular points."""
        g = self.grad_P(x)
        if g[6] == 0.0:
            raise ZeroDivisionError("branch point: dP/du = 0")
        col = g[:3] / g[6]
        J = np.zeros((7, 7))
        J[:3, 3:6] = np.eye(3)
        J[3:6, :3] = -np.eye(3)
        J[3:6, 6] = col
        J[6, 3:6] = -col
        return J

    def rhs(self, x) -> np.ndarray:
        return self.J(x) @ self.grad_K(x)

    def bracket(self, f, g, x, grad_f=None) -> float:
        """Bracket grad(f)^T J grad(g); gradients are central differences
        unless an analytic grad_f is supplied."""
        x = np.asarray(x, dtype=float)
        gf = np.asarray(grad_f(x), dtype=float) if grad_f is not None else _num_grad(f, x)
        return float(gf @ self.J(x) @ _num_grad(g, x))


def extended_poisson_build(spec: SystemSpec) -> ExtendedSystem:
    """Lift of the one-body algebraic Hamiltonian to rational (q, p, u) data.

    K(q, p, u) is the kinetic energy plus W(z, u), so K is rational whenever
    W is; ``heisenmodel`` prints K and grad K as it prints H.  The Casimir
    P(u) = u^2 - ((x^2+y^2)^2 + 16 z^2) does not depend on W."""
    if spec.kind != "one-body":
        raise ValueError("extended lift implemented for the one-body system")
    return ExtendedSystem(_evaluator(spec, 0, lift=True), _evaluator(spec, 1, lift=True))


def integrate_extended(sys: ExtendedSystem, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate xdot = J(x) grad K(x).

    The Casimir residual P(u(t)) is tracked as a diagnostic: its drift is
    measured, not corrected, and a residual above 1e-6 flags the trajectory
    as leaving the leaf.  A start where the field is not finite raises
    CollisionError."""
    a0 = x0.to_array() if hasattr(x0, "to_array") else np.asarray(x0, dtype=float)
    if abs(sys.P(a0)) > 1e-12:
        raise ValueError("initial state is off the physical leaf P(u) = 0")

    traj = _solve(lambda *v: sys.rhs(np.array(v)), a0, cfg, what="extended integration")
    p_res = max(abs(sys.P(row)) for row in traj.y)
    traj.flagged_event = "leaf_departure" if p_res > 1e-6 else None
    traj.stats["max_casimir_residual"] = float(p_res)
    return traj


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def trajectory_to_csv(spec: SystemSpec, traj: Trajectory, path, header_meta=None):
    """CSV with t, state components, then H, p_theta/I_k, J; flushed per row."""
    keys = drift_names(spec) + ["J"]
    if spec.kind == "one-body":
        names = ["x", "y", "z", "p_x", "p_y", "p_z"]
    else:
        names = [
            "x1", "y1", "z1", "x2", "y2", "z2",
            "p_x1", "p_y1", "p_z1", "p_x2", "p_y2", "p_z2",
        ]
    with open(path, "w", newline="") as fh:
        if header_meta:
            fh.write("# " + json.dumps(header_meta, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(["t"] + names + keys)
        for k in range(traj.t.size):
            row = traj.y[k]
            fi = first_integrals(spec, row)
            w.writerow(
                [repr(float(traj.t[k]))]
                + [repr(float(v)) for v in row]
                + [repr(float(fi[key])) for key in keys]
            )
            fh.flush()
