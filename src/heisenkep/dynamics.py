"""Numerical integration of the one-body, two-body, and extended
(algebraic-variable) systems, with conserved-quantity monitoring.

The integrator is an adaptive embedded Runge-Kutta pair (scipy's RK45 by
default, DOP853 selectable).  Every trajectory keeps its dense output: the
monitor samples it and differentiates J along it.  A symplectic scheme is not
used: the extended system is Poisson with a nonconstant structure matrix,
so one explicit adaptive scheme serves all three systems uniformly.

The vector field, the collision guard and H run on Python floats, which
round as numpy's scalars do at a third of the cost.  The monitor batches
what rounds as the scalar path does: ``Trajectory.at_each`` has the bits of
per-point dense output, and the other integrals are IEEE ``+ - * /`` on
float64 columns.  H stays per point (array ``**2`` and ``**1.5`` round apart
from C ``pow``), and the grid keeps scipy's array call (see README).

scipy and sympy are imported only by the functions that integrate or
generate evaluators, so loading this module does not load them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .heisenmodel import (
    CollisionError,
    SystemSpec,
    _num_grad,
    _on_floats,
    _polynomial_integrals,
    first_integrals,
    hamiltonian,
    state_rho,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "MonitorReport",
    "ExtendedState",
    "PoissonMatrix",
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
    method: str = "RK45"
    rho_min: float = 1e-8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        methods = ("RK45", "RK23", "DOP853", "Radau", "BDF", "LSODA")  # solve_ivp's
        if self.method not in methods:
            raise ValueError(f"unknown integrator method {self.method!r}: use {', '.join(methods)}")


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    stats: dict
    sol: object = None  # dense-output interpolant (scipy OdeSolution)
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
        if self.sol is None:
            raise ValueError("trajectory has no dense output")
        return np.atleast_1d(self.sol(t)).T

    def at_each(self, ts) -> np.ndarray:
        """Row i is at(ts[i]), bit for bit, from one batched pass.

        For RK23 and RK45 forward in time this is scipy's RkDenseOutput step
        for all t at once: the segment OdeSolution picks, the cumprod powers
        of x = (t - t_old)/h, and one stacked matmul whose slices make the
        BLAS call np.dot(Q, p) makes.  Otherwise it calls at(t) per point."""
        from scipy.integrate._ivp.rk import RkDenseOutput

        ts = np.asarray(ts, dtype=float)
        sol, ips = self.sol, []
        if ts.size and sol is not None and sol.ascending:
            seg = np.searchsorted(sol.ts_sorted, ts, side=sol.side) - 1
            ips = [sol.interpolants[i] for i in np.clip(seg, 0, sol.n_segments - 1).tolist()]
        if not ips or any(type(ip) is not RkDenseOutput for ip in ips):
            return np.array([self.at(t) for t in ts]).reshape(ts.size, self.dim)
        h = np.array([ip.h for ip in ips])
        x = (ts - np.array([ip.t_old for ip in ips])) / h
        Q = np.stack([ip.Q for ip in ips])
        p = np.cumprod(np.repeat(x[:, None], Q.shape[2], axis=1), axis=1)
        y = h[:, None] * np.matmul(Q, p[..., None])[..., 0]
        y += np.stack([ip.y_old for ip in ips])
        return y


# ---------------------------------------------------------------------------
# Hamiltonian flow
# ---------------------------------------------------------------------------

def hamilton_rhs(spec: SystemSpec, s) -> np.ndarray:
    """Canonical vector field (dH/dp, -dH/dq) in the flat array ordering."""
    a = np.asarray(s, dtype=float) if not hasattr(s, "to_array") else s.to_array()
    if state_rho(spec, a) == 0.0:
        raise CollisionError("vector field evaluated at the collision set")
    return np.asarray(_on_floats(spec._rhs_fn, a), dtype=float)


def integrate(spec: SystemSpec, s0, cfg: IntegratorConfig) -> Trajectory:
    """Adaptive integration of the canonical equations up to cfg.t_end.

    Terminates early with a flagged event when rho drops below cfg.rho_min;
    step-size underflow raises IntegrationError with the last good state.
    """
    from scipy.integrate import solve_ivp

    a0 = s0.to_array() if hasattr(s0, "to_array") else np.asarray(s0, dtype=float)

    def f(t, y):
        return np.asarray(_on_floats(spec._rhs_fn, y), dtype=float)

    def near_collision(t, y):
        return state_rho(spec, y) - cfg.rho_min

    near_collision.terminal = True
    near_collision.direction = -1

    res = solve_ivp(
        f,
        (0.0, cfg.t_end),
        a0,
        method=cfg.method,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
        events=near_collision,
    )
    if res.status == -1:
        raise IntegrationError(
            f"integration failed: {res.message}",
            last_t=res.t[-1] if res.t.size else 0.0,
            last_state=res.y[:, -1] if res.t.size else a0,
        )
    stats = {
        "nfev": int(res.nfev),
        "steps": int(res.t.size - 1),
        "status": int(res.status),
        "message": str(res.message),
    }
    flagged = "collision_guard" if res.status == 1 else None
    return Trajectory(
        t=res.t, y=res.y.T, stats=stats, sol=res.sol, flagged_event=flagged
    )


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
    states = traj.at(ts)  # scipy's array call, whose bytes are pinned
    vals = {"H": np.array([hamiltonian(spec, row) for row in states]),
            **_polynomial_integrals(spec.kind, states.T)}
    drifts = {k: float(np.max(np.abs(v - v[0]))) for k, v in vals.items()}
    j_drift = drifts.pop("J")

    # dJ/dt - 2H via dense-output differentiation
    h = max(1e-5, (ts[-1] - ts[0]) * 1e-6)
    inner = ts[(ts > ts[0] + h) & (ts < ts[-1] - h)]
    plus, minus, mid = np.split(traj.at_each(np.concatenate([inner + h, inner - h, inner])), 3)
    jp, jm = (_polynomial_integrals(spec.kind, rows.T)["J"] for rows in (plus, minus))
    hh = np.array([hamiltonian(spec, row) for row in mid])
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

    @staticmethod
    def from_array(a, n: int) -> "ExtendedState":
        a = [float(v) for v in a]
        return ExtendedState(tuple(a[:n]), tuple(a[n : 2 * n]), a[2 * n])


class PoissonMatrix:
    """The degenerate (2n+1)-dimensional structure matrix J(x) of the lift.

    Antisymmetric at every point, rank 2n at regular points; the minimal
    polynomial P(u) is the only Casimir."""

    def __init__(self, n, grad_qP_fn, du_P_fn):
        self.n = n
        self._grad_qP = grad_qP_fn
        self._du_P = du_P_fn

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n
        q, u = x[:n], x[2 * n]
        gq = np.asarray(self._grad_qP(*q, u), dtype=float).reshape(n)
        du = float(self._du_P(*q, u))
        if du == 0.0:
            raise ZeroDivisionError("branch point: dP/du = 0")
        col = gq / du
        J = np.zeros((2 * n + 1, 2 * n + 1))
        J[:n, n : 2 * n] = np.eye(n)
        J[n : 2 * n, :n] = -np.eye(n)
        J[n : 2 * n, 2 * n] = col
        J[2 * n, n : 2 * n] = -col
        return J


class ExtendedSystem:
    """Bundle (J, K, P) for the lifted Kepler-type system."""

    def __init__(self, n, J: PoissonMatrix, K_fn, gradK_fn, P_fn, P_expr, K_expr):
        self.n = n
        self.J = J
        self._K = K_fn
        self._gradK = gradK_fn
        self._P = P_fn
        self.P_expr = P_expr
        self.K_expr = K_expr

    def K(self, x) -> float:
        return float(self._K(*np.asarray(x, dtype=float)))

    def grad_K(self, x) -> np.ndarray:
        return np.asarray(self._gradK(*np.asarray(x, dtype=float)), dtype=float)

    def P(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self._P(*x[: self.n], x[2 * self.n]))

    def grad_P(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n
        g = np.zeros(2 * n + 1)
        g[:n] = np.asarray(self.J._grad_qP(*x[:n], x[2 * n]), dtype=float).reshape(n)
        g[2 * n] = float(self.J._du_P(*x[:n], x[2 * n]))
        return g

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

    P(u) = u^2 - ((x^2+y^2)^2 + 16 z^2) and K(q, p, u) is the kinetic energy
    plus W(z, u), so K is rational whenever W is."""
    if spec.kind != "one-body":
        raise ValueError("extended lift implemented for the one-body system")
    import sympy as sp

    x, y, z, px, py, pz, u = sp.symbols("x y z p_x p_y p_z u", real=True)
    z_w, rho_w = sp.symbols("z rho", real=True)

    P = u**2 - ((x**2 + y**2) ** 2 + 16 * z**2)
    K = ((px - y * pz / 2) ** 2 + (py + x * pz / 2) ** 2) / 2 + spec.potential.expr.subs(
        {z_w: z, rho_w: u}, simultaneous=True
    )
    xs = (x, y, z, px, py, pz, u)
    grad_qP = [sp.diff(P, v) for v in (x, y, z)]
    J = PoissonMatrix(
        3,
        sp.lambdify((x, y, z, u), grad_qP, modules="numpy"),
        sp.lambdify((x, y, z, u), sp.diff(P, u), modules="numpy"),
    )
    gradK = [sp.diff(K, v) for v in xs]
    return ExtendedSystem(
        3,
        J,
        sp.lambdify(xs, K, modules="numpy"),
        sp.lambdify(xs, gradK, modules="numpy"),
        sp.lambdify((x, y, z, u), P, modules="numpy"),
        P,
        K,
    )


def integrate_extended(sys: ExtendedSystem, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate xdot = J(x) grad K(x).

    The Casimir residual P(u(t)) is tracked as a diagnostic: its drift is
    measured, not corrected, and a residual above 1e-6 flags the trajectory
    as leaving the leaf."""
    from scipy.integrate import solve_ivp

    a0 = x0.to_array() if hasattr(x0, "to_array") else np.asarray(x0, dtype=float)
    if abs(sys.P(a0)) > 1e-12:
        raise ValueError("initial state is off the physical leaf P(u) = 0")

    res = solve_ivp(
        lambda t, xarr: sys.rhs(xarr),
        (0.0, cfg.t_end),
        a0,
        method=cfg.method,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
    )
    if res.status == -1:
        raise IntegrationError(
            f"extended integration failed: {res.message}",
            last_t=res.t[-1] if res.t.size else 0.0,
            last_state=res.y[:, -1] if res.t.size else a0,
        )
    p_res = max(abs(sys.P(res.y[:, k])) for k in range(res.t.size))
    flagged = "leaf_departure" if p_res > 1e-6 else None
    stats = {
        "nfev": int(res.nfev),
        "steps": int(res.t.size - 1),
        "max_casimir_residual": float(p_res),
        "status": int(res.status),
    }
    return Trajectory(
        t=res.t, y=res.y.T, stats=stats, sol=res.sol, flagged_event=flagged
    )


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
