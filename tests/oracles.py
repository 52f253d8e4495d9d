"""Numeric and exact oracles that only the tests use.

The package's variational layer is exact.  These helpers evaluate its
output numerically, integrate it, and give the closed form of the Kepler
reduced equation in Bessel functions, so tests can check the exact
builders against independent numbers.

The ``poly_*`` functions are polynomial arithmetic over Q(i) on tuples of
ExactScalar coefficients, degree-ascending with no trailing zero, one
scalar operation at a time: the representation ExactPoly had before it
held integer numerators over one denominator, kept as its model.

The ``numpy_scalar_*`` functions are the package's numeric evaluators as
they were before they ran on Python floats: each unpacks the state array
into numpy scalars, and the two-body gauge builds the phase state.

``per_point_monitor`` is ``dynamics.monitor_conserved`` as it was before
it batched its dense-output and integral evaluations: one ``traj.at(t)``
and one ``first_integrals`` per point.

``sym_module`` and ``row_derivation`` derive the two derivative towers of
the package in ExactRatFunc arithmetic, each entry in lowest terms: the
model of the numerator towers over one denominator that
``exactalg.tower_annihilator`` reads.
"""

import itertools
import math

import numpy as np

from heisenkep.exactalg import ExactRatFunc, ExactScalar, _dot
from heisenkep.dynamics import MonitorReport, drift_names
from heisenkep.heisenmodel import (
    CollisionError,
    GroupElement,
    PhaseState2B,
    first_integrals,
    hamiltonian,
    rho,
)

_ZERO = ExactScalar(0)


def evaluate(A, t) -> np.ndarray:
    """The exact matrix A, entries in Q(i)(t), as a complex array at t."""
    return np.array(
        [[complex(A[i, j](complex(t))) for j in range(A.cols)] for i in range(A.rows)]
    )


def transform_vars_q1h1(s) -> np.ndarray:
    """Non-canonical complex change of variables to (q1, h1, q2, h2, q3, h3)."""
    a = np.asarray(s, dtype=float) if not hasattr(s, "to_array") else s.to_array()
    x, y, z, px, py, pz = a
    q1 = x + 1j * y
    q2 = x - 1j * y
    h1 = px + 1j * py + 0.5j * pz * q1
    h2 = px - 1j * py - 0.5j * pz * q2
    return np.array([q1, h1, q2, h2, z, pz], dtype=complex)


def transform_vars_q1h1_inverse(w) -> np.ndarray:
    """Inverse of transform_vars_q1h1, back to (x, y, z, p_x, p_y, p_z)."""
    q1, h1, q2, h2, q3, h3 = np.asarray(w, dtype=complex)
    x = (q1 + q2) / 2
    y = (q1 - q2) / (2j)
    pz = h3
    px = (h1 + h2 - 0.5j * pz * (q1 - q2)) / 2
    py = (h1 - h2 - 0.5j * pz * (q1 + q2)) / (2j)
    return np.array([x, y, q3, px, py, pz], dtype=complex).real


def bessel_closed_form(a, C1, C2, t, derivatives: bool = False):
    """Solution sqrt(t) e^{-i a t^2/2} [C1 J_{1/4}(s) + C2 Y_{1/4}(s)] of the
    second-order reduced equation, with Bessel argument s = a t^2 / 2.

    The argument convention was fixed by the residual oracle: s = a t^2 / 2
    makes the expression annihilate the equation; the doubled argument does
    not.  With derivatives=True returns (y, y', y'').  For a = 0 the
    equation degenerates and the affine solution C1 + C2 t is returned.
    """
    from scipy.special import jv, yv

    if t <= 0:
        raise ValueError("t must be positive (branch point of sqrt)")
    if a == 0:
        return (C1 + C2 * t, C2, 0.0) if derivatives else C1 + C2 * t
    nu = 0.25
    sig = a * t * t / 2
    dsig = a * t

    def Z(order):
        return C1 * jv(order, sig) + C2 * yv(order, sig)

    z0 = Z(nu)
    zp = Z(nu - 1) - (nu / sig) * z0
    zpp = -zp / sig - (1 - nu * nu / (sig * sig)) * z0

    rt = math.sqrt(t)
    w = rt * z0
    wp = 0.5 * z0 / rt + rt * zp * dsig
    wpp = -0.25 * z0 / (rt * t) + zp * dsig / rt + rt * (zpp * dsig * dsig + zp * a)

    E = np.exp(-0.5j * a * t * t)
    y = E * w
    if not derivatives:
        return y
    yp = E * (wp - 1j * a * t * w)
    ypp = E * (wpp - 2j * a * t * wp + (-1j * a - a * a * t * t) * w)
    return y, yp, ypp


def system_residual(sys, vec) -> list:
    """Exact residual y' - A y for a vector of polynomials/rational funcs."""
    v = [ExactRatFunc.coerce(p, sys.var) for p in vec]
    n = sys.dim
    return [
        v[i].derivative()
        - sum((sys.A[i, j] * v[j] for j in range(n)), ExactRatFunc.coerce(0, sys.var))
        for i in range(n)
    ]


def fundamental_solution(sys, t0: float, t1: float, rtol=1e-10, atol=1e-12):
    """Numeric fundamental matrix Phi(t1) with Phi(t0) = identity."""
    from scipy.integrate import solve_ivp

    dim = sys.dim

    def f(t, y):
        A = evaluate(sys.A, t)
        return (A @ y.reshape(dim, dim)).reshape(-1)

    y0 = np.eye(dim, dtype=complex).reshape(-1)
    res = solve_ivp(f, (t0, t1), y0, rtol=rtol, atol=atol, method="DOP853")
    if res.status != 0:
        raise RuntimeError(f"fundamental-solution integration failed: {res.message}")
    return res.y[:, -1].reshape(dim, dim)


def poly_from(cs) -> tuple:
    """The coefficients cs as a tuple, trailing zeros dropped."""
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple:
    return poly_from(x + y for x, y in itertools.zip_longest(a, b, fillvalue=_ZERO))


def poly_sub(a, b) -> tuple:
    return poly_add(a, [-c for c in b])


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_from(out)


def poly_scale(a, s) -> tuple:
    return poly_from(c * s for c in a)


def poly_derivative(a) -> tuple:
    return poly_from(a[k] * k for k in range(1, len(a)))


def poly_divmod(a, b) -> tuple:
    rem = list(a)
    d = len(b) - 1
    q = [_ZERO] * max(0, len(rem) - d)
    inv = b[-1].inverse()
    for k in range(len(rem) - 1, d - 1, -1):
        f = rem[k] * inv
        q[k - d] = f
        for j, c in enumerate(b):
            rem[k - d + j] = rem[k - d + j] - f * c
    return poly_from(q), poly_from(rem[:d])


def poly_monic(a) -> tuple:
    return poly_scale(a, a[-1].inverse()) if a else ()


def poly_gcd(a, b) -> tuple:
    """Monic Euclidean gcd."""
    a, b = poly_monic(a), poly_monic(b)
    while b:
        a, b = b, poly_monic(poly_divmod(a, b)[1])
    return a


def poly_compose_linear(a, u, v) -> tuple:
    """a(u x + v) by Horner evaluation."""
    out = ()
    for c in reversed(a):
        out = poly_add(poly_mul(out, (v, u)), (c,))
    return out


def poly_eval(a, x) -> ExactScalar:
    out = _ZERO
    for c in reversed(a):
        out = out * x + c
    return out


def poly_str(a, var: str = "t") -> str:
    if not a:
        return "0"
    terms = []
    for k, c in enumerate(a):
        if c.is_zero():
            continue
        cs = str(c)
        if k == 0:
            terms.append(cs)
        else:
            head = "" if cs == "1" else f"({cs})*"
            terms.append(head + (var if k == 1 else f"{var}^{k}"))
    return " + ".join(terms)


def sym_module(L, k: int):
    """w = y^k in the monomial module of L, and that module's derivation,
    with vectors of ExactRatFunc entries."""
    n = L.order
    var = L.var
    basis = sorted(itertools.combinations_with_replacement(range(n), k))
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    zero = ExactRatFunc.coerce(0, var)
    red = [-L.coeff(j) for j in range(n)]  # y^(n) = sum red[j] y^(j)

    def d_vec(vec):
        out = [zero] * dim
        for b, c in zip(basis, vec):
            if c.is_zero():
                continue
            dc = c.derivative()
            if not dc.is_zero():
                out[index[b]] = out[index[b]] + dc
            for pos, o in enumerate(b):
                # y^(o) -> y^(o+1), reduced by L when o + 1 = n
                terms = ([(o + 1, c)] if o + 1 < n else
                         [(j, c * r) for j, r in enumerate(red) if not r.is_zero()])
                for j, e in terms:
                    nb = tuple(sorted(b[:pos] + (j,) + b[pos + 1 :]))
                    out[index[nb]] = out[index[nb]] + e
        return out

    w = [zero] * dim
    w[index[tuple([0] * k)]] = ExactRatFunc.coerce(1, var)
    return w, d_vec


def row_derivation(B, var: str):
    """The derivation of rows for y' = B y: (row . y)' = (row B + row') . y."""
    n = B.rows
    one = ExactRatFunc.coerce(1, var)
    cols = [list(col) + [one] for col in zip(*B.entries)]

    def derive(row):
        return [_dot(row + [row[j].derivative()], cols[j], var) for j in range(n)]

    return derive


def numpy_scalar_state_rho(spec, a) -> float:
    if spec.kind == "one-body":
        return rho(GroupElement(a[0], a[1], a[2]))
    return rho(PhaseState2B.from_array(a).relative)


def numpy_scalar_h(spec, a):
    return spec._h_fn(*a)


def numpy_scalar_rhs(spec, a) -> np.ndarray:
    return np.asarray(spec._rhs_fn(*a), dtype=float)


def numpy_scalar_first_integrals(spec, a) -> dict:
    """first_integrals on numpy scalars, with hamiltonian's collision check."""
    if numpy_scalar_state_rho(spec, a) == 0.0:
        raise CollisionError("state at the potential singularity rho = 0")
    H = float(numpy_scalar_h(spec, a))
    if spec.kind == "one-body":
        x, y, z, px, py, pz = a
        return {"H": H, "p_theta": x * py - y * px, "J": x * px + y * py + 2 * z * pz}
    x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = a
    return {
        "H": H,
        "I1": px1 + y1 * pz1 / 2 + px2 + y2 * pz2 / 2,
        "I2": py1 - x1 * pz1 / 2 + py2 - x2 * pz2 / 2,
        "I3": pz1 + pz2,
        "I4": y1 * px1 - x1 * py1 + y2 * px2 - x2 * py2,
        "J": x1 * px1 + y1 * py1 + 2 * z1 * pz1
        + x2 * px2 + y2 * py2 + 2 * z2 * pz2,
    }


def per_point_monitor(spec, traj) -> MonitorReport:
    """monitor_conserved with one dense-output call and one first_integrals
    per point."""
    ts = np.linspace(traj.t[0], traj.t[-1], 400)
    states = traj.at(ts)
    vals = {k: [] for k in drift_names(spec) + ["J"]}
    for row in states:
        fi = first_integrals(spec, row)
        for k in vals:
            vals[k].append(fi[k])
    drifts = {k: float(np.max(np.abs(np.array(v) - v[0]))) for k, v in vals.items() if k != "J"}
    j_arr = np.array(vals["J"])
    j_drift = float(np.max(np.abs(j_arr - j_arr[0])))
    djdt_res = 0.0
    h = max(1e-5, (ts[-1] - ts[0]) * 1e-6)
    inner = ts[(ts > ts[0] + h) & (ts < ts[-1] - h)]
    for t in inner:
        jp = first_integrals(spec, traj.at(t + h))["J"]
        jm = first_integrals(spec, traj.at(t - h))["J"]
        hh = hamiltonian(spec, traj.at(t))
        djdt_res = max(djdt_res, abs((jp - jm) / (2 * h) - 2 * hh))
    h0 = vals["H"][0]
    j_const = bool(j_drift < 1e-8) if abs(h0) < 1e-9 else None
    return MonitorReport(drifts, float(djdt_res), float(h0), j_const, j_drift)
