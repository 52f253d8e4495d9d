"""Correctness checks, computed apart from the program.

Each check takes what the program returned and gives back a list of
problems; an empty list means the output is right.  The expected values are
worked out here: from the paper's singularity polynomial, from the closed
form a = kappa/(8 c^2), by substitution in sympy, and from the closed-form
motion of the vertical line and of radial infall.  None is a saved copy of
an earlier run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy as sp

T = sp.Symbol("t")
TAU = sp.Symbol("tau")

# The paper's degree-15 singularity polynomial S(tau) of the symmetric cube
# of the resonant operator (odd powers only), leading coefficient 3456.
PAPER_S = {1: -229734225, 3: 71751150, 5: -2391850656, 7: 854800080,
           9: -119918560, 11: 8200960, 13: -271680, 15: 3456}
ALLOWED_EXPONENTS = {sp.Integer(k) for k in list(range(9)) + [10]}


# ---------------------------------------------------------------------------
# Conversions from the program's exact types to sympy
# ---------------------------------------------------------------------------

def scalar(s) -> sp.Expr:
    return sp.Rational(s.re) + sp.I * sp.Rational(s.im)


def poly(p, var=T) -> sp.Expr:
    return sp.Add(*[scalar(c) * var**k for k, c in enumerate(p.coeffs)])


def ratfunc(f, var=T) -> sp.Expr:
    return poly(f.num, var) / poly(f.den, var)


def matrix(M, var=T) -> sp.Matrix:
    return sp.Matrix(M.rows, M.cols, lambda i, j: ratfunc(M[i, j], var))


def parse_exact(text: str, var=TAU) -> sp.Expr:
    """Read the program's printed form ("(a/b+c/d*i)*tau^k + ...")."""
    return sp.sympify(text.replace("^", "**"), locals={"i": sp.I, var.name: var})


def _is_zero(e) -> bool:
    return sp.cancel(sp.expand(e)) == 0


# ---------------------------------------------------------------------------
# resonant_verdict
# ---------------------------------------------------------------------------

def expected_singular_poly(lam: Fraction) -> sp.Poly:
    """S(lam * tau): the sym^3 of L_lam has its singular points at tau_i/lam."""
    lam = sp.Rational(lam)
    return sp.Poly(sum(c * (lam * TAU) ** k for k, c in PAPER_S.items()), TAU)


def check_verdict(lam: Fraction, tag: str, evidence: dict) -> list:
    """Three-case verdict of L_lam against the paper's data."""
    out = []
    if tag != "NotSolvableIdentityComponent":
        out.append(f"verdict is {tag}")
    for case in ("case1", "case2", "case3"):
        if evidence.get(case, {}).get("excluded") is not True:
            out.append(f"{case} not excluded")
    if evidence.get("case1", {}).get("exponential_solutions") != []:
        out.append("exp_solutions is not empty")
    c2 = evidence.get("case2", {})
    if c2.get("sym3_order") != 10:
        out.append(f"sym3 order {c2.get('sym3_order')} != 10")
    if c2.get("num_singular_points") != 15:
        out.append(f"{c2.get('num_singular_points')} finite singular points != 15")
    if "singularity_polynomial" in c2:
        got = sp.Poly(parse_exact(c2["singularity_polynomial"]), TAU)
        want = expected_singular_poly(lam)
        if got.degree() != 15 or not (got * want.LC() - want * got.LC()).is_zero:
            out.append("singularity polynomial is not a multiple of S(lam tau)")
    else:
        out.append("no singularity polynomial")
    exps = c2.get("finite_exponents")
    if exps is None or not {parse_exact(e) for e in exps} <= ALLOWED_EXPONENTS:
        out.append(f"finite exponents {exps} not in {{0..8, 10}}")
    alpha = [parse_exact(a) for a in c2.get("alpha_infinity", [])]
    if alpha != [2]:
        out.append(f"alpha_infinity {c2.get('alpha_infinity')} != [2]")
    return out


# ---------------------------------------------------------------------------
# factorize_family
# ---------------------------------------------------------------------------

def plucker_quadric(v) -> sp.Expr:
    z01, z02, z03, z12, z13, z23 = v
    return sp.expand(z03 * z12 - z02 * z13 + z23 * z01)


def check_factorization(kappa: Fraction, c: Fraction, A, E, solutions,
                        decomposable, Q, complete: bool, blocks) -> list:
    """Exterior-square factorization of the vertical-solution block.

    A, E, Q and blocks are the program's exact matrices; solutions is its
    list of (exponent, direction) pairs and decomposable the directions it
    passed to the factorization basis."""
    out = []
    a = sp.Rational(kappa) / (8 * sp.Rational(c) ** 2)
    want = {sp.Integer(0), sp.I * a * T**2, -sp.I * a * T**2}
    exps = {sp.expand(poly(s)) for s, _ in solutions}
    if exps != want:
        out.append(f"exponents {sorted(map(str, exps))} != {sorted(map(str, want))}")

    Es = matrix(E)
    for s, v in solutions:
        ss = poly(s)
        vs = sp.Matrix([poly(p) for p in v])
        # Y = e^s v solves Y' = E Y  iff  v' + s' v - E v = 0
        res = vs.diff(T) + ss.diff(T) * vs - Es * vs
        if not all(_is_zero(r) for r in res):
            out.append(f"e^({ss}) v does not solve Y' = E Y")

    if len(decomposable) != 2:
        out.append(f"{len(decomposable)} decomposable directions, expected 2")
    for v in decomposable:
        if plucker_quadric([poly(p) for p in v]) != 0:
            out.append("a decomposable direction fails the Pluecker quadric")

    if not complete:
        out.append("factorization basis is incomplete")
    Qs = matrix(Q)
    det = sp.cancel(Qs.det())
    if det == 0 or det.has(T):
        out.append(f"det Q = {det} is not a nonzero constant")
        return out
    As = matrix(A)
    B = (Qs.inv() * (As * Qs - Qs.diff(T))).applyfunc(sp.cancel)
    for i in range(4):
        for j in range(4):
            if (i < 2) != (j < 2) and B[i, j] != 0:
                out.append(f"recomputed Q^-1 A Q - Q^-1 Q' has ({i},{j}) != 0")
    got = matrix(blocks)
    if not all(_is_zero(got[i, j] - B[i, j]) for i in range(4) for j in range(4)):
        out.append("gauge_transform result differs from Q^-1 A Q - Q^-1 Q'")
    return out


# ---------------------------------------------------------------------------
# orbit_sweep
# ---------------------------------------------------------------------------

LINE_TOL = 1e-9          # the simulate_invariant_line preset's "line" threshold
COLLISION_TOL = 1e-9     # |t_stop - t*|; about 1e-12 is observed
BRACKET_TOL = 1e-6       # the verify presets' threshold
DRIFT_TOL = {"H": 1e-9, "p_theta": 1e-8, "I1": 1e-8, "I2": 1e-8, "I3": 1e-8,
             "I4": 1e-8, "djdt": 1e-7}


def infall_time(x0: float, p0: float, kappa: float, rho_min: float) -> float:
    """First t > 0 with x(t)^2 = rho_min on the radial line y = z = 0.

    There rho = x^2 and (x^2)'' = 4E with E = p0^2/2 - kappa/x0^2, so
    x(t)^2 = x0^2 + 2 x0 p0 t + 2 E t^2.  Needs E < 0 or an inbound p0."""
    E = p0 * p0 / 2 - kappa / (x0 * x0)
    a, b, c = 2 * E, 2 * x0 * p0, x0 * x0 - rho_min
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("the orbit never reaches rho_min")
    # roots without cancellation
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2
    roots = [r for r in (q / a, c / q) if r > 0]
    if not roots:
        raise ValueError("the orbit never reaches rho_min")
    return min(roots)


def check_line(c: Fraction, kappa: float, ts, states, flagged) -> list:
    """Vertical particular solution: x = y = p_x = p_y = 0, z = c,
    p_z = -2 a t with a = kappa/(8 c^2)."""
    if flagged is not None:
        return [f"vertical line ended with {flagged}"]
    a = kappa / (8 * float(c) ** 2)
    err = 0.0
    for t, s in zip(ts, states):
        want = (0.0, 0.0, float(c), 0.0, 0.0, -2 * a * t)
        err = max(err, max(abs(u - w) for u, w in zip(s, want)))
    return [] if err <= LINE_TOL else [f"vertical line off by {err:.3e}"]


def check_infall(x0: float, p0: float, kappa: float, rho_min: float,
                 t_stop: float, states, flagged) -> list:
    """Radial infall stops at the collision guard at the closed-form t*."""
    if flagged != "collision_guard":
        return [f"radial infall ended with {flagged}, not the collision guard"]
    out = []
    err = abs(t_stop - infall_time(x0, p0, kappa, rho_min))
    if err > COLLISION_TOL:
        out.append(f"collision at {t_stop!r}, off by {err:.3e}")
    off = max(max(abs(s[1]), abs(s[2]), abs(s[4]), abs(s[5])) for s in states)
    if off > LINE_TOL:
        out.append(f"radial orbit leaves the x-axis by {off:.3e}")
    return out


def check_drifts(flagged, values: dict, thresholds: dict) -> list:
    """Monitored drifts and the dJ/dt - 2H residual under the thresholds:
    DRIFT_TOL, overridden and extended by the orbit's preset."""
    if flagged is not None:
        return [f"orbit ended with {flagged}"]
    limits = dict(DRIFT_TOL, **thresholds)
    return [f"{key} drift {val:.3e} >= {limits[key]:.0e}"
            for key, val in values.items()
            if key in limits and not val < limits[key]]


def check_brackets(rows) -> list:
    """rows: (identity, residual) pairs."""
    return [f"{name} residual {res:.3e}" for name, res in rows
            if not abs(res) < BRACKET_TOL]
