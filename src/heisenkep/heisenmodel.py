"""Heisenberg-group mechanics: group law, sub-Riemannian Hamiltonians for
one and two bodies, first integrals, and the coefficient a of the
non-integrability condition.

Potentials are rational expressions W(z, rho) stored symbolically (sympy),
so partial derivatives are generated rather than user-supplied.  With exact
rational inputs the condition coefficient a is returned exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import sympy as sp

from .exactalg import ExactScalar

__all__ = [
    "CollisionError",
    "GroupElement",
    "PhaseState1B",
    "PhaseState2B",
    "PotentialSpec",
    "SystemSpec",
    "group_mul",
    "group_inv",
    "rho",
    "hamiltonian",
    "first_integrals",
    "poisson_bracket",
    "condition_coefficient_a",
    "two_body_condition_a",
    "particular_solution",
]

_Z, _RHO = sp.symbols("z rho", real=True)


class CollisionError(ArithmeticError):
    """Evaluation at the potential singularity rho = 0."""


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Point of the Heisenberg group in exponential coordinates."""

    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.x, self.y, self.z)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product with the twisted z-composition."""
    return GroupElement(
        g.x + h.x,
        g.y + h.y,
        g.z + h.z + (g.x * h.y - h.x * g.y) / 2,
    )


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(-g.x, -g.y, -g.z)


def rho(g: GroupElement) -> float:
    """Homogeneous gauge sqrt((x^2+y^2)^2 + 16 z^2); zero only at the origin."""
    r2 = g.x * g.x + g.y * g.y
    return math.sqrt(r2 * r2 + 16.0 * g.z * g.z)


# ---------------------------------------------------------------------------
# Phase states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseState1B:
    """One-body canonical state, array order (x, y, z, p_x, p_y, p_z)."""

    x: float
    y: float
    z: float
    px: float
    py: float
    pz: float

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.px, self.py, self.pz], dtype=float)

    @staticmethod
    def from_array(a) -> "PhaseState1B":
        return PhaseState1B(*map(float, a))

    @property
    def position(self) -> GroupElement:
        return GroupElement(self.x, self.y, self.z)


@dataclass(frozen=True)
class PhaseState2B:
    """Two-body canonical state, array order
    (x1, y1, z1, x2, y2, z2, p_x1, p_y1, p_z1, p_x2, p_y2, p_z2)."""

    g1: GroupElement
    g2: GroupElement
    px1: float
    py1: float
    pz1: float
    px2: float
    py2: float
    pz2: float

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.g1.x, self.g1.y, self.g1.z,
                self.g2.x, self.g2.y, self.g2.z,
                self.px1, self.py1, self.pz1,
                self.px2, self.py2, self.pz2,
            ],
            dtype=float,
        )

    @staticmethod
    def from_array(a) -> "PhaseState2B":
        a = [float(v) for v in a]
        return PhaseState2B(
            GroupElement(a[0], a[1], a[2]),
            GroupElement(a[3], a[4], a[5]),
            *a[6:],
        )

    @property
    def relative(self) -> GroupElement:
        return group_mul(group_inv(self.g1), self.g2)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def _to_sympy_number(v):
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    if isinstance(v, str):
        # accept the exactalg wire format a/b+c/d*i
        s = ExactScalar.parse(v)
        return sp.Rational(s.re.numerator, s.re.denominator) + sp.I * sp.Rational(
            s.im.numerator, s.im.denominator
        )
    return sp.nsimplify(v, rational=True)


def _scalar_from_sympy(e) -> ExactScalar:
    """An exact sympy Rational or Gaussian rational as an ExactScalar.

    The value is read as it is: no ``nsimplify``, which can turn an exact
    Rational such as -1/13718 into a product of fractional powers."""
    re, im = sp.expand(e).as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError(f"coefficient {e} is not a Gaussian rational")
    return ExactScalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


class PotentialSpec:
    """Rational potential W(z, rho) with generated derivative evaluators."""

    def __init__(self, expr: sp.Expr, label: str = "custom"):
        expr = sp.together(sp.sympify(expr))
        den = sp.denom(expr)
        if den.equals(0):
            raise ValueError("potential denominator is identically zero")
        self.expr = expr
        self.den_expr = den
        self.label = label

    @staticmethod
    def kepler(kappa) -> "PotentialSpec":
        return PotentialSpec(-_to_sympy_number(kappa) / _RHO, label="kepler")

    @staticmethod
    def from_table(num_table, den_table=None) -> "PotentialSpec":
        """Tables of monomials [i, j, coeff] meaning coeff * z^i * rho^j."""

        def build(table):
            return sum(
                (_to_sympy_number(c) * _Z**int(i) * _RHO**int(j) for i, j, c in table),
                sp.Integer(0),
            )

        num = build(num_table)
        den = build(den_table) if den_table else sp.Integer(1)
        return PotentialSpec(num / den)

    @cached_property
    def dz_expr(self) -> sp.Expr:
        return sp.diff(self.expr, _Z)

    @cached_property
    def drho_expr(self) -> sp.Expr:
        return sp.diff(self.expr, _RHO)

    @cached_property
    def _fn(self):
        return sp.lambdify((_Z, _RHO), self.expr, modules="numpy")

    @cached_property
    def _fn_dz(self):
        return sp.lambdify((_Z, _RHO), self.dz_expr, modules="numpy")

    @cached_property
    def _fn_drho(self):
        return sp.lambdify((_Z, _RHO), self.drho_expr, modules="numpy")

    def w(self, z, r) -> float:
        return float(self._fn(z, r))

    def dw_dz(self, z, r) -> float:
        return float(self._fn_dz(z, r))

    def dw_drho(self, z, r) -> float:
        return float(self._fn_drho(z, r))

    def to_json(self) -> dict:
        num, den = sp.fraction(sp.together(self.expr))
        def table(p):
            poly = sp.Poly(sp.expand(p), _Z, _RHO)
            return [
                [int(mon[0]), int(mon[1]), str(_scalar_from_sympy(c))]
                for mon, c in poly.terms()
            ]
        return {"num": table(num), "den": table(den)}


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

_X, _Y, _ZC, _PX, _PY, _PZ = sp.symbols("x y zc p_x p_y p_z", real=True)


class SystemSpec:
    """One- or two-body system: coupling, masses, and the potential."""

    def __init__(self, kind: str, kappa, m1=1, m2=1, potential: PotentialSpec | None = None):
        if kind not in ("one-body", "two-body"):
            raise ValueError(f"unknown system kind {kind!r}")
        kq, m1q, m2q = (_to_sympy_number(v) for v in (kappa, m1, m2))
        if not all(v.is_real for v in (kq, m1q, m2q)):
            raise ValueError("kappa and the masses must be real")
        if kq == 0:
            raise ValueError("kappa must be nonzero")
        if m1q <= 0 or m2q <= 0:
            raise ValueError("masses must be positive")
        self.kind = kind
        self.kappa_exact = kq
        self.m1_exact = m1q
        self.m2_exact = m2q
        self.kappa = float(kq)
        self.m1 = float(m1q)
        self.m2 = float(m2q)
        if potential is None:
            if kind == "one-body":
                potential = PotentialSpec.kepler(kq)
            else:
                potential = PotentialSpec.kepler(kq * m1q * m2q)
        self.potential = potential

    @property
    def mu(self) -> float:
        return self.m1 / self.m2

    @property
    def dim(self) -> int:
        return 6 if self.kind == "one-body" else 12

    # -- symbolic machinery -------------------------------------------------

    @cached_property
    def _symbols(self):
        if self.kind == "one-body":
            return sp.symbols("x y z p_x p_y p_z", real=True)
        return sp.symbols(
            "x1 y1 z1 x2 y2 z2 p_x1 p_y1 p_z1 p_x2 p_y2 p_z2", real=True
        )

    @cached_property
    def h_expr(self) -> sp.Expr:
        s = self._symbols
        W = self.potential.expr
        if self.kind == "one-body":
            x, y, z, px, py, pz = s
            kin = ((px - y * pz / 2) ** 2 + (py + x * pz / 2) ** 2) / 2
            rho_e = sp.sqrt((x**2 + y**2) ** 2 + 16 * z**2)
            return kin + W.subs({_Z: z, _RHO: rho_e}, simultaneous=True)
        x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = s
        kin1 = ((px1 - y1 * pz1 / 2) ** 2 + (py1 + x1 * pz1 / 2) ** 2) / (2 * self.m1_exact)
        kin2 = ((px2 - y2 * pz2 / 2) ** 2 + (py2 + x2 * pz2 / 2) ** 2) / (2 * self.m2_exact)
        xd = x2 - x1
        yd = y2 - y1
        zd = z2 - z1 + (x2 * y1 - x1 * y2) / 2
        rho_e = sp.sqrt((xd**2 + yd**2) ** 2 + 16 * zd**2)
        return kin1 + kin2 + W.subs({_Z: zd, _RHO: rho_e}, simultaneous=True)

    @cached_property
    def _h_fn(self):
        return sp.lambdify(self._symbols, self.h_expr, modules="numpy")

    @cached_property
    def _rhs_fn(self):
        s = self._symbols
        n = len(s) // 2
        dq = [sp.diff(self.h_expr, p) for p in s[n:]]
        dp = [-sp.diff(self.h_expr, q) for q in s[:n]]
        return sp.lambdify(s, dq + dp, modules="numpy")

    @cached_property
    def _jac_fn(self):
        s = self._symbols
        n = len(s) // 2
        field = [sp.diff(self.h_expr, p) for p in s[n:]] + [
            -sp.diff(self.h_expr, q) for q in s[:n]
        ]
        jac = [[sp.diff(f, v) for v in s] for f in field]
        return sp.lambdify(s, jac, modules="numpy")

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def from_json(doc) -> "SystemSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        pot = doc.get("potential", "kepler")
        kind = doc["kind"]
        kappa = doc["kappa"]
        m1 = doc.get("m1", 1)
        m2 = doc.get("m2", 1)
        if pot == "kepler":
            potential = None
        else:
            potential = PotentialSpec.from_table(pot["num"], pot.get("den"))
        return SystemSpec(kind, kappa, m1, m2, potential)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "kappa": str(_scalar_from_sympy(self.kappa_exact)),
            "m1": str(_scalar_from_sympy(self.m1_exact)),
            "m2": str(_scalar_from_sympy(self.m2_exact)),
            "potential": "kepler"
            if self.potential.label == "kepler"
            else self.potential.to_json(),
        }


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _state_array(s) -> np.ndarray:
    if isinstance(s, (PhaseState1B, PhaseState2B)):
        return s.to_array()
    return np.asarray(s, dtype=float)


def _check_rho(spec: SystemSpec, a: np.ndarray):
    if spec.kind == "one-body":
        r = rho(GroupElement(a[0], a[1], a[2]))
    else:
        st = PhaseState2B.from_array(a)
        r = rho(st.relative)
    if r == 0.0:
        raise CollisionError("state at the potential singularity rho = 0")
    return r


def hamiltonian(spec: SystemSpec, s) -> float:
    """Total energy; raises CollisionError on the singular set."""
    a = _state_array(s)
    _check_rho(spec, a)
    return float(spec._h_fn(*a))


def first_integrals(spec: SystemSpec, s) -> dict:
    """Values of the known conserved/quasi-conserved quantities at s."""
    a = _state_array(s)
    if spec.kind == "one-body":
        x, y, z, px, py, pz = a
        return {
            "H": hamiltonian(spec, a),
            "p_theta": x * py - y * px,
            "J": x * px + y * py + 2 * z * pz,
        }
    x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = a
    return {
        "H": hamiltonian(spec, a),
        "I1": px1 + y1 * pz1 / 2 + px2 + y2 * pz2 / 2,
        "I2": py1 - x1 * pz1 / 2 + py2 - x2 * pz2 / 2,
        "I3": pz1 + pz2,
        "I4": y1 * px1 - x1 * py1 + y2 * px2 - x2 * py2,
        "J": x1 * px1 + y1 * py1 + 2 * z1 * pz1
        + x2 * px2 + y2 * py2 + 2 * z2 * pz2,
    }


def _num_grad(f, a: np.ndarray) -> np.ndarray:
    """Central-difference gradient with the cube-root-of-eps step rule."""
    base = float(np.cbrt(np.finfo(float).eps))
    g = np.empty_like(a)
    for i in range(a.size):
        h = base * max(1.0, abs(a[i]))
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        g[i] = (f(ap) - f(am)) / (2 * h)
    return g


def poisson_bracket(f, g, s) -> float:
    """Canonical bracket {f, g} at s with numeric central-difference gradients.

    f and g are callables on the flat state array (positions first, then
    momenta, as in the PhaseState array orders).
    """
    a = _state_array(s)
    n = a.size // 2
    gf = _num_grad(f, a)
    gg = _num_grad(g, a)
    return float(np.dot(gf[:n], gg[n:]) - np.dot(gf[n:], gg[:n]))


# ---------------------------------------------------------------------------
# Condition coefficient and particular solutions
# ---------------------------------------------------------------------------

def condition_coefficient_a(spec: SystemSpec, c):
    """Coefficient a = [W_z(c, 4|c|) + 4 sgn(c) W_rho(c, 4|c|)] / 2.

    A nonzero value certifies the hypothesis of the non-integrability
    criterion along the vertical-axis solution through z = c.  Exact for
    exact rational c; float input gives a float.  Raises ValueError where
    the potential is singular at (c, 4|c|).
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    exact = isinstance(c, (int, Fraction)) or (
        isinstance(c, sp.Expr) and c.is_Rational
    )
    cq = _to_sympy_number(c) if exact else sp.Float(c)
    sgn = 1 if cq > 0 else -1
    pt = {_Z: cq, _RHO: 4 * sgn * cq}
    pot = spec.potential
    if pot.den_expr.subs(pt) == 0:
        raise ValueError(f"the potential is singular at (z, rho) = ({cq}, {4 * sgn * cq})")
    val = (pot.dz_expr.subs(pt) + 4 * sgn * pot.drho_expr.subs(pt)) / 2
    val = sp.simplify(val) if exact else val
    if exact:
        if not val.is_rational:
            return val
        r = sp.Rational(val)
        return Fraction(r.p, r.q)
    return float(val)


def two_body_condition_a(spec: SystemSpec, w2):
    """Coefficient a for the two-body vertical solution, evaluated at c = w2.

    For the Kepler potential this is kappa*m1*m2 / (8 w2 |w2|)."""
    return condition_coefficient_a(spec, w2)


def particular_solution(spec: SystemSpec, params: dict, t: float):
    """The vertical-axis special solution at time t, original coordinates.

    One-body params: {"c": nonzero}.  Two-body params: {"w2": nonzero,
    "w1": optional, "pw1": optional}.
    """
    if spec.kind == "one-body":
        c = params["c"]
        if c == 0:
            raise ValueError("the solution must not be constant: c must be nonzero")
        a = float(condition_coefficient_a(spec, c))
        return PhaseState1B(0.0, 0.0, float(c), 0.0, 0.0, -2.0 * a * t)
    w2 = params["w2"]
    if w2 == 0:
        raise ValueError("the solution must not be constant: w2 must be nonzero")
    w1 = params.get("w1", 0.0)
    pw1 = params.get("pw1", 0.0)
    a = float(two_body_condition_a(spec, w2))
    pw2 = -2.0 * a * t
    return PhaseState2B(
        GroupElement(0.0, 0.0, (float(w1) + float(w2)) / 2),
        GroupElement(0.0, 0.0, (float(w1) - float(w2)) / 2),
        0.0, 0.0, float(pw1) + pw2,
        0.0, 0.0, float(pw1) - pw2,
    )
