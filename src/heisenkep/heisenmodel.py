"""Heisenberg-group mechanics: group law, sub-Riemannian Hamiltonians for
one and two bodies, first integrals, and the coefficient a of the
non-integrability condition.

A potential W(z, rho) is a ratio of two tables of Q(i) coefficients of
z^i rho^j, which is also its JSON form.  The exact quantities along the
vertical axis (a, W'(c), W''(c)) come from these tables through one
univariate rational function.  sympy is imported only by the functions
that build W's expression and generate the numeric evaluators of H and
its vector field, so loading this module does not load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exactalg import ExactPoly, ExactRatFunc, ExactScalar

if TYPE_CHECKING:
    import sympy as sp

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
    "state_rho",
    "axis_potential",
    "hamiltonian",
    "first_integrals",
    "poisson_bracket",
    "condition_coefficient_a",
    "two_body_condition_a",
    "particular_solution",
]


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
    return _gauge(g.x, g.y, g.z)


def _gauge(x, y, z) -> float:
    r2 = x * x + y * y
    return math.sqrt(r2 * r2 + 16.0 * z * z)


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

def _exact(v) -> ExactScalar:
    """An int, Fraction, wire string, float or complex as an ExactScalar.
    A float part is read as Fraction(str(x)), the rule of the CLI."""
    if isinstance(v, str):
        return ExactScalar.parse(v)
    if isinstance(v, (float, complex)):
        return ExactScalar(Fraction(str(v.real)), Fraction(str(v.imag)))
    return v if isinstance(v, ExactScalar) else ExactScalar(Fraction(v))


def _table(rows) -> dict:
    """Rows [i, j, coeff] as {(i, j): ExactScalar}, sorted by (i, j), with
    equal monomials merged and zero coefficients dropped."""
    out = {}
    for i, j, c in rows:
        key = (int(i), int(j))
        out[key] = out.get(key, ExactScalar(0)) + _exact(c)
    return {k: out[k] for k in sorted(out) if out[k]}


class PotentialSpec:
    """Rational potential W(z, rho) = num/den, each a table
    {(i, j): coeff} of Q(i) coefficients of z^i rho^j."""

    def __init__(self, num_table, den_table=None, label: str = "custom"):
        self.num = _table(num_table)
        self.den = _table(den_table or [(0, 0, 1)])
        if not self.den:
            raise ValueError("potential denominator is identically zero")
        self.label = label

    @staticmethod
    def kepler(kappa) -> "PotentialSpec":
        return PotentialSpec([(0, 0, -_exact(kappa))], [(0, 1, 1)], label="kepler")

    @staticmethod
    def from_table(num_table, den_table=None) -> "PotentialSpec":
        """Tables of monomials [i, j, coeff] meaning coeff * z^i * rho^j;
        no den_table means den = 1."""
        return PotentialSpec(num_table, den_table)

    @cached_property
    def expr(self) -> sp.Expr:
        """W as a sympy expression in z and rho, built only for the numeric
        evaluators."""
        import sympy as sp

        z, rho = sp.symbols("z rho", real=True)

        def build(table):
            return sum(
                ((sp.Rational(c.a, c.d) + sp.I * sp.Rational(c.b, c.d)) * z**i * rho**j
                 for (i, j), c in table.items()),
                sp.Integer(0),
            )

        return sp.together(build(self.num) / build(self.den))

    def to_json(self) -> dict:
        return {key: [[i, j, str(c)] for (i, j), c in table.items()]
                for key, table in (("num", self.num), ("den", self.den))}


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

class SystemSpec:
    """One- or two-body system: coupling, masses, and the potential."""

    def __init__(self, kind: str, kappa, m1=1, m2=1, potential: PotentialSpec | None = None):
        if kind not in ("one-body", "two-body"):
            raise ValueError(f"unknown system kind {kind!r}")
        exact = [_exact(v) for v in (kappa, m1, m2)]
        if not all(v.is_real() for v in exact):
            raise ValueError("kappa and the masses must be real")
        kq, m1q, m2q = (v.re for v in exact)
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
        import sympy as sp

        if self.kind == "one-body":
            return sp.symbols("x y z p_x p_y p_z", real=True)
        return sp.symbols(
            "x1 y1 z1 x2 y2 z2 p_x1 p_y1 p_z1 p_x2 p_y2 p_z2", real=True
        )

    @cached_property
    def h_expr(self) -> sp.Expr:
        import sympy as sp

        s = self._symbols
        z_w, rho_w = sp.symbols("z rho", real=True)
        W = self.potential.expr
        if self.kind == "one-body":
            x, y, z, px, py, pz = s
            kin = ((px - y * pz / 2) ** 2 + (py + x * pz / 2) ** 2) / 2
            rho_e = sp.sqrt((x**2 + y**2) ** 2 + 16 * z**2)
            return kin + W.subs({z_w: z, rho_w: rho_e}, simultaneous=True)
        x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = s
        kin1 = ((px1 - y1 * pz1 / 2) ** 2 + (py1 + x1 * pz1 / 2) ** 2) / (2 * self.m1_exact)
        kin2 = ((px2 - y2 * pz2 / 2) ** 2 + (py2 + x2 * pz2 / 2) ** 2) / (2 * self.m2_exact)
        xd = x2 - x1
        yd = y2 - y1
        zd = z2 - z1 + (x2 * y1 - x1 * y2) / 2
        rho_e = sp.sqrt((xd**2 + yd**2) ** 2 + 16 * zd**2)
        return kin1 + kin2 + W.subs({z_w: zd, rho_w: rho_e}, simultaneous=True)

    @cached_property
    def _h_fn(self):
        import sympy as sp

        return sp.lambdify(self._symbols, self.h_expr, modules="numpy")

    @cached_property
    def _rhs_fn(self):
        import sympy as sp

        s = self._symbols
        n = len(s) // 2
        dq = [sp.diff(self.h_expr, p) for p in s[n:]]
        dp = [-sp.diff(self.h_expr, q) for q in s[:n]]
        return sp.lambdify(s, dq + dp, modules="numpy")

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
            "kappa": str(self.kappa_exact),
            "m1": str(self.m1_exact),
            "m2": str(self.m2_exact),
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


def state_rho(spec: SystemSpec, a) -> float:
    """rho of the body's position (one-body) or of the relative position
    g1^-1 g2 (two-body) in the flat state array a."""
    return _rho(spec.kind, np.asarray(a, dtype=float)[:6].tolist())


def _rho(kind: str, v: list) -> float:
    """state_rho of the state whose coordinates are the floats v."""
    if kind == "one-body":
        return _gauge(*v[:3])
    x1, y1, z1, x2, y2, z2 = v[:6]
    # g1^-1 g2 in group_mul's order of operations
    return _gauge(-x1 + x2, -y1 + y2, -z1 + z2 + (-x1 * y2 - x2 * -y1) / 2)


def hamiltonian(spec: SystemSpec, s) -> float:
    """Total energy; raises CollisionError on the singular set."""
    return _hamiltonian_rows(spec, _state_array(s)[None])[0]


def _hamiltonian_rows(spec: SystemSpec, rows: np.ndarray) -> list:
    """hamiltonian at each row of a 2-d state array, on one tolist() of the
    rows; a row falls back to numpy's scalars as _on_floats does."""
    hs = []
    for k, v in enumerate(rows.tolist()):
        if _rho(spec.kind, v) == 0.0:
            raise CollisionError("state at the potential singularity rho = 0")
        try:
            hs.append(float(spec._h_fn(*v)))
        except (ZeroDivisionError, OverflowError):
            hs.append(float(spec._h_fn(*rows[k])))
    return hs


def _on_floats(fn, a: np.ndarray):
    """The lambdified fn at the state array a, evaluated on Python floats.

    They round as numpy's scalars do (IEEE + - * /, C pow for **) at a third
    of the cost.  Where Python raises and numpy returns inf or nan (x/0.0,
    0.0**-1.5, overflow in **), this returns numpy's result."""
    try:
        return fn(*a.tolist())
    except (ZeroDivisionError, OverflowError):
        return fn(*a)


def first_integrals(spec: SystemSpec, s) -> dict:
    """Values of the known conserved/quasi-conserved quantities at s."""
    a = _state_array(s)
    return {"H": hamiltonian(spec, a), **_polynomial_integrals(spec.kind, a.tolist())}


def _polynomial_integrals(kind: str, v) -> dict:
    """The integrals other than H at the flat state v, given as floats or as
    float64 columns (one array per coordinate): the same IEEE + - * / either
    way, so a column holds the bits each float would."""
    if kind == "one-body":
        x, y, z, px, py, pz = v
        return {"p_theta": x * py - y * px, "J": x * px + y * py + 2 * z * pz}
    x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = v
    return {
        "I1": px1 + y1 * pz1 / 2 + px2 + y2 * pz2 / 2,
        "I2": py1 - x1 * pz1 / 2 + py2 - x2 * pz2 / 2,
        "I3": pz1 + pz2,
        "I4": y1 * px1 - x1 * py1 + y2 * px2 - x2 * py2,
        "J": x1 * px1 + y1 * py1 + 2 * z1 * pz1
        + x2 * px2 + y2 * py2 + 2 * z2 * pz2,
    }


def _num_grad(f, a: np.ndarray) -> np.ndarray:
    """Central-difference gradient with the cube-root-of-eps step rule.  An f
    with array values gets one gradient per value, each a contiguous row."""
    base = float(np.cbrt(np.finfo(float).eps))
    cols = []
    for i in range(a.size):
        h = base * max(1.0, abs(a[i]))
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        cols.append((f(ap) - f(am)) / (2 * h))
    return np.ascontiguousarray(np.transpose(cols))


def poisson_bracket(f, g, s) -> float:
    """Canonical bracket {f, g} at s with numeric central-difference gradients.

    f and g are callables on the flat state array (positions first, then
    momenta, as in the PhaseState array orders).
    """
    a = _state_array(s)
    return _canonical_bracket(_num_grad(f, a), _num_grad(g, a))


def _canonical_bracket(gf: np.ndarray, gg: np.ndarray) -> float:
    """{f, g} from the gradients of f and g, contiguous 1-d arrays: OpenBLAS
    sums a strided dot product in another order."""
    n = gf.size // 2
    return float(np.dot(gf[:n], gg[n:]) - np.dot(gf[n:], gg[:n]))


# ---------------------------------------------------------------------------
# Condition coefficient and particular solutions
# ---------------------------------------------------------------------------

def axis_potential(spec: SystemSpec, c) -> ExactRatFunc:
    """w(z) = W(z, 4 sgn(c) z): the potential on the side of the vertical
    axis through z = c, where rho = 4|z|, as a rational function of z.

    Raises ValueError where W is singular at (c, 4|c|): the test is on the
    restricted denominator before any common factor with the numerator is
    cancelled, so a singularity that the restriction hides still raises.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    s4 = 4 if c > 0 else -4

    def restrict(table):
        return sum((ExactPoly.monomial(coeff * s4**j, i + j, var="z")
                    for (i, j), coeff in table.items()), ExactPoly((), var="z"))

    pot = spec.potential
    den = restrict(pot.den)
    if den(c).is_zero():
        raise ValueError(f"the potential is singular at (z, rho) = ({c}, {4 * abs(c)})")
    return ExactRatFunc(restrict(pot.num), den)


def condition_coefficient_a(spec: SystemSpec, c):
    """Coefficient a = [W_z(c, 4|c|) + 4 sgn(c) W_rho(c, 4|c|)] / 2.

    On the axis rho = 4 sgn(c) z this is w'(c)/2 for w = axis_potential.
    A nonzero value certifies the hypothesis of the non-integrability
    criterion along the vertical-axis solution through z = c.  The value is
    exact: a Fraction, or an ExactScalar when the potential makes it
    non-real; a float c is read as its exact binary value.  Raises
    ValueError where the potential is singular at (c, 4|c|).
    """
    a = axis_potential(spec, c).derivative()(Fraction(c)) / 2
    return a.re if a.is_real() else a


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
