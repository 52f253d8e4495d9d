"""Variational equations along particular solutions, gauge
transformations, and reduction to scalar equations.

Every builder is exact: the variational matrices have entries in Q(i)[t],
and gauge transforms and scalar reductions stay in Q(i)(t).  There is no
numeric path here, so loading this module loads neither numpy nor
`dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (Derivation, ExactMatrix, ExactPoly, ExactRatFunc, ExactScalar,
                       _add_into, _pmk, _zi_mul, clear_denominators, tower_annihilator)
from .heisenmodel import SystemSpec, axis_potential

__all__ = [
    "LinearSystem",
    "DiffOperator",
    "GaugeMatrix",
    "NotCyclicError",
    "ve_along",
    "ve_blocks_transformed",
    "ve_twobody_blocks",
    "gauge_transform",
    "reduction_gauge",
    "reduction_gauge_resonant",
    "generic_reduction",
    "resonant_reduction",
    "cyclic_to_scalar",
    "exp_substitution",
]


class NotCyclicError(ValueError):
    """The chosen component's derivatives do not span the solution space."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSystem:
    """First-order system y' = A(var) y with exact rational-function matrix."""

    A: ExactMatrix
    var: str = "t"
    meta: tuple = ()

    def __post_init__(self):
        if self.A.rows != self.A.cols:
            raise ValueError("coefficient matrix must be square")

    @property
    def dim(self) -> int:
        return self.A.rows

    def subsystem(self, indices) -> "LinearSystem":
        idx = list(indices)
        sub = ExactMatrix(
            [[self.A[i, j] for j in idx] for i in idx], var=self.A.var
        )
        return LinearSystem(sub, var=self.var, meta=self.meta)


class DiffOperator:
    """Monic scalar operator D^n + a_{n-1} D^{n-1} + ... + a_0 over C(t)."""

    def __init__(self, coeffs, var: str = "t"):
        cs = [ExactRatFunc.coerce(c, var) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if len(cs) < 2:
            raise ValueError("operator order must be at least 1")
        lead = cs[-1]
        if not (lead.is_poly() and lead.num == 1):
            cs = [c / lead for c in cs]
        self.coeffs = tuple(cs)
        self.var = var
        self._cleared = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> ExactRatFunc:
        return self.coeffs[k]

    def cleared(self) -> list:
        """Coefficients as polynomials a_j = D * coeff(j), with D the monic
        lcm of their denominators, as a new list on each call.

        The a_j have no common factor of positive degree.  It would divide
        a_n = D, and for each irreducible q dividing D, some coeff(j) has a
        denominator that q divides as often as it divides D; then D divided
        by that denominator is prime to q, and so is the numerator, which
        is prime to its denominator, so q does not divide a_j."""
        if self._cleared is None:
            self._cleared = tuple(clear_denominators(self.coeffs, self.var)[1])
        return list(self._cleared)

    def apply_exp_ansatz(self, r) -> ExactRatFunc:
        """L(e^{int r}) / e^{int r}: zero iff D - r is a right factor."""
        r = ExactRatFunc.coerce(r, self.var)
        N = ExactRatFunc.coerce(1, self.var)
        total = self.coeffs[0] * N
        for j in range(1, self.order + 1):
            N = N.derivative() + r * N
            total = total + self.coeffs[j] * N
        return total

    def companion(self) -> LinearSystem:
        n = self.order
        rows = [
            [ExactRatFunc.coerce(1 if j == i + 1 else 0, self.var) for j in range(n)]
            for i in range(n - 1)
        ]
        rows.append([-self.coeffs[k] for k in range(n)])
        return LinearSystem(ExactMatrix(rows, var=self.var), var=self.var)

    def __eq__(self, other):
        return isinstance(other, DiffOperator) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DiffOperator(order={self.order}, var={self.var!r})"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "var": self.var,
            "coeffs": [c.to_json() for c in self.coeffs],
        }


class GaugeMatrix:
    """Polynomial matrix Q(t) with its inverse, taken at construction: a
    non-square Q raises ValueError and a singular one SingularMatrixError."""

    def __init__(self, Q: ExactMatrix):
        self.Q = Q
        self.inverse = Q.inverse()


# ---------------------------------------------------------------------------
# Variational equations
# ---------------------------------------------------------------------------

# interleaved variation order (x, p_x, y, p_y, z, p_z) from the flat
# (x, y, z, p_x, p_y, p_z) state order
_INTERLEAVE_1B = (0, 3, 1, 4, 2, 5)


def _axis_derivatives(spec: SystemSpec, c) -> tuple:
    """w'(c) and w''(c) for w(z) = W(z, 4 sgn(c) z), the potential on the
    side of the vertical axis through z = c: two exact scalars.  Raises
    ValueError where W is singular at (c, 4|c|)."""
    c = Fraction(c)
    dw = axis_potential(spec, c).derivative()
    return dw(c), dw.derivative()(c)


def ve_along(spec: SystemSpec, solution):
    """Linearization A(t) of the canonical field along the vertical
    particular solution (0, 0, c, 0, 0, -2at) of a one-body system.

    `solution` is the parameter dict {"c": rational}.  The result is the
    exact polynomial system, rows/columns in the interleaved variation
    order (x, p_x, y, p_y, z, p_z).

    The exact system is read off the Hamiltonian's structure, with no
    symbolic differentiation of H.  With u = p_x - y p_z/2 and
    v = p_y + x p_z/2, H = (u^2 + v^2)/2 + W(z, rho).  On the line
    x = y = p_x = p_y = 0 both u and v vanish, so Hess K = grad u grad u^T +
    grad v grad v^T there, with grad u = (0, at, 0, 1, 0, 0) and
    grad v = (-at, 0, 0, 0, 1, 0) in (x, y, z, p_x, p_y, p_z).  The x- and
    y-derivatives of rho = sqrt((x^2 + y^2)^2 + 16 z^2) vanish to third order
    on the axis, so the only potential term is W_zz = W''(c) for
    w(z) = W(z, 4 sgn(c) z).  A = J Hess H = [[H_pq, H_pp], [-H_qq, -H_qp]].
    The line solves the field because, with a = w'(c)/2, it keeps
    x = y = p_x = p_y = 0 and z = c, and p_z' = -H_z = -w'(c) = -2a.
    """
    if spec.kind != "one-body":
        raise ValueError("exact variational build implemented for one-body")
    dW, d2W = _axis_derivatives(spec, solution["c"])
    a = dW / 2
    zero, one, at = ExactPoly(()), ExactPoly([1]), ExactPoly.x().scale(a)
    grad_u = (zero, at, zero, one, zero, zero)
    grad_v = (-at, zero, zero, zero, one, zero)
    hess = [[grad_u[i] * grad_u[j] + grad_v[i] * grad_v[j] for j in range(6)]
            for i in range(6)]
    hess[2][2] = ExactPoly([d2W])
    jac = hess[3:] + [[-h for h in row] for row in hess[:3]]
    p = _INTERLEAVE_1B
    entries = [[jac[p[i]][p[j]] for j in range(6)] for i in range(6)]
    return LinearSystem(ExactMatrix(entries, var="t"), var="t", meta=(("a", str(a)),))


def ve_blocks_transformed(spec: SystemSpec, c) -> LinearSystem:
    """Block-diagonal variational matrix diag(A1, A2, A3) in the transformed
    variables (dq1, dh1, dq2, dh2, dq3, dh3) along the vertical solution.

    A1 = [[0, 1], [-i a, -2 i a t]], A2 is its coefficient conjugate, and A3
    is strictly lower triangular with the computed entry C."""
    if spec.kind != "one-body":
        raise ValueError("transformed blocks are defined for the one-body system")
    dW, d2W = _axis_derivatives(spec, c)
    a = dW / 2
    if a == 0:
        raise ValueError("a must be nonzero")
    ia = ExactScalar.i() * a
    t = ExactPoly.x()
    A1 = [
        [ExactRatFunc.coerce(0), ExactRatFunc.coerce(1)],
        [ExactRatFunc(ExactPoly([-ia])), ExactRatFunc(t.scale(-(ia + ia)))],
    ]
    # C: linearization of dh3 in dq3 along the axis, -W''(c)
    C = -d2W

    zero = ExactRatFunc.coerce(0)
    M = [[zero] * 6 for _ in range(6)]
    for i in range(2):
        for j in range(2):
            M[i][j] = A1[i][j]
    conj = ExactMatrix([[A1[0][0], A1[0][1]], [A1[1][0], A1[1][1]]]).conjugate_coeffs()
    for i in range(2):
        for j in range(2):
            M[2 + i][2 + j] = conj[i, j]
    M[5][4] = ExactRatFunc(ExactPoly([C]))
    return LinearSystem(ExactMatrix(M, var="t"), var="t", meta=(("a", str(a)),))


def ve_twobody_blocks(mu, tau0, w2) -> LinearSystem:
    """12-dim block-diagonal variational matrix diag(A1, A2, A3) in the
    rescaled two-body variables, independent variable tau.

    Variations ordered (u1, p_v1, u2, p_v2, v1, p_u1, v2, p_u2, w1, w2,
    p_w1, p_w2); A3 has the single nonzero entry 4i/w2."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    if w2 == 0:
        raise ValueError("w2 must be nonzero")
    m, t0, w2s = (ExactScalar.coerce(v) for v in (mu, tau0, w2))

    var = "tau"
    tm = ExactPoly([-t0, ExactScalar(1)], var=var)   # tau - tau0
    tp = ExactPoly([t0, ExactScalar(1)], var=var)    # tau + tau0
    one = ExactPoly([1], var=var)

    def R(p):
        return ExactRatFunc(ExactPoly.coerce(p, var), var=var)

    A1 = [
        [R(tm), R(one), R(0), R(0)],
        [R(tm * tm), R(tm), R(-1), R(0)],
        [R(0), R(0), R(tp.scale(-m)), R(ExactPoly([m], var=var))],
        [R(one), R(0), R((tp * tp).scale(m)), R(tp.scale(-m))],
    ]
    A2 = [
        [R(-tm), R(one), R(0), R(0)],
        [R(tm * tm), R(-tm), R(one), R(0)],
        [R(0), R(0), R(tp.scale(m)), R(ExactPoly([m], var=var))],
        [R(-1), R(0), R((tp * tp).scale(m)), R(tp.scale(m))],
    ]
    zero = R(0)
    M = [[zero] * 12 for _ in range(12)]
    for i in range(4):
        for j in range(4):
            M[i][j] = A1[i][j]
            M[4 + i][4 + j] = A2[i][j]
    four_i = ExactScalar(0, 4) / w2s
    M[11][9] = R(ExactPoly([four_i], var=var))
    return LinearSystem(
        ExactMatrix(M, var=var), var=var, meta=(("mu", str(m)), ("tau0", str(t0)))
    )


# ---------------------------------------------------------------------------
# Gauge transformations and scalar reduction
# ---------------------------------------------------------------------------

def gauge_transform(sys: LinearSystem, Q: GaugeMatrix) -> LinearSystem:
    """Coefficient matrix of the system satisfied by Q^-1 y:
    Q^-1 (A Q - dQ/dt), computed exactly."""
    A = sys.A
    out = Q.inverse @ (A @ Q.Q - Q.Q.derivative())
    return LinearSystem(out, var=sys.var, meta=sys.meta)


def reduction_gauge(mu) -> GaugeMatrix:
    """The order-reduction gauge built on the tau0 = 0 particular solution."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    m = ExactScalar.coerce(mu)
    var = "tau"
    P = ExactPoly.coerce
    tau = ExactPoly.x(var)
    rows = [
        [1, 0, 0, 0],
        [-tau, 1, 0, 0],
        [1, tau.scale(2), -1, 0],
        [
            tau,
            ExactPoly([-1, 0, -2], var=var),
            tau,
            ExactPoly([-m.inverse()], var=var),
        ],
    ]
    Q = ExactMatrix(
        [[ExactRatFunc(P(e, var), var=var) for e in row] for row in rows], var=var
    )
    return GaugeMatrix(Q)


def reduction_gauge_resonant() -> GaugeMatrix:
    """The order-reduction gauge for mu = -1 built on the tau0 = 1 solution."""
    var = "tau"
    P = ExactPoly.coerce
    rows = [
        [1, 0, 0, 0],
        [ExactPoly([-1, 1], var=var), 1, 0, 0],
        [-1, 0, -1, 0],
        [ExactPoly([1, 1], var=var), -1, ExactPoly([1, 1], var=var), 1],
    ]
    Q = ExactMatrix(
        [[ExactRatFunc(P(e, var), var=var) for e in row] for row in rows], var=var
    )
    return GaugeMatrix(Q)


def generic_reduction(a1: LinearSystem, mu) -> tuple:
    """The two-body chain for mu not 0 or -1, written once for `ve` to print
    and `galois` to classify: the A1 block of the tau0 = 0 system under
    reduction_gauge(mu), the scalar operator of its middle block, and the
    parabolic-cylinder operator that y = w exp((1 - mu) tau^2 / 2) gives."""
    g = gauge_transform(a1, reduction_gauge(mu))
    ode = cyclic_to_scalar(g.subsystem([1, 2]), 0)
    return g, ode, exp_substitution(ode, ExactPoly([0, 0, (1 - mu) / 2], var="tau"))


def resonant_reduction(a1: LinearSystem) -> tuple:
    """The resonant two-body chain, as generic_reduction: the A1 block of the
    mu = -1, tau0 = 1 system under reduction_gauge_resonant(), the scalar
    operator of component 1 of its first three, and the third-order
    operator that y = w exp(2 tau^2 / 3) gives."""
    g = gauge_transform(a1, reduction_gauge_resonant())
    ode = cyclic_to_scalar(g.subsystem(range(3)), 1)
    return g, ode, exp_substitution(ode, ExactPoly([0, 0, Fraction(2, 3)], var="tau"))


def _row_module(B: ExactMatrix, var: str) -> Derivation:
    """The rows' derivation (row . y)' = (row' + row B) . y of y' = B y, as
    a Derivation: with B = Bt / d cleared by the lcm d of its denominators,
    act(row) = row Bt has the entries (i, j, Bt[i][j]).  B is cleared once,
    and every row tower of y' = B y derives with it."""
    n = B.rows
    d, flat = clear_denominators([f for row in B.entries for f in row], var)
    return Derivation.of(d, {(i, j): flat[i * n + j] for i in range(n) for j in range(n)}, n)


def _minimal_annihilator(rows: Derivation, index: int) -> DiffOperator:
    """Minimal monic operator annihilating component `index` of every
    solution of y' = B y, for the rows' derivation of B (see _row_module);
    its order is at most the dimension."""
    w = [ExactPoly.constant(1 if j == index else 0, var=rows.var) for j in range(rows.dim)]
    return DiffOperator(tower_annihilator(w, rows), var=rows.var)


def cyclic_to_scalar(sys: LinearSystem, index: int) -> DiffOperator:
    """Minimal scalar operator satisfied by component `index` of every solution.

    Requires the component to be a cyclic vector: the rows e, eA + e',
    ... must span; otherwise NotCyclicError."""
    L = _minimal_annihilator(_row_module(sys.A, sys.var), index)
    if L.order < sys.dim:
        raise NotCyclicError(f"component {index} is not cyclic for this system")
    return L


def _twist(coeffs, rprime, var):
    """Coefficients of the operator for u where y = u * exp(int rprime).

    The coefficients and rprime share one ring, ExactRatFunc or ExactPoly,
    and so does the result.  With y^(j) = e^(int rprime) sum_i B[j][i] u^(i),
    B[0][0] = 1 and B[j+1][i] = B[j][i]' + rprime B[j][i] + B[j][i-1],
    coefficient i is sum_j coeffs[j] B[j][i].

    Over ExactPoly no gcd is taken: twisting by a polynomial commutes with
    multiplying the coefficients by a common denominator, so a cleared
    operator twists to a cleared operator.  There the recurrence runs in
    one pass over Z[i][t]: with rprime = R / e and coeffs[j] = C_j / D for
    integers e and D, Bt[j][i] = e^j B[j][i] has
    Bt[j+1][i] = e (Bt[j][i]' + Bt[j][i-1]) + R Bt[j][i], and coefficient i
    is sum_j C_j e^(n-j) Bt[j][i] over D e^n, normalized once."""
    n = len(coeffs) - 1
    if isinstance(rprime, ExactPoly):
        e = rprime.d
        D = math.lcm(*(c.d for c in coeffs))
        out = [([], []) for _ in range(n + 1)]
        row = [([1], [0])]  # Bt[j][0], ..., Bt[j][j]
        for j, c in enumerate(coeffs):
            if j:
                nxt, prev = [], ([], [])
                for br, bi in row:
                    re = [e * k * x for k, x in enumerate(br)][1:]
                    im = [e * k * x for k, x in enumerate(bi)][1:]
                    _add_into(re, im, [e * x for x in prev[0]], [e * x for x in prev[1]])
                    if rprime and (any(br) or any(bi)):
                        _add_into(re, im, *_zi_mul(rprime.re, rprime.im, br, bi))
                    nxt.append((re, im))
                    prev = (br, bi)
                nxt.append(([e * x for x in prev[0]], [e * x for x in prev[1]]))
                row = nxt
            if c:
                k = D // c.d * e ** (n - j)
                cr, ci = [x * k for x in c.re], [x * k for x in c.im]
                for (sr, si), (br, bi) in zip(out, row):
                    if any(br) or any(bi):
                        _add_into(sr, si, *_zi_mul(cr, ci, br, bi))
        return [_pmk(re, im, D * e ** n, var) for re, im in out]
    zero = ExactRatFunc.coerce(0, var)
    B = [[zero] * (n + 1) for _ in range(n + 1)]
    B[0][0] = ExactRatFunc.coerce(1, var)
    for j in range(n):
        for i in range(j + 2):
            term = B[j][i].derivative() + rprime * B[j][i] if i <= j else zero
            if i > 0:
                term = term + B[j][i - 1]
            B[j + 1][i] = term
    return [
        sum((coeffs[j] * B[j][i] for j in range(n + 1)), zero)
        for i in range(n + 1)
    ]


def exp_substitution(ode: DiffOperator, s: ExactPoly) -> DiffOperator:
    """Operator satisfied by w where y = w * exp(s(t)), s polynomial; exact."""
    ds = ExactPoly.coerce(s, ode.var).derivative()
    return DiffOperator(_twist(ode.cleared(), ds, ode.var), var=ode.var)
