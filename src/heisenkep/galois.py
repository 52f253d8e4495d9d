"""Differential-Galois decision machinery: the parabolic-cylinder criterion,
exponential-solution search, symmetric powers with singularity analysis,
the exterior-square factorization, and the orchestrated verdicts.

All decisions are certified: a returned exponential solution carries an
exact substitution certificate, an empty search is complete for the stated
ansatz class (rational logarithmic derivative over Q(i) with simple finite
poles), and the symmetric-power operator is certified by exact substitution
in the monomial module.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactalg import (
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    _gaussian_integer_row,
    _lift_gaussian,
    _modulus,
    _rref_mod,
    poly_roots_numeric,
    scalar_nullspace,
    squarefree_decomposition,
)
from . import variational
from .variational import DiffOperator, _minimal_annihilator, _twist

__all__ = [
    "DiffOperator",
    "ParabolicParams",
    "SingularityData",
    "GaloisVerdict",
    "FactorizationBasis",
    "rehm_classify",
    "parabolic_from_ode",
    "exp_solutions",
    "sym_power",
    "singularity_analysis",
    "case2_obstruction",
    "fuchsian_check",
    "liouvillian_verdict_o3r",
    "exterior_square",
    "plucker_check",
    "system_exp_solutions",
    "factorization_basis",
    "o3r_operator",
]

_ZERO = ExactScalar(0)


@dataclass(frozen=True)
class GaloisVerdict:
    tag: str  # "NotSolvableIdentityComponent" | "Inconclusive"
    evidence: dict

    def __post_init__(self):
        if self.tag not in ("NotSolvableIdentityComponent", "Inconclusive"):
            raise ValueError(f"unknown verdict tag {self.tag!r}")
        if self.tag == "NotSolvableIdentityComponent" and not self.evidence:
            raise ValueError("a NotSolvable verdict must carry evidence")

    def to_json(self) -> str:
        return json.dumps(
            {"tag": self.tag, "evidence": self.evidence}, sort_keys=True, default=str
        )


# ---------------------------------------------------------------------------
# Parabolic cylinder criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParabolicParams:
    """Parameters of w'' - (alpha^2 t^2 + 2 alpha beta t + gamma) w = 0,
    with alpha known only through alpha^2 (the sign is a gauge choice)."""

    alpha_sq: ExactScalar
    two_alpha_beta: ExactScalar
    gamma: ExactScalar

    def __post_init__(self):
        if self.alpha_sq.is_zero():
            raise ValueError("alpha must be nonzero")

    @staticmethod
    def from_alpha(alpha, beta, gamma) -> "ParabolicParams":
        a = ExactScalar.coerce(alpha)
        b = ExactScalar.coerce(beta)
        return ParabolicParams(a * a, (a + a) * b, ExactScalar.coerce(gamma))

    def ratio_squared(self) -> ExactScalar:
        """((beta^2 - gamma)/alpha)^2, well defined without the sign of
        alpha."""
        beta_sq = (self.two_alpha_beta * self.two_alpha_beta) / (
            self.alpha_sq * ExactScalar(4)
        )
        d = beta_sq - self.gamma
        return (d * d) / self.alpha_sq


def rehm_classify(p: ParabolicParams) -> GaloisVerdict:
    """SL(2, C) verdict for the parabolic cylinder equation.

    The differential Galois group is all of SL(2, C) unless
    (beta^2 - gamma)/alpha is an odd integer for one of the two signs of
    alpha, which holds iff its square is the square of an odd integer."""
    q = p.ratio_squared()
    odd_square = (
        q.is_real()
        and q.re >= 0
        and q.re.denominator == 1
        and math.isqrt(q.re.numerator) ** 2 == q.re.numerator
        and math.isqrt(q.re.numerator) % 2 == 1
    )
    ev = {
        "criterion": "parabolic_cylinder",
        "ratio_squared": str(q),
        "alpha_sq": str(p.alpha_sq),
        "gamma": str(p.gamma),
    }
    if odd_square:
        return GaloisVerdict("Inconclusive", ev | {"odd_integer_ratio": True})
    return GaloisVerdict("NotSolvableIdentityComponent", ev | {"group": "SL(2,C)"})


def parabolic_from_ode(ode) -> ParabolicParams:
    """Match w'' - (c2 t^2 + c1 t + c0) w = 0 and extract the parameters."""
    if ode.order != 2:
        raise ValueError("second-order equation required")
    if not ode.coeff(1).is_zero():
        raise ValueError("no first-derivative term allowed")
    c = -ode.coeff(0)
    if not c.is_poly():
        raise ValueError("potential must be polynomial")
    p = c.as_poly()
    if p.degree > 2:
        raise ValueError("potential degree exceeds 2")
    if p.coeff(2).is_zero():
        raise ValueError("degenerate: alpha = 0")
    return ParabolicParams(p.coeff(2), p.coeff(1), p.coeff(0))


# ---------------------------------------------------------------------------
# Exact root helpers (Gaussian-rational roots by rationalize-and-verify)
# ---------------------------------------------------------------------------

_MAXDENS = (12, 1000, 10**4, 10**8)


def _rationalize(x: complex, maxden: int) -> ExactScalar:
    return ExactScalar(
        Fraction(x.real).limit_denominator(maxden),
        Fraction(x.imag).limit_denominator(maxden),
    )


def gaussian_roots(p: ExactPoly) -> list:
    """Roots of p lying in Q(i), found numerically and certified exactly.

    Only the squarefree part is rooted: the numeric roots of a factor of
    high multiplicity scatter too far to rationalize.  Small denominators
    are tried first, and a candidate counts for a numeric root only when it
    lies nearer to it than half its distance to any other numeric root, so
    that a coarse rationalization cannot land on a neighbouring root."""
    if p.degree < 1:
        return []
    sqf = ExactPoly([1], var=p.var)
    for f, _m in squarefree_decomposition(p):
        sqf = sqf * f
    zs = poly_roots_numeric(sqf, tol=1e-5)
    out = []
    for i, z in enumerate(zs):
        sep = min((abs(z - w) for j, w in enumerate(zs) if j != i), default=math.inf)
        for maxden in _MAXDENS:
            cand = _rationalize(z, maxden)
            if 2 * abs(cand.to_complex() - z) < sep and sqf(cand).is_zero():
                if cand not in out:
                    out.append(cand)
                break
    return out


def _falling(j: int, var: str = "lam") -> ExactPoly:
    """Falling factorial lam (lam-1) ... (lam-j+1) as a polynomial."""
    out = ExactPoly([1], var=var)
    for s in range(j):
        out = out * ExactPoly([-s, 1], var=var)
    return out


# ---------------------------------------------------------------------------
# Newton polygon at infinity, polynomial solutions, twisting
# ---------------------------------------------------------------------------

def _clear_ratfunc_coeffs(coeffs, var):
    """list of ExactRatFunc -> list of ExactPoly with cleared denominator."""
    den = ExactPoly([1], var=var)
    for c in coeffs:
        den = den.lcm(c.den)
    return [c.num * den.exact_div(c.den) for c in coeffs]


def _infinity_indicial(polys) -> ExactPoly:
    """Slope-zero indicial polynomial I(N) at infinity: the leading
    coefficient of L(t^N) as a polynomial in N."""
    M = max(p.degree - j for j, p in enumerate(polys) if not p.is_zero())
    I = ExactPoly((), var="lam")
    for j, p in enumerate(polys):
        if not p.is_zero() and p.degree - j == M:
            I = I + _falling(j).scale(p.leading())
    return I


def _nonneg_integer_roots(I: ExactPoly) -> list:
    out = []
    for z in poly_roots_numeric(I, tol=1e-5):
        if abs(z.imag) < 1e-5:
            n = round(z.real)
            if n >= 0 and n not in out and I(ExactScalar(n)).is_zero():
                out.append(n)
    return sorted(out)


def _polynomial_solutions(polys, var) -> list:
    """Basis of polynomial solutions of sum_j c_j y^(j) = 0, exact."""
    degs = _nonneg_integer_roots(_infinity_indicial(polys))
    if not degs:
        return []
    N = max(degs)
    maxdeg = max(p.degree for p in polys if not p.is_zero()) + N
    rows = [[_ZERO] * (N + 1) for _ in range(maxdeg + 1)]
    for s in range(N + 1):
        for j, p in enumerate(polys):
            if p.is_zero() or j > s:
                continue
            fall = 1
            for k in range(j):
                fall *= s - k
            if fall == 0:
                continue
            fs = ExactScalar(fall)
            for d in range(p.degree + 1):
                c = p.coeff(d)
                if not c.is_zero():
                    rows[d + s - j][s] = rows[d + s - j][s] + c * fs
    sols = []
    for v in scalar_nullspace(rows)[0]:
        q = ExactPoly(v, var=var)
        if not q.is_zero():
            sols.append(q)
    return sols


def _newton_polygon_slopes(polys):
    """Candidate leading degrees of the polynomial part of r, with edge
    polynomials: pairs (d, edge) where d >= 0 is an integer slope of the
    upper hull of the points (j, deg c_j)."""
    pts = [(j, p.degree) for j, p in enumerate(polys) if not p.is_zero()]
    out = []
    seen = set()
    for (j1, d1), (j2, d2) in itertools.combinations(pts, 2):
        num, den = d1 - d2, j2 - j1
        if num < 0 or num % den != 0:
            continue
        d = num // den
        h = max(dj + j * d for j, dj in pts)
        if d1 + j1 * d != h or d in seen:
            continue
        seen.add(d)
        edge = ExactPoly((), var="rho")
        for j, p in enumerate(polys):
            if not p.is_zero() and p.degree + j * d == h:
                edge = edge + ExactPoly.monomial(p.leading(), j, var="rho")
        out.append((d, edge))
    return sorted(out, key=lambda e: -e[0])


def _poly_part_candidates(coeffs, var, max_d=None, depth=0):
    """Candidate polynomial parts s' of rational logarithmic derivatives,
    from the Newton polygon at infinity, recursively refined."""
    polys = _clear_ratfunc_coeffs(coeffs, var)
    out = [ExactPoly((), var=var)]
    if depth > 12:
        return out
    for d, edge in _newton_polygon_slopes(polys):
        if max_d is not None and d > max_d:
            continue
        for rho in gaussian_roots(edge):
            if rho.is_zero():
                continue
            lead = ExactPoly.monomial(rho, d, var=var)
            if d == 0:
                if lead not in out:
                    out.append(lead)
                continue
            twisted = _twist(coeffs, ExactRatFunc(lead, var=var), var)
            for tail in _poly_part_candidates(
                twisted, var, max_d=d - 1, depth=depth + 1
            ):
                cand = lead + tail
                if cand not in out:
                    out.append(cand)
    return out


def _integrate_poly(p: ExactPoly) -> ExactPoly:
    cs = [_ZERO]
    for k, c in enumerate(p.coeffs):
        cs.append(c * ExactScalar(Fraction(1, k + 1)))
    return ExactPoly(cs, var=p.var)


# ---------------------------------------------------------------------------
# Local exponents at finite points
# ---------------------------------------------------------------------------

def _taylor_coeff_mod(p: ExactPoly, s: int, f: ExactPoly) -> ExactPoly:
    """s-th Taylor coefficient of p at a root of f, as an element of
    Q(i)[t]/(f)."""
    q = p
    for _ in range(s):
        q = q.derivative()
    return (q % f).scale(ExactScalar(Fraction(1, math.factorial(s))))


def _local_data(polys, f: ExactPoly, var: str):
    """Regularity and exponents of the operator at the roots of the
    squarefree factor f of the leading coefficient.

    Returns (regular, exponents) with exponents a list of pairs
    (value, subfactor): the ExactScalar exponent is valid at the roots of
    the subfactor (an exact divisor of f, found by gcd splitting when the
    exponents differ between roots)."""
    n = len(polys) - 1

    def mult(p):
        if p.is_zero():
            return math.inf
        m, q = 0, p
        while True:
            d, r = divmod(q, f)
            if not r.is_zero():
                return m
            q, m = d, m + 1

    mn = mult(polys[n])
    if not all(mult(polys[j]) >= mn - (n - j) for j in range(n)):
        return False, []
    # indicial polynomial sum_j A_j lam(lam-1)...(lam-j+1) with A_j the
    # (mn - n + j)-th Taylor coefficient of c_j, an element of Q(i)[t]/(f)
    ind = [ExactPoly((), var=var) for _ in range(n + 1)]
    for j in range(n + 1):
        s = mn - (n - j)
        if s < 0 or polys[j].is_zero():
            continue
        A = _taylor_coeff_mod(polys[j], s, f)
        if A.is_zero():
            continue
        fall = _falling(j)
        for k in range(fall.degree + 1):
            ind[k] = (ind[k] + A.scale(fall.coeff(k))) % f
    while len(ind) > 1 and ind[-1].is_zero():
        ind.pop()
    return True, _solve_indicial(ind, f, var)


def _solve_indicial(ind, f: ExactPoly, var: str):
    """Rational roots of an indicial polynomial with coefficients in
    Q(i)[t]/(f), splitting f when the roots differ between its points."""
    if all(c.degree <= 0 for c in ind):
        poly = ExactPoly([c.coeff(0) for c in ind], var="lam")
        return [(v, f) for v in gaussian_roots(poly) if v.is_real()]
    # point-dependent coefficients: collect rational candidates from the
    # numeric roots of the pointwise indicial, then certify by gcd with f
    cands = []
    for z in poly_roots_numeric(f, tol=1e-5):
        pv = [c(z) for c in ind]
        while pv and abs(pv[-1]) < 1e-9:
            pv.pop()
        if len(pv) < 2:
            continue
        for lr in np.roots(list(reversed(pv))):
            if abs(lr.imag) > 1e-5:
                continue
            v = Fraction(float(lr.real)).limit_denominator(_MAXDENS[0])
            if v not in cands:
                cands.append(v)
    out = []
    for v in sorted(cands):
        vs = ExactScalar(v)
        acc = ExactPoly((), var=var)
        for k, c in enumerate(ind):
            acc = (acc + c.scale(vs**k)) % f
        g = f if acc.is_zero() else f.gcd(acc)
        if g.degree > 0:
            out.append((vs, g))
    return out


# ---------------------------------------------------------------------------
# Exponential solutions
# ---------------------------------------------------------------------------

def exp_solutions(L: DiffOperator, max_combinations: int = 400) -> list:
    """Complete list of right factors D - r with r in Q(i)(t) and only
    simple poles at finite points.

    Candidates are assembled from local exponents at the finite singular
    points (residues of r) and the Newton polygon at infinity (the
    polynomial part of r), then each is certified by exact substitution.
    An empty list proves there is no exponential solution in this class."""
    var = L.var
    polys = L.cleared()
    lead = polys[L.order]

    # residue choice groups: one per subfactor of the leading coefficient
    groups = []
    for f, _m in squarefree_decomposition(lead):
        if f.degree < 1:
            continue
        regular, exps = _local_data(polys, f.monic(), var)
        if not regular:
            continue
        by_sub = {}
        for v, g in exps:
            by_sub.setdefault(str(g), (g.monic(), []))[1].append(v)
        groups.extend(by_sub.values())

    combos = [()]
    for g, values in groups:
        choices = [None] + values
        combos = [c + ((g, v),) for c in combos for v in choices]
        if len(combos) > max_combinations:
            raise RuntimeError("residue combination search space too large")

    results = []
    seen = set()
    for combo in combos:
        tail = ExactRatFunc.coerce(0, var)
        for g, v in combo:
            if v is None:
                continue
            tail = tail + ExactRatFunc(g.derivative().scale(v), g, var=var)
        base = _twist(L.coeffs, tail, var)
        for spoly in _poly_part_candidates(base, var):
            twisted = (
                base
                if spoly.is_zero()
                else _twist(base, ExactRatFunc(spoly, var=var), var)
            )
            tp = _clear_ratfunc_coeffs(twisted, var)
            for q in _polynomial_solutions(tp, var):
                r = (
                    ExactRatFunc(spoly, var=var)
                    + tail
                    + ExactRatFunc(q.derivative(), q, var=var)
                )
                key = str(r)
                if key not in seen and L.apply_exp_ansatz(r).is_zero():
                    seen.add(key)
                    results.append((r, {"poly_part": spoly, "poly_factor": q}))
    return results


# ---------------------------------------------------------------------------
# Symmetric powers
# ---------------------------------------------------------------------------

def _sym_module(L: DiffOperator, k: int):
    """Derivative tower of w = y^k in the monomial module.

    Basis: size-k multisets of derivative orders < n, as sorted tuples.
    Returns (basis, [w, w', ..., w^(dim)]) with ExactRatFunc entries."""
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
            for pos in range(k):
                lst = list(b)
                o = lst[pos]
                if o + 1 < n:
                    lst[pos] = o + 1
                    nb = tuple(sorted(lst))
                    out[index[nb]] = out[index[nb]] + c
                else:
                    for j in range(n):
                        if red[j].is_zero():
                            continue
                        lst2 = list(b)
                        lst2[pos] = j
                        nb = tuple(sorted(lst2))
                        out[index[nb]] = out[index[nb]] + c * red[j]
        return out

    w = [zero] * dim
    w[index[tuple([0] * k)]] = ExactRatFunc.coerce(1, var)
    tower = [w]
    for _ in range(dim):
        tower.append(d_vec(tower[-1]))
    return basis, tower


def _poly_mod(f: ExactPoly, p: int, root: int) -> list[int]:
    """Coefficients of f modulo p under i -> root; ValueError if p divides
    a coefficient denominator."""
    return [(c.a + root * c.b) * pow(c.d, -1, p) % p for c in f.coeffs]


def _eval_mod(f: list[int], x: int, p: int) -> int:
    v = 0
    for c in reversed(f):
        v = (v * x + c) % p
    return v


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _times_linear(f: list[int], x: int, p: int) -> list[int]:
    """f (t - x) over F_p."""
    out = [0] + f
    for i, c in enumerate(f):
        out[i] = (out[i] - x * c) % p
    return out


def _divmod_mod(a: list[int], b: list[int], p: int):
    """Quotient and remainder over F_p (coefficients ascending, b != 0)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            q[k - db] = c
            a[k - db : k + 1] = [(x - c * y) % p for x, y in zip(a[k - db : k + 1], b)]
    return q, _trim(a[:db])


def _cauchy_mod(xs: list[int], newton: list[int], M: list[int], p: int):
    """Rational function (num, den) over F_p, den monic, through the points
    whose Newton coefficients are `newton` (M = prod (t - x_i)).

    The extended Euclidean algorithm runs on M and the interpolant, and the
    pair taken is the one that the quotient of largest degree follows
    (maximal-quotient rational reconstruction).  The true (num, den), with
    deg num + deg den = T, has a quotient of degree len(xs) - T, larger than
    all others together once len(xs) > 2 T."""
    f = []
    for c, x in zip(reversed(newton), reversed(xs)):
        f = _times_linear(f, x, p)
        f[0] = (f[0] + c) % p
    f = _trim(f)
    if not f:
        return (), (1,)
    r0, r1, t0, t1 = M, f, [], [1]
    best_q = -1
    while r1:
        q, rem = _divmod_mod(r0, r1, p)
        if len(q) > best_q:
            best_q, num, den = len(q), r1, t1
        t2 = t0 + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, a in enumerate(q):
            if a:
                t2[i : i + len(t1)] = [(c - a * b) % p for c, b in zip(t2[i : i + len(t1)], t1)]
        r0, r1, t0, t1 = r1, rem, t1, _trim(t2)
    inv = pow(den[-1], -1, p)
    return tuple(c * inv % p for c in num), tuple(c * inv % p for c in den)


def _dependency_mod(cols: list[list[int]], p: int):
    """Rank modulo p of columns c_0..c_m, and the b with
    sum_{j<m} b_j c_j = -c_m when c_0..c_{m-1} are independent and c_m lies
    in their span (None otherwise)."""
    m = len(cols) - 1
    rows = [list(r) for r in zip(*cols)]
    pivots = _rref_mod(rows, p)
    if pivots != list(range(m)):
        return len(pivots), None
    return m, [-rows[j][m] % p for j in range(m)]


def _tower_at(cols, x: int, p: int):
    """Tower columns (numerator and denominator residues) at x modulo p;
    None at a pole."""
    out = []
    for vec in cols:
        col = []
        for num, den in vec:
            d = _eval_mod(den, x, p)
            if not d:
                return None
            col.append(_eval_mod(num, x, p) * pow(d, -1, p) % p)
        out.append(col)
    return out


def _sym_image(tower, m: int, p: int, root: int, delta: list[int], poles: int):
    """The dependency sum_{j<m} b_j w^(j) + w^(m) = 0 of the tower modulo p,
    under i -> root, by Cauchy interpolation of each b_j.

    Points x = 2, 3, ... where a denominator vanishes, or where the
    first m columns are dependent, are skipped.  A point where the first
    m + 1 columns are independent proves that over Q(i)(t) too, so m grows
    and sampling restarts.  Points are added until two successive
    reconstructions of every b_j agree.  Returns (m, [(num_j, den_j)]), or
    None when p is unlucky: more points skipped than the denominators'
    roots (`poles`) and those of the Cramer denominator allow.  By Cramer's
    rule deg num_j + deg den_j <= T = sum_{i<=m} delta_i - delta_j
    + sum_{i<m} delta_i, with delta_i the degree of column i after clearing
    denominators.  Past 2 T points every reconstruction is the true one, so
    2 T + 3 points always suffice; more raise."""
    try:
        cols = [[(_poly_mod(e.num, p, root), _poly_mod(e.den, p, root))
                 for e in vec] for vec in tower]
    except ValueError:
        return None  # p divides a coefficient denominator
    x = 1
    while True:  # once per order m
        cramer = sum(delta[:m])
        T = cramer + sum(delta[: m + 1]) - min(delta[:m])
        skipped, xs, M = 0, [], [1]
        # the last sequence is sum_j 3^j b_j: until its reconstruction
        # settles, the b_j are not reconstructed one by one
        newton = [[] for _ in range(m + 1)]
        probe = recs = None
        while True:
            x += 1
            vals = _tower_at(cols[: m + 1], x, p)
            rank, b = (0, None) if vals is None else _dependency_mod(vals, p)
            if rank == m + 1:
                m += 1
                break
            if b is None:
                skipped += 1
                if skipped > poles + cramer:
                    return None
                continue
            b.append(sum(pow(3, j, p) * v for j, v in enumerate(b)) % p)
            invs = [pow(x - xi, -1, p) for xi in xs]
            for nw, v in zip(newton, b):
                for c, inv in zip(nw, invs):
                    v = (v - c) * inv % p
                nw.append(v)
            xs.append(x)
            if len(xs) > 2 * T + 3:
                raise RuntimeError("symmetric power exceeded its degree bound")
            M = _times_linear(M, x, p)
            if recs is None:
                new = _cauchy_mod(xs, newton[m], M, p)
                if new != probe:
                    probe = new
                    continue
            new = [_cauchy_mod(xs, nw, M, p) for nw in newton[:m]]
            if new == recs:
                return m, new
            recs = new


def _z_i(polys) -> list[tuple[list[int], list[int]]]:
    """Real and imaginary integer coefficients of the polynomials, all
    scaled by one positive integer."""
    re, im = _gaussian_integer_row([c for f in polys for c in f.coeffs])
    out, k = [], 0
    for f in polys:
        n = len(f.coeffs)
        out.append((re[k : k + n], im[k : k + n]))
        k += n
    return out


def _certified(tower, m: int, coeffs) -> bool:
    """sum_{j<m} b_j w^(j) + w^(m) = 0 exactly, for b_j = num_j / den_j.

    With D the lcm of the den_j, and each row of the tower brought to the
    lcm of its denominators, this is a polynomial identity per row; it is
    checked over Z[i] with products and sums only."""
    var = tower[0][0].var
    D = ExactPoly([1], var=var)
    for den in {den for _, den in coeffs}:
        D = D.lcm(den)
    lhs = _z_i([num * D.exact_div(den) for num, den in coeffs] + [D])
    for r in range(len(tower[0])):
        ents = [vec[r] for vec in tower[: m + 1]]
        E = ExactPoly([1], var=var)
        for den in {e.den for e in ents}:
            E = E.lcm(den)
        rhs = _z_i([e.num * E.exact_div(e.den) for e in ents])
        n = max(len(a) for a, _ in lhs) + max(len(a) for a, _ in rhs)
        tot_re, tot_im = [0] * n, [0] * n
        for (ar, ai), (br, bi) in zip(lhs, rhs):
            for i, (a, c) in enumerate(zip(ar, ai)):
                if a or c:
                    for k, (b, d) in enumerate(zip(br, bi), i):
                        tot_re[k] += a * b - c * d
                        tot_im[k] += a * d + c * b
        if any(tot_re) or any(tot_im):
            return False
    return True


def sym_power(L: DiffOperator, k: int) -> DiffOperator:
    """Minimal monic operator annihilating all k-fold products of solutions
    of L.

    The derivative tower of w = y^k is computed exactly in the monomial
    module.  The minimal order m and the coefficients of
    w^(m) + sum_j b_j w^(j) = 0 are found modulo primes p = 1 (mod 4), under
    both embeddings i -> +-sqrt(-1), by sampling at integer points and
    Cauchy interpolation; the coefficients are lifted to Q(i)(t) by CRT and
    rational reconstruction.  The result is returned only once it passes
    an exact substitution in the module; independence of w, ..., w^(m-1)
    is proved by their full rank modulo p at the sample points."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return DiffOperator(list(L.coeffs), var=L.var)
    _, tower = _sym_module(L, k)
    var = L.var
    dens = {e.den for vec in tower for e in vec}
    E = ExactPoly([1], var=var)
    for den in dens:
        E = E.lcm(den)
    delta = [
        max(0, E.degree + max(e.num.degree - e.den.degree for e in vec))
        for vec in tower
    ]
    poles = sum(den.degree for den in dens)

    m, best, acc = 1, None, None
    for n in itertools.count():
        p, s = _modulus(n)
        plus = _sym_image(tower, m, p, s, delta, poles)
        if plus is None:
            continue
        m = plus[0]
        minus = _sym_image(tower, m, p, p - s, delta, poles)
        if minus is None:
            continue
        if minus[0] > m:
            m = minus[0]
            continue  # the order grew: sample again under both embeddings
        shape = [(len(num), len(den)) for num, den in plus[1]]
        if shape != [(len(num), len(den)) for num, den in minus[1]]:
            continue
        # an unlucky prime gives lower degrees: keep the highest seen
        key = (m, sum(a + b for a, b in shape), shape)
        if best is not None and key < best:
            continue
        acc, vals = _lift_gaussian(
            acc if key == best else None, p, s,
            [c for num, den in plus[1] for c in num + den],
            [c for num, den in minus[1] for c in num + den],
        )
        best = key
        if vals is None:
            continue
        coeffs, pos = [], 0
        for a, b in shape:
            coeffs.append((ExactPoly(vals[pos : pos + a], var=var),
                           ExactPoly(vals[pos + a : pos + a + b], var=var)))
            pos += a + b
        if _certified(tower, m, coeffs):
            return DiffOperator(
                [ExactRatFunc(num, den) for num, den in coeffs]
                + [ExactRatFunc.coerce(1, var)],
                var=var,
            )


# ---------------------------------------------------------------------------
# Singularity analysis
# ---------------------------------------------------------------------------

@dataclass
class SingularityData:
    finite: list
    infinity: dict
    fuchsian: bool

    def all_finite_exponents(self) -> list:
        out = []
        for rec in self.finite:
            out.extend(rec["exponents"])
        return out

    def to_json(self) -> dict:
        return {
            "finite": [
                {
                    "factor": rec["factor"].to_json(),
                    "multiplicity": rec["multiplicity"],
                    "regular": rec["regular"],
                    "exponents": [str(e) for e in rec["exponents"]],
                    "num_points": rec["num_points"],
                }
                for rec in self.finite
            ],
            "infinity": {
                "regular": self.infinity["regular"],
                "algebraic_exponents": [
                    str(e) for e in self.infinity["algebraic_exponents"]
                ],
            },
            "fuchsian": self.fuchsian,
        }


def singularity_analysis(L: DiffOperator) -> SingularityData:
    """Finite singular points with exact exponents (shared across the roots
    of each squarefree factor, with factor splitting when they differ),
    regular/irregular classification, and the algebraic-growth exponents
    at infinity."""
    var = L.var
    polys = L.cleared()
    n = L.order
    lead = polys[n]

    finite = []
    for f, mlt in squarefree_decomposition(lead):
        if f.degree < 1:
            continue
        fm = f.monic()
        regular, exps = _local_data(polys, fm, var)
        if not regular:
            finite.append(
                {
                    "factor": fm,
                    "multiplicity": mlt,
                    "regular": False,
                    "exponents": [],
                    "num_points": fm.degree,
                }
            )
            continue
        # refine f into disjoint parts so each record carries the full
        # exponent list valid at all of its roots
        parts = [fm]
        for _v, g in exps:
            refined = []
            for p in parts:
                c = p.gcd(g)
                if 0 < c.degree < p.degree:
                    refined.extend([c, p.exact_div(c).monic()])
                else:
                    refined.append(p)
            parts = refined
        for p in parts:
            vals = [v for v, g in exps if (g % p).is_zero()]
            finite.append(
                {
                    "factor": p,
                    "multiplicity": mlt,
                    "regular": True,
                    "exponents": sorted(vals, key=lambda s: (s.re, s.im)),
                    "num_points": p.degree,
                }
            )

    inf_regular = all(
        polys[j].is_zero() or polys[j].degree <= lead.degree - (n - j)
        for j in range(n)
    )
    # algebraic growth t^{-alpha}: I(-alpha) = 0 for the slope-zero
    # indicial polynomial at infinity
    I = _infinity_indicial(polys)
    alg = []
    for cand in gaussian_roots(I):
        a = -cand
        if a not in alg:
            alg.append(a)
    fuchsian = inf_regular and all(rec["regular"] for rec in finite)
    return SingularityData(
        finite=finite,
        infinity={"regular": inf_regular, "algebraic_exponents": alg},
        fuchsian=fuchsian,
    )


def fuchsian_check(L: DiffOperator) -> dict:
    """Regular/irregular classification of every singular point."""
    data = singularity_analysis(L)
    return {
        "fuchsian": data.fuchsian,
        "finite": [
            {"factor": str(rec["factor"]), "regular": rec["regular"]}
            for rec in data.finite
        ],
        "infinity_regular": data.infinity["regular"],
    }


# ---------------------------------------------------------------------------
# Case-2 exponent bookkeeping
# ---------------------------------------------------------------------------

def case2_obstruction(
    L: DiffOperator, symL: DiffOperator, sing: SingularityData
) -> GaloisVerdict:
    """Exponent bookkeeping for the symmetric-power obstruction.

    A candidate solution P(t) prod_i (t - t_i)^{a_i} of the symmetric power
    needs half-integer local exponents a_i.  When every admissible exponent
    is a non-negative integer the candidate is a polynomial, whose degree
    must appear as minus an exponent at infinity; if no exponent at
    infinity is a non-positive integer, the case is excluded."""
    exps = sing.all_finite_exponents()
    half_int = [e for e in exps if e.is_real() and (2 * e.re).denominator == 1]
    fractional = [e for e in half_int if e.re.denominator != 1 or e.re < 0]
    ev = {
        "criterion": "sym_power_exponent_bookkeeping",
        "finite_exponent_values": sorted({str(e) for e in exps}),
        "alpha_infinity": [str(a) for a in sing.infinity["algebraic_exponents"]],
    }
    if fractional or any(not rec["regular"] for rec in sing.finite):
        return GaloisVerdict(
            "Inconclusive", ev | {"reason": "non-polynomial candidates possible"}
        )
    feasible_degrees = [
        int(-a.re)
        for a in sing.infinity["algebraic_exponents"]
        if a.is_real() and a.re.denominator == 1 and a.re <= 0
    ]
    if feasible_degrees:
        return GaloisVerdict(
            "Inconclusive",
            ev
            | {
                "reason": "polynomial degree match possible",
                "feasible_degrees": feasible_degrees,
            },
        )
    return GaloisVerdict("NotSolvableIdentityComponent", ev | {"case2": "excluded"})


# ---------------------------------------------------------------------------
# Orchestrated verdict for the third-order reduced equation
# ---------------------------------------------------------------------------

def o3r_operator() -> DiffOperator:
    """The third-order reduced operator of the resonant mass-ratio branch,
    derived through the actual reduction chain rather than hard-coded."""
    sys = variational.ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    g = variational.gauge_transform(sys, variational.reduction_gauge_resonant())
    ode = variational.cyclic_to_scalar(g.subsystem(range(3)), 1)
    return variational.exp_substitution(
        ode, ExactPoly([0, 0, Fraction(2, 3)], var="tau")
    )


def liouvillian_verdict_o3r(operator: DiffOperator | None = None) -> GaloisVerdict:
    """Three-case Liouvillian analysis of the third-order reduced equation:
    no exponential solution (case 1), not Fuchsian so the fully-algebraic
    case is excluded (case 3), and symmetric-cube exponent bookkeeping
    (case 2)."""
    L = operator if operator is not None else o3r_operator()
    evidence = {"operator_order": L.order}

    sols = exp_solutions(L)
    evidence["case1"] = {
        "exponential_solutions": [str(r) for r, _ in sols],
        "excluded": not sols,
    }
    if sols:
        return GaloisVerdict("Inconclusive", evidence | {"reason": "case 1 fires"})

    fc = fuchsian_check(L)
    evidence["case3"] = {
        "fuchsian": fc["fuchsian"],
        "irregular_at_infinity": not fc["infinity_regular"],
        "excluded": not fc["fuchsian"],
    }
    if fc["fuchsian"]:
        return GaloisVerdict(
            "Inconclusive", evidence | {"reason": "case 3 not excluded"}
        )

    sym3 = sym_power(L, 3)
    sing = singularity_analysis(sym3)
    lead = sym3.cleared()[sym3.order]
    c2 = case2_obstruction(L, sym3, sing)
    evidence["case2"] = {
        "sym3_order": sym3.order,
        "singularity_polynomial": str(lead),
        "num_singular_points": sum(rec["num_points"] for rec in sing.finite),
        "finite_exponents": sorted({str(e) for e in sing.all_finite_exponents()}),
        "alpha_infinity": [str(a) for a in sing.infinity["algebraic_exponents"]],
        "excluded": c2.tag == "NotSolvableIdentityComponent",
    }
    if c2.tag != "NotSolvableIdentityComponent":
        return GaloisVerdict(
            "Inconclusive", evidence | {"reason": "case 2 not excluded"}
        )
    return GaloisVerdict("NotSolvableIdentityComponent", evidence)


# ---------------------------------------------------------------------------
# Exterior square and factorization of the transformed system
# ---------------------------------------------------------------------------

_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def exterior_square(A: ExactMatrix) -> ExactMatrix:
    """Induced system on 2-forms z_ij = y_i ^ y_j, component ordering
    (z01, z02, z03, z12, z13, z23):
    d z_ij = sum_k (A_ik z_kj + A_jk z_ik)."""
    if A.rows != 4 or A.cols != 4:
        raise ValueError("exterior square implemented for 4x4 systems")
    var = A.var
    zero = ExactRatFunc.coerce(0, var)
    idx, sign = {}, {}
    for s, (i, j) in enumerate(_PAIRS):
        idx[(i, j)] = idx[(j, i)] = s
        sign[(i, j)], sign[(j, i)] = 1, -1
    out = [[zero] * 6 for _ in range(6)]
    for s, (i, j) in enumerate(_PAIRS):
        for k in range(4):
            if k != j:
                t = idx[(k, j)]
                out[s][t] = out[s][t] + A[i, k] * ExactScalar(sign[(k, j)])
            if k != i:
                t = idx[(i, k)]
                out[s][t] = out[s][t] + A[j, k] * ExactScalar(sign[(i, k)])
    return ExactMatrix(out, var=var)


def _coerce_entry(y):
    if isinstance(y, str):
        return ExactRatFunc.coerce(ExactScalar.parse(y))
    return ExactRatFunc.coerce(y)


def plucker_check(Y) -> bool:
    """z03 z12 - z02 z13 + z23 z01 = 0, evaluated exactly."""
    v = [_coerce_entry(y) for y in Y]
    return (v[2] * v[3] - v[1] * v[4] + v[5] * v[0]).is_zero()


def _poly_vector_solutions(B: ExactMatrix, sprime: ExactRatFunc, degree_bound: int):
    """Exact polynomial vector solutions of v' = (B - s' I) v."""
    n = B.rows
    var = B.var
    C = [
        [
            B[i, j] - (sprime if i == j else ExactRatFunc.coerce(0, var))
            for j in range(n)
        ]
        for i in range(n)
    ]
    den = ExactPoly([1], var=var)
    for row in C:
        for c in row:
            den = den.lcm(c.den)
    Cp = [[c.num * den.exact_div(c.den) for c in row] for row in C]
    dmax = max((p.degree for row in Cp for p in row if not p.is_zero()), default=0)
    N = degree_bound
    ncols = n * (N + 1)
    rows_per = N + max(dmax, den.degree) + 2
    M = [[_ZERO] * ncols for _ in range(n * rows_per)]

    def col(i, s):
        return i * (N + 1) + s

    for i in range(n):
        off = i * rows_per
        # den * v_i' - sum_j Cp[i][j] v_j = 0, coefficientwise in t
        for s in range(1, N + 1):
            for d in range(den.degree + 1):
                c = den.coeff(d)
                if not c.is_zero():
                    M[off + d + s - 1][col(i, s)] = (
                        M[off + d + s - 1][col(i, s)] + c * ExactScalar(s)
                    )
        for j in range(n):
            p = Cp[i][j]
            if p.is_zero():
                continue
            for s in range(N + 1):
                for d in range(p.degree + 1):
                    c = p.coeff(d)
                    if not c.is_zero():
                        M[off + d + s][col(j, s)] = M[off + d + s][col(j, s)] - c
    out = []
    for v in scalar_nullspace(M)[0]:
        vec = [
            ExactPoly([v[col(i, s)] for s in range(N + 1)], var=var)
            for i in range(n)
        ]
        if any(not p.is_zero() for p in vec):
            out.append(vec)
    return out


def _normalize_direction(vec):
    """Scale a polynomial vector so the last nonzero entry of its leading
    coefficient vector is 1."""
    deg = max(p.degree for p in vec)
    lead = [p.coeff(deg) if p.degree == deg else _ZERO for p in vec]
    piv = max(i for i, c in enumerate(lead) if not c.is_zero())
    inv = lead[piv].inverse()
    return [p.scale(inv) for p in vec]


def system_exp_solutions(sys, degree_bound: int = 8) -> list:
    """Solutions Y = exp(s(t)) v(t) of y' = B y with polynomial vector v
    and polynomial exponent s.

    Candidate exponents come from the Newton polygons of the minimal
    scalar annihilators of the coordinates; directions are recovered
    exactly by undetermined coefficients and normalized so the last
    nonzero leading entry is one.  Returns (s, v) pairs."""
    B = sys if isinstance(sys, ExactMatrix) else sys.A
    n = B.rows
    var = B.var

    s_candidates = [ExactPoly((), var=var)]
    seen = {str(s_candidates[0])}
    for i in range(n):
        ode = _minimal_annihilator(B, i, var)
        for spoly in _poly_part_candidates(list(ode.coeffs), var):
            s = _integrate_poly(spoly)
            if str(s) not in seen:
                seen.add(str(s))
                s_candidates.append(s)

    results = []
    for s in s_candidates:
        sp = ExactRatFunc(s.derivative(), var=var)
        for vvec in _poly_vector_solutions(B, sp, degree_bound):
            results.append((s, _normalize_direction(vvec)))
    return results


@dataclass
class FactorizationBasis:
    Q: variational.GaugeMatrix
    complete: bool
    kernels: list


def factorization_basis(solutions) -> FactorizationBasis:
    """Change-of-basis matrix assembled from exterior-square exponential
    solutions.

    Each direction Y (ordered z01, z02, z03, z12, z13, z23) must satisfy
    the Pluecker quadric; the kernel of its 4x4 operator matrix supplies
    columns of Q.  Kernel vectors are scaled so their last nonzero
    coordinate is 1 and ordered by descending pivot index.  If the columns
    do not span, the basis is completed with unit vectors and flagged as
    partial (the factorization is then only block-triangular)."""
    cols = []
    kernels = []
    for Y in solutions:
        v = [_coerce_entry(y) for y in Y]
        if not plucker_check(v):
            raise ValueError("solution fails the Pluecker condition")
        z01, z02, z03, z12, z13, z23 = v
        zero = ExactRatFunc.coerce(0)
        M = ExactMatrix(
            [
                [z12, -z02, z01, zero],
                [z13, -z03, zero, z01],
                [z23, zero, -z03, z02],
                [zero, z23, -z13, z12],
            ]
        )
        canon = []
        for vec in M.nullspace():
            piv = max(i for i, c in enumerate(vec) if not c.is_zero())
            inv = vec[piv].inverse()
            canon.append(([c * inv for c in vec], piv))
        canon.sort(key=lambda p: -p[1])
        kernels.append([c for c, _ in canon])
        cols.extend(c for c, _ in canon)

    complete = (
        len(cols) == 4
        and ExactMatrix([[cols[j][i] for j in range(4)] for i in range(4)]).rank() == 4
    )
    if not complete:
        for i in range(4):
            if len(cols) == 4:
                break
            unit = [ExactRatFunc.coerce(1 if j == i else 0) for j in range(4)]
            trial = ExactMatrix(
                [
                    [(cols + [unit])[j][i2] for j in range(len(cols) + 1)]
                    for i2 in range(4)
                ]
            )
            if trial.rank() == len(cols) + 1:
                cols.append(unit)
    Qm = ExactMatrix([[cols[j][i] for j in range(4)] for i in range(4)])
    return FactorizationBasis(
        Q=variational.GaugeMatrix(Qm), complete=complete, kernels=kernels
    )
