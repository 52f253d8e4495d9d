"""Differential-Galois decision machinery: the parabolic-cylinder criterion,
exponential-solution search, symmetric powers with singularity analysis,
the exterior-square factorization, and the orchestrated verdicts.

All decisions are certified: a returned exponential solution carries an
exact substitution certificate, an empty search proves that no right factor
D - r with r in C(t) exists, or raises `IncompleteSearchError` when it could
not cover all of C(t), and the symmetric-power operator is certified by
exact substitution in the monomial module.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    Derivation,
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    clear_denominators,
    gaussian_roots,
    scalar_nullspace,
    squarefree_decomposition,
    tower_annihilator,
)
from . import variational
from .variational import DiffOperator, _minimal_annihilator, _row_module, _twist

__all__ = [
    "DiffOperator",
    "ParabolicParams",
    "SingularityData",
    "GaloisVerdict",
    "FactorizationBasis",
    "IncompleteSearchError",
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
    "plucker_quadric",
    "system_exp_solutions",
    "factorization_basis",
    "o3r_operator",
]

_ZERO = ExactScalar(0)


class IncompleteSearchError(ValueError):
    """The exponential-solution search found nothing, but could not cover
    every r in C(t); the message says what it left out."""


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
# Newton polygon at infinity, polynomial solutions, twisting
# ---------------------------------------------------------------------------

def _falling(j: int, var: str = "lam") -> ExactPoly:
    """Falling factorial lam (lam-1) ... (lam-j+1) as a polynomial."""
    out = ExactPoly([1], var=var)
    for s in range(j):
        out = out * ExactPoly([-s, 1], var=var)
    return out


def _infinity_indicial(polys) -> ExactPoly:
    """Slope-zero indicial polynomial I(N) at infinity: the leading
    coefficient of L(t^N) as a polynomial in N."""
    M = max(p.degree - j for j, p in enumerate(polys) if not p.is_zero())
    I = ExactPoly((), var="lam")
    for j, p in enumerate(polys):
        if not p.is_zero() and p.degree - j == M:
            I = I + _falling(j).scale(p.leading())
    return I


def _max_solution_degree(polys) -> int:
    """Largest degree a polynomial solution of sum_j c_j y^(j) = 0 can
    have, -1 if only y = 0: a solution t^N + ... leaves I(N) t^(N + M) as
    the leading term of L(y), so N is a nonnegative integer root of I."""
    return max((int(z.re) for z in gaussian_roots(_infinity_indicial(polys))
                if z.is_real() and z.re >= 0 and z.re.denominator == 1), default=-1)


def _polynomial_solutions(P, bounds, var) -> list:
    """Basis of the polynomial vectors v with sum_j P[j] v^(j) = 0, exact.

    Each P[j] is an n x n matrix of ExactPoly, and component i of v has
    degree at most bounds[i] (-1 makes it zero).  The unknowns are the
    coefficients of v, ordered by component and then by degree, and the
    basis is the reduced-echelon one that exact Gauss-Jordan elimination
    of their linear system over Q(i) gives (`scalar_nullspace`)."""
    n = len(bounds)
    cols = [(i, s) for i in range(n) for s in range(bounds[i] + 1)]
    if not cols:
        return []
    height = max(p.degree for Pj in P for row in Pj for p in row) + max(bounds) + 1
    rows = [[_ZERO] * len(cols) for _ in range(n * height)]
    for col, (i, s) in enumerate(cols):
        for j, Pj in enumerate(P[: s + 1]):
            fall = ExactScalar(math.perm(s, j))
            for r in range(n):
                for d, c in enumerate(Pj[r][i].coeffs):
                    if not c.is_zero():
                        row = rows[r * height + d + s - j]
                        row[col] = row[col] + c * fall
    out = []
    for v in scalar_nullspace(rows)[0]:
        coeffs = [[] for _ in range(n)]
        for (i, _s), c in zip(cols, v):
            coeffs[i].append(c)
        out.append([ExactPoly(cs, var=var) for cs in coeffs])
    return out


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


def _split_roots(f: ExactPoly):
    """The roots of f in Q(i), and whether they are all of its roots."""
    roots = gaussian_roots(f)
    return roots, len(roots) == f.exact_div(f.gcd(f.derivative())).degree


def _poly_part_candidates(polys, var, max_d=None):
    """Candidate polynomial parts s' of rational logarithmic derivatives,
    from the Newton polygon at infinity, recursively refined.  Each level
    fixes the term of degree d and refines below it, so the recursion ends
    after at most deg s' + 1 levels.

    polys are the cleared polynomial coefficients of an operator.  Returns
    (candidates, split): a dict from each candidate s', 0 first, to those
    coefficients twisted by s' (twisting by the leading term and then by a
    tail of the refined operator is one twist by their sum), and whether
    every edge polynomial, at every level, split over Q(i); if one did not,
    the candidates in C[t] that its other roots lead to are missing."""
    out = {ExactPoly((), var=var): polys}
    split = True
    for d, edge in _newton_polygon_slopes(polys):
        if max_d is not None and d > max_d:
            continue
        roots, ok = _split_roots(edge)
        split &= ok
        for rho in roots:
            if rho.is_zero():
                continue
            lead = ExactPoly.monomial(rho, d, var=var)
            twisted = _twist(polys, lead, var)
            if d == 0:
                out.setdefault(lead, twisted)
                continue
            sub, ok = _poly_part_candidates(twisted, var, max_d=d - 1)
            split &= ok
            for tail, op in sub.items():
                out.setdefault(lead + tail, op)
    return out, split


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

    Returns (regular, exponents, split) with exponents a list of pairs
    (value, subfactor): the ExactScalar exponent is valid at the roots of
    the subfactor (an exact divisor of f, found by gcd splitting when the
    exponents differ between roots).  split says whether the list holds
    every exponent, that is, whether all of them lie in Q(i)."""
    n = len(polys) - 1

    def mult(p, need=math.inf):
        """The multiplicity of f in p, or need if that is lower."""
        if p.is_zero():
            return math.inf
        m, q = 0, p
        while m < need:
            d, r = divmod(q, f)
            if not r.is_zero():
                return m
            q, m = d, m + 1
        return m

    mn = mult(polys[n])
    if not all(mult(polys[j], mn - (n - j)) >= mn - (n - j) for j in range(n)):
        return False, [], False
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
    return (True, *_solve_indicial(ind, f, var))


def _solve_indicial(ind, f: ExactPoly, var: str):
    """Roots in Q(i) of the indicial polynomial sum_k ind[k] lam^k over
    Q(i)[t]/(f), each with the divisor of f at whose points it is a root,
    and whether those are all of its roots in C; exact.  At a regular
    point the leading coefficient is nonzero at every root of f.  When each
    ind[k] is a constant alpha_k times it, the roots are those of
    sum alpha_k lam^k on all of f.
    Otherwise they are among the roots of det(sum_k lam^k M_k), the product
    of the indicial polynomials over the points of f, with M_k the
    multiplication by ind[k]; each is kept with gcd(f, its indicial),
    which is not 1."""
    lead = ind[-1]
    alpha = [c.leading() / lead.leading() if c else _ZERO for c in ind]
    if all(c == lead.scale(a) for c, a in zip(ind, alpha)):
        roots, split = _split_roots(ExactPoly(alpha, var="lam"))
        return [(v, f) for v in roots], split
    # column j of M_k holds the coefficients of ind[k] t^j mod f
    cols = [[(c * ExactPoly.monomial(1, j, var=var)) % f for c in ind]
            for j in range(f.degree)]
    det = ExactMatrix([
        [ExactPoly([col[k].coeff(i) for k in range(len(ind))], var="lam") for col in cols]
        for i in range(f.degree)
    ], var="lam").det()
    roots, split = _split_roots(det.num)
    out = []
    for v in roots:
        at_v = sum((c.scale(v**k) for k, c in enumerate(ind)), ExactPoly((), var=var))
        out.append((v, f.gcd(at_v)))
    return out, split


# ---------------------------------------------------------------------------
# Exponential solutions
# ---------------------------------------------------------------------------

def exp_solutions(L: DiffOperator) -> list:
    """Right factors D - r of L with r in C(t), each certified by exact
    substitution, as (r, certificate) pairs.  An empty list proves that
    there is none; a search that could not cover all of C(t) raises
    IncompleteSearchError instead of returning one.

    r = s' + tail + q'/q with s' the polynomial part, from the Newton
    polygon at infinity, and q a polynomial solution of L twisted by
    s' + tail.  The tail has a simple pole at each finite singular point
    whose residue is a local exponent there, which must lie in Q(i), at a
    regular point.  Exponents in one class modulo Z differ by the order of
    a root of q, so each part of `singularity_analysis` offers the least
    exponent of each class, and no pole for the integer class when its
    least exponent is nonnegative.  A part with two or more choices is
    split into its points in Q(i), and the rest, at whose points the
    residue is then taken to be the same.  For each choice of s' and the
    tail, one r is returned for each basis vector of the solutions q."""
    var = L.var
    incomplete = []
    pieces = []  # (squarefree factor, residue choices at its points)
    for rec in singularity_analysis(L).finite:
        f = rec["factor"]
        if not rec["regular"]:
            incomplete.append(f"irregular singular point at the roots of {f}")
            continue
        if not rec["split"]:
            incomplete.append(f"local exponent outside Q(i) at the roots of {f}")
        least = {}  # the exponents are sorted, so the first of a class is least
        for v in rec["exponents"]:
            least.setdefault((v.re - math.floor(v.re), v.im), v)
        choices = [None if key == (0, 0) and v.re >= 0 else v for key, v in least.items()]
        if len(choices) < 2:
            pieces.append((f, choices))
            continue
        roots, split = _split_roots(f)
        for z in roots:
            lin = ExactPoly([-z, 1], var=var)
            pieces.append((lin, choices))
            f = f.exact_div(lin)
        if not split:
            incomplete.append(f"residues may differ between the roots of {f}")
            pieces.append((f, choices))

    results = []
    seen = set()
    for combo in itertools.product(*(choices for _f, choices in pieces)):
        tail = ExactRatFunc.coerce(0, var)
        for (f, _), v in zip(pieces, combo):
            if v is not None:
                tail = tail + ExactRatFunc(f.derivative().scale(v), f, var=var)
        # the twist by a zero tail is the identity
        base = clear_denominators(_twist(L.coeffs, tail, var), var)[1] if tail else L.cleared()
        cands, split = _poly_part_candidates(base, var)
        if not split:
            incomplete.append("edge polynomial at infinity outside Q(i)")
        for spoly, tp in cands.items():
            bound = _max_solution_degree(tp)
            for (q,) in _polynomial_solutions([[[c]] for c in tp], [bound], var):
                r = (
                    ExactRatFunc(spoly, var=var)
                    + tail
                    + ExactRatFunc(q.derivative(), q, var=var)
                )
                key = str(r)
                if key not in seen and L.apply_exp_ansatz(r).is_zero():
                    seen.add(key)
                    results.append((r, {"poly_part": spoly, "poly_factor": q}))
    if incomplete and not results:
        raise IncompleteSearchError("; ".join(dict.fromkeys(incomplete)))
    return results


# ---------------------------------------------------------------------------
# Symmetric powers
# ---------------------------------------------------------------------------

def _sym_module(L: DiffOperator, k: int):
    """(w, der) for tower_annihilator: w = y^k in the monomial module, and
    its derivation v' + act(v) / d as a Derivation, built once, with L
    cleared to polynomials a_0, ..., a_n, d = a_n monic, and
    y^(o) -> y^(o+1) = d y^(o+1) / d, or -sum_j a_j y^(j) / d for
    o = n - 1, at each place of a monomial: act sends basis monomial b to
    the sum of those terms, entry (b, b') of act summing the ones at b'.

    Basis: size-k multisets of derivative orders < n, as sorted tuples."""
    n = L.order
    var = L.var
    basis = sorted(itertools.combinations_with_replacement(range(n), k))
    index = {b: i for i, b in enumerate(basis)}
    *low, d = L.cleared()
    red = [(j, -a) for j, a in enumerate(low) if a]
    act = {}
    for source, b in enumerate(basis):
        for pos, o in enumerate(b):
            for j, e in ([(o + 1, d)] if o + 1 < n else red):
                key = (source, index[tuple(sorted(b[:pos] + (j,) + b[pos + 1 :]))])
                act[key] = act[key] + e if key in act else e
    w = [ExactPoly((), var=var)] * len(basis)
    w[index[(0,) * k]] = ExactPoly.constant(1, var=var)
    return w, Derivation.of(d, act, len(basis))


def sym_power(L: DiffOperator, k: int) -> DiffOperator:
    """Minimal monic operator annihilating all k-fold products of solutions
    of L: the first dependency in the derivative tower of w = y^k in the
    monomial module, found and certified by `tower_annihilator`."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return DiffOperator(list(L.coeffs), var=L.var)
    return DiffOperator(tower_annihilator(*_sym_module(L, k)), var=L.var)


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


def singularity_analysis(L: DiffOperator) -> SingularityData:
    """Finite singular points with exact exponents (shared across the roots
    of each squarefree factor, with factor splitting when they differ),
    regular/irregular classification, and the algebraic-growth exponents
    at infinity.  Each finite record also says, under "split", whether its
    exponent list holds every local exponent, that is, whether all of them
    lie in Q(i)."""
    var = L.var
    polys = L.cleared()
    n = L.order
    lead = polys[n]

    finite = []
    for f, mlt in squarefree_decomposition(lead):
        if f.degree < 1:
            continue
        fm = f.monic()
        regular, exps, split = _local_data(polys, fm, var)
        if not regular:
            finite.append(
                {
                    "factor": fm,
                    "multiplicity": mlt,
                    "regular": False,
                    "exponents": [],
                    "num_points": fm.degree,
                    "split": False,
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
                    "split": split,
                }
            )

    inf_regular = all(
        polys[j].is_zero() or polys[j].degree <= lead.degree - (n - j)
        for j in range(n)
    )
    # algebraic growth t^{-alpha}: I(-alpha) = 0 for the slope-zero
    # indicial polynomial at infinity
    I = _infinity_indicial(polys)
    alg = [-cand for cand in gaussian_roots(I)]
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

def case2_obstruction(sing: SingularityData) -> GaloisVerdict:
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
    """The third-order reduced operator of the resonant mass-ratio branch:
    the end of resonant_reduction, the chain `ve` prints, on the A1 block of
    the mu = -1, tau0 = 1 system."""
    a1 = variational.ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    return variational.resonant_reduction(a1)[2]


def liouvillian_verdict_o3r(operator: DiffOperator | None = None) -> GaloisVerdict:
    """Three-case Liouvillian analysis of the third-order reduced equation:
    no exponential solution (case 1), not Fuchsian so the fully-algebraic
    case is excluded (case 3), and symmetric-cube exponent bookkeeping
    (case 2).

    The case-1 search is complete only where every finite singular point
    is regular, so an irregular one makes the verdict Inconclusive, as
    does any other part of C(t) that `exp_solutions` could not search."""
    L = operator if operator is not None else o3r_operator()
    evidence = {"operator_order": L.order}

    fc = fuchsian_check(L)
    irregular = [rec["factor"] for rec in fc["finite"] if not rec["regular"]]
    if irregular:
        evidence["case1"] = {"excluded": False, "irregular_finite_points": irregular}
        return GaloisVerdict("Inconclusive", evidence | {
            "reason": "irregular finite singular point: case-1 search incomplete"})

    try:
        sols = exp_solutions(L)
    except IncompleteSearchError as e:
        evidence["case1"] = {"excluded": False, "incomplete": str(e)}
        return GaloisVerdict("Inconclusive", evidence | {
            "reason": "case-1 search incomplete"})
    evidence["case1"] = {
        "exponential_solutions": [str(r) for r, _ in sols],
        "excluded": not sols,
    }
    if sols:
        return GaloisVerdict("Inconclusive", evidence | {"reason": "case 1 fires"})

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
    c2 = case2_obstruction(sing)
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


def plucker_quadric(Y) -> ExactRatFunc:
    """z03 z12 - z02 z13 + z23 z01, evaluated exactly."""
    z01, z02, z03, z12, z13, z23 = (_coerce_entry(y) for y in Y)
    return z03 * z12 - z02 * z13 + z23 * z01


def plucker_check(Y) -> bool:
    """The Pluecker quadric vanishes."""
    return plucker_quadric(Y).is_zero()


def _normalize_direction(vec):
    """Scale a polynomial vector so the last nonzero entry of its leading
    coefficient vector is 1."""
    deg = max(p.degree for p in vec)
    lead = [p.coeff(deg) if p.degree == deg else _ZERO for p in vec]
    piv = max(i for i, c in enumerate(lead) if not c.is_zero())
    inv = lead[piv].inverse()
    return [p.scale(inv) for p in vec]


def system_exp_solutions(sys) -> list:
    """Solutions Y = exp(s(t)) v(t) of y' = B y with polynomial vector v
    and polynomial exponent s, as (s, v) pairs.

    Component i of such a solution is exp(s) v_i, a solution of the minimal
    scalar annihilator L_i of coordinate i.  If v_i is not zero, s' is
    therefore among the candidate polynomial parts of L_i, and v_i is a
    polynomial solution of L_i twisted by s', so its degree is a nonnegative
    integer root of that operator's indicial polynomial at infinity.  Each
    component is searched up to that bound, and set to zero where s' is no
    candidate of L_i or the root does not exist; no solution with s' in
    Q(i)[t], the class searched, is missed, so an edge polynomial that does
    not split over Q(i) flags nothing here.  Coordinates whose annihilators
    are equal share one candidate search, and one degree bound for each
    candidate.  The directions v are recovered
    exactly by undetermined coefficients in den v' - den (B - s' I) v = 0
    and normalized so the last nonzero leading entry is one."""
    B = sys if isinstance(sys, ExactMatrix) else sys.A
    n = B.rows
    var = B.var

    rows = _row_module(B, var)
    searches = {}  # cleared annihilator, as (re, im, d) tuples -> its candidates
    keys = []  # the annihilator of each coordinate
    for i in range(n):
        polys = _minimal_annihilator(rows, i).cleared()
        key = tuple((p.re, p.im, p.d) for p in polys)
        if key not in searches:
            searches[key] = _poly_part_candidates(polys, var)[0]
        keys.append(key)
    # 0 first, then each coordinate's candidates in order
    spolys = list(dict.fromkeys(p for key in keys for p in searches[key]))

    zero = ExactPoly((), var=var)
    results = []
    for spoly in spolys:
        degree = {key: _max_solution_degree(cs[spoly]) if spoly in cs else -1
                  for key, cs in searches.items()}
        bounds = [degree[key] for key in keys]
        spr = ExactRatFunc(spoly, var=var)
        den, flat = clear_denominators(
            [B[i, j] - spr if i == j else B[i, j] for i in range(n) for j in range(n)],
            var,
        )
        P0 = [[-p for p in flat[i * n : (i + 1) * n]] for i in range(n)]
        P1 = [[den if i == j else zero for j in range(n)] for i in range(n)]
        for v in _polynomial_solutions([P0, P1], bounds, var):
            results.append((_integrate_poly(spoly), _normalize_direction(v)))
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
    coordinate is 1 and ordered by descending pivot index.  Each kernel is
    an invariant plane, so when two kernels have rank 4 together, Q is the
    first such pair, the transformed system is block diagonal and the basis
    complete.  (Four kernel columns from three planes need not do that.)
    Otherwise Q takes each kernel column, and then each unit vector, that
    raises the rank of those taken before, so it is invertible, and the
    basis is partial: the factorization is then at best block-triangular."""
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

    def independent(trial):
        return ExactMatrix(list(zip(*trial))).rank() == len(trial)

    pairs = (k1 + k2 for k1, k2 in itertools.combinations(kernels, 2))
    kept = next((q for q in pairs if independent(q)), None)
    complete = kept is not None
    if not complete:
        units = [[ExactRatFunc.coerce(1 if j == i else 0) for j in range(4)] for i in range(4)]
        kept = []
        for col in [c for k in kernels for c in k] + units:
            if len(kept) < 4 and independent(kept + [col]):
                kept.append(col)
    Qm = ExactMatrix(list(zip(*kept)))
    return FactorizationBasis(
        Q=variational.GaugeMatrix(Qm), complete=complete, kernels=kernels
    )
