import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heisenkep import exactalg, galois, variational
from heisenkep.exactalg import (
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    _certified,
    _derive,
    _GREW,
    _dependency_mod,
    _level,
    _modulus,
    _poly_mod,
    _residues,
    clear_denominators,
    scalar_nullspace,
)
from heisenkep.galois import (
    DiffOperator,
    _integrate_poly,
    _normalize_direction,
    _poly_part_candidates,
    _sym_module,
    FactorizationBasis,
    GaloisVerdict,
    IncompleteSearchError,
    ParabolicParams,
    SingularityData,
    case2_obstruction,
    exp_solutions,
    exterior_square,
    factorization_basis,
    fuchsian_check,
    gaussian_roots,
    liouvillian_verdict_o3r,
    o3r_operator,
    parabolic_from_ode,
    plucker_check,
    plucker_quadric,
    rehm_classify,
    singularity_analysis,
    sym_power,
    system_exp_solutions,
)
from heisenkep.heisenmodel import SystemSpec
from heisenkep.variational import (LinearSystem, _minimal_annihilator, _row_module,
                                   gauge_transform, ve_along)

import oracles

I = ExactScalar(0, 1)

small_den_fracs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
gaussian_rationals = st.builds(ExactScalar, small_den_fracs, small_den_fracs)
wide_fracs = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))
wide_gaussian_rationals = st.builds(ExactScalar, wide_fracs, wide_fracs)
any_gaussian_rationals = st.one_of(gaussian_rationals, wide_gaussian_rationals)
# factors with no root in Q(i)
ROOTLESS = [ExactPoly([1]), ExactPoly([-2, 0, 1]), ExactPoly([1, 1, 1]),
            ExactPoly([ExactScalar(0, -2), 0, 0, 1])]


@pytest.fixture(scope="module")
def o3r():
    return o3r_operator()


@pytest.fixture(scope="module")
def sym3(o3r):
    return sym_power(o3r, 3)


@pytest.fixture(scope="module")
def verdict():
    return liouvillian_verdict_o3r()


# -- operator type ----------------------------------------------------------

def test_operator_monic_normalization():
    L = DiffOperator([2, 4, 2])
    assert L.order == 2
    assert L.coeff(0) == ExactRatFunc.coerce(1)
    assert L.coeff(1) == ExactRatFunc.coerce(2)


def test_operator_cleared_removes_denominators():
    t = ExactPoly.x()
    L = DiffOperator([ExactRatFunc(ExactPoly([1]), t), 0, 1])
    polys = L.cleared()
    assert polys[2] == t
    assert polys[0] == ExactPoly([1])


def test_operator_rejects_trivial():
    with pytest.raises(ValueError):
        DiffOperator([1])


# -- parabolic cylinder criterion -------------------------------------------

def test_rehm_odd_ratio_is_inconclusive():
    p = ParabolicParams.from_alpha(2, 0, -2)
    assert p.ratio_squared() == ExactScalar(1)
    assert rehm_classify(p).tag == "Inconclusive"


def test_rehm_kepler_branch_not_solvable():
    # w'' + a^2 t^2 w = 0 with a = 2: alpha^2 = -4, beta = gamma = 0
    ode = DiffOperator([ExactPoly([0, 0, 4]), 0, 1])
    p = parabolic_from_ode(ode)
    assert p.alpha_sq == ExactScalar(-4)
    assert p.gamma == ExactScalar(0)
    v = rehm_classify(p)
    assert v.tag == "NotSolvableIdentityComponent"
    assert v.evidence["group"] == "SL(2,C)"


def test_rehm_two_body_branch_not_solvable():
    # w'' - (1+mu)[2 + (1+mu) tau^2] w = 0: ratio = -2 sgn(1+mu)
    mu = Fraction(1, 2)
    c0 = ExactPoly([-(1 + mu) * 2, 0, -((1 + mu) ** 2)], var="tau")
    p = parabolic_from_ode(DiffOperator([c0, 0, 1], var="tau"))
    assert p.alpha_sq == ExactScalar((1 + mu) ** 2)
    assert p.gamma == ExactScalar(2 * (1 + mu))
    assert rehm_classify(p).tag == "NotSolvableIdentityComponent"


def test_rehm_sign_invariance():
    a = ParabolicParams.from_alpha(Fraction(3, 2), Fraction(1, 3), 5)
    b = ParabolicParams.from_alpha(Fraction(-3, 2), Fraction(-1, 3), 5)
    assert a == b
    assert rehm_classify(a).tag == rehm_classify(b).tag


@settings(max_examples=60, deadline=None)
@given(any_gaussian_rationals.filter(bool), any_gaussian_rationals,
       any_gaussian_rationals, st.booleans(), st.integers(-5, 4))
def test_rehm_agrees_with_kovacic_case_1(alpha, beta, gamma, plant, k):
    # y'' = (alpha^2 t^2 + 2 alpha beta t + gamma) y has an exponential
    # solution H(t + beta/alpha) exp(+-alpha (t + beta/alpha)^2 / 2) exactly
    # when (beta^2 - gamma)/alpha is an odd integer; plant one in half the draws
    if plant:
        gamma = beta * beta - ExactScalar(2 * k + 1) * alpha
    p = ParabolicParams.from_alpha(alpha, beta, gamma)
    L = DiffOperator([-ExactPoly([p.gamma, p.two_alpha_beta, p.alpha_sq]), 0, 1])
    assert (exp_solutions(L) != []) == (rehm_classify(p).tag == "Inconclusive")


def test_parabolic_from_ode_rejections():
    with pytest.raises(ValueError):
        parabolic_from_ode(DiffOperator([1, 0, 1]))  # alpha = 0
    with pytest.raises(ValueError):
        parabolic_from_ode(DiffOperator([ExactPoly([0, 0, 1]), 1, 1]))  # y' term
    with pytest.raises(ValueError):
        parabolic_from_ode(DiffOperator([0, 1]))  # wrong order


# -- exact roots ------------------------------------------------------------

def test_gaussian_roots_fourfold_root():
    r = ExactScalar(Fraction(7, 13))
    assert gaussian_roots(ExactPoly([-r, 1]) ** 4) == [r]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(any_gaussian_rationals, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 6), min_size=3, max_size=3),
    st.sampled_from(ROOTLESS),
)
# a denominator above 10^8, and two roots 10^-10 apart
@example([ExactScalar(Fraction(1, 10**9 + 7)), ExactScalar(Fraction(3, 10**6 + 3))],
         [1, 1, 1], ROOTLESS[0])
@example([ExactScalar(Fraction(1, 3)), ExactScalar(Fraction(1, 3) + Fraction(1, 10**10))],
         [1, 1, 1], ROOTLESS[0])
# three roots with parts near 10^12 at multiplicity 6, times t^3 - 2i: the
# squarefree gcd of this degree-21 input dominates the call
@example([ExactScalar(Fraction(123456789011, 999999999989), Fraction(-987654321019, 999999999959)),
          ExactScalar(Fraction(-555555555557, 777777777781), Fraction(1, 10**12 + 39)),
          ExactScalar(Fraction(10**12 - 11, 3), Fraction(999999999999, 10**12 - 17))],
         [6, 6, 6], ROOTLESS[3])
def test_gaussian_roots_ground_truth(roots, mults, rootless):
    p = rootless
    for r, m in zip(roots, mults):
        p = p * ExactPoly([-r, 1]) ** m
    assert gaussian_roots(p) == sorted(roots, key=lambda z: (z.re, z.im))


# -- exponential solutions --------------------------------------------------

def test_exp_solutions_constant_first_order():
    sols = exp_solutions(DiffOperator([-1, 1]))
    assert [str(r) for r, _ in sols] == ["1"]


def test_exp_solutions_gaussian_weight():
    # D + t annihilates exp(-t^2/2)
    sols = exp_solutions(DiffOperator([ExactPoly([0, 1]), 1]))
    assert [str(r) for r, _ in sols] == ["(-1)*t"]


def test_exp_solutions_apparent_singularity():
    # solutions t e^t: r = 1 + 1/t, residue from the local exponent at 0
    t = ExactPoly.x()
    r_true = ExactRatFunc(ExactPoly([1, 1]), t)
    sols = exp_solutions(DiffOperator([-r_true, 1]))
    assert [r for r, _ in sols] == [r_true]


@pytest.mark.parametrize("residue", [I, ExactScalar(1, 2)])
def test_exp_solutions_gaussian_residue(residue):
    # y = t^residue solves D - residue/t: a Gaussian exponent at t = 0
    r = ExactRatFunc(ExactPoly([residue]), ExactPoly.x())
    assert [found for found, _ in exp_solutions(DiffOperator([-r, 1]))] == [r]


def test_exp_solutions_residue_past_small_denominators():
    # residue 1/13 at 0 and 1/2 at the roots of t^2 + 1, so the exponents
    # differ between the points of t^3 + t
    r = (ExactRatFunc(ExactPoly([Fraction(1, 13)]), ExactPoly.x())
         + ExactRatFunc(ExactPoly.x(), ExactPoly([1, 0, 1])))
    L = DiffOperator([-r, 1])
    assert [found for found, _ in exp_solutions(L)] == [r]
    at_zero = [rec["exponents"] for rec in singularity_analysis(L).finite
               if rec["factor"] == ExactPoly.x()]
    assert at_zero == [[ExactScalar(Fraction(1, 13))]]


@pytest.mark.parametrize(
    "r,m",
    [
        # residue i at 0 with polynomial part 2t; M = D - 1/t
        (ExactRatFunc(ExactPoly([I, 0, 2]), ExactPoly.x()),
         ExactRatFunc(ExactPoly([1]), ExactPoly.x())),
        # residue (1 + i)/2 at 1 with polynomial part i; M = D - t
        (ExactRatFunc(ExactPoly([ExactScalar(Fraction(1, 2), Fraction(1, 2))]),
                      ExactPoly([-1, 1])) + ExactRatFunc(ExactPoly([I])),
         ExactRatFunc(ExactPoly.x())),
        # residues -i at 0 and i/2 at the roots of t^2 + 1, whose local
        # exponents differ between the points of t^3 + t; M = D - 2/t
        (ExactRatFunc(ExactPoly([-I]), ExactPoly([0, 1, 0, 1])),
         ExactRatFunc(ExactPoly([2]), ExactPoly.x())),
    ],
)
def test_exp_solutions_planted_gaussian_residue(r, m):
    # M (D - r) = D^2 - (r + m) D + (m r - r') has the right factor D - r
    L = DiffOperator([m * r - r.derivative(), -(r + m), 1])
    assert r in [found for found, _ in exp_solutions(L)]


def test_exp_solutions_constant_coefficients():
    sols = exp_solutions(DiffOperator([6, -5, 1]))
    assert sorted(str(r) for r, _ in sols) == ["2", "3"]


def test_exp_solutions_parabolic_cylinder_empty():
    assert exp_solutions(DiffOperator([ExactPoly([0, 0, 4]), 0, 1])) == []


def test_exp_solutions_o3r_empty(o3r):
    assert exp_solutions(o3r) == []


def test_exp_solutions_certificates(o3r):
    # every returned factor must satisfy the exact substitution identity
    L = DiffOperator([6, -5, 1])
    for r, cert in exp_solutions(L):
        assert L.apply_exp_ansatz(r).is_zero()
        assert "poly_part" in cert and "poly_factor" in cert


@pytest.mark.parametrize(
    "pcoeffs,qcoeffs",
    [
        ([0, 0, 0, 0, Fraction(1, 4)], [1]),           # exp(t^4/4)
        ([0, 2, 0, Fraction(-1, 3)], [3, 0, 1]),       # poly factor t^2+3
        ([0, I, Fraction(1, 2)], [1, 1]),              # Gaussian exponent
        ([0, 0, 0, Fraction(1, 3), 0], [2, -1, 0, 1]),
    ],
)
def test_exp_solutions_completeness_class(pcoeffs, qcoeffs):
    # first-order operators annihilating q(t) exp(p(t)), deg p <= 4
    p = ExactPoly(pcoeffs)
    q = ExactPoly(qcoeffs)
    r = ExactRatFunc(p.derivative()) + ExactRatFunc(q.derivative(), q)
    L = DiffOperator([-r, 1])
    assert any(found == r for found, _ in exp_solutions(L))


@pytest.mark.parametrize("n", [13, 14, 16])
def test_exp_solutions_high_degree_polynomial_part(n):
    # D - (1 + t + ... + t^(n-1)): the polynomial part is found one term
    # per recursion level, with no cap on the number of levels
    r = ExactRatFunc(ExactPoly([1] * n))
    assert [found for found, _ in exp_solutions(DiffOperator([-r, 1]))] == [r]


_PLANT_POINTS = [0, 1, -1, Fraction(1, 2), 2]
_PLANT_RESIDUES = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), 2, -1]
# (constant, [(point, residue), ...]): r = constant + sum residue/(t - point)
planted_logderivs = st.tuples(
    st.sampled_from([0, 1, -1, Fraction(1, 2)]),
    st.lists(st.tuples(st.sampled_from(_PLANT_POINTS), st.sampled_from(_PLANT_RESIDUES)),
             min_size=1, max_size=2, unique_by=lambda zr: zr[0]),
)


def _logderiv(constant, poles):
    return sum((ExactRatFunc(ExactPoly([res]), ExactPoly([-z, 1])) for z, res in poles),
               ExactRatFunc.coerce(constant))


@settings(max_examples=40, deadline=None)
@given(planted_logderivs, planted_logderivs)
# residue 1/2 at 1 for the one and at -1 for the other, both on t^2 - 1
@example((0, [(1, Fraction(1, 2))]), (0, [(-1, Fraction(1, 2))]))
def test_exp_solutions_planted_factor_pair(first, second):
    # L = (D - a)(D - r1) with a = r2 + u'/u, u = r2 - r1, is solved by
    # exp(int r1) and by exp(int r2), since (D - r1) exp(int r2) = u exp(int r2).
    # When y2/y1 is rational (equal constants, residues differing by
    # integers) the two lie in one pencil y1 (c1 + c2 q), of which
    # exp_solutions returns a basis rather than every member, so such pairs
    # are not drawn.
    residues = [dict(poles) for _c, poles in (first, second)]
    assume(first[0] != second[0] or any(
        (residues[0].get(z, 0) - residues[1].get(z, 0)).denominator != 1
        for z in _PLANT_POINTS))
    r1, r2 = _logderiv(*first), _logderiv(*second)
    u = r2 - r1
    a = r2 + u.derivative() / u
    L = DiffOperator([a * r1 - r1.derivative(), -(a + r1), 1])
    found = [r for r, _ in exp_solutions(L)]
    assert r1 in found and r2 in found


def test_exp_solutions_irregular_point_raises():
    # exp(-1/t) solves D - 1/t^2, and its logarithmic derivative has a double
    # pole at the irregular point t = 0, which the residue search cannot offer
    t = ExactPoly.x()
    with pytest.raises(IncompleteSearchError, match="irregular"):
        exp_solutions(DiffOperator([ExactRatFunc(ExactPoly([-1]), t * t), 1]))


# -- symmetric powers -------------------------------------------------------

def test_solve_dependency():
    p = _modulus(0)[0]
    cols = [[1, 0, 0], [0, 1, 0], [1, 2, 0]]
    assert _dependency_mod(cols, None, p) == ([p - 1, p - 2], 1, [0, 1, 2])
    # rows 1 and 0 first: their minor [[0, 1], [1, 0]] has determinant -1
    assert _dependency_mod(cols, [1, 0, 2], p) == ([p - 1, p - 2], p - 1, [0, 1, 2])
    # rows 2 and 0 first: a singular minor
    assert _dependency_mod(cols, [2, 0, 1], p) is None
    # the leading columns are dependent
    assert _dependency_mod([[1, 2, 0], [2, 4, 0], [0, 0, 1]], None, p) is None
    # the last column lies outside their span: full rank
    assert _dependency_mod([[1, 0, 0], [0, 1, 0], [0, 0, 1]], None, p) is _GREW


def test_sym_square_of_free_particle():
    S = sym_power(DiffOperator([0, 0, 1]), 2)
    assert S.order == 3
    assert all(S.coeff(j).is_zero() for j in range(3))


def test_sym_one_is_identity(o3r):
    assert sym_power(o3r, 1) == o3r


def test_sym_power_constant_coefficient_property():
    # solutions e^t, e^2t; products e^{i+j}t must be annihilated
    S = sym_power(DiffOperator([2, -3, 1]), 2)
    assert S.order == 3
    for lam in (2, 3, 4):
        tot = sum(
            (S.coeff(j) * ExactScalar(lam**j) for j in range(S.order + 1)),
            ExactRatFunc.coerce(0),
        )
        assert tot.is_zero()


def test_sym_cube_order_and_lead(sym3):
    assert sym3.order == 10
    lead = sym3.cleared()[10]
    assert lead.degree == 15
    # monic normalization of the singular-point polynomial
    assert lead.leading() == ExactScalar(1)
    assert lead.coeff(13) == ExactScalar(Fraction(-1415, 18))
    assert lead.coeff(11) == ExactScalar(Fraction(64070, 27))
    assert lead.coeff(0).is_zero()  # tau = 0 is a singular point


def test_sym_power_skips_prime_dividing_a_denominator():
    # y'' + y/p with p the first modulus: sym^2 is D^3 + (4/p) D
    p = _modulus(0)[0]
    S = sym_power(DiffOperator([Fraction(1, p), 0, 1]), 2)
    assert S.order == 3
    assert S.coeff(1) == ExactRatFunc.coerce(Fraction(4, p))
    assert S.coeff(0).is_zero() and S.coeff(2).is_zero()


def test_poly_mod_images_and_primes_dividing_a_denominator():
    p, root = 13, 5  # 5^2 = -1 (mod 13)
    rng = random.Random(11)
    for _ in range(50):
        f = ExactPoly([
            ExactScalar(
                Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12))),
                Fraction(rng.randint(-40, 40), rng.choice((1, 4, 5, 9, 11))),
            )
            for _ in range(4)
        ])
        # the images computed from the Fraction parts
        want = [
            (c.re.numerator * pow(c.re.denominator, -1, p)
             + root * c.im.numerator * pow(c.im.denominator, -1, p)) % p
            for c in f.coeffs
        ]
        assert _poly_mod(f.re, f.im, p, root, pow(f.d, -1, p)) == want
    # a tower level over a denominator that p divides is not reduced
    for bad in (
        ExactScalar(Fraction(1, 26)),
        ExactScalar(1, Fraction(2, 13)),
        ExactScalar(Fraction(1, 2), Fraction(5, 39)),
    ):
        with pytest.raises(ValueError):
            _residues({}, [_level([ExactPoly([1, bad])])], ([1], [0]), p, root)


@st.composite
def operators_with_a_pole(draw):
    """(L, k): L of order 2 or 3 with polynomial coefficients of degree
    below 3, the leading one not constant, and k = 2 or 3."""
    n = draw(st.sampled_from((2, 3)))
    small = st.builds(ExactScalar, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                      st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))
    low = [ExactPoly(draw(st.lists(small, max_size=3))) for _ in range(n)]
    lead = ExactPoly(draw(st.lists(small, min_size=1, max_size=2))
                     + [draw(small.filter(bool))])
    return DiffOperator(low + [lead]), draw(st.sampled_from((2, 3)))


@settings(max_examples=30, deadline=None)
@given(operators_with_a_pole())
# a Gaussian d = t + 3/4 + (3/2) i, whose DA is 4
@example((DiffOperator([ExactPoly([ExactScalar(0, Fraction(1, 2))]), ExactPoly([1, Fraction(1, 3)]),
                        ExactPoly([ExactScalar(Fraction(1, 2), 1), Fraction(2, 3)])]), 3))
def test_sym_module_numerators_match_the_rational_tower(drawn):
    # the tower of y^k as levels N_j over dz^j, dz = DA d for d the leading
    # coefficient of L cleared and DA a positive integer, equals entry by
    # entry the tower derived in ExactRatFunc arithmetic
    L, k = drawn
    w, der = _sym_module(L, k)
    dz = oracles.level_polys(([der.dz], 1))[0]
    assume(dz.degree > 0)
    DA = dz.leading()
    assert DA.d == 1 and DA.b == 0 and DA.a > 0
    assert dz.scale(DA.inverse()) == L.cleared()[-1]
    v, d_vec = oracles.sym_module(L, k)
    level = _level(w)
    for j in range(4):
        assert [ExactRatFunc(f, dz**j) for f in oracles.level_polys(level)] == v
        level, v = _derive(level, j, der), d_vec(v)


def test_sym_power_certificate_rejects_a_wrong_coefficient():
    L = _euler_operator((0, Fraction(1, 2)), 2)
    S = sym_power(L, 2)
    w, der = _sym_module(L, 2)
    tower = [_level(w)]
    for j in range(S.order):
        tower.append(_derive(tower[-1], j, der))
    coeffs = [(c.num, c.den) for c in S.coeffs[:-1]]
    assert _certified(tower, der.dz, S.order, coeffs)
    num, den = coeffs[1]
    coeffs[1] = (num + ExactPoly([Fraction(1, 10**9)]), den)
    assert not _certified(tower, der.dz, S.order, coeffs)


def _count_image_points(monkeypatch) -> list:
    """A list that each _tower_image call appends (length of the tower,
    prime, sample points taken) to."""
    points, images = [0], []
    tower_at, image = exactalg._tower_at, exactalg._tower_image

    def count_points(*args):
        points[0] += 1
        return tower_at(*args)

    def count_images(cache, tower, d, p, root, T, skips):
        before = points[0]
        out = image(cache, tower, d, p, root, T, skips)
        images.append((len(tower), p, points[0] - before))
        return out

    monkeypatch.setattr(exactalg, "_tower_at", count_points)
    monkeypatch.setattr(exactalg, "_tower_image", count_images)
    return images


def test_sym_cube_work_counts(o3r, sym3, monkeypatch):
    # deterministic work counts of the symmetric cube: sample points of each
    # image at the final order (41 while each b_j was a rational
    # reconstruction, 24 since its Cramer polynomials are interpolated:
    # deg Delta = 15 and deg P_j <= 22), reductions of tower entries modulo
    # a prime (1960 before residues were kept), each entry reduced once per
    # prime and embedding, and primes at the final order (2 before
    # reconstruction guessed past the balanced bound).  The tower is
    # polynomial numerators over powers of one dz, so each entry is one
    # reduction, and dz one more (2 x 10 x 11 while each entry was a
    # numerator and a denominator)
    reductions = {}
    poly_mod = exactalg._poly_mod

    def count_poly_mod(re, im, p, root, *scale):
        reductions[p, root] = reductions.get((p, root), 0) + 1
        return poly_mod(re, im, p, root, *scale)

    monkeypatch.setattr(exactalg, "_poly_mod", count_poly_mod)
    images = _count_image_points(monkeypatch)
    assert sym_power(o3r, 3) == sym3
    final = max(n for n, _, _ in images)
    assert len({p for n, p, _ in images if n == final}) == 1
    assert all(k <= 26 for n, _, k in images if n == final)
    assert sum(reductions.values()) <= 1000
    # the 10 entries of each of the 11 vectors, and d
    assert set(reductions.values()) == {10 * 11 + 1}


def test_factorize_default_tower_work_counts(weil_block, monkeypatch):
    # sample points of each image at the final order of the six minimal
    # annihilators of factorize_default's exterior square, one per
    # coordinate: at most what each took while the towers were derived in
    # ExactRatFunc arithmetic, with one prime and one image (the towers are
    # real) at that order
    E = exterior_square(weil_block.A)
    images = _count_image_points(monkeypatch)
    rows = _row_module(E, E.var)
    for i, (order, most) in enumerate([(3, 7), (3, 4), (5, 6), (5, 6), (3, 10), (3, 7)]):
        images.clear()
        assert _minimal_annihilator(rows, i).order == order
        final = [k for n, _, k in images if n == order + 1]
        assert len(final) == 1 and final[0] <= most


def test_sym_power_bounds_the_primes(monkeypatch):
    # a certificate that never passes must end in an error, not a search
    # over primes without end
    monkeypatch.setattr(exactalg, "_certified", lambda tower, d, m, coeffs: False)
    with pytest.raises(RuntimeError):
        sym_power(DiffOperator([0, 0, 1]), 2)


def test_sym_cube_digest(sym3):
    # the whole symmetric cube, byte for byte
    doc = json.dumps(sym3.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "9f2333402c82f0a7889b658af8c2b9806174aad1e7ff30bd8915d12d42f56f0b"
    )


def _falling(r, j):
    return math.prod((r - i for i in range(j)), start=Fraction(1))


def _euler_operator(exps, shift):
    """Euler operator in u = t - shift with local exponents `exps` at u = 0:
    sum_j a_j u^j D^j, with sum_j a_j r(r-1)...(r-j+1) = prod (r - e)."""
    n = len(exps)
    vals = [math.prod((r - e for e in exps), start=Fraction(1)) for r in range(n + 1)]
    a = [
        sum((-1) ** (j - i) * math.comb(j, i) * vals[i] for i in range(j + 1))
        / math.factorial(j)
        for j in range(n + 1)
    ]
    u = ExactPoly([-shift, 1])
    return DiffOperator([ExactRatFunc(ExactPoly([a[j]]), u ** (n - j)) for j in range(n)] + [1])


def _check_sym_of_euler(exps, shift, k, order):
    S = sym_power(_euler_operator(exps, shift), k)
    assert S.order == order
    # S u^R = sum_j s_j R(R-1)...(R-j+1) u^(R-j) for every product u^R
    u = ExactPoly([-shift, 1])
    for combo in itertools.combinations_with_replacement(exps, k):
        R = sum(combo)
        residual = sum(
            (S.coeff(j) * ExactRatFunc(ExactPoly([_falling(R, j)]), u**j)
             for j in range(order + 1)),
            ExactRatFunc.coerce(0),
        )
        assert residual.is_zero()


small_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(small_fracs, min_size=2, max_size=2, unique=True),
    st.sampled_from([0, 2, Fraction(-1, 2)]),
    st.sampled_from([2, 3]),
)
def test_sym_power_of_euler_operators(exps, shift, k):
    # products t^(sum of k exponents) are distinct, so the order is k + 1
    _check_sym_of_euler(exps, shift, k, k + 1)


@pytest.mark.parametrize(
    "exps,shift",
    [
        ((0, 1, 2), 0),
        ((Fraction(1, 3), Fraction(5, 6), Fraction(4, 3)), 2),  # pole at t = 2
    ],
)
def test_sym_square_below_module_dimension(exps, shift):
    # equally spaced exponents: the six products have only five exponents,
    # so the minimal order is 5, below the module dimension 6
    _check_sym_of_euler(exps, shift, 2, 5)


def test_sym_power_rejects_bad_k(o3r):
    with pytest.raises(ValueError):
        sym_power(o3r, 0)


# -- singularity analysis ---------------------------------------------------

def test_sym_cube_singularities(sym3):
    sing = singularity_analysis(sym3)
    assert sum(rec["num_points"] for rec in sing.finite) == 15
    assert all(rec["regular"] for rec in sing.finite)
    exps = sorted({int(e.re) for e in sing.all_finite_exponents()})
    assert exps == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10]
    assert sing.infinity["regular"] is False
    assert sing.infinity["algebraic_exponents"] == [ExactScalar(2)]
    assert sing.fuchsian is False


def test_cauchy_euler_fuchsian():
    # t^2 y'' + t y' - y = 0: regular everywhere, exponents +-1 at 0
    t = ExactPoly.x()
    L = DiffOperator(
        [
            ExactRatFunc(ExactPoly([-1]), ExactPoly([0, 0, 1])),
            ExactRatFunc(ExactPoly([1]), t),
            1,
        ]
    )
    sing = singularity_analysis(L)
    assert sing.fuchsian is True
    assert len(sing.finite) == 1
    assert sing.finite[0]["multiplicity"] == 2  # non-squarefree lead handled
    vals = sorted(e.re for e in sing.finite[0]["exponents"])
    assert vals == [-1, 1]


def test_indicial_sum_identity():
    # at a simple root of the lead, the exponent sum is
    # n(n-1)/2 - c_{n-1}(t0) / c_n'(t0)
    lead = ExactPoly([-1, 1]) * ExactPoly([2, 1])  # roots 1, -2
    c2 = ExactPoly([3, 5])
    c1 = ExactPoly([2])
    c0 = ExactPoly([7, 1])
    L = DiffOperator(
        [ExactRatFunc(c, lead) for c in (c0, c1, c2)] + [1]
    )
    sing = singularity_analysis(L)
    n = 3
    for rec in sing.finite:
        assert rec["regular"]
        t0 = -rec["factor"].coeff(0)  # monic linear factor
        expect = ExactScalar(Fraction(n * (n - 1), 2)) - c2(t0) / lead.derivative()(t0)
        total = sum(rec["exponents"], ExactScalar(0))
        assert total == expect


def test_fuchsian_check_classifications(o3r):
    fc = fuchsian_check(o3r)
    assert fc["fuchsian"] is False
    assert fc["finite"] == []  # no finite singular points
    assert fc["infinity_regular"] is False
    eq10 = DiffOperator([ExactPoly([0, 0, 4]), 0, 1])
    assert fuchsian_check(eq10)["fuchsian"] is False


# -- case-2 bookkeeping -----------------------------------------------------

def test_case2_excluded_for_sym_cube(sym3):
    v = case2_obstruction(singularity_analysis(sym3))
    assert v.tag == "NotSolvableIdentityComponent"
    assert v.evidence["case2"] == "excluded"


def _synthetic_sing(exponents, alpha_inf):
    return SingularityData(
        finite=[
            {
                "factor": ExactPoly([-1, 1]),
                "multiplicity": 1,
                "regular": True,
                "exponents": [ExactScalar(e) for e in exponents],
                "num_points": 1,
            }
        ],
        infinity={
            "regular": False,
            "algebraic_exponents": [ExactScalar(a) for a in alpha_inf],
        },
        fuchsian=False,
    )


def test_case2_degree_match_not_excluded():
    sing = _synthetic_sing([0, 1, 2], [-3])
    v = case2_obstruction(sing)
    assert v.tag == "Inconclusive"
    assert v.evidence["feasible_degrees"] == [3]


def test_case2_half_integer_not_excluded():
    sing = _synthetic_sing([Fraction(1, 2), 1], [2])
    v = case2_obstruction(sing)
    assert v.tag == "Inconclusive"
    assert "non-polynomial" in v.evidence["reason"]


# -- orchestrated verdict ---------------------------------------------------

def test_o3r_operator_coefficients(o3r):
    assert o3r.order == 3
    assert o3r.var == "tau"
    assert o3r.coeff(2).is_zero()
    assert o3r.coeff(1) == ExactRatFunc(
        (ExactPoly.x("tau") ** 2).scale(Fraction(-4, 3)), var="tau"
    )


def test_liouvillian_verdict(verdict):
    assert verdict.tag == "NotSolvableIdentityComponent"
    ev = verdict.evidence
    assert ev["case1"]["excluded"] is True
    assert ev["case1"]["exponential_solutions"] == []
    assert ev["case3"]["excluded"] is True
    assert ev["case3"]["irregular_at_infinity"] is True
    assert ev["case2"]["excluded"] is True
    assert ev["case2"]["sym3_order"] == 10
    assert ev["case2"]["num_singular_points"] == 15
    assert "tau^15" in ev["case2"]["singularity_polynomial"]
    assert ev["case2"]["alpha_infinity"] == ["2"]


def test_liouvillian_verdict_json(verdict):
    doc = json.loads(verdict.to_json())
    assert doc["tag"] == "NotSolvableIdentityComponent"
    assert doc == json.loads(verdict.to_json())  # deterministic


def test_verdict_requires_evidence():
    with pytest.raises(ValueError):
        GaloisVerdict("NotSolvableIdentityComponent", {})
    with pytest.raises(ValueError):
        GaloisVerdict("Solvable", {"x": 1})


def test_tampered_operator_is_inconclusive():
    # solutions 1, t, exp(t^2): case 1 must fire and stop the pipeline
    w = ExactRatFunc(ExactPoly([0, 2])) + ExactRatFunc(
        ExactPoly([0, 4]), ExactPoly([1, 0, 2])
    )
    tampered = DiffOperator([0, 0, -w, 1])
    v = liouvillian_verdict_o3r(operator=tampered)
    assert v.tag == "Inconclusive"
    assert v.evidence["reason"] == "case 1 fires"
    assert "(2)*t" in v.evidence["case1"]["exponential_solutions"]


def test_irregular_finite_point_leaves_case_1_open():
    # (D^2 - t)(D - 1/t^2) is solved by exp(-1/t), whose logarithmic
    # derivative has a double pole at t = 0: outside the case-1 search
    t = ExactPoly.x()
    L = DiffOperator([ExactRatFunc(t**3 - 6, t**4), ExactRatFunc(4 - t**4, t**3),
                      ExactRatFunc(ExactPoly([-1]), t * t), 1])
    assert L.apply_exp_ansatz(ExactRatFunc(ExactPoly([1]), t * t)).is_zero()
    v = liouvillian_verdict_o3r(operator=L)
    assert v.tag == "Inconclusive"
    assert v.evidence["case1"] == {"excluded": False, "irregular_finite_points": ["t"]}
    assert "case-1 search incomplete" in v.evidence["reason"]
    assert "case2" not in v.evidence


@pytest.mark.parametrize(
    "L,cause",
    [
        # D^2 - 2, solved by exp(+-sqrt2 t): a torus, not a non-solvable group
        (DiffOperator([-2, 0, 1]), "edge polynomial"),
        # solved by t^(+-sqrt2) e^t: exponents +-sqrt2 at t = 0
        (DiffOperator([ExactRatFunc(ExactPoly([-2, -1, 1]), ExactPoly([0, 0, 1])),
                       ExactRatFunc(ExactPoly([1, -2]), ExactPoly.x()), 1]),
         "local exponent"),
        # solved by sqrt(t - sqrt2) and sqrt(t + sqrt2): exponents 0 and 1/2
        # at both roots of t^2 - 2, which have no point in Q(i) to give each
        # its own residue
        (DiffOperator([ExactRatFunc(ExactPoly([Fraction(-1, 4)]), ExactPoly([-2, 0, 1])),
                       ExactRatFunc(ExactPoly.x(), ExactPoly([-2, 0, 1])), 1]),
         "residues may differ"),
    ],
    ids=["edge-outside-Q(i)", "exponent-outside-Q(i)", "points-outside-Q(i)"],
)
def test_case_1_search_outside_q_i_is_inconclusive(L, cause):
    with pytest.raises(IncompleteSearchError, match=cause):
        exp_solutions(L)
    v = liouvillian_verdict_o3r(operator=L)
    assert v.tag == "Inconclusive"
    assert v.evidence["case1"]["excluded"] is False
    assert cause in v.evidence["case1"]["incomplete"]
    assert "case2" not in v.evidence


def test_sym_cube_of_o3r_has_no_exponential_solution(sym3):
    """Case 2 excluded by a second route.  o3r has no y'' term, so its group
    lies in SL(3); an imprimitive one permutes three lines, so the product
    y1 y2 y3 of their solutions is a semi-invariant, a solution of sym^3 whose
    logarithmic derivative is rational.  So no exponential solution of sym^3
    over C(t) excludes case 2.  A search over Q(i)(t) covers C(t) here:
    every local exponent is an integer and every edge polynomial at infinity
    splits over Q, so each candidate s' + tail lies in Q(i)(t), and for each
    one q solves a linear system over Q(i)."""
    sing = singularity_analysis(sym3)
    assert all(e.is_real() and e.re.denominator == 1
               for e in sing.all_finite_exponents())
    cands, split = _poly_part_candidates(sym3.cleared(), sym3.var)
    assert split and all(c.is_real() for s in cands for c in s.coeffs)
    assert exp_solutions(sym3) == []


def test_sym_cube_controls_return_their_exponential_solutions():
    # sym^3(D^3) = D^7, solved by 1
    d7 = sym_power(DiffOperator([0, 0, 0, 1]), 3)
    assert d7.order == 7
    assert ExactRatFunc.coerce(0) in [r for r, _ in exp_solutions(d7)]
    # L = (D - 1/t)(D - r) has the solution exp(int r), whose cube gives 3r
    t = ExactPoly.x()
    r = ExactRatFunc.coerce(1) + ExactRatFunc(ExactPoly([Fraction(1, 2)]), t - 1)
    m = ExactRatFunc(ExactPoly([1]), t)
    L = DiffOperator([m * r - r.derivative(), -(r + m), 1])
    assert r * ExactRatFunc.coerce(3) in [found for found, _ in exp_solutions(sym_power(L, 3))]


# -- exterior square --------------------------------------------------------

def test_exterior_square_identity_and_zero():
    assert exterior_square(ExactMatrix.identity(4)) == ExactMatrix.identity(
        6
    ).scale(2)
    assert exterior_square(ExactMatrix([[0] * 4] * 4)) == ExactMatrix([[0] * 6] * 6)


def test_exterior_square_spectrum():
    A = ExactMatrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    E = exterior_square(A)
    # pair sums in the ordering (01, 02, 03, 12, 13, 23)
    diag = [E[s, s] for s in range(6)]
    assert [str(d) for d in diag] == ["3", "4", "5", "5", "6", "7"]


def test_exterior_square_shape_guard():
    with pytest.raises(ValueError):
        exterior_square(ExactMatrix.identity(3))


# -- Pluecker and factorization ---------------------------------------------

_Y1 = [ExactScalar(-1), ExactScalar(0), -I, I, ExactScalar(0), ExactScalar(1)]
_Y2 = [ExactScalar(-1), ExactScalar(0), I, -I, ExactScalar(0), ExactScalar(1)]


def test_plucker_examples():
    assert plucker_check([0, 0, 0, 0, 0, 0]) is True
    assert plucker_check([1, 0, 0, 0, 0, 1]) is False
    assert plucker_check(_Y1) is True and plucker_check(_Y2) is True


@pytest.fixture(scope="module")
def weil_block():
    spec = SystemSpec("one-body", 1)
    return ve_along(spec, {"c": Fraction(1, 4)}).subsystem(range(4))


def test_system_exp_solutions_diagonal():
    B = ExactMatrix([[1, 0], [0, 2]])
    sols = {str(s): [str(p) for p in v] for s, v in system_exp_solutions(B)}
    assert sols["t"] == ["1", "0"]
    assert sols["(2)*t"] == ["0", "1"]


def _rat_diag(degs):
    t = ExactPoly.x()
    return ExactMatrix(
        [[ExactRatFunc(ExactPoly([d]), t) if i == j else 0 for j in range(len(degs))]
         for i, d in enumerate(degs)]
    )


def test_system_exp_solutions_degree_above_eight():
    sols = [(str(s), [str(p) for p in v]) for s, v in system_exp_solutions(_rat_diag([9, 0]))]
    assert sols == [("0", ["t^9", "0"]), ("0", ["0", "1"])]


def _gauge_ground_truth(degs, Q):
    """B = Q^-1 (A Q - Q') for A = diag(d_k / t), and the polynomial
    solutions Q^-1 t^(d_k) e_k of y' = B y."""
    n = len(degs)
    Qi = Q.inverse()
    Qp = ExactMatrix([[Q[i, j].derivative() for j in range(n)] for i in range(n)])
    B = Qi @ (_rat_diag(degs) @ Q - Qp)
    truth = [[Qi[i, k] * ExactRatFunc(ExactPoly.monomial(1, d)) for i in range(n)]
             for k, d in enumerate(degs)]
    return B, truth


def _assert_same_span(found, truth):
    # spans over Q(i), compared on the vectors' coefficients in t
    polys = [[ExactRatFunc.coerce(e).as_poly() for e in v] for v in found + truth]
    top = max(p.degree for v in polys for p in v)

    def rank(vs):
        rows = [[p.coeff(d) for p in v for d in range(top + 1)] for v in vs]
        return len(rows[0]) - len(scalar_nullspace(rows)[0])

    assert len(found) == len(truth) == rank(polys[: len(found)]) == rank(polys)


def test_system_exp_solutions_unimodular_gauge():
    t = ExactPoly.x()
    Q = ExactMatrix([[1, t, 0], [0, 1, t * t], [0, 0, 1]])
    B, truth = _gauge_ground_truth([2, 9, 11], Q)
    _assert_same_span([v for s, v in system_exp_solutions(B) if s.is_zero()], truth)


_small = st.integers(-3, 3)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 15), min_size=2, max_size=3),
    st.data(),
)
def test_system_exp_solutions_gauge_ground_truth(degs, data):
    # random unimodular upper-triangular polynomial Q: constant nonzero
    # diagonal, polynomials of degree <= 2 above it
    n = len(degs)
    gauss = st.builds(ExactScalar, _small, _small).filter(lambda c: not c.is_zero())
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = data.draw(gauss)
        for j in range(i + 1, n):
            entries[i][j] = ExactPoly(data.draw(st.lists(_small, max_size=3)))
    B, truth = _gauge_ground_truth(degs, ExactMatrix(entries))
    _assert_same_span([v for s, v in system_exp_solutions(B) if s.is_zero()], truth)


def _reference_poly_vector_solutions(B, sprime):
    """Polynomial vector solutions of v' = (B - s' I) v up to a fixed
    degree cap N = 8, by undetermined coefficients: the reference that the
    exactly bounded search must agree with wherever the cap suffices."""
    N = 8
    n = B.rows
    var = B.var
    C = [
        [
            B[i, j] - (sprime if i == j else ExactRatFunc.coerce(0, var))
            for j in range(n)
        ]
        for i in range(n)
    ]
    den, flat = clear_denominators([c for row in C for c in row], var)
    Cp = [flat[i * n : (i + 1) * n] for i in range(n)]
    dmax = max((p.degree for row in Cp for p in row if not p.is_zero()), default=0)
    ncols = n * (N + 1)
    rows_per = N + max(dmax, den.degree) + 2
    M = [[ExactScalar(0)] * ncols for _ in range(n * rows_per)]

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


def _reference_system_exp_solutions(B):
    var = B.var
    s_candidates = [ExactPoly((), var=var)]
    for i in range(B.rows):
        ode = _minimal_annihilator(_row_module(B, var), i)
        cands, _split = _poly_part_candidates(clear_denominators(ode.coeffs, var)[1], var)
        for spoly in cands:
            s = _integrate_poly(spoly)
            if s not in s_candidates:
                s_candidates.append(s)
    return [
        (s, _normalize_direction(v))
        for s in s_candidates
        for v in _reference_poly_vector_solutions(B, ExactRatFunc(s.derivative(), var=var))
    ]


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("c", ["1/8", "1/4", "1/3", "1/2", "2/3", "1", "3/2"])
def test_system_exp_solutions_match_degree_capped_reference(kappa, c):
    A = ve_along(SystemSpec("one-body", kappa), {"c": Fraction(c)}).subsystem(range(4)).A
    E = exterior_square(A)
    assert system_exp_solutions(E) == _reference_system_exp_solutions(E)


def _count_searches(monkeypatch):
    """Spies on system_exp_solutions' searches: the twists (their
    arguments), the candidate searches on an annihilator (not their
    recursive refinements) and the degree bounds."""
    calls = {"twist": [], "search": 0, "bound": 0}
    twist, search, bound = galois._twist, galois._poly_part_candidates, galois._max_solution_degree

    def counting_twist(coeffs, rprime, var):
        calls["twist"].append([rprime, *coeffs])
        return twist(coeffs, rprime, var)

    def counting_search(polys, var, max_d=None):
        calls["search"] += max_d is None
        return search(polys, var, max_d)

    def counting_bound(polys):
        calls["bound"] += 1
        return bound(polys)

    monkeypatch.setattr(galois, "_twist", counting_twist)
    monkeypatch.setattr(galois, "_poly_part_candidates", counting_search)
    monkeypatch.setattr(galois, "_max_solution_degree", counting_bound)
    return calls


def test_system_exp_solutions_twists_each_candidate_once(monkeypatch):
    # the six coordinates have 4 distinct annihilators, each searched once:
    # one polynomial twist per (annihilator, candidate leading term), 4 x 2,
    # and one degree bound per (annihilator, candidate), 4 x 3
    A = ve_along(SystemSpec("one-body", 1), {"c": Fraction(1, 2)}).subsystem(range(4)).A
    E = exterior_square(A)
    calls = _count_searches(monkeypatch)
    system_exp_solutions(E)
    assert calls["search"] == 4
    assert len(calls["twist"]) == 8
    assert calls["bound"] == 12
    assert not any(isinstance(x, ExactRatFunc) for args in calls["twist"] for x in args)


def test_system_exp_solutions_searches_distinct_annihilators_apart(monkeypatch):
    # y2' = i t y2, y1' = -2t y1 and y0' = 2t y0 + y1: three distinct
    # annihilators, of orders 1, 1 and 2, each searched on its own
    t = ExactPoly.x()
    B = ExactMatrix([[t.scale(2), 1, 0], [0, t.scale(-2), 0], [0, 0, t.scale(I)]])
    calls = _count_searches(monkeypatch)
    sols = system_exp_solutions(B)
    assert calls["search"] == 3
    rows = _row_module(B, "t")
    assert sorted(_minimal_annihilator(rows, i).order for i in range(3)) == [1, 1, 2]
    assert sols == _reference_system_exp_solutions(B)
    assert {str(s) for s, _v in sols} == {"t^2", "(1/2*i)*t^2"}


def test_factorization_and_sym_cube_need_no_prime_budget(monkeypatch, sym3, weil_block):
    # no order of either tower needs a second prime, so neither computes K
    def no_budget(tower, d, m):
        raise AssertionError("prime budget computed")

    monkeypatch.setattr(exactalg, "_prime_budget", no_budget)
    assert len(system_exp_solutions(exterior_square(weil_block.A))) == 3
    assert sym_power(o3r_operator(), 3) == sym3


def test_system_exp_solutions_recovers_printed_directions(weil_block):
    E = exterior_square(weil_block.A)
    sols = system_exp_solutions(E)
    found = {str(s): [str(p) for p in v] for s, v in sols}
    assert found["(2*i)*t^2"] == ["-1", "0", "-1*i", "1*i", "0", "1"]
    assert found["(-2*i)*t^2"] == ["-1", "0", "1*i", "-1*i", "0", "1"]


def test_factorization_basis_printed_matrix(weil_block):
    fb = factorization_basis([_Y1, _Y2])
    assert fb.complete is True
    expected = ExactMatrix(
        [
            [0, -I, 0, I],
            [-I, 0, I, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ]
    )
    assert fb.Q.Q == expected
    assert fb.Q.Q.det() == ExactRatFunc.coerce(-4)
    # the constant gauge block-diagonalizes the transformed system
    g = gauge_transform(weil_block, fb.Q)
    for i in range(2):
        for j in range(2, 4):
            assert g.A[i, j].is_zero() and g.A[j, i].is_zero()
    two_i_t = ExactRatFunc(ExactPoly([0, ExactScalar(0, 2)]))
    assert g.A[0, 0] == two_i_t
    assert g.A[1, 1] == two_i_t
    assert g.A[1, 0] == ExactRatFunc.coerce(1)
    assert g.A[0, 1] == ExactRatFunc(ExactPoly([0, 0, -4]))
    assert g.A[2, 2] == -two_i_t


def test_factorization_basis_partial(weil_block):
    fb = factorization_basis([_Y1])
    assert fb.complete is False
    assert isinstance(fb, FactorizationBasis)
    assert not fb.Q.Q.det().is_zero()
    # only block-triangular: the kernel columns span an invariant plane
    g = gauge_transform(weil_block, fb.Q)
    for i in range(2, 4):
        for j in range(2):
            assert g.A[i, j].is_zero()
    assert any(not g.A[i, j].is_zero() for i in range(2) for j in range(2, 4))
    assert len(fb.kernels) == 1 and len(fb.kernels[0]) == 2


@settings(max_examples=25, deadline=None)
@given(P=st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=4, max_size=4),
       b=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
# a conjugate of diag(1, 2, 4, 8): six invariant planes, and four kernel
# columns drawn from three of them leave nonzero off-diagonal blocks
@example(P=[[-1, -2, 2, 1], [2, -2, 2, 2], [1, 0, 1, -1], [0, -2, 1, 2]],
         b=[1, 0, 0, 2, 4, 0, 0, 8])
def test_complete_factorization_basis_is_block_diagonal(P, b):
    P = ExactMatrix(P)
    assume(not P.det().is_zero())
    D = ExactMatrix([[b[0], b[1], 0, 0], [b[2], b[3], 0, 0],
                     [0, 0, b[4], b[5]], [0, 0, b[6], b[7]]])
    A = P @ D @ P.inverse()
    decomposable = [v for s, v in system_exp_solutions(exterior_square(A))
                    if plucker_quadric(v).is_zero() and not s.is_zero()]
    assume(decomposable)
    fb = factorization_basis(decomposable)
    g = gauge_transform(LinearSystem(A, var=A.var), fb.Q)
    if fb.complete:
        assert all(g.A[i, j].is_zero() and g.A[j, i].is_zero()
                   for i in range(2) for j in range(2, 4))
    if b == [1, 0, 0, 2, 4, 0, 0, 8]:
        assert fb.complete and len(fb.kernels) == 6


def test_factorization_basis_rejects_non_plucker():
    with pytest.raises(ValueError):
        factorization_basis([[1, 0, 0, 0, 0, 1]])
