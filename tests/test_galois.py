import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenkep.exactalg import (
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    _modulus,
)
from heisenkep.galois import (
    DiffOperator,
    _certified,
    _dependency_mod,
    _poly_mod,
    _sym_module,
    FactorizationBasis,
    GaloisVerdict,
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
    rehm_classify,
    singularity_analysis,
    sym_power,
    system_exp_solutions,
)
from heisenkep.heisenmodel import SystemSpec
from heisenkep.variational import gauge_transform, ve_along

I = ExactScalar(0, 1)


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


def test_operator_json_round_trip(o3r):
    doc = o3r.to_json()
    again = DiffOperator.from_json(doc)
    assert again == o3r
    assert again.var == "tau"


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


small_den_fracs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
gaussian_rationals = st.builds(ExactScalar, small_den_fracs, small_den_fracs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gaussian_rationals, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
)
def test_gaussian_roots_ground_truth(roots, mults):
    p = ExactPoly([1])
    for r, m in zip(roots, mults):
        p = p * ExactPoly([-r, 1]) ** m
    assert sorted(map(str, gaussian_roots(p))) == sorted(map(str, roots))


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


# -- symmetric powers -------------------------------------------------------

def test_solve_dependency():
    p = _modulus(0)[0]
    assert _dependency_mod([[1, 0, 0], [0, 1, 0], [1, 2, 0]], p) == (2, [p - 1, p - 2])
    # the leading columns are dependent
    assert _dependency_mod([[1, 2, 0], [2, 4, 0], [0, 0, 1]], p)[1] is None
    # the last column lies outside their span: full rank
    assert _dependency_mod([[1, 0, 0], [0, 1, 0], [0, 0, 1]], p) == (3, None)


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
        assert _poly_mod(f, p, root) == want
    for bad in (
        ExactScalar(Fraction(1, 26)),
        ExactScalar(1, Fraction(2, 13)),
        ExactScalar(Fraction(1, 2), Fraction(5, 39)),
    ):
        with pytest.raises(ValueError):
            _poly_mod(ExactPoly([1, bad]), p, root)


def test_sym_power_certificate_rejects_a_wrong_coefficient():
    L = _euler_operator((0, Fraction(1, 2)), 2)
    S = sym_power(L, 2)
    _, tower = _sym_module(L, 2)
    coeffs = [(c.num, c.den) for c in S.coeffs[:-1]]
    assert _certified(tower, S.order, coeffs)
    num, den = coeffs[1]
    coeffs[1] = (num + ExactPoly([Fraction(1, 10**9)]), den)
    assert not _certified(tower, S.order, coeffs)


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

def test_case2_excluded_for_sym_cube(o3r, sym3):
    v = case2_obstruction(o3r, sym3, singularity_analysis(sym3))
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


def test_case2_degree_match_not_excluded(o3r, sym3):
    sing = _synthetic_sing([0, 1, 2], [-3])
    v = case2_obstruction(o3r, sym3, sing)
    assert v.tag == "Inconclusive"
    assert v.evidence["feasible_degrees"] == [3]


def test_case2_half_integer_not_excluded(o3r, sym3):
    sing = _synthetic_sing([Fraction(1, 2), 1], [2])
    v = case2_obstruction(o3r, sym3, sing)
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


# -- exterior square --------------------------------------------------------

def test_exterior_square_identity_and_zero():
    assert exterior_square(ExactMatrix.identity(4)) == ExactMatrix.identity(
        6
    ).scale(2)
    assert exterior_square(ExactMatrix.zero(4, 4)) == ExactMatrix.zero(6, 6)


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


def test_factorization_basis_rejects_non_plucker():
    with pytest.raises(ValueError):
        factorization_basis([[1, 0, 0, 0, 0, 1]])
