import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heisenkep.dynamics import hamilton_rhs
from heisenkep.exactalg import (
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    SingularMatrixError,
    _derive,
    _level,
    _modulus,
    clear_denominators,
)
from heisenkep.heisenmodel import (
    PotentialSpec,
    SystemSpec,
    condition_coefficient_a,
    particular_solution,
)
from heisenkep.variational import (
    DiffOperator,
    GaugeMatrix,
    LinearSystem,
    NotCyclicError,
    cyclic_to_scalar,
    exp_substitution,
    gauge_transform,
    reduction_gauge,
    reduction_gauge_resonant,
    ve_along,
    ve_blocks_transformed,
    ve_twobody_blocks,
    _axis_derivatives,
    _minimal_annihilator,
    _row_module,
    _twist,
)
from oracles import (
    bessel_closed_form,
    evaluate,
    fundamental_solution,
    h_expr,
    level_polys,
    row_derivation,
    symbols,
    system_residual,
    transform_vars_q1h1,
    transform_vars_q1h1_inverse,
)

I = ExactScalar.i()


@pytest.fixture(scope="module")
def kepler1b():
    return SystemSpec("one-body", 1)


@pytest.fixture(scope="module")
def ve_a2(kepler1b):
    # c = 1/4 makes the ramp coefficient a = kappa/(8c^2) = 2
    return ve_along(kepler1b, {"c": Fraction(1, 4)})


def P(p, var="t"):
    return ExactRatFunc.coerce(ExactPoly.coerce(p, var), var)


# -- variational matrix along the vertical solution -------------------------

def test_ve_exact_matrix_a2(ve_a2):
    t = ExactPoly.x()
    expect = [
        [0, 1, t.scale(2), 0, 0, 0],
        [(t * t).scale(-4), 0, 0, t.scale(2), 0, 0],
        [t.scale(-2), 0, 0, 1, 0, 0],
        [0, t.scale(-2), (t * t).scale(-4), 0, 0, 0],
    ]
    for i in range(4):
        for j in range(6):
            assert ve_a2.A[i, j] == P(expect[i][j])
    # (dz, dpz) block: lower triangular, single nonzero entry; its value is
    # not asserted
    assert ve_a2.A[4, 4].is_zero() and ve_a2.A[4, 5].is_zero()
    for j in range(4):
        assert ve_a2.A[4, j].is_zero() and ve_a2.A[5, j].is_zero()
    assert ve_a2.A[5, 5].is_zero()
    assert not ve_a2.A[5, 4].is_zero()


def test_ve_nontrivial_block_is_quartic_form(ve_a2):
    blk = ve_a2.subsystem(range(4))
    A = evaluate(blk.A, 1.0)
    expect = np.array(
        [[0, 1, 2, 0], [-4, 0, 0, 2], [-2, 0, 0, 1], [0, -2, -4, 0]], dtype=complex
    )
    assert np.allclose(A, expect, atol=1e-14)


def test_ve_general_a_scaling(kepler1b):
    # a = kappa/(8 c^2) = 1/2 at c = 1/2
    sys = ve_along(kepler1b, {"c": Fraction(1, 2)})
    assert dict(sys.meta)["a"] == "1/2"
    assert sys.A[0, 2] == P(ExactPoly.x().scale(Fraction(1, 2)))


# -- the structural build against two independent oracles --------------------

def _scalar_from_sympy(e) -> ExactScalar:
    """An exact sympy Rational or Gaussian rational as an ExactScalar.

    The value is read as it is: no ``nsimplify``, which can turn an exact
    Rational such as -1/13718 into a product of fractional powers."""
    re, im = sp.expand(e).as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError(f"coefficient {e} is not a Gaussian rational")
    return ExactScalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


def _reference_ve_along(spec, c):
    """A(t) the general way: differentiate H symbolically, check that the
    vertical line solves the field, substitute it into the Jacobian and
    read each entry as a polynomial in t."""
    a = condition_coefficient_a(spec, c)
    t = sp.Symbol("t", real=True)
    syms = symbols(spec)
    field = [sp.diff(h_expr(spec), p) for p in syms[3:]] + [
        -sp.diff(h_expr(spec), q) for q in syms[:3]
    ]
    aq = sp.Rational(a.numerator, a.denominator)
    point = dict(zip(syms, (0, 0, sp.Rational(c.numerator, c.denominator), 0, 0, -2 * aq * t)))
    for f, e in zip(field, (0, 0, 0, 0, 0, -2 * aq)):
        assert sp.simplify(f.subs(point) - e) == 0
    jac = [[sp.simplify(sp.diff(f, v).subs(point)) for v in syms] for f in field]

    def entry(e):
        cs = sp.Poly(sp.expand(e), t).all_coeffs()[::-1]
        return ExactPoly([_scalar_from_sympy(x) for x in cs])

    p = (0, 3, 1, 4, 2, 5)
    A = ExactMatrix([[entry(jac[p[i]][p[j]]) for j in range(6)] for i in range(6)])
    return A, (("a", str(a)),)


def _spec(kappa, table):
    if table is None:
        return SystemSpec("one-body", kappa)
    return SystemSpec("one-body", kappa, potential=PotentialSpec(*table))


# -1/(rho + 1) and (z - 2)/rho^2
_TABLES = (([[0, 0, -1]], [[0, 1, 1], [0, 0, 1]]), ([[1, 0, 1], [0, 0, -2]], [[0, 2, 1]]))
_CASES = [(k, None, c) for k in (1, 2, Fraction(-3, 7), Fraction(5, 3))
          for c in (Fraction(1, 3), Fraction(-2))]
_CASES += [(1, tb, c) for tb in _TABLES for c in (Fraction(1, 2), Fraction(-3, 2))]
_CASES += [(1, None, Fraction(19)), (1, None, Fraction(-19, 4))]


@pytest.mark.parametrize("kappa, table, c", _CASES)
def test_ve_matches_general_symbolic_build(kappa, table, c):
    spec = _spec(kappa, table)
    sys = ve_along(spec, {"c": c})
    A, meta = _reference_ve_along(spec, c)
    assert sys.A == A and sys.meta == meta


@pytest.mark.parametrize("kappa, table, c", [
    (1, None, Fraction(1, 4)), (Fraction(-3, 7), None, Fraction(-2, 3)),
    (1, _TABLES[0], Fraction(1, 2)), (1, _TABLES[1], Fraction(-3, 2)),
])
def test_ve_matches_central_differences_of_the_field(kappa, table, c):
    spec = _spec(kappa, table)
    sys = ve_along(spec, {"c": c})
    p = [0, 3, 1, 4, 2, 5]
    h = 1e-6
    for t in (0.0, 0.4, 1.3, 2.5):
        s = particular_solution(spec, {"c": c}, t).to_array()
        fd = np.empty((6, 6))
        for j in range(6):
            sp_, sm = s.copy(), s.copy()
            sp_[j] += h
            sm[j] -= h
            fd[:, j] = (hamilton_rhs(spec, sp_) - hamilton_rhs(spec, sm)) / (2 * h)
        A = evaluate(sys.A, t)
        assert np.max(np.abs(A - fd[np.ix_(p, p)])) < 1e-6 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("c", [Fraction(19), Fraction(-19, 4)])
def test_ve_builds_at_large_denominators(kepler1b, c):
    # unit Kepler potential: a = sgn(c)/(8 c^2), and the (dp_z, dz) entry of
    # both builds is -W''(c) = 1/(2|c|^3)
    a = Fraction(1 if c > 0 else -1, 8) / c**2
    C = P(Fraction(1, 2) / abs(c) ** 3)
    full = ve_along(kepler1b, {"c": c})
    blocks = ve_blocks_transformed(kepler1b, c)
    assert dict(full.meta)["a"] == dict(blocks.meta)["a"] == str(a)
    assert full.A[5, 4] == blocks.A[5, 4] == C


def test_singular_potential_raises_one_error():
    # W = -1/(rho - 4) and W = (z - 1)/(rho - 4) are singular at
    # (z, rho) = (1, 4); in the second the restriction to the axis cancels
    # the singular factor (w = 1/4), and the point still raises
    for num, a_at_2 in (([[0, 0, -1]], "1/8"), ([[1, 0, 1], [0, 0, -1]], "0")):
        spec = _spec(1, (num, [[0, 1, 1], [0, 0, -4]]))
        for build in (lambda: condition_coefficient_a(spec, Fraction(1)),
                      lambda: ve_along(spec, {"c": 1}),
                      lambda: ve_blocks_transformed(spec, 1)):
            with pytest.raises(ValueError, match=r"singular at \(z, rho\) = \(1, 4\)"):
                build()
        assert dict(ve_along(spec, {"c": 2}).meta)["a"] == a_at_2


_gauss_q = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_coeffs = st.tuples(_gauss_q, _gauss_q | st.just(Fraction(0))).filter(any)
_q_tables = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _coeffs,
                            min_size=1, max_size=3)
_ONE = (Fraction(1), Fraction(0))


@settings(max_examples=20, deadline=None)
@given(_q_tables, _q_tables,
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 0))
# singular: (z - 1)/(rho - 4) at c = 1, and 1/(rho - 4z), zero on the whole axis
@example({(1, 0): _ONE, (0, 0): (Fraction(-1), Fraction(0))},
         {(0, 1): _ONE, (0, 0): (Fraction(-4), Fraction(0))}, Fraction(1))
@example({(0, 0): _ONE}, {(0, 1): _ONE, (1, 0): (Fraction(-4), Fraction(0))}, Fraction(2, 3))
def test_axis_quantities_match_symbolic_differentiation(num, den, c):
    # oracle: W built in sympy from the same rows, differentiated in z and
    # rho, then on the axis rho = 4 sgn(c) z differentiated in z
    def rows(table):
        return [[i, j, str(ExactScalar(re, im))] for (i, j), (re, im) in table.items()]

    def expr(table):
        return sum(((sp.Rational(re) + sp.I * sp.Rational(im)) * z**i * r**j
                    for (i, j), (re, im) in table.items()), sp.Integer(0))

    spec = _spec(1, (rows(num), rows(den)))
    z, r = sp.symbols("z rho")
    cq, sgn = sp.Rational(c), 1 if c > 0 else -1
    W = expr(num) / expr(den)
    if sp.expand(expr(den).subs({z: cq, r: 4 * abs(cq)})) == 0:
        with pytest.raises(ValueError, match="singular"):
            condition_coefficient_a(spec, c)
        return
    a = (sp.diff(W, z) + 4 * sgn * sp.diff(W, r)).subs({z: cq, r: 4 * abs(cq)}) / 2
    assert condition_coefficient_a(spec, c) == _scalar_from_sympy(a)
    w = W.subs(r, 4 * sgn * z)
    assert _axis_derivatives(spec, c) == (_scalar_from_sympy(sp.diff(w, z).subs(z, cq)),
                                          _scalar_from_sympy(sp.diff(w, z, 2).subs(z, cq)))


@pytest.mark.parametrize("table", [None, _TABLES[1]])
def test_exact_path_builds_no_sympy_expression(table):
    spec = _spec(1, table)
    condition_coefficient_a(spec, Fraction(1, 2))
    ve_along(spec, {"c": Fraction(-3, 2)})
    ve_blocks_transformed(spec, Fraction(1, 2))
    # nor any numeric evaluator
    assert not {"_h_fn", "_rhs"} & spec.__dict__.keys()


# -- change of variables ----------------------------------------------------

def test_transform_examples():
    out = transform_vars_q1h1([1.0, 0, 0, 0, 0, 0])
    assert out[0] == 1 and out[2] == 1
    assert np.all(transform_vars_q1h1(np.zeros(6)) == 0)


def test_transform_particular_solution(kepler1b):
    c = 0.25
    for t in (0.0, 0.7, 2.0):
        s = particular_solution(kepler1b, {"c": c}, t)
        out = transform_vars_q1h1(s)
        a = 2.0
        assert out == pytest.approx(np.array([0, 0, 0, 0, c, -2 * a * t]))


def test_transform_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.normal(size=6)
        back = transform_vars_q1h1_inverse(transform_vars_q1h1(s))
        assert back == pytest.approx(s, abs=1e-13)


# -- transformed blocks -----------------------------------------------------

def test_blocks_transformed_entries(kepler1b):
    sys = ve_blocks_transformed(kepler1b, Fraction(1, 4))
    # A1 = [[0, 1], [-2i, -4i t]]
    assert sys.A[0, 1] == P(1)
    assert sys.A[1, 0] == ExactRatFunc(ExactPoly([ExactScalar(0, -2)]))
    assert sys.A[1, 1] == ExactRatFunc(ExactPoly([0, ExactScalar(0, -4)]))


def test_blocks_conjugate_and_shape(kepler1b):
    sys = ve_blocks_transformed(kepler1b, Fraction(1, 4))
    a1 = ExactMatrix([[sys.A[i, j] for j in (0, 1)] for i in (0, 1)])
    a2 = ExactMatrix([[sys.A[2 + i, 2 + j] for j in (0, 1)] for i in (0, 1)])
    assert a1.conjugate_coeffs() == a2
    # A3 strictly lower triangular; off-diagonal blocks zero
    assert sys.A[4, 4].is_zero() and sys.A[4, 5].is_zero() and sys.A[5, 5].is_zero()
    for i in range(4):
        for j in range(4, 6):
            assert sys.A[i, j].is_zero() and sys.A[j, i].is_zero()


def test_blocks_numeric_consistency_with_ve(kepler1b, ve_a2):
    # conjugating the VE flow through the linearized variable change must
    # reproduce the block flow
    sysT = ve_blocks_transformed(kepler1b, Fraction(1, 4))
    a = 2.0

    def T(t):
        M = np.zeros((6, 6), dtype=complex)
        M[0, 0] = 1; M[0, 2] = 1j
        M[1, 1] = 1; M[1, 3] = 1j; M[1, 0] = -1j * a * t; M[1, 2] = a * t
        M[2, 0] = 1; M[2, 2] = -1j
        M[3, 1] = 1; M[3, 3] = -1j; M[3, 0] = 1j * a * t; M[3, 2] = a * t
        M[4, 4] = 1; M[5, 5] = 1
        return M

    Phi = fundamental_solution(ve_a2, 0.0, 1.0)
    PhiT = fundamental_solution(sysT, 0.0, 1.0)
    assert np.max(np.abs(T(1.0) @ Phi @ np.linalg.inv(T(0.0)) - PhiT)) < 1e-7


# -- two-body blocks --------------------------------------------------------

def test_twobody_block_entries():
    sys = ve_twobody_blocks(Fraction(1, 2), Fraction(1, 3), 2)
    tm = ExactPoly([Fraction(-1, 3), 1], var="tau")
    assert sys.A[1, 0] == ExactRatFunc(tm * tm, var="tau")
    assert sys.A[0, 0] == ExactRatFunc(tm, var="tau")
    # A3 single nonzero entry 4i/w2 = 2i
    assert sys.A[11, 9] == ExactRatFunc(
        ExactPoly([ExactScalar(0, 2)], var="tau"), var="tau"
    )
    nonzero = [
        (i, j)
        for i in range(8, 12)
        for j in range(8, 12)
        if not sys.A[i, j].is_zero()
    ]
    assert nonzero == [(11, 9)]


def test_twobody_particular_solution_polynomial_identity():
    for mu, t0 in ((Fraction(-1), 1), (Fraction(1, 2), 0), (Fraction(3), Fraction(1, 5))):
        sys = ve_twobody_blocks(mu, t0, 1).subsystem(range(4))
        vec = [
            ExactPoly([1], var="tau"),
            ExactPoly([t0, -1], var="tau"),
            ExactPoly([1], var="tau"),
            ExactPoly([t0, 1], var="tau"),
        ]
        assert all(r.is_zero() for r in system_residual(sys, vec))


def test_twobody_rejects_mu_zero():
    with pytest.raises(ValueError):
        ve_twobody_blocks(0, 0, 1)


# -- gauge transformations --------------------------------------------------

def test_gauge_reduction_tau0_zero():
    mu = Fraction(1, 2)
    sys = ve_twobody_blocks(mu, 0, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge(mu))
    tau = ExactPoly.x("tau")
    p1 = tau.scale(2 * (1 - mu))
    p2 = ExactPoly([3 + mu, 0, 4 * mu], var="tau")
    V = lambda p: ExactRatFunc.coerce(ExactPoly.coerce(p, "tau"), "tau")
    expect = [
        [V(0), V(1), V(0), V(0)],
        [V(0), V(0), V(1), V(0)],
        [V(0), V(p2), V(p1), V(1)],
        [V(0), V(0), V(0), V(0)],
    ]
    for i in range(4):
        for j in range(4):
            assert g.A[i, j] == expect[i][j]


def test_gauge_reduction_resonant():
    sys = ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge_resonant())
    V = lambda p: ExactRatFunc.coerce(ExactPoly.coerce(p, "tau"), "tau")
    expect = [
        [V(ExactPoly([-2, 2], var="tau")), V(1), V(0), V(0)],
        [V(0), V(0), V(1), V(0)],
        [V(4), V(-2), V(ExactPoly([2, 2], var="tau")), V(1)],
        [V(0), V(0), V(0), V(0)],
    ]
    for i in range(4):
        for j in range(4):
            assert g.A[i, j] == expect[i][j]


def test_gauge_identity_is_noop(ve_a2):
    g = gauge_transform(ve_a2, GaugeMatrix(ExactMatrix.identity(6)))
    assert g.A == ve_a2.A


def test_gauge_constant_basis_diagonalizes(ve_a2):
    blk = ve_a2.subsystem(range(4))
    Q = ExactMatrix([[0, -I, 0, I], [-I, 0, I, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert Q.det() == ExactRatFunc.coerce(-4)
    g = gauge_transform(blk, GaugeMatrix(Q))
    t = ExactPoly.x()
    two_it = ExactRatFunc(t.scale(ExactScalar(0, 2)))
    m4t2 = ExactRatFunc((t * t).scale(-4))
    one = ExactRatFunc.coerce(1)
    zero = ExactRatFunc.coerce(0)
    expect = ExactMatrix(
        [
            [two_it, m4t2, zero, zero],
            [one, two_it, zero, zero],
            [zero, zero, -two_it, m4t2],
            [zero, zero, one, -two_it],
        ]
    )
    assert g.A == expect


def _rand_poly(rng, var="t"):
    return ExactPoly(
        [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))], var=var
    )


def test_gauge_functoriality():
    rng = random.Random(5)
    done = 0
    while done < 5:
        n = rng.randint(2, 4)
        A = ExactMatrix([[_rand_poly(rng) for _ in range(n)] for _ in range(n)])
        Q1 = ExactMatrix([[_rand_poly(rng) for _ in range(n)] for _ in range(n)])
        Q2 = ExactMatrix([[_rand_poly(rng) for _ in range(n)] for _ in range(n)])
        if Q1.det().is_zero() or Q2.det().is_zero():
            continue
        sys = LinearSystem(A)
        once = gauge_transform(gauge_transform(sys, GaugeMatrix(Q1)), GaugeMatrix(Q2))
        both = gauge_transform(sys, GaugeMatrix(Q1 @ Q2))
        assert once.A == both.A
        done += 1


def test_gauge_matrix_rejects_singular_and_non_square():
    t = ExactPoly.x()
    with pytest.raises(SingularMatrixError):
        GaugeMatrix(ExactMatrix([[t, t * t], [1, t]]))
    with pytest.raises(ValueError):
        GaugeMatrix(ExactMatrix([[1, 0, 0], [0, 1, 0]]))


def test_gauge_fundamental_conjugation(ve_a2):
    blk = ve_a2.subsystem(range(4))
    Q = ExactMatrix([[0, -I, 0, I], [-I, 0, I, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    g = gauge_transform(blk, GaugeMatrix(Q))
    Phi = fundamental_solution(blk, 0.1, 1.0)
    Phig = fundamental_solution(g, 0.1, 1.0)
    Qn = np.array([[complex(Q[i, j](0j)) for j in range(4)] for i in range(4)])
    assert np.max(np.abs(np.linalg.inv(Qn) @ Phi @ Qn - Phig)) < 1e-7


# -- scalar reduction -------------------------------------------------------

def test_cyclic_third_order_equation():
    sys = ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge_resonant()).subsystem(range(3))
    ode = cyclic_to_scalar(g, 1)
    tau = ExactPoly.x("tau")
    assert ode.order == 3
    assert ode.coeff(0) == ExactRatFunc(tau.scale(-4), var="tau")
    assert ode.coeff(1) == ExactRatFunc(ExactPoly([-4, 0, 4], var="tau"), var="tau")
    assert ode.coeff(2) == ExactRatFunc(tau.scale(-4), var="tau")
    assert ode.coeff(3) == ExactRatFunc.coerce(1, "tau")


def test_cyclic_second_order_from_blocks(kepler1b):
    sys = ve_blocks_transformed(kepler1b, Fraction(1, 4)).subsystem([0, 1])
    ode = cyclic_to_scalar(sys, 0)
    assert ode.coeff(0) == ExactRatFunc(ExactPoly([ExactScalar(0, 2)]))
    assert ode.coeff(1) == ExactRatFunc(ExactPoly([0, ExactScalar(0, 4)]))


def test_cyclic_trivial_and_failure():
    triv = LinearSystem(ExactMatrix([[0, 1], [0, 0]]))
    ode = cyclic_to_scalar(triv, 0)
    assert ode.order == 2
    assert ode.coeff(0).is_zero() and ode.coeff(1).is_zero()
    diag = LinearSystem(ExactMatrix([[0, 0], [0, 1]]))
    with pytest.raises(NotCyclicError):
        cyclic_to_scalar(diag, 0)


def _reference_annihilator(B, index, var):
    """The minimal annihilator by exact elimination: the rows e, eB + e',
    ... are stacked until the first nonempty nullspace, whose one vector
    ends in 1 in reduced-echelon form."""
    n = B.rows
    zero = ExactRatFunc.coerce(0, var)
    rows = [[ExactRatFunc.coerce(1 if j == index else 0, var) for j in range(n)]]
    while True:
        prev = rows[-1]
        rows.append([
            sum((prev[k] * B[k, j] for k in range(n)), zero) + prev[j].derivative()
            for j in range(n)
        ])
        ker = ExactMatrix([[row[j] for row in rows] for j in range(n)], var=var).nullspace()
        if ker:
            return DiffOperator(ker[0], var=var)


def _rand_pole_entry(rng, p):
    """0, or a small Gaussian polynomial over 1, t - 2 (a pole at the first
    sample point) or p t - 1 (a denominator the first modulus divides)."""
    if rng.random() < 0.3:
        return ExactRatFunc.coerce(0)
    num = ExactPoly([
        ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice((0, 0, 1, -1)))
        for _ in range(rng.randint(1, 2))
    ])
    den = rng.choice((ExactPoly([1]), ExactPoly([-2, 1]), ExactPoly([-1, p])))
    return ExactRatFunc(num, den)


def test_minimal_annihilator_matches_exact_elimination():
    p = _modulus(0)[0]
    rng = random.Random(3)
    short = cyclic = 0
    for _ in range(14):
        n = rng.choice((2, 3))
        k = rng.randint(1, n)
        # zero upper-right block: components below k see only the first k
        B = ExactMatrix([
            [_rand_pole_entry(rng, p) if i >= k or j < k else 0 for j in range(n)]
            for i in range(n)
        ])
        index = rng.randrange(n)
        ref = _reference_annihilator(B, index, "t")
        assert _minimal_annihilator(_row_module(B, "t"), index) == ref
        if ref.order < n:
            short += 1
            with pytest.raises(NotCyclicError):
                cyclic_to_scalar(LinearSystem(B), index)
        else:
            cyclic += 1
            assert cyclic_to_scalar(LinearSystem(B), index) == ref
    assert short >= 3 and cyclic >= 3


_T = ExactPoly([0, 1])
_POLES = (_T, _T - 1, _T - Fraction(1, 3), _T * _T + 1, _T - ExactScalar(0, Fraction(1, 2)))
_SMALL = st.builds(ExactScalar, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                   st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))


@st.composite
def systems_with_poles(draw):
    """(B, index): B of size 2 or 3 with entries c / q, c of degree below 2
    and q a product of up to two of _POLES."""
    n = draw(st.sampled_from((2, 3)))

    def entry():
        den = math.prod(draw(st.lists(st.sampled_from(_POLES), max_size=2)), start=ExactPoly([1]))
        return ExactRatFunc(ExactPoly(draw(st.lists(_SMALL, max_size=2))), den)

    B = ExactMatrix([[entry() for _ in range(n)] for _ in range(n)])
    return B, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None)
@given(systems_with_poles())
# d = (t - 1/3)(t^2 + 1), whose DA is 3, and a Gaussian entry
@example((ExactMatrix([[ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), _T - Fraction(1, 3)),
                        ExactRatFunc.coerce(1)],
                       [ExactRatFunc(ExactPoly([Fraction(1, 2)]), _T * _T + 1),
                        ExactRatFunc.coerce(0)]]), 0))
def test_row_module_numerators_match_the_rational_tower(drawn):
    # the rows e, eB + e', ... as levels N_k over dz^k, with B = Bt / d and
    # dz = DA d for a positive integer DA, equal entry by entry the rows
    # derived in ExactRatFunc arithmetic
    B, index = drawn
    rows = _row_module(B, "t")
    dz = level_polys(([rows.dz], 1))[0]
    assume(dz.degree > 0)
    DA = dz.leading()
    assert DA.d == 1 and DA.b == 0 and DA.a > 0
    assert dz.scale(DA.inverse()) == clear_denominators([f for r in B.entries for f in r], "t")[0]
    derive = row_derivation(B, "t")
    v = [ExactRatFunc.coerce(1 if j == index else 0) for j in range(B.rows)]
    level = _level([f.num for f in v])
    for k in range(B.rows + 1):
        assert [ExactRatFunc(f, dz**k) for f in level_polys(level)] == v
        level, v = _derive(level, k, rows), derive(v)


def test_companion_round_trip():
    sys = ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge_resonant()).subsystem(range(3))
    ode = cyclic_to_scalar(g, 1)
    again = cyclic_to_scalar(ode.companion(), 0)
    assert again == ode


# -- exponential substitution -----------------------------------------------

def test_exp_substitution_parabolic(kepler1b):
    sys = ve_blocks_transformed(kepler1b, Fraction(1, 4)).subsystem([0, 1])
    ode = cyclic_to_scalar(sys, 0)
    # y = w exp(-i a t^2 / 2), a = 2
    s = ExactPoly([0, 0, ExactScalar(0, -1)])
    red = exp_substitution(ode, s)
    assert red.coeff(0) == ExactRatFunc((ExactPoly.x() ** 2).scale(4))
    assert red.coeff(1).is_zero()


def test_exp_substitution_twobody_parabolic():
    mu = Fraction(1, 2)
    sys = ve_twobody_blocks(mu, 0, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge(mu))
    ode = cyclic_to_scalar(g.subsystem([1, 2]), 0)
    s = ExactPoly([0, 0, (1 - mu) / 2], var="tau")
    red = exp_substitution(ode, s)
    # w'' - (1+mu)[2 + (1+mu) tau^2] w = 0
    expect0 = ExactPoly(
        [-(1 + mu) * 2, 0, -((1 + mu) ** 2)], var="tau"
    )
    assert red.coeff(0) == ExactRatFunc(expect0, var="tau")
    assert red.coeff(1).is_zero()


def test_exp_substitution_third_order():
    sys = ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4))
    g = gauge_transform(sys, reduction_gauge_resonant()).subsystem(range(3))
    ode = cyclic_to_scalar(g, 1)
    red = exp_substitution(ode, ExactPoly([0, 0, Fraction(2, 3)], var="tau"))
    # v''' - (4/3) tau^2 v' + (4/27) tau (4 tau^2 - 63) v = 0
    assert red.coeff(2).is_zero()
    assert red.coeff(1) == ExactRatFunc(
        (ExactPoly.x("tau") ** 2).scale(Fraction(-4, 3)), var="tau"
    )
    assert red.coeff(0) == ExactRatFunc(
        ExactPoly([0, Fraction(-28, 3), 0, Fraction(16, 27)], var="tau"), var="tau"
    )


def _rand_gaussian_poly(rng):
    return ExactPoly([
        ExactScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
        for _ in range(rng.randint(1, 4))
    ])


def test_exp_substitution_inverse_round_trip():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 3)
        coeffs = []
        for _ in range(n):
            den = _rand_gaussian_poly(rng)
            coeffs.append(ExactRatFunc(
                _rand_gaussian_poly(rng), den if not den.is_zero() else 1
            ))
        L = DiffOperator(coeffs + [1])
        s = _rand_gaussian_poly(rng)
        twisted = exp_substitution(L, s)
        assert exp_substitution(twisted, -s) == L
        # twisted(u) = e^-s L(e^s u), tested on u = exp(int (r - s'))
        r = ExactRatFunc(_rand_gaussian_poly(rng), ExactPoly([1, 1]))
        ds = ExactRatFunc(s.derivative())
        assert twisted.apply_exp_ansatz(r - ds) == L.apply_exp_ansatz(r)


def _q_i_poly(max_degree):
    return st.lists(_SMALL, max_size=max_degree + 1).map(ExactPoly)


def _per_operation_twist(coeffs, rprime, var):
    """The twist of polynomial coefficients by a polynomial rprime, by the
    recurrence B[j+1][i] = B[j][i]' + rprime B[j][i] + B[j][i-1] in
    ExactPoly arithmetic, one normalized operation at a time."""
    n = len(coeffs) - 1
    zero = ExactPoly((), var=var)
    B = [[zero] * (n + 1) for _ in range(n + 1)]
    B[0][0] = ExactPoly.constant(1, var=var)
    for j in range(n):
        for i in range(j + 2):
            term = B[j][i].derivative() + rprime * B[j][i] if i <= j else zero
            if i > 0:
                term = term + B[j][i - 1]
            B[j + 1][i] = term
    return [sum((coeffs[j] * B[j][i] for j in range(n + 1)), zero) for i in range(n + 1)]


def _fields(polys):
    return [(p.re, p.im, p.d, p.var) for p in polys]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_q_i_poly(3), min_size=2, max_size=4),
    _q_i_poly(2),
    _q_i_poly(2),
)
def test_polynomial_twist_matches_rational_twist(P, a, b):
    # a polynomial operator twisted by a polynomial stays polynomial with
    # no gcd taken, equals the per-operation recurrence field for field,
    # and agrees with the twist over Q(i)(t)
    twisted = _twist(P, a, "t")
    assert all(isinstance(c, ExactPoly) for c in twisted)
    assert _fields(twisted) == _fields(_per_operation_twist(P, a, "t"))
    lifted = [ExactRatFunc(c) for c in P]
    assert [ExactRatFunc(c) for c in twisted] == _twist(lifted, ExactRatFunc(a), "t")
    # twisting by a and then by b is one twist by a + b
    assert _twist(twisted, b, "t") == _twist(P, a + b, "t")


@st.composite
def operators_with_poles(draw):
    """Monic operators of order 1 to 4 whose lower coefficients are c / q,
    c of degree below 3 and q a product of up to three of _POLES, repeats
    allowed, so the denominators share factors at several multiplicities."""
    coeffs = []
    for _ in range(draw(st.integers(1, 4))):
        den = math.prod(draw(st.lists(st.sampled_from(_POLES), max_size=3)), start=ExactPoly([1]))
        coeffs.append(ExactRatFunc(ExactPoly(draw(st.lists(_SMALL, max_size=3))), den))
    return DiffOperator(coeffs + [1])


@settings(max_examples=60, deadline=None)
@given(operators_with_poles())
def test_cleared_operator_has_content_one(L):
    polys = L.cleared()
    g = ExactPoly(())
    for p in polys:
        g = g.gcd(p)
    assert g == 1
    assert _fields(polys) == _fields(clear_denominators(L.coeffs, L.var)[1])
    # each call returns a new list
    polys[0] = ExactPoly([7])
    polys.append(ExactPoly([1]))
    assert _fields(L.cleared()) == _fields(clear_denominators(L.coeffs, L.var)[1])


@settings(max_examples=40, deadline=None)
@given(operators_with_poles(), _q_i_poly(3))
def test_exp_substitution_twists_the_cleared_operator(L, s):
    # the twist of the cleared polynomial operator, made monic, is the
    # twist of the rational coefficients
    rational = _twist(L.coeffs, ExactRatFunc(s.derivative()), "t")
    assert exp_substitution(L, s).coeffs == tuple(rational)


# -- Bessel closed form -----------------------------------------------------

def test_bessel_residual_oracle():
    a = 2.0
    worst = 0.0
    for t in np.linspace(0.1, 5.0, 60):
        y, yp, ypp = bessel_closed_form(a, 0.7, -0.3, t, derivatives=True)
        r = abs(ypp + 2j * a * t * yp + 1j * a * y)
        worst = max(worst, r / max(abs(ypp), 1e-30))
    assert worst < 1e-6


def test_bessel_derivative_consistency():
    h = 1e-6
    y, yp, _ = bessel_closed_form(1.5, 1.0, 0.4, 1.3, derivatives=True)
    fd = (
        bessel_closed_form(1.5, 1.0, 0.4, 1.3 + h)
        - bessel_closed_form(1.5, 1.0, 0.4, 1.3 - h)
    ) / (2 * h)
    assert abs(fd - yp) < 1e-7


def test_bessel_order_not_half_odd_integer():
    # order 1/4: 2*nu = 1/2 is not an odd integer
    assert (2 * Fraction(1, 4)).denominator != 1


def test_bessel_degenerate_and_domain():
    assert bessel_closed_form(0, 2.0, 3.0, 1.5) == pytest.approx(2.0 + 4.5)
    with pytest.raises(ValueError):
        bessel_closed_form(2.0, 1.0, 0.0, -1.0)

