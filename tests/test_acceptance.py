"""Acceptance gate: one test (and one pass/fail line under pytest -v) per
criterion.  Each test prints a summary line with the elapsed time and
enforces the stated runtime budget where one is given."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from heisenkep.exactalg import ExactMatrix, ExactPoly, ExactRatFunc, ExactScalar
from heisenkep.heisenmodel import (
    GroupElement,
    PhaseState1B,
    PotentialSpec,
    SystemSpec,
    condition_coefficient_a,
    particular_solution,
)
from heisenkep.dynamics import (
    ExtendedState,
    IntegratorConfig,
    extended_poisson_build,
    hamilton_rhs,
    integrate,
    integrate_extended,
    max_line_deviation,
    monitor_conserved,
)
from heisenkep.variational import (
    cyclic_to_scalar,
    exp_substitution,
    gauge_transform,
    reduction_gauge,
    reduction_gauge_resonant,
    ve_along,
    ve_blocks_transformed,
    ve_twobody_blocks,
)
from heisenkep.galois import (
    ParabolicParams,
    case2_obstruction,
    exp_solutions,
    exterior_square,
    factorization_basis,
    liouvillian_verdict_o3r,
    o3r_operator,
    plucker_check,
    rehm_classify,
    singularity_analysis,
    sym_power,
    system_exp_solutions,
)
from oracles import bessel_closed_form

I = ExactScalar.i()
KEPLER = SystemSpec("one-body", 1)
C14 = Fraction(1, 4)  # vertical solution with condition coefficient a = 2


def _report(n: int, elapsed: float, budget: float | None, msg: str):
    tag = "PASS" if budget is None or elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {n}: {tag} - {msg} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {n} exceeded {budget}s budget"


def _rf(p, var="t"):
    return ExactRatFunc.coerce(ExactPoly.coerce(p, var), var)


def _P(coeffs, var="t"):
    return ExactPoly(coeffs, var=var)


# -- 1: exact matrix reproduction -------------------------------------------

def test_criterion_1_exact_matrix_reproduction():
    t0 = time.perf_counter()

    # full 6x6 variational matrix along the vertical solution, a = 2
    full = ve_along(KEPLER, {"c": C14})
    at = _P([0, 2])
    a2t2 = _P([0, 0, -4])
    expect = [
        [0, 1, at, 0, 0, 0],
        [a2t2, 0, 0, at, 0, 0],
        [_P([0, -2]), 0, 0, 1, 0, 0],
        [0, _P([0, -2]), a2t2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, None, 0],  # coupling entry computed, not printed
    ]
    for i in range(6):
        for j in range(6):
            if expect[i][j] is None:
                assert not full.A[i, j].is_zero()
            else:
                assert full.A[i, j] == _rf(expect[i][j])

    # transformed one-body blocks: A1, its conjugate, computed coupling
    blocks = ve_blocks_transformed(KEPLER, C14)
    assert blocks.A[0, 1] == _rf(1)
    assert blocks.A[1, 0] == ExactRatFunc(ExactPoly([-2 * I]))
    assert blocks.A[1, 1] == ExactRatFunc(ExactPoly([0, -4 * I]))
    assert blocks.A[3, 2] == ExactRatFunc(ExactPoly([2 * I]))
    assert blocks.A[3, 3] == ExactRatFunc(ExactPoly([0, 4 * I]))
    assert blocks.A[5, 4] == _rf(32)

    # two-body block-diagonal system (mu = 1/2, tau0 = 1/3, w2 = 2)
    mu, t0b = Fraction(1, 2), Fraction(1, 3)
    sys2 = ve_twobody_blocks(mu, t0b, 2)
    tm = _P([-t0b, 1], "tau")
    tp = _P([t0b, 1], "tau")
    V = lambda p: _rf(p, "tau")
    assert sys2.A[0, 0] == V(tm) and sys2.A[0, 1] == V(1)
    assert sys2.A[1, 0] == V(tm * tm) and sys2.A[1, 2] == V(-1)
    assert sys2.A[2, 2] == V(tp.scale(-mu)) and sys2.A[2, 3] == V(_P([mu], "tau"))
    assert sys2.A[3, 2] == V((tp * tp).scale(mu))
    assert sys2.A[4, 4] == V(tm.scale(-1))
    assert sys2.A[11, 9] == ExactRatFunc(ExactPoly([2 * I], var="tau"), var="tau")
    for i in range(4):
        for j in range(4, 12):
            assert sys2.A[i, j].is_zero()

    # reduced A1-tilde, generic mass ratio: p1 = 2(1-mu) tau, p2 = 3+mu+4 mu tau^2
    g = gauge_transform(
        ve_twobody_blocks(mu, 0, 1).subsystem(range(4)), reduction_gauge(mu)
    )
    expect_g = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, _P([3 + mu, 0, 4 * mu], "tau"), _P([0, 2 * (1 - mu)], "tau"), 1],
        [0, 0, 0, 0],
    ]
    for i in range(4):
        for j in range(4):
            assert g.A[i, j] == V(expect_g[i][j])

    # reduced A1-tilde, resonant mass ratio mu = -1 about tau0 = 1
    gr = gauge_transform(
        ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4)),
        reduction_gauge_resonant(),
    )
    expect_r = [
        [_P([-2, 2], "tau"), 1, 0, 0],
        [0, 0, 1, 0],
        [4, -2, _P([2, 2], "tau"), 1],
        [0, 0, 0, 0],
    ]
    for i in range(4):
        for j in range(4):
            assert gr.A[i, j] == V(expect_r[i][j])

    _report(1, time.perf_counter() - t0, 1.0,
            "variational matrices reproduced entrywise exactly")


# -- 2: reduction chain ------------------------------------------------------

def test_criterion_2_reduction_chain():
    t0 = time.perf_counter()

    # one-body: w'' + a^2 t^2 w = 0 with a = 2
    ode1 = cyclic_to_scalar(ve_blocks_transformed(KEPLER, C14).subsystem([0, 1]), 0)
    red1 = exp_substitution(ode1, ExactPoly([0, 0, -I]))
    assert red1.order == 2 and red1.coeff(1).is_zero()
    assert red1.coeff(0) == _rf(_P([0, 0, 4]))

    # two-body, generic: w'' - (1+mu)[2 + (1+mu) tau^2] w = 0
    mu = Fraction(1, 2)
    g = gauge_transform(
        ve_twobody_blocks(mu, 0, 1).subsystem(range(4)), reduction_gauge(mu)
    )
    ode2 = cyclic_to_scalar(g.subsystem([1, 2]), 0)
    red2 = exp_substitution(ode2, ExactPoly([0, 0, (1 - mu) / 2], var="tau"))
    assert red2.coeff(1).is_zero()
    assert red2.coeff(0) == _rf(
        _P([-2 * (1 + mu), 0, -((1 + mu) ** 2)], "tau"), "tau"
    )

    # two-body, resonant: v''' - (4/3) tau^2 v' + (4/27) tau (4 tau^2 - 63) v = 0
    gr = gauge_transform(
        ve_twobody_blocks(Fraction(-1), 1, 1).subsystem(range(4)),
        reduction_gauge_resonant(),
    ).subsystem(range(3))
    ode3 = cyclic_to_scalar(gr, 1)
    red3 = exp_substitution(ode3, ExactPoly([0, 0, Fraction(2, 3)], var="tau"))
    assert red3.order == 3 and red3.coeff(2).is_zero()
    assert red3.coeff(1) == _rf(_P([0, 0, Fraction(-4, 3)], "tau"), "tau")
    assert red3.coeff(0) == _rf(
        _P([0, Fraction(-28, 3), 0, Fraction(16, 27)], "tau"), "tau"
    )

    _report(2, time.perf_counter() - t0, 1.0,
            "all three reduced scalar equations match with exact coefficients")


# -- 3: Rehm verdicts --------------------------------------------------------

def test_criterion_3_rehm_verdicts():
    t0 = time.perf_counter()

    # Kepler branch: (alpha^2, beta, gamma) = (-a^2, 0, 0) with a = 2
    v = rehm_classify(
        ParabolicParams(ExactScalar(-4), ExactScalar(0), ExactScalar(0))
    )
    assert v.tag == "NotSolvableIdentityComponent"
    assert v.evidence["group"] == "SL(2,C)"

    # two-body branch: ((1+mu)^2, 0, 2(1+mu)); ratio squared is 4, even
    for mu in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1),
               Fraction(3)):
        p = ParabolicParams(
            ExactScalar((1 + mu) ** 2), ExactScalar(0), ExactScalar(2 * (1 + mu))
        )
        assert p.ratio_squared() == ExactScalar(4)
        assert rehm_classify(p).tag == "NotSolvableIdentityComponent"

    # constructed odd-ratio fixture falls outside the criterion
    odd = ParabolicParams.from_alpha(2, 0, -2)
    assert odd.ratio_squared() == ExactScalar(1)
    assert rehm_classify(odd).tag == "Inconclusive"

    _report(3, time.perf_counter() - t0, 1.0,
            "SL(2,C) verdicts on both branches; odd-ratio fixture inconclusive")


# -- 4: resonant mass-ratio pipeline ----------------------------------------

# finite-singularity polynomial of the cleared symmetric-cube leading
# coefficient: tau * (3456 tau^14 - ... - 229734225), ascending coefficients
_S_COEFFS = {
    1: -229734225, 3: 71751150, 5: -2391850656, 7: 854800080,
    9: -119918560, 11: 8200960, 13: -271680, 15: 3456,
}


def test_criterion_4_resonant_pipeline():
    t0 = time.perf_counter()
    L = o3r_operator()

    assert exp_solutions(L) == []

    sym3 = sym_power(L, 3)
    assert sym3.order == 10

    lead = sym3.cleared()[sym3.order]
    expected = ExactPoly(
        [Fraction(_S_COEFFS.get(k, 0)) for k in range(16)], var="tau"
    )
    # equality up to a nonzero constant, exactly
    assert lead.degree == 15
    assert lead * expected.coeff(15) == expected * lead.coeff(15)

    sing = singularity_analysis(sym3)
    allowed = {ExactScalar(k) for k in list(range(9)) + [10]}
    for rec in sing.finite:
        assert set(rec["exponents"]) <= allowed
    assert sum(rec["num_points"] for rec in sing.finite) == 15
    assert sing.infinity["algebraic_exponents"] == [ExactScalar(2)]

    c2 = case2_obstruction(sing)
    assert c2.tag == "NotSolvableIdentityComponent"
    assert c2.evidence["case2"] == "excluded"

    verdict = liouvillian_verdict_o3r(L)
    assert verdict.tag == "NotSolvableIdentityComponent"
    assert verdict.evidence["case1"]["excluded"] is True
    assert verdict.evidence["case3"]["excluded"] is True
    assert verdict.evidence["case2"]["excluded"] is True

    _report(4, time.perf_counter() - t0, 60.0,
            "case 1 empty, sym^3 order 10 with the expected singularity "
            "polynomial, case 2 excluded, final verdict NotSolvable")


# -- 5: exterior square and factorization -----------------------------------

def test_criterion_5_exterior_square_factorization():
    t0 = time.perf_counter()
    block = ve_along(KEPLER, {"c": C14}).subsystem(range(4))
    E = exterior_square(block.A)

    # 6x6 induced system on 2-forms; the (3,5) entry sign is certified by a
    # numeric fundamental-solution oracle
    tt = _P([0, 2])
    mt = _P([0, -2])
    qq = _P([0, 0, -4])
    expect = [
        [0, 0, tt, mt, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [mt, qq, 0, 0, 1, tt],
        [tt, qq, 0, 0, 1, mt],
        [0, 0, qq, qq, 0, 0],
        [0, 0, mt, tt, 0, 0],
    ]
    for i in range(6):
        for j in range(6):
            assert E[i, j] == _rf(expect[i][j])

    sols = {str(s): v for s, v in system_exp_solutions(E)}
    y1 = sols["(2*i)*t^2"]
    y2 = sols["(-2*i)*t^2"]
    assert [str(e) for e in y1] == ["-1", "0", "-1*i", "1*i", "0", "1"]
    assert [str(e) for e in y2] == ["-1", "0", "1*i", "-1*i", "0", "1"]
    assert plucker_check(y1) and plucker_check(y2)

    fb = factorization_basis([y1, y2])
    assert fb.complete is True
    assert fb.Q.Q.det() == ExactRatFunc.coerce(-4)

    g = gauge_transform(block, fb.Q)
    two_it = ExactRatFunc(ExactPoly([0, 2 * I]))
    for i in range(2):
        for j in range(2, 4):
            assert g.A[i, j].is_zero() and g.A[j, i].is_zero()
    # 2x2 blocks [[2it, -4t^2], [1, 2it]] and the coefficient conjugate
    for base, d in ((0, two_it), (2, -two_it)):
        assert g.A[base, base] == d and g.A[base + 1, base + 1] == d
        assert g.A[base + 1, base] == ExactRatFunc.coerce(1)
        assert g.A[base, base + 1] == ExactRatFunc(ExactPoly([0, 0, -4]))

    _report(5, time.perf_counter() - t0, 5.0,
            "exterior square, exponential directions, Q with det -4, and the "
            "block-diagonal form all exact")


# -- 6: dynamics properties --------------------------------------------------

def test_criterion_6_dynamics_properties():
    t0 = time.perf_counter()
    tight = dict(abs_tol=1e-12, rel_tol=1e-12)

    # generic scattering orbit over [0, 100]
    traj = integrate(KEPLER, PhaseState1B(1.0, 0.0, 0.2, 0.3, 1.2, 0.1),
                     IntegratorConfig(t_end=100.0, **tight))
    rep = monitor_conserved(KEPLER, traj)
    assert rep.drifts["H"] < 1e-9
    assert rep.djdt_residual_max < 1e-7

    # invariant vertical line over [0, 10]
    line = integrate(KEPLER, particular_solution(KEPLER, {"c": 0.5}, 0.0),
                     IntegratorConfig(t_end=10.0, **tight))
    pts = line.at(np.linspace(0, 10, 300))
    assert max_line_deviation(pts[:, :3]) < 1e-9

    # H = 0 orbit over [0, 50]: J is constant there
    r = math.sqrt(1.0 + 16 * 0.04)
    zero = PhaseState1B(1.0, 0.0, 0.2, 0.0, math.sqrt(2.0 / r), 0.0)
    ztraj = integrate(KEPLER, zero, IntegratorConfig(t_end=50.0, **tight))
    zrep = monitor_conserved(KEPLER, ztraj)
    assert zrep.j_constant_at_zero_energy is True
    assert zrep.j_drift < 1e-8

    # two-body first integrals
    two = SystemSpec("two-body", 2, m1=1, m2=3)
    s0 = np.array([1.5, 0.0, 0.2, -1.5, 0.0, -0.2,
                   0.2, 1.5, 0.1, -0.2, -1.8, 0.0])
    trep = monitor_conserved(two, integrate(two, s0,
                                            IntegratorConfig(t_end=10.0, **tight)))
    for key in ("I1", "I2", "I3", "I4"):
        assert trep.drifts[key] < 1e-8

    _report(6, time.perf_counter() - t0, 30.0,
            "energy/J/two-body integral drifts and straight-line deviation "
            "within tolerances")


# -- 7: extended Poisson structure ------------------------------------------

def test_criterion_7_extended_poisson():
    t0 = time.perf_counter()
    lifted = extended_poisson_build(KEPLER)
    rng = np.random.default_rng(17)

    def leaf_point():
        q = rng.uniform(-2, 2, size=3)
        p = rng.uniform(-2, 2, size=3)
        u = math.sqrt((q[0] ** 2 + q[1] ** 2) ** 2 + 16 * q[2] ** 2)
        return np.concatenate([q, p, [u]])

    pts = [leaf_point() for _ in range(100)]
    assert all(np.linalg.matrix_rank(lifted.J(x), tol=1e-10) == 6 for x in pts)
    probes = [lifted.K] + [lambda x, i=i: float(x[i]) ** 2 for i in range(7)]
    cas = max(abs(lifted.bracket(lifted.P, f, x, grad_f=lifted.grad_P))
              for x in pts[:25] for f in probes)
    assert cas < 1e-10

    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
    q0, p0 = (1.0, 0.0, 0.2), (0.3, 1.2, 0.1)
    u0 = math.sqrt(1.0 + 16 * 0.04)
    direct = integrate(KEPLER, np.array(q0 + p0), cfg)
    ext = integrate_extended(lifted, ExtendedState(q0, p0, u0), cfg)
    ts = np.linspace(0, 10, 200)
    assert np.max(np.abs(ext.at(ts)[:, :6] - direct.at(ts))) < 1e-6
    assert ext.stats["max_casimir_residual"] < 1e-8

    _report(7, time.perf_counter() - t0, 10.0,
            "rank 2n, Casimir bracket, flow projection, and P drift verified")


# -- 8: closed-form oracles --------------------------------------------------

def test_criterion_8_closed_form_oracles():
    t0 = time.perf_counter()

    # Bessel closed form annihilates y'' + 2iat y' + ia y = 0 (a = 2)
    a = 2.0
    worst = 0.0
    for t in np.linspace(0.1, 5.0, 60):
        y, yp, ypp = bessel_closed_form(a, 0.7, -0.3, t, derivatives=True)
        res = abs(ypp + 2j * a * t * yp + 1j * a * y)
        worst = max(worst, res / max(abs(ypp), 1e-30))
    assert worst < 1e-6

    # particular solutions satisfy the equations of motion
    h = 1e-6
    for spec, params in (
        (KEPLER, {"c": 0.5}),
        (SystemSpec("two-body", 2, m1=1, m2=3), {"w2": 1.25}),
    ):
        for tq in (0.0, 0.7, 2.3):
            sp = particular_solution(spec, params, tq + h).to_array()
            sm = particular_solution(spec, params, tq - h).to_array()
            fd = (sp - sm) / (2 * h)
            f = hamilton_rhs(spec, particular_solution(spec, params, tq))
            assert np.max(np.abs(fd - f)) < 1e-9

    _report(8, time.perf_counter() - t0, None,
            "Bessel closed form and both particular solutions satisfy their "
            "equations")


# -- 9: condition coefficient fixtures --------------------------------------

def test_criterion_9_condition_fixtures():
    t0 = time.perf_counter()
    import sympy

    # Kepler: a = kappa / (8 c^2), against a symbolic-differentiation oracle
    for kappa, c in ((1, Fraction(1, 4)), (2, Fraction(1, 2)),
                     (Fraction(3, 2), Fraction(2))):
        spec = SystemSpec("one-body", kappa)
        a = condition_coefficient_a(spec, c)
        assert a == Fraction(kappa) / (8 * c * c)
        z, rho_s = sympy.symbols("z rho", positive=True)
        W = -sympy.nsimplify(kappa) / rho_s
        oracle = sympy.Rational(
            ((sympy.diff(W, z) + 4 * sympy.diff(W, rho_s)) / 2).subs(
                {z: sympy.nsimplify(c), rho_s: 4 * sympy.nsimplify(c)}
            )
        )
        assert a == Fraction(oracle.p, oracle.q)

    # two-body Kepler: a = m1 m2 kappa / (8 w2 |w2|)
    two = SystemSpec("two-body", 2, m1=1, m2=3)
    w2 = Fraction(5, 4)
    assert condition_coefficient_a(two, w2) == 6 / (8 * w2 * abs(w2))

    # boundary fixture: V = z^2 (x^2+y^2)^2 = z^2 rho^2 - 16 z^4 gives a = 0
    flat = SystemSpec(
        "one-body", 1,
        potential=PotentialSpec([[2, 2, "1"], [4, 0, "-16"]]),
    )
    assert condition_coefficient_a(flat, Fraction(1, 2)) == 0

    _report(9, time.perf_counter() - t0, None,
            "a = kappa/(8c^2) matches the symbolic oracle; flat potential "
            "gives a = 0")
