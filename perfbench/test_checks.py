"""The benchmark's own tests: every correctness check rejects a wrong answer.

    python3 -m pytest -q perfbench

They run in seconds: the resonant checks use the paper's data rather than
the 25-30 s pipeline, and the factorization is computed once (about 4 s).
"""

from fractions import Fraction

import pytest

import checks
import compare
import workloads
from heisenkep import galois
from heisenkep.exactalg import ExactMatrix, ExactPoly, ExactRatFunc
from spans import Tracer

OFF = Tracer(False)
GOOD = "NotSolvableIdentityComponent"
# monic sym^3 singularity polynomial of the resonant operator, as printed
S1 = ("(-8508675/128)*tau + (1328725/64)*tau^3 + (-8305037/12)*tau^5 + "
      "(17808335/72)*tau^7 + (-3747455/108)*tau^9 + (64070/27)*tau^11 + "
      "(-1415/18)*tau^13 + tau^15")


def evidence(poly=S1, exps=("0", "1", "2", "3", "4", "5", "6", "7", "8", "10"),
             alpha=("2",)):
    return {
        "operator_order": 3,
        "case1": {"exponential_solutions": [], "excluded": True},
        "case3": {"fuchsian": False, "irregular_at_infinity": True, "excluded": True},
        "case2": {"sym3_order": 10, "singularity_polynomial": poly,
                  "num_singular_points": 15, "finite_exponents": list(exps),
                  "alpha_infinity": list(alpha), "excluded": True},
    }


# -- resonant_verdict ---------------------------------------------------------

def test_verdict_check_accepts_the_paper_data():
    assert checks.check_verdict(Fraction(1), GOOD, evidence()) == []


def test_verdict_check_follows_the_rescaling():
    lam = Fraction(-3, 2)
    scaled = ExactPoly([Fraction(checks.PAPER_S.get(k, 0)) * lam**k for k in range(16)],
                       var="tau")
    assert checks.check_verdict(lam, GOOD, evidence(poly=str(scaled))) == []
    assert checks.check_verdict(lam, GOOD, evidence()) != []


def test_verdict_tagged_inconclusive_fails():
    ev = evidence()
    ev["case2"]["excluded"] = False
    assert checks.check_verdict(Fraction(1), "Inconclusive", ev)


def test_altered_singularity_coefficient_fails():
    bad = S1.replace("(64070/27)", "(64071/27)")
    assert checks.check_verdict(Fraction(1), GOOD, evidence(poly=bad))


@pytest.mark.parametrize("exps,alpha", [
    (("0", "1", "2", "3", "4", "5", "6", "7", "-8", "10"), ("2",)),
    (("0", "1", "2", "3", "4", "5", "6", "7", "8", "10"), ("-2",)),
])
def test_flipped_exponent_sign_fails(exps, alpha):
    assert checks.check_verdict(Fraction(1), GOOD, evidence(exps=exps, alpha=alpha))


def test_exponential_solution_fails():
    ev = evidence()
    ev["case1"]["exponential_solutions"] = ["tau"]
    assert checks.check_verdict(Fraction(1), GOOD, ev)


def test_rescale_round_trips():
    L = galois.o3r_operator()
    lam = Fraction(3, 2)
    L2 = workloads.rescale(L, lam)
    assert L2 != L
    assert workloads.rescale(L2, 1 / lam) == L


# -- factorize_family ---------------------------------------------------------

KAPPA, C = Fraction(1), Fraction(1, 4)


@pytest.fixture(scope="module")
def factorization():
    _, out = workloads.factorize_run({}, {"kappa": KAPPA, "c": C}, OFF)
    return out


def test_factorization_check_accepts_the_program(factorization):
    assert checks.check_factorization(KAPPA, C, **factorization) == []


def test_wrong_condition_coefficient_fails(factorization):
    assert checks.check_factorization(2 * KAPPA, C, **factorization)


def test_flipped_exponent_sign_in_factorization_fails(factorization):
    sols = list(factorization["solutions"])
    k = next(i for i, (s, _) in enumerate(sols) if not s.is_zero())
    s, v = sols[k]
    sols[k] = (-s, v)
    bad = dict(factorization, solutions=sols)
    assert any("does not solve" in p for p in checks.check_factorization(KAPPA, C, **bad))


def test_non_block_diagonal_gauge_result_fails(factorization):
    B = factorization["blocks"]
    rows = [[B[i, j] for j in range(4)] for i in range(4)]
    rows[0][2] = rows[0][2] + ExactRatFunc.coerce(1)
    bad = dict(factorization, blocks=ExactMatrix(rows))
    assert checks.check_factorization(KAPPA, C, **bad)


def test_non_decomposable_direction_fails(factorization):
    v = list(factorization["decomposable"][0])
    v[5] = v[5] + ExactPoly([1])
    bad = dict(factorization, decomposable=[v, factorization["decomposable"][1]])
    assert any("Pluecker" in p for p in checks.check_factorization(KAPPA, C, **bad))


# -- orbit_sweep --------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return workloads.orbit_setup(0)


def _orbit(ctx, inp):
    _, out = workloads.orbit_run(ctx, inp, OFF)
    return out


INFALL = {"kind": "infall", "system": "one", "t_end": 30.0,
          "state": [1.3, 0.0, 0.0, 0.3, 0.0, 0.0]}
LINE = {"kind": "line", "system": "one", "c": Fraction(1, 2), "t_end": 10.0}


def test_infall_time_solves_the_closed_form():
    x0, p0, rho_min = 1.3, 0.3, 1e-8
    t = checks.infall_time(x0, p0, 1.0, rho_min)
    E = p0 * p0 / 2 - 1 / x0**2
    assert abs(x0**2 + 2 * x0 * p0 * t + 2 * E * t * t - rho_min) < 1e-12
    assert t > 0


def test_infall_check_accepts_the_program(ctx):
    assert workloads.orbit_check(INFALL, _orbit(ctx, INFALL)) == []


def test_shifted_collision_time_fails(ctx):
    out = _orbit(ctx, INFALL)
    out["t_stop"] += 1e-6
    assert workloads.orbit_check(INFALL, out)


def test_line_check_accepts_the_program_and_rejects_another_c(ctx):
    out = _orbit(ctx, LINE)
    assert workloads.orbit_check(LINE, out) == []
    assert workloads.orbit_check(dict(LINE, c=Fraction(17, 32)), out)
    assert workloads.orbit_check(LINE, dict(out, line_dev=1e-3))


def test_unexpected_guard_and_drift_fail():
    assert checks.check_drifts("collision_guard", {"H": 0.0}, {})
    assert checks.check_drifts(None, {"H": 2e-9, "djdt": 0.0}, {})
    assert checks.check_drifts(None, {"H": 0.0, "j_drift": 2e-8}, {"j_drift": 1e-8})
    assert checks.check_drifts(None, {"H": 0.0, "j_drift": 2e-8}, {}) == []


def test_bracket_identity_violation_fails():
    assert checks.check_brackets([("{J,H} - 2H", 1e-9)]) == []
    assert checks.check_brackets([("{J,H} - 2H", 1e-3)])


# -- harness ------------------------------------------------------------------

def test_inputs_follow_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert str(wl.inputs(3)) == str(wl.inputs(3))
    assert str(workloads.factorize_inputs(3)) != str(workloads.factorize_inputs(4))
    assert str(workloads.orbit_inputs(3)) != str(workloads.orbit_inputs(4))
    assert len(workloads.orbit_inputs(3)) == len(workloads.orbit_inputs(4))


def test_tracer_self_time_and_restore():
    target = galois.sym_power
    tr = Tracer(True)
    tr.install()
    try:
        assert galois.sym_power is not target
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(10000))
    finally:
        tr.uninstall()
    assert galois.sym_power is target
    assert tr.calls["outer"] == tr.calls["inner"] == 1
    assert tr.self_time["outer"] == pytest.approx(tr.total["outer"] - tr.total["inner"])


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    faster = [0.5, 0.51, 0.49, 0.5, 0.52]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, "lower", 0.1)[0] == "better"
    assert compare.verdict(faster, base, pairs, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, base, list(zip(base, base)), "lower", 0.1)[0] == "same"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
    assert compare.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, pairs, "higher", 0.1)[0] == "worse"
