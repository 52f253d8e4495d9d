import ast
import functools
import inspect
import json
import math
import random
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from heisenkep.dynamics import extended_poisson_build
from heisenkep.heisenmodel import (
    CollisionError,
    GroupElement,
    PhaseState1B,
    PhaseState2B,
    PotentialSpec,
    SystemSpec,
    condition_coefficient_a,
    first_integrals,
    group_inv,
    group_mul,
    hamiltonian,
    _compile_def,
    _hoisted,
    _kepler_sources,
    _on_floats,
    _sqrt,
    _table_sources,
    particular_solution,
    poisson_bracket,
    rho,
    state_rho,
)

from oracles import (
    h_fn,
    lift_fns,
    numpy_scalar_first_integrals,
    numpy_scalar_h,
    numpy_scalar_rhs,
    numpy_scalar_state_rho,
    potential_expr,
    rhs_fn,
)
from test_cli import LAMBDIFY_SOURCES, _require_versions


@pytest.fixture(scope="module")
def kepler1b():
    return SystemSpec("one-body", 1)


@pytest.fixture(scope="module")
def kepler2b():
    return SystemSpec("two-body", 2, m1=1, m2=3)


def _rand_g(rng):
    return GroupElement(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))


# -- group ------------------------------------------------------------------

def test_group_identity_and_examples():
    e = GroupElement(0, 0, 0)
    g = GroupElement(0.3, -1.2, 2.0)
    assert group_mul(e, g) == g
    assert group_mul(GroupElement(1, 0, 0), GroupElement(0, 1, 0)) == GroupElement(1, 1, 0.5)
    assert group_mul(g, GroupElement(-g.x, -g.y, -g.z)) == e


def test_group_inverse():
    assert group_inv(GroupElement(0, 0, 0)) == GroupElement(0, 0, 0)
    g = GroupElement(1, 2, 3)
    assert group_inv(g) == GroupElement(-1, -2, -3)
    prod = group_mul(g, group_inv(g))
    assert prod == GroupElement(0, 0, 0)
    rng = random.Random(3)
    for _ in range(20):
        h = _rand_g(rng)
        assert group_inv(group_inv(h)) == h


def test_group_associativity():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = _rand_g(rng), _rand_g(rng), _rand_g(rng)
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        assert astuple(lhs) == pytest.approx(astuple(rhs), abs=1e-12)


def test_rho_values():
    assert rho(GroupElement(0, 0, -0.75)) == pytest.approx(3.0, abs=1e-15)
    assert rho(GroupElement(1, 0, 0)) == pytest.approx(1.0)
    assert rho(GroupElement(1, 1, 1)) == pytest.approx(math.sqrt(20))


def test_rho_rotation_invariance():
    rng = random.Random(9)
    for _ in range(20):
        g = _rand_g(rng)
        th = rng.uniform(0, 2 * math.pi)
        gr = GroupElement(
            g.x * math.cos(th) - g.y * math.sin(th),
            g.x * math.sin(th) + g.y * math.cos(th),
            g.z,
        )
        assert rho(gr) == pytest.approx(rho(g), rel=1e-12)


# -- hamiltonian ------------------------------------------------------------

def test_hamiltonian_on_axis(kepler1b):
    c = 1.7
    s = PhaseState1B(0, 0, c, 0, 0, 3.3)
    assert hamiltonian(kepler1b, s) == pytest.approx(-1 / (4 * c), rel=1e-14)


def test_hamiltonian_free_kinetic():
    spec = SystemSpec("one-body", 1e-300)  # kappa -> 0 limit
    s = PhaseState1B(1, 0, 0, 1, 0, 0)
    assert hamiltonian(spec, s) == pytest.approx(0.5, rel=1e-12)


def test_hamiltonian_collision_signalled(kepler1b):
    with pytest.raises(CollisionError):
        hamiltonian(kepler1b, PhaseState1B(0, 0, 0, 1, 0, 0))


def test_two_body_particular_energy(kepler2b):
    st = particular_solution(kepler2b, {"w2": 1.25, "pw1": 0.5}, 2.0)
    rho12 = rho(st.relative)
    assert rho12 == pytest.approx(4 * 1.25)
    expect = -kepler2b.kappa * kepler2b.m1 * kepler2b.m2 / rho12
    assert hamiltonian(kepler2b, st) == pytest.approx(expect, rel=1e-14)


def test_one_body_particular_energy_time_independent(kepler1b):
    c = 0.8
    vals = [
        hamiltonian(kepler1b, particular_solution(kepler1b, {"c": c}, t))
        for t in (0.0, 0.5, 3.0, 10.0)
    ]
    assert vals == pytest.approx([-1 / (4 * c)] * 4, rel=1e-14)


# -- first integrals and brackets ------------------------------------------

def test_first_integrals_axis(kepler1b):
    c, pz = -1.5, 2.5
    vals = first_integrals(kepler1b, PhaseState1B(0, 0, c, 0, 0, pz))
    assert vals["J"] == pytest.approx(2 * c * pz)
    assert vals["p_theta"] == 0.0


def test_p_theta_invariant_submanifold(kepler1b):
    # p_theta vanishes whenever momentum is radial in the (x, y) plane
    s = PhaseState1B(2.0, 0.0, 0.0, 1.3, 0.0, 0.0)
    assert first_integrals(kepler1b, s)["p_theta"] == 0.0


def test_I3_is_momentum_sum(kepler2b):
    rng = np.random.default_rng(1)
    a = rng.normal(size=12)
    vals = first_integrals(kepler2b, a)
    assert vals["I3"] == pytest.approx(a[8] + a[11])


def test_bracket_antisymmetry(kepler2b):
    rng = np.random.default_rng(2)
    a = rng.normal(size=12)
    f = lambda s: first_integrals(kepler2b, s)["I4"]
    assert poisson_bracket(f, f, a) == pytest.approx(0.0, abs=1e-10)


def test_bracket_relations_random_states(kepler2b):
    rng = np.random.default_rng(3)
    I = {
        k: (lambda s, k=k: first_integrals(kepler2b, s)[k])
        for k in ("I1", "I2", "I3", "I4")
    }
    for _ in range(100):
        a = rng.normal(size=12)
        vals = first_integrals(kepler2b, a)
        assert abs(poisson_bracket(I["I1"], I["I2"], a) - vals["I3"]) < 1e-6
        assert abs(poisson_bracket(I["I1"], I["I4"], a) - vals["I2"]) < 1e-6
        assert abs(poisson_bracket(I["I2"], I["I4"], a) + vals["I1"]) < 1e-6


def test_J_dot_is_2H(kepler2b):
    rng = np.random.default_rng(4)
    H = lambda s: hamiltonian(kepler2b, s)
    J = lambda s: first_integrals(kepler2b, s)["J"]
    for _ in range(20):
        a = rng.normal(size=12) + np.array([1.5, 0, 0, -1.5, 0, 0] + [0] * 6)
        # dJ/dt = {J, H} = 2H
        assert poisson_bracket(J, H, a) == pytest.approx(
            2 * hamiltonian(kepler2b, a), abs=1e-6, rel=1e-6
        )


# -- condition coefficient --------------------------------------------------

def test_condition_a_kepler_exact(kepler1b):
    for c in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
        # symbolic-differentiation oracle on W = -kappa/rho
        z, r = sp.symbols("z rho", positive=True)
        W = -sp.Integer(1) / r
        oracle = sp.Rational(
            sp.simplify(
                (sp.diff(W, z) + 4 * sp.diff(W, r)).subs({z: c, r: 4 * c}) / 2
            )
        )
        got = condition_coefficient_a(kepler1b, c)
        assert got == Fraction(oracle.p, oracle.q) == Fraction(1, 8) / c**2


def test_condition_a_fails_for_z2r4_potential():
    pot = PotentialSpec([[2, 2, "1"], [4, 0, "-16"]])
    spec = SystemSpec("one-body", 1, potential=pot)
    for c in (Fraction(1), Fraction(-2), Fraction(3, 5)):
        assert condition_coefficient_a(spec, c) == 0


def test_condition_a_linear_potential():
    pot = PotentialSpec([[0, 1, "1"]])  # W = rho
    spec = SystemSpec("one-body", 1, potential=pot)
    assert condition_coefficient_a(spec, Fraction(2)) == 2
    assert condition_coefficient_a(spec, Fraction(-2)) == -2


def test_condition_a_rejects_zero(kepler1b):
    with pytest.raises(ValueError):
        condition_coefficient_a(kepler1b, 0)


# -- particular solutions ---------------------------------------------------

def test_particular_solution_initial_instant(kepler1b):
    s = particular_solution(kepler1b, {"c": 0.9}, 0.0)
    assert s == PhaseState1B(0, 0, 0.9, 0, 0, 0)


def test_particular_solution_momentum_ramp(kepler1b):
    c = Fraction(1, 2)
    a = condition_coefficient_a(kepler1b, c)
    for t in (0.5, 1.0, 4.0):
        s = particular_solution(kepler1b, {"c": c}, t)
        assert s.pz == pytest.approx(-2 * float(a) * t, rel=1e-14)


def test_two_body_coefficient_formula(kepler2b):
    for w2 in (Fraction(1), Fraction(-1, 2), Fraction(5, 4)):
        a = condition_coefficient_a(kepler2b, w2)
        expect = Fraction(2 * 1 * 3) / (8 * w2 * abs(w2))
        assert a == expect


def test_particular_solution_rejects_constant(kepler1b, kepler2b):
    with pytest.raises(ValueError):
        particular_solution(kepler1b, {"c": 0}, 1.0)
    with pytest.raises(ValueError):
        particular_solution(kepler2b, {"w2": 0}, 1.0)


# -- JSON -------------------------------------------------------------------

def test_system_spec_json_round_trip(kepler2b):
    doc = kepler2b.to_json()
    back = SystemSpec.from_json(doc)
    assert back.kind == "two-body"
    assert back.kappa_exact == kepler2b.kappa_exact
    assert back.m2_exact == kepler2b.m2_exact


def test_system_spec_json_custom_potential():
    pot = PotentialSpec([[2, 2, "1"], [4, 0, "-16"]])
    spec = SystemSpec("one-body", "3/2", potential=pot)
    back = SystemSpec.from_json(spec.to_json())
    assert sp.simplify(potential_expr(back.potential) - potential_expr(spec.potential)) == 0
    assert back.kappa_exact == sp.Rational(3, 2)


def test_potential_json_tables_are_canonical():
    # sorted by (i, j), equal monomials merged, zero coefficients dropped
    pot = PotentialSpec(
        [[1, 0, "1/2"], [0, 2, "0"], [0, 0, 1], [1, 0, "1/2+1*i"]], [[0, 1, 2]])
    assert pot.to_json() == {"num": [[0, 0, "1"], [1, 0, "1+1*i"]],
                             "den": [[0, 1, "2"]]}
    assert PotentialSpec(*pot.to_json().values()).to_json() == pot.to_json()


@pytest.mark.parametrize(
    "kind,kappa,m1,m2",
    [
        ("one-body", "1/2+1/3*i", 1, 1),
        ("one-body", 1j, 1, 1),
        ("two-body", 1, "1/2+1*i", 1),
        ("two-body", 1, 1, "-2*i"),
    ],
)
def test_system_spec_rejects_non_real_parameters(kind, kappa, m1, m2):
    with pytest.raises(ValueError, match="must be real"):
        SystemSpec(kind, kappa, m1, m2)


_nonzero_q = st.fractions(max_denominator=20000).filter(lambda q: q != 0)
_positive_q = st.fractions(min_value=0, max_denominator=20000).filter(lambda q: q > 0)
_tables = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _nonzero_q,
                          min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_nonzero_q, _positive_q, _positive_q, _tables | st.none())
@example(Fraction(1, 13718), Fraction(1), Fraction(1), None)
@example(Fraction(3), Fraction(1, 13718), Fraction(7, 2), {(0, 1): Fraction(-1, 13718)})
def test_system_spec_json_round_trip_exact(kappa, m1, m2, table):
    # exact rationals are written as they are (no nsimplify, which can turn
    # -1/13718 into a product of fractional powers), so they read back
    pot = None if table is None else PotentialSpec(
        [[i, j, c] for (i, j), c in table.items()], [[0, 2, 1], [0, 0, 1]])
    spec = SystemSpec("one-body", kappa, m1, m2, potential=pot)
    doc = spec.to_json()
    assert doc["kappa"] == str(kappa) and doc["m1"] == str(m1) and doc["m2"] == str(m2)
    back = SystemSpec.from_json(json.loads(json.dumps(doc)))
    assert (back.kappa_exact, back.m1_exact, back.m2_exact) == (
        spec.kappa_exact, spec.m1_exact, spec.m2_exact)
    assert back.to_json() == doc
    if pot is not None:
        assert sp.cancel(potential_expr(back.potential) - potential_expr(pot)) == 0


# -- evaluation on Python floats --------------------------------------------

_lambdify_spec = functools.cache(lambda name: LAMBDIFY_SOURCES[name][0]())
_component = st.floats(-4, 4) | st.floats(allow_nan=True, allow_infinity=True)


def _bits(v) -> np.ndarray:
    """The float64 bit patterns of v, with every nan made the same nan."""
    v = np.asarray(v, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


def _integrals(fn, spec, a):
    try:
        return list(fn(spec, a).values())
    except CollisionError:
        return CollisionError


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LAMBDIFY_SOURCES)), st.lists(_component, min_size=12, max_size=12))
# the collision set rho = 0, where numpy gives inf or nan (Kepler: Python raises on x/0.0)
@example("kepler_1b", [0.0, 0.0, 0.0, 0.3, -1.2, 0.5] + [0.0] * 6)
@example("kepler_2b", [0.5, -1.0, 2.0, 0.5, -1.0, 2.0, 0.1, 0.2, 0.3, -0.4, 0.5, -0.6])
@example("table", [0.0] * 12)
# components near 1e160: Python raises where ** overflows
@example("kepler_1b", [1e160, 0.5, -0.25, 1.0, 2.0, -1.0] + [0.0] * 6)
@example("kepler_2b", [1e160, 0.0, 1.0, -1e160, 0.5, 0.0, 1.0, 2.0, 3.0, 1e160, -2.0, 1.0])
@example("table", [0.5, 3e159, -1.0, 1.0, 1e160, 0.25] + [0.0] * 6)
def test_float_evaluation_matches_numpy_scalars_bit_for_bit(name, values):
    spec = _lambdify_spec(name)
    a = np.array(values[: spec.dim])
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(_on_floats(spec._rhs, a)),
                              _bits(numpy_scalar_rhs(spec, a)))
        assert np.array_equal(_bits(_on_floats(spec._h_fn, a)),
                              _bits(numpy_scalar_h(spec, a)))
        assert _bits(state_rho(spec, a)) == _bits(numpy_scalar_state_rho(spec, a))
        new = _integrals(first_integrals, spec, a)
        old = _integrals(numpy_scalar_first_integrals, spec, a)
    assert (new is old) if CollisionError in (new, old) else np.array_equal(
        _bits(new), _bits(old))


# -- the hoisted vector field -------------------------------------------------

@functools.cache
def _hoist_spec(source):
    """A packaged evaluator spec by name, or a (kind, table) potential."""
    if isinstance(source, str):
        return _lambdify_spec(source)
    kind, table = source
    return SystemSpec(kind, 1, m1=2, m2=3, potential=PotentialSpec(
        [[i, j, c] for (i, j), c in table], [[0, 2, 1], [0, 0, 1]]))


def _printed_rhs(spec):
    """spec's vector field compiled from its printed source, not hoisted,
    with the table evaluators' sqrt."""
    printed = _kepler_sources(spec) or _table_sources(spec)
    return _compile_def(printed[1], "printed rhs", {"sqrt": _sqrt})


def _raises(fn, *args):
    try:
        fn(*args)
    except (ZeroDivisionError, OverflowError):
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LAMBDIFY_SOURCES))
       | st.tuples(st.sampled_from(["one-body", "two-body"]),
                   _tables.map(lambda t: tuple(sorted(t.items())))),
       st.lists(_component, min_size=12, max_size=12))
# rho = 0, and components near 1e160, where Python raises
@example("kepler_1b", [0.0, 0.0, 0.0, 0.3, -1.2, 0.5] + [0.0] * 6)
@example("kepler_2b", [0.5, -1.0, 2.0, 0.5, -1.0, 2.0, 0.1, 0.2, 0.3, -0.4, 0.5, -0.6])
@example("table", [0.0] * 12)
@example("kepler_1b", [1e160, 0.5, -0.25, 1.0, 2.0, -1.0] + [0.0] * 6)
@example("kepler_2b", [1e160, 0.0, 1.0, -1e160, 0.5, 0.0, 1.0, 2.0, 3.0, 1e160, -2.0, 1.0])
@example("table", [0.5, 3e159, -1.0, 1.0, 1e160, 0.25] + [0.0] * 6)
# a sqrt of 1e120 whose cube overflows, on floats and on numpy's scalars
@example(("two-body", (((1, 3), Fraction(1343, 56)), ((3, 0), Fraction(-118, 271)))),
         [1e60] + [0.0] * 11)
def test_hoisted_rhs_is_the_printed_rhs_bit_for_bit(source, values):
    # the printed source is lambdify's text on a Kepler table, and the
    # package's chain rule on any other (held to sympy's values by
    # test_table_evaluators_match_the_sympy_oracle)
    spec = _hoist_spec(source)
    printed = _printed_rhs(spec)
    a = np.array(values[: spec.dim])
    with np.errstate(all="ignore"):
        assert _raises(spec._rhs, *a.tolist()) == _raises(printed, *a.tolist())
        assert np.array_equal(_bits(_on_floats(spec._rhs, a)), _bits(printed(*a)))


@pytest.mark.parametrize("name", sorted(LAMBDIFY_SOURCES))
def test_hoisted_rhs_evaluates_each_subexpression_once(name):
    spec = _lambdify_spec(name)
    fdef = ast.parse(inspect.getsource(spec._rhs)).body[0]
    variables = {a.arg for a in fdef.args.args}
    *assigns, ret = fdef.body
    assert assigns and isinstance(ret, ast.Return)
    variables |= {a.targets[0].id for a in assigns}
    seen = set()
    for node in ast.walk(ast.Module(fdef.body, [])):
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)) and any(
                isinstance(n, ast.Name) and n.id in variables for n in ast.walk(node)):
            assert ast.dump(node) not in seen, ast.unparse(node)
            seen.add(ast.dump(node))


def test_hoist_tells_apart_subtrees_that_differ_in_an_operator_or_a_constant():
    x, y = sp.symbols("x y", real=True)
    fn = sp.lambdify([x, y], [(x + y)**3, (x - y)**3, x + y, x - y,
                              2 * x * y, 3 * x * y, 2 * x * y, 3 * x * y], modules="math")
    hoisted = _hoisted(fn)
    assert inspect.getsource(hoisted).count(" = ") == 4
    assert hoisted(1.5, 0.25) == fn(1.5, 0.25)


def test_hoist_leaves_a_lazy_expression_alone():
    x = sp.Symbol("x", real=True)
    # the math printer writes Piecewise as a conditional expression
    fn = sp.lambdify([x], [sp.Piecewise((1 / (x**2 + 1), x > 0), (x**2 + 1, True)),
                           x**2 + 1], modules="math")
    assert _hoisted(fn) is fn


# -- the printed Kepler evaluators ---------------------------------------------

def _lambdify_sources(spec):
    """The source that sympy's lambdify prints for spec's H and vector field."""
    return inspect.getsource(h_fn(spec)), inspect.getsource(rhs_fn(spec))


# numerators and denominators up to 10^6, and the coefficients that print
# apart: +-1, integers, and 1/2 and 1/16 (one-body force terms of +-1)
_wide = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)) | st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(3, 2)])


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["one-body", "two-body"]), _wide, st.booleans(), _wide, _wide)
@example("one-body", Fraction(1, 16), True, Fraction(1), Fraction(1))
@example("two-body", Fraction(2), False, Fraction(1, 2), Fraction(1))
@example("two-body", Fraction(8), True, Fraction(1, 4), Fraction(1, 2))
def test_printed_kepler_evaluators_are_lambdify_source(kind, kappa, negative, m1, m2):
    _require_versions(("sympy",))
    spec = SystemSpec(kind, -kappa if negative else kappa, m1, m2)
    printed = _kepler_sources(spec)
    assert printed == _lambdify_sources(spec)
    assert inspect.getsource(spec._h_fn) == printed[0]


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).filter(bool))
@example(Fraction(1))
@example(Fraction(-1))
@example(Fraction(-2))
@example(Fraction(1, 3))
@example(Fraction(-5, 7))
@example(Fraction(1, 16))
def test_printed_kepler_lift_is_lambdify_source(kappa):
    # sympy prints 1/u and 1/u**2 apart from the other coefficients
    _require_versions(("sympy",))
    spec = SystemSpec("one-body", kappa)
    assert _kepler_sources(spec, lift=True) == tuple(map(inspect.getsource, lift_fns(spec)))


# Off the Kepler tables the evaluators are the package's chain rule on float
# coefficients, not sympy's text, so they agree with the oracle to within a
# relative tolerance: |value - oracle| <= REL_TOL * (1 + |oracle|).
REL_TOL = 1e-10


@pytest.mark.parametrize("kind,num,den,printed", [
    ("one-body", [[1, 0, 1], [0, 0, -2]], [[0, 1, 1]], False),  # not a constant over rho
    ("one-body", [[0, 0, -1]], [[0, 1, 2]], False),              # den 2 rho
    ("one-body", [[0, 0, "-1+1*i"]], [[0, 1, 1]], False),        # a complex coefficient
    # -K/rho with the label "custom", and for two bodies K != kappa m1 m2
    ("one-body", [[0, 0, "-3/5"]], [[0, 1, 1]], True),
    ("two-body", [[0, 0, "-3/5"]], [[0, 1, 1]], True),
])
def test_evaluators_fall_back_to_sympy_off_the_kepler_tables(kind, num, den, printed):
    _require_versions(("sympy",))
    spec = SystemSpec(kind, 1, 2, 3, potential=PotentialSpec(num, den))
    assert spec.potential.label == "custom"
    assert (_kepler_sources(spec) is not None) == printed
    state = [1.0, 0.5, 0.25, 0.1, 0.2, 0.3, -0.5, 0.75, 2.0, 0.4, -0.1, 0.6][: spec.dim]
    if not spec.potential.num[0, 0].is_real():  # the evaluators need real coefficients
        with pytest.raises(ValueError, match="real potential coefficients"):
            spec._h_fn
        return
    assert spec._h_fn.__code__.co_filename.startswith("<kepler" if printed else "<table")
    if printed:
        assert _kepler_sources(spec) == _lambdify_sources(spec)
        assert inspect.getsource(spec._h_fn) == _lambdify_sources(spec)[0]
        # its sqrt is numpy's, as in lambdify's namespace
        assert type(spec._h_fn(*state)) is np.float64
        return
    pairs = [(spec._h_fn(*state), h_fn(spec)(*state)),
             *zip(spec._rhs(*state), rhs_fn(spec)(*state))]
    assert all(abs(a - b) <= REL_TOL * (1 + abs(b)) for a, b in pairs), pairs


_small_q = st.fractions(min_value=-10, max_value=10, max_denominator=20).filter(bool)
# denominators positive wherever rho >= 0: 1, rho^2 + 1 and z^2 + rho + 1/2
_positive_dens = st.sampled_from([None, [[0, 2, 1], [0, 0, 1]],
                                  [[2, 0, 1], [0, 1, 1], [0, 0, "1/2"]]])


# no shrinking: each example lambdifies its own sympy oracle
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.sampled_from(["one-body", "two-body"]),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _small_q,
                       min_size=1, max_size=4),
       _positive_dens, _small_q.map(abs), _small_q.map(abs), st.integers(0, 2**32 - 1))
def test_table_evaluators_match_the_sympy_oracle(kind, num, den, m1, m2, seed):
    # H, its vector field (-grad H in the momenta's rows) and the one-body
    # lift's K and grad K, against sympy's derivatives of the same tables, at
    # 25 states with coordinates in [-2, 2] (and u in [0.1, 3])
    _require_versions(("sympy",))
    pot = PotentialSpec([[i, j, c] for (i, j), c in num.items()], den)
    spec = SystemSpec(kind, 1, m1, m2, potential=pot)
    assume(_kepler_sources(spec) is None)
    lift = extended_poisson_build(spec) if kind == "one-body" else None
    rng = np.random.default_rng(seed)
    for _ in range(25):
        a, u = rng.uniform(-2, 2, size=spec.dim), rng.uniform(0.1, 3)
        pairs = [(spec._h_fn(*a.tolist()), h_fn(spec)(*a)),
                 *zip(spec._rhs(*a.tolist()), rhs_fn(spec)(*a))]
        if kind == "one-body":
            lifted = [*a.tolist(), u]
            pairs += [(lift._K(*lifted), lift_fns(spec)[0](*a, u)),
                      *zip(lift._gradK(*lifted), lift_fns(spec)[1](*a, u))]
        assert all(abs(x - y) <= REL_TOL * (1 + abs(y)) for x, y in pairs), pairs
