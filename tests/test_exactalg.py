import collections
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heisenkep.exactalg import (
    Derivation,
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    SingularMatrixError,
    clear_denominators,
    _add_point,
    _derive,
    _eval_mod,
    _is_prime,
    _level,
    _modulus,
    _poly_mod,
    _ratrec,
    _reconstruct,
    _tower_image,
    scalar_nullspace,
    squarefree_decomposition,
    tower_annihilator,
)
from heisenkep import exactalg
from heisenkep.variational import DiffOperator, _operator

import oracles

fracs = st.fractions(
    max_numerator=50, max_denominator=20  # type: ignore[call-arg]
) if False else st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 20)
)
scalars = st.builds(ExactScalar, fracs, fracs)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


# -- scalars ----------------------------------------------------------------

@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ExactScalar(0)


@given(nonzero_scalars)
def test_inverse_round_trip(a):
    assert a * a.inverse() == ExactScalar(1)
    assert (a.inverse()).inverse() == a


@given(scalars)
def test_scalar_serialization_round_trip(a):
    assert ExactScalar.parse(str(a)) == a


def test_scalar_canonical_zero():
    z = ExactScalar(0) * ExactScalar(Fraction(7, 3), 2)
    assert str(z) == "0"
    assert z.re.denominator == 1 and z.im.denominator == 1


def test_scalar_parse_forms():
    assert ExactScalar.parse("3/2") == ExactScalar(Fraction(3, 2))
    assert ExactScalar.parse("-1/2+3/4*i") == ExactScalar(Fraction(-1, 2), Fraction(3, 4))
    assert ExactScalar.parse("1*i") == ExactScalar.i()
    assert ExactScalar.parse("0") == ExactScalar(0)
    # a zero denominator is a malformed token, as a config reader expects
    with pytest.raises(ValueError, match="zero denominator"):
        ExactScalar.parse("1+1/0*i")


def test_scalar_rejects_inexact_parts():
    for bad in (0.1, 1.0, np.float64(0.5), 1j, complex(1, 0), "1/2"):
        with pytest.raises(TypeError):
            ExactScalar(bad)
        with pytest.raises(TypeError):
            ExactScalar(1, bad)
        with pytest.raises(TypeError):
            ExactScalar.coerce(bad)
    assert ExactScalar(3, Fraction(-1, 2)) == ExactScalar.parse("3-1/2*i")
    assert ExactScalar(Fraction(6, 4)) == ExactScalar(Fraction(3, 2))


# The former representation, a pair of Fractions, as the model of the
# (a + b*i)/d scalar.

def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, n):
    if n < 0:
        return _ref_pow(_ref_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _assert_models(s, ref):
    re, im = ref
    assert (s.re, s.im) == (re, im)
    assert s.d > 0 and math.gcd(s.a, s.b, s.d) == 1
    if re == 0 and im == 0:
        assert (s.a, s.b, s.d) == (0, 0, 1)
    assert hash(s) == hash(ExactScalar(re, im))
    assert ExactScalar.parse(str(s)) == s


# up to 40-bit parts; small denominators make equal ones, and the equal
# denominator path of + and -, common
_B40 = 2**40
big_fracs = st.builds(
    Fraction,
    st.integers(-_B40, _B40),
    st.one_of(st.integers(1, 6), st.integers(1, _B40)),
)
ref_pairs = st.tuples(big_fracs, big_fracs)
_ZERO_REF = (Fraction(0), Fraction(0))


@settings(max_examples=300)
@given(ref_pairs, ref_pairs, st.integers(-3, 3))
@example(_ZERO_REF, _ZERO_REF, 2)
@example((Fraction(1, 6), Fraction(5, 6)), (Fraction(-1, 6), Fraction(1, 6)), -1)
@example((Fraction(3), Fraction(0)), (Fraction(0), Fraction(-1, 2)), 0)
def test_scalar_matches_fraction_pair_model(x, y, n):
    sx, sy = ExactScalar(*x), ExactScalar(*y)
    _assert_models(sx, x)
    _assert_models(sx + sy, _ref_add(x, y))
    _assert_models(sx - sy, _ref_sub(x, y))
    _assert_models(sx * sy, _ref_mul(x, y))
    _assert_models(-sx, _ref_sub(_ZERO_REF, x))
    _assert_models(sx.conjugate(), (x[0], -x[1]))
    _assert_models(sx + n, _ref_add(x, (Fraction(n), Fraction(0))))
    _assert_models(n - sx, _ref_sub((Fraction(n), Fraction(0)), x))
    _assert_models(y[0] * sx, _ref_mul((y[0], Fraction(0)), x))
    if y != _ZERO_REF:
        _assert_models(sy.inverse(), _ref_inverse(y))
        _assert_models(sx / sy, _ref_mul(x, _ref_inverse(y)))
    if x != _ZERO_REF or n >= 0:
        _assert_models(sx**n, _ref_pow(x, n))


# -- polynomials ------------------------------------------------------------

def test_poly_degree_sentinel():
    assert ExactPoly(()).degree == -1
    assert ExactPoly([0, 0]).degree == -1
    assert ExactPoly([0, 1]).degree == 1


def test_poly_divmod():
    p = ExactPoly([-1, 0, 1])  # t^2 - 1
    q, r = divmod(p, ExactPoly([-1, 1]))
    assert q == ExactPoly([1, 1]) and r.is_zero()


# Coefficients for the model of ExactPoly in oracles.py: small parts, which
# make equal denominators common, parts above 10^12, and zero parts, so that
# real-only polynomials and zero coefficients come up.
_wide_fracs = st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 10**15))
_parts = st.one_of(fracs, _wide_fracs, st.just(Fraction(0)))
_coeffs = st.one_of(st.builds(ExactScalar, _parts, _parts), st.builds(ExactScalar, _parts))
_coeff_tuples = st.one_of(
    st.just(()),
    st.tuples(_coeffs),
    st.lists(st.builds(ExactScalar, _parts), max_size=6),
    st.lists(_coeffs, max_size=6),
).map(oracles.poly_from)


def _assert_poly_models(p, cs):
    assert p.coeffs == cs
    assert p.d > 0 and math.gcd(p.d, *p.re, *p.im) == 1
    assert len(p.re) == len(p.im) == len(cs) and (not cs or p.re[-1] or p.im[-1])
    assert p == ExactPoly(cs) and hash(p) == hash(cs)
    assert str(p) == oracles.poly_str(cs, p.var)
    assert p.to_json() == [str(c) for c in cs]
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.var == p.var and hash(q) == hash(p)


@settings(max_examples=150, deadline=None)
@given(_coeff_tuples, _coeff_tuples, _coeffs, _coeffs)
@example((), (), ExactScalar(0), ExactScalar(0))
@example((ExactScalar(3),), (), ExactScalar(Fraction(1, 2)), ExactScalar(0, 1))
@example((ExactScalar(1), ExactScalar(0), ExactScalar(10**13)),
         (ExactScalar(0, Fraction(1, 10**13 + 1)), ExactScalar(Fraction(-1, 3))),
         ExactScalar(-2), ExactScalar(Fraction(10**12 + 1, 7)))
def test_poly_matches_the_scalar_tuple_model(a, b, s, x):
    pa, pb = ExactPoly(a, var="tau"), ExactPoly(b, var="tau")
    _assert_poly_models(pa, a)
    _assert_poly_models(pa + pb, oracles.poly_add(a, b))
    _assert_poly_models(pa - pb, oracles.poly_sub(a, b))
    _assert_poly_models(-pa, oracles.poly_sub((), a))
    _assert_poly_models(pa * pb, oracles.poly_mul(a, b))
    _assert_poly_models(pa.scale(s), oracles.poly_scale(a, s))
    _assert_poly_models(pa.derivative(), oracles.poly_derivative(a))
    _assert_poly_models(pa.monic(), oracles.poly_monic(a))
    _assert_poly_models(pa.gcd(pb), oracles.poly_gcd(a, b))
    _assert_poly_models(pa.compose_linear(s, x), oracles.poly_compose_linear(a, s, x))
    assert pa(x) == oracles.poly_eval(a, x)
    if b:
        q, r = divmod(pa, pb)
        want_q, want_r = oracles.poly_divmod(a, b)
        _assert_poly_models(q, want_q)
        _assert_poly_models(r, want_r)
    # equal polynomials built by different routes are equal and hash equal
    for p, other in ((pa * (pb + 1), pa * pb + pa),
                     (pa.scale(s) + pb.scale(s), (pa + pb).scale(s)),
                     (pa, pa + pb - pb)):
        assert p == other and hash(p) == hash(other)


# -- rational functions -----------------------------------------------------

def test_ratfunc_normalize_constant_cancellation():
    f = ExactRatFunc(ExactPoly([2, 2]), ExactPoly([2]))
    assert ExactRatFunc(f.num, f.den) == ExactRatFunc(ExactPoly([1, 1]), 1)


def test_ratfunc_normalize_common_factor():
    f = ExactRatFunc(ExactPoly([-1, 0, 1]), ExactPoly([-1, 1]))
    assert f == ExactRatFunc(ExactPoly([1, 1]), 1)


def test_ratfunc_normalize_o3r_coefficient():
    # expanded coefficient (16 t^3 - 252 t) / 27: leading coeff 16/27
    f = ExactRatFunc(ExactPoly([0, -252, 0, 16]), ExactPoly([27]))
    assert f.den == ExactPoly([1])
    assert f.num.leading() == ExactScalar(Fraction(16, 27))
    assert f.num == ExactPoly([0, Fraction(-252, 27), 0, Fraction(16, 27)])


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ExactRatFunc(ExactPoly([1]), ExactPoly(()))


def _rand_scalar(rng):
    return ExactScalar(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
    )


def _rand_ratfunc(rng):
    num = ExactPoly([_rand_scalar(rng) for _ in range(rng.randint(1, 3))])
    den = ExactPoly([_rand_scalar(rng) for _ in range(rng.randint(1, 3))])
    if den.is_zero():
        den = ExactPoly([1])
    return ExactRatFunc(num, den)


def test_ratfunc_product_normalization_property():
    rng = random.Random(7)
    for _ in range(50):
        f, g = _rand_ratfunc(rng), _rand_ratfunc(rng)
        if g.is_zero():
            continue
        fg = f * g
        assert (
            ExactRatFunc(fg.num, fg.den) * ExactRatFunc(g.num, g.den).inverse()
            == ExactRatFunc(f.num, f.den)
        )


_RF_T = ExactPoly([0, 1])
# denominators' factors: rational, Gaussian, and irreducible over Q(i)
_RF_FACTORS = (_RF_T - 2, _RF_T - Fraction(1, 3), _RF_T - ExactScalar(0, 1),
               _RF_T * _RF_T + 2)


@st.composite
def ratfunc_operands(draw):
    """(f, g, s): rational functions over a shared part of their
    denominators and a part of each (all three may be empty, so both over
    1, equal, coprime or sharing a factor), numerators that may be zero and
    a scalar that may be zero."""
    shared = draw(st.lists(st.sampled_from(_RF_FACTORS), max_size=2))

    def operand():
        num = ExactPoly(draw(st.lists(scalars, max_size=3)))
        own = draw(st.lists(st.sampled_from(_RF_FACTORS), max_size=2))
        lead = draw(nonzero_scalars)  # the constructor makes den monic
        return ExactRatFunc(num, math.prod(shared + own, start=ExactPoly([lead])))

    return operand(), operand(), draw(st.just(ExactScalar(0)) | scalars)


def _assert_canonical(f):
    assert f.den.leading() == ExactScalar(1)
    assert f.num.gcd(f.den) == ExactPoly([1])


@settings(max_examples=200, deadline=None)
@given(ratfunc_operands())
@example((ExactRatFunc(_RF_T + 1), ExactRatFunc(_RF_T * _RF_T), ExactScalar(0)))
@example((ExactRatFunc(1, _RF_T - 2), ExactRatFunc(_RF_T, _RF_T - 2), ExactScalar(2, 1)))
@example((ExactRatFunc(1, _RF_T - 2), ExactRatFunc(3, _RF_T * _RF_T + 2), ExactScalar(1)))
@example((ExactRatFunc(1, (_RF_T - 2) * (_RF_T - Fraction(1, 3))),
          ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), _RF_T - 2), ExactScalar(0)))
@example((ExactRatFunc(0), ExactRatFunc(0, _RF_T - 2), ExactScalar(Fraction(1, 2))))
def test_ratfunc_arithmetic_matches_the_general_formula(operands):
    # +, - and * by an operand or a scalar are the general formula,
    # num * den' +- num' * den over den * den' normalized, byte for byte,
    # however they get there, and canonical
    f, g, s = operands
    cases = [(f + g, oracles.ratfunc_add(f, g)), (f - g, oracles.ratfunc_sub(f, g)),
             (f * g, oracles.ratfunc_mul(f, g)), (f * s, oracles.ratfunc_scale(f, s)),
             (g * s, oracles.ratfunc_scale(g, s)), (-f, oracles.ratfunc_scale(f, ExactScalar(-1)))]
    for got, want in cases:
        assert got == want and str(got) == str(want) and got.to_json() == want.to_json()
        _assert_canonical(got)


# -- matrices ---------------------------------------------------------------

def test_nullspace_identity_empty():
    assert ExactMatrix.identity(4).nullspace() == []


def test_nullspace_2x2():
    basis = ExactMatrix([[1, 1], [2, 2]]).nullspace()
    assert len(basis) == 1
    v = basis[0]
    # spans (1, -1)
    assert v[0] * ExactRatFunc.coerce(-1) == v[1]


def test_nullspace_exactness_and_rank_property():
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = ExactMatrix(
            [[ExactScalar(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        basis = M.nullspace()
        assert len(basis) + M.rank() == cols
        for v in basis:
            col = ExactMatrix([[x] for x in v])
            prod = M @ col
            assert all(prod[i, 0].is_zero() for i in range(rows))


def test_matrix_inverse_identity_and_diag():
    eye = ExactMatrix.identity(3)
    assert eye.inverse() == eye
    t = ExactRatFunc(ExactPoly.x(), 1)
    d = ExactMatrix([[2, 0], [0, t]])
    dinv = d.inverse()
    assert dinv[0, 0] == ExactRatFunc.coerce(Fraction(1, 2))
    assert dinv[1, 1] == ExactRatFunc(1, ExactPoly.x())


def test_matrix_inverse_round_trip_random():
    rng = random.Random(13)
    done = 0
    while done < 10:
        n = rng.randint(1, 6)
        M = ExactMatrix(
            [[ExactScalar(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        )
        if M.det().is_zero():
            continue
        inv = M.inverse()
        assert M @ inv == ExactMatrix.identity(n)
        assert inv @ M == ExactMatrix.identity(n)
        done += 1


def test_matmul_matches_entrywise_sums():
    # the product summed one normalized addition at a time, with shared,
    # distinct and cancelling denominators among the terms
    rng = random.Random(17)
    t = ExactPoly.x()
    dens = [ExactPoly([1]), t, t * t, t - 1, ExactPoly([1, 0, 1])]

    def entry():
        if rng.random() < 0.2:
            return ExactRatFunc.coerce(0)
        return ExactRatFunc(_rand_ratfunc(rng).num, rng.choice(dens))

    for _ in range(25):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = ExactMatrix([[entry() for _ in range(m)] for _ in range(n)])
        B = ExactMatrix([[entry() for _ in range(k)] for _ in range(m)])
        want = [[sum((A[i, l] * B[l, j] for l in range(m)), ExactRatFunc.coerce(0))
                 for j in range(k)] for i in range(n)]
        assert (A @ B).entries == tuple(map(tuple, want))
    # terms that cancel to zero give the canonical zero
    A = ExactMatrix([[ExactRatFunc(1, t), ExactRatFunc(-1, t)]])
    assert (A @ ExactMatrix([[1], [1]]))[0, 0] == ExactRatFunc.coerce(0)
    assert (A @ ExactMatrix([[1], [1]]))[0, 0].den == ExactPoly([1])


def test_singular_matrix_signalled():
    with pytest.raises(SingularMatrixError):
        ExactMatrix([[1, 1], [2, 2]]).inverse()


def _permutation_det(M):
    """Determinant as the signed sum over permutations."""
    n = M.rows
    total = ExactRatFunc.coerce(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ExactRatFunc.coerce(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * M[i, perm[i]]
        total = total + term
    return total


def test_det_row_swaps_and_singular():
    t = ExactPoly.x()
    assert ExactMatrix([[0, 1], [1, 0]]).det() == ExactRatFunc.coerce(-1)
    # a swap at the second pivot, then swaps at the first and second
    assert ExactMatrix([[1, 0, 0], [0, 0, 1], [0, t, 0]]).det() == -ExactRatFunc(t)
    two_swaps = ExactMatrix([[0, 1, t], [0, 0, 1], [1, t, 0]])
    assert two_swaps.det() == ExactRatFunc.coerce(1)
    assert ExactMatrix([[t, t * t], [1, t]]).det().is_zero()
    with pytest.raises(ValueError):
        ExactMatrix([[1, 0, 0], [0, 1, 0]]).det()


def test_det_matches_permutation_expansion():
    rng = random.Random(17)
    swapped = singular = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [
            [ExactPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
             for _ in range(n)]
            for _ in range(n)
        ]
        if rng.random() < 0.4:
            rows[0][0] = ExactPoly(())          # the first pivot needs a swap
        if n > 1 and rng.random() < 0.25:
            k = rng.randint(-2, 2)
            rows[-1] = [p.scale(k) for p in rows[0]]   # dependent rows
        M = ExactMatrix(rows)
        d = M.det()
        assert d == _permutation_det(M)
        singular += d.is_zero()
        swapped += n > 1 and rows[0][0].is_zero() and not d.is_zero()
    assert swapped >= 5 and singular >= 5


# -- Gauss-Jordan over Q(i) ---------------------------------------------------

def _reference_nullspace(rows):
    """(basis, rank) by Gauss-Jordan over ExactScalar."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ExactScalar(0)] * ncols
        v[fc] = ExactScalar(1)
        for row, pc in enumerate(pivots):
            v[pc] = -m[row][fc]
        basis.append(v)
    return basis, len(pivots)


big_fracs = st.builds(
    Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)
)
big_scalars = st.one_of(
    st.just(ExactScalar(0)), st.builds(ExactScalar, big_fracs, big_fracs)
)


@st.composite
def low_rank_matrices(draw, entries=big_scalars):
    """U V with U n x k and V k x c, so the rank is at most k."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, c)))
    U = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    V = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
    return [
        [sum((U[i][l] * V[l][j] for l in range(k)), ExactScalar(0)) for j in range(c)]
        for i in range(n)
    ]


big_ints = st.builds(ExactScalar, st.integers(-10**12, 10**12))
big_gaussian_ints = st.builds(
    ExactScalar, st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)
)


def _sympy_rank(rows):
    from sympy import QQ_I, Rational
    from sympy.polys.matrices import DomainMatrix

    def conv(e):
        return QQ_I(Rational(e.re.numerator, e.re.denominator),
                    Rational(e.im.numerator, e.im.denominator))

    return DomainMatrix([[conv(e) for e in r] for r in rows],
                        (len(rows), len(rows[0])), QQ_I).rank()


@settings(max_examples=80, deadline=None)
@given(st.one_of(low_rank_matrices(), low_rank_matrices(big_ints),
                 low_rank_matrices(big_gaussian_ints)))
def test_scalar_nullspace_matches_gauss_jordan(rows):
    basis, rank = scalar_nullspace(rows)
    assert (basis, rank) == _reference_nullspace(rows)
    # checks that do not share the reference's elimination
    assert rank == _sympy_rank(rows) == len(rows[0]) - len(basis)
    for v in basis:
        for row in rows:
            assert sum((a * x for a, x in zip(row, v)), ExactScalar(0)).is_zero()
    # reduced echelon: v ends in a 1 at its free column, the free columns
    # increase, and v is 0 at every other free column
    free = [max(j for j, x in enumerate(v) if not x.is_zero()) for v in basis]
    assert free == sorted(set(free))
    for v, fc in zip(basis, free):
        assert v[fc] == ExactScalar(1)
        assert all(v[j].is_zero() for j in free if j != fc)


def test_modulus_matches_sympy():
    # the k-th prime c 2^60 + 1, c odd, counting c down from 2^30 - 1, with
    # the smaller square root of -1; sympy.isprime is the oracle
    from sympy import isprime, sqrt_mod

    c = 1 << 30 | 1
    for k in range(40):
        c -= 2
        while not isprime(c << 60 | 1):
            c -= 2
        p = c << 60 | 1
        assert _modulus(k) == (p, sqrt_mod(-1, p))


def test_first_moduli_carry_a_proth_certificate():
    # p = c 2^60 + 1 with c odd and c < 2^60, and a base g with
    # g^((p-1)/2) = -1 (mod p): p is prime by Proth's theorem, whatever
    # Miller-Rabin says; the smaller root s squares to -1
    for k in range(8):
        p, s = _modulus(k)
        c = p >> 60
        assert p == c << 60 | 1 and c % 2 == 1 and 1 << 29 < c < 1 << 30
        assert any(pow(g, (p - 1) // 2, p) == p - 1 for g in range(2, 42))
        assert s * s % p == p - 1 and 0 < s < p - s


def test_miller_rabin_against_trial_division():
    small = [n for n in range(3000)
             if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(3000) if _is_prime(n)] == small
    # strong pseudoprimes to the first bases, and Carmichael numbers
    # psi_12 = 399165290221 * 798330580441 passes the twelve bases up to 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051, 561, 41041,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and not _is_prime((2**31 - 1) * (2**61 - 1))


def _ints(rows):
    return [[ExactScalar(x) for x in row] for row in rows]


def test_scalar_nullspace_prime_disagreement():
    p, s = _modulus(0)
    # full rank over Q, singular modulo p: the first prime's kernel vector
    # (1, -2, 1) fails the exact check
    A = _ints([[1, 2, 3], [4, 5, 6], [7, 8, 9 + p]])
    assert ExactMatrix(A).det() == ExactRatFunc.coerce(-3 * p)
    assert scalar_nullspace(A) == ([], 3)
    # same rank modulo p, but the second pivot moves right: pivots (0, 2)
    # modulo p against (0, 1) over Q
    B = _ints([[1, 0, 0], [0, p, 1]])
    assert scalar_nullspace(B) == _reference_nullspace(B)
    assert scalar_nullspace(B)[0][0][1] == ExactScalar(Fraction(-1, p))
    # s - i vanishes under i -> s only: the two embeddings disagree
    assert scalar_nullspace([[ExactScalar(s, -1)]]) == ([], 1)


def test_scalar_nullspace_degenerate_shapes():
    assert scalar_nullspace([]) == ([], 0)
    zero = _ints([[0, 0, 0], [0, 0, 0]])
    assert scalar_nullspace(zero) == _reference_nullspace(zero)
    assert scalar_nullspace(zero)[1] == 0
    full = [[ExactScalar(1), ExactScalar(0, 1)], [ExactScalar(2), ExactScalar(Fraction(1, 3))]]
    assert scalar_nullspace(full) == ([], 2)
    wide = _ints([[1, 2, 3]])
    assert scalar_nullspace(wide) == _reference_nullspace(wide)


# -- rational reconstruction --------------------------------------------------

def _reference_reconstruct(residues, M):
    """Reconstruction within the balanced bound alone, with no guess: each
    numerator and the running denominator at most sqrt(M / 2)."""
    bound = math.isqrt(M // 2)
    den = 1
    out = []
    for u in residues:
        nd = _ratrec(u * den % M, M, bound)
        if nd is None:
            return None
        den *= nd[1]
        if den > bound:
            return None
        out.append(Fraction(nd[0], den))
    return out


def _residue(q, M):
    return q.numerator * pow(q.denominator, -1, M) % M


@st.composite
def residue_lists(draw):
    """(residues, M) for M one prime or two: residues of rationals whose
    numerator and denominator each have up to 8 bits more than sqrt(M), so
    balanced, unbalanced and too large ones all come, and of arbitrary
    ones."""
    M = _modulus(0)[0] * (1 if draw(st.booleans()) else _modulus(1)[0])
    bits = st.integers(0, M.bit_length() // 2 + 8)
    rationals = st.builds(Fraction, bits.flatmap(lambda b: st.integers(-(2**b), 2**b)),
                          bits.flatmap(lambda b: st.integers(1, 2**b)))
    entry = st.one_of(rationals.map(lambda q: _residue(q, M)), st.integers(0, M - 1))
    return draw(st.lists(entry, min_size=1, max_size=4)), M


@settings(max_examples=300, deadline=None)
@given(residue_lists())
@example(([-(2**40) % _modulus(0)[0]], _modulus(0)[0]))
def test_reconstruct_agrees_with_the_balanced_reference(case):
    # wherever the balanced bound alone reconstructs, the result is the
    # same list; anything else returned has the given residues.  The
    # example is the residue of -2^40, which the balanced bound reads as
    # -87 / 2^22: that stays the answer, though a guess would give -2^40
    residues, M = case
    got = _reconstruct(residues, M)
    want = _reference_reconstruct(residues, M)
    if want is not None:
        assert got == want
    elif got is not None:
        assert [_residue(q, M) for q in got] == residues


@settings(max_examples=200, deadline=None)
@given(st.integers(640, 1023), st.data())
@example(d=641, data=None)
def test_reconstruct_recovers_unbalanced_values_from_one_prime(d, data):
    # n_j / d with |n_j| d F <= p, zero and negative numerators included,
    # from the one prime p, for F with 640^2 F > sqrt(p / 2).  With n_0 prime
    # to d the running denominator is d after the first value.  Every
    # Euclidean pair past the true (n_j, 1) has a denominator of at least
    # p // |n_j| >= d F, and d^2 F exceeds sqrt(p / 2), so the balanced
    # attempt returns the truth or fails.  The guess then takes n_0 / d by
    # its quotient, at least p / (|n_0| d) - 2, above every other (none
    # exceeds max(|n_0|, d)); no integer has n_0 / d as residue and size
    # below p / 2^10 since d < 2^10; every later value is the integer n_j
    # over d, below p / 2^10 since d F > 2^10.
    p = _modulus(0)[0]
    F = math.isqrt(p // 2) // 640**2 + 1
    big = p // (d * F)
    if data is None:  # the balanced attempt fails on the second value
        numerators = [-1, big, 0, -big]
    else:
        n0 = data.draw(st.integers(-2**19, 2**19).filter(lambda n: math.gcd(n, d) == 1))
        rest = st.one_of(st.just(0), st.integers(-big, big))
        numerators = [n0] + data.draw(st.lists(rest, max_size=5))
    values = [Fraction(n, d) for n in numerators]
    residues = [_residue(q, p) for q in values]
    assert _reconstruct(residues, p) == values
    if max(map(abs, numerators)) > math.isqrt(p // 2):
        assert _reference_reconstruct(residues, p) is None


def test_guess_follows_the_largest_quotient():
    # modulo the first prime p, 3 / 4219 meets a quotient above 2^10, that
    # of a pair with a 50-bit numerator over 2, before its own quotient of
    # about p / 12657; the symmetric residues of 0 and -5 are taken as such
    p = _modulus(0)[0]
    assert exactalg._guess(_residue(Fraction(3, 4219), p), p) == (3, 4219)
    assert exactalg._guess(0, p) == (0, 1)
    assert exactalg._guess(p - 5, p) == (-5, 1)


# -- tower annihilators -----------------------------------------------------

def test_clear_denominators():
    f = ExactRatFunc(ExactPoly([1]), ExactPoly([-2, 1]))        # 1/(t - 2)
    g = ExactRatFunc(ExactPoly([0, 3]), ExactPoly([4, 0, 1]))   # 3t/(t^2 + 4)
    h = ExactRatFunc(ExactPoly([Fraction(1, 2), 1]))
    D, polys = clear_denominators([f, g, h, f], "t")
    assert D == ExactPoly([-8, 4, -2, 1])                        # (t - 2)(t^2 + 4)
    assert polys == [ExactPoly([4, 0, 1]), ExactPoly([0, -6, 3]),
                     h.num * D, ExactPoly([4, 0, 1])]
    assert clear_denominators([], "x") == (ExactPoly([1], var="x"), [])


def test_tower_annihilator_derives_lazily(monkeypatch):
    # rows of y' = B y with B = [[1, 0, 0], [1, 0, 0], [0, 1, 0]], so
    # y_0' = y_0: the first component has order 1 in a 3-dimensional
    # module, and only w' may be formed
    one, zero = ExactPoly([1]), ExactPoly(())
    calls = []
    derive = exactalg._derive

    def spy(level, j, der):
        calls.append(level)
        return derive(level, j, der)

    monkeypatch.setattr(exactalg, "_derive", spy)
    # act(row) = row B = [row[0] + row[1], row[2], 0]
    rows = Derivation.of(one, {(0, 0): one, (1, 0): one, (2, 1): one}, 3)
    assert tower_annihilator([one, zero, zero], rows) == [
        -ExactRatFunc.coerce(1), ExactRatFunc.coerce(1)]
    assert len(calls) == 1
    with pytest.raises(ValueError):
        tower_annihilator([zero, zero], rows)


@st.composite
def planted_polynomials(draw):
    """(p, f, xs) over F_p: f of degree below 6 (or f = 0), and distinct
    sample points xs, more of them than f and f + t^len(f) need."""
    p = draw(st.sampled_from((101, 10007, _modulus(0)[0])))
    f = draw(st.lists(st.integers(0, p - 1), max_size=6))
    while f and not f[-1]:
        f.pop()
    xs = draw(st.lists(st.integers(0, 100), min_size=len(f) + 3, max_size=10, unique=True))
    return p, f, xs


@settings(max_examples=150, deadline=None)
@given(planted_polynomials())
def test_incremental_interpolant_fits_a_planted_polynomial(planted):
    # sample f and g = f + t^n, n = len(f), at distinct points: a point
    # that both interpolants already fit is not added; the others extend
    # them through every point added so far.  The (n + 1)-th point added
    # still extends g's, and from there on both are exact: every point fits
    # and _add_point leaves them as they are
    p, f, xs = planted
    n = len(f)
    g = f + [1]
    fs, M, added = [[], []], [1], []
    for x in xs:
        out = _add_point(fs, M, x, [_eval_mod(f, x, p), _eval_mod(g, x, p)], p)
        if len(added) > n:
            assert out is None and fs == [f, g]
            continue
        assert out is not None or len(added) < n
        if out is not None:
            M = out
            added.append(x)
        assert all(_eval_mod(fs[0], xi, p) == _eval_mod(f, xi, p)
                   and _eval_mod(fs[1], xi, p) == _eval_mod(g, xi, p) for xi in added)


def _one_dimensional_tower(r):
    """w = [1] and its derivation v' + v r for y' = r y, as tower_annihilator
    takes them."""
    return [ExactPoly([1])], Derivation.of(r.den, {(0, 0): r.num}, 1)


def _cleared(*bs):
    """The cleared list of the dependency v_m + sum_j b_j v_j = 0, as
    tower_annihilator returns it."""
    return clear_denominators([*bs, ExactRatFunc.coerce(1)], "t")[1]


def test_tower_annihilator_recovers_from_an_unlucky_first_prime(monkeypatch):
    # y' = r y with r = 1/(t - 2) - 1/(t - 2 - p) = -p / ((t - 2)(t - 2 - p))
    # for the first modulus p: the true dependency is
    # [p, (t - 2)(t - 2 - p)], which is [0, (t - 2)^2] modulo p, so the
    # image divides out (t - 2)^2 and is [0, 1], of lower degree; a later
    # prime gives the true one
    p = _modulus(0)[0]
    r = ExactRatFunc(1, ExactPoly([-2, 1])) - ExactRatFunc(1, ExactPoly([-2 - p, 1]))
    images = []
    image = exactalg._tower_image

    def spy(cache, tower, d, q, root, T, skips):
        out = image(cache, tower, d, q, root, T, skips)
        images.append((q, out))
        return out

    monkeypatch.setattr(exactalg, "_tower_image", spy)
    assert tower_annihilator(*_one_dimensional_tower(r)) == _cleared(-r)
    assert _cleared(-r) == [ExactPoly([p]), ExactPoly([-2, 1]) * ExactPoly([-2 - p, 1])]
    (q0, coeffs0), *rest = images
    assert q0 == p and coeffs0 == [(), (1,)]
    assert any(q != p for q, _ in rest)


def _tower_images_per_prime(monkeypatch, r):
    """tower_annihilator of y' = r y, and the _tower_image calls it makes at
    each prime at its final order."""
    calls = []
    image = exactalg._tower_image

    def spy(cache, tower, d, q, root, T, skips):
        calls.append((len(tower), q, root))
        return image(cache, tower, d, q, root, T, skips)

    monkeypatch.setattr(exactalg, "_tower_image", spy)
    ann = tower_annihilator(*_one_dimensional_tower(r))
    final = max(n for n, _, _ in calls)
    return ann, collections.Counter(q for n, q, _ in calls if n == final)


@pytest.mark.parametrize("r, primes", [
    (ExactRatFunc(ExactPoly([3, 0, 1]), ExactPoly([5, -1, 1])), 1),
    # large coefficients need more than one prime
    # large coefficients need more than one prime: 3^90 exceeds every modulus
    (ExactRatFunc(ExactPoly([1, 3 ** _modulus(0)[0].bit_length()]),
                  ExactPoly([-(5**30), 0, Fraction(1, 7)])), 2),
])
def test_tower_annihilator_takes_one_image_per_prime_for_a_real_tower(monkeypatch, r, primes):
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == _cleared(-r)
    assert len(calls) >= primes and set(calls.values()) == {1}


def test_tower_annihilator_takes_two_images_per_prime_for_a_gaussian_tower(monkeypatch):
    t = ExactPoly([0, 1])
    r = ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), t) + ExactRatFunc(1, ExactPoly([-2, 1]))
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == _cleared(-r)
    assert set(calls.values()) == {2}


def test_a_wrong_guess_fails_the_certificate_and_one_more_prime_recovers(monkeypatch):
    # y' = r y with r = t + p + 2^e for the first modulus p and the least
    # power 2^e past sqrt(p / 2).  Modulo p the constant of b_0 = -r is
    # -2^e, and every other Euclidean pair of it has a denominator above
    # that bound, so the balanced attempt fails and the guess takes the
    # integer -2^e.  The exact check rejects it, and the second prime gives
    # r, one prime before the balanced bound alone would.
    p = _modulus(0)[0]
    power = 1 << math.isqrt(p // 2).bit_length()
    residues = [-power % p, p - 1, 1]  # b_0 = -t - p - 2^e, over 1
    assert _reference_reconstruct(residues, p) is None
    assert _reconstruct(residues, p) == [-power, -1, 1]
    certified = []
    check = exactalg._certified

    def spy(tower, d, m, coeffs):
        certified.append(check(tower, d, m, coeffs))
        return certified[-1]

    monkeypatch.setattr(exactalg, "_certified", spy)
    r = ExactRatFunc(ExactPoly([p + power, 1]))
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == [-r, ExactRatFunc.coerce(1)]
    assert certified == [False, True] and len(calls) == 2


def _companion_tower(b0, b1):
    """w = y, w' = y' and w'' = -b_0 y - b_1 y' in the coordinates (y, y')
    of y'' + b_1 y' + b_0 y = 0, whose annihilator is [b_0, b_1, 1], cleared
    [c_0, c_1, d] (see _cleared): with
    b_j = c_j / d over the lcm d of their denominators, the derivation
    v -> (v_0' - b_0 v_1, v_1' + v_0 - b_1 v_1) is v' + act(v) / d, with
    act(v) = (-c_0 v_1, d v_0 - c_1 v_1)."""
    d, (c0, c1) = clear_denominators([b0, b1], "t")
    act = {(1, 0): -c0, (0, 1): d, (1, 1): -c1}
    return [ExactPoly([1]), ExactPoly(())], Derivation.of(d, act, 2)


def _image(f, p, s):
    """The coefficients of the ExactPoly f modulo p under i -> s."""
    return tuple(_poly_mod(f.re, f.im, p, s, pow(f.d, -1, p)))


def _tower(w, der, order):
    """The levels N_0, ..., N_order of the tower of w."""
    tower = [_level(w)]
    for j in range(order):
        tower.append(_derive(tower[-1], j, der))
    return tower


_T = ExactPoly([0, 1])


@pytest.mark.parametrize("b0, b1", [
    # b_j = N_j / D with one D = (t - 7)(t + 2)
    (ExactRatFunc(_T * _T + 1, (_T - 7) * (_T + 2)),
     ExactRatFunc(3 * _T - 1, (_T - 7) * (_T + 2))),
    # b_1 = (t + 2) / D reduces to 1 / (t - 7), but the common form keeps D
    (ExactRatFunc(_T * _T + 1, (_T - 7) * (_T + 2)), ExactRatFunc(1, _T - 7)),
    # b_0 = 3 / (t - 7) + 1 / (t + 2) and b_1 = -1 / (t - 7)
    (ExactRatFunc(3, _T - 7) + ExactRatFunc(1, _T + 2), ExactRatFunc(-1, _T - 7)),
])
def test_tower_image_is_the_reduced_cramer_quotient(monkeypatch, b0, b1):
    # the Cramer polynomials carry the content D^2 of the companion tower
    # (see test_tower_annihilator_recovers_planted_companion_towers), and
    # the image divides it out: it is the cleared dependency modulo p, its
    # last entry monic
    w, der = _companion_tower(b0, b1)
    assert tower_annihilator(w, der) == _cleared(b0, b1)
    tower = _tower(w, der, 2)
    p, s = _modulus(0)
    T, skips = 20, 20
    image = _tower_image({}, tower, der.dz, p, s, T, skips)
    assert image == [_image(a, p, s) for a in _cleared(b0, b1)]
    # with no early stop, the interpolants are exact at T + 1 points and
    # give the same image
    points = []
    add, grow = exactalg._add_point, exactalg._times_linear

    def no_fit(fs, M, x, vs, q):
        points.append(x)
        return add(fs, M, x, vs, q) or grow(M, x, q)

    monkeypatch.setattr(exactalg, "_add_point", no_fit)
    assert _tower_image({}, tower, der.dz, p, s, T, skips) == image
    assert len(points) == T + 1


@st.composite
def derivations(draw):
    """(w, d, act): a vector of dimension 1 to 3, d monic of degree 0 to 2
    made of _POLE_FACTORS, and act's entries, all with Gaussian-rational
    coefficients."""
    dim = draw(st.integers(1, 3))
    polys = st.lists(_GAUSSIAN, max_size=3).map(ExactPoly)
    d = math.prod(draw(st.lists(st.sampled_from(_POLE_FACTORS), max_size=2)),
                  start=ExactPoly([1]))
    index = st.integers(0, dim - 1)
    keys = draw(st.lists(st.tuples(index, index), unique=True, max_size=4))
    return [draw(polys) for _ in range(dim)], d, {key: draw(polys) for key in keys}


@settings(max_examples=60, deadline=None)
@given(derivations())
@example(([ExactPoly([1, ExactScalar(Fraction(1, 2), 1)]), ExactPoly([Fraction(2, 3)])],
          (_T - Fraction(1, 2)) * (_T - ExactScalar(0, 1)),
          {(0, 1): ExactPoly([ExactScalar(0, Fraction(1, 3)), Fraction(1, 4)]),
           (1, 0): ExactPoly([Fraction(-3, 2)]), (1, 1): _T * _T + 1}))
def test_integer_levels_are_the_reference_numerators(drawn):
    # the levels derived over Z[i][t] are the numerators N_j over d^j of
    # the reference step times DA^j, since dz = DA d; each level is
    # canonical: trimmed, its denominator prime to its integers
    w, d, act = drawn
    der = Derivation.of(d, act, len(w))
    DA = der.dz[0][-1]
    assert oracles.level_polys(([der.dz], 1))[0] == d.scale(DA)
    level, N = _level(w), w
    for j in range(3):
        assert oracles.level_polys(level) == [f.scale(DA**j) for f in N]
        pairs, den = level
        assert all(not re or re[-1] or im[-1] for re, im in pairs)
        assert math.gcd(den, *(x for re, im in pairs for x in re + im)) == 1
        level, N = _derive(level, j, der), oracles.derive(N, j, d, act)


@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_tower_annihilator_divides_powers_of_d_out_of_the_columns(power):
    # y' = r y with r = s d^power / d, given over d whatever the power: so
    # d^power divides N_1 = s d^power, and each image divides it out of
    # that column and puts d^(power - 1) back into the first entry of the
    # cleared [-r d, d] / d^lo, or d into the last
    d = (_T - 2) * (_T * _T + 1)
    s = ExactPoly([3, ExactScalar(0, 1)])
    r = ExactRatFunc(s * d**power, d)
    ann = tower_annihilator([ExactPoly([1])], Derivation.of(d, {(0, 0): s * d**power}, 1))
    assert ann == _cleared(-r)


def test_tower_image_keeps_its_minor_through_a_pivot_swap():
    # w = (t - a, 1) under y'' = 0, with a the second sample point modulo
    # the first prime: there the first row's pivot vanishes and elimination
    # swaps rows, but Delta must stay the determinant of the minor that the
    # first point fixed.  The dependency has b_0 = 2 / ((t - a)^2 - 1) and
    # b_1 = -(t - a) b_0, cleared [2, -2 (t - a), (t - a)^2 - 1].
    p, s = _modulus(0)
    a = 2 * exactalg._STEP % p
    u = _T - a
    b0 = ExactRatFunc(2, u * u - 1)
    b1 = -b0 * u
    _, der = _companion_tower(ExactRatFunc.coerce(0), ExactRatFunc.coerce(0))
    tower = _tower([u, ExactPoly([1])], der, 2)
    assert _cleared(b0, b1) == [ExactPoly([2]), u.scale(-2), u * u - 1]
    assert _tower_image({}, tower, der.dz, p, s, 20, 20) == [
        _image(a, p, s) for a in _cleared(b0, b1)]


_GAUSSIAN = st.builds(ExactScalar, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
# poles at the sample points 2 and 3, off them, and at +-i
_POLE_FACTORS = (_T - 2, _T - 3, _T - Fraction(1, 2), _T * _T + 1, _T - ExactScalar(0, 1))


@st.composite
def planted_companions(draw):
    """b_0 and b_1 with Gaussian-rational coefficients, over denominators
    made of _POLE_FACTORS: a shared part, with repeats, and a part of
    each."""
    shared = draw(st.lists(st.sampled_from(_POLE_FACTORS), max_size=2))

    def fraction():
        num = ExactPoly(draw(st.lists(_GAUSSIAN, max_size=3)))
        own = draw(st.lists(st.sampled_from(_POLE_FACTORS), max_size=2))
        return ExactRatFunc(num, math.prod(shared + own, start=ExactPoly([1])))

    return fraction(), fraction()


@settings(max_examples=40, deadline=None)
@given(planted_companions())
@example((ExactRatFunc(_T, (_T - 2) ** 2 * (_T - 3)), ExactRatFunc(1, (_T - 2) * (_T * _T + 1))))
# Delta = (t - 3)^4 and P_1 = i (t - 3)^2 take equal values at t = 2 and 4
@example((ExactRatFunc(0), ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), (_T - 3) ** 2)))
def test_tower_annihilator_recovers_planted_companion_towers(planted):
    # the companion tower of y'' + b_1 y' + b_0 y carries the content D^2
    # of its common denominator D in the Cramer polynomials; every image at
    # the final order still samples at most T + 1 points past its skips
    b0, b1 = planted
    points, images = [0], []
    tower_at, image = exactalg._tower_at, exactalg._tower_image

    def count_points(*args):
        points[0] += 1
        return tower_at(*args)

    def count_images(cache, tower, d, q, root, T, skips):
        before = points[0]
        out = image(cache, tower, d, q, root, T, skips)
        images.append((len(tower), T, skips, points[0] - before))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_tower_at", count_points)
        mp.setattr(exactalg, "_tower_image", count_images)
        ann = tower_annihilator(*_companion_tower(b0, b1))
    assert ann == _cleared(b0, b1)
    assert all(n <= T + 1 + skips for size, T, skips, n in images if size == 3)


@st.composite
def planted_operators(draw):
    """b_0 and b_1 with Gaussian-rational coefficients, one of them zero at
    times, over denominators made of _POLE_FACTORS that share at least one,
    so that d of their companion tower has positive degree."""
    shared = draw(st.lists(st.sampled_from(_POLE_FACTORS), min_size=1, max_size=2))
    nonzero = st.lists(_GAUSSIAN, min_size=1, max_size=3).map(ExactPoly).filter(bool)

    def fraction():
        own = draw(st.lists(st.sampled_from(_POLE_FACTORS), max_size=2))
        return ExactRatFunc(draw(nonzero), math.prod(shared + own, start=ExactPoly([1])))

    b0, b1, zero = fraction(), fraction(), ExactRatFunc.coerce(0)
    return draw(st.sampled_from([(b0, b1), (zero, b1), (b0, zero)]))


@settings(max_examples=40, deadline=None)
@given(planted_operators())
@example((ExactRatFunc(0), ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), (_T - 3) ** 2)))
@example((ExactRatFunc(ExactPoly([ExactScalar(Fraction(1, 2), -1), 3]), (_T - 2) * (_T * _T + 1)),
          ExactRatFunc(ExactPoly([Fraction(-3, 4)]), (_T - 2) ** 2)))
def test_tower_annihilator_returns_the_primitive_cleared_operator(planted):
    # the returned list has no common factor and a monic last entry, so it
    # is the planted operator cleared; built from it as it stands, the
    # operator equals the one built from b_0, b_1 and 1, and writes the
    # same JSON.  dz divides the companion tower's N_1 = (0, dz) and N_2
    # once each, so f = (0, 0, 1) and the image scales Delta by dz^(f_2 - lo)
    b0, b1 = planted
    w, der = _companion_tower(b0, b1)
    assume(len(der.dz[0]) > 1)
    p, s = _modulus(0)
    assert exactalg._residues({}, _tower(w, der, 2), der.dz, p, s)[2] == [0, 0, 1]
    ann = tower_annihilator(w, der)
    g = ExactPoly(())
    for a in ann:
        g = g.gcd(a)
    assert g == 1 and ann[-1].leading() == 1
    assert ann == _cleared(b0, b1)
    L, cleared = DiffOperator([b0, b1, 1]), _operator(ann, "t")
    assert L == cleared and cleared.coeffs == (b0, b1, ExactRatFunc.coerce(1))
    assert L.to_json() == cleared.to_json()


# -- copying and pickling -----------------------------------------------------

def test_value_types_copy_and_pickle():
    s = ExactScalar(Fraction(3, 4), Fraction(-5, 6))
    p = ExactPoly([s, 0, ExactScalar(0, 1)], var="tau")
    r = ExactRatFunc(p, ExactPoly([1, 2, 1], var="tau"))
    m = ExactMatrix([[r, 1], [0, p]], var="tau")
    for x in (s, p, r, m, ExactScalar(0), ExactPoly(()), ExactRatFunc.coerce(0)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x)
            assert str(y) == str(x)


# -- squarefree helper ------------------------------------------------------

def test_squarefree_decomposition():
    p = ExactPoly([-2, 1]) ** 1
    q = (ExactPoly([-2, 1]) * ExactPoly([-2, 1])) * ExactPoly([1, 0, 1])
    parts = dict()
    for f, m in squarefree_decomposition(q):
        parts[m] = f
    assert parts[2] == ExactPoly([-2, 1])
    assert parts[1] == ExactPoly([1, 0, 1])
