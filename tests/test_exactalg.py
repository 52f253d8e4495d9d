import collections
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisenkep.exactalg import (
    ExactMatrix,
    ExactPoly,
    ExactRatFunc,
    ExactScalar,
    SingularMatrixError,
    clear_denominators,
    poly_roots_numeric,
    _add_point,
    _annihilates,
    _cauchy_mod,
    _divmod_mod,
    _eval_mod,
    _fits,
    _gaussian_integer_row,
    _is_prime,
    _lift_gaussian,
    _modulus,
    _poly_mod,
    _ratrec,
    _reconstruct,
    _rref_mod,
    _tower_image,
    scalar_nullspace,
    squarefree_decomposition,
    tower_annihilator,
)
from heisenkep import exactalg

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


def test_poly_json_round_trip():
    p = ExactPoly([ExactScalar(Fraction(1, 2), 1), ExactScalar(-3)])
    assert ExactPoly.from_json(p.to_json()) == p


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


# -- multi-modular Q(i) kernel ---------------------------------------------

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


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_scalar_nullspace_matches_gauss_jordan(rows):
    assert scalar_nullspace(rows) == _reference_nullspace(rows)


def _reference_scalar_nullspace(rows):
    """scalar_nullspace with both embeddings i -> +-s at every prime, real
    input or not."""
    if not rows or not rows[0]:
        return [], 0
    ncols = len(rows[0])
    A = [_gaussian_integer_row(r) for r in rows]
    log_h2 = sum(sum(a * a + b * b for a, b in zip(re, im)).bit_length()
                 for re, im in A)
    best = acc = None
    for k in range(-(-log_h2 // 61) - (-(2 * log_h2 + 2) // 61) + 1):
        p, s = _modulus(k)
        plus, minus = (
            [[(a + b * root) % p for a, b in zip(re, im)] for re, im in A]
            for root in (s, p - s)
        )
        pivots = _rref_mod(plus, p)
        if _rref_mod(minus, p) != pivots:
            continue
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        free = [c for c in range(ncols) if c not in pivots]
        acc, vals = _lift_gaussian(
            acc if key == best else None, p, s,
            [-plus[r][fc] for r in range(len(pivots)) for fc in free],
            [-minus[r][fc] for r in range(len(pivots)) for fc in free],
        )
        best = key
        if vals is None:
            continue
        basis = []
        nfree = len(free)
        for j, fc in enumerate(free):
            v = [vals[r * nfree + j] for r in range(len(pivots))] + [ExactScalar(1)]
            if not _annihilates(A, pivots + [fc], v):
                break
            vec = [ExactScalar(0)] * ncols
            for c, x in zip(pivots + [fc], v):
                vec[c] = x
            basis.append(vec)
        else:
            return basis, len(pivots)
    raise RuntimeError("reference exceeded its bound on the primes")


big_ints = st.builds(ExactScalar, st.integers(-10**12, 10**12))
big_gaussian_ints = st.builds(
    ExactScalar, st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(low_rank_matrices(big_ints), low_rank_matrices(big_gaussian_ints)))
def test_scalar_nullspace_matches_the_two_embedding_reference(rows):
    assert scalar_nullspace(rows) == _reference_scalar_nullspace(rows)


def _rref_calls_per_prime(monkeypatch, rows):
    """Calls of _rref_mod at each prime while scalar_nullspace(rows) runs."""
    calls = collections.Counter()
    rref = exactalg._rref_mod

    def spy(m, p):
        calls[p] += 1
        return rref(m, p)

    monkeypatch.setattr(exactalg, "_rref_mod", spy)
    scalar_nullspace(rows)
    return calls


def test_scalar_nullspace_takes_one_image_per_prime_for_real_rows(monkeypatch):
    p = _modulus(0)[0]
    # singular modulo the first prime only, so a second prime is needed
    real = _ints([[1, 2, 3], [4, 5, 6], [7, 8, 9 + p]])
    calls = _rref_calls_per_prime(monkeypatch, real)
    assert len(calls) >= 2 and set(calls.values()) == {1}
    # 100-bit entries give kernel entries of about 400 bits: several primes
    rng = random.Random(5)
    gaussian = [[ExactScalar(rng.randrange(10**30), rng.randrange(10**30))
                 for _ in range(3)] for _ in range(2)]
    calls = _rref_calls_per_prime(monkeypatch, gaussian)
    assert len(calls) >= 2 and set(calls.values()) == {2}


def test_modulus_matches_sympy():
    from sympy import prevprime, sqrt_mod

    p = 1 << 62
    for k in range(40):
        p = prevprime(p)
        while p % 4 != 1:
            p = prevprime(p)
        assert _modulus(k) == (p, sqrt_mod(-1, p))


def test_miller_rabin_against_trial_division():
    small = [n for n in range(3000)
             if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(3000) if _is_prime(n)] == small
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051, 561, 41041):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and not _is_prime((2**31 - 1) * (2**61 - 1))


def _ints(rows):
    return [[ExactScalar(x) for x in row] for row in rows]


def test_gaussian_integer_row_scales_by_the_lcm():
    row = [
        ExactScalar(Fraction(1, 2), Fraction(1, 3)),
        ExactScalar(5),
        ExactScalar(0, Fraction(-3, 4)),
        ExactScalar(0),
    ]
    assert _gaussian_integer_row(row) == ([6, 60, 0, 0], [4, 0, -9, 0])


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


def test_scalar_nullspace_raises_when_the_check_never_passes(monkeypatch):
    # a kernel that never passes the exact check must end in an error, not
    # a search over primes without end
    monkeypatch.setattr(exactalg, "_annihilates", lambda A, support, v: False)
    with pytest.raises(RuntimeError):
        scalar_nullspace(_ints([[1, 2, 3], [2, 4, 7]]))
    big = [[ExactScalar(Fraction(3**40 + k, 7), k) for k in range(4)],
           [ExactScalar(5**30 - k, Fraction(1, 11)) for k in range(4)]]
    with pytest.raises(RuntimeError):
        scalar_nullspace(big)


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
    # n_j / d with |n_j| d 2^12 < p, zero and negative numerators included,
    # from the one prime p.  With n_0 prime to d the running denominator is
    # d after the first value.  Every Euclidean pair past the true (n_j, 1)
    # has a denominator of at least p // |n_j| > d 2^12, and d^2 2^12 exceeds
    # sqrt(p / 2), so the balanced attempt returns the truth or fails.  The
    # guess then takes n_0 / d by its quotient, at least p / (|n_0| d) - 2,
    # above every other (none exceeds max(|n_0|, d)); no integer has n_0 / d
    # as residue and size below p / 2^10 since d < 2^10; every later value is
    # the integer n_j over d.
    p = _modulus(0)[0]
    big = p // (d << 12)
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


def test_tower_annihilator_derives_lazily():
    # rows of y' = B y with B = [[1, 0, 0], [1, 0, 0], [0, 1, 0]], so
    # y_0' = y_0: the first component has order 1 in a 3-dimensional
    # module, and only w' may be formed
    one, zero = ExactRatFunc.coerce(1), ExactRatFunc.coerce(0)
    calls = []

    def derive(row):
        calls.append(row)
        return [row[0] + row[1] + row[0].derivative(),
                row[2] + row[1].derivative(), row[2].derivative()]

    assert tower_annihilator([one, zero, zero], derive) == [-one, one]
    assert len(calls) == 1
    with pytest.raises(ValueError):
        tower_annihilator([zero, zero], derive)


@st.composite
def planted_fractions(draw):
    """(p, num, den) over F_p: den monic with distinct roots, some of them
    among the sample points 0, 1, 2, ..., and num nonzero at every root (or
    num = 0)."""
    p = draw(st.sampled_from((101, 10007, _modulus(0)[0])))
    roots = draw(st.lists(st.integers(0, 12), max_size=3, unique=True))
    roots += draw(st.lists(st.integers(13, p - 1), max_size=2, unique=True))
    den = [1]
    for r in roots:
        den = [(a - r * b) % p for a, b in zip([0] + den, den + [0])]
    num = draw(st.lists(st.integers(0, p - 1), max_size=5))
    while num and not num[-1]:
        num.pop()
    if num and any(not _eval_mod(num, r, p) for r in roots):
        num = []
    return p, num, den


@settings(max_examples=150, deadline=None)
@given(planted_fractions())
def test_incremental_interpolant_reconstructs_a_planted_fraction(planted):
    # sample num / den at x = 0, 1, 2, ..., skipping its poles: the MQRR of
    # the incremental interpolant is (num, den) once there are more than
    # 2 T points, and that pair fits every later point
    p, num, den = planted
    want = (tuple(num), tuple(den)) if num else ((), (1,))
    T = len(want[0]) + len(want[1]) - 2 if num else 0
    fs, M, xs, vs = [[], []], [1], [], []
    x = -1
    while len(xs) < 2 * T + 4:
        x += 1
        d = _eval_mod(den, x, p)
        if not d:
            continue  # a pole
        v = _eval_mod(num, x, p) * pow(d, -1, p) % p
        if len(xs) > 2 * T:
            assert _fits(want, x, v, p) and not _fits(want, x, v + 1, p)
        # the second interpolant shares the points, with other values
        M = _add_point(fs, M, x, [v, (v + x * x) % p], p)
        xs.append(x)
        vs.append(v)
        assert all(_eval_mod(fs[0], xi, p) == vi
                   and _eval_mod(fs[1], xi, p) == (vi + xi * xi) % p
                   for xi, vi in zip(xs, vs))
        if len(xs) > 2 * T:
            assert _cauchy_mod(fs[0], M, p) == want


def _one_dimensional_tower(r):
    """w = [1] and its derivation for y' = r y."""
    return [ExactRatFunc.coerce(1)], lambda v: [v[0].derivative() + v[0] * r]


def test_tower_annihilator_recovers_from_an_unlucky_first_prime(monkeypatch):
    # y' = r y with r = 1/(t - 2) - 1/(t - 2 - p) = -p / ((t - 2)(t - 2 - p))
    # for the first modulus p: the image modulo p is b_0 = 0, of lower
    # degree than the true b_0 = -r, and it settles at once, so the next
    # prime starts from a hint far below the points the true image needs
    p = _modulus(0)[0]
    r = ExactRatFunc(1, ExactPoly([-2, 1])) - ExactRatFunc(1, ExactPoly([-2 - p, 1]))
    images = []
    image = exactalg._tower_image

    def spy(cache, tower, q, root, T, skips, start):
        out = image(cache, tower, q, root, T, skips, start)
        images.append((q, start, out))
        return out

    monkeypatch.setattr(exactalg, "_tower_image", spy)
    w, derive = _one_dimensional_tower(r)
    assert tower_annihilator(w, derive) == [-r, ExactRatFunc.coerce(1)]
    (q0, _, (coeffs0, settled0)), *rest = images
    q1, start1, (_, settled1) = next(im for im in rest if im[0] != p)
    assert q0 == p and coeffs0 == [((), (1,))]
    assert q1 != p and start1 <= settled0 < settled1


def _tower_images_per_prime(monkeypatch, r):
    """tower_annihilator of y' = r y, and the _tower_image calls it makes at
    each prime at its final order."""
    calls = []
    image = exactalg._tower_image

    def spy(cache, tower, q, root, T, skips, start):
        calls.append((len(tower), q, root))
        return image(cache, tower, q, root, T, skips, start)

    monkeypatch.setattr(exactalg, "_tower_image", spy)
    ann = tower_annihilator(*_one_dimensional_tower(r))
    final = max(n for n, _, _ in calls)
    return ann, collections.Counter(q for n, q, _ in calls if n == final)


@pytest.mark.parametrize("r, primes", [
    (ExactRatFunc(ExactPoly([3, 0, 1]), ExactPoly([5, -1, 1])), 1),
    # large coefficients need more than one prime
    (ExactRatFunc(ExactPoly([1, 3**40]), ExactPoly([-(5**30), 0, Fraction(1, 7)])), 2),
])
def test_tower_annihilator_takes_one_image_per_prime_for_a_real_tower(monkeypatch, r, primes):
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == [-r, ExactRatFunc.coerce(1)]
    assert len(calls) >= primes and set(calls.values()) == {1}


def test_tower_annihilator_takes_two_images_per_prime_for_a_gaussian_tower(monkeypatch):
    t = ExactPoly([0, 1])
    r = ExactRatFunc(ExactPoly([ExactScalar(0, 1)]), t) + ExactRatFunc(1, ExactPoly([-2, 1]))
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == [-r, ExactRatFunc.coerce(1)]
    assert set(calls.values()) == {2}


def test_tower_image_start_only_delays():
    # any start, even past the 2 T + 1 points that make an image exact,
    # gives the same image; a stale hint costs points, never the answer
    r = ExactRatFunc(ExactPoly([3, 0, 1]), ExactPoly([5, -1, 1]))
    w, derive = _one_dimensional_tower(r)
    tower = [w, derive(w)]
    p, s = _modulus(0)
    # cleared columns t^2 - t + 5 and t^2 + 3: T = 2 + 4 - 2, and two poles
    # plus a Cramer degree of 2 may be skipped
    T, skips = 4, 4
    want = _tower_image({}, tower, p, s, T, skips, 1)[0]
    assert want == [((p - 3, 0, p - 1), (5, p - 1, 1))]  # b_0 = -r
    for start in range(1, 2 * T + 4):
        assert _tower_image({}, tower, p, s, T, skips, start)[0] == want


def test_a_wrong_guess_fails_the_certificate_and_one_more_prime_recovers(monkeypatch):
    # y' = r y with r = t + p + 2^31 for the first modulus p.  Modulo p the
    # constant of b_0 = -r is -2^31, past sqrt(p / 2), and every other
    # Euclidean pair of it has a denominator above that bound, so the
    # balanced attempt fails and the guess takes the integer -2^31.  The
    # exact check rejects it, and the second prime gives r, one prime before
    # the balanced bound alone would.
    p = _modulus(0)[0]
    residues = [-(2**31) % p, p - 1, 1]  # b_0 = -t - p - 2^31, over 1
    assert _reference_reconstruct(residues, p) is None
    assert _reconstruct(residues, p) == [-(2**31), -1, 1]
    certified = []
    check = exactalg._certified

    def spy(tower, m, coeffs):
        certified.append(check(tower, m, coeffs))
        return certified[-1]

    monkeypatch.setattr(exactalg, "_certified", spy)
    r = ExactRatFunc(ExactPoly([p + 2**31, 1]))
    ann, calls = _tower_images_per_prime(monkeypatch, r)
    assert ann == [-r, ExactRatFunc.coerce(1)]
    assert certified == [False, True] and len(calls) == 2


def _companion_tower(b0, b1):
    """w = y, w' = y' and w'' = -b_0 y - b_1 y' in the coordinates (y, y')
    of y'' + b_1 y' + b_0 y = 0, whose annihilator is [b_0, b_1, 1]."""
    def derive(v):
        return [v[0].derivative() - b0 * v[1], v[1].derivative() + v[0] - b1 * v[1]]
    return [ExactRatFunc.coerce(1), ExactRatFunc.coerce(0)], derive


_T = ExactPoly([0, 1])


@pytest.mark.parametrize("b0, b1, shared", [
    # b_j = N_j / D with one D = (t - 7)(t + 2): the probe b_0 + 3 b_1 is
    # (t^2 + 9 t - 2) / D
    (ExactRatFunc(_T * _T + 1, (_T - 7) * (_T + 2)),
     ExactRatFunc(3 * _T - 1, (_T - 7) * (_T + 2)), True),
    # b_1 = (t + 2) / D reduces to 1 / (t - 7): the probe is
    # (t^2 + 3 t + 7) / D, and g / D for b_1 needs the gcd
    (ExactRatFunc(_T * _T + 1, (_T - 7) * (_T + 2)), ExactRatFunc(1, _T - 7), True),
    # b_0 = 3 / (t - 7) + 1 / (t + 2) and b_1 = -1 / (t - 7): the probe is
    # 1 / (t + 2), and neither den_j divides t + 2
    (ExactRatFunc(3, _T - 7) + ExactRatFunc(1, _T + 2), ExactRatFunc(-1, _T - 7), False),
])
def test_tower_image_over_the_probe_denominator(monkeypatch, b0, b1, shared):
    w, derive = _companion_tower(b0, b1)
    assert tower_annihilator(w, derive) == [b0, b1, ExactRatFunc.coerce(1)]
    tower = [w, derive(w)]
    tower.append(derive(tower[-1]))
    p, s = _modulus(0)
    T, skips = 20, 20
    over, cauchy = exactalg._over_den, exactalg._cauchy_mod
    calls = []

    def spy(f, den, M, q):
        out = over(f, den, M, q)
        calls.append((out, den, cauchy(f, M, q)))
        return out

    monkeypatch.setattr(exactalg, "_over_den", spy)
    image, settled = _tower_image({}, tower, p, s, T, skips, 1)
    # the images of b_0 and b_1, their denominators monic
    assert image == [(tuple(_poly_mod(b.num, p, s)), tuple(_poly_mod(b.den, p, s)))
                     for b in (b0, b1)]
    assert len(calls) == 2 and all(out == by_cauchy for out, _, by_cauchy in calls)
    # the route over the probe's denominator returns a divisor of it; the
    # fallback need not
    divides = [not _divmod_mod(den, out[1], p)[1] for out, den, _ in calls]
    assert all(divides) == shared
    monkeypatch.setattr(exactalg, "_over_den", lambda f, den, M, q: cauchy(f, M, q))
    assert _tower_image({}, tower, p, s, T, skips, 1) == (image, settled)


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


# -- numeric roots ----------------------------------------------------------

def test_roots_quadratic():
    roots = poly_roots_numeric(ExactPoly([1, 0, 1]))
    got = sorted(r.imag for r in roots)
    assert got == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert all(abs(r.real) < 1e-9 for r in roots)


def test_roots_cubic_integers():
    p = ExactPoly([0, 1]) * ExactPoly([-1, 1]) * ExactPoly([-2, 1])
    roots = sorted(r.real for r in poly_roots_numeric(p))
    assert roots == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)


def test_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        poly_roots_numeric(ExactPoly(()))


def test_roots_sum_property():
    rng = random.Random(17)
    for _ in range(10):
        deg = rng.randint(2, 15)
        cs = [ExactScalar(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(deg)]
        cs.append(ExactScalar(rng.randint(1, 5)))
        p = ExactPoly(cs)
        roots = poly_roots_numeric(p, tol=1e-7)
        s = sum(roots)
        expect = -(p.coeffs[-2] / p.coeffs[-1]).to_complex()
        assert abs(s - expect) <= 1e-9 * max(1.0, abs(expect))


# -- squarefree helper ------------------------------------------------------

def test_squarefree_decomposition():
    p = ExactPoly([-2, 1]) ** 1
    q = (ExactPoly([-2, 1]) * ExactPoly([-2, 1])) * ExactPoly([1, 0, 1])
    parts = dict()
    for f, m in squarefree_decomposition(q):
        parts[m] = f
    assert parts[2] == ExactPoly([-2, 1])
    assert parts[1] == ExactPoly([1, 0, 1])
