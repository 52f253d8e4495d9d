import itertools
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
    SingularMatrixError,
    poly_roots_numeric,
    _modulus,
    scalar_nullspace,
    squarefree_decomposition,
)

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
def low_rank_matrices(draw):
    """U V with U n x k and V k x c, so the rank is at most k."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, c)))
    U = draw(st.lists(st.lists(big_scalars, min_size=k, max_size=k), min_size=n, max_size=n))
    V = draw(st.lists(st.lists(big_scalars, min_size=c, max_size=c), min_size=k, max_size=k))
    return [
        [sum((U[i][l] * V[l][j] for l in range(k)), ExactScalar(0)) for j in range(c)]
        for i in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_scalar_nullspace_matches_gauss_jordan(rows):
    assert scalar_nullspace(rows) == _reference_nullspace(rows)


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
