"""Exact arithmetic over the Gaussian rationals Q(i).

Provides scalars, univariate polynomials, rational functions and matrices
with bit-exact arithmetic.  All values are immutable and canonical at
construction time, so equality is structural and instances are hashable.

A scalar is the Gaussian integer a + b*i over one positive integer
denominator d, held as the three ints (a, b, d) with gcd(a, b, d) = 1, and
zero as (0, 0, 1).  A polynomial is its Gaussian-integer numerators over
one positive integer denominator: int tuples re and im and an int d, with
gcd(d, re..., im...) = 1 and the leading pair nonzero, and zero as
((), (), 1).  Arithmetic on either is integer arithmetic with one gcd per
result, in place of a gcd for each of two ``Fraction`` parts of every
coefficient.  A polynomial's tuple of scalar coefficients is built only
when read.  Readers of the integer parts (reduction modulo a prime in the
tower lift, the root finder) scale by d directly.

One exact elimination, `_gauss_jordan`, serves Q(i) (`scalar_nullspace`)
and Q(i)(t) (`ExactMatrix`).  Only `tower_annihilator` works modulo primes,
lifting by CRT and rational reconstruction and certifying exactly.

The coefficient field is Q(i) only; no further algebraic extensions are
introduced.  Roots are found in Q(i) exactly (`gaussian_roots`), and
nothing in this module is numeric: it needs the standard library only.

Serialization: scalars render as ``a/b+c/d*i`` with zero parts omitted and
unit denominators dropped; polynomials as JSON arrays of such strings in
degree-ascending order.
"""

from __future__ import annotations

import itertools
import math
import operator
import re as _re
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ExactScalar",
    "ExactPoly",
    "ExactRatFunc",
    "ExactMatrix",
    "clear_denominators",
    "scalar_nullspace",
    "Derivation",
    "tower_annihilator",
    "gaussian_roots",
]


class SingularMatrixError(ZeroDivisionError):
    """Raised when an exact inverse of a singular matrix is requested."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class ExactScalar:
    """A Gaussian rational (a + b*i)/d held as three Python ints.

    The canonical form is d > 0 and gcd(a, b, d) = 1, with zero as
    (0, 0, 1).  Every constructor returns it, so equality is structural.
    Arithmetic works on the integers and normalizes once per result with a
    single three-way gcd.  ``re`` and ``im`` are read-only ``Fraction``
    views of a/d and b/d.  ``hash`` is that of the canonical triple
    (a, b, d), so it needs no ``Fraction``.

    ``ExactScalar(re, im)`` takes int or ``Fraction`` parts, as ``coerce``
    does, and raises ``TypeError`` for anything else, floats included.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        p, q = _rational_parts(re)
        r, s = _rational_parts(im)
        return _mk(p * s, r * q, q * s)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return _mk, (self.a, self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        p, q = _rational_parts(x)
        return _mk(p, 0, q)

    @staticmethod
    def i() -> "ExactScalar":
        return _mk(0, 1, 1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            other = ExactScalar.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _mk(self.a + other.a, self.b + other.b, d)
        return _mk(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ExactScalar):
            other = ExactScalar.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _mk(self.a - other.a, self.b - other.b, d)
        return _mk(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __neg__(self):
        return _mk(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            other = ExactScalar.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _mk(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        a, b = self.a, self.b
        if not a and not b:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        return _mk(self.d * a, -self.d * b, a * a + b * b)

    def __truediv__(self, other):
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return _mk(self.a, -self.b, self.d)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            try:
                other = ExactScalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- conversions --------------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    @staticmethod
    def _fmt_frac(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.re != 0:
            parts.append(self._fmt_frac(self.re))
        if self.im != 0:
            s = self._fmt_frac(self.im) + "*i"
            if parts and not s.startswith("-"):
                s = "+" + s
            parts.append(s)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    _TOKEN = _re.compile(r"^([+-]?\d+(?:/\d+)?)(\*i)?$")

    @staticmethod
    def parse(s: str) -> "ExactScalar":
        """Parse the ``a/b+c/d*i`` wire format (zero parts may be omitted)."""
        s = s.replace(" ", "")
        if s in ("", "0"):
            return ExactScalar(0)
        # split into signed tokens
        toks, cur = [], ""
        for ch in s:
            if ch in "+-" and cur and cur[-1] not in "+-/*":
                toks.append(cur)
                cur = ch
            else:
                cur += ch
        toks.append(cur)
        re_part, im_part = Fraction(0), Fraction(0)
        for tok in toks:
            m = ExactScalar._TOKEN.match(tok)
            if not m:
                raise ValueError(f"malformed ExactScalar token {tok!r} in {s!r}")
            try:
                val = Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in ExactScalar token {tok!r}") from None
            if m.group(2):
                im_part += val
            else:
                re_part += val
        return ExactScalar(re_part, im_part)


# slot setters that bypass the immutability guard of __setattr__
_new = object.__new__
_set_a = ExactScalar.a.__set__
_set_b = ExactScalar.b.__set__
_set_d = ExactScalar.d.__set__


def _mk(a: int, b: int, d: int) -> ExactScalar:
    """(a + b*i)/d in canonical form; d > 0."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    s = _new(ExactScalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _rational_parts(x) -> tuple[int, int]:
    """Numerator and positive denominator of an int or a Fraction."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, (float, complex)):
        raise TypeError("floats/complex are not exact; convert explicitly")
    raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")


_ZERO = ExactScalar(0)
_ONE = ExactScalar(1)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class ExactPoly:
    """Univariate polynomial over Q(i), held as Gaussian-integer numerators
    over one positive integer denominator.

    ``re`` and ``im`` are tuples of ints and ``d`` is an int: coefficient k
    is (re[k] + im[k]*i)/d, degree-ascending.  The canonical form has
    gcd(d, re..., im...) = 1 and the leading pair nonzero; the zero
    polynomial is ((), (), 1), of degree -1.  Every constructor returns it,
    so equality is structural.  Arithmetic is integer arithmetic that
    normalizes each result once, with one gcd over its integers.

    ``coeffs``, the coefficients as a tuple of ExactScalar, is built from the
    integers when first read and then kept; ``hash``, ``str``, ``to_json``
    and pickling read it, so they are those of that tuple.
    """

    __slots__ = ("re", "im", "d", "var", "_coeffs")

    def __new__(cls, coeffs=(), var: str = "t"):
        cs = [ExactScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        # over the lcm of canonical denominators the parts share no factor
        d = math.lcm(*[c.d for c in cs])
        return _poly(tuple(c.a * (d // c.d) for c in cs),
                     tuple(c.b * (d // c.d) for c in cs), d, var)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    def __reduce__(self):
        return ExactPoly, (self.coeffs, self.var)

    @property
    def coeffs(self) -> tuple:
        cs = self._coeffs
        if cs is None:
            cs = tuple(map(_mk, self.re, self.im, itertools.repeat(self.d)))
            _set_coeffs(self, cs)
        return cs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, var: str = "t") -> "ExactPoly":
        c = ExactScalar.coerce(c)
        return _poly((c.a,), (c.b,), c.d, var) if c else _poly((), (), 1, var)

    @staticmethod
    def x(var: str = "t") -> "ExactPoly":
        return ExactPoly([0, 1], var=var)

    @staticmethod
    def monomial(c, deg: int, var: str = "t") -> "ExactPoly":
        return ExactPoly([0] * deg + [c], var=var)

    @staticmethod
    def coerce(p, var: str = "t") -> "ExactPoly":
        if isinstance(p, ExactPoly):
            return p
        return ExactPoly.constant(ExactScalar.coerce(p), var=var)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self):
        return bool(self.re)

    def leading(self) -> ExactScalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return _mk(self.re[-1], self.im[-1], self.d)

    def coeff(self, k: int) -> ExactScalar:
        return _mk(self.re[k], self.im[k], self.d) if 0 <= k < len(self.re) else _ZERO

    # -- arithmetic ---------------------------------------------------------

    def _cvar(self, other: "ExactPoly") -> str:
        if self.is_zero():
            return other.var
        if other.is_zero() or self.var == other.var:
            return self.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _combine(self, other, op) -> "ExactPoly":
        """self op other for op add or sub, over the lcm of the denominators."""
        other = ExactPoly.coerce(other, self.var)
        var = self._cvar(other)
        ar, ai, d = self.re, self.im, self.d
        br, bi, e = other.re, other.im, other.d
        if d != e:
            g = math.gcd(d, e)
            u, w = e // g, d // g
            ar, ai = [x * u for x in ar], [x * u for x in ai]
            br, bi = [x * w for x in br], [x * w for x in bi]
            d *= u
        return _pmk([op(x, y) for x, y in itertools.zip_longest(ar, br, fillvalue=0)],
                    [op(x, y) for x, y in itertools.zip_longest(ai, bi, fillvalue=0)],
                    d, var)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return ExactPoly.coerce(other, self.var) - self

    def __neg__(self):
        return _poly(tuple(-x for x in self.re), tuple(-x for x in self.im), self.d, self.var)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            return self.scale(other)
        other = ExactPoly.coerce(other, self.var)
        var = self._cvar(other)
        if not self.re or not other.re:
            return _poly((), (), 1, var)
        return _pmk(*_zi_mul(self.re, self.im, other.re, other.im), self.d * other.d, var)

    __rmul__ = __mul__

    def scale(self, s) -> "ExactPoly":
        s = ExactScalar.coerce(s)
        a, b = s.a, s.b
        if b:
            re = [x * a - y * b for x, y in zip(self.re, self.im)]
            im = [x * b + y * a for x, y in zip(self.re, self.im)]
        else:
            re, im = [x * a for x in self.re], [y * a for y in self.im]
        return _pmk(re, im, self.d * s.d, self.var)

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = ExactPoly.constant(1, var=self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """Quotient and remainder, by division of the integer numerators.

        With beta the leading numerator of the divisor and mu * beta = N a
        positive integer (mu = conj(beta), or the sign of a real beta), each
        step subtracts mu times the leading remainder numerator times the
        divisor from N times the remainder, and multiplies the remainder's
        denominator by N.  A monic divisor, as _poly_gcd and lcm pass, has
        N = its denominator, not its square, and N = 1 when it lies in
        Z[i][t].  Quotient and remainder are normalized once."""
        other = ExactPoly.coerce(other, self.var)
        if not other.re:
            raise ZeroDivisionError("polynomial division by zero")
        var = self._cvar(other)
        br, bi = other.re, other.im
        n = len(br) - 1
        rr, ri = list(self.re), list(self.im)
        s = len(rr) - n  # quotient terms; none when s <= 0
        x, y = br[-1], bi[-1]
        N = x * x + y * y if y else abs(x)
        qr, qi, qe = [0] * s, [0] * s, [0] * s
        e = 0  # the remainder is over self.d * N^e
        for k in range(len(rr) - 1, n - 1, -1):
            cr, ci = rr[k], ri[k]
            if not cr and not ci:
                continue
            if y:
                cr, ci = cr * x + ci * y, ci * x - cr * y
            elif x < 0:
                cr, ci = -cr, -ci
            if N != 1:
                e += 1
                rr[:k] = [v * N for v in rr[:k]]
                ri[:k] = [v * N for v in ri[:k]]
            lo = k - n
            for j in range(n):
                u, v = br[j], bi[j]
                rr[lo + j] -= cr * u - ci * v
                ri[lo + j] -= cr * v + ci * u
            qr[lo], qi[lo], qe[lo] = cr, ci, e
        # the quotient by other.re/im is sum_k c_k / N^e_k; by other, times other.d
        scale = [other.d * N ** (e - ek) for ek in qe]
        q = _pmk(list(map(operator.mul, qr, scale)), list(map(operator.mul, qi, scale)),
                 self.d * N**e, var)
        return q, _pmk(rr[:n], ri[:n], self.d * N**e, var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "ExactPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div: division is not exact")
        return q

    def monic(self) -> "ExactPoly":
        """self over its leading coefficient (x + y*i)/d: the numerators
        times conj(x + y*i) over x^2 + y^2, or over x when y = 0."""
        if not self.re:
            return self
        x, y = self.re[-1], self.im[-1]
        if not y:
            if x == self.d:
                return self
            if x > 0:
                return _pmk(self.re, self.im, x, self.var)
            return _pmk([-v for v in self.re], [-v for v in self.im], -x, self.var)
        return _pmk([u * x + v * y for u, v in zip(self.re, self.im)],
                    [v * x - u * y for u, v in zip(self.re, self.im)],
                    x * x + y * y, self.var)

    def gcd(self, other) -> "ExactPoly":
        """Monic gcd via the Euclidean algorithm (field coefficients)."""
        return _poly_gcd(self, ExactPoly.coerce(other, self.var))

    def lcm(self, other) -> "ExactPoly":
        other = ExactPoly.coerce(other, self.var)
        if self.is_zero() or other.is_zero():
            return ExactPoly((), var=self.var)
        g = self.gcd(other)
        return (self * other).exact_div(g).monic()

    def derivative(self) -> "ExactPoly":
        return _pmk([k * x for k, x in enumerate(self.re)][1:],
                    [k * x for k, x in enumerate(self.im)][1:], self.d, self.var)

    def compose_linear(self, a, b) -> "ExactPoly":
        """p(a*x + b) by Horner evaluation in the polynomial ring."""
        a = ExactScalar.coerce(a)
        b = ExactScalar.coerce(b)
        lin = ExactPoly([b, a], var=self.var)
        out = ExactPoly((), var=self.var)
        for c in reversed(self.coeffs):
            out = out * lin + ExactPoly.constant(c, var=self.var)
        return out

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        if isinstance(x, (ExactScalar, int, Fraction)):
            # Horner on the numerators at x = (xa + xb*i)/xd, times xd^deg
            x = ExactScalar.coerce(x)
            if not self.re:
                return _ZERO
            xa, xb, xd = x.a, x.b, x.d
            vr, vi, w = self.re[-1], self.im[-1], 1
            for cr, ci in zip(self.re[-2::-1], self.im[-2::-1]):
                w *= xd
                if xb:
                    vr, vi = vr * xa - vi * xb + cr * w, vr * xb + vi * xa + ci * w
                else:
                    vr, vi = vr * xa + cr * w, vi * xa + ci * w
            return _mk(vr, vi, self.d * w)
        out = 0j
        for c in reversed(self.coeffs):
            out = out * x + c.to_complex()
        return out

    # -- comparisons / serialization ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (ExactPoly, ExactScalar, int, Fraction)):
            return NotImplemented
        other = ExactPoly.coerce(other, self.var)
        return self.d == other.d and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if k == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else f"({cs})*"
                pw = self.var if k == 1 else f"{self.var}^{k}"
                terms.append(f"{head}{pw}")
        return " + ".join(terms)

    def __repr__(self):
        return f"ExactPoly({self})"


_set_re = ExactPoly.re.__set__
_set_im = ExactPoly.im.__set__
_set_pd = ExactPoly.d.__set__
_set_var = ExactPoly.var.__set__
_set_coeffs = ExactPoly._coeffs.__set__


def _poly(re: tuple, im: tuple, d: int, var: str) -> ExactPoly:
    """The ExactPoly of a canonical (re, im, d)."""
    p = _new(ExactPoly)
    _set_re(p, re)
    _set_im(p, im)
    _set_pd(p, d)
    _set_var(p, var)
    _set_coeffs(p, None)
    return p


def _pmk(re: list, im: list, d: int, var: str) -> ExactPoly:
    """(re + im*i)/d in canonical form, for numerator lists of one length
    and d > 0: trailing zero pairs dropped and one gcd divided out."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return _poly((), (), 1, var)
    if n < len(re):
        re, im = re[:n], im[:n]
    g = math.gcd(d, *re, *im)
    if g != 1:
        return _poly(tuple(x // g for x in re), tuple(x // g for x in im), d // g, var)
    return _poly(tuple(re), tuple(im), d, var)


def _conv(a, b) -> list:
    """Coefficients of the product of the integer polynomials a and b."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            out[i : i + n] = map(operator.add, out[i : i + n], map(x.__mul__, a))
    return out


def _zi_mul(ar, ai, br, bi) -> tuple[list, list]:
    """Real and imaginary coefficients of the product of the nonempty
    Gaussian-integer polynomials ar + ai*i and br + bi*i, each given by two
    int sequences of one length; the two results have one length too."""
    a_real, b_real = not any(ai), not any(bi)
    re = _conv(ar, br)
    if a_real and b_real:
        im = [0] * len(re)
    elif a_real or b_real:
        im = _conv(ar, bi) if a_real else _conv(ai, br)
    else:
        # three products in place of four (Karatsuba)
        p2 = _conv(ai, bi)
        p3 = _conv(list(map(operator.add, ar, ai)), list(map(operator.add, br, bi)))
        im = [z - x - y for x, y, z in zip(re, p2, p3)]
        re = list(map(operator.sub, re, p2))
    return re, im


def _add_into(sr: list, si: list, re: list, im: list) -> None:
    """sr + si*i += re + im*i for Gaussian-integer coefficient lists, the
    two of each pair of one length."""
    if len(sr) < len(re):
        pad = [0] * (len(re) - len(sr))
        sr += pad
        si += pad
    sr[: len(re)] = map(operator.add, sr, re)
    si[: len(im)] = map(operator.add, si, im)


def _poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic Euclidean gcd with per-step monic rescaling."""
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    a, b = a.monic(), b.monic()
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a


def squarefree_decomposition(p: ExactPoly) -> list[tuple[ExactPoly, int]]:
    """Yun-style decomposition: returns [(f_i, m_i)] with p ~ prod f_i^{m_i},
    each f_i squarefree and pairwise coprime."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.monic()
    out = []
    m = 1
    while p.degree > 0:
        g = p.gcd(p.derivative())
        f = p.exact_div(g).monic()  # product of factors of multiplicity >= m
        if f.degree > 0:
            # factors with multiplicity exactly m: f / gcd(f, g)
            h = f.gcd(g)
            exact = f.exact_div(h).monic()
            if exact.degree > 0:
                out.append((exact, m))
        p = g
        m += 1
    return out


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class ExactRatFunc:
    """Quotient of ExactPoly values, canonical at construction:
    gcd(num, den) = 1 and den monic.

    A canonical constant denominator is 1.  When both operands of ``+``,
    ``-`` or ``*`` have den = 1, the result is the sum, difference or
    product of the numerators over 1, canonical as it stands; a nonzero
    ExactScalar factor keeps num and den coprime and den monic.  Only the
    general case forms num * den' +- num' * den over den * den' and
    normalizes it with a gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str = "t"):
        num = ExactPoly.coerce(num, var)
        den = ExactPoly.coerce(den, num.var if not num.is_zero() else var)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in ExactRatFunc")
        if num.is_zero():
            den = ExactPoly.constant(1, var=den.var)
        else:
            # the monic gcd with a nonzero constant is 1
            if den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            lead = den.leading()
            if lead != _ONE:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactRatFunc is immutable")

    def __reduce__(self):
        return _ratfunc, (self.num, self.den)

    @staticmethod
    def coerce(f, var: str = "t") -> "ExactRatFunc":
        if isinstance(f, ExactRatFunc):
            return f
        if isinstance(f, ExactPoly):
            return ExactRatFunc(f, 1, var=f.var)
        return ExactRatFunc(ExactPoly.coerce(f, var), 1, var=var)

    @property
    def var(self) -> str:
        return self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> ExactPoly:
        if not self.is_poly():
            raise ValueError("not a polynomial")
        return self.num.scale(self.den.coeff(0).inverse())

    def _over_one(self, other) -> bool:
        """Both denominators are 1, in one variable."""
        return len(self.den.re) == 1 == len(other.den.re) and self.den.var == other.den.var

    def __add__(self, other):
        other = ExactRatFunc.coerce(other, self.var)
        if self._over_one(other):
            return _ratfunc(self.num + other.num, self.den)
        return ExactRatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactRatFunc.coerce(other, self.var)
        if self._over_one(other):
            return _ratfunc(self.num - other.num, self.den)
        return ExactRatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        return ExactRatFunc.coerce(other, self.var) - self

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            if not other:
                return ExactRatFunc(0, var=self.var)
            return _ratfunc(self.num.scale(other), self.den)
        other = ExactRatFunc.coerce(other, self.var)
        if self._over_one(other):
            return _ratfunc(self.num * other.num, self.den)
        return ExactRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactRatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return ExactRatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * ExactRatFunc.coerce(other, self.var).inverse()

    def __rtruediv__(self, other):
        return ExactRatFunc.coerce(other, self.var) * self.inverse()

    def derivative(self) -> "ExactRatFunc":
        return ExactRatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        if isinstance(x, (ExactScalar, int, Fraction)):
            d = self.den(x)
            if isinstance(d, ExactScalar) and d.is_zero():
                raise ZeroDivisionError("evaluation at a pole")
            return self.num(x) / d
        return self.num(x) / self.den(x)

    def __eq__(self, other):
        try:
            other = ExactRatFunc.coerce(other, self.var)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_poly():
            return str(self.as_poly())
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"ExactRatFunc({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


_set_num = ExactRatFunc.num.__set__
_set_den = ExactRatFunc.den.__set__


def _ratfunc(num: ExactPoly, den: ExactPoly) -> ExactRatFunc:
    """The ExactRatFunc of a canonical (num, den)."""
    f = _new(ExactRatFunc)
    _set_num(f, num)
    _set_den(f, den)
    return f


def clear_denominators(fs, var: str):
    """(D, [f * D for f in fs]): D is the monic lcm of the denominators of
    the rational functions fs, so every f * D is a polynomial."""
    D = ExactPoly([1], var=var)
    for den in {f.den for f in fs}:
        if den.degree > 0:
            D = D.lcm(den)
    return D, [f.num if f.den == D else f.num * D.exact_div(f.den) for f in fs]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Rectangular matrix with ExactRatFunc entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, var: str = "t"):
        ents = [
            [ExactRatFunc.coerce(e, var) for e in row] for row in entries
        ]
        if not ents or not ents[0]:
            raise ValueError("matrix dimensions must be >= 1")
        ncols = len(ents[0])
        if any(len(r) != ncols for r in ents):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in ents))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return ExactMatrix, (self.entries, self.var)

    @staticmethod
    def identity(n: int, var: str = "t") -> "ExactMatrix":
        return ExactMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], var=var
        )

    @property
    def var(self) -> str:
        return self.entries[0][0].var

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self[i, j] + other[i, j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self[i, j] - other[i, j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return ExactMatrix(
            [[-self[i, j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            raise TypeError("matmul expects an ExactMatrix")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        var = self.var
        cols = list(zip(*other.entries))
        return ExactMatrix(
            [[_dot(row, col, var) for col in cols] for row in self.entries]
        )

    def scale(self, s) -> "ExactMatrix":
        return ExactMatrix(
            [[self[i, j] * s for j in range(self.cols)] for i in range(self.rows)]
        )

    def derivative(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self[i, j].derivative() for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def conjugate_coeffs(self) -> "ExactMatrix":
        """Entrywise conjugation of Q(i) coefficients (the variable stays real)."""

        def conj_poly(p: ExactPoly) -> ExactPoly:
            return ExactPoly([c.conjugate() for c in p.coeffs], var=p.var)

        return ExactMatrix(
            [
                [
                    ExactRatFunc(conj_poly(self[i, j].num), conj_poly(self[i, j].den))
                    for j in range(self.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def _rref(self):
        """Reduced row echelon form: (rref rows, pivot column list, d), where
        d is the product of the pivots, negated once per row swap; for a
        square matrix of full rank it is the determinant."""
        m = [list(r) for r in self.entries]
        pivots, d = _gauss_jordan(m, self.cols, ExactRatFunc.coerce(1, self.var))
        return m, pivots, d

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> list[list[ExactRatFunc]]:
        """Basis of the right kernel over the rational-function field, in
        reduced echelon normalization (see _nullspace)."""
        return _nullspace(self.entries, self.cols, ExactRatFunc.coerce(1, self.var))[0]

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = ExactMatrix(
            [
                list(self.entries[i]) + [1 if j == i else 0 for j in range(n)]
                for i in range(n)
            ],
            var=self.var,
        )
        m, pivots, _ = aug._rref()
        if len(pivots) < n or pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return ExactMatrix([row[n:] for row in m])

    def det(self) -> ExactRatFunc:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        _, pivots, d = self._rref()
        return d if len(pivots) == self.rows else ExactRatFunc.coerce(0, self.var)

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(self[i, j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )

    def __repr__(self):
        return f"ExactMatrix(\n{self}\n)"


def _dot(fs, gs, var: str) -> ExactRatFunc:
    """sum f*g over paired entries, normalized once.

    Products that share a denominator are summed over it; the distinct
    denominators are then multiplied together, so the whole sum is one
    fraction and one ExactRatFunc construction reduces it."""
    dens, nums = [], []
    for f, g in zip(fs, gs):
        if f.is_zero() or g.is_zero():
            continue
        num, den = f.num * g.num, f.den * g.den
        for k, d in enumerate(dens):
            if d == den:
                nums[k] = nums[k] + num
                break
        else:
            dens.append(den)
            nums.append(num)
    if not dens:
        return ExactRatFunc.coerce(0, var)
    num, den = nums[0], dens[0]
    for n, d in zip(nums[1:], dens[1:]):
        num, den = num * d + n * den, den * d
    return ExactRatFunc(num, den)


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Q(i) and Q(i)(t)
# ---------------------------------------------------------------------------

def _gauss_jordan(m: list[list], ncols: int, one):
    """Reduce the rows m to reduced row echelon form in place.

    The entries lie in a field whose elements have is_zero, inverse, * and
    -, and `one` is its 1: ExactScalar for Q(i), ExactRatFunc for Q(i)(t).
    Returns the pivot columns and the product of the pivots, negated once
    per row swap; for a square matrix of full rank it is the determinant.
    Zero entries are skipped when the pivot row is scaled and when it is
    subtracted from the other rows."""
    pivots = []
    d = one
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            d = -d
        d = d * m[r][c]
        inv = m[r][c].inverse()
        row = m[r] = [e if e.is_zero() else e * inv for e in m[r]]
        # earlier columns of the pivot row are already zero
        support = [j for j in range(c, ncols) if not row[j].is_zero()]
        for i, other in enumerate(m):
            f = other[c]
            if i != r and not f.is_zero():
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
    return pivots, d


def _nullspace(rows, ncols: int, one) -> tuple[list[list], int]:
    """Right-kernel basis and rank of the rows, by _gauss_jordan.  The basis
    is in reduced echelon normalization: one vector per free column, with a
    1 there, a 0 at every other free column and -m[r][fc] at pivot column
    pivots[r] of the reduced rows m."""
    m = [list(r) for r in rows]
    pivots, _ = _gauss_jordan(m, ncols, one)
    zero = one - one
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis, len(pivots)


def scalar_nullspace(rows) -> tuple[list[list[ExactScalar]], int]:
    """Right-kernel basis and rank of a matrix of ExactScalar entries, by
    exact Gauss-Jordan elimination (see _nullspace)."""
    return _nullspace(rows, len(rows[0]), _ONE) if rows and rows[0] else ([], 0)


# ---------------------------------------------------------------------------
# Primes p = 1 (mod 4), CRT and rational reconstruction
# ---------------------------------------------------------------------------

_MODULI: list[tuple[int, int]] = []  # (p, sqrt(-1) mod p), extended on use

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, the primes up to 41, which is
    deterministic (exact) for every n below psi_13 =
    3317044064679887385961981, the least strong pseudoprime to them all
    (Sorenson and Webster, Math. Comp. 2017).  The primes up to 37 alone
    pass psi_12 = 318665857834031151167461.  The moduli of _modulus exceed
    psi_13; for them this is only a cheap filter for composites, and
    _sqrt_minus_one proves primality."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_minus_one(p: int) -> int | None:
    """The smaller square root min(r, p - r) of -1 modulo p = 1 (mod 4),
    r = g^((p-1)/4) for the first g of _MR_BASES with g^((p-1)/2) = -1
    (mod p); None if there is none.  For a prime p such a g is a quadratic
    non-residue, and the least non-residue is prime, so this misses only a
    prime whose least non-residue exceeds 41.  For p = c 2^e + 1 with c
    odd and c < 2^e, the g found is a Proth certificate: p is prime (Proth,
    1878)."""
    for g in _MR_BASES:
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return min(r, p - r)
    return None


def _modulus(k: int) -> tuple[int, int]:
    """The k-th proven prime p = c 2^60 + 1 with c odd, counting c down
    from 2^30 - 1, with the smaller square root of -1 modulo p.

    2^89 < p < 2^90, and p = 1 (mod 4) by its form.  Such a p fills three
    30-bit digits of a CPython int, as a prime below 2^62 does, but carries
    89 bits where that carries 61, so fewer primes lift the same values.
    A candidate is kept only when _is_prime passes it and _sqrt_minus_one
    finds a Proth certificate, which also gives the root."""
    while len(_MODULI) <= k:
        c = (_MODULI[-1][0] >> 60 if _MODULI else 1 << 30 | 1) - 2
        while not (_is_prime(p := c << 60 | 1) and (s := _sqrt_minus_one(p))):
            c -= 2
        _MODULI.append((p, s))
    return _MODULI[k]


def _modulus_from(p: int, step: int) -> tuple[int, int]:
    """The first prime q of p, p + step, ... (each 1 mod 4, below psi_13)
    for which _sqrt_minus_one finds a root, with that root."""
    while not (_is_prime(p) and (s := _sqrt_minus_one(p))):
        p += step
    return p, s


def _ratrec(u: int, M: int, bound: int):
    """(n, d) with n = u d (mod M), |n| <= bound and 0 < d <= bound, by the
    extended Euclidean algorithm; None if there is none."""
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


# A guess past the balanced bound must leave 10 bits of M to spare: the
# residue of no small fraction passes with a chance of about 2^-10 per
# Euclidean step, and a wrong guess costs one failed exact check before the
# next prime is folded in.
_SPARE = 1 << 10


def _guess(v: int, M: int):
    """(n, d) with n = v d (mod M), 0 < d and |n| d below about M / 2^10, or
    None: the symmetric residue as an integer when it is that small, else
    the pair that the largest quotient of the extended Euclidean algorithm
    follows (maximal-quotient rational reconstruction) when that quotient
    exceeds 2^10."""
    s = v - M if 2 * v > M else v
    if abs(s) * _SPARE < M:
        return s, 1
    r0, r1, t0, t1 = M, v, 0, 1
    best, nd = _SPARE, None
    while r1 and r0 > best:  # a later quotient is at most r0
        q = r0 // r1
        if q > best:
            best, nd = q, (r1, t1)
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if nd is None:
        return None
    return nd if nd[1] > 0 else (-nd[0], -nd[1])


def _over_running_den(residues: list[int], M: int, rec, bound: int):
    """Rationals with the given residues modulo M, each by rec from its
    residue times the running denominator, which is kept at most bound;
    None if rec fails or the denominator outgrows the bound."""
    den = 1
    out = []
    for u in residues:
        nd = rec(u * den % M)
        if nd is None:
            return None
        den *= nd[1]
        if den > bound:
            return None
        out.append(Fraction(nd[0], den))
    return out


def _reconstruct(residues: list[int], M: int):
    """Rationals with the given residues modulo M, sharing one running
    denominator so that entries with a common denominator come cheaply;
    None if reconstruction fails.

    The first attempt keeps every numerator and the running denominator
    within the balanced bound sqrt(M / 2), where a rational is unique; when
    the true values fit that bound it returns them.  Only when it fails is
    each value guessed by _guess, so that small but unbalanced values come
    back from fewer primes than the bound needs.  A guess may be wrong, and
    its caller, the lift of tower_annihilator, certifies the result by
    exact substitution."""
    bound = math.isqrt(M // 2)
    out = _over_running_den(residues, M, lambda v: _ratrec(v, M, bound), bound)
    if out is None:
        out = _over_running_den(residues, M, lambda v: _guess(v, M), M)
    return out


def _lift_gaussian(acc, p: int, s: int, plus: list[int], minus: list[int]):
    """Fold one prime into tower_annihilator's multi-modular lift of a list
    of Gaussian rationals.

    `plus` and `minus` are their images modulo p under i -> s and i -> -s;
    the half sum and the half difference over s are the real and imaginary
    parts modulo p.  For real values `plus` may be `minus`, and then the
    imaginary parts are 0.  `acc` holds (M, real residues, imaginary
    residues) modulo the product M of the primes folded in so far, or is
    None to start afresh.  Returns the new accumulator and the values as
    ExactScalar by CRT and rational reconstruction, or None in their place
    while reconstruction fails.  Before M passes the balanced bound of the
    true values they may be a guess (see _reconstruct), which
    tower_annihilator's exact substitution rejects when it is wrong."""
    half, half_s = pow(2, -1, p), pow(2 * s, -1, p)
    re_p = [(x + y) * half % p for x, y in zip(plus, minus)]
    im_p = [(x - y) * half_s % p for x, y in zip(plus, minus)]
    if acc is None:
        M, re_acc, im_acc = p, re_p, im_p
    else:
        M, re_acc, im_acc = acc
        c = pow(M, -1, p)
        re_acc = [x + M * ((y - x) * c % p) for x, y in zip(re_acc, re_p)]
        im_acc = [x + M * ((y - x) * c % p) for x, y in zip(im_acc, im_p)]
        M *= p
    re_q = _reconstruct(re_acc, M)
    im_q = _reconstruct(im_acc, M) if re_q is not None else None
    values = None if im_q is None else list(map(ExactScalar, re_q, im_q))
    return (M, re_acc, im_acc), values


# ---------------------------------------------------------------------------
# Certified annihilators of derivative towers over Q(i)(t)
# ---------------------------------------------------------------------------

class Derivation(NamedTuple):
    """The derivation v -> v' + A v / dz of vectors of length `dim` over
    Q(i)(var), as data.

    dz is a nonzero polynomial of Z[i][t], given by its lists of real and
    imaginary integer coefficients, whose leading coefficient is a positive
    integer DA, so that d = dz / DA is monic.  A is a dim x dim matrix over
    Z[i][t], held as its nonzero entries: (source, target, re, im) adds
    (re + im*i) v[source] to entry `target` of A v.  `Derivation.of` builds
    it from v' + act(v) / d over Q(i)[t]."""

    dz: tuple
    act: list
    dim: int
    var: str

    @staticmethod
    def of(d: ExactPoly, act: dict, dim: int) -> "Derivation":
        """The derivation v -> v' + act(v) / d for d monic and act given by
        its entries {(source, target): ExactPoly}: DA is the least integer
        that clears d and every entry, dz = DA d and A = DA act."""
        DA = math.lcm(d.d, *(f.d for f in act.values()))

        def scaled(f):
            k = DA // f.d
            return [x * k for x in f.re], [x * k for x in f.im]

        return Derivation(scaled(d), [(s, t, *scaled(f)) for (s, t), f in act.items() if f],
                          dim, d.var)


def _level(polys) -> tuple:
    """The polynomials as one tower level: (pairs, den), their real and
    imaginary integer coefficients over one positive integer den, with
    gcd(den, the integers) = 1 as over the lcm of canonical denominators."""
    den = math.lcm(*(f.d for f in polys))
    return [([a * (den // f.d) for a in f.re], [b * (den // f.d) for b in f.im])
            for f in polys], den


def _poly_mod(re: list, im: list, p: int, root: int, scale: int = 1) -> list[int]:
    """Coefficients of (re + im*i) * scale modulo p under i -> root."""
    return [(a + root * b) * scale % p for a, b in zip(re, im)]


def _eval_mod(f: list[int], x: int, p: int) -> int:
    v = 0
    for c in reversed(f):
        v = (v * x + c) % p
    return v


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _times_linear(f: list[int], x: int, p: int) -> list[int]:
    """f (t - x) over F_p."""
    out = [0] + f
    for i, c in enumerate(f):
        out[i] = (out[i] - x * c) % p
    return out


def _divmod_mod(a: list[int], b: list[int], p: int):
    """Quotient and remainder over F_p (coefficients ascending, b != 0)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            q[k - db] = c
            a[k - db : k + 1] = [(x - c * y) % p for x, y in zip(a[k - db : k + 1], b)]
    return q, _trim(a[:db])


def _add_point(fs: list[list[int]], M: list[int], x: int, vs: list[int], p: int):
    """Extend the interpolants fs, in monomial form through the roots of M,
    by the values vs at the new point x: f <- f + (v - f(x)) M / M(x), one
    modular inverse for all of them.  Returns M (t - x), or None, leaving
    fs as they are, when every f already takes its value at x."""
    cs = [(v - _eval_mod(f, x, p)) % p for f, v in zip(fs, vs)]
    if not any(cs):
        return None
    inv = pow(_eval_mod(M, x, p), -1, p)
    for f, c in zip(fs, cs):
        if c:
            c = c * inv % p
            f.extend([0] * (len(M) - len(f)))
            f[:] = [(a + c * b) % p for a, b in zip(f, M)]
    return _times_linear(M, x, p)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of a and b, not both zero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


_GREW = object()  # the order exceeds the tower (_dependency_mod, _tower_image)


def _dependency_mod(cols: list[list[int]], first, p: int):
    """Forward elimination modulo p of the rows of columns c_0..c_m,
    arranged as `first`, or as they come when it is None.  Returns _GREW
    when all m + 1 columns are independent; None when c_0..c_{m-1} are
    dependent, or when a pivot lies past the first m rows of `first`
    (their minor is singular); else (b, det, order): sum_{j<m} b_j c_j
    = -c_m, the rows as pivoted, and the determinant on c_0..c_{m-1} of
    the first m rows of `first`, or of `order` when `first` is None."""
    m = len(cols) - 1
    rows = [list(r) for r in zip(*cols)]
    order = list(range(len(rows))) if first is None else list(first)
    rows = [rows[i] for i in order]
    det, invs = 1, []
    for c in range(m):
        pr = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pr is None or (first is not None and pr >= m):
            return None
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            order[c], order[pr] = order[pr], order[c]
            if first is not None:
                det = -det
        piv = rows[c]
        det = det * piv[c] % p
        invs.append(pow(piv[c], -1, p))
        for row in rows[c + 1 :]:
            f = row[c] * invs[c] % p
            if f:
                row[c:] = [(a - f * v) % p for a, v in zip(row[c:], piv[c:])]
    if any(row[m] for row in rows[m:]):
        return _GREW
    b = [0] * m
    for j in reversed(range(m)):
        row = rows[j]
        b[j] = -(row[m] + sum(row[k] * b[k] for k in range(j + 1, m))) * invs[j] % p
    return b, det, order


def _tower_at(cols, x: int, p: int):
    """Tower columns at x modulo p, each residue polynomial a dot product
    with one table of the powers of x."""
    powers = [1]
    for _ in range(max(len(f) for col in cols for f in col) - 1):
        powers.append(powers[-1] * x % p)
    return [[sum(map(operator.mul, f, powers)) % p for f in col] for col in cols]


def _residues(cache: dict, tower, dz: tuple, p: int, root: int):
    """The residues modulo p under i -> root of dz, of each level N_j
    divided by the highest power dz^(j - f_j) of dz that divides it, and
    the f_j, kept in `cache` so that each level is reduced once per
    (p, root) however often the tower grows.  A level takes one inverse,
    of its denominator.  ValueError when p divides that denominator or the
    leading coefficient of dz."""
    if (p, root) not in cache:
        dp = _poly_mod(*dz, p, root)
        if not dp[-1]:
            raise ValueError("p divides the leading coefficient of dz")
        cache[p, root] = (dp, [], [])
    dp, cols, fs = cache[p, root]
    for entries, den in tower[len(cols):]:
        inv = pow(den, -1, p)
        col, f = [_poly_mod(re, im, p, root, inv) for re, im in entries], len(cols)
        while len(dp) > 1 and any(map(any, col)):
            qr = [_divmod_mod(e, dp, p) for e in col]
            if any(r for _, r in qr):
                break
            col, f = [q for q, _ in qr], f - 1
        cols.append(col)
        fs.append(f)
    return dp, cols, fs


# G of the sample points k G mod p of _tower_image, floor(2^64 / golden
# ratio): they lie far from the small rationals where a tower's poles and
# symmetries sit.  At x = 2, 3, 4, ... the tower of y'' + y' / (t - 3)^2 = 0
# has equal Delta and P_1 at 2 and 4, and constant interpolants would fit.
_STEP = 0x9E3779B97F4A7C15


def _tower_image(cache: dict, tower, dz: tuple, p: int, root: int, T: int, skips: int):
    """The dependency sum_{j<m} b_j v_j + v_m = 0 of the tower v_j = N_j / dz^j,
    j <= m, modulo p, under i -> root, by interpolating its Cramer
    polynomials; the tower's residues come from `cache` (see _residues).

    The columns are c_j = dz^f_j v_j, polynomials modulo p (see _residues).
    Sample points are k G mod p (see _STEP).  A point where all m + 1
    columns are independent proves that over Q(i)(t) too, and _GREW is
    returned so that the caller derives v_{m+1}.  The first point where the first m columns are
    independent fixes one m x m minor of them: the rows its pivoting
    takes.  Points where that minor is singular (before it is fixed: where
    those columns are dependent) are skipped.  The minor's determinant
    Delta and P_j = beta_j Delta, by Cramer's rule the minor with column j
    replaced by -c_m, are polynomials of degree at most T (see
    tower_annihilator); the elimination at each point gives beta_j(x) and
    Delta(x), which extend one interpolant each.  Once all m + 1 fit a
    fresh point, or at T + 1 points, where they are exact, the image
    b_j = P_j dz^(f_j - f_m) / Delta is returned in one common form: with
    lo = min f, B_j = P_j dz^(f_j - lo) and D = Delta dz^(f_m - lo), so
    that b_j = B_j / D, divided by G = gcd(D, B_0, ..., B_{m-1}) over F_p
    and scaled so that D is monic, as the tuples [B_0, ..., B_{m-1}, D].
    G takes one full gcd, of D and the first nonzero B_j; the others are
    taken against G, which only shrinks.

    Returns None when p is unlucky: it divides a level's denominator or the
    leading coefficient of dz,
    or more than `skips` points are skipped.  Unless the first m columns are
    dependent modulo p, at most sum_{i<m} delta_i are: the roots of the
    fixed minor's Delta, of that degree at most and nonzero at the point
    that fixed it."""
    try:
        dp, cols, f = _residues(cache, tower, dz, p, root)
    except ValueError:
        return None
    m = len(cols) - 1
    fs = [[] for _ in range(m + 1)]  # P_0, ..., P_{m-1} and Delta
    M, first, skipped, k = [1], None, 0, 0
    while True:
        k += 1
        x = k * _STEP % p
        dep = _dependency_mod(_tower_at(cols, x, p), first, p)
        if dep is _GREW:
            return _GREW
        if dep is None:
            skipped += 1
            if skipped > skips:
                return None
            continue
        b, det, order = dep
        if first is None:
            first = order
        M = _add_point(fs, M, x, [v * det % p for v in b] + [det], p)
        if M is None or len(M) > T + 1:
            break
    lo = min(f)
    image = []
    for poly, fj in zip(fs, f):
        for _ in range(fj - lo):
            poly = _trim([c % p for c in _conv(poly, dp)])
        image.append(poly)
    g = image[-1]
    for poly in image[:-1]:
        if len(g) == 1:
            break
        if poly:
            g = _gcd_mod(poly, g, p)
    if len(g) > 1:
        image = [_divmod_mod(poly, g, p)[0] for poly in image]
    inv = pow(image[-1][-1], -1, p)
    return [tuple(c * inv % p for c in poly) for poly in image]


def _certified(tower, dz: tuple, m: int, polys) -> bool:
    """sum_{j<=m} a_j v_j = 0 exactly, for the polynomials a_j of `polys`
    and v_j = N_j / dz^j.

    Times dz^m this is the polynomial identity sum_j a_j dz^(m-j) N_j = 0
    per entry.  Each a_j dz^(m-j) is brought over the one denominator of
    all the terms, and the identity is checked over Z[i] with products and
    sums only."""
    den = math.lcm(*(a.d * level_den for a, (_, level_den) in zip(polys, tower)))
    factors, power = [None] * (m + 1), ([1], [0])  # power = dz^(m-j)
    for j in range(m, -1, -1):
        a = polys[j]
        if a.re:
            k = den // (a.d * tower[j][1])
            factors[j] = _zi_mul([x * k for x in a.re], [x * k for x in a.im], *power)
        power = _zi_mul(*power, *dz)
    for r in range(len(tower[0][0])):
        tot_re, tot_im = [], []
        for factor, (entries, _) in zip(factors, tower):
            re, im = entries[r]
            if factor and re:
                _add_into(tot_re, tot_im, *_zi_mul(*factor, re, im))
        if any(tot_re) or any(tot_im):
            return False
    return True


def _prime_budget(tower, dz: tuple, m: int) -> int:
    """K of tower_annihilator at order m, for the levels N_0, ..., N_m over
    powers of dz."""
    den = math.lcm(*(level_den for _, level_den in tower))
    den_lcm = math.lcm(dz[0][-1], den)
    delta, log_h, power = [0] * (m + 1), 0, ([1], [0])  # power = dz^(m-j)
    for j in range(m, -1, -1):
        entries, level_den = tower[j]
        cols = [_zi_mul(re, im, *power) for re, im in entries if re]
        delta[j] = max([0] + [len(re) - 1 for re, _ in cols])
        norm = sum(abs(a) + abs(b) for re, im in cols for a, b in zip(re, im))
        log_h += max(1, norm * (den // level_den)).bit_length()
        power = _zi_mul(*power, *dz)
    T = sum(delta[:m]) + sum(delta) - min(delta[:m])
    log_c = T + (T + 1).bit_length() + log_h
    unlucky = (den_lcm.bit_length() + 2 * log_h + 2 * (m + 1) * log_c
               + 4 * T * ((2 * m * (T + 1)).bit_length() + log_c))
    return -(-unlucky // 89) - (-(4 * log_c + 1) // 89) + 1


def _derive(level: tuple, j: int, der: Derivation) -> tuple:
    """N_{j+1} = dz N_j' - j dz' N_j + A N_j, the numerator over dz^(j+1)
    of v_j' + A v_j / dz for v_j = N_j / dz^j: one pass over the level's
    integers, which keeps its denominator, and one gcd (see _level)."""
    entries, den = level
    zr, zi = der.dz
    wr, wi = [-j * k * x for k, x in enumerate(zr)][1:], [-j * k * x for k, x in enumerate(zi)][1:]
    out = []
    for re, im in entries:
        sr, si = [k * x for k, x in enumerate(re)][1:], [k * x for k, x in enumerate(im)][1:]
        if sr and zr != [1]:
            sr, si = _zi_mul(zr, zi, sr, si)
        if j and wr and re:  # -j dz' N_j, zero for a constant dz
            _add_into(sr, si, *_zi_mul(wr, wi, re, im))
        out.append((sr, si))
    for source, target, ar, ai in der.act:
        re, im = entries[source]
        if re:
            _add_into(*out[target], *_zi_mul(ar, ai, re, im))
    for re, im in out:
        n = len(re)
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        del re[n:], im[n:]
    if den != 1:
        g = math.gcd(den, *(x for re, im in out for part in (re, im) for x in part))
        if g != 1:
            out = [([x // g for x in re], [x // g for x in im]) for re, im in out]
            den //= g
    return out, den


def tower_annihilator(w, der: Derivation) -> list[ExactPoly]:
    """The first Q(i)(t)-linear dependency sum_{j<=m} a_j v_j = 0 in the
    derivative tower v_0 = w, v_{j+1} = v_j' + A v_j / dz, of a nonzero
    vector w of ExactPoly, for the derivation `der` (see Derivation), as
    the cleared list [a_0, ..., a_{m-1}, a_m]: polynomials with no common
    factor of positive degree and a_m monic, so that a_j / a_m = b_j for
    the monic dependency v_m + sum_j b_j v_j = 0.  The tower is derived
    over Z[i][t]: v_j = N_j / dz^j is held as the level N_j,
    Gaussian-integer coefficients over one integer denominator (see _level
    and _derive).

    The order m and the a_j are found modulo the primes p of _modulus, under
    both embeddings i -> +-sqrt(-1), or one when dz and the N_j are real,
    by sampling modulo p and interpolating the Cramer polynomials of one
    minor, which each image brings to one common form (see _tower_image);
    they are lifted to Q(i)[t] by CRT and rational reconstruction, all of
    them over one running denominator, and returned only once they pass
    an exact substitution into the tower.  Reconstruction guesses when its
    balanced bound is not met yet (see _reconstruct), so the lift often
    ends at fewer primes than the bound below needs; a wrong guess fails
    the substitution, and the next prime is folded in as before.  A real
    tower has the two embeddings' images equal, and its cleared first
    dependency is unique, hence its own conjugate, with real a_j: one
    image per prime gives it, with imaginary parts 0.  K below counts
    primes, not images, so it is the same either way.

    The tower is derived lazily: v_{m+1} is formed only when a sample point
    proves v_0, ..., v_m independent, so independence of v_0, ..., v_{m-1}
    is proved by their full rank modulo p at a point.

    The certified a_j are returned without a gcd over Q(i)[t].  They
    reduce modulo the last prime p to its image, whose entries have no
    common factor over F_p, with a_m monic.  A monic common factor over
    Q(i) of the a_j divides the monic a_m, so by Gauss's lemma over Z[i]
    localized at p it is p-integral, and it would reduce to a common
    factor of that image modulo p of the same degree.

    Bring the columns to polynomials c_j = N_j dz^(m-j) = dz^m v_j, of
    degrees delta_j, and then into Z[i][t] with one integer.  By Cramer's
    rule b_j = Delta_j / Delta for the m x m minor Delta of any m rows on
    which c_0, ..., c_{m-1} are independent, with Delta_j that minor with
    column j replaced by -c_m, so deg Delta <= sum_{i<m} delta_i and
    deg Delta_j + deg Delta <= T = sum_{i<=m} delta_i - delta_j
    + sum_{i<m} delta_i.  _tower_image samples the N_j, with a power of dz
    divided out, and T from their degrees bounds its interpolants.
    Expanding a determinant shows that every minor has coefficients at
    most H = prod_i max(1, |c_i|_1), with |c_i|_1 the sum of |re| + |im|
    over the coefficients of column i.

    After K primes at one order RuntimeError is raised.  The vector
    (Delta_0, ..., Delta_{m-1}, Delta) over Z[i][t] divided by the gcd of
    its entries is the primitive dependency V = (A_0, ..., A_m), and
    a_j = A_j / lc(A_m).  A_m divides Delta and A_j divides Delta_j, of
    degrees at most T, so by Mignotte's bound every coefficient of V is at
    most C = 2^T sqrt(T + 1) H, and the coefficients of the a_j have real
    and imaginary parts with numerators at most C^2 over the one
    denominator N(lc(A_m)) = |lc(A_m)|^2 <= C^2.  Fix one nonzero minor
    Delta.  Call p unlucky if it divides the leading coefficient of dz or
    the denominator of a level, the norm (at most H^2) of a nonzero
    coefficient of Delta, the norm of lc(A_j) for some nonzero A_j (at
    most C^2 each), or, when deg A_m > 0, the norm of a nonzero
    coefficient of R(y) = Res_t(A_m, sum_{j<m} y^j A_j).  R is not zero,
    since a common factor of A_m and that sum for every y would divide
    every A_j; bounding the determinant of the Sylvester matrix by the
    product of its rows' sums of |re| + |im|, each at most 2 m (T + 1) C,
    over at most 2T rows, that norm is at most (2 m (T + 1) C)^(4T).
    At any p that does not
    divide lc(dz) or a level's denominator, V modulo p is a nonzero
    dependency of the columns modulo p, so unless every minor vanishes and
    every point is skipped, the image is V modulo p divided by the gcd of
    its entries, scaled so that its last entry is monic: its degrees are
    at most those of V, and all equal to them only if it is the true image
    V / lc(A_m) modulo p.  At a lucky p, Delta does not vanish, so no image
    is skipped as unlucky, every lc(A_j) survives, and the gcd is 1, as R
    does not vanish modulo p; every image there is the true one.  So the
    lift keeps the lucky primes, which are all but U / 89 of the primes, U
    being the bit length of the product of those integers; every prime
    exceeds 2^89 (see _modulus).  Each value the lift reconstructs has a
    denominator dividing N(lc(A_m)), and so does the running denominator, so it and
    the numerator of each value times it are at most C^2: the balanced
    attempt of reconstruction succeeds once the lucky primes multiply to
    more than 2 C^4, whatever guesses came before.  K is the two counts,
    rounded up, plus one, so at least 2, and it restarts at each order,
    counted from the order's first prime.  It is computed only when a second prime is
    needed, that is, when the first neither proved v_0, ..., v_m
    independent nor gave a certified dependency; most orders never need
    it.  The count takes each image to be exact, as it is from T + 1
    points on.  An image ended earlier can be wrong, or below the final
    order miss every point of full rank, only when its fresh points are
    roots modulo p of a nonzero polynomial that the tower fixes; a wrong
    image of higher degrees than the true ones would hold the lift back,
    and K turns that into this error too."""
    var, dz = der.var, der.dz
    if all(f.is_zero() for f in w):
        raise ValueError("the zero vector has no annihilator")
    tower, n = [_level(w)], 0
    residues = {}  # (p, root) -> residues of dz and the tower, for the current p
    while True:  # once per order m
        m = len(tower)
        tower.append(_derive(tower[-1], m - 1, der))
        delta = [max(0, *(len(re) - 1 for re, _ in entries)) for entries, _ in tower]
        cramer = sum(delta[:m])
        T = cramer + sum(delta) - min(delta[:m])
        real = not any(dz[1]) and not any(any(im) for entries, _ in tower for _, im in entries)
        best = acc = None
        first, stop = n, None
        for n in itertools.count(n):
            if n > first:
                # the first prime neither proved growth nor certified
                if stop is None:
                    stop = first + _prime_budget(tower, dz, m)
                if n == stop:
                    raise RuntimeError("tower_annihilator exceeded its bound on the primes")
            p, s = _modulus(n)
            residues = {key: cols for key, cols in residues.items() if key[0] == p}
            images = []
            for root in (s,) if real else (s, p - s):
                image = _tower_image(residues, tower, dz, p, root, T, cramer)
                if image is None or image is _GREW:
                    break
                images.append(image)
            if image is _GREW:
                break  # derive v_{m+1} and sample again at p
            if image is None:
                continue
            plus, minus = images[0], images[-1]
            shape = [len(poly) for poly in plus]
            if shape != [len(poly) for poly in minus]:
                continue
            # an unlucky prime gives lower degrees: keep the highest seen
            key = (sum(shape), shape)
            if best is not None and key < best:
                continue
            acc, vals = _lift_gaussian(acc if key == best else None, p, s,
                                       [c for poly in plus for c in poly],
                                       [c for poly in minus for c in poly])
            best = key
            if vals is None:
                continue
            it = iter(vals)
            polys = [ExactPoly([next(it) for _ in range(size)], var=var) for size in shape]
            if _certified(tower, dz, m, polys):
                return polys


# ---------------------------------------------------------------------------
# Roots in Q(i)
# ---------------------------------------------------------------------------

def gaussian_roots(f: ExactPoly) -> list[ExactScalar]:
    """The distinct roots of f in Q(i), sorted by real and then imaginary
    part; exact and complete.  A squarefree part of degree 1, c_0 + c_1 t,
    has the one root -c_0 / c_1; any other is rooted by _modular_roots."""
    if f.degree < 1:
        return []
    f = f.exact_div(f.gcd(f.derivative()))
    if f.degree == 1:
        return [-f.coeff(0) / f.coeff(1)]
    return _modular_roots(f)


def _modular_roots(f: ExactPoly) -> list[ExactScalar]:
    """The roots in Q(i) of the squarefree f of positive degree, sorted as
    gaussian_roots sorts them.

    A root z = u/v in lowest terms has v | lc in Z[i], so N(lc) z lies in
    Z[i], with parts at most B = N(lc) times Cauchy's bound on |z|.  The
    squarefree part is rooted modulo a prime p = 1 (mod 4) from 101 upward
    under each embedding i -> +-s by trying every residue, and its roots
    and s are Hensel-lifted to a power M > 2 B^2 of p.  Each image under s
    paired with each under -s gives the parts of N(lc) z as symmetric
    residues; a pair within B is checked by exact evaluation.  A prime
    dividing N(lc), or with a root that is not simple, is skipped; such
    primes divide N(lc Res(f, f')), whose Hadamard bound caps their count,
    past which RuntimeError is raised."""
    re, im = f.re, f.im
    norms = [a * a + b * b for a, b in zip(re, im)]
    lc, n = norms[-1], f.degree
    bound = lc + math.isqrt(lc * max(norms[:-1])) + 1
    # log2 N(lc Res(f, f')), and each skipped prime exceeds 2^6
    skips = (lc.bit_length() + (n - 1) * sum(norms).bit_length()
             + n * sum(k * k * c for k, c in enumerate(norms)).bit_length()) // 6
    p = 97
    for _ in range(skips + 1):
        p, s = _modulus_from(p + 4, 4)
        if lc % p == 0:
            continue
        images = []
        for root in (s, p - s) if any(im) else (s,):
            fp = [(a + root * b) % p for a, b in zip(re, im)]
            dp = [k * c for k, c in enumerate(fp)][1:]
            xs = [x for x in range(p) if not _eval_mod(fp, x, p)]
            if not all(_eval_mod(dp, x, p) for x in xs):
                break
            images.append(xs)
        else:
            break
    else:
        raise RuntimeError("gaussian_roots exceeded its bound on the primes")
    M = p
    while M <= 2 * bound * bound:
        M *= M
        s = (s - (s * s + 1) * pow(2 * s, -1, M)) % M
        for root, xs in zip((s, M - s), images):
            fp = [(a + root * b) % M for a, b in zip(re, im)]
            dp = [k * c for k, c in enumerate(fp)][1:]
            xs[:] = [(x - _eval_mod(fp, x, M) * pow(_eval_mod(dp, x, M), -1, M)) % M
                     for x in xs]
    half, half_s = pow(2, -1, M), pow(2 * s, -1, M)
    out = []
    for x, y in itertools.product(images[0], images[-1]):
        parts = [v - M if 2 * v > M else v for v in ((x + y) * half * lc % M,
                                                     (x - y) * half_s * lc % M)]
        if max(map(abs, parts)) <= bound:
            z = ExactScalar(Fraction(parts[0], lc), Fraction(parts[1], lc))
            if f(z).is_zero():
                out.append(z)
    return sorted(out, key=lambda z: (z.re, z.im))
