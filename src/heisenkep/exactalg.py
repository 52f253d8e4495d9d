"""Exact arithmetic over the Gaussian rationals Q(i).

Provides scalars, univariate polynomials, rational functions and matrices
with bit-exact arithmetic.  All values are immutable and canonical at
construction time, so equality is structural and instances are hashable.

A scalar is the Gaussian integer a + b*i over one positive integer
denominator d, held as the three ints (a, b, d) with gcd(a, b, d) = 1, and
zero as (0, 0, 1).  Arithmetic is integer arithmetic with one gcd per
result, in place of a gcd for each of two ``Fraction`` parts.  Readers of
the integer parts (the multi-modular kernel, reduction modulo a prime)
scale by d directly.

The coefficient field is Q(i) only; no further algebraic extensions are
introduced.  Quantities that genuinely live outside Q(i) (square roots of
parameters, numeric root locations) are handled by the numeric layers.

Serialization: scalars render as ``a/b+c/d*i`` with zero parts omitted and
unit denominators dropped; polynomials as JSON arrays of such strings in
degree-ascending order.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

import numpy as np

__all__ = [
    "ExactScalar",
    "ExactPoly",
    "ExactRatFunc",
    "ExactMatrix",
    "scalar_nullspace",
    "poly_roots_numeric",
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
    views of a/d and b/d.  ``hash`` is ``hash((re, im))``, the hash of the
    former pair-of-``Fraction`` form, so set and dict orders do not move.

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
        return hash((self.re, self.im))

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
            val = Fraction(m.group(1))
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
    """Univariate polynomial over Q(i), coefficients stored degree-ascending.

    The zero polynomial has an empty coefficient tuple and degree -1
    (the distinguished sentinel).  Trailing zero coefficients are stripped
    at construction so the leading coefficient is always nonzero.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "t"):
        cs = [ExactScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, var: str = "t") -> "ExactPoly":
        return ExactPoly([ExactScalar.coerce(c)], var=var)

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
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self) -> ExactScalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> ExactScalar:
        return self.coeffs[k] if 0 <= k <= self.degree else _ZERO

    # -- arithmetic ---------------------------------------------------------

    def _cvar(self, other: "ExactPoly") -> str:
        if self.is_zero():
            return other.var
        if other.is_zero() or self.var == other.var:
            return self.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        other = ExactPoly.coerce(other, self.var)
        var = self._cvar(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly(
            [self.coeff(k) + other.coeff(k) for k in range(n)], var=var
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ExactPoly.coerce(other, self.var))

    def __rsub__(self, other):
        return ExactPoly.coerce(other, self.var) - self

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs], var=self.var)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            other = ExactPoly.constant(other, var=self.var)
        other = ExactPoly.coerce(other, self.var)
        var = self._cvar(other)
        if self.is_zero() or other.is_zero():
            return ExactPoly((), var=var)
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPoly(out, var=var)

    __rmul__ = __mul__

    def scale(self, s) -> "ExactPoly":
        s = ExactScalar.coerce(s)
        return ExactPoly([c * s for c in self.coeffs], var=self.var)

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
        other = ExactPoly.coerce(other, self.var)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = self._cvar(other)
        rem = list(self.coeffs)
        q = [_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = other.leading().inverse()
        d = other.degree
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k].is_zero():
                continue
            f = rem[k] * inv_lead
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] = rem[k - d + j] - f * b
        return ExactPoly(q, var=var), ExactPoly(rem[:d], var=var)

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
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

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
        return ExactPoly(
            [c * ExactScalar(k) for k, c in enumerate(self.coeffs)][1:],
            var=self.var,
        )

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
            x = ExactScalar.coerce(x)
            out = _ZERO
            for c in reversed(self.coeffs):
                out = out * x + c
            return out
        out = 0j
        for c in reversed(self.coeffs):
            out = out * x + c.to_complex()
        return out

    # -- comparisons / serialization ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (ExactPoly, ExactScalar, int, Fraction)):
            return NotImplemented
        other = ExactPoly.coerce(other, self.var)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data, var: str = "t") -> "ExactPoly":
        return ExactPoly([ExactScalar.parse(s) for s in data], var=var)

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
    gcd(num, den) = 1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str = "t", _canonical: bool = False):
        num = ExactPoly.coerce(num, var)
        den = ExactPoly.coerce(den, num.var if not num.is_zero() else var)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in ExactRatFunc")
        if not _canonical:
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

    def __add__(self, other):
        other = ExactRatFunc.coerce(other, self.var)
        return ExactRatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ExactRatFunc.coerce(other, self.var))

    def __rsub__(self, other):
        return ExactRatFunc.coerce(other, self.var) - self

    def __neg__(self):
        return ExactRatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            return ExactRatFunc(self.num.scale(other), self.den)
        other = ExactRatFunc.coerce(other, self.var)
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

    @staticmethod
    def from_json(data, var: str = "t") -> "ExactRatFunc":
        return ExactRatFunc(
            ExactPoly.from_json(data["num"], var),
            ExactPoly.from_json(data["den"], var),
        )


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

    @staticmethod
    def identity(n: int, var: str = "t") -> "ExactMatrix":
        return ExactMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], var=var
        )

    @staticmethod
    def zero(rows: int, cols: int, var: str = "t") -> "ExactMatrix":
        return ExactMatrix([[0] * cols for _ in range(rows)], var=var)

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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self[i, j] for i in range(self.rows)] for j in range(self.cols)]
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
        pivots = []
        d = ExactRatFunc.coerce(1, self.var)
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if not m[i][c].is_zero()), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                d = -d
            d = d * m[r][c]
            inv = m[r][c].inverse()
            m[r] = [e * inv for e in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots, d

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> list[list[ExactRatFunc]]:
        """Basis of the right kernel over the rational-function field.

        Basis vectors are in reduced echelon normalization: each has a 1 in
        its free coordinate and the pivot coordinates filled in.
        """
        m, pivots, _ = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        one = ExactRatFunc.coerce(1, self.var)
        zero = ExactRatFunc.coerce(0, self.var)
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis

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

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "var": self.var,
            "entries": [
                [self[i, j].to_json() for j in range(self.cols)]
                for i in range(self.rows)
            ],
        }

    @staticmethod
    def from_json(data) -> "ExactMatrix":
        var = data.get("var", "t")
        return ExactMatrix(
            [
                [ExactRatFunc.from_json(e, var) for e in row]
                for row in data["entries"]
            ],
            var=var,
        )

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
# Multi-modular elimination over Q(i)
# ---------------------------------------------------------------------------

_MODULI: list[tuple[int, int]] = []  # (p, sqrt(-1) mod p), extended on use


def _modulus(k: int) -> tuple[int, int]:
    """The k-th prime p = 1 (mod 4) below 2^62, counting down, with a square
    root of -1 modulo p."""
    from sympy import prevprime, sqrt_mod

    while len(_MODULI) <= k:
        p = prevprime(_MODULI[-1][0] if _MODULI else 1 << 62)
        while p % 4 != 1:
            p = prevprime(p)
        _MODULI.append((int(p), int(sqrt_mod(-1, p))))
    return _MODULI[k]


def _gaussian_integer_row(row) -> tuple[list[int], list[int]]:
    """Real and imaginary integer parts of a row scaled into Z[i]."""
    den = math.lcm(*(e.d for e in row))
    scale = [den // e.d for e in row]
    return (
        [e.a * k for e, k in zip(row, scale)],
        [e.b * k for e, k in zip(row, scale)],
    )


def _rref_mod(m: list[list[int]], p: int) -> list[int]:
    """Gauss-Jordan modulo p in place; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        inv = pow(row[c], -1, p)
        # earlier columns of the pivot row are already zero
        row[c:] = tail = [x * inv % p for x in row[c:]]
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                other[c:] = [(a - f * b) % p for a, b in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


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


def _reconstruct(residues: list[int], M: int):
    """Rationals with the given residues modulo M, sharing one running
    denominator so that entries with a common denominator come cheaply;
    None if reconstruction fails."""
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


def _lift_gaussian(acc, p: int, s: int, plus: list[int], minus: list[int]):
    """Fold one prime into the multi-modular lift of a list of Gaussian
    rationals.

    `plus` and `minus` are their images modulo p under i -> s and i -> -s;
    the half sum and the half difference over s are the real and imaginary
    parts modulo p.  `acc` holds (M, real residues, imaginary residues)
    modulo the product M of the primes folded in so far, or is None to
    start afresh.  Returns the new accumulator and the values as
    ExactScalar by CRT and rational reconstruction, or None in their place
    while reconstruction fails."""
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


def _annihilates(A, support, v) -> bool:
    """A v = 0 exactly, for v with Gaussian-rational entries on `support`."""
    wr, wi = _gaussian_integer_row(v)
    for re, im in A:
        a = [re[j] for j in support]
        b = [im[j] for j in support]
        if sum(x * y for x, y in zip(a, wr)) != sum(x * y for x, y in zip(b, wi)):
            return False
        if sum(x * y for x, y in zip(a, wi)) + sum(x * y for x, y in zip(b, wr)):
            return False
    return True


def scalar_nullspace(rows) -> tuple[list[list[ExactScalar]], int]:
    """Right-kernel basis and rank of a matrix of ExactScalar entries.

    The basis is the reduced-echelon one that Gauss-Jordan elimination
    gives: one vector per free column, with a 1 there and a 0 at every
    other free column.  It is computed modulo primes p = 1 (mod 4) under
    both embeddings i -> +-sqrt(-1) (mod p), which give the real and the
    imaginary parts, lifted by CRT and rational reconstruction, and
    certified by exact substitution.

    The result is exact, not probabilistic.  The rank modulo p is at most
    the rank over Q(i), so n - rank_p independent vectors that all pass the
    exact check span the whole kernel.  A kernel vector whose last nonzero
    entry is at column c shows that c is not a pivot, so the free columns,
    and with them the basis, are those of exact Gauss-Jordan.  A prime whose
    pivot columns differ from the true ones has fewer, or has them further
    right, and its candidates fail the check; such primes are skipped or
    replaced as better pivot lists appear, and only finitely many primes
    are unlucky, so the loop ends."""
    if not rows or not rows[0]:
        return [], 0
    ncols = len(rows[0])
    A = [_gaussian_integer_row(r) for r in rows]
    best = acc = None
    k = 0
    while True:
        p, s = _modulus(k)
        k += 1
        plus, minus = (
            [[(a + b * root) % p for a, b in zip(re, im)] for re, im in A]
            for root in (s, p - s)
        )
        pivots = _rref_mod(plus, p)
        if _rref_mod(minus, p) != pivots:
            continue  # unlucky for one embedding
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue  # unlucky: fewer pivots, or pivots further right
        free = [c for c in range(ncols) if c not in pivots]
        # entries -rref[r][fc] of the basis vectors
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
            v = [vals[r * nfree + j] for r in range(len(pivots))] + [_ONE]
            if not _annihilates(A, pivots + [fc], v):
                break
            vec = [_ZERO] * ncols
            for c, x in zip(pivots + [fc], v):
                vec[c] = x
            basis.append(vec)
        else:
            return basis, len(pivots)


def poly_roots_numeric(p: ExactPoly, tol: float = 1e-9) -> list[complex]:
    """All deg(p) complex roots (with multiplicity) via companion eigenvalues.

    Each root is accepted only if the scaled residual |p(r)| / max(coeff
    magnitudes * max(1,|r|)^deg) stays below tol.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree == 0:
        return []
    cs = np.array([c.to_complex() for c in p.coeffs])
    roots = np.roots(cs[::-1])
    scale = np.max(np.abs(cs))
    for r in roots:
        res = abs(p(complex(r))) / (scale * max(1.0, abs(r)) ** p.degree)
        if res > tol:
            raise ArithmeticError(
                f"root {r} fails residual acceptance ({res:.3e} > {tol:.3e})"
            )
    return sorted(roots.tolist(), key=lambda z: (round(z.real, 10), round(z.imag, 10)))
