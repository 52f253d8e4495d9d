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
    "clear_denominators",
    "scalar_nullspace",
    "tower_annihilator",
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

    def __reduce__(self):
        return ExactPoly, (self.coeffs, self.var)

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

    def __reduce__(self):
        return ExactRatFunc, (self.num, self.den, self.var, True)

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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, which is deterministic (exact)
    for every n below 3.3 * 10^24."""
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


def _modulus(k: int) -> tuple[int, int]:
    """The k-th prime p = 1 (mod 4) below 2^62, counting down, with the
    smaller square root s of -1 modulo p.

    s = min(r, p - r) for r = g^((p-1)/4) with the first g = 2, 3, ... that
    is a non-residue, i.e. whose r squares to -1."""
    while len(_MODULI) <= k:
        p = (_MODULI[-1][0] if _MODULI else (1 << 62) + 1) - 4
        while not _is_prime(p):
            p -= 4
        g = 2
        while (r := pow(g, (p - 1) // 4, p)) * r % p != p - 1:
            g += 1
        _MODULI.append((p, min(r, p - r)))
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
    callers certify the result exactly."""
    bound = math.isqrt(M // 2)
    out = _over_running_den(residues, M, lambda v: _ratrec(v, M, bound), bound)
    if out is None:
        out = _over_running_den(residues, M, lambda v: _guess(v, M), M)
    return out


def _lift_gaussian(acc, p: int, s: int, plus: list[int], minus: list[int]):
    """Fold one prime into the multi-modular lift of a list of Gaussian
    rationals.

    `plus` and `minus` are their images modulo p under i -> s and i -> -s;
    the half sum and the half difference over s are the real and imaginary
    parts modulo p.  For real values `plus` may be `minus`, and then the
    imaginary parts are 0.  `acc` holds (M, real residues, imaginary
    residues) modulo the product M of the primes folded in so far, or is
    None to start afresh.  Returns the new accumulator and the values as
    ExactScalar by CRT and rational reconstruction, or None in their place
    while reconstruction fails.  Before M passes the balanced bound of the
    true values they may be a guess (see _reconstruct), which the caller's
    exact check rejects when it is wrong."""
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
    imaginary parts, or under one when every entry is real, lifted by CRT
    and rational reconstruction, and certified by exact substitution.  A
    real matrix has the two embeddings' images equal, and its reduced
    echelon form is unique, hence its own conjugate and real: one image
    per prime gives it, with imaginary parts 0.

    The result is exact, not probabilistic.  The rank modulo p is at most
    the rank over Q(i), so n - rank_p independent vectors that all pass the
    exact check span the whole kernel.  A kernel vector whose last nonzero
    entry is at column c shows that c is not a pivot, so the free columns,
    and with them the basis, are those of exact Gauss-Jordan.  A prime whose
    pivot columns differ from the true ones has fewer, or has them further
    right, and its candidates fail the check; such primes are skipped or
    replaced as better pivot lists appear.

    After K primes RuntimeError is raised.  Every minor of the Z[i] rows is
    at most H, their Hadamard bound, and every prime exceeds 2^61.  An
    unlucky prime divides the norm, at most H^2, of a fixed nonzero pivot
    minor Delta, so at most 2 log2(H) / 61 primes are unlucky.  By Cramer
    the kernel entries are u / Delta with |u| <= H, so their real and
    imaginary parts have numerators and a shared denominator |Delta|^2 at
    most H^2, and the balanced attempt of _reconstruct recovers them from
    (4 log2(H) + 2) / 61 lucky primes.  K is the sum of the two counts
    rounded up, plus one; the bit lengths of the rows' squared norms sum to
    at least 2 log2(H).  Its guesses often recover the basis from fewer
    primes; a wrong guess fails the exact check like any other candidate,
    so K holds as it is."""
    if not rows or not rows[0]:
        return [], 0
    ncols = len(rows[0])
    A = [_gaussian_integer_row(r) for r in rows]
    log_h2 = sum(sum(a * a + b * b for a, b in zip(re, im)).bit_length()
                 for re, im in A)
    real = not any(any(im) for _, im in A)
    best = acc = None
    for k in range(-(-log_h2 // 61) - (-(2 * log_h2 + 2) // 61) + 1):
        p, s = _modulus(k)
        images = []
        for root in (s,) if real else (s, p - s):
            m = [[(a + b * root) % p for a, b in zip(re, im)] for re, im in A]
            images.append((m, _rref_mod(m, p)))
        (plus, pivots), (minus, other) = images[0], images[-1]
        if other != pivots:
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
    raise RuntimeError("scalar_nullspace exceeded its bound on the primes")


# ---------------------------------------------------------------------------
# Certified annihilators of derivative towers over Q(i)(t)
# ---------------------------------------------------------------------------

def _poly_mod(f: ExactPoly, p: int, root: int) -> list[int]:
    """Coefficients of f modulo p under i -> root; ValueError if p divides
    a coefficient denominator."""
    return [(c.a + root * c.b) * pow(c.d, -1, p) % p for c in f.coeffs]


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
    modular inverse for all of them.  Returns M (t - x)."""
    inv = pow(_eval_mod(M, x, p), -1, p)
    for f, v in zip(fs, vs):
        c = (v - _eval_mod(f, x, p)) * inv % p
        if c:
            f.extend([0] * (len(M) - len(f)))
            f[:] = [(a + c * b) % p for a, b in zip(f, M)]
    return _times_linear(M, x, p)


def _cauchy_mod(f: list[int], M: list[int], p: int):
    """Rational function (num, den) over F_p, den monic, with
    num = f den (mod M): the one through the points (x_i, f(x_i)) for the
    roots x_i of M = prod (t - x_i).

    The extended Euclidean algorithm runs on M and f, and the pair taken
    is the one that the quotient of largest degree follows (maximal-quotient
    rational reconstruction).  The true (num, den), with
    deg num + deg den = T, has a quotient of degree deg M - T, larger than
    all others together once deg M > 2 T."""
    f = _trim(list(f))
    if not f:
        return (), (1,)
    r0, r1, t0, t1 = M, f, [], [1]
    best_q = -1
    while r1:
        q, rem = _divmod_mod(r0, r1, p)
        if len(q) > best_q:
            best_q, num, den = len(q), r1, t1
        t2 = t0 + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, a in enumerate(q):
            if a:
                t2[i : i + len(t1)] = [(c - a * b) % p for c, b in zip(t2[i : i + len(t1)], t1)]
        r0, r1, t0, t1 = r1, rem, t1, _trim(t2)
    inv = pow(den[-1], -1, p)
    return tuple(c * inv % p for c in num), tuple(c * inv % p for c in den)


def _mul_mod(a, b, p: int) -> list[int]:
    """a b over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = [x + c * y for x, y in zip(out[i : i + len(b)], b)]
    return [c % p for c in out]


def _over_den(f: list[int], den, M: list[int], p: int):
    """Rational function (num, den') over F_p, den' monic, with
    num = f den' (mod M) and den' dividing den: g = den f mod M over den,
    reduced by their gcd.  If g is so long that deg g + deg den >= deg M,
    den is no denominator of the interpolant that the points fix, and
    _cauchy_mod's pair is returned instead."""
    g = _divmod_mod(_mul_mod(den, f, p), M, p)[1]
    if len(g) + len(den) > len(M):
        return _cauchy_mod(f, M, p)
    h, r = den, g
    while r:
        h, r = r, _divmod_mod(h, r, p)[1]
    num, den = _divmod_mod(g, h, p)[0], _divmod_mod(den, h, p)[0]
    inv = pow(den[-1], -1, p)
    return tuple(c * inv % p for c in num), tuple(c * inv % p for c in den)


def _fits(rec, x: int, v: int, p: int) -> bool:
    """num(x) = v den(x) modulo p, for rec = (num, den)."""
    num, den = rec
    return (_eval_mod(num, x, p) - v * _eval_mod(den, x, p)) % p == 0


def _dependency_mod(cols: list[list[int]], p: int):
    """Rank modulo p of columns c_0..c_m, and the b with
    sum_{j<m} b_j c_j = -c_m when c_0..c_{m-1} are independent and c_m lies
    in their span (None otherwise)."""
    m = len(cols) - 1
    rows = [list(r) for r in zip(*cols)]
    pivots = _rref_mod(rows, p)
    if pivots != list(range(m)):
        return len(pivots), None
    return m, [-rows[j][m] % p for j in range(m)]


def _tower_at(cols, x: int, p: int):
    """Tower columns (numerator and denominator residues) at x modulo p;
    None at a pole."""
    dens = [[_eval_mod(den, x, p) for _, den in vec] for vec in cols]
    if not all(map(all, dens)):
        return None
    return [[_eval_mod(num, x, p) * pow(d, -1, p) % p for (num, _), d in zip(vec, ds)]
            for vec, ds in zip(cols, dens)]


def _residues(cache: dict, tower, p: int, root: int):
    """Numerator and denominator residues of the tower's vectors modulo p
    under i -> root, kept in `cache` so that each vector is reduced once
    per (p, root) however often the tower grows; None when p divides a
    coefficient denominator."""
    cols = cache.setdefault((p, root), [])
    try:
        for vec in tower[len(cols):]:
            cols.append([(_poly_mod(e.num, p, root), _poly_mod(e.den, p, root))
                         for e in vec])
    except ValueError:
        return None
    return cols


_GREW = object()  # returned by _tower_image when the order exceeds the tower


def _tower_image(cache: dict, tower, p: int, root: int, T: int, skips: int, start: int):
    """The dependency sum_{j<m} b_j w^(j) + w^(m) = 0 of the tower
    w, ..., w^(m) modulo p, under i -> root, by Cauchy interpolation of
    each b_j; the tower's residues come from `cache` (see _residues).

    Points x = 2, 3, ... where a denominator vanishes, or where the
    first m columns are dependent, are skipped.  A point where all m + 1
    columns are independent proves that over Q(i)(t) too, and _GREW is
    returned so that the caller derives w^(m+1).  At the other points the
    values of the b_j and of the probe sum_j 3^j b_j extend one interpolant
    each.  From `start` points on, the probe is reconstructed until its
    reconstruction fits a fresh point; then each b_j is reconstructed once
    over the probe's denominator D (see _over_den), and the image is
    returned at the first later point that every b_j fits.  By Cramer's rule
    b_j = Delta_j / Delta and the probe is sum_j 3^j Delta_j / Delta, so D is
    a multiple of every reduced denominator den_j unless the probe cancels
    a factor of Delta that some b_j keeps; such a b_j falls back to Cauchy
    interpolation, or misfits.  A b_j that does not fit is reconstructed
    again at that point by Cauchy interpolation.  `start`
    is where the previous image of this order settled: it only delays the
    first reconstruction and bounds nothing.

    Returns ([(num_j, den_j)], the number of points at which the probe
    settled, or 2 T + 1), or None when p is unlucky: it divides a coefficient
    denominator, or more than `skips` points, the denominators' roots and
    those of the Cramer denominator, are skipped.  Every
    deg num_j + deg den_j, and that of the probe, is at most T (see
    tower_annihilator).  Past 2 T points every reconstruction is the true
    one, so at 2 T + 1 points the b_j are reconstructed by Cauchy
    interpolation and returned without a further check, whatever `start`
    is: no image takes more than 2 T + 1 points."""
    cols = _residues(cache, tower, p, root)
    if cols is None:
        return None
    m = len(cols) - 1
    skipped, M = 0, [1]
    fs = [[] for _ in range(m + 1)]  # b_0, ..., b_{m-1} and the probe
    probe = recs = None
    x = 1
    while True:
        x += 1
        vals = _tower_at(cols, x, p)
        rank, b = (0, None) if vals is None else _dependency_mod(vals, p)
        if rank == m + 1:
            return _GREW
        if b is None:
            skipped += 1
            if skipped > skips:
                return None
            continue
        b.append(sum(pow(3, j, p) * v for j, v in enumerate(b)) % p)
        M = _add_point(fs, M, x, b, p)
        n = len(M) - 1
        if n > 2 * T:
            return [_cauchy_mod(f, M, p) for f in fs[:m]], n
        if recs is None:
            if n < start:
                continue
            if probe is None or not _fits(probe, x, b[m], p):
                probe, settled = _cauchy_mod(fs[m], M, p), n
                continue
            recs = [_over_den(f, probe[1], M, p) for f in fs[:m]]
            continue
        misfits = [j for j in range(m) if not _fits(recs[j], x, b[j], p)]
        if not misfits:
            return recs, settled
        for j in misfits:
            recs[j] = _cauchy_mod(fs[j], M, p)


def _z_i(polys) -> list[tuple[list[int], list[int]]]:
    """Real and imaginary integer coefficients of the polynomials, all
    scaled by one positive integer."""
    re, im = _gaussian_integer_row([c for f in polys for c in f.coeffs])
    out, k = [], 0
    for f in polys:
        n = len(f.coeffs)
        out.append((re[k : k + n], im[k : k + n]))
        k += n
    return out


def _certified(tower, m: int, coeffs) -> bool:
    """sum_{j<m} b_j w^(j) + w^(m) = 0 exactly, for b_j = num_j / den_j.

    With the b_j and 1 brought to the lcm of the den_j, and each row of the
    tower brought to the lcm of its denominators, this is a polynomial
    identity per row; it is checked over Z[i] with products and sums
    only."""
    var = tower[0][0].var
    lhs = _z_i(clear_denominators(
        [ExactRatFunc(num, den, _canonical=True) for num, den in coeffs]
        + [ExactRatFunc.coerce(1, var)], var)[1])
    for r in range(len(tower[0])):
        rhs = _z_i(clear_denominators([vec[r] for vec in tower[: m + 1]], var)[1])
        n = max(len(a) for a, _ in lhs) + max(len(a) for a, _ in rhs)
        tot_re, tot_im = [0] * n, [0] * n
        for (ar, ai), (br, bi) in zip(lhs, rhs):
            for i, (a, c) in enumerate(zip(ar, ai)):
                if a or c:
                    for k, (b, d) in enumerate(zip(br, bi), i):
                        tot_re[k] += a * b - c * d
                        tot_im[k] += a * d + c * b
        if any(tot_re) or any(tot_im):
            return False
    return True


def _prime_budget(flat, polys, k: int, m: int, T: int) -> int:
    """K of tower_annihilator at order m, for the tower entries `flat`, k to
    a vector, cleared to the polynomials `polys`."""
    cols = _z_i(polys)
    log_h = sum(
        max(1, sum(abs(a) + abs(b) for re, im in cols[i : i + k] for a, b in zip(re, im)))
        .bit_length()
        for i in range(0, len(cols), k)
    )
    log_c = T + (T + 1).bit_length() + log_h
    den_lcm = math.lcm(*(c.d for e in flat for f in (e.num, e.den) for c in f.coeffs))
    unlucky = (den_lcm.bit_length() + 2 * log_h
               + m * (4 * log_c + T * ((T + 1).bit_length() + 2 * log_c)))
    return -(-unlucky // 61) - (-((4 * m + 4) * log_c + 1) // 61) + 1


def tower_annihilator(w, derive) -> list[ExactRatFunc]:
    """Coefficients [b_0, ..., b_{m-1}, 1] of the first Q(i)(t)-linear
    dependency w^(m) + sum_j b_j w^(j) = 0 in the derivative tower of the
    nonzero vector w of ExactRatFunc, where `derive` maps a vector of the
    tower to the next.

    The order m and the b_j are found modulo primes p = 1 (mod 4), under
    both embeddings i -> +-sqrt(-1), or one when every entry of the tower
    up to w^(m) is real, by sampling at integer points and Cauchy
    interpolation; they are lifted to Q(i)(t) by CRT and rational
    reconstruction, and returned only once they pass an exact substitution
    into the tower.  Reconstruction guesses when its balanced bound is not
    met yet (see _reconstruct), so the lift often ends at fewer primes than
    the bound below needs; a wrong guess fails the substitution, and the
    next prime is folded in as before.  A real tower has the two
    embeddings' images equal, and its first monic dependency is unique,
    hence its own conjugate, with real b_j: one image per prime gives it,
    with imaginary parts 0.  K below counts primes, not images, so it is
    the same either way.

    The tower is derived lazily: w^(m+1) is formed only when a sample point
    proves w, ..., w^(m) independent, so independence of w, ..., w^(m-1) is
    proved by their full rank modulo p at a point.  Each image starts
    reconstructing where the previous image of the same order settled.

    Bring the columns w, ..., w^(m) to polynomials c_0, ..., c_m with one
    polynomial, of degrees delta_i, and then into Z[i][t] with one integer.
    By Cramer's rule b_j = Delta_j / Delta for m x m minors, with
    deg Delta <= sum_{i<m} delta_i and
    deg Delta_j + deg Delta <= T = sum_{i<=m} delta_i - delta_j
    + sum_{i<m} delta_i.  Expanding a determinant shows that every minor has
    coefficients at most H = prod_i max(1, |c_i|_1), with |c_i|_1 the sum
    of |re| + |im| over the coefficients of column i.

    After K primes at one order RuntimeError is raised.  Write
    b_j = n_j / d_j with n_j, d_j coprime in Z[i][t].  They divide
    Delta_j and Delta, so by Mignotte's bound their coefficients are at
    most C = 2^T sqrt(T + 1) H, and the coefficients of n_j / lc(d_j) and
    d_j / lc(d_j) have real and imaginary parts with numerators, and a
    denominator |lc(d_j)|^2, at most C^2.  Call p unlucky if it divides a
    coefficient denominator of the tower, the norm (at most H^2) of a
    nonzero coefficient of Delta, or for some j the norm of lc(n_j), of
    lc(d_j) (at most C^2 each) or of Res(n_j, d_j) (at most
    ((T + 1) C^2)^T by Hadamard).  At any other p, Delta does not vanish
    modulo p, so no image is skipped as unlucky, and every image is that of
    the b_j, with their degrees.  Any image is Delta'_j / Delta' modulo p
    for a minor Delta' not vanishing modulo p, so it has the true degrees
    only if it is the true image, and lower ones otherwise.  So the lift
    keeps the lucky primes, which are all but U / 61 of the primes, U being
    the bit length of the product of those integers; every prime exceeds
    2^61.  The running denominator of the lift is at most C^(2m), so the
    balanced attempt of reconstruction succeeds once the lucky primes
    multiply to more than 2 C^(4m + 4), whatever guesses came before.  K is
    the two counts, rounded up, plus one, and it restarts at each order.
    The count takes each image to be exact, as it is from 2 T + 1 points
    on.  An image ended earlier can be wrong, or below the final order miss
    every point of full rank, only when its fresh points are roots modulo p
    of a nonzero polynomial that the tower fixes; a wrong image of higher
    degrees than the true ones would hold the lift back, and K turns that
    into this error too."""
    var = w[0].var
    if all(e.is_zero() for e in w):
        raise ValueError("the zero vector has no annihilator")
    tower, n, k = [w], 0, len(w)
    residues = {}  # (p, root) -> residues of the tower, for the current p
    while True:  # once per order m
        tower.append(derive(tower[-1]))
        m = len(tower) - 1
        # degree of each vector, and number of poles, once one polynomial
        # clears every denominator of the tower
        flat = [e for vec in tower for e in vec]
        polys = clear_denominators(flat, var)[1]
        delta = [max(0, *(f.degree for f in polys[i : i + k]))
                 for i in range(0, len(polys), k)]
        poles = sum(den.degree for den in {e.den for e in flat})
        cramer = sum(delta[:m])
        T = cramer + sum(delta) - min(delta[:m])
        real = all(c.is_real() for e in flat for f in (e.num, e.den) for c in f.coeffs)
        best = acc = None
        hint = 1
        for n in range(n, n + _prime_budget(flat, polys, k, m, T)):
            p, s = _modulus(n)
            residues = {key: cols for key, cols in residues.items() if key[0] == p}
            images = []
            for root in (s,) if real else (s, p - s):
                image = _tower_image(residues, tower, p, root, T, poles + cramer, hint)
                if image is None or image is _GREW:
                    break
                coeffs, hint = image
                images.append(coeffs)
            if image is _GREW:
                break  # derive w^(m+1) and sample again at p
            if image is None:
                continue
            plus, minus = images[0], images[-1]
            shape = [(len(num), len(den)) for num, den in plus]
            if shape != [(len(num), len(den)) for num, den in minus]:
                continue
            # an unlucky prime gives lower degrees: keep the highest seen
            key = (sum(a + b for a, b in shape), shape)
            if best is not None and key < best:
                continue
            acc, vals = _lift_gaussian(
                acc if key == best else None, p, s,
                [c for num, den in plus for c in num + den],
                [c for num, den in minus for c in num + den],
            )
            best = key
            if vals is None:
                continue
            it = iter(vals)
            coeffs = [tuple(ExactPoly([next(it) for _ in range(d)], var=var) for d in ab)
                      for ab in shape]
            if _certified(tower, m, coeffs):
                return ([ExactRatFunc(num, den) for num, den in coeffs]
                        + [ExactRatFunc.coerce(1, var)])
        else:
            raise RuntimeError("tower_annihilator exceeded its bound on the primes")


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
