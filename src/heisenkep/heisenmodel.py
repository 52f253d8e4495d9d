"""Heisenberg-group mechanics: group law, sub-Riemannian Hamiltonians for
one and two bodies, first integrals, and the coefficient a of the
non-integrability condition.

A potential W(z, rho) is a ratio of two tables of Q(i) coefficients of
z^i rho^j, which is also its JSON form.  The exact quantities along the
vertical axis (a, W'(c), W''(c)) come from these tables through one
univariate rational function.  The numeric evaluators of H, of its vector
field and of the one-body lift's K and grad K are compiled from source
that this module prints, with no sympy.  For the Kepler potential
W = -K/rho the text is character for character what sympy 1.14's
lambdify prints (``_kepler_sources``), so its floats are sympy's.  For any
other table it is the chain rule on float coefficients
(``_table_sources``).  numpy is imported only by the functions that use
it, so loading this module, as the exact layers do, does not load it.  A
vector field runs with each repeated subexpression evaluated once
(``_hoisted``).
"""

from __future__ import annotations

import ast
import itertools
import linecache
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .exactalg import ExactPoly, ExactRatFunc, ExactScalar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CollisionError",
    "GroupElement",
    "PhaseState1B",
    "PhaseState2B",
    "PotentialSpec",
    "SystemSpec",
    "group_mul",
    "group_inv",
    "rho",
    "state_rho",
    "axis_potential",
    "hamiltonian",
    "first_integrals",
    "poisson_bracket",
    "condition_coefficient_a",
    "particular_solution",
]


class CollisionError(ArithmeticError):
    """Evaluation at a singularity of the potential: the collision set
    rho = 0, or a start where the vector field is not finite."""


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Point of the Heisenberg group in exponential coordinates."""

    x: float
    y: float
    z: float


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product with the twisted z-composition."""
    return GroupElement(
        g.x + h.x,
        g.y + h.y,
        g.z + h.z + (g.x * h.y - h.x * g.y) / 2,
    )


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(-g.x, -g.y, -g.z)


def rho(g: GroupElement) -> float:
    """Homogeneous gauge sqrt((x^2+y^2)^2 + 16 z^2); zero only at the origin."""
    return _gauge(g.x, g.y, g.z)


def _gauge(x, y, z) -> float:
    r2 = x * x + y * y
    return math.sqrt(r2 * r2 + 16.0 * z * z)


# ---------------------------------------------------------------------------
# Phase states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseState1B:
    """One-body canonical state, array order (x, y, z, p_x, p_y, p_z)."""

    x: float
    y: float
    z: float
    px: float
    py: float
    pz: float

    def to_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.x, self.y, self.z, self.px, self.py, self.pz], dtype=float)


@dataclass(frozen=True)
class PhaseState2B:
    """Two-body canonical state, array order
    (x1, y1, z1, x2, y2, z2, p_x1, p_y1, p_z1, p_x2, p_y2, p_z2)."""

    g1: GroupElement
    g2: GroupElement
    px1: float
    py1: float
    pz1: float
    px2: float
    py2: float
    pz2: float

    def to_array(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [
                self.g1.x, self.g1.y, self.g1.z,
                self.g2.x, self.g2.y, self.g2.z,
                self.px1, self.py1, self.pz1,
                self.px2, self.py2, self.pz2,
            ],
            dtype=float,
        )

    @property
    def relative(self) -> GroupElement:
        return group_mul(group_inv(self.g1), self.g2)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def _exact(v) -> ExactScalar:
    """An int, Fraction, wire string, float or complex as an ExactScalar.
    A float part is read as Fraction(str(x)), the rule of the CLI."""
    if isinstance(v, str):
        return ExactScalar.parse(v)
    if isinstance(v, (float, complex)):
        return ExactScalar(Fraction(str(v.real)), Fraction(str(v.imag)))
    return v if isinstance(v, ExactScalar) else ExactScalar(Fraction(v))


def _table(rows) -> dict:
    """Rows [i, j, coeff] as {(i, j): ExactScalar}, sorted by (i, j), with
    equal monomials merged and zero coefficients dropped."""
    out = {}
    for i, j, c in rows:
        key = (int(i), int(j))
        out[key] = out.get(key, ExactScalar(0)) + _exact(c)
    return {k: out[k] for k in sorted(out) if out[k]}


class PotentialSpec:
    """Rational potential W(z, rho) = num/den, each a table
    {(i, j): coeff} of Q(i) coefficients of z^i rho^j, read from rows
    [i, j, coeff]; no den_table means den = 1."""

    def __init__(self, num_table, den_table=None, label: str = "custom"):
        self.num = _table(num_table)
        self.den = _table(den_table or [(0, 0, 1)])
        if not self.den:
            raise ValueError("potential denominator is identically zero")
        self.label = label

    def to_json(self) -> dict:
        return {key: [[i, j, str(c)] for (i, j), c in table.items()]
                for key, table in (("num", self.num), ("den", self.den))}


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

class SystemSpec:
    """One- or two-body system: coupling, masses, and the potential."""

    def __init__(self, kind: str, kappa, m1=1, m2=1, potential: PotentialSpec | None = None):
        if kind not in ("one-body", "two-body"):
            raise ValueError(f"unknown system kind {kind!r}")
        exact = [_exact(v) for v in (kappa, m1, m2)]
        if not all(v.is_real() for v in exact):
            raise ValueError("kappa and the masses must be real")
        kq, m1q, m2q = (v.re for v in exact)
        if kq == 0:
            raise ValueError("kappa must be nonzero")
        if m1q <= 0 or m2q <= 0:
            raise ValueError("masses must be positive")
        self.kind = kind
        self.kappa_exact = kq
        self.m1_exact = m1q
        self.m2_exact = m2q
        self.kappa = float(kq)
        self.m1 = float(m1q)
        self.m2 = float(m2q)
        if potential is None:  # W = -K/rho, K = kappa (one body) or kappa m1 m2
            k = kq if kind == "one-body" else kq * m1q * m2q
            potential = PotentialSpec([(0, 0, -k)], [(0, 1, 1)], label="kepler")
        self.potential = potential

    @property
    def dim(self) -> int:
        return 6 if self.kind == "one-body" else 12

    # -- numeric evaluators --------------------------------------------------

    @cached_property
    def _h_fn(self):
        return _evaluator(self, 0)

    @cached_property
    def _rhs(self):
        return _evaluator(self, 1)

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def from_json(doc: dict) -> "SystemSpec":
        kind, kappa = doc["kind"], doc["kappa"]
        pot = doc.get("potential", "kepler")
        potential = None if pot == "kepler" else PotentialSpec(pot["num"], pot.get("den"))
        return SystemSpec(kind, kappa, doc.get("m1", 1), doc.get("m2", 1), potential)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "kappa": str(self.kappa_exact),
            "m1": str(self.m1_exact),
            "m2": str(self.m2_exact),
            "potential": "kepler"
            if self.potential.label == "kepler"
            else self.potential.to_json(),
        }


# ---------------------------------------------------------------------------
# Evaluator source
# ---------------------------------------------------------------------------

def _coef(c: Fraction) -> str:
    """The rational c as sympy's printer writes it before the other factors
    of a product: 1 and -1 as nothing and "-", n as "n*", p/q > 0 as
    "(p/q)*" and -p/q as "-p/q*"."""
    if abs(c) == 1:
        return "" if c > 0 else "-"
    if c.denominator == 1:
        return f"{c}*"
    return f"({c})*" if c > 0 else f"{c}*"


def _over(c: Fraction, den: str) -> str:
    """c/den as sympy's printer writes it: a non-integer c in
    parentheses, its sign outside."""
    body = str(abs(c)) if c.denominator == 1 else f"({abs(c)})"
    return f"{'-' if c < 0 else ''}{body}/{den}"


def _sum(*terms: str) -> str:
    """The terms joined as sympy's printer joins a sum: a later term's
    leading "-" goes out as " - "."""
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])


def _kinetic(i: str, m: Fraction) -> tuple:
    """The printed kinetic terms of the body of mass m whose coordinates
    are suffixed i: its two terms of H, its rows of dq/dt = dH/dp, and the
    kinetic terms of its rows dp_x/dt and dp_y/dt."""
    h = 1 / (2 * m)
    bx = f"(p_x{i} - 1/2*p_z{i}*y{i})"
    by = f"(p_y{i} + (1/2)*p_z{i}*x{i})"
    dq = [_sum(f"{_coef(2 * h)}p_x{i}", f"{_coef(-h)}p_z{i}*y{i}"),
          _sum(f"{_coef(2 * h)}p_y{i}", f"{_coef(h)}p_z{i}*x{i}"),
          _sum(f"{_coef(h)}x{i}*{by}", f"{_coef(-h)}y{i}*{bx}")]
    return (f"{_coef(h)}{bx}**2", f"{_coef(h)}{by}**2", dq,
            f"{_coef(-h)}p_z{i}*{by}", f"{_coef(h)}p_z{i}*{bx}")


# the gauge rho^2 of the body (one-body) and of g1^-1 g2 (two-body), and
# the force numerators of the two-body rows dp/dt, as sympy prints them
_RHO2_1B = "16*z**2 + (x**2 + y**2)**2"
_Z2B = "(-1/2*x1*y2 + (1/2)*x2*y1 - z1 + z2)"
_R2B = "((-x1 + x2)**2 + (-y1 + y2)**2)"
_RHO2_2B = f"{_R2B}**2 + 16*{_Z2B}**2"
_FORCES_2B = (
    f"(8*y2*{_Z2B} - 1/2*(4*x1 - 4*x2)*{_R2B})",
    f"(-8*x2*{_Z2B} - 1/2*(4*y1 - 4*y2)*{_R2B})",
    "(-8*x1*y2 + 8*x2*y1 - 16*z1 + 16*z2)",
    f"(-8*y1*{_Z2B} - 1/2*(-4*x1 + 4*x2)*{_R2B})",
    f"(8*x1*{_Z2B} - 1/2*(-4*y1 + 4*y2)*{_R2B})",
    "(8*x1*y2 - 8*x2*y1 + 16*z1 - 16*z2)",
)


def _kepler_sources(spec: SystemSpec, lift: bool = False):
    """The source that sympy's lambdify prints for spec's H and vector
    field, or with lift for the one-body lift's K and grad K in
    (x, y, z, p_x, p_y, p_z, u), character for character, when W = c/rho
    for a real c != 0 (read from the potential's tables, whatever its
    label); None otherwise.

    The kinetic coefficients are 1/m and 1/(2m), distributed over each
    velocity row, and each force term is a rational multiple of a fixed
    printed expression.  The lift's K is the kinetic energy plus c/u."""
    pot = spec.potential
    if (pot.num.keys() != {(0, 0)} or not pot.num[0, 0].is_real()
            or pot.den != {(0, 1): ExactScalar(1)}):
        return None
    c = pot.num[0, 0].re  # W = c/rho
    if lift:
        names = "x, y, z, p_x, p_y, p_z, u"
        hx, hy, dq, _, _ = _kinetic("", Fraction(1))
        # the kinetic forces of a body of mass -1 are dK/dx and dK/dy
        *_, kx, ky = _kinetic("", Fraction(-1))
        # sympy prints 1/u and 1/u**2 as float powers, -1/u and -1/u**2 not
        h = _sum(hx, hy, "u**(-1.0)" if c == 1 else _over(c, "u"))
        rows = [kx, ky, "0", *dq, "u**(-2.0)" if c == -1 else _over(-c, "u**2")]
    elif spec.kind == "one-body":
        names = "x, y, z, p_x, p_y, p_z"
        hx, hy, dq, fx, fy = _kinetic("", Fraction(1))
        den = f"({_RHO2_1B})**(3/2)"
        h = _sum(hx, hy, _over(c, f"sqrt({_RHO2_1B})"))
        rows = [*dq,
                _sum(fx, f"{_coef(2 * c)}x*(x**2 + y**2)/{den}"),
                _sum(fy, f"{_coef(2 * c)}y*(x**2 + y**2)/{den}"),
                f"{_coef(16 * c)}z/{den}"]
    else:
        names = "x1, y1, z1, x2, y2, z2, p_x1, p_y1, p_z1, p_x2, p_y2, p_z2"
        hx1, hy1, dq1, fx1, fy1 = _kinetic("1", spec.m1_exact)
        hx2, hy2, dq2, fx2, fy2 = _kinetic("2", spec.m2_exact)
        forces = [f"{_coef(-c)}{n}/({_RHO2_2B})**(3/2)" for n in _FORCES_2B]
        h = _sum(hx1, hx2, hy1, hy2, _over(c, f"sqrt({_RHO2_2B})"))
        rows = [*dq1, *dq2,
                _sum(fx1, forces[0]), _sum(fy1, forces[1]), forces[2],
                _sum(fx2, forces[3]), _sum(fy2, forces[4]), forces[5]]
    head = f"def _lambdifygenerated({names}):\n    return "
    return f"{head}{h}\n", f"{head}[{', '.join(rows)}]\n"


def _poly(table: dict, z: str, r: str) -> str:
    """The sum of c*z**i*r**j over a table of real coefficients c, each
    written as a float, at the texts z and r; "0.0" for an empty table."""
    terms = []
    for (i, j), c in table.items():
        if not c.is_real():
            raise ValueError("a numeric evaluator needs real potential coefficients")
        powers = (v if k == 1 else f"{v}**{k}" for v, k in ((z, i), (r, j)) if k)
        terms.append("*".join([repr(float(c.re)), *powers]))
    return " + ".join(terms) or "0.0"


def _partials(pot: PotentialSpec, z: str, r: str) -> tuple:
    """The texts of W, W_z and W_rho at the texts z and r: the exact
    partial derivatives of the tables N and D, then the quotient rule
    W_v = (N_v - W D_v)/D."""
    n, d = _poly(pot.num, z, r), _poly(pot.den, z, r)
    w = f"(({n})/({d}))"

    def partial(table, v):  # in z (v = 0) or in rho (v = 1)
        return {(i - (v == 0), j - (v == 1)): c * (i, j)[v]
                for (i, j), c in table.items() if (i, j)[v]}

    return (w, *(f"((({_poly(partial(pot.num, v), z, r)}) - {w}*"
                 f"({_poly(partial(pot.den, v), z, r)}))/({d}))" for v in (0, 1)))


def _table_sources(spec: SystemSpec, lift: bool = False) -> tuple:
    """The package's source of spec's H and vector field, or with lift of
    the one-body lift's K and grad K, for any potential table: W, W_z and
    W_rho from _partials, then the chain rule through the gauge's
    closed-form gradient, d rho = (2 x r2, 2 y r2, 16 z)/rho with
    r2 = x^2 + y^2, at the body (one-body) or at g1^-1 g2 (two-body)."""
    if spec.kind == "one-body":
        names = "x, y, z, p_x, p_y, p_z"
        x, y, z, r2, rho2 = "x", "y", "z", "(x**2 + y**2)", _RHO2_1B
    else:
        names = "x1, y1, z1, x2, y2, z2, p_x1, p_y1, p_z1, p_x2, p_y2, p_z2"
        x, y, z, r2, rho2 = "(-x1 + x2)", "(-y1 + y2)", _Z2B, _R2B, _RHO2_2B
    rho = "u" if lift else f"sqrt({rho2})"
    w, wz, wr = _partials(spec.potential, z, rho)
    gx, gy = f"({wr}*2*{x}*{r2}/{rho})", f"({wr}*2*{y}*{r2}/{rho})"
    gz = f"({wz} + {wr}*16*{z}/{rho})"
    if spec.kind == "two-body":
        hx1, hy1, dq1, fx1, fy1 = _kinetic("1", spec.m1_exact)
        hx2, hy2, dq2, fx2, fy2 = _kinetic("2", spec.m2_exact)
        h = f"{hx1} + {hx2} + {hy1} + {hy2} + {w}"
        # the relative element's z is z2 - z1 + (x2 y1 - x1 y2)/2
        rows = [*dq1, *dq2,
                f"{fx1} + {gx} + (1/2)*y2*{gz}", f"{fy1} + {gy} - (1/2)*x2*{gz}", gz,
                f"{fx2} - {gx} - (1/2)*y1*{gz}", f"{fy2} - {gy} + (1/2)*x1*{gz}", f"-{gz}"]
    else:
        hx, hy, dq, fx, fy = _kinetic("", Fraction(1))
        h = f"{hx} + {hy} + {w}"
        rows = [*dq, f"{fx} - {gx}", f"{fy} - {gy}", f"-{gz}"]
        if lift:  # W(z, u) depends on neither x nor y
            names += ", u"
            rows = [*_kinetic("", Fraction(-1))[3:], wz, *dq, wr]
    head = f"def _table({names}):\n    return "
    return f"{head}{h}\n", f"{head}[{', '.join(rows)}]\n"


def _evaluator(spec: SystemSpec, k: int, lift: bool = False):
    """Entry k of spec's (H, vector field), or with lift of the one-body
    lift's (K, grad K), compiled from the printed source: _kepler_sources'
    for a Kepler table, whose sqrt is numpy's as in lambdify's namespace,
    and _table_sources' otherwise, whose sqrt is _sqrt.  A vector field or
    gradient evaluates each repeated subexpression once (_hoisted)."""
    printed = _kepler_sources(spec, lift)
    if printed is not None:
        import numpy as np

        fn = _compile_def(printed[k], "kepler", {"sqrt": np.sqrt})
    else:
        fn = _compile_def(_table_sources(spec, lift)[k], "table", {"sqrt": _sqrt})
    return _hoisted(fn) if k else fn


def _sqrt(x):
    """math.sqrt on a Python float, numpy's on a numpy scalar: the numpy
    fallback of _on_floats then stays on numpy's scalars past a sqrt, and
    returns inf or nan where a Python float ** would raise."""
    if x.__class__ is float:
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


# numbers each compiled source's linecache entry, as lambdify numbers its
# own (hashlib would cost every process ~3.6 MB of resident memory)
_compiled = itertools.count()


def _compile_def(src: str, name: str, namespace: dict):
    """The function that the one def in src defines, with globals
    namespace, compiled under a linecache entry of its own so that
    inspect.getsource and _hoisted read its source."""
    filename = f"<{name}-{next(_compiled)}>"
    local = {}
    exec(compile(src, filename, "exec"), namespace, local)
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    (fn,) = local.values()
    return fn


class _Refused(Exception):
    """An expression node that _hoisted leaves alone."""


def _hoisted(fn):
    """fn, a function compiled from printed source, with each BinOp, UnaryOp
    or Call subtree of its return value that holds an argument and occurs
    more than once evaluated once, into a local, before the return.

    A hoisted subtree is the same operations on the same operands in the
    same order, so the result has fn's bits on floats and on numpy scalars.
    Every node of the expression is evaluated eagerly, so it raises where fn
    raises.  A body of another shape, or a node other than BinOp, UnaryOp,
    Call, Name and Constant below the returned List or Tuple (an IfExp or a
    BoolOp is lazy), gives fn back.  The source is compiled under a
    linecache entry, as lambdify's is, so inspect.getsource reads it."""
    # the linecache entry is the def alone; inspect.getsource would
    # tokenize it again to find the block, a quarter of this pass's cost
    (fdef,) = ast.parse("".join(linecache.getlines(fn.__code__.co_filename))).body
    ret = fdef.body[0]
    if len(fdef.body) != 1 or not isinstance(ret, ast.Return):
        return fn
    params = {a.arg for a in fdef.args.args}
    ids = {}        # structural key -> id; a subtree's ids precede its own
    first = []      # id -> the first node with that key
    kids = []       # id -> the ids of its operands, with repeats
    var = set()     # the ids of subtrees that hold an argument
    of = {}         # node -> id

    def key(node) -> int:
        """The id of node's structure: its type, operator and operand ids,
        built bottom-up so that each node is keyed once."""
        if isinstance(node, ast.Constant):
            parts, k = (), (ast.Constant, type(node.value), repr(node.value))
        elif isinstance(node, ast.Name):
            parts, k = (), (ast.Name, node.id)
        else:
            if isinstance(node, ast.BinOp):
                parts, op = (node.left, node.right), type(node.op)
            elif isinstance(node, ast.UnaryOp):
                parts, op = (node.operand,), type(node.op)
            elif isinstance(node, ast.Call) and not node.keywords:
                parts, op = (node.func, *node.args), None
            else:  # also a bare return's None
                raise _Refused
            parts = [key(p) for p in parts]
            k = (type(node), op, *parts)
        i = ids.get(k)
        if i is None:
            i = ids[k] = len(first)
            first.append(node)
            kids.append(parts)
            if isinstance(node, ast.Name) and node.id in params or var.intersection(parts):
                var.add(i)
        of[node] = i
        return i

    top = ret.value
    try:
        roots = [key(e) for e in (top.elts if isinstance(top, (ast.List, ast.Tuple)) else [top])]
    except _Refused:
        return fn
    # uses[i]: the occurrences of i once every hoisted subtree is one local;
    # a subtree's parents have higher ids, so each is final when reached
    uses = [0] * len(first)
    for r in roots:
        uses[r] += 1
    hoist = [False] * len(first)
    for i in reversed(range(len(first))):
        hoist[i] = uses[i] > 1 and i in var and not isinstance(first[i], ast.Name)
        for c in kids[i]:
            uses[c] += 1 if hoist[i] else uses[i]
    local = {i: f"_s{n}" for n, i in enumerate(i for i, h in enumerate(hoist) if h)}

    class Substitute(ast.NodeTransformer):
        def visit(self, node):
            node = self.generic_visit(node)
            i = of.get(node)
            return ast.Name(local[i], ast.Load()) if i in local else node

    ret.value = Substitute().visit(ret.value)
    fdef.body = [*(ast.Assign([ast.Name(name, ast.Store())], first[i], lineno=0)
                   for i, name in local.items()), ret]
    return _compile_def(ast.unparse(fdef) + "\n", f"hoisted {fn.__code__.co_filename}",
                        fn.__globals__)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _state_array(s) -> np.ndarray:
    if isinstance(s, (PhaseState1B, PhaseState2B)):
        return s.to_array()
    import numpy as np

    return np.asarray(s, dtype=float)


def state_rho(spec: SystemSpec, a) -> float:
    """rho of the body's position (one-body) or of the relative position
    g1^-1 g2 (two-body) in the flat state array a."""
    return _rho(spec.kind, [float(v) for v in a[:6]])


def _rho(kind: str, v: list) -> float:
    """state_rho of the state whose coordinates are the floats v."""
    if kind == "one-body":
        return _gauge(*v[:3])
    x1, y1, z1, x2, y2, z2 = v[:6]
    # g1^-1 g2 in group_mul's order of operations
    return _gauge(-x1 + x2, -y1 + y2, -z1 + z2 + (-x1 * y2 - x2 * -y1) / 2)


def hamiltonian(spec: SystemSpec, s) -> float:
    """Total energy; raises CollisionError on the singular set."""
    return _hamiltonian_rows(spec, _state_array(s)[None])[0]


def _hamiltonian_rows(spec: SystemSpec, rows: np.ndarray) -> list:
    """hamiltonian at each row of a 2-d state array, on one tolist() of the
    rows; a row falls back to numpy's scalars as _on_floats does."""
    hs = []
    for k, v in enumerate(rows.tolist()):
        if _rho(spec.kind, v) == 0.0:
            raise CollisionError("state at the potential singularity rho = 0")
        try:
            hs.append(float(spec._h_fn(*v)))
        except (ZeroDivisionError, OverflowError):
            hs.append(float(spec._h_fn(*rows[k])))
    return hs


def _on_floats(fn, a: np.ndarray):
    """The printed fn at the state array a, evaluated on Python floats.

    They round as numpy's scalars do (IEEE + - * /, C pow for **) at a third
    of the cost.  Where Python raises and numpy returns inf or nan (x/0.0,
    0.0**-1.5, overflow in **), this returns numpy's result."""
    try:
        return fn(*a.tolist())
    except (ZeroDivisionError, OverflowError):
        return fn(*a)


def first_integrals(spec: SystemSpec, s) -> dict:
    """Values of the known conserved/quasi-conserved quantities at s."""
    a = _state_array(s)
    return {"H": hamiltonian(spec, a), **_polynomial_integrals(spec.kind, a.tolist())}


def _polynomial_integrals(kind: str, v) -> dict:
    """The integrals other than H at the flat state v, given as floats or as
    float64 columns (one array per coordinate): the same IEEE + - * / either
    way, so a column holds the bits each float would."""
    if kind == "one-body":
        x, y, z, px, py, pz = v
        return {"p_theta": x * py - y * px, "J": x * px + y * py + 2 * z * pz}
    x1, y1, z1, x2, y2, z2, px1, py1, pz1, px2, py2, pz2 = v
    return {
        "I1": px1 + y1 * pz1 / 2 + px2 + y2 * pz2 / 2,
        "I2": py1 - x1 * pz1 / 2 + py2 - x2 * pz2 / 2,
        "I3": pz1 + pz2,
        "I4": y1 * px1 - x1 * py1 + y2 * px2 - x2 * py2,
        "J": x1 * px1 + y1 * py1 + 2 * z1 * pz1
        + x2 * px2 + y2 * py2 + 2 * z2 * pz2,
    }


def _num_grad(f, a: np.ndarray) -> np.ndarray:
    """Central-difference gradient with the cube-root-of-eps step rule.  An f
    with array values gets one gradient per value, each a contiguous row."""
    import numpy as np

    base = float(np.cbrt(np.finfo(float).eps))
    cols = []
    for i in range(a.size):
        h = base * max(1.0, abs(a[i]))
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        cols.append((f(ap) - f(am)) / (2 * h))
    return np.ascontiguousarray(np.transpose(cols))


def poisson_bracket(f, g, s) -> float:
    """Canonical bracket {f, g} at s with numeric central-difference gradients.

    f and g are callables on the flat state array (positions first, then
    momenta, as in the PhaseState array orders).
    """
    a = _state_array(s)
    return _canonical_bracket(_num_grad(f, a), _num_grad(g, a))


def _canonical_bracket(gf: np.ndarray, gg: np.ndarray) -> float:
    """{f, g} from the gradients of f and g, contiguous 1-d arrays: OpenBLAS
    sums a strided dot product in another order."""
    import numpy as np

    n = gf.size // 2
    return float(np.dot(gf[:n], gg[n:]) - np.dot(gf[n:], gg[:n]))


# ---------------------------------------------------------------------------
# Condition coefficient and particular solutions
# ---------------------------------------------------------------------------

def axis_potential(spec: SystemSpec, c) -> ExactRatFunc:
    """w(z) = W(z, 4 sgn(c) z): the potential on the side of the vertical
    axis through z = c, where rho = 4|z|, as a rational function of z.

    Raises ValueError where W is singular at (c, 4|c|): the test is on the
    restricted denominator before any common factor with the numerator is
    cancelled, so a singularity that the restriction hides still raises.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    s4 = 4 if c > 0 else -4

    def restrict(table):
        return sum((ExactPoly.monomial(coeff * s4**j, i + j, var="z")
                    for (i, j), coeff in table.items()), ExactPoly((), var="z"))

    pot = spec.potential
    den = restrict(pot.den)
    if den(c).is_zero():
        raise ValueError(f"the potential is singular at (z, rho) = ({c}, {4 * abs(c)})")
    return ExactRatFunc(restrict(pot.num), den)


def condition_coefficient_a(spec: SystemSpec, c):
    """Coefficient a = [W_z(c, 4|c|) + 4 sgn(c) W_rho(c, 4|c|)] / 2.

    On the axis rho = 4 sgn(c) z this is w'(c)/2 for w = axis_potential.
    A nonzero value certifies the hypothesis of the non-integrability
    criterion along the vertical-axis solution through z = c.  The value is
    exact: a Fraction, or an ExactScalar when the potential makes it
    non-real; a float c is read as its exact binary value.  Raises
    ValueError where the potential is singular at (c, 4|c|).
    """
    a = axis_potential(spec, c).derivative()(Fraction(c)) / 2
    return a.re if a.is_real() else a


def particular_solution(spec: SystemSpec, params: dict, t: float):
    """The vertical-axis special solution at time t, original coordinates.

    One-body params: {"c": nonzero}.  Two-body params: {"w2": nonzero,
    "w1": optional, "pw1": optional}.
    """
    if spec.kind == "one-body":
        c = params["c"]
        if c == 0:
            raise ValueError("the solution must not be constant: c must be nonzero")
        a = float(condition_coefficient_a(spec, c))
        return PhaseState1B(0.0, 0.0, float(c), 0.0, 0.0, -2.0 * a * t)
    w2 = params["w2"]
    if w2 == 0:
        raise ValueError("the solution must not be constant: w2 must be nonzero")
    w1 = params.get("w1", 0.0)
    pw1 = params.get("pw1", 0.0)
    a = float(condition_coefficient_a(spec, w2))
    pw2 = -2.0 * a * t
    return PhaseState2B(
        GroupElement(0.0, 0.0, (float(w1) + float(w2)) / 2),
        GroupElement(0.0, 0.0, (float(w1) - float(w2)) / 2),
        0.0, 0.0, float(pw1) + pw2,
        0.0, 0.0, float(pw1) - pw2,
    )
