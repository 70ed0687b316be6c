"""Immutable expression trees for the jet-space calculus.

Leaves are exact rational constants, named parameters, the independent
variables x and t, and jet variables of the dependent variable u.  A jet
variable carries a pair (dx, dt) of derivative counts so that mixed
derivatives left unsubstituted by a total derivative have a first-class
representation: (i, 0) is the i-th pure x-derivative (printed ``zi``),
(0, i) the pure t-derivative (printed ``wi``), and (m, n) with both
positive prints as ``ux{m}t{n}``.  The 0-jet u itself is (0, 0) and is
always printed ``z0``; ``w0`` normalizes to it on construction.

Expressions are immutable and hashable; equality is structural.  Lazy
caches (_hash, _key, _canon) are filled at most once with values that do
not depend on thread timing, so concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

Number = Union[int, Fraction, float]

FUNCTION_NAMES = (
    "exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "arctan",
)


class Expr:
    __slots__ = ("_hash", "_key", "_canon")

    def __init__(self) -> None:
        self._hash = None
        self._key = None
        self._canon = None

    # -- construction sugar; raw nodes, canonicalized only by simplify() --

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Neg(as_expr(other))))

    def __rsub__(self, other):
        return Add((as_expr(other), Neg(self)))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, other):
        return Pow(self, as_expr(other))

    def __neg__(self):
        return Neg(self)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Expr) else False
        if hash(self) != hash(other):
            return False
        return self._fields() == other._fields()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self).__name__,) + tuple(
                hash(f) for f in self._fields()))
            self._hash = h
        return h

    def _fields(self) -> tuple:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:
        from .printer import to_text
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_src(self)})"

    # sort key: a tuple that orders expressions totally and deterministically.
    def sort_key(self) -> tuple:
        k = self._key
        if k is None:
            k = self._make_key()
            self._key = k
        return k

    def _make_key(self) -> tuple:
        raise NotImplementedError


def to_src(e: Expr) -> str:
    from .printer import to_text
    return to_text(e)


# an exact value at or beyond this rounds to inf as a float
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


class Const(Expr):
    """Exact rational constant when possible, float otherwise.

    An exact value must convert to a float: sorting and numeric tests do.
    """

    __slots__ = ("value",)

    def __init__(self, value: Number):
        super().__init__()
        if isinstance(value, bool):
            raise TypeError("boolean is not a constant")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (Fraction, float)):
            raise TypeError(f"bad constant {value!r}")
        if (isinstance(value, Fraction)
                and abs(value.numerator) >= _FLOAT_LIMIT * value.denominator):
            raise ValueError("exact constant beyond the float range")
        self.value = value

    def _fields(self):
        return (isinstance(self.value, Fraction), self.value)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def _make_key(self):
        return (0, float(self.value), 0 if self.is_exact else 1)


class Param(Expr):
    """Named scalar parameter (eta, alpha, A, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _fields(self):
        return (self.name,)

    def _make_key(self):
        return (1, self.name)


class Var(Expr):
    """Independent variable: x or t."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        if name not in ("x", "t"):
            raise ValueError(f"independent variable must be x or t, got {name!r}")
        self.name = name

    def _fields(self):
        return (self.name,)

    def _make_key(self):
        return (2, self.name)


class Jet(Expr):
    """Jet variable: d^(dx+dt) u / dx^dx dt^dt.  w0 normalizes to z0."""

    __slots__ = ("dx", "dt")

    def __init__(self, dx: int, dt: int):
        super().__init__()
        if dx < 0 or dt < 0:
            raise ValueError("negative derivative count")
        self.dx = dx
        self.dt = dt

    def _fields(self):
        return (self.dx, self.dt)

    @property
    def name(self) -> str:
        if self.dt == 0:
            return f"z{self.dx}"
        if self.dx == 0:
            return f"w{self.dt}"
        return f"ux{self.dx}t{self.dt}"

    def _make_key(self):
        return (3, self.dx + self.dt, self.dx, self.dt)


class Fun(Expr):
    """Unary elementary function application."""

    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: Expr):
        super().__init__()
        if fname not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {fname!r}")
        self.fname = fname
        self.arg = arg

    def _fields(self):
        return (self.fname, self.arg)

    def children(self):
        return (self.arg,)

    def _make_key(self):
        return (4, self.fname, self.arg.sort_key())


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        super().__init__()
        self.base = base
        self.exponent = exponent

    def _fields(self):
        return (self.base, self.exponent)

    def children(self):
        return (self.base, self.exponent)

    def _make_key(self):
        return (5, self.base.sort_key(), self.exponent.sort_key())


class Mul(Expr):
    __slots__ = ("args",)

    def __init__(self, args):
        super().__init__()
        self.args = tuple(args)
        if len(self.args) < 2:
            raise ValueError("Mul needs at least two factors")

    def _fields(self):
        return self.args

    def children(self):
        return self.args

    def _make_key(self):
        return (6,) + tuple(a.sort_key() for a in self.args)


class Add(Expr):
    __slots__ = ("args",)

    def __init__(self, args):
        super().__init__()
        self.args = tuple(args)
        if len(self.args) < 2:
            raise ValueError("Add needs at least two terms")

    def _fields(self):
        return self.args

    def children(self):
        return self.args

    def _make_key(self):
        return (7,) + tuple(a.sort_key() for a in self.args)


class Div(Expr):
    """Raw quotient; canonicalizes to Mul with a negative power."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        super().__init__()
        self.num = num
        self.den = den

    def _fields(self):
        return (self.num, self.den)

    def children(self):
        return (self.num, self.den)

    def _make_key(self):
        return (8, self.num.sort_key(), self.den.sort_key())


class Neg(Expr):
    """Raw negation; canonicalizes to a -1 coefficient."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        super().__init__()
        self.arg = arg

    def _fields(self):
        return (self.arg,)

    def children(self):
        return (self.arg,)

    def _make_key(self):
        return (9, self.arg.sort_key())


# -- convenience constructors -------------------------------------------

ZERO = Const(0)
ONE = Const(1)
X = Var("x")
T = Var("t")


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to an expression")


def z(i: int) -> Jet:
    return Jet(i, 0)


def w(i: int) -> Jet:
    return Jet(0, i)


def sin(e) -> Fun:
    return Fun("sin", as_expr(e))


def cos(e) -> Fun:
    return Fun("cos", as_expr(e))


def tan(e) -> Fun:
    return Fun("tan", as_expr(e))


def exp(e) -> Fun:
    return Fun("exp", as_expr(e))


def log(e) -> Fun:
    return Fun("log", as_expr(e))


def sqrt(e) -> Fun:
    return Fun("sqrt", as_expr(e))


def sinh(e) -> Fun:
    return Fun("sinh", as_expr(e))


def cosh(e) -> Fun:
    return Fun("cosh", as_expr(e))


def arctan(e) -> Fun:
    return Fun("arctan", as_expr(e))


def walk(e: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, parents before children."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def free_leaves(e: Expr) -> set:
    """All Param/Var/Jet leaves occurring in the expression."""
    out = set()
    for node in walk(e):
        if isinstance(node, (Param, Var, Jet)):
            out.add(node)
    return out


def free_names(e: Expr) -> set:
    return {leaf.name for leaf in free_leaves(e)}


def jets_of(e: Expr) -> set:
    return {n for n in walk(e) if isinstance(n, Jet)}


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace leaf occurrences per ``mapping`` (keyed by leaf node)."""
    if not mapping:
        return e
    return _subst(e, mapping)


def _subst(e: Expr, mapping: dict) -> Expr:
    hit = mapping.get(e)
    if hit is not None:
        return hit
    if isinstance(e, (Const, Param, Var, Jet)):
        return e
    if isinstance(e, Fun):
        return Fun(e.fname, _subst(e.arg, mapping))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, mapping), _subst(e.exponent, mapping))
    if isinstance(e, Mul):
        return Mul(tuple(_subst(a, mapping) for a in e.args))
    if isinstance(e, Add):
        return Add(tuple(_subst(a, mapping) for a in e.args))
    if isinstance(e, Div):
        return Div(_subst(e.num, mapping), _subst(e.den, mapping))
    if isinstance(e, Neg):
        return Neg(_subst(e.arg, mapping))
    raise TypeError(f"unknown node {e!r}")
