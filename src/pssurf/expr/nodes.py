"""Immutable expression trees for the jet-space calculus.

Leaves are exact rational constants, named parameters, the independent
variables x and t, and jet variables of the dependent variable u.  A jet
variable carries a pair (dx, dt) of derivative counts so that mixed
derivatives left unsubstituted by a total derivative have a first-class
representation: (i, 0) is the i-th pure x-derivative (printed ``zi``),
(0, i) the pure t-derivative (printed ``wi``), and (m, n) with both
positive prints as ``ux{m}t{n}``.  The 0-jet u itself is (0, 0) and is
always printed ``z0``; ``w0`` normalizes to it on construction.

Nodes are hash-consed: a constructor returns the one node of its
structure, so equal structures are one object, and equality and hashing
are by identity.  Each node kind keeps a table of its nodes keyed by
their fields, the children being unique already, so a lookup costs
O(arity).  An exact constant is keyed by its Fraction and a float
constant by its bits: 1 and 1.0, and 0.0 and -0.0, are four nodes, and
NaNs with equal bits are one.  The tables keep every node built for as
long as the process lives, so the per-node caches (_key, _canon) serve
every later tree that shares a structure.  Nodes enter a table through
``dict.setdefault`` and the lazy caches are filled with values that do
not depend on thread timing, so concurrent use is safe.

Every pass over a tree is one loop over ``postorder``, which lists each
unique node once, children first, from its own stack: a pass reads the
children's results from a dict or a node cache, so a shared subtree is
visited once and an API-built tree may be as deep as memory allows.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Iterator, Union

Number = Union[int, Fraction, float]

FUNCTION_NAMES = (
    "exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "arctan",
)

_NO_JETS = frozenset()
# each distinct set of jets once: many nodes share a few sets
_JET_SETS: dict = {}
_float_bits = struct.Struct("<d").pack


def _new(cls, jets):
    """A bare node of cls; the constructor fills in its fields before
    cls._table.setdefault publishes it."""
    node = object.__new__(cls)
    node._key = None
    node._canon = None
    node._jets = jets
    return node


def _union_jets(args) -> frozenset:
    out = _NO_JETS
    for a in args:
        j = a._jets
        if j and not j <= out:
            if out:
                both = out | j
                out = _JET_SETS.setdefault(both, both)
            else:
                out = j
    return out


class Expr:
    # _jets: the frozenset of Jet leaves below the node, built from the
    # children's sets when the node is built
    __slots__ = ("_key", "_canon", "_jets")

    # -- construction sugar; raw nodes, canonicalized only by simplify().
    # Negation is a -1 factor and a quotient a factor d^-1, as in the
    # canonical shape. --

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, -as_expr(other)))

    def __rsub__(self, other):
        return Add((as_expr(other), -self))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(as_expr(other), Const(-1))))

    def __rtruediv__(self, other):
        return Mul((as_expr(other), Pow(self, Const(-1))))

    def __pow__(self, other):
        return Pow(self, as_expr(other))

    def __neg__(self):
        return Mul((Const(-1), self))

    def __pos__(self):
        return self

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:
        from .printer import to_text
        return to_text(self)

    def __repr__(self) -> str:
        from .printer import to_text
        return f"{type(self).__name__}({to_text(self)})"

    # sort key: a tuple that orders expressions totally and deterministically;
    # _make_key builds a node's from its children's, which are set first
    def sort_key(self) -> tuple:
        if self._key is None:
            for node in postorder((self,), lambda n: n._key is not None):
                node._key = node._make_key()
        return self._key


# an exact value at or beyond this rounds to inf as a float
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


class Const(Expr):
    """Exact rational constant when possible, float otherwise.

    An exact value must convert to a float: sorting and numeric tests do.
    """

    __slots__ = ("value",)
    _table: dict = {}  # exact value or float bits -> node

    def __new__(cls, value: Number):
        if isinstance(value, bool):
            raise TypeError("boolean is not a constant")
        if isinstance(value, float):
            value = float(value)
            key = _float_bits(value)
        elif isinstance(value, (int, Fraction)):
            # an int keys as its Fraction does; a float's bits equal neither
            key = value
        else:
            raise TypeError(f"bad constant {value!r}")
        node = cls._table.get(key)
        if node is None:
            if not isinstance(value, float):
                value = Fraction(value)
                if abs(value.numerator) >= _FLOAT_LIMIT * value.denominator:
                    raise ValueError("exact constant beyond the float range")
            node = _new(cls, _NO_JETS)
            node.value = value
            node = cls._table.setdefault(key, node)
        return node

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def _make_key(self):
        return (0, float(self.value), 0 if self.is_exact else 1)


class Param(Expr):
    """Named scalar parameter (eta, alpha, A, ...)."""

    __slots__ = ("name",)
    _table: dict = {}  # name -> node

    def __new__(cls, name: str):
        node = cls._table.get(name)
        if node is None:
            node = _new(cls, _NO_JETS)
            node.name = name
            node = cls._table.setdefault(name, node)
        return node

    def _make_key(self):
        return (1, self.name)


class Var(Expr):
    """Independent variable: x or t."""

    __slots__ = ("name",)
    _table: dict = {}  # name -> node

    def __new__(cls, name: str):
        node = cls._table.get(name)
        if node is None:
            if name not in ("x", "t"):
                raise ValueError(
                    f"independent variable must be x or t, got {name!r}")
            node = _new(cls, _NO_JETS)
            node.name = name
            node = cls._table.setdefault(name, node)
        return node

    def _make_key(self):
        return (2, self.name)


class Jet(Expr):
    """Jet variable: d^(dx+dt) u / dx^dx dt^dt.  w0 normalizes to z0."""

    __slots__ = ("dx", "dt")
    _table: dict = {}  # (dx, dt) -> node

    def __new__(cls, dx: int, dt: int):
        key = (dx, dt)
        node = cls._table.get(key)
        if node is None:
            if dx < 0 or dt < 0:
                raise ValueError("negative derivative count")
            node = _new(cls, None)
            node._jets = frozenset((node,))
            node.dx = dx
            node.dt = dt
            node = cls._table.setdefault(key, node)
        return node

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
    _table: dict = {}  # (fname, arg) -> node

    def __new__(cls, fname: str, arg: Expr):
        key = (fname, arg)
        node = cls._table.get(key)
        if node is None:
            if fname not in FUNCTION_NAMES:
                raise ValueError(f"unknown function {fname!r}")
            node = _new(cls, arg._jets)
            node.fname = fname
            node.arg = arg
            node = cls._table.setdefault(key, node)
        return node

    def children(self):
        return (self.arg,)

    def _make_key(self):
        return (4, self.fname, self.arg._key)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _table: dict = {}  # (base, exponent) -> node

    def __new__(cls, base: Expr, exponent: Expr):
        key = (base, exponent)
        node = cls._table.get(key)
        if node is None:
            node = _new(cls, _union_jets((base, exponent)))
            node.base = base
            node.exponent = exponent
            node = cls._table.setdefault(key, node)
        return node

    def children(self):
        return (self.base, self.exponent)

    def _make_key(self):
        return (5, self.base._key, self.exponent._key)


class _Nary(Expr):
    """Mul and Add: an argument tuple of at least two nodes."""

    __slots__ = ("args",)

    def __new__(cls, args):
        args = tuple(args)
        node = cls._table.get(args)
        if node is None:
            if len(args) < 2:
                raise ValueError(
                    f"{cls.__name__} needs at least two {cls._what}")
            node = _new(cls, _union_jets(args))
            node.args = args
            node = cls._table.setdefault(args, node)
        return node

    def children(self):
        return self.args

    def _make_key(self):
        return (self._rank,) + tuple(a._key for a in self.args)


class Mul(_Nary):
    __slots__ = ()
    _table: dict = {}  # args -> node
    _what, _rank = "factors", 6


class Add(_Nary):
    __slots__ = ()
    _table: dict = {}  # args -> node
    _what, _rank = "terms", 7


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


def postorder(roots, handled=None) -> list:
    """Each unique node below roots once, children before parents, in the
    order a recursive left-to-right visit finishes them, from an explicit
    stack.  A node for which ``handled(node)`` is true is neither entered
    nor listed: the caller has its result already."""
    out = []
    seen = set()
    # the children still to enter, per open node, deepest last
    todo, open_nodes = [iter(roots)], [None]
    while todo:
        for node in todo[-1]:
            if handled is not None and handled(node) or node in seen:
                continue
            seen.add(node)
            kids = node.children()
            if kids:
                todo.append(iter(kids))
                open_nodes.append(node)
                break
            out.append(node)
        else:
            todo.pop()
            node = open_nodes.pop()
            if node is not None:
                out.append(node)
    return out


def free_leaves(e: Expr) -> set:
    """All Param/Var/Jet leaves occurring in the expression."""
    return {node for node in postorder((e,))
            if isinstance(node, (Param, Var, Jet))}


def free_names(e: Expr) -> set:
    return {leaf.name for leaf in free_leaves(e)}


def jets_of(e: Expr) -> frozenset:
    """The Jet leaves of e, read from the node: O(1) per call."""
    return e._jets


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace occurrences of the nodes in ``mapping`` (leaves, as a rule)
    by their values; nothing below a replaced node is visited."""
    if not mapping:
        return e
    new = dict(mapping)
    for node in postorder((e,), new.__contains__):
        if isinstance(node, Fun):
            new[node] = Fun(node.fname, new[node.arg])
        elif isinstance(node, Pow):
            new[node] = Pow(new[node.base], new[node.exponent])
        elif isinstance(node, (Mul, Add)):
            new[node] = type(node)(tuple(new[a] for a in node.args))
        else:
            new[node] = node
    return new[e]
