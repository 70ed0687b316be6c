"""Differentiation on the jet space.

``partial`` differentiates with respect to a single leaf (parameter,
variable, or jet), treating all other leaves as independent.  ``total_x``
and ``total_t`` are total derivatives: in free mode a jet (m, n) simply
shifts to (m+1, n) or (m, n+1); given an EquationContext the result is
reduced modulo the equation, so mixed jets never survive.

An EquationContext represents a PDE in solved form:

  evolution    u_t  = rhs,  rhs a function of x, t, z0..zk
  hyperbolic   u_xt = rhs,  rhs a function of x, t and pure jets zi, wj

Reduction rewrites every forbidden jet through the prolonged equation.
Prolongations are memoized per context; a cycle (an rhs that needs its
own prolongation) or an order blow-up raises instead of recursing
forever.  ``partial`` and the free total derivatives are memoized per
canonical node for the life of the process, as the nodes themselves are.
"""

from __future__ import annotations

from .nodes import (
    Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var,
    ONE, ZERO, as_expr, jets_of, postorder, substitute, sqrt,
)
from .simplify import simplify

MAX_PROLONG_ORDER = 16


# d/du f(u) for each function f
_CHAIN = {
    "sin": lambda u: Fun("cos", u),
    "cos": lambda u: -Fun("sin", u),
    "tan": lambda u: ONE + Pow(Fun("tan", u), Const(2)),
    "exp": lambda u: Fun("exp", u),
    "log": lambda u: Pow(u, Const(-1)),
    "sqrt": lambda u: ONE / (Const(2) * sqrt(u)),
    "sinh": lambda u: Fun("cosh", u),
    "cosh": lambda u: Fun("sinh", u),
    "arctan": lambda u: Pow(ONE + Pow(u, Const(2)), Const(-1)),
}


def _derive(e: Expr, leaf_rule) -> Expr:
    """Generic derivation: leaf_rule maps each leaf to its derivative."""
    d = {}  # node -> its raw derivative
    for node in postorder((e,)):
        if isinstance(node, Fun):
            inner = d[node.arg]
            out = ZERO if inner is ZERO else _CHAIN[node.fname](node.arg) * inner
        elif isinstance(node, Pow):
            db, dp = d[node.base], d[node.exponent]
            out = ZERO
            if db is not ZERO:
                out = out + node.exponent * Pow(node.base, node.exponent - ONE) * db
            if dp is not ZERO:
                out = out + Pow(node.base, node.exponent) * Fun("log", node.base) * dp
        elif isinstance(node, Mul):
            terms = []
            for i, a in enumerate(node.args):
                da = d[a]
                if da is ZERO:
                    continue
                rest = node.args[:i] + node.args[i + 1:]
                terms.append(Mul((da,) + rest) if rest else da)
            out = _sum(terms)
        elif isinstance(node, Add):
            out = _sum([t for t in map(d.__getitem__, node.args) if t is not ZERO])
        else:
            out = leaf_rule(node)
        d[node] = out
    return d[e]


def _sum(terms) -> Expr:
    if not terms:
        return ZERO
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


# canonical derivatives by (canonical node, leaf) and by (canonical node,
# direction); nodes are interned, so each is built once per process
_PARTIALS: dict = {}
_TOTALS: dict = {}


def partial(e: Expr, leaf) -> Expr:
    """d e / d leaf with every other leaf held fixed."""
    leaf = as_expr(leaf)
    if not isinstance(leaf, (Param, Var, Jet)):
        raise TypeError("can only differentiate by a parameter, variable, or jet")
    e = simplify(e)
    out = _PARTIALS.get((e, leaf))
    if out is None:
        out = _PARTIALS[e, leaf] = simplify(_derive(e, _partial_rule(leaf)))
    return out


def _partial_rule(leaf):
    def rule(node):
        return ONE if node == leaf else ZERO
    return rule


def _total_rule(direction: str):
    """Free total derivative: jets shift, nothing is reduced."""

    def rule(node):
        if isinstance(node, Var):
            return ONE if node.name == direction else ZERO
        if isinstance(node, Jet):
            if direction == "x":
                return Jet(node.dx + 1, node.dt)
            return Jet(node.dx, node.dt + 1)
        return ZERO  # Const, Param

    return rule


def _total_free(e: Expr, direction: str) -> Expr:
    """The canonical free total derivative of e in direction "x" or "t"."""
    e = simplify(as_expr(e))
    out = _TOTALS.get((e, direction))
    if out is None:
        out = _TOTALS[e, direction] = simplify(_derive(e, _total_rule(direction)))
    return out


class EquationContext:
    """A PDE in solved form, able to prolong and reduce jets."""

    def __init__(self, kind: str, rhs: Expr):
        if kind not in ("evolution", "hyperbolic"):
            raise ValueError(f"kind must be evolution or hyperbolic, got {kind!r}")
        rhs = simplify(as_expr(rhs))
        for j in jets_of(rhs):
            if kind == "evolution" and j.dt != 0:
                raise ValueError(
                    f"evolution right-hand side may only contain x-jets, found {j.name}")
            if kind == "hyperbolic" and (j.dt != 0 or j.dx > 1):
                raise ValueError(
                    f"hyperbolic right-hand side may only contain z0 and z1, found {j.name}")
        self.kind = kind
        self.rhs = rhs
        self._memo: dict[tuple[int, int], Expr] = {}
        self._busy: set[tuple[int, int]] = set()
        if kind == "evolution":
            self._memo[(0, 1)] = rhs
        else:
            self._memo[(1, 1)] = rhs

    def reduces(self, j: Jet) -> bool:
        """Does this equation rewrite jet j?"""
        if self.kind == "evolution":
            return j.dt >= 1
        return j.dx >= 1 and j.dt >= 1

    def prolong(self, j: Jet) -> Expr:
        """Express a reducible jet through the equation."""
        key = (j.dx, j.dt)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not self.reduces(j):
            return j
        if j.dx + j.dt > MAX_PROLONG_ORDER:
            raise ValueError(
                f"prolongation of {j.name} exceeds order cap {MAX_PROLONG_ORDER}")
        if key in self._busy:
            raise ValueError(
                f"equation is not in solved form: prolongation of {j.name} is cyclic")
        self._busy.add(key)
        try:
            if self.kind == "evolution":
                if j.dt == 1:
                    out = self._reduced_total(self.prolong(Jet(j.dx - 1, 1)), "x")
                else:
                    out = self._reduced_total(self.prolong(Jet(j.dx, j.dt - 1)), "t")
            else:
                if j.dx > 1:
                    out = self._reduced_total(self.prolong(Jet(j.dx - 1, j.dt)), "x")
                elif j.dt > 1:
                    out = self._reduced_total(self.prolong(Jet(1, j.dt - 1)), "t")
                else:
                    out = self.rhs
        finally:
            self._busy.discard(key)
        self._memo[key] = out
        return out

    def _reduced_total(self, e: Expr, direction: str) -> Expr:
        return self.reduce(_total_free(e, direction))

    def reduce(self, e: Expr) -> Expr:
        """Rewrite every reducible jet in e through the equation."""
        e = simplify(as_expr(e))
        while True:
            mapping = {}
            for j in jets_of(e):
                if self.reduces(j):
                    mapping[j] = self.prolong(j)
            if not mapping:
                return e
            e = simplify(substitute(e, mapping))


def total_x(e: Expr, ctx: EquationContext | None = None) -> Expr:
    """Total x-derivative; reduced modulo ctx when given."""
    out = _total_free(e, "x")
    return ctx.reduce(out) if ctx is not None else out


def total_t(e: Expr, ctx: EquationContext | None = None) -> Expr:
    """Total t-derivative; reduced modulo ctx when given."""
    out = _total_free(e, "t")
    return ctx.reduce(out) if ctx is not None else out

