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
forever.
"""

from __future__ import annotations

from .nodes import (
    Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var,
    ONE, ZERO, as_expr, jets_of, substitute, sqrt,
)
from .simplify import simplify

MAX_PROLONG_ORDER = 16


def _chain(fname: str, u: Expr) -> Expr:
    if fname == "sin":
        return Fun("cos", u)
    if fname == "cos":
        return -Fun("sin", u)
    if fname == "tan":
        return ONE + Pow(Fun("tan", u), Const(2))
    if fname == "exp":
        return Fun("exp", u)
    if fname == "log":
        return Pow(u, Const(-1))
    if fname == "sqrt":
        return ONE / (Const(2) * sqrt(u))
    if fname == "sinh":
        return Fun("cosh", u)
    if fname == "cosh":
        return Fun("sinh", u)
    if fname == "arctan":
        return Pow(ONE + Pow(u, Const(2)), Const(-1))
    raise ValueError(f"no derivative rule for {fname!r}")


def _derive(e: Expr, leaf_rule) -> Expr:
    """Generic derivation: leaf_rule maps each leaf to its derivative."""
    if isinstance(e, (Const, Param, Var, Jet)):
        return leaf_rule(e)
    if isinstance(e, Fun):
        inner = _derive(e.arg, leaf_rule)
        if inner is ZERO:
            return ZERO
        return _chain(e.fname, e.arg) * inner
    if isinstance(e, Pow):
        db = _derive(e.base, leaf_rule)
        dp = _derive(e.exponent, leaf_rule)
        out = ZERO
        if db is not ZERO:
            out = out + e.exponent * Pow(e.base, e.exponent - ONE) * db
        if dp is not ZERO:
            out = out + Pow(e.base, e.exponent) * Fun("log", e.base) * dp
        return out
    if isinstance(e, Mul):
        terms = []
        for i, a in enumerate(e.args):
            da = _derive(a, leaf_rule)
            if da is ZERO:
                continue
            rest = e.args[:i] + e.args[i + 1:]
            terms.append(Mul((da,) + rest) if rest else da)
        if not terms:
            return ZERO
        return terms[0] if len(terms) == 1 else Add(tuple(terms))
    if isinstance(e, Add):
        terms = [t for t in (_derive(a, leaf_rule) for a in e.args)
                 if t is not ZERO]
        if not terms:
            return ZERO
        return terms[0] if len(terms) == 1 else Add(tuple(terms))
    raise TypeError(f"unknown node {type(e).__name__}")


def partial(e: Expr, leaf) -> Expr:
    """d e / d leaf with every other leaf held fixed."""
    leaf = as_expr(leaf)
    if not isinstance(leaf, (Param, Var, Jet)):
        raise TypeError("can only differentiate by a parameter, variable, or jet")

    def rule(node):
        return ONE if node == leaf else ZERO

    return simplify(_derive(simplify(e), rule))


def _total_free(e: Expr, direction: str) -> Expr:
    """Free total derivative: jets shift, nothing is reduced."""

    def rule(node):
        if isinstance(node, Var):
            return ONE if node.name == direction else ZERO
        if isinstance(node, Jet):
            if direction == "x":
                return Jet(node.dx + 1, node.dt)
            return Jet(node.dx, node.dt + 1)
        return ZERO  # Const, Param

    return _derive(e, rule)


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
        return self.reduce(_total_free(simplify(e), direction))

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
    out = simplify(_total_free(simplify(as_expr(e)), "x"))
    return ctx.reduce(out) if ctx is not None else out


def total_t(e: Expr, ctx: EquationContext | None = None) -> Expr:
    """Total t-derivative; reduced modulo ctx when given."""
    out = simplify(_total_free(simplify(as_expr(e)), "t"))
    return ctx.reduce(out) if ctx is not None else out

