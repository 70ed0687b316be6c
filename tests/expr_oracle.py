"""The recursive expression passes that one post-order walk replaced,
kept as oracles.

Each recurses over the tree as the package did before every pass became
a loop over ``postorder``; ``tests/test_expr_oracle.py`` compares them
with the package passes.  ``simplify`` and ``sort_key`` keep their
results in a per-call dict instead of the node caches (_canon, _key),
so they recompute what the package cached.  The per-kind rules they
share with the package (``_canon_pow``, ``_canon_mul``, ``_canon_add``,
``_CHAIN``) are imported.  ``Tape`` lays its slots out with the
recursive ``visit`` and runs with the package's ``run``.  ``to_text`` is
the printer before the round-trip fix: a Pow base to a non-constant
exponent, or a constant base whose n-th power folds, printed as a
divisor there.  Test-only.
"""

import math
from fractions import Fraction

import numpy as np

from pssurf.expr import Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var
from pssurf.expr.calculus import _CHAIN
from pssurf.expr.nodes import ONE, ZERO
from pssurf.expr.numeric import (
    _ADD, _MATH_FUNS, _MUL, _NP_FUNS, _POW, EvalError, Tape as _Tape,
)
from pssurf.expr.printer import (
    _P_ADD, _P_ATOM, _P_MUL, _P_POW, _P_PREFIX, _fmt_number, _neg_part,
)
from pssurf.expr.simplify import (
    _EXACT_FUN_AT, _canon_add, _canon_mul, _canon_pow,
)


def simplify(e: Expr, memo=None) -> Expr:
    if memo is None:
        memo = {}
    c = memo.get(e)
    if c is None:
        c = memo[e] = _canon(e, memo)
    return c


def _canon(e: Expr, memo: dict) -> Expr:
    if not isinstance(e, (Fun, Pow, Mul, Add)):
        return e  # Const / Param / Var / Jet

    if isinstance(e, Fun):
        arg = simplify(e.arg, memo)
        if isinstance(arg, Const) and arg.is_exact:
            hit = _EXACT_FUN_AT.get((e.fname, arg.value))
            if hit is not None:
                return Const(hit)
        return Fun(e.fname, arg)

    if isinstance(e, Pow):
        return _canon_pow(simplify(e.base, memo), simplify(e.exponent, memo))

    if isinstance(e, Mul):
        return _canon_mul([simplify(a, memo) for a in e.args])

    return _canon_add([simplify(a, memo) for a in e.args])


def sort_key(e: Expr) -> tuple:
    if isinstance(e, Const):
        return (0, float(e.value), 0 if e.is_exact else 1)
    if isinstance(e, (Param, Var)):
        return (1 if isinstance(e, Param) else 2, e.name)
    if isinstance(e, Jet):
        return (3, e.dx + e.dt, e.dx, e.dt)
    if isinstance(e, Fun):
        return (4, e.fname, sort_key(e.arg))
    if isinstance(e, Pow):
        return (5, sort_key(e.base), sort_key(e.exponent))
    return (e._rank,) + tuple(sort_key(a) for a in e.args)


def _derive(e: Expr, leaf_rule) -> Expr:
    """Generic derivation: leaf_rule maps each leaf to its derivative."""
    if isinstance(e, (Const, Param, Var, Jet)):
        return leaf_rule(e)
    if isinstance(e, Fun):
        inner = _derive(e.arg, leaf_rule)
        if inner is ZERO:
            return ZERO
        return _CHAIN[e.fname](e.arg) * inner
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


def substitute(e: Expr, mapping: dict) -> Expr:
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
    raise TypeError(f"unknown node {e!r}")


def evaluate(e: Expr, env: dict) -> float:
    """Evaluate at a point given by name -> float.  Raises EvalError on
    unbound names and domain violations."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, (Param, Var, Jet)):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound name {e.name!r}") from None
    if isinstance(e, Fun):
        v = evaluate(e.arg, env)
        if e.fname == "log":
            if v <= 0.0:
                raise EvalError(f"log of non-positive value {v}")
            return math.log(v)
        if e.fname == "sqrt":
            if v < 0.0:
                raise EvalError(f"sqrt of negative value {v}")
            return math.sqrt(v)
        try:
            return _MATH_FUNS[e.fname](v)
        except OverflowError:
            raise EvalError(f"overflow in {e.fname}({v})") from None
    if isinstance(e, Pow):
        b = evaluate(e.base, env)
        p = evaluate(e.exponent, env)
        if b == 0.0 and p < 0.0:
            raise EvalError("zero raised to a negative power")
        if b < 0.0 and p != int(p):
            raise EvalError(f"negative base {b} with fractional exponent {p}")
        try:
            return b ** p
        except OverflowError:
            raise EvalError(f"overflow in {b} ** {p}") from None
    if isinstance(e, Mul):
        out = 1.0
        for a in e.args:
            out *= evaluate(a, env)
        return out
    if isinstance(e, Add):
        return math.fsum(evaluate(a, env) for a in e.args)
    raise TypeError(f"unknown node {type(e).__name__}")


class Tape(_Tape):
    __slots__ = ()

    def __init__(self, roots):
        slot_of = {}  # node, or a leaf's name -> slot
        init, loads, code = [], [], []

        # recursion is as deep as the tree, as in simplify, which every
        # root has been through
        def visit(node):
            kind = type(node)
            leaf = kind is Param or kind is Var or kind is Jet
            key = node.name if leaf else node
            slot = slot_of.get(key)
            if slot is not None:
                return slot
            if kind is Mul:
                args = (_MUL,) + tuple(map(visit, node.args))
            elif kind is Add:
                args = (_ADD,) + tuple(map(visit, node.args))
            elif kind is Pow:
                args = (_POW, visit(node.base), visit(node.exponent))
            elif kind is Fun:
                args = (_NP_FUNS[node.fname], visit(node.arg))
            elif kind is not Const and not leaf:
                raise TypeError(f"unknown node {kind.__name__}")
            slot = slot_of[key] = len(init)
            # a constant's value is filled in once, for every run
            init.append(np.float64(node.value) if kind is Const else None)
            if leaf:
                loads.append((slot, node.name))
            elif kind is not Const:
                code.append((args[0], slot, args[1], args[2:]))
            return slot

        self._roots = tuple(map(visit, roots))
        # visit refers to itself: drop it, so that the dicts it holds are
        # freed now and not at the next cyclic collection
        del visit
        # clear each slot, other than a root, after its last use
        last = {}
        for i, (_, _, first, rest) in enumerate(code):
            last[first] = i
            for a in rest:
                last[a] = i
        keep = set(self._roots)
        dead = [[] for _ in code]
        for slot, i in last.items():
            if slot not in keep:
                dead[i].append(slot)
        self._code = tuple((op, out, first, rest, tuple(d))
                           for (op, out, first, rest), d in zip(code, dead))
        self._init = init
        self._loads = tuple(loads)
        self.names = tuple(sorted(nm for _, nm in loads))


def to_text(e: Expr) -> str:
    return _fmt(e, 0)


def _wrap(s: str, prec: int, parent: int) -> str:
    return f"({s})" if prec < parent else s


def _fmt(e: Expr, parent: int) -> str:
    if isinstance(e, Const):
        s, prec = _fmt_number(e.value)
        return _wrap(s, prec, parent)
    if isinstance(e, (Param, Var, Jet)):
        return e.name
    if isinstance(e, Fun):
        return f"{e.fname}({_fmt(e.arg, 0)})"
    if isinstance(e, Pow):
        return _wrap(_fmt_pow(e), _pow_prec(e), parent)
    if isinstance(e, Mul):
        s, prec = _fmt_mul(e)
        return _wrap(s, prec, parent)
    if isinstance(e, Add):
        parts = [_fmt(e.args[0], _P_ADD)]
        for t in e.args[1:]:
            pos = _neg_part(t)
            if pos is not None:
                parts.append(f" - {_fmt(pos, _P_PREFIX)}")
            else:
                parts.append(f" + {_fmt(t, _P_PREFIX)}")
        return _wrap("".join(parts), _P_ADD, parent)
    raise TypeError(f"unknown node {type(e).__name__}")


def _neg_int_exponent(e: Pow):
    """n when e prints as a division 1/base^n, else None.  A zero base
    keeps its exponent: 1/0^2 would re-parse as 1/(0^2), which folds to
    1/0, and x/(0*y) as x/0."""
    ex = e.exponent
    if isinstance(e.base, Const) and e.base.value == 0:
        return None
    if isinstance(ex, Const) and isinstance(ex.value, Fraction):
        if ex.value.denominator == 1 and ex.value < 0:
            return -ex.value
    return None


def _pow_prec(e: Pow) -> int:
    return _P_MUL if _neg_int_exponent(e) is not None else _P_POW


def _fmt_pow(e: Pow) -> str:
    n = _neg_int_exponent(e)
    if n is not None:
        if n == 1:
            return f"1/{_fmt(e.base, _P_ATOM)}"
        return f"1/{_fmt(e.base, _P_ATOM)}^{_fmt(Const(n), _P_ATOM)}"
    return f"{_fmt(e.base, _P_ATOM)}^{_fmt(e.exponent, _P_ATOM)}"


def _fmt_mul(e: Mul):
    num: list[str] = []
    den: list[str] = []
    sign = ""
    args = list(e.args)
    if isinstance(args[0], Const):
        c = args[0].value
        if c < 0:
            sign = "-"
            c = -c
        if isinstance(c, Fraction):
            if c.numerator != 1:
                num.append(str(c.numerator))
            if c.denominator != 1:
                den.append(str(c.denominator))
        else:
            num.append(repr(float(c)))
        args = args[1:]
    for f in args:
        if isinstance(f, Pow):
            n = _neg_int_exponent(f)
            if n is not None:
                if n == 1:
                    den.append(_fmt(f.base, _P_ATOM))
                else:
                    den.append(f"{_fmt(f.base, _P_ATOM)}^{_fmt(Const(n), _P_ATOM)}")
                continue
        num.append(_fmt(f, _P_MUL if not den else _P_POW))
    if not num:
        num = ["1"]
    s = "*".join(num)
    if den:
        if len(den) == 1:
            s += f"/{den[0]}"
        else:
            s += "/(" + "*".join(den) + ")"
    prec = _P_PREFIX if sign else _P_MUL
    return sign + s, prec
