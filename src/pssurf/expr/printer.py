"""Compact text rendering of expression trees.

The output re-parses to the same canonical expression: negative integer
powers print as divisions, coefficients fold their sign into the
enclosing sum, and parentheses are inserted from operator precedence
only where required.
"""

from __future__ import annotations

from fractions import Fraction

from .nodes import (
    Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var,
)

# precedence levels used for parenthesization
_P_ADD = 1
_P_PREFIX = 2   # unary minus, negative literals
_P_MUL = 3
_P_POW = 4
_P_ATOM = 5


def to_text(e: Expr) -> str:
    return _fmt(e, 0)


def _wrap(s: str, prec: int, parent: int) -> str:
    return f"({s})" if prec < parent else s


def _fmt_number(v) -> tuple[str, int]:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            s = str(v.numerator)
            return s, (_P_PREFIX if v < 0 else _P_ATOM)
        s = f"{v.numerator}/{v.denominator}"
        return s, (_P_PREFIX if v < 0 else _P_MUL)
    s = repr(float(v))
    return s, (_P_PREFIX if v < 0 else _P_ATOM)


def _neg_part(t: Expr):
    """If t is negative-looking, return its positive counterpart, else None."""
    if isinstance(t, Const):
        try:
            neg = t.value < 0
        except TypeError:
            return None
        return Const(-t.value) if neg else None
    if isinstance(t, Mul) and isinstance(t.args[0], Const):
        c = t.args[0]
        if c.value < 0:
            rest = t.args[1:]
            flipped = Const(-c.value)
            if flipped.value == 1 and flipped.is_exact:
                return rest[0] if len(rest) == 1 else Mul(rest)
            return Mul((flipped,) + rest)
    return None


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
    ex = e.exponent
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
