"""Compact text rendering of expression trees.

The output re-parses to the same canonical expression: negative integer
powers print as divisions, coefficients fold their sign into the
enclosing sum, and parentheses are inserted from operator precedence
only where required.

The text is built from an explicit work list of text pieces and (node,
parent precedence) items and joined once, so a tree of any depth prints
in time linear in its text.
"""

from __future__ import annotations

from fractions import Fraction

from .nodes import (
    Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var,
)
from .simplify import _canon_pow

# precedence levels used for parenthesization
_P_ADD = 1
_P_PREFIX = 2   # unary minus, negative literals
_P_MUL = 3
_P_POW = 4
_P_ATOM = 5


def to_text(e: Expr) -> str:
    out = []
    todo = [(e, 0)]  # pieces still to print, the next one last
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo.extend(reversed(_pieces(*item)))
    return "".join(out)


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
        return Const(-t.value) if t.value < 0 else None
    if isinstance(t, Mul) and isinstance(t.args[0], Const):
        c = t.args[0]
        if c.value < 0:
            rest = t.args[1:]
            flipped = Const(-c.value)
            if flipped.value == 1 and flipped.is_exact:
                return rest[0] if len(rest) == 1 else Mul(rest)
            return Mul((flipped,) + rest)
    return None


def _pieces(e: Expr, parent: int) -> list:
    """e as text pieces and (child, precedence) items, in parentheses if
    it binds more loosely than parent."""
    if isinstance(e, (Param, Var, Jet)):
        return [e.name]
    if isinstance(e, Fun):
        return [f"{e.fname}(", (e.arg, 0), ")"]
    if isinstance(e, Const):
        s, prec = _fmt_number(e.value)
        body = [s]
    elif isinstance(e, Pow):
        n = _divisor_power(e)
        if n is None:
            body, prec = [(e.base, _P_ATOM), "^", (e.exponent, _P_ATOM)], _P_POW
        else:
            body, prec = ["1/", _power(e.base, n)], _P_MUL
    elif isinstance(e, Mul):
        body, prec = _mul_pieces(e)
    else:
        body, prec = [(e.args[0], _P_ADD)], _P_ADD
        for t in e.args[1:]:
            pos = _neg_part(t)
            body += [" + ", (t, _P_PREFIX)] if pos is None else [" - ", (pos, _P_PREFIX)]
    return ["(", *body, ")"] if prec < parent else body


def _divisor_power(e: Pow):
    """n when e = base^-n prints as the divisor base^n, else None.

    A base keeps its ^-n where the divisor would re-parse to another
    factor: a power to a non-constant exponent merges with a like base
    beside it (1/(z0^2*(z0^z0)) is 1/z0^(2 + z0)), and a constant base
    whose n-th power folds, while e does not, folds (1/0^2 is 1/0, and
    1/(1/4)^512 a constant).
    """
    ex, base = e.exponent, e.base
    if not (isinstance(ex, Const) and isinstance(ex.value, Fraction)
            and ex.value.denominator == 1 and ex.value < 0):
        return None
    n = -ex.value
    if isinstance(base, Pow) and not isinstance(base.exponent, Const):
        return None
    if (isinstance(base, Const) and isinstance(_canon_pow(base, Const(n)), Const)
            and not isinstance(_canon_pow(base, ex), Const)):
        return None
    return n


def _power(base: Expr, n):
    """The divisor base^n as one item."""
    return (base, _P_ATOM) if n == 1 else (Pow(base, Const(n)), _P_POW)


def _joined(items: list, sep: str) -> list:
    out = [sep] * (2 * len(items) - 1)
    out[::2] = items
    return out


def _mul_pieces(e: Mul):
    num, den = [], []  # one item per factor
    sign = ""
    args = e.args
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
        n = _divisor_power(f) if isinstance(f, Pow) else None
        if n is not None:
            den.append(_power(f.base, n))
        else:
            num.append((f, _P_MUL if not den else _P_POW))
    body = [sign, *_joined(num or ["1"], "*")]
    if len(den) == 1:
        body += ["/", den[0]]
    elif den:
        body += ["/(", *_joined(den, "*"), ")"]
    return body, (_P_PREFIX if sign else _P_MUL)
