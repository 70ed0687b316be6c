"""Canonical simplifier.

The rule set is deliberately small: exact constant folding, the 0/1
identities, flattening of sums and products with collection of like
terms and like factors (rational exponent arithmetic), and the two
Pythagorean pair rules sin^2+cos^2 -> 1 and cosh^2-sinh^2 -> 1 applied
to same-coefficient term pairs inside a sum.  Everything beyond that is
left to numeric testing.  The output is a deterministic canonical form
and simplify is idempotent: simplify(simplify(e)) is simplify(e).

Canonical shape:
  * negation is a -1 coefficient and a quotient a negative power; the
    operators (-e, a - b, a / b) build these Mul/Pow shapes directly,
  * Add and Mul flattened, arguments sorted by sort_key, at most one
    constant term / leading coefficient,
  * Pow never has exponent 0 or 1.
Floats appear in a canonical expression only if the input contained
floats; exact inputs stay exact.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .nodes import (
    Add, Const, Expr, Fun, Mul, Pow, ZERO, ONE, postorder,
)

_EXACT_FUN_AT = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("tan", Fraction(0)): Fraction(0),
    ("sinh", Fraction(0)): Fraction(0),
    ("cosh", Fraction(0)): Fraction(1),
    ("arctan", Fraction(0)): Fraction(0),
    ("exp", Fraction(0)): Fraction(1),
    ("log", Fraction(1)): Fraction(0),
    ("sqrt", Fraction(0)): Fraction(0),
    ("sqrt", Fraction(1)): Fraction(1),
}


def simplify(e: Expr) -> Expr:
    if e._canon is None:
        for node in postorder((e,), lambda n: n._canon is not None):
            c = _canon(node)
            node._canon = c
            c._canon = c
    return e._canon


def _canon(e: Expr) -> Expr:
    """One canonicalizing step: e from its children's canonical forms.
    Within simplify's walk the children's are cached already, so the
    simplify calls below only read them."""
    if not isinstance(e, (Fun, Pow, Mul, Add)):
        return e  # Const / Param / Var / Jet

    if isinstance(e, Fun):
        arg = simplify(e.arg)
        if isinstance(arg, Const) and arg.is_exact:
            hit = _EXACT_FUN_AT.get((e.fname, arg.value))
            if hit is not None:
                return Const(hit)
        return Fun(e.fname, arg)

    if isinstance(e, Pow):
        return _canon_pow(simplify(e.base), simplify(e.exponent))

    if isinstance(e, Mul):
        return _canon_mul([simplify(a) for a in e.args])

    return _canon_add([simplify(a) for a in e.args])


def _canon_pow(base: Expr, expo: Expr) -> Expr:
    if isinstance(expo, Const):
        ev = expo.value
        if ev == 0:
            return ONE
        if ev == 1:
            return base
        if isinstance(base, Const):
            if base.value == 0 and ev > 0:
                return ZERO
            if base.value == 1:
                return ONE
            # zero to a negative power stays unfolded, exact or float
            if (isinstance(ev, Fraction) and ev.denominator == 1
                    and base.value != 0):
                return _fold_power(base, expo)
        # (u^c1)^c2 with integer c2 merges exactly
        if isinstance(base, Pow) and isinstance(base.exponent, Const):
            if isinstance(ev, Fraction) and ev.denominator == 1:
                merged = Mul((base.exponent, expo))
                return simplify(Pow(base.base, merged))
        # sqrt(u)^(2k) -> u^k
        if isinstance(base, Fun) and base.fname == "sqrt":
            if isinstance(ev, Fraction) and ev.denominator == 1 and ev % 2 == 0:
                return simplify(Pow(base.arg, Const(ev / 2)))
        # (a*b)^n distributes for integer n
        if isinstance(base, Mul) and isinstance(ev, Fraction) and ev.denominator == 1:
            return simplify(Mul(tuple(Pow(f, expo) for f in base.args)))
    if isinstance(base, Const) and base.value == 1:
        return ONE
    return Pow(base, expo)


_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-9  # rounding slack
# (1 + 2^-20)^(2^20) alone takes seconds to expand exactly
_EXACT_POWER_BITS = 4096


def _fold_power(base: Const, expo: Const) -> Expr:
    """base^n for a nonzero constant base and an integer n.  Judged from n
    and log|base| before anything is computed, a power beyond the float
    range, or whose exact value is too long, stays unfolded, as zero to a
    negative power does."""
    b, n = base.value, int(expo.value)
    if isinstance(b, float):
        log_size, bits = n * math.log(abs(b)), 0
    else:
        num, den = abs(b.numerator), b.denominator
        log_size = n * (math.log(num) - math.log(den))
        bits = abs(n) * max(num.bit_length(), den.bit_length())
    if log_size < _LOG_FLOAT_MAX and bits <= _EXACT_POWER_BITS:
        return Const(b ** n)
    return Pow(base, expo)


def _factor_parts(f: Expr):
    """Split a canonical factor into (base, exponent-expr)."""
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, ONE


def _flat(args, kind) -> list:
    """Canonical arguments with each one of kind replaced by its own
    arguments, which are never of kind."""
    return [b for a in args for b in (a.args if isinstance(a, kind) else (a,))]


def _canon_mul(args) -> Expr:
    # exact until a float factor joins: Fraction * float is a float
    coeff = Fraction(1)
    bases: dict = {}   # base-expr -> its exponents, in first-seen order
    for f in _flat(args, Mul):
        if isinstance(f, Const):
            coeff = coeff * f.value
        else:
            base, expo = _factor_parts(f)
            bases.setdefault(base, []).append(expo)

    if coeff == 0:
        return Const(0.0) if isinstance(coeff, float) else ZERO

    factors = []
    for base, exps in bases.items():
        if len(exps) == 1:
            total = exps[0]
        else:
            total = simplify(Add(tuple(exps)))
        f = _canon_pow(base, total) if not (isinstance(total, Const) and total.value == 1) else base
        if isinstance(f, Const):
            coeff = coeff * f.value
            continue
        if isinstance(f, Mul):
            # exponent merging can re-expand (a*b)^n; flatten once more
            for g in f.args:
                if isinstance(g, Const):
                    coeff = coeff * g.value
                else:
                    factors.append(g)
            continue
        factors.append(f)

    if coeff == 0:
        return Const(0.0) if isinstance(coeff, float) else ZERO
    factors.sort(key=lambda f: f.sort_key())
    cnode = Const(coeff)
    if not factors:
        return cnode
    if coeff != 1 or isinstance(coeff, float):
        factors = [cnode] + factors
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _term_parts(t: Expr):
    """Split a canonical term into (coefficient, monomial factor tuple)."""
    if isinstance(t, Const):
        return t.value, ()
    if isinstance(t, Mul):
        if isinstance(t.args[0], Const):
            return t.args[0].value, t.args[1:]
        return Fraction(1), t.args
    return Fraction(1), (t,)


def _rebuild_term(coeff, factors) -> Expr:
    if coeff == 0:
        return ZERO
    if not factors:
        return Const(coeff)
    if coeff == 1 and isinstance(coeff, Fraction):
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    return Mul((Const(coeff),) + tuple(factors))


def _canon_add(args) -> Expr:
    # a term's sorted factor nodes -> its coefficient, in first-seen order
    terms: dict = {}
    for t in _flat(args, Add):
        coeff, factors = _term_parts(t)
        if coeff != 0:
            c = terms.get(factors)
            terms[factors] = coeff if c is None else c + coeff

    _apply_pair_rules(terms)

    out = [_rebuild_term(coeff, factors)
           for factors, coeff in terms.items() if coeff != 0]
    if not out:
        return ZERO
    out.sort(key=lambda t: t.sort_key())
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


_PAIRS = {"sin": ("cos", 1), "cos": ("sin", 1), "sinh": ("cosh", -1), "cosh": ("sinh", -1)}


def _apply_pair_rules(terms: dict) -> None:
    """sin^2+cos^2 and cosh^2-sinh^2 collapse on equal-coefficient pairs."""
    changed = True
    while changed:
        changed = False
        for factors, coeff in list(terms.items()):
            if coeff == 0:
                continue
            for i, f in enumerate(factors):
                if not (isinstance(f, Pow) and isinstance(f.exponent, Const)
                        and f.exponent.value == 2 and isinstance(f.base, Fun)):
                    continue
                partner = _PAIRS.get(f.base.fname)
                if partner is None:
                    continue
                pname, rel = partner
                pf = Pow(Fun(pname, f.base.arg), Const(2))
                # partner terms are stored with sorted factors already
                pkey = tuple(sorted(factors[:i] + (pf,) + factors[i + 1:],
                                    key=Expr.sort_key))
                pcoeff = terms.get(pkey)
                if pcoeff is None or pcoeff == 0:
                    continue
                want = coeff if rel == 1 else -coeff
                if pcoeff != want:
                    continue
                # collapse: for sin/cos keep coeff; for sinh/cosh the cosh term
                # carries the surviving sign.
                if rel == 1:
                    survivor = coeff
                else:
                    survivor = coeff if f.base.fname == "cosh" else pcoeff
                terms[factors] = 0
                terms[pkey] = 0
                rest = factors[:i] + factors[i + 1:]
                c = terms.get(rest)
                terms[rest] = survivor if c is None else c + survivor
                changed = True
                break
            if changed:
                break
