"""Numeric evaluation: scalar with domain errors, compiled numpy
closures for vectorized work, and a randomized zero test.

The zero test is the workhorse behind every identity check in the
package.  An expression whose canonical form is literally 0 is reported
as proven; otherwise it is sampled at random points and judged by the
relative residual |value| / (1 + sum |top-level terms|), which stays
meaningful when a sum cancels catastrophically.  A nonzero verdict
carries a witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nodes import (
    Add, Const, Div, Expr, Fun, Jet, Mul, Neg, Param, Pow, Var,
    free_names,
)
from .simplify import simplify

DEFAULT_RANGE = (-2.0, 2.0)
CONSTRAINT_MARGIN = 1e-3
_MAX_ROUNDS = 64


class EvalError(ValueError):
    pass


_MATH_FUNS = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "arctan": math.atan,
}

_NP_FUNS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh,
    "arctan": np.arctan,
}


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
    if isinstance(e, Div):
        den = evaluate(e.den, env)
        if den == 0.0:
            raise EvalError("division by zero")
        return evaluate(e.num, env) / den
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    raise TypeError(f"unknown node {type(e).__name__}")


def _compile(e: Expr):
    # constants are numpy scalars, so zero to a negative power gives inf
    # (numpy semantics) instead of raising ZeroDivisionError
    if isinstance(e, Const):
        v = np.float64(e.value)
        return lambda env: v
    if isinstance(e, (Param, Var, Jet)):
        nm = e.name
        return lambda env: env[nm]
    if isinstance(e, Fun):
        g = _compile(e.arg)
        f = _NP_FUNS[e.fname]
        return lambda env: f(g(env))
    if isinstance(e, Pow):
        b = _compile(e.base)
        if isinstance(e.exponent, Const):
            c = np.float64(e.exponent.value)
            return lambda env: b(env) ** c
        p = _compile(e.exponent)
        return lambda env: b(env) ** p(env)
    if isinstance(e, Mul):
        fs = [_compile(a) for a in e.args]
        def mul(env):
            out = fs[0](env)
            for f in fs[1:]:
                out = out * f(env)
            return out
        return mul
    if isinstance(e, Add):
        fs = [_compile(a) for a in e.args]
        def add(env):
            out = fs[0](env)
            for f in fs[1:]:
                out = out + f(env)
            return out
        return add
    if isinstance(e, Div):
        fn, fd = _compile(e.num), _compile(e.den)
        return lambda env: fn(env) / fd(env)
    if isinstance(e, Neg):
        f = _compile(e.arg)
        return lambda env: -f(env)
    raise TypeError(f"unknown node {type(e).__name__}")


def compile_expr(e: Expr):
    """Compile to a closure mapping {name: array-or-float} -> value.
    The expression is canonicalized first."""
    return _compile(simplify(e))


def required_names(e: Expr) -> tuple:
    return tuple(sorted(free_names(simplify(e))))


@dataclass
class ZeroVerdict:
    status: str          # "proven" | "numeric" | "nonzero"
    max_rel: float
    witness: dict | None
    points: int

    def __bool__(self) -> bool:
        return self.status != "nonzero"

    @property
    def proven(self) -> bool:
        return self.status == "proven"

    def __str__(self) -> str:
        if self.status == "proven":
            return "proven zero"
        if self.status == "numeric":
            return f"zero to {self.max_rel:.2e} on {self.points} points"
        return f"nonzero (relative residual {self.max_rel:.2e})"


def is_zero(e: Expr, params: dict | None = None, ranges: dict | None = None,
            constraints=(), n: int = 64, tol: float = 1e-9,
            seed: int = 1234) -> ZeroVerdict:
    """Decide whether ``e`` vanishes identically.

    params       fixed numeric bindings, not sampled
    ranges       name -> (lo, hi) sampling interval, default (-2, 2)
    constraints  expressions that must exceed 1e-3 at accepted points
                 (domain guards such as arguments of log and sqrt)
    """
    canon = simplify(e)
    if isinstance(canon, Const):
        if canon.value == 0:
            return ZeroVerdict("proven", 0.0, None, 0)
        v = abs(float(canon.value))
        rel = v / (1.0 + v)
        verdict = "numeric" if rel <= tol else "nonzero"
        return ZeroVerdict(verdict, rel, dict(params or {}), 0)

    params = {k: float(v) for k, v in (params or {}).items()}
    ranges = dict(ranges or {})
    terms = canon.args if isinstance(canon, Add) else (canon,)
    term_fns = [_compile(t) for t in terms]
    cons = [simplify(c) for c in constraints]
    cons_fns = [_compile(c) for c in cons]

    names = set(free_names(canon))
    for c in cons:
        names |= free_names(c)
    sample_names = sorted(nm for nm in names if nm not in params)

    rel_acc: list[np.ndarray] = []
    env_acc: list[dict] = []
    have = 0
    for _ in range(_MAX_ROUNDS):
        if have >= n:
            break
        m = max(n - have, 16)
        # per-round generator keeps results reproducible for a fixed seed
        rng = np.random.default_rng(seed + 7919 * len(rel_acc))
        rng_env = {}
        for nm in sample_names:
            lo, hi = ranges.get(nm, DEFAULT_RANGE)
            rng_env[nm] = rng.uniform(lo, hi, m)
        env = dict(rng_env)
        env.update(params)
        with np.errstate(all="ignore"):
            ok = np.ones(m, dtype=bool)
            for cf in cons_fns:
                cv = np.broadcast_to(np.asarray(cf(env), dtype=float), (m,))
                ok &= np.isfinite(cv) & (cv > CONSTRAINT_MARGIN)
            vals = [np.broadcast_to(np.asarray(tf(env), dtype=float), (m,))
                    for tf in term_fns]
            total = np.zeros(m)
            scale = np.ones(m)
            for v in vals:
                total = total + v
                scale = scale + np.abs(v)
            ok &= np.isfinite(total) & np.isfinite(scale)
        if not ok.any():
            continue
        rel = np.abs(total[ok]) / scale[ok]
        rel_acc.append(rel)
        kept = {nm: env[nm][ok] for nm in sample_names}
        env_acc.append(kept)
        have += int(ok.sum())

    if have < max(8, n // 4):
        raise EvalError(
            "zero test could not sample the domain: constraints rejected "
            f"almost all points ({have} accepted)")

    rel_all = np.concatenate(rel_acc)[:n] if rel_acc else np.zeros(0)
    max_rel = float(rel_all.max())
    if max_rel <= tol:
        return ZeroVerdict("numeric", max_rel, None, len(rel_all))

    # locate the worst point for the witness
    idx = int(rel_all.argmax())
    off = 0
    witness = dict(params)
    for block_rel, block_env in zip(rel_acc, env_acc):
        k = len(block_rel)
        usable = min(k, len(rel_all) - off)
        if idx < off + usable:
            j = idx - off
            for nm in sample_names:
                witness[nm] = float(block_env[nm][j])
            break
        off += usable
    return ZeroVerdict("nonzero", max_rel, witness, len(rel_all))
