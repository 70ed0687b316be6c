"""The closure compiler that the numeric tape replaced.

Kept verbatim as the oracle the tape is compared with bit for bit: each
node becomes a closure over its children's closures, so a repeated
subtree is compiled and evaluated once per occurrence.  Test-only.
"""

import numpy as np

from pssurf.expr import Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var
from pssurf.expr.numeric import _NP_FUNS


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
    raise TypeError(f"unknown node {type(e).__name__}")
