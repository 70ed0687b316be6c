"""Numeric code that faster versions replaced, kept verbatim as oracles.

The closure compiler is the oracle the tape is compared with bit for
bit: each node becomes a closure over its children's closures, so a
repeated subtree is compiled and evaluated once per occurrence.  The
zero test with per-term loops is the oracle of the zero test that
reduces a stacked array once per round.  Test-only.
"""

import numpy as np

from pssurf.expr import Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var
from pssurf.expr.numeric import (
    _MAX_ROUNDS, _NP_FUNS, DEFAULT_RANGE, EvalError, Tape, ZeroVerdict,
    clears_margin,
)
from pssurf.expr.simplify import simplify


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


def loop_is_zero(e: Expr, params: dict | None = None,
                 ranges: dict | None = None, constraints=(), n: int = 64,
                 tol: float = 1e-9, seed: int = 1234) -> ZeroVerdict:
    """is_zero with the per-term loops that the stacked reduction
    replaced: one ufunc call per term and per constraint in each round.

    params       fixed numeric bindings, not sampled
    ranges       name -> (lo, hi) sampling interval, default (-2, 2)
    constraints  expressions that must clear CONSTRAINT_MARGIN at
                 accepted points (see clears_margin)
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
    tape = Tape(terms + tuple(simplify(c) for c in constraints))
    sample_names = [nm for nm in tape.names if nm not in params]

    rel_acc: list[np.ndarray] = []
    env_acc: list[dict] = []
    have = rejected = non_finite = 0
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
            vals = tape.run(env)
            admitted = np.ones(m, dtype=bool)
            for cv in vals[len(terms):]:
                admitted &= clears_margin(cv)
            total = np.zeros(m)
            scale = np.ones(m)
            for v in vals[:len(terms)]:
                total = total + v
                scale = scale + np.abs(v)
            ok = admitted & np.isfinite(total) & np.isfinite(scale)
        rejected += m - int(admitted.sum())
        non_finite += int((admitted & ~ok).sum())
        if not ok.any():
            continue
        rel = np.abs(total[ok]) / scale[ok]
        rel_acc.append(rel)
        kept = {nm: env[nm][ok] for nm in sample_names}
        env_acc.append(kept)
        have += int(ok.sum())

    if have < max(8, n // 4):
        raise EvalError(
            f"zero test could not sample the domain: {have} points accepted,"
            f" {rejected} rejected by the constraints and {non_finite} where"
            " the expression is not finite")

    rel_all = np.concatenate(rel_acc)[:n] if rel_acc else np.zeros(0)
    max_rel = float(rel_all.max())
    if max_rel <= tol:
        return ZeroVerdict("numeric", max_rel, None, len(rel_all))

    # the worst point, at the same index of the rounds' points in order
    idx = int(rel_all.argmax())
    witness = dict(params)
    for nm in sample_names:
        witness[nm] = float(np.concatenate([e[nm] for e in env_acc])[idx])
    return ZeroVerdict("nonzero", max_rel, witness, len(rel_all))
