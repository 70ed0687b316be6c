"""Numeric evaluation: scalar with domain errors, a numpy tape for
vectorized work, and a randomized zero test.

A tape lists the unique subtrees of one or more canonical expressions in
topological order, one instruction each, so a subtree that occurs many
times is evaluated once per run.  Each zero test builds one tape over the
terms of its sum and its constraints; each compiled expression is a
one-root tape.  A slot is cleared after its last use, so evaluating a
long expression on a large grid holds only the arrays still needed.

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

from .nodes import Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var
from .simplify import simplify

DEFAULT_RANGE = (-2.0, 2.0)
CONSTRAINT_MARGIN = 1e-3
_MAX_ROUNDS = 64


def clears_margin(values):
    """Where constraint values admit a point: finite and above
    CONSTRAINT_MARGIN.  Sampled and pinned values meet the same rule."""
    return np.isfinite(values) & (values > CONSTRAINT_MARGIN)


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
    raise TypeError(f"unknown node {type(e).__name__}")


_ADD, _MUL, _POW = "+", "*", "^"  # Fun instructions carry their numpy function


class Tape:
    """The unique subtrees of one or more canonical roots, in topological
    order, each evaluated once per run.

    Slots are keyed by node, which is unique per structure (a float
    constant per bits, so 0.0 and -0.0 stay apart), and a Param, Var or
    Jet leaf by its name.  Each instruction computes what the closure of
    its node kind did: constants are np.float64, a name reads env[name],
    and products and sums fold left in argument order, so every value is
    bit-identical.  A computed slot is cleared after its last use; the
    roots' values are returned by ``run``.
    """

    __slots__ = ("names", "_init", "_loads", "_code", "_roots")

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

    def __len__(self) -> int:
        """The number of unique subtrees, one instruction each."""
        return len(self._init)

    def run(self, env) -> list:
        """The roots' values for env, a mapping of every name in
        ``names`` to a float or an array."""
        r = self._init.copy()
        for k, nm in self._loads:
            r[k] = env[nm]
        for op, out, first, rest, dead in self._code:
            v = r[first]
            if op is _ADD:
                for a in rest:
                    v = v + r[a]
            elif op is _MUL:
                for a in rest:
                    v = v * r[a]
            elif op is _POW:
                v = v ** r[rest[0]]
            else:
                v = op(v)
            r[out] = v
            for d in dead:
                r[d] = None
        return [r[k] for k in self._roots]


def compile_expr(e: Expr):
    """Compile to a closure mapping {name: array-or-float} -> value.
    The expression is canonicalized first."""
    tape = Tape((simplify(e),))
    return lambda env: tape.run(env)[0]


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
