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

from .nodes import Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var, postorder
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
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "sin": math.sin,
    "cos": math.cos, "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh,
    "arctan": math.atan,
}

_NP_FUNS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh,
    "arctan": np.arctan,
}


def evaluate(e: Expr, env: dict) -> float:
    """Evaluate at a point given by name -> float.  Raises EvalError on
    unbound names and domain violations."""
    val = {}  # node -> its value
    for node in postorder((e,)):
        if isinstance(node, Const):
            v = float(node.value)
        elif isinstance(node, (Param, Var, Jet)):
            if node.name not in env:
                raise EvalError(f"unbound name {node.name!r}")
            v = float(env[node.name])
        elif isinstance(node, Fun):
            v = val[node.arg]
            if node.fname == "log" and v <= 0.0:
                raise EvalError(f"log of non-positive value {v}")
            if node.fname == "sqrt" and v < 0.0:
                raise EvalError(f"sqrt of negative value {v}")
            try:
                v = _MATH_FUNS[node.fname](v)
            except OverflowError:
                raise EvalError(f"overflow in {node.fname}({v})") from None
        elif isinstance(node, Pow):
            b, p = val[node.base], val[node.exponent]
            if b == 0.0 and p < 0.0:
                raise EvalError("zero raised to a negative power")
            if b < 0.0 and p != int(p):
                raise EvalError(f"negative base {b} with fractional exponent {p}")
            try:
                v = b ** p
            except OverflowError:
                raise EvalError(f"overflow in {b} ** {p}") from None
        elif isinstance(node, Mul):
            v = 1.0
            for a in node.args:
                v *= val[a]
        else:
            v = math.fsum(val[a] for a in node.args)
        val[node] = v
    return val[e]


_ADD, _MUL, _POW = "+", "*", "^"  # Fun instructions carry their numpy function


class Tape:
    """The unique subtrees of one or more canonical roots, in topological
    order, each evaluated once per run.

    The instructions follow ``postorder`` of the roots, so a root of any
    depth compiles.  Slots are keyed by node, which is unique per
    structure (a float constant per bits, so 0.0 and -0.0 stay apart),
    and a Param, Var or Jet leaf by its name.  Each instruction computes
    what the closure of its node kind did: constants are np.float64, a
    name reads env[name], and products and sums fold left in argument
    order, so every value is bit-identical.  A computed slot is cleared
    after its last use; the roots' values are returned by ``run``.
    """

    __slots__ = ("names", "_init", "_loads", "_code", "_roots")

    def __init__(self, roots):
        slot_of = {}  # node -> slot
        named = {}    # a Param/Var/Jet leaf's name -> slot
        last = {}     # slot -> the last instruction that reads it
        init, loads, code = [], [], []
        for node in postorder(roots):
            kind = type(node)
            if kind is Const:
                # a constant's value is filled in once, for every run
                slot_of[node] = len(init)
                init.append(np.float64(node.value))
                continue
            if kind is Param or kind is Var or kind is Jet:
                slot = named.get(node.name)
                if slot is None:
                    slot = named[node.name] = len(init)
                    init.append(None)
                    loads.append((slot, node.name))
                slot_of[node] = slot
                continue
            args = tuple(map(slot_of.__getitem__, node.children()))
            for a in args:
                last[a] = len(code)
            op = (_NP_FUNS[node.fname] if kind is Fun else _POW if kind is Pow
                  else _MUL if kind is Mul else _ADD)
            slot = slot_of[node] = len(init)
            init.append(None)
            code.append((op, slot, args[0], args[1:]))
        self._roots = tuple(slot_of[root] for root in roots)
        # clear each slot, other than a root, after its last use
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


@dataclass(frozen=True)
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

    Points are drawn in rounds until n are accepted.  Sampling ends early
    at a round that admits no point; the verdict then rests on the points
    gathered so far (``ZeroVerdict.points``), which must number at least
    max(8, n // 4), or EvalError is raised.
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
    k = len(terms)
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
            # a row of ones, then one row per term and per constraint.
            # add.reduce along axis 0 folds the rows in order, so total and
            # scale have the bits of a sum taken term by term
            vals = tape.run(env)
            rows = np.empty((1 + len(vals), m))
            rows[0] = 1.0
            for i, v in enumerate(vals, start=1):
                rows[i] = v
            admitted = clears_margin(rows[1 + k:]).all(axis=0)
            total = np.add.reduce(rows[1:1 + k], axis=0)
            scale = np.add.reduce(np.abs(rows[:1 + k]), axis=0)
            ok = admitted & np.isfinite(total) & np.isfinite(scale)
        rejected += m - int(admitted.sum())
        non_finite += int((admitted & ~ok).sum())
        if not ok.any():
            # the next round would reuse this round's seed, since rel_acc
            # has not grown, and so draw and reject the same points again
            break
        rel = np.abs(total[ok]) / scale[ok]
        rel_acc.append(rel)
        kept = {nm: env[nm][ok] for nm in sample_names}
        env_acc.append(kept)
        have += int(ok.sum())

    if have < max(8, n // 4):
        # with no finite point, the pinned values are the likely cause
        pinned = ", ".join(f"{nm} = {v:g}" for nm, v in sorted(params.items()))
        raise EvalError(
            f"zero test could not sample the domain: {have} points accepted,"
            f" {rejected} rejected by the constraints and {non_finite} where"
            " the expression is not finite"
            + (f" (pinned: {pinned})" if pinned and not have else ""))

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
