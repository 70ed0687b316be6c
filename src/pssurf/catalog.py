"""Instantiate the classified families of (F, f_ij) data.

Each family id maps to one coefficient table.  Tables are kept symbolic:
named constants stay Param nodes, and user-pinned values travel alongside
in the spec's triple (PssTriple.params), which binds them at evaluation
time.

Each family's parameters are declared once, in _FAMILIES: its builder,
its numeric parameters with their default sampling ranges in draw order,
whether it takes a sign, its text parameters, and the choices random
draws pick from (pools of text values, and named branches such as the
sign of hyp-i's alpha).  build splits the user's values by that entry
before the builder runs, and sample_params is one loop over it.

Each builder names its family's constraints by relation ("eta != 0",
"alpha^2 < 1", ...), as expressions that must clear CONSTRAINT_MARGIN
wherever the table is sampled.  A constraint on parameters alone is
checked once at build against the pinned values: if its names are all
pinned and its value does not clear the margin, the build raises
ConstraintError carrying the relation, so build accepts exactly the
values its zero tests can sample.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .expr import (
    Const,
    EquationContext,
    Expr,
    EvalError,
    Param,
    evaluate,
    free_names,
    is_zero,
    jets_of,
    parse,
    partial,
    simplify,
    sqrt,
    to_text,
    z,
)
from .expr.numeric import CONSTRAINT_MARGIN, clears_margin
from .forms import PssTriple

Z0 = z(0)
Z1 = z(1)


class FamilyId(Enum):
    SG_BASIC = "sg-basic"
    SG_ETA = "sg-eta"
    EVO_HLNONZERO = "evo-hlnonzero"
    EVO_HLZERO = "evo-hlzero"
    HYP_I_GENERAL = "hyp-i"
    HYP_I_QA = "hyp-i-qa"
    HYP_II_GAMMA_NE1 = "hyp-ii"
    HYP_II_GAMMA1 = "hyp-ii-gamma1"
    HYP_III_ZERO = "hyp-iii-zero"
    HYP_III_LAMBDA = "hyp-iii-lambda"
    HYP_III_XI_TAU = "hyp-iii-xi-tau"

    @classmethod
    def from_name(cls, name: str) -> "FamilyId":
        key = name.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key or member.name.lower().replace("_", "-") == key:
                return member
        known = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown family {name!r}; known families: {known}")


class ConstraintError(ValueError):
    """A named parameter relation is violated."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        msg = name if not detail else f"{name}: {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class HLPMQuantities:
    H: Expr
    L: Expr
    P: Expr
    M: Expr


@dataclass
class FamilySpec:
    """One family instance.  params holds the user's choices and the
    branch settings the builder resolved (sign, fkind, f11, ...); the
    table, its equation and its pinned values live in the triple."""

    id: FamilyId
    params: dict
    triple: PssTriple
    # for linearizing families, F'' + alpha*F = 0 with this alpha; the
    # expression is written so the identity cancels structurally
    alpha: Expr = None
    report: list = field(default_factory=list)
    # finite-jet verdicts for this table, keyed by (l, gamma_im)
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ctx(self) -> EquationContext:
        return self.triple.ctx

    def note(self, line: str):
        self.report.append(line)


# aliases accepted on input; the right-hand names are canonical
_ALIASES = {"lam": "lambda", "zeta": "xi", "s": "sign"}


def _normalize(params):
    out, given = {}, {}
    for k, v in (params or {}).items():
        name = _ALIASES.get(k, k)
        if name in out:
            raise ConstraintError(
                "parameter given twice",
                f"{given[name]!r} and {k!r} both name {name!r}")
        out[name], given[name] = v, k
    return out


def _sign_of(params, key="sign"):
    raw = params.get(key, 1)
    if raw in (1, +1, 1.0, "+", "+1", "plus"):
        return 1
    if raw in (-1, -1.0, "-", "-1", "minus"):
        return -1
    raise ConstraintError(key, f"sign flag must be +1 or -1, got {raw!r}")


class _Params:
    """Split user params into pinned values and sampling ranges, by the
    family's entry in _FAMILIES; a signed family's sign is resolved here."""

    def __init__(self, family: FamilyId, raw: dict):
        entry = _FAMILIES[family]
        self.family = family
        self.raw = raw
        self.pinned = {}
        self.ranges = {}
        known = set(entry.numeric) | set(entry.text) | (
            {"sign"} if entry.signed else set())
        for key in raw:
            if key not in known:
                raise ConstraintError(
                    "unknown parameter",
                    f"{key!r} is not a parameter of {family.value} "
                    f"(accepts: {', '.join(sorted(known)) or 'none'})")
        for name, default_range in entry.numeric.items():
            if name in raw and raw[name] is not None:
                value = float(raw[name])
                # before any relation, which would take the blame for it
                if not math.isfinite(value):
                    raise ConstraintError(f"{name} finite", f"{name} = {value}")
                self.pinned[name] = value
            elif default_range is not None:
                self.ranges[name] = default_range
        self.sign = _sign_of(raw) if entry.signed else None


def _spec(ps, kind, F, rows, constraints, text=None):
    """The family's spec, for the equation of the given kind with right-hand
    side F.  constraints maps relation names to expressions; the first, in
    declared order, whose names are all pinned and whose value does not
    clear the margin raises ConstraintError.  text holds the resolved
    text parameters (f11, fkind, ...)."""
    for relation, c in constraints.items():
        names = sorted(free_names(c))
        if not set(names) <= ps.pinned.keys():
            continue
        try:
            value = evaluate(c, ps.pinned)
        except EvalError:
            value = float("nan")
        if not clears_margin(value):
            # a constraint fixed by the table entries alone names no parameter
            raise ConstraintError(
                relation,
                ", ".join(f"{n} = {ps.pinned[n]}" for n in names)
                or f"value {value:g} does not clear the margin "
                   f"{CONSTRAINT_MARGIN:g}")
    tr = PssTriple.from_matrix(
        rows, ctx=EquationContext(kind, F), params=dict(ps.pinned),
        ranges=dict(ps.ranges),
        constraints=tuple(map(simplify, constraints.values())),
        label=ps.family.value)
    return FamilySpec(id=ps.family,
                      params={**ps.pinned,
                              **({} if ps.sign is None else {"sign": ps.sign}),
                              **(text or {})},
                      triple=tr)


# ---------------------------------------------------------------- families

def _build_sg_basic(ps):
    F = parse("sin(z0)")
    rows = (
        (parse("cos(z0/2)"), parse("cos(z0/2)")),
        (parse("sin(z0/2)"), parse("-sin(z0/2)")),
        (parse("z1/2"), parse("-w1/2")),
    )
    return _spec(ps, "hyperbolic", F, rows, {})


def _build_sg_eta(ps):
    eta = Param("eta")
    F = parse("sin(z0)")
    rows = (
        (Const(0), simplify(parse("sin(z0)") / eta)),
        (eta, simplify(parse("cos(z0)") / eta)),
        (Z1, Const(0)),
    )
    return _spec(ps, "hyperbolic", F, rows, {"eta != 0": parse("eta^2")})


def _jets_within(e, allowed, what):
    for j in jets_of(e):
        if (j.dx, j.dt) not in allowed:
            raise ConstraintError(
                f"{what} depends on {j.name}",
                f"{what} may only contain {', '.join(sorted({'z%d' % a for a, _ in allowed}))}")


def _build_evo_hlnonzero(ps):
    s = ps.sign
    f11 = simplify(parse(str(ps.raw.get("f11", "z0"))))
    f22 = simplify(parse(str(ps.raw.get("f22", "z0"))))
    _jets_within(f11, {(0, 0)}, "f11")
    _jets_within(f22, {(0, 0)}, "f22")
    f11_z0 = partial(f11, Z0)
    f22_z0 = partial(f22, Z0)
    if is_zero(f11_z0).status != "nonzero":
        raise ConstraintError("f11_z0 != 0", "f11 must genuinely depend on z0")
    if is_zero(f22_z0).status != "nonzero":
        raise ConstraintError("f22_z0 != 0", "f22 must genuinely depend on z0")

    eta = Param("eta")
    alpha = Param("alpha")
    rad = sqrt(1 - alpha * alpha)
    f31 = simplify(alpha * f11 + Const(s) * eta * rad)

    f22_z0z0 = partial(f22_z0, Z0)
    den = eta * rad
    f12 = simplify(f11 * f22 / eta - Const(s) * f22_z0 * Z1 / den)
    f32 = simplify(f31 * f22 / eta - Const(s) * alpha * f22_z0 * Z1 / den)
    bracket = simplify((1 - alpha * alpha) * f11 - Const(s) * alpha * eta * rad)
    F = simplify(
        -Const(s) * f22_z0 / (den * f11_z0) * z(2)
        - Const(s) * f22_z0z0 / (den * f11_z0) * Z1 * Z1
        + ((eta * eta + f11 * f11 - f31 * f31) * f22_z0 / (eta * bracket * f11_z0)
           + f22 / eta) * Z1
    )
    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {
        "eta != 0": parse("eta^2"),
        "alpha^2 < 1": parse("1 - alpha^2"),
        "(1 - alpha^2)*f11 != sign*alpha*eta*sqrt(1 - alpha^2)":
            simplify(bracket * bracket),
        "f11_z0 != 0": simplify(f11_z0 * f11_z0),
        "f22_z0 != 0": simplify(f22_z0 * f22_z0),
    }
    spec = _spec(ps, "evolution", F, rows, constraints,
                 {"f11": to_text(f11), "f22": to_text(f22)})
    # the supplied f31 is sampled under alpha^2 < 1, which _spec has checked
    if "f31" in ps.raw:
        given = simplify(parse(str(ps.raw["f31"])))
        gap = is_zero(simplify(given - f31), params=ps.pinned, ranges=ps.ranges,
                      constraints=(parse("1 - alpha^2"),))
        if not gap:
            raise ConstraintError(
                "f31 = alpha*f11 +/- eta*sqrt(1 - alpha^2)",
                f"supplied f31 = {to_text(given)} does not match the sign {s:+d} branch")
    validate_evolution_constraints(spec)
    return spec


def _build_evo_hlzero(ps):
    s = ps.sign
    f11 = simplify(parse(str(ps.raw.get("f11", "exp(z0)"))))
    f12 = simplify(parse(str(ps.raw.get("f12", "exp(z0)*z1"))))
    _jets_within(f11, {(0, 0)}, "f11")
    _jets_within(f12, {(0, 0), (1, 0)}, "f12")
    f11_z0 = partial(f11, Z0)
    f12_z1 = partial(f12, Z1)
    if is_zero(f11_z0).status != "nonzero":
        raise ConstraintError("f11_z0 != 0", "f11 must genuinely depend on z0")
    if is_zero(f12_z1).status != "nonzero":
        raise ConstraintError(
            "f12_z1 != 0", "the evolution equation is not of second-order")

    eta = Param("eta")
    lam = Param("lambda")
    f22 = lam
    f31 = simplify(Const(s) * f11)
    f32 = simplify(Const(s) * f12)
    F = simplify(
        f12_z1 / f11_z0 * z(2)
        + partial(f12, Z0) / f11_z0 * Z1
        - Const(s) * (lam * f11 - eta * f12) / f11_z0
    )
    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {"eta != 0": parse("eta^2"),
                   "f11_z0 != 0": simplify(f11_z0 * f11_z0)}
    spec = _spec(ps, "evolution", F, rows, constraints,
                 {"f11": to_text(f11), "f12": to_text(f12)})
    validate_evolution_constraints(spec)
    return spec


def _fun(name, arg):
    from .expr import nodes

    return simplify(nodes.Fun(name, arg))


def _build_hyp_i(ps):
    qa = ps.family is FamilyId.HYP_I_QA
    # alpha > 0 takes the family's default ranges and fkinds; alpha < 0, the
    # general family's other draw branch
    trig = _FAMILIES[ps.family].pools["fkind"]
    neg = _FAMILIES[FamilyId.HYP_I_GENERAL].branches["alpha < 0"][1]
    hyperbolic = neg["fkind"]

    A = Param("A")
    B = Param("B") if not qa else Const(0)
    eta = Param("eta")
    Q = Param("Q")

    fkind = ps.raw.get("fkind")
    if fkind is not None and fkind not in trig + hyperbolic:
        raise ConstraintError(
            "fkind", f"must be one of {', '.join(trig + hyperbolic)}")
    a_v, b_v = ps.pinned.get("A"), (0.0 if qa else ps.pinned.get("B"))
    if qa:
        alpha_sign = 1
    elif a_v is not None and b_v is not None:
        # A^2 = B^2 lands on the alpha < 0 branch, whose A^2 - B^2 != 0
        # constraint rejects it
        alpha_sign = 1 if a_v ** 2 > b_v ** 2 else -1
    else:
        # symbolic A, B: ranges must commit to one sign of alpha
        alpha_sign = -1 if fkind in hyperbolic else 1
        if alpha_sign < 0:
            ps.ranges["A"], ps.ranges["B"] = neg["A"], neg["B"]
    if fkind is None:
        fkind = (trig if alpha_sign > 0 else hyperbolic)[0]

    if qa:
        alpha = simplify(1 / (A * A))
        scale_sq = simplify(A * A)
    else:
        alpha = simplify(1 / (A * A - B * B))
        scale_sq = simplify(A * A - B * B) if alpha_sign > 0 else simplify(B * B - A * A)
    # written over the branch's positive radicand so F'' + alpha*F cancels
    # structurally, not just numerically
    alpha_for_F = simplify(Const(alpha_sign) / scale_sq)

    F = _fun(fkind, simplify(Z0 / sqrt(scale_sq)))
    Fp = partial(F, Z0)
    wden = simplify(Q * Q * alpha + eta * eta)

    if qa:
        f11 = simplify(alpha * A * Q)
        f31 = simplify(-alpha * A * Z1)
        f32 = Const(0)
    else:
        f11 = simplify(-alpha * (B * Z1 - A * Q))
        f31 = simplify(-alpha * (A * Z1 - B * Q))
        f32 = simplify(B * alpha * (Q * Fp - eta * F) / wden)
    f12 = simplify(A * alpha * (Q * Fp - eta * F) / wden)
    f22 = simplify((eta * Fp + alpha * Q * F) / wden)

    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {"eta != 0": parse("eta^2"), "A != 0": parse("A^2")}
    if not qa:
        constraints["A^2 - B^2 != 0"] = scale_sq
    constraints[f"{to_text(wden)} != 0"] = simplify(wden * wden)
    spec = _spec(ps, "hyperbolic", F, rows, constraints, {"fkind": fkind})
    # checked after the constraints, so that A^2 = B^2 is named as such
    if qa and fkind in hyperbolic:
        raise ConstraintError(
            "alpha > 0", "alpha = 1/A^2 is positive; sinh/cosh need alpha < 0")
    if alpha_sign > 0 and fkind in hyperbolic:
        raise ConstraintError(
            "alpha < 0", f"A = {a_v}, B = {b_v} give alpha > 0; use sin/cos")
    if alpha_sign < 0 and fkind in trig:
        raise ConstraintError(
            "alpha > 0", f"A = {a_v}, B = {b_v} give alpha < 0; use sinh/cosh")
    spec.alpha = alpha_for_F
    if alpha_sign < 0:
        spec.note("alpha = 1/(A^2 - B^2) < 0 for these parameters")
    return spec


def _build_hyp_ii_gamma_ne1(ps):
    s = ps.sign
    eta = Param("eta")
    gamma = Param("gamma")
    delta = Param("delta")
    nu = Param("nu")
    beta = Param("beta")
    B = Param("B")

    a_pinned = "A" in ps.pinned
    # the relation pins A up to sign; keep the positive root
    A = Param("A") if a_pinned else simplify(
        sqrt(B * B + (gamma - 1) / (delta * delta)))

    rootD = sqrt(beta + gamma * Z1 * Z1)
    egz = _fun("exp", simplify(delta * Z0))
    dfac = simplify(delta * delta / (gamma - 1))
    f11 = simplify(eta * A * delta - (B * Z1 - Const(s) * A * rootD) * dfac)
    f31 = simplify(eta * B * delta - (A * Z1 - Const(s) * B * rootD) * dfac)
    f12 = simplify(Const(s) * A * delta * nu * egz)
    f22 = simplify(Const(s) * nu * egz)
    f32 = simplify(Const(s) * B * delta * nu * egz)
    F = simplify(nu * egz * rootD)

    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {"eta != 0": parse("eta^2"), "delta != 0": parse("delta^2"),
                   "nu != 0": parse("nu^2"), "gamma != 1": parse("(gamma - 1)^2"),
                   "beta + gamma*z1^2 > 0": simplify(beta + gamma * Z1 * Z1)}
    if not a_pinned:
        constraints["A^2 = B^2 + (gamma - 1)/delta^2 > 0"] = simplify(
            B * B + (gamma - 1) / (delta * delta))
    spec = _spec(ps, "hyperbolic", F, rows, constraints)
    # after _spec, which has checked delta != 0
    if a_pinned:
        a_v, b_v = ps.pinned.get("A"), ps.pinned.get("B")
        d_v, g_v = ps.pinned.get("delta"), ps.pinned.get("gamma")
        if None in (b_v, d_v, g_v):
            raise ConstraintError(
                "A^2 - B^2 = (gamma - 1)/delta^2",
                "pin B, gamma and delta together with A")
        ab_gap = a_v ** 2 - b_v ** 2 - (g_v - 1.0) / d_v ** 2
        if abs(ab_gap) > 1e-6:
            raise ConstraintError(
                "A^2 - B^2 = (gamma - 1)/delta^2",
                f"off by {ab_gap:.3g} for A={a_v}, B={b_v}, gamma={g_v}, delta={d_v}")
    return spec


def _build_hyp_ii_gamma1(ps):
    s = ps.sign
    eta = Param("eta")
    delta = Param("delta")
    nu = Param("nu")
    A = Param("A")
    egz = _fun("exp", simplify(delta * Z0))

    half = Const(1) / 2
    f11 = simplify(half * (1 / A + delta * delta * A) * Z1 + eta * delta * A)
    # the sign flag rides on the whole exponential column; the z1-free term
    # of f31 does not flip, or R1 picks up a constant 2*eta*delta*A*exp(delta*z0)
    f31 = simplify(half * (-1 / A + delta * delta * A) * Z1 + eta * delta * A)
    f12 = simplify(Const(s) * A * delta * nu * egz)
    f22 = simplify(Const(s) * nu * egz)
    f32 = simplify(Const(s) * A * delta * nu * egz)
    # beta = 0, gamma = 1: sqrt(z1^2) = |z1|; the sign flag picks the halfplane
    F = simplify(nu * egz * sqrt(Z1 * Z1))

    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {"eta != 0": parse("eta^2"), "delta != 0": parse("delta^2"),
                   "nu != 0": parse("nu^2"), "A != 0": parse("A^2"),
                   "sign*z1 > 0": simplify(Const(s) * Z1)}
    return _spec(ps, "hyperbolic", F, rows, constraints)


def _build_hyp_iii_zero(ps):
    eta = Param("eta")
    ez = _fun("exp", Z0)
    F = Const(0)
    rows = ((Z1, Const(0)), (eta, ez), (eta, ez))
    return _spec(ps, "hyperbolic", F, rows, {"eta != 0": parse("eta^2")})


def _build_hyp_iii_lambda(ps):
    s = ps.sign
    eta = Param("eta")
    lam = Param("lambda")
    xi = Param("xi")
    tau = Param("tau")
    T = Param("T")

    f11 = simplify(Const(s) * eta * T * Z1 / lam)
    f31 = simplify(eta * T * Z1 / lam)
    f12 = simplify(T * Z0 + tau * T / lam)
    f22 = simplify(lam / eta - Const(s) * xi)
    f32 = simplify(Const(s) * T * Z0 + Const(s) * tau * T / lam)
    F = simplify(lam * Z0 + xi * Z1 + tau)

    rows = ((f11, f12), (eta, f22), (f31, f32))
    constraints = {"eta != 0": parse("eta^2"), "lambda != 0": parse("lambda^2"),
                   "T != 0": parse("T^2")}
    return _spec(ps, "hyperbolic", F, rows, constraints)


def _build_hyp_iii_xi_tau(ps):
    xi_v = ps.pinned.get("xi")

    eta = Param("eta")
    xi = Param("xi")
    tau = Param("tau")

    if xi_v == 0.0:
        # integral of 1/tau dz1
        g = simplify(Z1 / tau)
        constraints = {"eta != 0": parse("eta^2"),
                       "xi^2 + tau^2 != 0": parse("tau^2")}
    else:
        # integral of 1/(xi z1 + tau) dz1
        g = simplify(_fun("log", simplify(xi * Z1 + tau)) / xi)
        constraints = {"eta != 0": parse("eta^2"),
                       "xi != 0, or exactly 0": parse("xi^2"),
                       "xi*z1 + tau > 0": simplify(xi * Z1 + tau)}

    F = simplify(xi * Z1 + tau)
    inv_eta = simplify(1 / eta)
    rows = ((g, inv_eta), (eta, Const(0)), (g, inv_eta))
    return _spec(ps, "hyperbolic", F, rows, constraints)


class _Family(NamedTuple):
    """One family's parameters, as plain data.

    numeric maps each numeric parameter, in draw order, to its default
    sampling range (None for a value the builder derives); text names the
    parameters given as text.  pools and branches are draw choices only:
    pools maps a text parameter to the values sample_params picks from,
    and branches maps a branch name to (threshold, overrides), the first
    branch whose threshold exceeds one uniform draw replacing ranges and
    pools by its overrides (a number pins the parameter).
    """

    build: Callable
    numeric: dict
    signed: bool = False
    text: tuple = ()
    pools: dict = {}
    branches: dict = {}


_EVO_F11_POOL = ("z0", "exp(z0)", "2*z0 + 1", "z0 + z0^3/3")

_FAMILIES = {
    FamilyId.SG_BASIC: _Family(_build_sg_basic, {}),
    FamilyId.SG_ETA: _Family(_build_sg_eta, {"eta": (0.5, 2.0)}),
    FamilyId.EVO_HLNONZERO: _Family(
        _build_evo_hlnonzero, {"eta": (0.5, 2.0), "alpha": (-0.7, 0.7)},
        signed=True, text=("f11", "f22", "f31"),
        pools={"f11": _EVO_F11_POOL, "f22": ("z0", "exp(z0)", "z0/2 + 2")}),
    FamilyId.EVO_HLZERO: _Family(
        _build_evo_hlzero, {"eta": (0.5, 2.0), "lambda": (0.5, 1.5)},
        signed=True, text=("f11", "f12"),
        pools={"f11": _EVO_F11_POOL,
               "f12": ("exp(z0)*z1", "z0*z1 + 2*z1", "z1 + z1*exp(z0)")}),
    FamilyId.HYP_I_GENERAL: _Family(
        _build_hyp_i,
        {"eta": (0.5, 2.0), "A": (1.3, 2.0), "B": (0.2, 0.9), "Q": (-0.8, 0.8)},
        text=("fkind",), pools={"fkind": ("sin", "cos")},
        branches={"alpha > 0": (0.5, {}),
                  "alpha < 0": (1.0, {"A": (0.2, 0.9), "B": (1.3, 2.0),
                                      "fkind": ("sinh", "cosh")})}),
    FamilyId.HYP_I_QA: _Family(
        _build_hyp_i, {"eta": (0.5, 2.0), "A": (0.8, 2.0), "Q": (-0.8, 0.8)},
        text=("fkind",), pools={"fkind": ("sin", "cos")}),
    FamilyId.HYP_II_GAMMA_NE1: _Family(
        _build_hyp_ii_gamma_ne1,
        {"eta": (0.5, 2.0), "gamma": (1.3, 2.2), "delta": (0.6, 1.4),
         "nu": (0.5, 1.5), "beta": (0.5, 1.5), "B": (0.3, 1.0), "A": None},
        signed=True),
    FamilyId.HYP_II_GAMMA1: _Family(
        _build_hyp_ii_gamma1,
        {"eta": (0.5, 2.0), "delta": (0.6, 1.4), "nu": (0.5, 1.5),
         "A": (0.8, 1.6)},
        signed=True),
    FamilyId.HYP_III_ZERO: _Family(_build_hyp_iii_zero, {"eta": (0.5, 2.0)}),
    FamilyId.HYP_III_LAMBDA: _Family(
        _build_hyp_iii_lambda,
        {"eta": (0.5, 2.0), "lambda": (0.5, 1.5), "xi": (-0.5, 0.5),
         "tau": (-1.0, 1.0), "T": (0.5, 1.5)},
        signed=True),
    FamilyId.HYP_III_XI_TAU: _Family(
        _build_hyp_iii_xi_tau,
        {"eta": (0.5, 2.0), "xi": (0.3, 0.7), "tau": (3.5, 5.0)},
        branches={"xi = 0": (0.25, {"xi": 0.0, "tau": (0.5, 1.5)}),
                  "xi != 0": (1.0, {})}),
}


def build(family, params=None) -> FamilySpec:
    """Construct the coefficient table of one family, validating parameters."""
    if not isinstance(family, FamilyId):
        family = FamilyId.from_name(str(family))
    return _FAMILIES[family].build(_Params(family, _normalize(params)))


def hlpm(f11: Expr, f31: Expr) -> HLPMQuantities:
    """The four z0-derivative combinations classifying evolution tables."""
    f11_z0 = partial(f11, Z0)
    f31_z0 = partial(f31, Z0)
    return HLPMQuantities(
        H=simplify(f11 * f11_z0 - f31 * f31_z0),
        L=simplify(f11 * f31_z0 - f31 * f11_z0),
        P=simplify(f11_z0 * partial(f31_z0, Z0) - f31_z0 * partial(f11_z0, Z0)),
        M=simplify(f31_z0 * f31_z0 - f11_z0 * f11_z0),
    )


def validate_evolution_constraints(spec: FamilySpec):
    """Check the defining relations of an evolution table, named on failure."""
    if spec.id not in (FamilyId.EVO_HLNONZERO, FamilyId.EVO_HLZERO):
        raise ConstraintError(
            "evolution family required", f"{spec.id.value} is not an evolution id")
    tr = spec.triple
    f11, f12, f22, f31, f32 = (tr.f(1, 1), tr.f(1, 2), tr.f(2, 2),
                               tr.f(3, 1), tr.f(3, 2))

    # second-order necessary conditions: no z2 anywhere, no z1 in the dx row
    for name, e in (("f11", f11), ("f12", f12), ("f22", f22),
                    ("f31", f31), ("f32", f32)):
        for j in jets_of(e):
            if j.dx >= 2 or j.dt >= 1:
                raise ConstraintError("f_ij independent of z2", f"{name} contains {j.name}")
    for name, e in (("f11", f11), ("f31", f31), ("f22", f22)):
        if any(j.dx == 1 for j in jets_of(e)):
            raise ConstraintError(f"{name} independent of z1", to_text(e))

    q = hlpm(f11, f31)
    nc2 = tr.check_zero(simplify(partial(f11, Z0) ** 2 + partial(f31, Z0) ** 2))
    if nc2.status != "nonzero":
        raise ConstraintError("f11_z0^2 + f31_z0^2 != 0", str(nc2))

    lines = []
    eta = Param("eta")
    if spec.id is FamilyId.EVO_HLNONZERO:
        for name, e in (("P = 0", q.P),
                        ("M = -L^2/eta^2", simplify(q.M + q.L * q.L / (eta * eta)))):
            v = tr.check_zero(e)
            if not v:
                raise ConstraintError(name, str(v))
            lines.append(f"{name}: {v.status}")
        hl = tr.check_zero(simplify(q.H * q.L))
        if hl.status != "nonzero":
            raise ConstraintError("H*L != 0", str(hl))
        lines.append("H*L != 0: confirmed")
    else:
        v = tr.check_zero(q.L)
        if not v:
            raise ConstraintError("L = 0", str(v))
        lines.append(f"L = 0: {v.status}")
        s = spec.params.get("sign", 1)
        for name, e in ((f"f31 = {s:+d}*f11", simplify(f31 - Const(s) * f11)),
                        (f"f32 = {s:+d}*f12", simplify(f32 - Const(s) * f12))):
            v = tr.check_zero(e)
            if not v:
                raise ConstraintError(name, str(v))
            lines.append(f"{name}: {v.status}")
        if jets_of(f22):
            raise ConstraintError("f22 = lambda, a constant", to_text(f22))
    spec.report.extend(lines)
    return q


# ------------------------------------------------------------ random draws

def sample_params(family, rng=None, seed=None) -> dict:
    """One random parameter draw for the family, from its _FAMILIES entry.

    The draws come in a fixed order: the sign (for every family, so that
    each family consumes the generator alike), the branch, the numeric
    parameters in declared order, then the pool picks.
    """
    if not isinstance(family, FamilyId):
        family = FamilyId.from_name(str(family))
    if rng is None:
        rng = np.random.default_rng(seed)
    entry = _FAMILIES[family]
    sign = 1 if rng.random() < 0.5 else -1
    choices = {**entry.numeric, **entry.pools}
    if entry.branches:
        r = rng.random()
        choices.update(next(over for threshold, over in entry.branches.values()
                            if r < threshold))
    out = {}
    for name in entry.numeric:
        c = choices[name]
        if c is not None:
            out[name] = float(rng.uniform(*c)) if isinstance(c, tuple) else c
    if entry.signed:
        out["sign"] = sign
    for name in entry.pools:
        out[name] = str(rng.choice(choices[name]))
    return out
