"""Second fundamental forms compatible with a coefficient table.

A surface patch carries ac - b^2 = -1 (Gauss) and a pair of first-order
compatibility equations (Codazzi) tying (a, b, c) to the table.  This
module holds the form type, the open strips the universal forms live on,
and the residual computations used to check them; which form a table
admits is decided by the finite-jet analysis in ``obstruction``.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..catalog import ConstraintError
from ..expr import (
    Const,
    Expr,
    Fun,
    Param,
    T,
    X,
    evaluate,
    is_zero,
    simplify,
    sqrt,
    total_t,
    total_x,
)
from ..forms import PssTriple, delta


class NoImmersion(ValueError):
    """No second fundamental form of finite jet order exists for the table."""


@dataclass(frozen=True)
class DomainStrip:
    """Open strip lower < sign*(p*x + q*t) < upper in the (x, t) plane.

    The bounds come from requiring a^2 = l*E - gamma_im^2*E^2 - 1 > 0 with
    E = exp(2*sign*(p*x + q*t)); finite l > 2*|gamma_im| makes the strip
    nonempty.  p and q may name parameters, bound by the caller's env.
    """

    sign: int
    p: Expr
    q: Expr
    l: float
    gamma_im: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ConstraintError("sign", f"strip sign must be +1 or -1, got {self.sign}")
        if not (math.isfinite(self.l) and math.isfinite(self.gamma_im)):
            raise ConstraintError(
                "l and gamma_im finite", f"l = {self.l}, gamma_im = {self.gamma_im}")
        if not self.l > 0:
            raise ConstraintError("l > 0", f"l = {self.l}")
        # l^2 > 4*gamma_im^2 for l > 0, without squaring
        if not self.l > 2 * abs(self.gamma_im):
            raise ConstraintError(
                "l^2 > 4*gamma_im^2", f"l = {self.l}, gamma_im = {self.gamma_im}")

    def _root(self) -> float:
        """sqrt(1 - r^2) with r = 2*|gamma_im|/l < 1.  The bounds are the
        logarithms of E = (l -/+ sqrt(l^2 - 4*gamma_im^2))/(2*gamma_im^2)
        over 2, written in r so that no square overflows and the smaller
        root does not cancel."""
        r = 2 * abs(self.gamma_im) / self.l
        return math.sqrt((1 - r) * (1 + r))

    @property
    def lower(self) -> float:
        if self.gamma_im == 0.0:
            return -0.5 * math.log(self.l)
        return 0.5 * (math.log(2 / (1 + self._root())) - math.log(self.l))

    @property
    def upper(self) -> float:
        if self.gamma_im == 0.0:
            return math.inf
        return 0.5 * (math.log((1 + self._root()) / 2) + math.log(self.l)
                      - 2 * math.log(abs(self.gamma_im)))

    def form(self) -> Expr:
        return simplify(Const(self.sign) * (self.p * X + self.q * T))

    def coefficients(self, params=None):
        """p and q at the parameter values params."""
        env = params or {}
        return evaluate(self.p, env), evaluate(self.q, env)

    def constraint_exprs(self):
        # for rejection sampling: both must stay positive inside the strip,
        # kept 0.02 clear of its edges where a^2 vanishes
        s = self.form()
        out = [simplify(s - Const(self.lower + 0.02))]
        if math.isfinite(self.upper):
            out.append(simplify(Const(self.upper - 0.02) - s))
        return tuple(out)


def strip_contains(strip: DomainStrip, x, t, params=None):
    """Whether (x, t) lies strictly inside the strip; arrays broadcast.
    params binds the parameters p and q name."""
    pv, qv = strip.coefficients(params)
    s = strip.sign * (pv * np.asarray(x, dtype=float) + qv * np.asarray(t, dtype=float))
    inside = (s > strip.lower) & (s < strip.upper)
    if np.isscalar(x) and np.isscalar(t):
        return bool(inside)
    return inside


def sample_strip_points(strip: DomainStrip, n, rng=None, params=None, margin=0.05):
    """n points (x, t) strictly inside the strip, t drawn in [-2, 2];
    params binds the parameters p and q name."""
    if rng is None:
        rng = np.random.default_rng(0)
    pv, qv = strip.coefficients(params)
    if abs(pv) < 1e-12:
        raise ConstraintError("p != 0", "strip form does not involve x")
    hi = strip.upper if math.isfinite(strip.upper) else strip.lower + 5.0
    s = rng.uniform(strip.lower + margin, hi - margin, size=n)
    t = rng.uniform(-2.0, 2.0, size=n)
    x = (s / strip.sign - qv * t) / pv
    return x, t


@dataclass(frozen=True)
class SecondFundamentalForm:
    a: Expr
    b: Expr
    c: Expr
    strip: DomainStrip = None
    constraints: tuple = ()
    label: str = ""

    @property
    def params(self) -> dict:
        """The values of the form's own parameters: a universal form's
        strip constants; a zero-jet form has none."""
        if self.strip is None:
            return {}
        return {"l": self.strip.l, "gamma_im": self.strip.gamma_im}

    def as_tuple(self):
        return (self.a, self.b, self.c)


def gauss_residual(sff: SecondFundamentalForm) -> Expr:
    """ac - b^2 + 1; identically zero exactly when Gauss holds."""
    return simplify(sff.a * sff.c - sff.b * sff.b + Const(1))


def codazzi_residuals(tr: PssTriple, sff: SecondFundamentalForm):
    """The two compatibility residuals; zero mod the equation iff Codazzi holds.

    Derivatives are total in (x, t); mixed jets are eliminated through the
    table's equation context.
    """
    ctx = tr.ctx
    a, b, c = sff.a, sff.b, sff.c
    f11, f12 = tr.f(1, 1), tr.f(1, 2)
    f21, f22 = tr.f(2, 1), tr.f(2, 2)
    d13 = delta(tr, 1, 3)
    d23 = delta(tr, 2, 3)
    e1 = simplify(
        f11 * total_t(a, ctx) + f21 * total_t(b, ctx)
        - f12 * total_x(a, ctx) - f22 * total_x(b, ctx)
        - 2 * b * d13 + (a - c) * d23
    )
    e2 = simplify(
        f11 * total_t(b, ctx) + f21 * total_t(c, ctx)
        - f12 * total_x(b, ctx) - f22 * total_x(c, ctx)
        + (a - c) * d13 + 2 * b * d23
    )
    return e1, e2


@dataclass
class ImmersionReport:
    gauss: object
    codazzi: tuple
    ok: bool

    def lines(self):
        out = [f"gauss residual: {self.gauss}"]
        for k, v in enumerate(self.codazzi, start=1):
            out.append(f"codazzi residual {k}: {v}")
        out.append("immersion data consistent" if self.ok else "immersion data FAILS")
        return out


def verify_immersion(tr: PssTriple, sff: SecondFundamentalForm,
                     n=64, tol=1e-8, seed=1234) -> ImmersionReport:
    """Check Gauss exactly/numerically and Codazzi mod the equation."""
    kw = tr.zero_kwargs()
    kw["constraints"] = tuple(kw["constraints"]) + tuple(sff.constraints)
    kw.update(params={**tr.params, **sff.params}, n=n, tol=tol, seed=seed)
    g = is_zero(gauss_residual(sff), **kw)
    e1, e2 = codazzi_residuals(tr, sff)
    v1 = is_zero(e1, **kw)
    v2 = is_zero(e2, **kw)
    ok = bool(g) and bool(v1) and bool(v2)
    return ImmersionReport(gauss=g, codazzi=(v1, v2), ok=ok)


# ------------------------------------------------------------ universal forms


def universal_form(strip: DomainStrip) -> SecondFundamentalForm:
    """The jet-free family a^2 = l*E - gamma_im^2*E^2 - 1, b = gamma_im*E on
    the strip, with E = exp(2*s); Gauss holds structurally.  l and gamma_im
    stay Param nodes, bound to the strip's constants by the form's params."""
    l = Param("l")
    gam = Param("gamma_im")
    E = simplify(Fun("exp", simplify(2 * strip.form())))
    a = simplify(sqrt(l * E - gam * gam * E * E - 1))
    b = simplify(gam * E)
    c = simplify((b * b - 1) / a)
    return SecondFundamentalForm(a=a, b=b, c=c, strip=strip,
                                 constraints=strip.constraint_exprs())
