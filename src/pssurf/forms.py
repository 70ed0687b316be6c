"""Triples of 1-forms and the pseudo-spherical structure equations.

A surface candidate is a triple of 1-forms omega^i = f_i1 dx + f_i2 dt.
The triple describes a metric of constant curvature -1 exactly when the
three structure residuals vanish, which for the families treated here
happens precisely on solutions of the underlying PDE.

Orientation convention, fixed once for the whole package:

    d(P dx + Q dt) = (D_x Q - D_t P) dx ^ dt

so the wedge coefficient of omega^i ^ omega^j is Delta_ij = f_i1 f_j2 -
f_j1 f_i2 (antisymmetric in i, j).
"""

import inspect
from dataclasses import dataclass, field

from .expr import (
    Expr,
    ZeroVerdict,
    as_expr,
    is_zero,
    simplify,
    total_t,
    total_x,
)

# what is_zero samples with when check_zero's caller leaves it out
_ZERO_DEFAULTS = {nm: p.default
                  for nm, p in inspect.signature(is_zero).parameters.items()
                  if p.default is not p.empty}


@dataclass(frozen=True)
class OneForm:
    """Coefficients of dx and dt."""

    fx: Expr
    ft: Expr

    def __post_init__(self):
        object.__setattr__(self, "fx", simplify(as_expr(self.fx)))
        object.__setattr__(self, "ft", simplify(as_expr(self.ft)))


@dataclass
class PssTriple:
    """omega^1, omega^2, omega^3 plus everything needed to test them.

    params pins named parameters to concrete values; ranges gives sampling
    intervals for the rest; constraints are expressions that must stay
    positive (with margin) at every sample point, e.g. squared denominators.
    """

    omega1: OneForm
    omega2: OneForm
    omega3: OneForm
    ctx: object = None
    params: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    constraints: tuple = ()
    label: str = ""
    # check_zero's verdicts; dataclasses.replace starts a new table empty
    _verdicts: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def f(self, i: int, j: int) -> Expr:
        """Coefficient f_ij, i in 1..3 rows, j in {1: dx, 2: dt}."""
        form = (self.omega1, self.omega2, self.omega3)[i - 1]
        return form.fx if j == 1 else form.ft

    @classmethod
    def from_matrix(cls, rows, **kw):
        """rows = ((f11, f12), (f21, f22), (f31, f32))."""
        (f11, f12), (f21, f22), (f31, f32) = rows
        return cls(OneForm(f11, f12), OneForm(f21, f22), OneForm(f31, f32), **kw)

    def zero_kwargs(self) -> dict:
        return {
            "params": self.params,
            "ranges": self.ranges,
            "constraints": self.constraints,
        }

    def check_zero(self, e, **overrides) -> ZeroVerdict:
        """is_zero(e) with the triple's params, ranges and constraints;
        overrides replace any of them and set n, tol and seed.

        The verdict is kept on the triple, keyed by every argument is_zero
        reads (canonical nodes, and the repr of the values, so 0.0 and
        -0.0 stay apart), so each distinct test of a table runs once and
        a changed argument is never served an old verdict.
        """
        kw = {**_ZERO_DEFAULTS, **self.zero_kwargs(), **overrides}
        e = simplify(e)
        kw["constraints"] = tuple(simplify(c) for c in kw["constraints"])
        key = (e, kw["constraints"], repr(
            [kw[nm] for nm in ("params", "ranges", "n", "tol", "seed")]))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = is_zero(e, **kw)
        return verdict


def delta(tr: PssTriple, i: int, j: int) -> Expr:
    """Wedge determinant Delta_ij = f_i1 f_j2 - f_j1 f_i2."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("form indices run over 1..3")
    return simplify(tr.f(i, 1) * tr.f(j, 2) - tr.f(j, 1) * tr.f(i, 2))


def structure_residuals(tr: PssTriple):
    """dx^dt coefficients of d(omega^i) minus the required wedge products.

    Total derivatives are taken WITHOUT the equation: mixed derivatives stay
    as free jet symbols, so the residuals expose how the structure equations
    factor through the PDE.
    """
    r1 = total_x(tr.f(1, 2)) - total_t(tr.f(1, 1)) - delta(tr, 3, 2)
    r2 = total_x(tr.f(2, 2)) - total_t(tr.f(2, 1)) - delta(tr, 1, 3)
    r3 = total_x(tr.f(3, 2)) - total_t(tr.f(3, 1)) - delta(tr, 1, 2)
    return simplify(r1), simplify(r2), simplify(r3)


@dataclass
class FamilyReport:
    holds_mod_equation: bool
    off_shell_detects: bool
    nondegenerate: bool
    residual_factors: tuple
    details: dict

    @property
    def ok(self) -> bool:
        return self.holds_mod_equation and self.off_shell_detects and self.nondegenerate

    def lines(self):
        out = []
        for name, verdict in self.details.items():
            out.append(f"{name}: {verdict}")
        return out


def verify_family(tr: PssTriple, **sampling) -> FamilyReport:
    """Full check of one family: residuals mod the PDE, off-shell detection,
    and coframe non-degeneracy (Delta_12 != 0, Delta_13^2 + Delta_23^2 != 0).

    sampling (n, tol, seed) reaches every zero test; is_zero's defaults
    hold for what it leaves out.
    """
    if tr.ctx is None:
        raise ValueError("verify_family needs the triple's equation context")
    residuals = structure_residuals(tr)
    details = {}
    holds = True
    for k, r in enumerate(residuals, start=1):
        verdict = tr.check_zero(tr.ctx.reduce(r), **sampling)
        details[f"R{k} mod equation"] = verdict
        holds = holds and bool(verdict)

    # off-shell the mixed jets are free; some residual must notice
    detects = False
    for k, r in enumerate(residuals, start=1):
        verdict = tr.check_zero(r, **sampling)
        details[f"R{k} off shell"] = verdict
        if verdict.status == "nonzero":
            detects = True

    d12 = delta(tr, 1, 2)
    d13 = delta(tr, 1, 3)
    d23 = delta(tr, 2, 3)
    v12 = tr.check_zero(d12, **sampling)
    v1323 = tr.check_zero(simplify(d13 * d13 + d23 * d23), **sampling)
    details["Delta12 nonzero"] = v12
    details["Delta13^2+Delta23^2 nonzero"] = v1323
    nondeg = v12.status == "nonzero" and v1323.status == "nonzero"

    return FamilyReport(
        holds_mod_equation=holds,
        off_shell_detects=detects,
        nondegenerate=nondeg,
        residual_factors=residuals,
        details=details,
    )
