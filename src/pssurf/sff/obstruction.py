"""Finite-jet analysis of the compatibility system for a coefficient table.

Decides whether the symmetric tensor (a, b, c) closing the Gauss and
Codazzi equations can depend on jets of the unknown up to a fixed order.
The analysis is a fixed sequence of differentiate/extract/branch rules:
differentiating the two compatibility equations with respect to the top
prolonged jets yields linear relations among the unknown partials whose
coefficients are table entries; branching on the factor of that linear
system either pins (a, b, c) to an explicit finite-jet candidate (verified
numerically before it is returned) or forces the coefficients to be
independent of the jets, reducing the problem to an exponential system in
x and t.  Dead branches end in a derived constraint that is certified
nonzero on the admissible domain.

Every step is recorded in the verdict's trace.  The analysis is pure:
branches could be explored independently and the trace merged
deterministically by branch tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..expr import (
    Const,
    Expr,
    Param,
    free_names,
    jets_of,
    partial,
    simplify,
    substitute,
    to_text,
    z,
)
from ..forms import PssTriple, delta
from ..catalog import FamilySpec, _sign_of, build, hlpm
from .core import (
    DomainStrip,
    NoImmersion,
    SecondFundamentalForm,
    gauss_residual,
    universal_form,
    verify_immersion,
)

__all__ = ["IMMERSION_KEYS", "Outcome", "TraceStep", "ObstructionVerdict",
           "closed_form", "finite_jet_obstruction"]

# parameters of an immersion rather than of a family: the strip constants of
# a universal form and the sign of a zero-jet form
IMMERSION_KEYS = ("l", "gamma_im", "sign_im")


class Outcome(Enum):
    UNIVERSAL_FAMILY = "UniversalFamily"
    ZERO_JET_FAMILY = "ZeroJetFamily"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class TraceStep:
    """One derived constraint, understood as set to zero by the derivation."""

    branch: str
    constraint: Expr
    note: str

    def line(self):
        return f"[{self.branch}] {to_text(self.constraint)} = 0  -- {self.note}"


@dataclass(frozen=True)
class ObstructionVerdict:
    outcome: Outcome
    trace: tuple
    sff: SecondFundamentalForm = None

    def lines(self):
        out = [f"verdict: {self.outcome.value} (jets up to order 1)"]
        out.extend(step.line() for step in self.trace)
        if self.sff is not None:
            out.append(f"a = {to_text(self.sff.a)}")
            out.append(f"b = {to_text(self.sff.b)}")
            out.append(f"c = {to_text(self.sff.c)}")
            if self.sff.strip is not None:
                s = self.sff.strip
                out.append(
                    f"strip: {s.lower:.6g} < {to_text(s.form())}"
                    f" < {s.upper:.6g}"
                )
        return out


def finite_jet_obstruction(tr, l=4.0, gamma_im=1.0) -> ObstructionVerdict:
    """Run the branch analysis for jets up to order 1.

    A finite-jet form depends on u alone or on x and t alone, so no higher
    order changes the verdict.  l and gamma_im fix the strip constants of
    any universal-family output.  Given a family spec, the verdict is
    memoized on it by (l, gamma_im).
    """
    spec = tr if isinstance(tr, FamilySpec) else None
    if spec is not None:
        tr = spec.triple
    if not isinstance(tr, PssTriple):
        raise TypeError("expected a coefficient table or a family spec")
    strip_consts = (float(l), float(gamma_im))
    if spec is not None and strip_consts in spec.verdicts:
        return spec.verdicts[strip_consts]
    analysis = (_evolution_analysis if tr.ctx.kind == "evolution"
                else _hyperbolic_analysis)
    verdict = analysis(tr, strip_consts)
    if spec is not None:
        spec.verdicts[strip_consts] = verdict
    return verdict


_LABELS = {Outcome.ZERO_JET_FAMILY: "zero-jet-order coefficients",
           Outcome.UNIVERSAL_FAMILY: "universal coefficients on a strip"}


def closed_form(family, params=None) -> SecondFundamentalForm:
    """The second fundamental form the finite-jet verdict classifies.

    family is a FamilySpec or a family name; with a name, params may carry
    the family parameters, which build the spec.  params may also carry the
    IMMERSION_KEYS: l and gamma_im go to finite_jet_obstruction, and
    sign_im = -1 picks the negated zero-jet form (Gauss and Codazzi are
    invariant under (a, b, c) -> -(a, b, c)); universal forms ignore it.
    Parameters pinned to exactly 0 are substituted before simplifying.
    Raises NoImmersion with the final step of the verdict's trace when no
    form of finite jet order exists.
    """
    params = dict(params or {})
    imm = {k: params.pop(k) for k in IMMERSION_KEYS if k in params}
    if isinstance(family, FamilySpec):
        if params:
            raise ValueError(
                "family parameters must be given when building the FamilySpec")
        spec = family
    else:
        spec = build(family, params)
    sign = _sign_of(imm, "sign_im")
    imm.pop("sign_im", None)
    verdict = finite_jet_obstruction(spec, **imm)
    if verdict.sff is None:
        raise NoImmersion(verdict.trace[-1].note)
    sff = verdict.sff
    coeffs = sff.as_tuple()
    zeros = {Param(k): Const(0)
             for k, v in {**spec.triple.params, **sff.params}.items() if v == 0.0}
    if zeros:
        coeffs = tuple(simplify(substitute(e, zeros)) for e in coeffs)
    if sign < 0 and verdict.outcome is Outcome.ZERO_JET_FAMILY:
        coeffs = tuple(simplify(-e) for e in coeffs)
    a, b, c = coeffs
    return replace(sff, a=a, b=b, c=c, label=_LABELS[verdict.outcome])


# ------------------------------------------------------------ shared helpers


def _certified(tr, branch, e, note, v=None):
    """The trace step recording e as certified nonzero, where "{}" in note
    stands for the certificate.  v is e's verdict when already taken; an e
    that vanishes takes the table outside the classified cases."""
    v = tr.check_zero(e) if v is None else v
    if v:
        raise ValueError("table shape outside the classified cases")
    return TraceStep(branch, e, note.format(
        f"certified nonzero (max rel {v.max_rel:.2e})"))


def _is_const(e):
    return not jets_of(e) and {"x", "t"}.isdisjoint(free_names(e))


def _pinned_candidate(tr, a, constraint):
    # b and c from the substitution that closes Gauss identically
    r = simplify(tr.f(1, 1) / tr.f(2, 1))
    return SecondFundamentalForm(
        a=a, b=simplify(1 - r * a),
        c=simplify(r * r * a - 2 * r),
        constraints=(simplify(constraint),))


def _strip_candidate(tr, s, q_expr, strip_consts):
    return universal_form(DomainStrip(sign=s, p=tr.f(2, 1), q=q_expr,
                                      l=strip_consts[0], gamma_im=strip_consts[1]))


def _closing_verdict(tr, steps, cand, *derivation):
    """The verdict returning cand if it closes Gauss and Codazzi, else None.

    derivation holds the (constraint, note) pairs that led to cand; they
    and the verification enter the trace only when cand closes the pair.
    A zero-jet candidate and its negation pass or fail together, since
    both equations are invariant under (a, b, c) -> -(a, b, c).
    """
    rep = verify_immersion(tr, cand)
    if not rep.ok:
        return None
    if cand.strip is None:
        outcome, branch = Outcome.ZERO_JET_FAMILY, "zero-jet"
    else:
        outcome, branch = Outcome.UNIVERSAL_FAMILY, "universal"
    worst = max(rep.gauss.max_rel, rep.codazzi[0].max_rel, rep.codazzi[1].max_rel)
    steps.extend(TraceStep(branch, e, note) for e, note in derivation)
    steps.append(TraceStep(branch, gauss_residual(cand),
                           f"candidate closes Gauss and Codazzi (max rel {worst:.2e})"))
    return ObstructionVerdict(outcome, tuple(steps), cand)


# ------------------------------------------------------------ hyperbolic


def _hyperbolic_analysis(tr, strip_consts):
    steps = []
    f11, f12 = tr.f(1, 1), tr.f(1, 2)
    f21, f22 = tr.f(2, 1), tr.f(2, 2)
    f31, f32 = tr.f(3, 1), tr.f(3, 2)
    d12, d13, d23 = delta(tr, 1, 2), delta(tr, 1, 3), delta(tr, 2, 3)
    F = tr.ctx.rhs
    Z0, Z1 = z(0), z(1)

    if jets_of(f21):
        # non-constant f21: the linear extraction in the top jets degenerates;
        # the rule tests the diagonal ansatz b = 0, the pinned form with
        # a = f21/f11
        cand = _pinned_candidate(tr, simplify(f21 / f11), f11 * f11 * f21 * f21)
        verdict = _closing_verdict(
            tr, steps, cand,
            (cand.b, "f21 carries jets; diagonal ansatz with b = 0"))
        if verdict is None:
            raise ValueError("table shape outside the classified cases")
        return verdict

    # Branch A: the factor of the top-jet linear system vanishes, so b and c
    # are pinned by a.  The x-jet extraction then decides the branch.
    f11_z1 = partial(f11, Z1)
    if tr.check_zero(f11_z1):
        # a from the delta identity f21*d13 - f11*d23 = f31*d12
        a = simplify(-2 * f21 * d23 / (f31 * d12))
        cand = _pinned_candidate(tr, a, f31 * f31 * d12 * d12)
        verdict = _closing_verdict(
            tr, steps, cand,
            (f11_z1, "f11 free of z1; the x-extraction pins a through the"
                     " delta identity"),
            (simplify(f31 * d12 * a + 2 * f21 * d23),
             "defining relation for a"))
        if verdict is not None:
            return verdict
        steps.append(TraceStep(
            "zero-jet", f11_z1,
            "f11 free of z1, but the pinned candidate fails the"
            " compatibility pair"))
    elif tr.check_zero(f22):
        steps.append(TraceStep(
            "zero-jet", f22,
            "f22 vanishes: the extraction forces a = 0, incompatible"
            " with ac - b^2 = -1"))
    else:
        # consistency relation for a jet-dependent a: F*f21*f11_z1 must
        # equal (f11^2 + f21^2)*f32
        rf = simplify(F * f21 * f11_z1 - (f11 * f11 + f21 * f21) * f32)
        v_rf = tr.check_zero(rf)
        if v_rf:
            a = simplify(2 * f21 * f22 / d12)
            cand = _pinned_candidate(tr, a, d12 * d12)
            verdict = _closing_verdict(
                tr, steps, cand, (rf, "consistency relation holds"))
            if verdict is not None:
                return verdict
            steps.append(TraceStep(
                "zero-jet", rf,
                "consistency relation holds but the pinned candidate"
                " fails the compatibility pair"))
        else:
            steps.append(_certified(
                tr, "zero-jet", rf,
                "consistency relation for the jet-dependent branch; {}", v_rf))

    # Branch B: the factor is nonzero, so a, b, c are independent of the jets
    # and the pair reduces to a system in x and t alone.  The reduction needs
    # the metric entries to have no mixed z1, z0 jets.
    for g in (f11, f12, f21, f22):
        m = simplify(partial(partial(g, Z1), Z0))
        if not tr.check_zero(m):
            raise ValueError("table shape outside the classified cases")

    if _is_const(f22):
        # a flipped strip is a different form, so both signs are tried
        for sign in (1, -1):
            cand = _strip_candidate(tr, sign, f22, strip_consts)
            verdict = _closing_verdict(
                tr, steps, cand,
                (simplify(partial(cand.a, Z1)),
                 "coefficients independent of the jets; the reduced"
                 " system integrates to exponentials in x and t"))
            if verdict is not None:
                return verdict
    else:
        ratio = simplify(f12 / f22)
        r_z0 = simplify(partial(ratio, Z0))
        if tr.check_zero(r_z0):
            return _exponential_shape(tr, steps, ratio)

    # mixed z1, z0 derivatives of the deltas make the reduced pair
    # nondegenerate, which kills the jet-free branch
    m13 = simplify(partial(partial(d13, Z1), Z0))
    m23 = simplify(partial(partial(d23, Z1), Z0))
    v13, v23 = tr.check_zero(m13), tr.check_zero(m23)
    if not (v13 and v23):
        witness = m13 if not v13 else m23
        steps.append(TraceStep(
            "universal", witness,
            "mixed z1, z0 derivative of the compatibility pair; jet-free"
            " coefficients make its vanishing mandatory"))
        steps.append(TraceStep(
            "universal", simplify(m13 * m13 + m23 * m23),
            "nondegenerate mixed system forces b = 0 and a = c, leaving"
            " ac - b^2 = a^2 >= 0, never -1"))
        return ObstructionVerdict(Outcome.INCONSISTENT, tuple(steps))
    raise ValueError("table shape outside the classified cases")


def _exponential_shape(tr, steps, ratio):
    # jet-free branch for tables whose t-column is a common exponential in z0
    f22, f32 = tr.f(2, 2), tr.f(3, 2)
    d12, d13, d23 = delta(tr, 1, 2), delta(tr, 1, 3), delta(tr, 2, 3)
    F = tr.ctx.rhs
    Z0, Z1 = z(0), z(1)

    steps.append(TraceStep(
        "universal", simplify(partial(ratio, Z0)),
        "t-column ratio f12/f22 constant in z0, as the w-extraction"
        " of the jet-free pair requires"))

    v32 = tr.check_zero(f32)
    if v32:
        # with f32 = 0 the reduced relation reads d23 = 0
        steps.append(_certified(
            tr, "universal", d23, "forced to vanish when f32 = 0; {}"))
        return ObstructionVerdict(Outcome.INCONSISTENT, tuple(steps))

    a_cand = simplify(-2 * d23 * f22 / (d12 * f32))
    steps.append(TraceStep(
        "universal",
        simplify(d12 * f32 * a_cand + 2 * d23 * f22),
        "reduced relation pinning a"))

    # constancy is decided by derivative certificates, not by expression shape
    a_const = ({"x", "t"}.isdisjoint(free_names(a_cand))
               and bool(tr.check_zero(simplify(partial(a_cand, Z0))))
               and bool(tr.check_zero(simplify(partial(a_cand, Z1)))))
    if a_const:
        steps.append(TraceStep(
            "universal", simplify(partial(a_cand, Z0)),
            "pinned a is constant, so D_t a = 0 and the pair degenerates"
            " to a linear system in (d13, d23)"))
        steps.append(_certified(
            tr, "universal", simplify(d13 * d13 + d23 * d23),
            "{}; the system forces b = 0 and a = c"))
        steps.append(_certified(
            tr, "universal", simplify(a_cand * a_cand + Const(1)),
            "coefficients independent of the jets: Gauss after b = 0 and"
            " a = c; {}"))
        return ObstructionVerdict(Outcome.INCONSISTENT, tuple(steps))

    # jet-dependent pinned a: eliminating D_t a leaves one relation on the
    # table, which clearing denominators turns into a polynomial in z1
    rel = simplify(F * (partial(d23, Z1) * d12 - partial(d12, Z1) * d23)
                   + f22 * (d13 * d13 + d23 * d23))
    steps.append(_certified(
        tr, "universal", rel,
        "relation forced by D_t a of the pinned coefficient; {}"))

    poly = _cleared_polynomial(tr, ratio)
    if poly is not None:
        steps.append(_certified(
            tr, "universal", poly,
            "same relation after clearing the exponential factor and"
            " denominators; {}, so no admissible parameters satisfy it"))
    return ObstructionVerdict(Outcome.INCONSISTENT, tuple(steps))


def _cleared_polynomial(tr, ratio):
    # needs the named coefficients of the exponential table
    have = set(tr.params) | set(tr.ranges or {})
    for e in (tr.f(1, 1), tr.f(3, 1)):
        have |= free_names(e)
    if not {"B", "gamma", "beta", "delta"} <= have:
        return None
    b_p, gam, bet, dlt = (Param(n) for n in ("B", "gamma", "beta", "delta"))
    a_sq = simplify(ratio * ratio / (dlt * dlt))  # ratio is A*delta
    Z1 = z(1)
    return simplify((b_p * b_p - a_sq * gam) * Z1 * Z1 - a_sq * bet)


# ------------------------------------------------------------ evolution


def _evolution_analysis(tr, strip_consts):
    steps = []
    f11, f21, f22 = tr.f(1, 1), tr.f(2, 1), tr.f(2, 2)
    F = tr.ctx.rhs
    Z0, Z2 = z(0), z(2)

    # Branch A: vanishing factor pins b and c by a; the z2 coefficient of the
    # pair then forces f11_z0 * F_z2 = 0, against the table constraints.
    steps.append(_certified(
        tr, "zero-jet", simplify(partial(f11, Z0) * partial(F, Z2)),
        "finite-jet branch needs this product to vanish; {}"))

    # Branch B: jet-free coefficients.
    q = hlpm(f11, tr.f(3, 1))
    v_l = tr.check_zero(q.L)
    if v_l:
        # proportional frame columns: the reduced system integrates to
        # exponentials with x-coefficient f21 and t-coefficient f22
        if not _is_const(f22):
            raise ValueError("table shape outside the classified cases")
        for sign in (1, -1):
            cand = _strip_candidate(tr, sign, f22, strip_consts)
            verdict = _closing_verdict(
                tr, steps, cand,
                (q.L, "frame columns proportional; the jet-free pair"
                      " integrates to exponentials in x and t"))
            if verdict is not None:
                return verdict
        raise ValueError("table shape outside the classified cases")

    steps.append(_certified(
        tr, "universal", q.L,
        "pairing of the frame columns; {}, so the jet-free system is rigid",
        v_l))
    steps.append(_certified(
        tr, "universal", partial(f11, Z0),
        "f11_z0 is forced to vanish by the rigid system; {}"))
    return ObstructionVerdict(Outcome.INCONSISTENT, tuple(steps))
