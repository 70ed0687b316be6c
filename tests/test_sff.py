import dataclasses
import math

import numpy as np
import pytest

from pssurf.catalog import ConstraintError, build
from pssurf.expr import (Const, is_zero, jets_of, parse, partial, simplify,
                         to_text, z)
from pssurf.sff import (
    DomainStrip,
    NoImmersion,
    Outcome,
    SecondFundamentalForm,
    closed_form,
    codazzi_residuals,
    finite_jet_obstruction,
    gauss_residual,
    sample_strip_points,
    strip_contains,
    universal_form,
    verify_immersion,
)


def _strip(l=4.0, gamma_im=1.0, sign=1, p=None, q=None):
    return DomainStrip(sign=sign, p=p or Const(1.0), q=q or Const(0.0),
                       l=l, gamma_im=gamma_im)


# ------------------------------------------------------------ strips


def test_strip_bounds_match_positivity_roots():
    s = _strip(l=4.0, gamma_im=1.0)
    # a^2 = l*E - g^2*E^2 - 1 > 0 between the roots of the quadratic in E
    for bound in (s.lower, s.upper):
        E = math.exp(2.0 * bound)
        assert abs(4.0 * E - E * E - 1.0) < 1e-12
    assert s.lower < s.upper


def test_strip_gamma_zero_is_half_line():
    s = _strip(l=4.0, gamma_im=0.0)
    assert s.lower == pytest.approx(-0.5 * math.log(4.0))
    assert s.upper == math.inf


@pytest.mark.parametrize("kw,frag", [
    (dict(l=-1.0, gamma_im=0.0), "l > 0"),
    (dict(l=1.0, gamma_im=3.0), "l^2 > 4*gamma_im^2"),
])
def test_strip_rejects_empty_configurations(kw, frag):
    with pytest.raises(ConstraintError, match="l"):
        _strip(**kw)


@pytest.mark.parametrize("l, gamma_im, relation", [
    (math.inf, 1.0, "l and gamma_im finite"),
    (math.nan, 1.0, "l and gamma_im finite"),
    (4.0, -math.inf, "l and gamma_im finite"),
    (1e308, 1e308, "l^2 > 4*gamma_im^2"),
    (1e-300, 1e-300, "l^2 > 4*gamma_im^2"),
])
def test_strip_names_the_relation_it_rejects(l, gamma_im, relation):
    with pytest.raises(ConstraintError) as info:
        _strip(l=l, gamma_im=gamma_im)
    assert info.value.name == relation


@pytest.mark.parametrize("l, gamma_im", [
    (4.0, 1.0), (3.0, -0.7), (1e200, 1.0), (1e308, 1.0), (1e100, 1e-80),
    (1.7e308, 8e307), (1e-300, 1e-301),
])
def test_strip_bounds_are_the_roots_without_overflow(l, gamma_im):
    # the roots E of gamma_im^2*E^2 - l*E + 1 have product 1/gamma_im^2 and
    # sum l/gamma_im^2; checked in logarithms, which stay finite
    s = _strip(l=l, gamma_im=gamma_im)
    assert math.isfinite(s.lower) and math.isfinite(s.upper)
    assert s.lower < s.upper
    log_g = math.log(abs(gamma_im))
    assert s.lower + s.upper == pytest.approx(-log_g, rel=1e-12, abs=1e-12)
    assert np.logaddexp(2 * s.lower, 2 * s.upper) == pytest.approx(
        math.log(l) - 2 * log_g, rel=1e-12)


def test_strip_rejects_bad_sign():
    with pytest.raises(ConstraintError):
        _strip(sign=2)


def test_strip_contains_is_open_and_broadcasts():
    s = _strip(l=4.0, gamma_im=1.0)
    lo, hi = s.lower, s.upper  # p = 1, q = 0 so s*(px+qt) = x
    x = np.array([lo, (lo + hi) / 2.0, hi, hi + 1.0])
    inside = strip_contains(s, x, np.zeros_like(x))
    assert inside.tolist() == [False, True, False, False]


def test_sample_strip_points_lands_inside():
    s = _strip(l=4.0, gamma_im=1.0, q=Const(0.5))
    x, t = sample_strip_points(s, 40, rng=np.random.default_rng(7))
    assert x.shape == (40,)
    assert strip_contains(s, x, t).all()


def test_sample_strip_points_needs_nonzero_x_coefficient():
    s = _strip(p=Const(0.0), q=Const(0.0))
    with pytest.raises(ConstraintError):
        sample_strip_points(s, 8, rng=np.random.default_rng(0))


# ------------------------------------------------------------ closed forms


def test_gauss_proven_for_diagonal_form():
    sff = closed_form("sg-basic")
    assert is_zero(gauss_residual(sff)).status == "proven"


def test_gauss_proven_for_axis_table_form():
    sff = closed_form("hyp-i-qa", {"Q": 0.0})
    assert to_text(sff.c) == "0"
    assert is_zero(gauss_residual(sff)).status == "proven"


@pytest.mark.parametrize("fam", ["evo-hlzero", "hyp-iii-lambda", "hyp-iii-xi-tau"])
def test_gauss_structural_for_exponential_forms(fam):
    sff = closed_form(fam)
    assert is_zero(gauss_residual(sff)).status == "proven"


_PAIRS = ["sg-basic", "hyp-i-qa", "evo-hlzero", "hyp-iii-lambda", "hyp-iii-xi-tau"]


@pytest.mark.parametrize("fam", _PAIRS)
def test_codazzi_verified_for_closed_forms(fam):
    spec = build(fam, {})
    rep = verify_immersion(spec.triple, closed_form(spec))
    assert rep.ok, "\n".join(rep.lines())


@pytest.mark.parametrize("fam", _PAIRS)
def test_independent_builds_share_closed_form_nodes(fam):
    # expression nodes are interned: equal structures are one object
    first, second = (closed_form(build(fam, {})).as_tuple() for _ in range(2))
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("fam", _PAIRS)
@pytest.mark.parametrize("field", ["a", "b", "c"])
def test_codazzi_detects_coefficient_corruption(fam, field):
    spec = build(fam, {})
    sff = closed_form(spec)
    e = getattr(sff, field)
    bad = simplify(e + Const(0.1)) if to_text(e) == "0" else simplify(e * Const(1.1))
    corrupted = dataclasses.replace(sff, **{field: bad})
    rep = verify_immersion(spec.triple, corrupted, tol=1e-3)
    assert not rep.ok
    worst = max(rep.gauss.max_rel, rep.codazzi[0].max_rel, rep.codazzi[1].max_rel)
    assert worst > 1e-3


def test_qa_form_respects_immersion_sign():
    plus = closed_form("hyp-i-qa", {"sign_im": 1})
    minus = closed_form("hyp-i-qa", {"sign_im": -1})
    diff = simplify(plus.a + minus.a)
    assert bool(is_zero(diff, **build("hyp-i-qa", {}).triple.zero_kwargs()))


def test_universal_form_positive_on_strip():
    spec = build("hyp-iii-xi-tau", {})
    sff = closed_form(spec)
    vals_params = dict(sff.params, eta=1.1)
    x, t = sample_strip_points(sff.strip, 32, rng=np.random.default_rng(3),
                               params=vals_params)
    from pssurf.expr import compile_expr
    fn = compile_expr(simplify(sff.a * sff.a))
    vals = fn(dict(vals_params, x=x, t=t))
    assert (np.asarray(vals) > 0).all()


@pytest.mark.parametrize("fam,frag", [
    ("evo-hlnonzero", "f11_z0"),
    ("hyp-ii", "no admissible parameters"),
    ("hyp-ii-gamma1", "independent of the jets"),
    ("hyp-iii-zero", "independent of the jets"),
])
def test_no_immersion_families_raise(fam, frag):
    with pytest.raises(NoImmersion, match=frag):
        closed_form(fam)


def test_codazzi_residuals_reduce_mixed_jets():
    spec = build("sg-basic", {})
    e1, e2 = codazzi_residuals(spec.triple, closed_form(spec))
    # reduction mod the equation leaves hyperbolic jets only
    for e in (e1, e2):
        assert all(j.name.startswith("z") or j.name.startswith("w")
                   for j in __import__("pssurf.expr", fromlist=["jets_of"]).jets_of(e))


# ------------------------------------------------------------ obstruction


_VERDICTS = {
    "sg-basic": Outcome.ZERO_JET_FAMILY,
    "sg-eta": Outcome.ZERO_JET_FAMILY,
    "hyp-i": Outcome.INCONSISTENT,
    "hyp-i-qa": Outcome.ZERO_JET_FAMILY,
    "hyp-ii": Outcome.INCONSISTENT,
    "hyp-ii-gamma1": Outcome.INCONSISTENT,
    "hyp-iii-zero": Outcome.INCONSISTENT,
    "hyp-iii-lambda": Outcome.UNIVERSAL_FAMILY,
    "hyp-iii-xi-tau": Outcome.UNIVERSAL_FAMILY,
    "evo-hlnonzero": Outcome.INCONSISTENT,
    "evo-hlzero": Outcome.UNIVERSAL_FAMILY,
}


@pytest.mark.parametrize("fam,want", sorted(_VERDICTS.items()))
def test_obstruction_verdicts(fam, want):
    v = finite_jet_obstruction(build(fam, {}))
    assert v.outcome is want
    assert v.trace, "every verdict carries its derivation"
    if v.outcome is Outcome.INCONSISTENT:
        assert v.sff is None
    else:
        assert v.sff is not None


def test_obstruction_rejects_non_table_input():
    with pytest.raises(TypeError):
        finite_jet_obstruction("hyp-ii")


def test_exponential_trace_ends_at_cleared_polynomial():
    spec = build("hyp-ii", {})
    v = finite_jet_obstruction(spec)
    last = v.trace[-1].constraint
    # (B^2 - A^2*gamma)*z1^2 - A^2*beta with A^2 = B^2 + (gamma - 1)/delta^2
    want = parse("(B^2 - (B^2 + (gamma - 1)/delta^2)*gamma)*z1^2"
                 " - (B^2 + (gamma - 1)/delta^2)*beta")
    assert bool(is_zero(simplify(last - want), **spec.triple.zero_kwargs()))
    # and the polynomial itself has no admissible zero
    assert is_zero(last, **spec.triple.zero_kwargs()).status == "nonzero"


def test_constant_ratio_trace_ends_at_gauss_contradiction():
    v = finite_jet_obstruction(build("hyp-ii-gamma1", {}))
    assert "Gauss" in v.trace[-1].note


def test_diagonal_family_matches_half_angle_form():
    v = finite_jet_obstruction(build("sg-basic", {}))
    assert v.outcome is Outcome.ZERO_JET_FAMILY
    texts = {to_text(v.sff.a), to_text(v.sff.c)}
    assert texts == {"sin(z0/2)/cos(z0/2)", "-cos(z0/2)/sin(z0/2)"}
    assert to_text(v.sff.b) == "0"


def test_axis_family_matches_closed_form():
    spec = build("hyp-i-qa", {})
    v = finite_jet_obstruction(spec)
    ref = closed_form(spec)
    kw = spec.triple.zero_kwargs()
    kw["constraints"] = tuple(kw["constraints"]) + tuple(ref.constraints)
    for mine, theirs in zip(v.sff.as_tuple(), ref.as_tuple()):
        assert bool(is_zero(simplify(mine - theirs), **kw))


@pytest.mark.parametrize("fam", ["evo-hlzero", "hyp-iii-lambda", "hyp-iii-xi-tau"])
def test_universal_family_output_is_jet_free_and_matches(fam):
    v = finite_jet_obstruction(build(fam, {}))
    ref = closed_form(fam)
    for i in range(3):
        for e in v.sff.as_tuple():
            assert is_zero(partial(e, z(i))).status == "proven"
    assert [to_text(e) for e in v.sff.as_tuple()] == \
        [to_text(e) for e in ref.as_tuple()]
    assert v.sff.strip.sign == ref.strip.sign


def test_rigid_evolution_trace_ends_at_forced_z0_derivative():
    spec = build("evo-hlnonzero", {})
    v = finite_jet_obstruction(spec)
    f11 = spec.triple.f(1, 1)
    want = simplify(partial(f11, z(0)))
    assert to_text(v.trace[-1].constraint) == to_text(want)


def test_verdict_lines_render():
    v = finite_jet_obstruction(build("hyp-iii-lambda", {}))
    lines = v.lines()
    assert lines[0].startswith("verdict: UniversalFamily")
    assert any(ln.startswith("a = ") for ln in lines)
    assert any("strip:" in ln for ln in lines)


def test_verified_universal_candidate_actually_verifies():
    spec = build("evo-hlzero", {})
    v = finite_jet_obstruction(spec)
    rep = verify_immersion(spec.triple, v.sff)
    assert rep.ok, "\n".join(rep.lines())


# ------------------------------------------------------------ closed form as a view


_VIEW_CASES = [(fam, {}) for fam in sorted(_VERDICTS)] + [
    ("sg-eta", {"eta": 1.3}),
    ("hyp-i", {"B": 0.0, "A": 1.5, "fkind": "sin"}),
]


@pytest.mark.parametrize("fam,params", _VIEW_CASES,
                         ids=[f + "".join(f"-{k}={v}" for k, v in p.items())
                              for f, p in _VIEW_CASES])
def test_closed_form_is_a_view_of_the_verdict(fam, params):
    spec = build(fam, dict(params))
    try:
        form = closed_form(spec)
    except NoImmersion as exc:
        form, message = None, str(exc)
    assert len(spec.verdicts) == 1
    memo = next(iter(spec.verdicts.values()))
    verdict = finite_jet_obstruction(spec)
    assert verdict is memo
    assert (form is not None) == verdict.admits_immersion
    if form is None:
        assert message == verdict.trace[-1].note
        return
    # sign_im = -1 negates a zero-jet form and leaves a universal one alone
    negated = closed_form(spec, {"sign_im": -1})
    flip = -1 if verdict.outcome is Outcome.ZERO_JET_FAMILY else 1
    tr = spec.triple
    cons = tuple(tr.constraints) + tuple(form.constraints)
    for got, want, neg in zip(form.as_tuple(), verdict.sff.as_tuple(),
                              negated.as_tuple()):
        assert tr.check_zero(simplify(got - want), constraints=cons), \
            (to_text(got), to_text(want))
        assert tr.check_zero(simplify(neg - flip * got), constraints=cons), \
            (to_text(neg), to_text(got))
    assert len(spec.verdicts) == 1


def test_closed_form_drops_jets_of_pinned_zero_parameters():
    # with B = 0 the verdict's form still carries B*z1 terms
    sff = closed_form("hyp-i", {"B": 0.0, "A": 1.5, "fkind": "sin"})
    assert set().union(*map(jets_of, sff.as_tuple())) == {z(0)}


def test_closed_form_substitutes_a_strip_constant_pinned_to_zero():
    assert to_text(closed_form("hyp-iii-lambda", {"gamma_im": 0.0}).b) == "0"


@pytest.mark.parametrize("fam", _PAIRS)
def test_form_params_are_its_own_strip_constants(fam):
    spec = build(fam, {"eta": 1.2} if fam != "sg-basic" else {})
    sff = closed_form(spec, {"l": 5.0, "gamma_im": 0.5})
    if sff.strip is None:
        assert sff.params == {}
    else:
        assert sff.params == {"l": 5.0, "gamma_im": 0.5}


def test_closed_form_rejects_bad_sign_im():
    with pytest.raises(ConstraintError, match="sign_im"):
        closed_form("sg-basic", {"sign_im": 2})
