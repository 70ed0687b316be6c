from pssurf.expr import EquationContext, is_zero, parse, simplify, to_text
from pssurf.forms import PssTriple, delta, structure_residuals, verify_family

SIN_GORDON = EquationContext("hyperbolic", parse("sin(z0)"))


def basic_sg():
    # omega1 = cos(u/2)(dx+dt), omega2 = sin(u/2)(dx-dt), omega3 = (ux/2)dx - (ut/2)dt
    return PssTriple(
        ((parse("cos(z0/2)"), parse("cos(z0/2)")),
         (parse("sin(z0/2)"), parse("-sin(z0/2)")),
         (parse("z1/2"), parse("-w1/2"))),
        ctx=SIN_GORDON,
        label="sg-basic",
    )


def eta_sg(eta_value=None):
    params = {} if eta_value is None else {"eta": eta_value}
    return PssTriple(
        ((0, parse("sin(z0)/eta")),
         (parse("eta"), parse("cos(z0)/eta")),
         (parse("z1"), 0)),
        ctx=SIN_GORDON,
        params=params,
        ranges={"eta": (0.5, 2.0)},
        label="sg-eta",
    )


def test_delta_antisymmetry():
    tr = eta_sg()
    for i in range(1, 4):
        for j in range(1, 4):
            v = is_zero(simplify(delta(tr, i, j) + delta(tr, j, i)))
            assert v.status == "proven"


def test_delta12_is_minus_sine():
    for tr in (basic_sg(), eta_sg()):
        v = tr.check_zero(simplify(delta(tr, 1, 2) + parse("sin(z0)")))
        assert bool(v), (tr.label, v)


def test_eta_structure_residuals_factor_through_equation():
    tr = eta_sg()
    r1, r2, r3 = structure_residuals(tr)
    assert bool(tr.check_zero(r1))
    assert bool(tr.check_zero(r2))
    # the last residual IS the equation: sin(z0) - u_xt
    v = tr.check_zero(simplify(r3 - parse("sin(z0) - ux1t1")))
    assert bool(v), to_text(r3)


def test_basic_sg_residuals_vanish_on_shell():
    tr = basic_sg()
    report = verify_family(tr)
    assert report.holds_mod_equation, report.details
    assert report.off_shell_detects
    assert report.nondegenerate
    assert report.ok


def test_verify_family_eta():
    report = verify_family(eta_sg())
    assert report.ok, report.details


def test_verify_flags_broken_triple():
    tr = eta_sg()
    broken = PssTriple(
        (tr.rows[0], tr.rows[1],
         (simplify(parse("2") * tr.f(3, 1)), tr.f(3, 2))),
        ctx=tr.ctx,
        ranges=tr.ranges,
        label="broken",
    )
    report = verify_family(broken)
    assert not report.holds_mod_equation


def test_degenerate_triple_rejected():
    tr = eta_sg()
    flat = PssTriple((tr.rows[0], tr.rows[1], (0, 0)), ctx=tr.ctx, ranges=tr.ranges)
    report = verify_family(flat)
    assert not report.nondegenerate
    collapsed = PssTriple((tr.rows[0], tr.rows[0], tr.rows[2]), ctx=tr.ctx,
                          ranges=tr.ranges)
    assert not verify_family(collapsed).nondegenerate
