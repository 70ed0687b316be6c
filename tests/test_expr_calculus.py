import numpy as np
import pytest

from fd_oracle import fd_partial, fd_total, rel_err

from pssurf.expr import (
    EquationContext,
    Jet,
    Param,
    is_zero,
    parse,
    partial,
    simplify,
    to_text,
    total_t,
    total_x,
    z,
)


def test_partial_chain_rule():
    assert to_text(partial(parse("eta*sin(z0)"), z(0))) == "eta*cos(z0)"
    assert to_text(partial(parse("z1^2"), Jet(1, 0))) == "2*z1"
    assert to_text(partial(parse("z1^2"), z(0))) == "0"
    assert to_text(partial(parse("log(z0)"), z(0))) == "1/z0"
    assert to_text(partial(parse("eta^2*z0"), Param("eta"))) == "2*eta*z0"


def test_total_x_free_mode():
    assert to_text(total_x(parse("z0"))) == "z1"
    assert to_text(total_x(parse("x*z1"))) == "z1 + x*z2"
    # with no equation, the t-derivative of z0 stays as the free jet w1
    assert to_text(total_t(parse("z0"))) == "w1"
    assert to_text(total_t(parse("z1"))) == "ux1t1"


def test_hyperbolic_prolongation():
    ctx = EquationContext("hyperbolic", parse("sin(z0)"))
    assert to_text(total_x(parse("w1"), ctx)) == "sin(z0)"
    assert to_text(total_t(parse("z1"), ctx)) == "sin(z0)"
    assert to_text(total_t(parse("z2"), ctx)) == "z1*cos(z0)"
    assert to_text(total_x(parse("w2"), ctx)) == "w1*cos(z0)"


def test_evolution_prolongation():
    ctx = EquationContext("evolution", parse("z2"))
    assert to_text(total_t(parse("z0"), ctx)) == "z2"
    assert to_text(total_t(parse("z1"), ctx)) == "z3"
    got = ctx.reduce(parse("ux1t1"))
    assert to_text(got) == "z3"


def test_reduction_eliminates_mixed_jets():
    ctx = EquationContext("hyperbolic", parse("sin(z0)"))
    e = parse("ux2t1 + w1*z1")
    r = ctx.reduce(e)
    for leaf in ("ux2t1", "ux1t1"):
        assert leaf not in to_text(r)


FD_CASES = [
    "eta*sin(z0) + z1^2",
    "cos(z0/2)*z1 - t*w1",
    "exp(delta*z0)*sqrt(4 + z1^2)",
    "z1*w1/(1 + z0^2)",
    "arctan(z0) + x*t*z2",
    "log(2 + cosh(z0))*w2",
]


@pytest.mark.parametrize("src", FD_CASES)
def test_partial_matches_finite_difference(src):
    e = simplify(parse(src))
    rng = np.random.default_rng(42)
    names = ["x", "t", "z0", "z1", "z2", "w1", "w2", "eta", "delta"]
    for _ in range(20):
        env = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
        env["eta"] = float(rng.uniform(0.5, 2.0))
        for vname, leaf in [("z0", z(0)), ("z1", Jet(1, 0)), ("w1", Jet(0, 1))]:
            want = fd_partial(e, vname, env)
            got = _eval(partial(e, leaf), env)
            assert rel_err(got, want) < 1e-6


@pytest.mark.parametrize("src", FD_CASES)
def test_total_matches_directional_difference(src):
    e = simplify(parse(src))
    rng = np.random.default_rng(43)
    names = [
        "x", "t",
        "z0", "z1", "z2", "z3",
        "w1", "w2", "w3",
        "ux1t1", "ux2t1", "ux1t2", "ux2t2", "ux3t1", "ux1t3",
        "eta", "delta",
    ]
    for _ in range(20):
        env = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
        got_x = _eval(total_x(e), env)
        got_t = _eval(total_t(e), env)
        assert rel_err(got_x, fd_total(e, "x", env)) < 1e-6
        assert rel_err(got_t, fd_total(e, "t", env)) < 1e-6


def test_total_derivatives_commute():
    ctx = EquationContext("hyperbolic", parse("sin(z0) + z1"))
    for src in ("z0^2*w1", "sin(z1)*cos(w1)", "z2 + w2*z0"):
        e = parse(src)
        lhs = total_t(total_x(e, ctx), ctx)
        rhs = total_x(total_t(e, ctx), ctx)
        verdict = is_zero(simplify(lhs - rhs))
        assert verdict, verdict


def test_commute_in_free_mode():
    for src in ("z0*w1*x", "sin(z2)*t", "w2/(2 + z1^2)"):
        e = parse(src)
        diff = simplify(total_t(total_x(e)) - total_x(total_t(e)))
        verdict = is_zero(diff)
        assert verdict, verdict


def test_evolution_rejects_w_jets():
    with pytest.raises(ValueError):
        EquationContext("evolution", parse("w1 + z0"))


def test_hyperbolic_rhs_must_be_low_order():
    with pytest.raises(ValueError):
        EquationContext("hyperbolic", parse("w1"))


def _eval(e, env):
    from pssurf.expr import evaluate

    return evaluate(e, env)
