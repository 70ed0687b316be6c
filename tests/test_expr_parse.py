import pytest

from pssurf.expr import (
    Add,
    Const,
    Fun,
    Jet,
    Mul,
    ParseError,
    Pow,
    parse,
    simplify,
    to_text,
)


def test_power_and_product_shape():
    e = parse("z1^2 + eta*sin(z0)")
    assert isinstance(e, Add)
    left, right = e.args
    assert isinstance(left, Pow)
    assert left.base == Jet(1, 0)
    assert isinstance(right, Mul)
    assert isinstance(right.args[1], Fun)
    assert right.args[1].fname == "sin"


def test_half_angle_argument():
    e = parse("cos(z0/2)")
    assert isinstance(e, Fun) and e.fname == "cos"
    assert e.arg == Mul((Jet(0, 0), Pow(Const(2), Const(-1))))


def test_dangling_power_position():
    with pytest.raises(ParseError) as info:
        parse("z1^")
    assert info.value.pos == 3


def test_unknown_name_lists_position():
    with pytest.raises(ParseError) as info:
        parse("2*foo + 1")
    assert info.value.pos == 2


def test_function_requires_arguments():
    with pytest.raises(ParseError):
        parse("sin + 1")


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(z0 + 1")


def test_mixed_jet_names():
    assert parse("ux2t1") == Jet(2, 1)
    assert parse("w3") == Jet(0, 3)
    assert parse("z0") == Jet(0, 0)
    # w0 is not a separate symbol, the zeroth jet is always z0
    with pytest.raises(ParseError):
        parse("ux0t2")


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nests deeper"):
        parse("(" * 600 + "z0" + ")" * 600)
    assert parse("(" * 49 + "z0" + ")" * 49) == Jet(0, 0)


def test_long_chains_are_one_node():
    # a chain of 1500 operands adds no depth, so simplify does not recurse
    total = parse(" + ".join(["z0"] * 1500))
    assert isinstance(total, Add) and len(total.args) == 1500
    assert simplify(total) == simplify(parse("1500*z0"))
    product = parse("*".join(["z0"] * 1500))
    assert isinstance(product, Mul) and len(product.args) == 1500
    assert simplify(product) == simplify(parse("z0^1500"))
    quotient = parse("z0" + "/2" * 1500)
    assert simplify(quotient) == simplify(parse("z0/2^1500"))


def test_chains_simplify_as_left_nested_trees():
    # the binary trees a left-to-right fold builds, written with the node
    # operators; the n-ary chains must reach the same canonical form
    eta, beta, nu, x, z0, z1 = (parse(n) for n in
                                ("eta", "beta", "nu", "x", "z0", "z1"))
    cases = {
        "eta - beta + nu": (eta - beta) + nu,
        "x*z0/3*z1": ((x * z0) / 3) * z1,
        "x/2/3.0/z1": ((x / 2) / 3.0) / z1,
        "x - 2.5*z0 + 0.1*z0 - 0.7*z0": ((x - 2.5 * z0) + 0.1 * z0) - 0.7 * z0,
        "0.1/3.0/7.0*eta": ((Const(0.1) / 3.0) / 7.0) * eta,
    }
    for src, nested in cases.items():
        assert simplify(parse(src)) == simplify(nested), src


def test_integer_stays_exact():
    e = simplify(parse("1/3 + 1/3 + 1/3"))
    assert e == Const(1)


ROUND_TRIP = [
    "z1^2 + eta*sin(z0)",
    "cos(z0/2)",
    "-(A*z1 - B*Q)",
    "1/(Q^2*alpha + eta^2)",
    "nu*exp(delta*z0)*sqrt(beta + gamma*z1^2)",
    "lambda*z0 + xi*z1 + tau",
    "tan(z0/2) - 1/tan(z0/2)",
    "w2*x - t/eta",
    "arctan(exp(x + t))",
    "sinh(z0)^2 - cosh(z0)^2",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_print_parse_round_trip(src):
    # parse -> simplify -> print -> parse -> simplify must be a fixed point
    once = simplify(parse(src))
    again = simplify(parse(to_text(once)))
    assert once == again


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_simplify_idempotent(src):
    e = simplify(parse(src))
    assert simplify(e) == e
