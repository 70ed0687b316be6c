from fractions import Fraction

import numpy as np
import pytest

from pssurf.expr import Const, Pow, compile_expr, parse, simplify, to_text


def s(src):
    return to_text(simplify(parse(src)))


def test_constant_folding():
    assert s("2 + 3*4") == "14"
    assert s("3/4 + 1/4") == "1"
    assert s("2^10") == "1024"
    assert s("(1/2)^2") == "1/4"


def test_zero_and_one_identities():
    assert s("0*z1 + z0") == "z0"
    assert s("1*z1") == "z1"
    assert s("z1 - z1") == "0"
    assert s("z1/z1") == "1"
    assert s("z0^0") == "1"
    assert s("z0^1") == "z0"


def test_known_function_values():
    assert s("sin(0)") == "0"
    assert s("cos(0)") == "1"
    assert s("exp(0)") == "1"
    assert s("log(1)") == "0"
    assert s("sqrt(1)") == "1"


def test_pythagorean_rules():
    assert s("sin(z0)^2 + cos(z0)^2") == "1"
    assert s("cosh(z0)^2 - sinh(z0)^2") == "1"
    assert s("eta*sin(z0)^2 + eta*cos(z0)^2") == "eta"
    # mismatched arguments must not fold
    assert s("sin(z0)^2 + cos(z1)^2") != "1"


def test_like_term_merge():
    assert s("z1 + z1") == "2*z1"
    assert s("2*z0*z1 - z1*z0") == "z0*z1"


def test_sqrt_square():
    assert s("sqrt(z0)^2") == "z0"


def test_rational_const_repr():
    e = simplify(parse("2/4"))
    assert e == Const(Fraction(1, 2))
    assert e.is_exact


def test_float_contaminates():
    e = simplify(parse("0.5 + 1/2"))
    assert isinstance(e, Const)
    assert not e.is_exact
    assert abs(float(e.value) - 1.0) < 1e-15


def test_nested_flattening():
    assert s("(z0 + (z1 + z2)) + z3") == "z0 + z1 + z2 + z3"
    assert s("2*(3*z0)") == "6*z0"


def test_division_normal_form():
    assert s("z0/(z1/z2)") == "z0*z2/z1"
    assert s("1/(1/z0)") == "z0"


def test_zero_to_a_negative_power_stays_unfolded():
    # exact or float, 0^-n is left as a power, and evaluates to inf
    for src in ("1/0", "1/0.0", "0.0^(-3)"):
        e = simplify(parse(src))
        assert isinstance(e, Pow) and e.base.value == 0
        with np.errstate(divide="ignore"):
            assert compile_expr(e)({}) == np.inf
    assert s("2.0^(-2)") == "0.25"


def test_power_beyond_the_float_range_stays_unfolded():
    for src in ("10.0^400", "10^400", "2^1024", "2.0^1024", "0.1^-400",
                "10^10^10"):
        assert isinstance(simplify(parse(src)), Pow), src
    assert s("2^1023") == str(2 ** 1023)
    # an exact constant is kept only while it converts to a float
    with pytest.raises(ValueError, match="float range"):
        simplify(parse("10^200*10^200"))
    with pytest.raises(ValueError, match="float range"):
        parse("1" + "0" * 400)


def test_long_exact_power_stays_unfolded():
    # expanding (1 + 2^-60)^(2^60) exactly would take more memory than
    # exists, although its value is about e
    e = simplify(parse("(1 + 2^-60)^(2^60)"))
    assert isinstance(e, Pow) and e.exponent.value == 2 ** 60
    assert s("(3/2)^10") == "59049/1024"
