"""Property tests for the expression core.

Random trees are built through the operators (+ - * / ^, unary minus) and
the nine functions, over z0, z1, x, t, eta and small exact and float
constants.  Their canonical forms must be fixed points of simplify and have
the canonical shape, and partial derivatives by z0 must agree with a
central difference wherever both are finite.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fd_oracle import fd_partial

from pssurf.expr import (
    FUNCTION_NAMES, Add, Const, Fun, Mul, Param, Pow, T, X,
    evaluate, free_leaves, partial, simplify, walk, z,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

_CONSTANTS = [Const(v) for v in (0, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                                  0.5, -1.5)]
# a third of the leaves are constants, and z0 is the likeliest variable;
# the first entry is also where a run's first examples start
_LEAVES = st.sampled_from([z(0)] * 4 + [z(1), X, T, Param("eta")] * 2
                          + _CONSTANTS)
_EXPONENTS = st.sampled_from(
    [Const(v) for v in (-2, -1, 2, 3, Fraction(1, 2), 0.5)])


def _extend(sub):
    binary = st.sampled_from([operator.add, operator.sub, operator.mul,
                              operator.truediv])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, sub, sub),
        st.builds(operator.pow, sub, st.one_of(_EXPONENTS, sub)),
        st.builds(operator.neg, sub),
        st.builds(Fun, st.sampled_from(FUNCTION_NAMES), sub),
    )


TREES = st.recursive(_LEAVES, _extend, max_leaves=8)
# on a grid of k/64 a pole at a small rational is either hit exactly, which
# raises EvalError, or stays far from the difference stencil (step 1e-6)
_COORD = st.integers(-128, 128).map(lambda k: k / 64)
POINTS = st.fixed_dictionaries(
    {name: _COORD for name in ("z0", "z1", "x", "t", "eta")})


def _fresh(e):
    """A structural copy that carries no cached canonical form."""
    if isinstance(e, Fun):
        return Fun(e.fname, _fresh(e.arg))
    if isinstance(e, Pow):
        return Pow(_fresh(e.base), _fresh(e.exponent))
    if isinstance(e, (Mul, Add)):
        return type(e)(tuple(_fresh(a) for a in e.args))
    return e


@SETTINGS
@given(TREES)
def test_canonical_form_is_a_fixed_point_of_canonical_shape(e):
    c = simplify(e)
    assert simplify(c) is c
    assert simplify(_fresh(c)) == c
    for node in walk(c):
        if isinstance(node, Mul):
            assert not any(isinstance(a, Mul) for a in node.args)
            assert not any(isinstance(a, Const) for a in node.args[1:])
        elif isinstance(node, Add):
            assert not any(isinstance(a, Add) for a in node.args)
            assert sum(isinstance(a, Const) for a in node.args) <= 1
        elif isinstance(node, Pow) and isinstance(node.exponent, Const):
            assert node.exponent.value not in (0, 1)


# every function's chain rule is exercised on every run: the tree is
# wrapped in each of them in turn
@pytest.mark.parametrize("fname", (None,) + FUNCTION_NAMES)
@settings(SETTINGS, max_examples=15)
@given(TREES.filter(lambda e: z(0) in free_leaves(e)), POINTS)
def test_partial_matches_central_difference(fname, e, env):
    if fname is not None:
        e = Fun(fname, e)
    try:
        value = evaluate(e, env)
        want = fd_partial(e, "z0", env)
        half = fd_partial(e, "z0", env, h=5e-7)
        got = evaluate(partial(e, z(0)), env)
    except (ValueError, OverflowError):  # EvalError, or fsum of inf - inf
        assume(False)
    assume(all(map(math.isfinite, (value, want, half, got))))
    # the difference quotient cancels, so its error grows with |e|
    tol = 1e-4 * (1.0 + abs(want) + abs(value))
    # a stencil too wide for e (near a pole, or where e oscillates fast)
    # shows as two step sizes that disagree; the oracle does not judge there
    assume(abs(want - half) <= tol)
    assert abs(got - want) <= tol
