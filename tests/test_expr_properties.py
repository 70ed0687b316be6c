"""Property tests for the expression core.

Random trees are built through the operators (+ - * / ^, unary minus) and
the nine functions, over z0, z1, x, t, eta and small exact and float
constants.  Building a tree twice must give the one interned node, their
canonical forms must be fixed points of simplify and have the canonical
shape, and partial derivatives by z0 and total derivatives must agree with
a central difference wherever both are finite.  The memoized derivatives
and the stacked zero test must give what the uncached derivation and the
per-term zero test give.
"""

import math
import operator
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fd_oracle import fd_partial, fd_total
from numeric_oracle import _compile, loop_is_zero

from pssurf.expr import (
    FUNCTION_NAMES, Add, Const, EvalError, Fun, Mul, Param, Pow, T, X,
    evaluate, free_leaves, free_names, is_zero, parse, partial, simplify,
    to_text, total_t, total_x, walk, z,
)
from pssurf.expr.calculus import _derive, _partial_rule, _total_rule
from pssurf.expr.numeric import Tape
from pssurf.expr.simplify import _canon

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
    """The tree built again, node by node, through the constructors."""
    if isinstance(e, Fun):
        return Fun(e.fname, _fresh(e.arg))
    if isinstance(e, Pow):
        return Pow(_fresh(e.base), _fresh(e.exponent))
    if isinstance(e, (Mul, Add)):
        return type(e)(tuple(_fresh(a) for a in e.args))
    return e


# nodes are interned, so == between expressions is identity, and the
# round-trip tests below check that the re-parsed form is the same node
@SETTINGS
@given(TREES)
def test_building_a_tree_twice_gives_one_node(e):
    assert _fresh(e) is e
    assert _fresh(simplify(e)) is simplify(e)


def test_constants_are_keyed_by_exact_value_or_float_bits():
    assert Const(1) is Const(Fraction(1)) is Const(Fraction(2, 2))
    assert Const(1) is not Const(1.0)
    assert Const(0.0) is not Const(-0.0)
    assert Const(0.0) is Const(0.0 * 3)
    # equal bits make one node even though nan != nan
    nan = float("nan")
    assert Const(nan) is Const(float("nan"))
    assert Const(-nan) is not Const(nan)


def test_threads_building_one_structure_get_one_node():
    # more threads than cores, switching often, all building the same new
    # structures at once: a lost insert would hand two threads two nodes
    n_threads, n_trees = 4, 3000
    start = threading.Barrier(n_threads)
    built = [None] * n_threads

    def build(slot):
        start.wait()
        built[slot] = [Add((Param(f"stress{k}"), Const(k)))
                       for k in range(n_trees)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for nodes in zip(*built):
        assert all(node is nodes[0] for node in nodes)


@SETTINGS
@given(TREES)
def test_canonical_form_is_a_fixed_point_of_canonical_shape(e):
    c = simplify(e)
    assert simplify(c) is c
    # recompute rather than read the cached c._canon, which every equal
    # tree shares
    assert all(_canon(node) is node for node in walk(c))
    for node in walk(c):
        if isinstance(node, Mul):
            assert not any(isinstance(a, Mul) for a in node.args)
            assert not any(isinstance(a, Const) for a in node.args[1:])
        elif isinstance(node, Add):
            assert not any(isinstance(a, Add) for a in node.args)
            assert sum(isinstance(a, Const) for a in node.args) <= 1
        elif isinstance(node, Pow) and isinstance(node.exponent, Const):
            assert node.exponent.value not in (0, 1)


@SETTINGS
@given(TREES)
def test_printed_text_parses_back_to_the_canonical_form(e):
    assert simplify(parse(to_text(e))) == simplify(e)


@pytest.mark.parametrize("text", ["(0^-1)^2", "x*(0^-1)^3/z0", "x*0^-1/z0",
                                  "z0^-2*(z0^z0)^-1", "(1/4)^-512"])
def test_zero_base_round_trips(text):
    # a zero base printed as a divisor, 1/0^2, re-parses as 1/(0^2) = 1/0;
    # so would (1/4)^512 fold, and 1/(z0^2*(z0^z0)) merge to 1/z0^(2 + z0)
    e = simplify(parse(text))
    assert simplify(parse(to_text(e))) == e


def _bits(v):
    v = np.asarray(v)
    return v.tobytes(), v.dtype, v.shape


# the sampled names are arrays of several points; eta stays a Python
# float, as is_zero's fixed parameters do
@SETTINGS
@given(st.lists(TREES, min_size=1, max_size=3),
       st.lists(POINTS, min_size=1, max_size=4))
def test_tape_matches_closure_compiler_bit_for_bit(trees, points):
    env = {nm: np.array([p[nm] for p in points])
           for nm in ("z0", "z1", "x", "t")}
    env["eta"] = points[0]["eta"]
    roots = [simplify(e) for e in trees]
    want, raised = [], set()
    with np.errstate(all="ignore"):
        for root in roots:
            try:
                want.append(_bits(_compile(root)(env)))
            except Exception as exc:  # Python float arithmetic on eta alone
                raised.add(type(exc))
        try:
            got = [_bits(v) for v in Tape(roots).run(env)]
        except Exception as exc:
            assert type(exc) in raised
        else:
            assert not raised and got == want


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
    _assert_matches_central_difference(value, want, half, got)


def _assert_matches_central_difference(value, want, half, got):
    assume(all(map(math.isfinite, (value, want, half, got))))
    # the difference quotient cancels, so its error grows with |e|
    tol = 1e-4 * (1.0 + abs(want) + abs(value))
    # a stencil too wide for e (near a pole, or where e oscillates fast)
    # shows as two step sizes that disagree; the oracle does not judge there
    assume(abs(want - half) <= tol)
    assert abs(got - want) <= tol


# fd_total moves each jet at the value of the jet one derivative higher
TOTAL_POINTS = st.fixed_dictionaries(
    {name: _COORD for name in ("z0", "z1", "z2", "w1", "ux1t1", "x", "t",
                               "eta")})


@pytest.mark.parametrize("direction", ["x", "t"])
@settings(SETTINGS, max_examples=60)
@given(TREES.filter(lambda e: free_names(e) - {"eta"}), TOTAL_POINTS)
def test_total_derivative_matches_central_difference(direction, e, env):
    total = {"x": total_x, "t": total_t}[direction]
    try:
        value = evaluate(e, env)
        want = fd_total(e, direction, env)
        half = fd_total(e, direction, env, h=5e-7)
        got = evaluate(total(e), env)
    except (ValueError, OverflowError):  # EvalError, or fsum of inf - inf
        assume(False)
    _assert_matches_central_difference(value, want, half, got)


# ------------------------------------------- memoized derivatives, zero test


@SETTINGS
@given(TREES)
def test_memoized_derivatives_are_the_uncached_derivation(e):
    c = simplify(e)
    for leaf in (z(0), z(1), X, Param("eta")):
        assert partial(e, leaf) is simplify(_derive(c, _partial_rule(leaf)))
    for direction, total in (("x", total_x), ("t", total_t)):
        assert total(e) is simplify(_derive(c, _total_rule(direction)))


# terms whose values overflow, or are nan, on part of the domain
_WILD = st.sampled_from([parse("exp(exp(3*z0))"), parse("log(z1)"),
                         parse("sqrt(z0 - 1)"), parse("1/(x - t)")])
_SUM_TERMS = st.one_of(TREES, TREES, _WILD,
                       st.sampled_from(_CONSTANTS + [Const(-0.0), Const(0.0)]))
# sin(2u) - 2*sin(u)*cos(u) vanishes, but not symbolically
_DOUBLE_ANGLE = TREES.map(lambda u: [Fun("sin", 2 * u),
                                     -2 * Fun("sin", u) * Fun("cos", u)])
# constraints admitting about 1/2, 1/4 and 1/16 of a round
_CONSTRAINTS = st.sampled_from([(), (parse("z1"),), (parse("z0 - 1"),),
                                (parse("z0 - 1"), parse("t - 1"))])


@settings(SETTINGS, max_examples=300)
@given(st.one_of(st.lists(_SUM_TERMS, min_size=1, max_size=5), _DOUBLE_ANGLE),
       _CONSTRAINTS,
       st.sampled_from([None, 0.0, -0.0, 1.5]), st.sampled_from([16, 64]),
       st.integers(0, 3))
def test_stacked_zero_test_matches_the_per_term_loop(terms, constraints, eta,
                                                     n, seed):
    e = Add(tuple(terms)) if len(terms) > 1 else terms[0]
    kw = dict(constraints=constraints, n=n, seed=seed,
              params={} if eta is None else {"eta": eta})
    try:
        want = loop_is_zero(e, **kw)
    except EvalError:
        with pytest.raises(EvalError):
            is_zero(e, **kw)
        return
    # repr shows every field, floats exactly and -0.0 apart from 0.0
    assert repr(is_zero(e, **kw)) == repr(want)
