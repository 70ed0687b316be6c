"""Trees far deeper than the recursion limit, and DAGs whose paths
outnumber their nodes, through every expression pass.

A 100,000-deep chain is built through the API, once of sin and once
alternating Add, Mul and Pow; each pass must go through at the default
recursion limit and give what a loop over the levels gives.  A 40-level
doubling DAG has 2^40 paths but a few nodes per level; each pass must
visit its nodes once, not once per path.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from pssurf.expr import (
    Add, Const, Fun, Mul, Param, Pow, compile_expr, evaluate, free_names,
    partial, simplify, substitute, to_text, total_x, z,
)
from pssurf.expr.numeric import Tape

DEPTH = 100_000
ETA, ALPHA, BETA = Param("eta"), Param("alpha"), Param("beta")
HALF = Const(Fraction(1, 2))
POINT = {"eta": 0.3, "alpha": 0.5, "beta": 1.5}


def _sin_chain():
    e = ETA
    for _ in range(DEPTH):
        e = Fun("sin", e)
    return e


def _mixed_chain():
    # built in canonical argument order, so the tree is its own
    # canonical form and the chain is held once
    e = ETA
    for k in range(DEPTH):
        e = (Add((ALPHA, e)), Mul((BETA, e)), Pow(e, HALF))[k % 3]
    return e


def _sin_value(p):
    v = p["eta"]
    for _ in range(DEPTH):
        v = math.sin(v)
    return v


def _mixed_value(p):
    v = p["eta"]
    for k in range(DEPTH):
        v = (p["alpha"] + v, p["beta"] * v, v ** 0.5)[k % 3]
    return v


@pytest.fixture(scope="module", params=["sin", "mixed"])
def chain(request):
    assert sys.getrecursionlimit() < DEPTH
    if request.param == "sin":
        return _sin_chain(), _sin_value
    return _mixed_chain(), _mixed_value


def test_deep_chain_simplifies_and_sorts(chain):
    e, _ = chain
    assert simplify(e) is e
    key = e.sort_key()
    assert key[0] == {Fun: 4, Add: 7}[type(e)]


def test_deep_chain_evaluates(chain):
    e, value = chain
    assert evaluate(e, POINT) == value(POINT)
    got = compile_expr(e)({nm: np.full(2, v) for nm, v in POINT.items()})
    np.testing.assert_allclose(got, value(POINT), rtol=1e-12)


def test_deep_chain_substitutes_and_differentiates(chain):
    e, _ = chain
    # every node is rebuilt, and each rebuild is the interned node
    assert substitute(e, {ETA: ETA}) is e
    assert partial(e * z(0), z(0)) is e
    assert total_x(e * z(0)) is simplify(e * z(1))


def test_deep_chain_prints_and_lists_its_names(chain):
    e, _ = chain
    text = to_text(e)
    if isinstance(e, Fun):
        assert text == "sin(" * DEPTH + "eta" + ")" * DEPTH
        assert free_names(e) == {"eta"}
    else:
        # levels 0, 3, 6, ... add alpha; 1, 4, ... multiply; 2, 5, ... root
        assert text.count("alpha") == DEPTH // 3 + 1
        assert text.count("beta") == text.count("^(1/2)") == DEPTH // 3
        assert free_names(e) == {"eta", "alpha", "beta"}


def test_doubling_dag_visits_each_node_once():
    e = z(0)
    for _ in range(40):
        e = e + e * ETA
    start = time.perf_counter()
    env = {"z0": 0.5, "eta": 0.01}
    assert substitute(e, {z(0): z(1)}) is not e
    assert evaluate(e, env) == pytest.approx(0.5 * 1.01 ** 40, rel=1e-12)
    assert free_names(e) == {"z0", "eta"}
    d = partial(e, z(0))
    assert evaluate(d, env) == pytest.approx(1.01 ** 40, rel=1e-12)
    tape = Tape((e, d))
    assert len(tape) < 1000
    assert tape.run(env) == pytest.approx([0.5 * 1.01 ** 40, 1.01 ** 40])
    assert time.perf_counter() - start < 1.0
