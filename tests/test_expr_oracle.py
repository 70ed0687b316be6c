"""The post-order expression passes against the recursive ones they
replaced (expr_oracle.py).

Canonical forms, raw derivatives, canonical partials and substitutions
must be the same node; sort keys equal; tape layouts equal field by
field and their runs equal bit for bit; scalar values, or the error
raised, equal; printed text equal byte for byte, except where the
round-trip fix prints a power as base^-n that the old printer wrote as
a divisor.  Inputs: the hypothesis trees of the property tests and, for
every catalog family, its f_ij, constraints, equation right-hand side
and closed-form (a, b, c).
"""

import numpy as np
import pytest
from hypothesis import given

import expr_oracle as oracle
from test_expr_properties import SETTINGS, TREES

from pssurf.catalog import FamilyId, build, sample_params
from pssurf.expr import (
    Const, Param, Pow, T, X, evaluate, free_leaves, partial, simplify,
    substitute, to_text, walk, z,
)
from pssurf.expr.calculus import _derive, _partial_rule, _total_rule
from pssurf.expr.numeric import Tape
from pssurf.expr.printer import _divisor_power
from pssurf.sff import NoImmersion, closed_form

_ETA = Param("eta")


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _layout(tape):
    init = [None if v is None else v.tobytes() for v in tape._init]
    return init, tape._loads, tape._code, tape._roots, tape.names


def _printed_as_before(e):
    """No power in e prints differently under the round-trip fix."""
    return all(oracle._neg_int_exponent(p) == _divisor_power(p)
               for p in walk(e) if isinstance(p, Pow))


def _check(e, point):
    c = simplify(e)
    assert oracle.simplify(e) is c
    assert e.sort_key() == oracle.sort_key(e)
    assert c.sort_key() == oracle.sort_key(c)

    leaves = sorted(free_leaves(e) | {z(0)}, key=lambda n: n.sort_key())
    rules = [_partial_rule(leaf) for leaf in leaves]
    rules += [_total_rule("x"), _total_rule("t")]
    for rule in rules:
        assert _derive(e, rule) is oracle._derive(e, rule)
        assert _derive(c, rule) is oracle._derive(c, rule)
    for leaf in leaves:
        assert partial(e, leaf) is oracle.simplify(
            oracle._derive(c, _partial_rule(leaf)))

    mappings = [{z(0): z(1) * X, _ETA: Const(2)}, {leaf: T for leaf in leaves}]
    mappings += [{node: z(3)} for node in (c, *c.children())]
    for m in mappings:
        assert substitute(e, m) is oracle.substitute(e, m)
        assert substitute(c, m) is oracle.substitute(c, m)

    env = {leaf.name: point + 0.25 * k for k, leaf in enumerate(leaves)}
    assert _outcome(evaluate, e, env) == _outcome(oracle.evaluate, e, env)
    assert _outcome(evaluate, c, env) == _outcome(oracle.evaluate, c, env)

    roots = [c, *c.children(), simplify(partial(c, z(0)))]
    new, old = Tape(roots), oracle.Tape(roots)
    assert _layout(new) == _layout(old)
    grid = {nm: np.linspace(-1.5, 1.5, 5) + v for nm, v in env.items()}
    with np.errstate(all="ignore"):
        assert ([np.asarray(v).tobytes() for v in new.run(grid)]
                == [np.asarray(v).tobytes() for v in old.run(grid)])

    for x in (e, c):
        if _printed_as_before(x):
            assert to_text(x) == oracle.to_text(x)


@SETTINGS
@given(TREES)
def test_passes_match_the_recursive_oracle_on_random_trees(e):
    _check(e, 0.375)


def _family_exprs(family):
    spec = build(family, sample_params(family, seed=11))
    tr = spec.triple
    out = [tr.f(i, j) for i in (1, 2, 3) for j in (1, 2)]
    out += list(tr.constraints) + [spec.ctx.rhs]
    try:
        sff = closed_form(spec)
    except NoImmersion:
        pass
    else:
        out += [sff.a, sff.b, sff.c, *sff.constraints]
    return out


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_passes_match_the_recursive_oracle_on_the_catalog(family):
    for e in _family_exprs(family):
        _check(e, 0.3)
