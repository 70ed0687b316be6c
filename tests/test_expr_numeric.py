import math
import weakref

import numpy as np
import pytest

from pssurf.expr import (
    Add, Const, EvalError, Mul, Param, Pow, Var, compile_expr, evaluate, exp,
    is_zero, parse, simplify, total_x, walk, z,
)
from pssurf.expr.numeric import _MAX_ROUNDS, Tape

from numeric_oracle import loop_is_zero


def test_evaluate_basics():
    assert evaluate(parse("2*z1 + 1"), {"z1": 3.0}) == 7.0
    got = evaluate(parse("eta*sin(z0)"), {"eta": 2.0, "z0": math.pi / 2})
    assert abs(got - 2.0) < 1e-15


def test_evaluate_unbound_name():
    with pytest.raises(EvalError):
        evaluate(parse("z0 + eta"), {"z0": 1.0})


def test_evaluate_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("log(z0)"), {"z0": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("1/z0"), {"z0": 0.0})
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(z0)"), {"z0": -4.0})


def test_proven_zero_by_simplification():
    v = is_zero(parse("sin(z0)^2 + cos(z0)^2 - 1"))
    assert v.status == "proven"
    assert v.proven


def test_numeric_zero_double_angle():
    v = is_zero(parse("sin(2*z0) - 2*sin(z0)*cos(z0)"))
    assert v.status in ("proven", "numeric")
    assert bool(v)
    if v.status == "numeric":
        assert v.max_rel < 1e-9


def test_nonzero_has_witness():
    v = is_zero(parse("sin(z0) - z0"))
    assert v.status == "nonzero"
    assert not bool(v)
    assert v.witness is not None
    assert "z0" in v.witness
    # the witness must actually expose the failure
    val = evaluate(simplify(parse("sin(z0) - z0")), v.witness)
    assert abs(val) > 1e-9


def test_constraint_changes_verdict():
    # |z0| = z0 holds only on the constrained half-line
    free = is_zero(parse("sqrt(z0^2) - z0"))
    assert free.status == "nonzero"
    gated = is_zero(parse("sqrt(z0^2) - z0"), constraints=(parse("z0"),))
    assert bool(gated)


def test_param_ranges_respected():
    v = is_zero(
        parse("sqrt(eta^2) - eta"),
        ranges={"eta": (0.5, 2.0)},
    )
    assert bool(v)
    w = is_zero(
        parse("sqrt(eta^2) - eta"),
        ranges={"eta": (-2.0, -0.5)},
    )
    assert w.status == "nonzero"


def test_fixed_params_override_sampling():
    v = is_zero(parse("eta - 1"), params={"eta": 1.0})
    assert bool(v)


def test_seed_reproducible():
    a = is_zero(parse("sin(z0) - z0"), seed=7)
    b = is_zero(parse("sin(z0) - z0"), seed=7)
    assert a.witness == b.witness
    assert a.max_rel == b.max_rel


def test_witness_reproduces_max_rel_across_sampling_rounds(monkeypatch):
    # the constraint admits about a quarter of each round, so the points
    # come from several rounds; with seed 0 the worst of them all is drawn
    # after the first
    runs = []
    run = Tape.run
    monkeypatch.setattr(Tape, "run",
                        lambda self, env: runs.append(1) or run(self, env))
    e = simplify(parse("z0*z1 + z1 - eta"))
    v = is_zero(e, constraints=(parse("z0 - 1"),), params={"eta": 0.25},
                seed=0)
    assert v.status == "nonzero"
    assert len(runs) > 2
    assert v.witness["z0"] > 1 and v.witness["eta"] == 0.25
    terms = [evaluate(t, v.witness) for t in e.args]
    rel = abs(math.fsum(terms)) / (1.0 + sum(abs(t) for t in terms))
    assert rel == pytest.approx(v.max_rel, rel=1e-14)


def test_unsatisfiable_domain_reports():
    # the first round's 64 points are all rejected, and sampling ends there
    with pytest.raises(EvalError, match="0 points accepted, 64 rejected by"
                       " the constraints and 0 where"):
        is_zero(parse("z0"), constraints=(parse("z0 - 10"),))


@pytest.mark.parametrize("text, constraint, seed, outcome", [
    ("sin(2*z0) - 2*sin(z0)*cos(z0)", "z0 - 1.5", 3, "numeric"),
    ("z0*z1 - 1", "z0 - 1.5", 3, "nonzero"),
    ("z0*z1 - 1", "z0 - 1.8", 5, "EvalError"),
])
def test_sampling_ends_at_a_round_that_admits_no_point(monkeypatch, text,
                                                        constraint, seed,
                                                        outcome):
    # the constraint admits an eighth (a twentieth) of a round, so a later
    # round here admits no point; the next would redraw its seed
    e, c = parse(text), parse(constraint)

    def outcome_of(zero_test):
        try:
            return repr(zero_test(e, constraints=(c,), seed=seed))
        except EvalError:
            return "EvalError"

    want = outcome_of(loop_is_zero)
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: seeds.append(s) or default_rng(s))
    got = outcome_of(is_zero)
    assert got == want and outcome in got
    assert 2 < len(seeds) < _MAX_ROUNDS
    assert len(set(seeds)) == len(seeds)


def test_nowhere_finite_names_the_pinned_values():
    # sqrt of a negative number at every point: what was pinned is named,
    # on the one line, after the counts
    e = parse("l*sqrt(-1 - z0^2)")
    with pytest.raises(EvalError) as info:
        is_zero(e, params={"l": 1e308, "gamma_im": 1.0})
    msg = str(info.value)
    assert msg.startswith("zero test could not sample the domain: 0 points")
    assert msg.endswith(
        "not finite (pinned: gamma_im = 1, l = 1e+308)")
    assert "\n" not in msg
    with pytest.raises(EvalError) as info:
        is_zero(e * parse("l"), params={})
    assert "pinned" not in str(info.value)


# ------------------------------------------------------------------ tape


def test_tape_has_one_instruction_per_unique_subtree():
    # exp(z0 - exp(z0 - ... z0)) nested 50 deep, and its x derivative,
    # whose 6,270 nodes the closure compiler expanded one by one
    e = z(0)
    for _ in range(50):
        e = exp(z(0) - e)
    canon = simplify(e)
    dx = simplify(total_x(canon))
    tape = Tape((canon, dx))
    assert len(tape) == len(set(walk(canon)) | set(walk(dx)))
    assert tape.names == ("z0", "z1")


def test_tape_keeps_signed_zero_constants_apart():
    # float constants are keyed by bits, so these are two nodes, and
    # 1/0.0 and 1/-0.0 differ
    pos, neg = Pow(Const(0.0), Const(-1)), Pow(Const(-0.0), Const(-1))
    assert pos is not neg
    with np.errstate(divide="ignore"):
        got = Tape((pos, neg)).run({})
    assert got == [np.inf, -np.inf]


def test_tape_folds_sums_and_products_left():
    big = {"x": np.array([1e16, 1e200]), "t": np.array([-1e16, 1e200]),
           "eta": np.array([1.0, 1e-200])}
    x, t, eta = Var("x"), Var("t"), Param("eta")
    with np.errstate(over="ignore"):
        total, product = Tape((Add((x, t, eta)), Mul((x, t, eta)))).run(big)
    assert total.tolist() == [1.0, 2e200]
    assert product.tolist() == [-1e32, np.inf]


class _Tracked(np.ndarray):
    """Arrays that record how many of their kind are alive when one is made."""

    made: list = []
    peak = 0

    def __array_finalize__(self, obj):
        alive = sum(ref() is not None for ref in _Tracked.made)
        _Tracked.peak = max(_Tracked.peak, alive)
        _Tracked.made.append(weakref.ref(self))


def test_tape_clears_each_slot_after_its_last_use():
    # eight computed arrays in a chain; each is needed by the next only
    e = parse("z0")
    for _ in range(8):
        e = parse(f"sin({e}) + 1")
    tape = Tape((simplify(e),))
    z0 = np.linspace(0.0, 1.0, 5).view(_Tracked)
    _Tracked.made, _Tracked.peak = [weakref.ref(z0)], 0
    value = tape.run({"z0": z0})[0]
    assert len(_Tracked.made) == 17
    # z0 and the argument of the array being made, nothing older
    assert _Tracked.peak == 2
    assert np.asarray(value).tobytes() == np.asarray(
        compile_expr(e)({"z0": np.linspace(0.0, 1.0, 5)})).tobytes()


def test_zero_test_samples_the_names_of_terms_and_constraints():
    v = is_zero(parse("sin(z0) - z0"), constraints=(parse("eta + 3"),),
                params={"z0": 0.5})
    assert v.status == "nonzero"
    assert set(v.witness) == {"z0", "eta"}
