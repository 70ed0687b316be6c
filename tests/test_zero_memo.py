"""Each zero test of a table runs once, and gives what is_zero gives.

PssTriple.check_zero keeps its verdicts on the triple, keyed by every
argument is_zero reads.  These tests check that a kept verdict equals a
fresh is_zero with the same arguments, that any changed argument gets a
new verdict, that the stacked zero test equals the per-term loop it
replaced on every zero test of the catalog, and that the analysis of one
family samples each distinct argument set once.
"""

import dataclasses
import inspect
import sys

import pytest

from numeric_oracle import loop_is_zero

from pssurf import catalog, forms
from pssurf.catalog import FamilyId, build, sample_params
from pssurf.expr import EvalError, is_zero, parse, simplify
from pssurf.forms import verify_family
from pssurf.sff import (
    NoImmersion, closed_form, finite_jet_obstruction, verify_immersion,
)

_SIGNATURE = inspect.signature(is_zero)


def _key(*args, **kwargs):
    """Every argument is_zero reads, defaults filled in; nodes canonical,
    values by repr so that 0.0 and -0.0 differ."""
    bound = _SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return (simplify(a["e"]), tuple(simplify(c) for c in a["constraints"]),
            repr((a["params"], a["ranges"], a["n"], a["tol"], a["seed"])))


def _record(monkeypatch):
    """Route every module's is_zero through a recorder; returns the list
    of (args, kwargs, verdict) it fills."""
    calls = []

    def recorder(*args, **kwargs):
        verdict = is_zero(*args, **kwargs)
        calls.append((args, kwargs, verdict))
        return verdict

    for name, mod in list(sys.modules.items()):
        if name.startswith("pssurf") and getattr(mod, "is_zero", None) is is_zero:
            monkeypatch.setattr(mod, "is_zero", recorder)
    return calls


def _same(got, want):
    # repr shows every field, floats exactly and -0.0 apart from 0.0
    return repr(got) == repr(want)


def _table():
    return build("sg-eta", {"eta": 1.5}).triple


# ---------------------------------------------------------------- the memo


def test_check_zero_equals_a_fresh_is_zero(monkeypatch):
    tr = _table()
    calls = _record(monkeypatch)
    e = parse("sin(z0)*eta - z1")
    got = tr.check_zero(e, n=32)
    assert _same(got, is_zero(e, **tr.zero_kwargs(), n=32))
    assert tr.check_zero(e, n=32) is got
    # the canonical form is the key: an equal tree built anew is a hit
    assert tr.check_zero(simplify(parse("-z1 + eta*sin(z0)")), n=32) is got
    assert len(calls) == 1


@pytest.mark.parametrize("change", [
    dict(n=33), dict(seed=7), dict(tol=1e-3),
    dict(constraints=(parse("z0 + 3"),)), dict(params={"eta": 2.0}),
    dict(ranges={"z0": (-1.0, 1.0)}),
])
def test_an_override_gets_its_own_verdict(monkeypatch, change):
    tr = _table()
    e = parse("sin(z0)*eta - z1")
    first = tr.check_zero(e)
    calls = _record(monkeypatch)
    got = tr.check_zero(e, **change)
    assert len(calls) == 1
    assert _same(got, is_zero(e, **{**tr.zero_kwargs(), **change}))
    assert tr.check_zero(e) is first


def test_a_changed_table_is_not_served_an_old_verdict(monkeypatch):
    tr = _table()
    tr.params["xi"] = 1.5  # a pinned value that no constraint reads
    e = parse("xi*z0 - 1.5*z0")
    assert tr.check_zero(e).status == "numeric"
    calls = _record(monkeypatch)
    tr.params["xi"] = 2.0
    assert tr.check_zero(e).status == "nonzero"
    # the witness carries the pinned value, so a verdict kept for -0.0
    # would show in one for 0.0
    for xi in (-0.0, 0.0):
        tr.params["xi"] = xi
        assert _same(tr.check_zero(e), is_zero(e, **tr.zero_kwargs()))
    assert len(calls) == 3


def test_a_replaced_table_starts_with_no_verdicts(monkeypatch):
    tr = _table()
    e = parse("sin(z0)*eta - z1")
    tr.check_zero(e)
    copy = dataclasses.replace(tr)
    assert copy == tr  # the verdicts take no part in equality
    calls = _record(monkeypatch)
    assert _same(copy.check_zero(e), tr.check_zero(e))
    assert len(calls) == 1
    assert "_verdicts" not in repr(tr)


def test_verdicts_are_frozen():
    v = _table().check_zero(parse("z0"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.status = "proven"


def test_an_error_is_raised_each_time_and_not_kept(monkeypatch):
    tr = _table()
    calls = []
    monkeypatch.setattr(forms, "is_zero",
                        lambda *a, **k: calls.append(1) or is_zero(*a, **k))
    e = parse("z0")
    for _ in range(2):
        with pytest.raises(EvalError):
            tr.check_zero(e, constraints=(parse("z0 - 10"),))
    assert len(calls) == 2


# ------------------------------------------- the catalog against the oracle


def _draw(fam):
    """The first seeded draw of the family that builds."""
    for seed in range(50):
        params = sample_params(fam, seed=seed)
        try:
            return build(fam, dict(params))
        except catalog.ConstraintError:
            continue
    raise AssertionError(f"no admissible draw of {fam}")


def _analyse(spec):
    """What the classify-catalog benchmark does with one instance."""
    verify_family(spec.triple)
    try:
        form = closed_form(spec)
    except NoImmersion:
        pass
    else:
        verify_immersion(spec.triple, form)
    finite_jet_obstruction(spec)


@pytest.mark.parametrize("fam", [f.value for f in FamilyId])
def test_every_zero_test_of_a_family_matches_the_per_term_loop(monkeypatch, fam):
    calls = _record(monkeypatch)
    _analyse(_draw(fam))
    assert calls
    for args, kwargs, verdict in calls:
        assert _same(verdict, loop_is_zero(*args, **kwargs)), args[0]


@pytest.mark.parametrize("fam, params", [
    ("sg-basic", {}),
    ("hyp-iii-lambda", {"eta": 1.0, "lambda": 1.0, "xi": 0.1, "tau": 0.2,
                        "T": 1.0}),
])
def test_a_family_samples_each_zero_test_once(monkeypatch, fam, params):
    spec = build(fam, params)
    calls = _record(monkeypatch)
    _analyse(spec)
    keys = [_key(*args, **kwargs) for args, kwargs, _ in calls]
    assert keys, "the analysis made no zero test"
    repeats = len(keys) - len(set(keys))
    assert repeats == 0, f"{repeats} of {len(keys)} zero tests repeat an earlier one"

