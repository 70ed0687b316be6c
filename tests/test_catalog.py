import json
import re
from pathlib import Path

import numpy as np
import pytest

from pssurf.catalog import (
    _FAMILIES,
    ConstraintError,
    FamilyId,
    build,
    hlpm,
    sample_params,
    validate_evolution_constraints,
)
from pssurf.cli import _FAMILY_PARAMS, OPTIONS, main
from pssurf.expr import (Const, Param, is_zero, parse, partial, simplify,
                         substitute, to_text, z)
from pssurf.forms import verify_family

GOLDEN_DRAWS = Path(__file__).with_name("golden_draws.json")


def test_family_id_names():
    assert FamilyId.from_name("hyp-ii") is FamilyId.HYP_II_GAMMA_NE1
    assert FamilyId.from_name("HYP_II_GAMMA_NE1") is FamilyId.HYP_II_GAMMA_NE1
    assert FamilyId.from_name("sg_basic") is FamilyId.SG_BASIC
    with pytest.raises(ValueError, match="known families"):
        FamilyId.from_name("nope")


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_families_satisfy_structure_equations(family):
    rng = np.random.default_rng(hash(family.value) % 2**32)
    for _ in range(2):
        spec = build(family, sample_params(family, rng=rng))
        report = verify_family(spec.triple)
        assert report.ok, "\n".join(report.lines())


@pytest.mark.parametrize("family", [
    FamilyId.EVO_HLNONZERO, FamilyId.EVO_HLZERO, FamilyId.HYP_II_GAMMA_NE1,
    FamilyId.HYP_II_GAMMA1, FamilyId.HYP_III_LAMBDA,
], ids=lambda f: f.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_both_sign_branches(family, sign):
    params = sample_params(family, seed=11)
    params["sign"] = sign
    spec = build(family, params)
    assert spec.params["sign"] == sign
    report = verify_family(spec.triple)
    assert report.ok, "\n".join(report.lines())


@pytest.mark.parametrize("family,fkind", [
    ("hyp-i", "sin"), ("hyp-i", "cos"), ("hyp-i", "sinh"), ("hyp-i", "cosh"),
    ("hyp-i-qa", "sin"), ("hyp-i-qa", "cos"),
])
def test_linearizing_identity_is_structural(family, fkind):
    # F'' + alpha F must cancel to the literal zero, not just numerically
    spec = build(family, {"fkind": fkind})
    F = spec.ctx.rhs
    resid = simplify(partial(partial(F, z(0)), z(0)) + spec.alpha * F)
    assert to_text(resid) == "0"


def test_hyp_i_fkind_follows_pinned_sign():
    spec = build("hyp-i", {"A": 1, "B": 2, "Q": 0.5, "eta": 1})
    assert spec.params["fkind"] == "sinh"
    assert any("< 0" in line for line in spec.report)
    assert verify_family(spec.triple).ok


def test_hyp_i_qa_shape():
    spec = build("hyp-i-qa", {"A": 2.0, "Q": 0.0, "eta": 1.0})
    assert to_text(spec.triple.f(3, 2)) == "0"
    assert to_text(spec.alpha) == "1/A^2"
    assert verify_family(spec.triple).ok


@pytest.mark.parametrize("fkind", ["sin", "cos"])
def test_hyp_i_qa_is_hyp_i_at_b_zero(fkind):
    # one formula set: each entry and F is the very node of hyp-i at B = 0
    general = build("hyp-i", {"fkind": fkind})
    qa = build("hyp-i-qa", {"fkind": fkind})
    at_zero = {Param("B"): Const(0)}
    pairs = [(general.triple.f(i, j), qa.triple.f(i, j))
             for i in (1, 2, 3) for j in (1, 2)]
    for g, q in pairs + [(general.ctx.rhs, qa.ctx.rhs)]:
        assert simplify(substitute(g, at_zero)) is q, to_text(q)


def test_evolution_defaults_reduce_to_known_equation():
    spec = build("evo-hlnonzero",
                 {"alpha": 0.0, "eta": 1.0, "f11": "z0", "f22": "z0", "sign": 1})
    kw = spec.triple.zero_kwargs()
    assert is_zero(simplify(spec.ctx.rhs - parse("-z2 + 2*z0*z1")), **kw)
    assert is_zero(simplify(spec.triple.f(3, 1) - parse("1")), **kw)
    assert spec.report[:1] == ["P = 0: proven"]
    assert any(line.startswith("M = -L^2/eta^2") for line in spec.report)
    assert "H*L != 0: confirmed" in spec.report


def test_evolution_second_family_default_equation():
    spec = build("evo-hlzero", {"f11": "exp(z0)", "f12": "exp(z0)*z1", "sign": 1})
    kw = spec.triple.zero_kwargs()
    assert is_zero(simplify(spec.ctx.rhs - parse("z2 + z1^2 - lambda + eta*z1")),
                   **kw)
    assert "L = 0: proven" in spec.report
    assert "f31 = +1*f11: proven" in spec.report
    assert "f32 = +1*f12: proven" in spec.report


def test_evolution_supplied_f31_checked():
    ok = {"alpha": 0.0, "eta": 1.0, "f11": "z0", "f22": "z0", "sign": 1}
    spec = build("evo-hlnonzero", dict(ok, f31="1"))
    assert verify_family(spec.triple).ok
    with pytest.raises(ConstraintError, match=r"f31 = alpha\*f11"):
        build("evo-hlnonzero", dict(ok, f31="z0"))


def test_hlpm_combinations():
    q = hlpm(parse("z0"), parse("1"))
    assert to_text(q.H) == "z0"
    assert to_text(q.L) == "-1"
    assert to_text(q.P) == "0"
    assert to_text(q.M) == "-1"


def test_validate_rejects_non_evolution():
    spec = build("sg-eta", {"eta": 1.0})
    with pytest.raises(ConstraintError, match="evolution family required"):
        validate_evolution_constraints(spec)


@pytest.mark.parametrize("family,params,relation", [
    ("hyp-ii", {"gamma": 1.0}, "gamma != 1"),
    ("hyp-ii", {"gamma": 2, "delta": 1, "nu": 1, "beta": 1, "A": 2, "B": 1,
                "eta": 1}, r"A\^2 - B\^2"),
    ("evo-hlnonzero", {"f11": "z0", "f31": "z0 + 1", "alpha": 1.0},
     r"alpha\^2 < 1"),
    ("evo-hlnonzero", {"f11": "z1"}, "f11 depends"),
    ("evo-hlnonzero", {"f22": "3"}, "f22_z0 != 0"),
    ("evo-hlzero", {"f12": "exp(z0)"}, "not of second-order"),
    ("hyp-i", {"A": 2, "B": 1, "fkind": "sinh"}, "alpha < 0"),
    ("hyp-i", {"A": 1, "B": 2, "fkind": "sin"}, "alpha > 0"),
    ("hyp-i", {"A": 1, "B": 1}, r"A\^2 - B\^2 != 0"),
    ("hyp-i-qa", {"fkind": "cosh"}, "alpha > 0"),
    ("hyp-iii-lambda", {"lambda": 0.0}, "lambda != 0"),
    ("sg-eta", {"eta": 0.0}, "eta != 0"),
    ("sg-eta", {"bogus": 1.0}, "unknown parameter"),
    # table text names only the family's own parameters: gamma_im is the
    # immersion constant, and B and alpha belong to other families
    ("evo-hlzero", {"f11": "exp(gamma_im*z0)", "f12": "exp(gamma_im*z0)*z1"},
     "unknown parameter: f11 names 'gamma_im', which is not a parameter of "
     "evo-hlzero"),
    ("evo-hlzero", {"f11": "exp(B*z0)"}, "f11 names 'B'"),
    ("evo-hlzero", {"f12": "exp(z0)*z1 + alpha*z1"}, "f12 names 'alpha'"),
    ("evo-hlnonzero", {"f22": "z0 + A"}, "f12 names 'A'"),
    # a non-finite value is named before any relation is checked
    ("sg-eta", {"eta": float("inf")}, "eta finite: eta = inf"),
    ("hyp-ii", {"gamma": 2.0, "nu": float("nan")}, "nu finite"),
    ("hyp-iii-lambda", {"lambda": float("-inf")}, "lambda finite"),
])
def test_constraint_gates(family, params, relation):
    with pytest.raises(ConstraintError, match=relation):
        build(family, params)


@pytest.mark.parametrize("command,family,params,relation", [
    ("verify", "sg-eta", {"eta": 0.01}, "eta != 0"),
    ("verify", "hyp-i", {"A": 0.5, "B": 1.5, "Q": 0.8, "eta": 0.5657},
     "eta^2 + Q^2/(A^2 - B^2) != 0"),
    ("verify", "evo-hlnonzero", {"alpha": 0.9999}, "alpha^2 < 1"),
    ("obstruct", "hyp-iii-lambda", {"lambda": 0.001}, "lambda != 0"),
    ("verify", "hyp-ii", {"gamma": 0.5, "delta": 0.5, "B": 0.1},
     "A^2 = B^2 + (gamma - 1)/delta^2 > 0"),
    # a table entry fixes the constraint without a parameter to name
    ("verify", "evo-hlnonzero", {"f11": "0.01*z0"}, "f11_z0 != 0"),
])
def test_pinned_values_must_clear_the_constraint_margin(
        capsys, tmp_path, command, family, params, relation):
    # nonzero, but inside the margin the zero tests keep from every
    # constraint: build names the relation instead of leaving a zero test
    # with no point to sample
    with pytest.raises(ConstraintError) as info:
        build(family, params)
    assert info.value.name == relation
    argv = [command, "--family", family]
    table = {k: v for k, v in params.items() if isinstance(v, str)}
    if table:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\n" + "".join(
            f"{k} = {v}\n" for k, v in table.items()))
        argv += ["--config", str(cfg)]
    for key, value in params.items():
        if key not in table:
            argv += [f"--{key}", str(value)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    head = re.escape(f"constraint violation: {relation}: ")
    assert re.fullmatch(head + r"[^\n]+\n", err), err


def test_parameter_aliases():
    spec = build("hyp-iii-lambda",
                 {"lam": 1.0, "eta": 1.0, "T": 1.0, "zeta": 0.25, "tau": 0.0})
    assert spec.params["lambda"] == 1.0
    assert spec.params["xi"] == 0.25


@pytest.mark.parametrize("alias,name,value", [
    ("zeta", "xi", 0.3), ("lam", "lambda", 1.2), ("s", "sign", -1),
])
def test_alias_collision_names_both_keys(alias, name, value):
    params = {"eta": 1.0, "lambda": 1.0, "T": 1.0, "tau": 0.0, "xi": 0.1}
    params.pop(name, None)
    params.update({name: value, alias: value})
    with pytest.raises(ConstraintError, match="given twice") as info:
        build("hyp-iii-lambda", params)
    assert repr(alias) in str(info.value) and repr(name) in str(info.value)


def test_sample_params_draw_stream_is_frozen():
    # classify-catalog's inputs are ten batches of every family from one
    # generator; an edit of the family table must not move them unnoticed
    want = json.loads(GOLDEN_DRAWS.read_text())
    rng = np.random.default_rng([7, 0])
    got = [[f.value, sample_params(f, rng=rng)] for _ in range(10)
           for f in FamilyId]
    assert [(f, list(p.items())) for f, p in got] == \
        [(f, list(p.items())) for f, p in want]
    assert sample_params("hyp-i", seed=42) == sample_params("hyp-i", seed=42)


def test_cli_flags_cover_the_family_parameters():
    # cli keeps its own list of family flags; it must stay in step with the
    # table, without flags for the input-only aliases lam and s
    declared = {name for entry in _FAMILIES.values() for name in entry.numeric}
    assert declared | {"sign"} <= OPTIONS.keys()
    assert set(_FAMILY_PARAMS) - {"zeta"} <= declared | {"sign"}

