"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is exercised at its stated tolerance and time budget; the
per-test pass/fail line of `pytest -v` doubles as the per-criterion report.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fd_oracle import fd_partial, fd_total, finite, rel_err
from pssurf.catalog import FamilyId, build, sample_params
from pssurf.expr import (EvalError, Param, compile_expr, evaluate, free_leaves,
                         is_zero, partial, simplify, to_text, total_t, total_x)
from pssurf.forms import verify_family
from pssurf.frame import integrate_frame, validate_surface
from pssurf.sff import (Outcome, closed_form, finite_jet_obstruction,
                        gauss_residual, sample_strip_points, verify_immersion)
from pssurf.solutions import SolutionGrid, goursat_solve, sg_kink

# families with a classified closed-form second fundamental form; strip
# families get pinned numeric parameters so the strip can be sampled
_CLOSED = {
    FamilyId.SG_BASIC: {},
    FamilyId.SG_ETA: {"eta": 1.3},
    FamilyId.HYP_I_QA: {"A": 1.2, "Q": 0.7, "eta": 0.9},
    FamilyId.EVO_HLZERO: {"eta": 1.1, "lambda": 0.8},
    FamilyId.HYP_III_LAMBDA: {"eta": 1.1, "lambda": 0.7, "xi": 0.4,
                              "tau": 0.2},
    FamilyId.HYP_III_XI_TAU: {"eta": 1.1, "xi": 0.6, "tau": 0.3},
}
_QA_ZERO_Q = {"A": 1.2, "Q": 0.0, "eta": 0.9}

# the five verified table + closed-form pairs (ranged parameters), plus
# the Q=0 limit as an extra instance of the second pair
_PAIRS = [
    (FamilyId.SG_BASIC, {}),
    (FamilyId.HYP_I_QA, {}),
    (FamilyId.HYP_I_QA, _QA_ZERO_Q),
    (FamilyId.EVO_HLZERO, {}),
    (FamilyId.HYP_III_LAMBDA, {}),
    (FamilyId.HYP_III_XI_TAU, {}),
]


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_structure_equations_hold_for_all_families():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    for fam in FamilyId:
        for _ in range(5):
            params = sample_params(fam, rng=rng)
            spec = build(fam, params)
            rep = verify_family(spec.triple)
            assert rep.holds_mod_equation, (fam.value, params, rep.details)
            assert rep.off_shell_detects, (fam.value, params)
            assert rep.nondegenerate, (fam.value, params)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(1, f"11 families x 5 draws in {elapsed:.1f}s")


def test_criterion_2_gauss_identity_for_every_closed_form():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for fam, pinned in list(_CLOSED.items()) + [(FamilyId.HYP_I_QA,
                                                 _QA_ZERO_Q)]:
        variant = {"Q": 0.0} if pinned.get("Q") == 0.0 else {}
        sff = closed_form(fam, variant)
        g = gauss_residual(sff)
        spec = build(fam, {})
        kw = spec.triple.zero_kwargs()
        kw["constraints"] = tuple(kw["constraints"]) + tuple(sff.constraints)
        v = is_zero(g, **kw)
        assert bool(v), (fam.value, str(v))
        if fam is FamilyId.SG_BASIC or variant:
            # these two must cancel structurally, not just numerically
            assert v.status == "proven", (fam.value, to_text(g))
        if sff.strip is not None:
            env = dict(_CLOSED[fam])
            env.update(sff.params)
            xs, ts = sample_strip_points(sff.strip, 64, rng, env)
            env["x"], env["t"] = xs, ts
            vals = np.broadcast_to(
                np.asarray(compile_expr(g)(env), dtype=float), xs.shape)
            assert np.abs(vals).max() < 1e-12, fam.value
            worst = max(worst, float(np.abs(vals).max()))
    _report(2, "identity holds for all six closed forms; strip max "
            f"|residual| {worst:.1e} at 64 points")


def test_criterion_3_codazzi_pairs_and_corruption():
    worst_ok = 0.0
    for fam, params in _PAIRS:
        spec = build(fam, dict(params))
        sff = closed_form(spec)
        rep = verify_immersion(spec.triple, sff, tol=1e-8)
        assert rep.ok, (fam.value, rep.lines())
        worst_ok = max(worst_ok, rep.codazzi[0].max_rel,
                       rep.codazzi[1].max_rel)

        for field_name in ("a", "b", "c"):
            coeff = getattr(sff, field_name)
            if to_text(coeff) == "0":
                bad_coeff = simplify(coeff + 0.1)
            else:
                bad_coeff = simplify(coeff * 1.1)
            bad = dataclasses.replace(sff, **{field_name: bad_coeff})
            brep = verify_immersion(spec.triple, bad, tol=1e-3)
            residuals = [brep.gauss.max_rel,
                         brep.codazzi[0].max_rel, brep.codazzi[1].max_rel]
            assert not brep.ok, (fam.value, field_name)
            assert max(residuals) > 1e-3, (fam.value, field_name, residuals)
    _report(3, f"5 pairs + Q=0 limit verified (worst rel {worst_ok:.1e}); "
            "10% corruption detected on every coefficient")


def test_criterion_4_obstruction_verdict_matrix():
    t0 = time.monotonic()
    for fam in (FamilyId.HYP_II_GAMMA_NE1, FamilyId.HYP_II_GAMMA1,
                FamilyId.HYP_III_ZERO, FamilyId.EVO_HLNONZERO):
        v = finite_jet_obstruction(build(fam, {}))
        assert v.outcome is Outcome.INCONSISTENT, fam.value
        assert v.sff is None

    for fam in (FamilyId.HYP_III_LAMBDA, FamilyId.HYP_III_XI_TAU,
                FamilyId.EVO_HLZERO):
        spec = build(fam, {})
        v = finite_jet_obstruction(spec)
        assert v.outcome is Outcome.UNIVERSAL_FAMILY, fam.value
        cf = closed_form(spec)
        for got, want in zip(v.sff.as_tuple(), cf.as_tuple()):
            assert to_text(got) == to_text(want), fam.value
        assert v.sff.strip.sign == cf.strip.sign
        assert to_text(v.sff.strip.q) == to_text(cf.strip.q)

    spec = build(FamilyId.HYP_I_QA, {})
    v = finite_jet_obstruction(spec)
    assert v.outcome is Outcome.ZERO_JET_FAMILY
    cf = closed_form(spec)
    for got, want in zip(v.sff.as_tuple(), cf.as_tuple()):
        assert spec.triple.check_zero(simplify(got - want)), \
            (to_text(got), to_text(want))

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"verdict matrix reproduced in {elapsed:.1f}s")


def test_criterion_5_kink_end_to_end():
    t0 = time.monotonic()
    spec = build(FamilyId.SG_BASIC, {})
    sff = closed_form(FamilyId.SG_BASIC, {})
    sol = sg_kink(1.0)

    residuals = {}
    diag_fine = None
    for h in (0.04, 0.02):
        n = int(round(6.0 / h)) + 1
        grid = SolutionGrid.from_solution(sol, -3.0, -3.0, h, h, n, n)
        field = integrate_frame(spec.triple, sff, grid, eps_deg=0.1)
        residuals[h] = float(np.nanmax(field.path_residual))
        if h == 0.02:
            u = grid["u"]
            assert np.array_equal(field.mask, np.abs(np.sin(u)) > 0.1)
            diag_fine = validate_surface(field)

    assert diag_fine.mean_abs_k_plus_1 < 1e-2
    assert diag_fine.metric_max_rel < 1e-3
    rate = math.log2(residuals[0.04] / residuals[0.02])
    assert 1.7 <= rate <= 2.3, residuals
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, f"mean|K+1| {diag_fine.mean_abs_k_plus_1:.2e}, metric max "
            f"{diag_fine.metric_max_rel:.2e}, rate {rate:.2f}, {elapsed:.0f}s")


def test_criterion_6_goursat_convergence():
    sol = sg_kink(1.0)
    spec = build(FamilyId.SG_BASIC, {})
    errs = {}
    for h in (0.02, 0.01):
        grid = goursat_solve(spec.ctx,
                             phi=lambda x: sol.u(x, -3.0),
                             psi=lambda t: sol.u(-3.0, t),
                             window=(-3.0, 3.0, -3.0, 3.0, h))
        xx, tt = grid.mesh()
        errs[h] = float(np.abs(grid["u"] - sol.u(xx, tt)).max())
    ratio = errs[0.02] / errs[0.01]
    assert 3.4 <= ratio <= 4.6, errs
    _report(6, f"L-inf ratio h=0.02/h=0.01 = {ratio:.2f}")


def test_criterion_7_derivative_oracle():
    rng = np.random.default_rng(424242)
    pool = []
    for fam in FamilyId:
        params = sample_params(fam, rng=rng)
        spec = build(fam, params)
        exprs = [spec.triple.f(i, j) for i in (1, 2, 3) for j in (1, 2)]
        exprs.append(spec.ctx.rhs)
        pinned = {k: v for k, v in spec.triple.params.items()
                  if v is not None}
        for e in exprs:
            if free_leaves(e):
                pool.append((e, pinned))

    higher = ("z1", "z2", "z3", "w1", "w2", "w3",
              "ux1t1", "ux2t1", "ux1t2", "ux2t2")
    checked = 0
    worst = 0.0
    while checked < 200:
        e, pinned = pool[int(rng.integers(len(pool)))]
        env = {}
        for leaf in free_leaves(e):
            if leaf.name in pinned:
                env[leaf.name] = float(pinned[leaf.name])
            else:
                env[leaf.name] = float(rng.uniform(0.4, 1.4))
        for name in higher:
            env.setdefault(name, float(rng.uniform(0.4, 1.4)))
        env.setdefault("x", float(rng.uniform(-0.5, 0.5)))
        env.setdefault("t", float(rng.uniform(-0.5, 0.5)))

        targets = [l for l in free_leaves(e) if not isinstance(l, Param)]
        try:
            if targets:
                leaf = targets[int(rng.integers(len(targets)))]
                sym = evaluate(partial(e, leaf), env)
                num = fd_partial(e, leaf.name, env)
                if not (finite(sym) and finite(num)):
                    continue
                worst = max(worst, rel_err(sym, num))
            direction = "x" if rng.random() < 0.5 else "t"
            tot = total_x(e) if direction == "x" else total_t(e)
            sym_t = evaluate(tot, env)
            num_t = fd_total(e, direction, env)
        except EvalError:
            continue
        if not (finite(sym_t) and finite(num_t)):
            continue
        worst = max(worst, rel_err(sym_t, num_t))
        checked += 1

    assert worst < 1e-6, worst
    _report(7, f"200 pairs, worst relative deviation {worst:.1e}")
