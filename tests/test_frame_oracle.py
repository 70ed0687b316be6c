"""The array frame pipeline against the per-node loops it replaced.

Tolerances: mask and valid equal; X and frames within 1e-12; the path
residual with the same NaN pattern and within 1e-12; K with the same NaN
mask and within 1e-8 relative (the angle defect cancels heavily); OBJ
header and face lines equal, vertex coordinates within 1e-11.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pssurf import frame
from pssurf.catalog import FamilyId, build
from pssurf.expr import Const
from pssurf.frame import FrameState, export_mesh, integrate_frame
from pssurf.sff import closed_form
from pssurf.sff.core import DomainStrip, SecondFundamentalForm
from pssurf.solutions import SolutionGrid, sg_kink

import frame_oracle as oracle

STATE_TOL = 1e-12
K_REL_TOL = 1e-8
VERTEX_TOL = 1e-11
_NAMES = ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")


@pytest.fixture(scope="module")
def sg():
    spec = build(FamilyId.SG_BASIC, {})
    return spec.triple, closed_form(FamilyId.SG_BASIC, {})


def _kink_grid(x0, x1, h):
    n = int(round((x1 - x0) / h)) + 1
    return SolutionGrid.from_solution(sg_kink(1.0), x0, x0, h, h, n, n)


def _strip_form(sff):
    strip = DomainStrip(sign=1, p=Const(1.0), q=Const(0.0), l=4.0,
                        gamma_im=1.0)
    return SecondFundamentalForm(sff.a, sff.b, sff.c, strip=strip)


def _maze_grid(n=16, seed=7):
    """A smooth u with about 30 % of the nodes walled off at u = pi.

    The kink windows attach every node from a single candidate parent; here
    breadth-first fronts meet, so the choice of parent is exercised.
    """
    x = np.linspace(-0.5, 0.5, n)
    xx, tt = np.meshgrid(x, x, indexing="ij")
    u = 1.2 + 0.4 * xx - 0.3 * tt
    u[np.random.default_rng(seed).random((n, n)) < 0.3] = np.pi
    vals = {"u": u, "u_x": np.full_like(u, 0.4), "u_t": np.full_like(u, -0.3),
            "u_xx": np.zeros_like(u), "u_xt": np.zeros_like(u),
            "u_tt": np.zeros_like(u)}
    h = x[1] - x[0]
    return SolutionGrid(x0=-0.5, t0=-0.5, hx=h, ht=h, nx=n, nt=n, values=vals)


def _cases(sg):
    tr, sff = sg
    return {
        # the u = pi band splits the window into two components
        "kink-3:3": (tr, sff, _kink_grid(-3.0, 3.0, 0.1), {}),
        "strip": (tr, _strip_form(sff), _kink_grid(-1.0, 1.0, 0.05), {}),
        "seed-3-4": (tr, sff, _kink_grid(-1.0, 1.0, 0.1),
                     {"seed_index": (3, 4)}),
        "masked-10x10": (tr, sff, SolutionGrid.from_solution(
            sg_kink(1.0), -0.45, -0.45, 0.1, 0.1, 10, 10), {}),
        "degenerate": (tr, sff, SolutionGrid(
            x0=0.0, t0=0.0, hx=0.1, ht=0.1, nx=6, nt=6,
            values={n: np.zeros((6, 6)) for n in _NAMES}), {}),
        "maze": (tr, sff, _maze_grid(), {}),
    }


CASES = ("kink-3:3", "strip", "seed-3-4", "masked-10x10", "degenerate", "maze")


def _oracle_field(tr, sff, grid, field):
    """The loop sweeps from the seed node the array code chose."""
    coeffs = frame._Coefficients(tr, sff, grid)
    mask = oracle.admissible_mask(coeffs)
    shape = mask.shape
    if not mask.any():
        return SimpleNamespace(
            mask=mask, X=np.full(shape + (3,), np.nan),
            frames=np.full(shape + (3, 3), np.nan),
            valid=np.zeros(shape, dtype=bool),
            path_residual=np.full(shape, np.nan), drift_max=0.0)
    X, frames, valid, residual, drift = oracle.sweep_pair(
        coeffs, grid, mask, field.seed_index, FrameState.identity())
    return SimpleNamespace(mask=mask, X=X, frames=frames, valid=valid,
                           path_residual=residual, drift_max=drift)


def _close(a, b, tol):
    assert np.array_equal(np.isnan(a), np.isnan(b))
    fin = ~np.isnan(a)
    if fin.any():
        assert np.abs(a[fin] - b[fin]).max() <= tol


@pytest.mark.parametrize("case", CASES)
def test_sweeps_match_loop_oracle(sg, case):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    ref = _oracle_field(tr, sff, grid, field)
    assert np.array_equal(field.mask, ref.mask)
    assert np.array_equal(field.valid, ref.valid)
    _close(field.X, ref.X, STATE_TOL)
    _close(field.frames, ref.frames, STATE_TOL)
    _close(field.path_residual, ref.path_residual, STATE_TOL)
    assert abs(field.drift_max - ref.drift_max) <= STATE_TOL


@pytest.mark.parametrize("case", CASES)
def test_curvature_matches_loop_oracle(sg, case):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    K = frame._angle_defect_curvature(field.X, field.valid)
    K_ref = oracle.angle_defect_curvature(field.X, field.valid)
    assert np.array_equal(np.isnan(K), np.isnan(K_ref))
    fin = ~np.isnan(K_ref)
    if fin.any():
        rel = np.abs(K[fin] - K_ref[fin]) / np.abs(K_ref[fin])
        assert rel.max() <= K_REL_TOL


@pytest.mark.parametrize("case", CASES)
def test_export_matches_loop_oracle(sg, case, tmp_path):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    ref = _oracle_field(tr, sff, grid, field)
    new = Path(export_mesh(field, tmp_path / "new.obj")).read_text().splitlines()
    old = Path(oracle.write_obj(ref, tmp_path / "old.obj")).read_text().splitlines()
    assert len(new) == len(old)
    for a, b in zip(new, old):
        if a.startswith("v "):
            assert b.startswith("v ")
            va = np.array([float(tok) for tok in a.split()[1:]])
            vb = np.array([float(tok) for tok in b.split()[1:]])
            assert np.abs(va - vb).max() <= VERTEX_TOL
        else:
            assert a == b


@pytest.mark.parametrize("case", ["kink-3:3", "masked-10x10", "maze"])
def test_cases_reach_breadth_first_attach(sg, case, monkeypatch):
    # the line passes miss part of these components, so the rank-ordered
    # frontier is what the oracle comparison above exercises
    attached = []
    attach = frame._Sweep.attach

    def counting(self):
        before = int(self.visited.sum())
        attach(self)
        attached.append(int(self.visited.sum()) - before)

    monkeypatch.setattr(frame._Sweep, "attach", counting)
    tr, sff, grid, kw = _cases(sg)[case]
    integrate_frame(tr, sff, grid, **kw)
    assert len(attached) == 2 and min(attached) > 0
