"""The array frame pipeline against the per-node loops it replaced.

Tolerances: mask and valid equal; X and frames within 1e-12; the path
residual with the same NaN pattern and within 1e-12; K with the same NaN
mask and within 1e-8 relative (the angle defect cancels heavily); OBJ
header and face lines equal, vertex coordinates within 1e-11.  The loop
sweeps step each edge by the same Magnus rule, exponentiated by
scipy.linalg.expm.

Against the replaced rule, RK4 with Gram-Schmidt renormalization, X,
frames and the path residual agree within RK4_TOL = 2e-5 on every case:
the largest difference measured is 1.03e-5, on the frames of kink-3:3
(h = 0.1).  On one edge the two rules differ by O(h^5).
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pssurf import frame
from pssurf.catalog import FamilyId, build
from pssurf.expr import Const
from pssurf.frame import export_mesh, integrate_frame
from pssurf.sff import closed_form
from pssurf.sff.core import DomainStrip, SecondFundamentalForm
from pssurf.solutions import SolutionGrid, sg_kink

import frame_oracle as oracle

STATE_TOL = 1e-12
RK4_TOL = 2e-5
K_REL_TOL = 1e-8
VERTEX_TOL = 1e-11
_NAMES = ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")
# integrate_frame's default seed state, rows X, e1, e2, e3
IDENTITY = np.vstack([np.zeros(3), np.eye(3)])


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
        # nx != nt, hx != ht and a seed by one edge: the two sweeps' line
        # and cross walks end in different rounds of the lockstep
        "wide-edge-seed": (tr, sff, SolutionGrid.from_solution(
            sg_kink(1.0), -1.2, -0.3, 0.1, 0.07, 24, 13),
            {"seed_index": (1, 10)}),
    }


CASES = ("kink-3:3", "strip", "seed-3-4", "masked-10x10", "degenerate", "maze",
         "wide-edge-seed")


def _oracle_field(tr, sff, grid, field, edge_step=oracle.magnus_step):
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
        coeffs, grid, mask, field.seed_index, IDENTITY, edge_step)
    return SimpleNamespace(mask=mask, X=X, frames=frames, valid=valid,
                           path_residual=residual, drift_max=drift)


def _close(a, b, tol):
    assert np.array_equal(np.isnan(a), np.isnan(b))
    fin = ~np.isnan(a)
    if fin.any():
        assert np.abs(a[fin] - b[fin]).max() <= tol


@pytest.fixture(scope="module")
def loop_fields():
    """The loop sweeps of each case, made once for the two tests that read
    them; the array code's seed, the one input they take from the field,
    is the same on every run of a case."""
    made = {}

    def get(case, tr, sff, grid, field):
        if case not in made:
            made[case] = _oracle_field(tr, sff, grid, field)
        return made[case]
    return get


@pytest.mark.parametrize("case", CASES)
def test_sweeps_match_loop_oracle(sg, loop_fields, case):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    ref = loop_fields(case, tr, sff, grid, field)
    assert np.array_equal(field.mask, ref.mask)
    assert np.array_equal(field.valid, ref.valid)
    _close(field.X, ref.X, STATE_TOL)
    _close(field.frames, ref.frames, STATE_TOL)
    _close(field.path_residual, ref.path_residual, STATE_TOL)
    assert abs(field.drift_max - ref.drift_max) <= STATE_TOL


@pytest.mark.parametrize("case", CASES)
def test_sweeps_match_rk4_reference(sg, case):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    ref = _oracle_field(tr, sff, grid, field, oracle.rk4_step)
    assert np.array_equal(field.valid, ref.valid)
    _close(field.X, ref.X, RK4_TOL)
    _close(field.frames, ref.frames, RK4_TOL)
    _close(field.path_residual, ref.path_residual, RK4_TOL)


def _edge(h, rng):
    """A state and the blocks at both ends of an edge of length h, along
    which the connection changes at a fixed rate."""
    c0, rate = rng.normal(size=(2, 5))
    M0, M1 = oracle.blocks(np.array([c0, c0 + h * rate]).T)
    E = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return np.vstack([rng.normal(size=3), E]), M0, M1, c0, c0 + h * rate


@pytest.mark.parametrize("seed", range(5))
def test_edge_map_is_fourth_order_against_rk4(seed):
    # both rules are fourth order, so one step of each differs by O(h^5):
    # a factor of 32 per halving, asymptotically
    diff = []
    for h in (0.1, 0.05):
        Y, M0, M1, c0, c1 = _edge(h, np.random.default_rng(seed))
        G = frame._edge_maps(c0[:, None], c1[:, None], np.array([h]))[0]
        diff.append(np.abs(G @ Y - oracle.rk4_step(Y, M0, M1, h)).max())
    assert diff[0] >= 24.0 * diff[1]


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
def test_export_matches_loop_oracle(sg, loop_fields, case, tmp_path):
    tr, sff, grid, kw = _cases(sg)[case]
    field = integrate_frame(tr, sff, grid, **kw)
    ref = loop_fields(case, tr, sff, grid, field)
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
    # frontier is what the oracle comparison above exercises; both sweeps
    # attach in the one lockstep call, so count per sweep
    attached = []
    attach = frame._Sweeps.attach

    def counting(self):
        before = self.visited().sum(axis=(1, 2))
        attach(self)
        attached.append(self.visited().sum(axis=(1, 2)) - before)

    monkeypatch.setattr(frame._Sweeps, "attach", counting)
    tr, sff, grid, kw = _cases(sg)[case]
    integrate_frame(tr, sff, grid, **kw)
    assert len(attached) == 1 and attached[0].min() > 0
