"""Frame integration, surface validation and mesh export."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.linalg import expm

from pssurf import frame
from pssurf.catalog import ConstraintError, FamilyId, build
from pssurf.expr import Const, compile_expr, parse, simplify
from pssurf.frame import (_Coefficients, export_mesh,
                          integrate_frame, validate_surface)
from pssurf.sff import closed_form
from pssurf.sff.core import DomainStrip, SecondFundamentalForm
from pssurf.solutions import SolutionGrid, linear_solution, sg_kink

import frame_oracle as oracle


@pytest.fixture(scope="module")
def sg():
    spec = build(FamilyId.SG_BASIC, {})
    return spec.triple, closed_form(FamilyId.SG_BASIC, {})


@pytest.fixture(scope="module")
def kink():
    return sg_kink(1.0)


def kink_grid(kink, x0, x1, h):
    n = int(round((x1 - x0) / h)) + 1
    return SolutionGrid.from_solution(kink, x0, x0, h, h, n, n)


# --------------------------------------------------------------- states


def test_non_orthonormal_seed_rejected(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -0.5, 0.5, 0.25)
    # rows X, e1, e2, e3
    bad = np.array([[0, 0, 0], [1.0, 0, 0], [0.5, 1.0, 0], [0, 0, 1.0]])
    for seed in (bad, np.eye(3), np.full((4, 3), np.nan)):
        with pytest.raises(ValueError, match="orthonormal"):
            integrate_frame(tr, sff, grid, seed=seed)


def test_orthonormality_defect_keeps_nan():
    # rows X, e1, e2, e3 of the identity frame at the origin
    stack = np.repeat(np.eye(4, 3, -1)[None], 5, axis=0)
    assert frame._orthonormality_defect(stack) == 0.0
    stack[2, 1:] = np.nan
    assert math.isnan(frame._orthonormality_defect(stack))
    assert math.isnan(frame._orthonormality_defect(np.full((5, 4, 3), np.nan)))


# --------------------------------------- node coefficients and convention


def node_coefficients(tr, sff, z0, z1, w1):
    """_Coefficients on a one-node grid at x = t = 0 with u = z0, u_x = z1
    and u_t = w1; the second derivatives are zero."""
    jets = {"u": z0, "u_x": z1, "u_t": w1, "u_xx": 0.0, "u_xt": 0.0,
            "u_tt": 0.0}
    grid = SolutionGrid(x0=0.0, t0=0.0, hx=1.0, ht=1.0, nx=1, nt=1,
                        values={k: np.full((1, 1), v) for k, v in jets.items()})
    return _Coefficients(tr, sff, grid)


def node_blocks(tr, sff, z0, z1, w1):
    """The 4x4 connection blocks (Mx, Mt) at that node."""
    coeffs = node_coefficients(tr, sff, z0, z1, w1)
    return (oracle.connection_block(coeffs, "x", 0, 0),
            oracle.connection_block(coeffs, "t", 0, 0))


def test_kink_center_coefficients(sg):
    tr, sff = sg
    Mx, Mt = node_blocks(tr, sff, z0=math.pi, z1=1.0, w1=1.0)
    # omega1 = cos(u/2) dx: at u = pi the dx coefficient collapses
    assert abs(Mx[0, 1]) < 1e-12
    assert Mx[0, 2] == pytest.approx(1.0)   # omega2 dx coeff sin(pi/2)
    assert Mt[0, 2] == pytest.approx(-1.0)


@pytest.mark.parametrize("u", [0.7, 2.1, 4.0])
def test_sg_second_form_row(sg, u):
    # w31 = a*w1 + b*w2 reduces to sin(u/2)(dx + dt) for the basic table
    tr, sff = sg
    Mx, Mt = node_blocks(tr, sff, z0=u, z1=0.3, w1=0.2)
    assert Mx[1, 3] == pytest.approx(math.sin(u / 2.0))
    assert Mt[1, 3] == pytest.approx(math.sin(u / 2.0))


def test_connection_block_structure(sg):
    tr, sff = sg
    Mx, Mt = node_blocks(tr, sff, z0=1.0, z1=0.5, w1=-0.5)
    for M in (Mx, Mt):
        assert np.allclose(M[:, 0], 0.0)           # nothing feeds back into X
        assert np.allclose(M[1:, 1:], -M[1:, 1:].T)  # rotation generator


def test_rotation_coefficient_sign_convention(sg):
    # the e1' coefficient along e2 carries the third form with a plus sign
    tr, sff = sg
    u = 1.3
    Mx, Mt = node_blocks(tr, sff, z0=u, z1=0.4, w1=0.7)
    assert Mx[1, 2] == pytest.approx(0.4 / 2.0)    # f31 = z1/2
    assert Mt[1, 2] == pytest.approx(-0.7 / 2.0)   # f32 = -w1/2
    assert Mx[2, 1] == pytest.approx(-0.4 / 2.0)


def _magnus_generator(c0, c1, h):
    """(h/2)(M0 + M1) + (h^2/12)[M1, M0] for coefficient rows (n, 5)."""
    M0, M1 = oracle.blocks(c0.T), oracle.blocks(c1.T)
    k = (h * h / 12.0)[:, None, None]
    return 0.5 * h[:, None, None] * (M0 + M1) + k * (M1 @ M0 - M0 @ M1)


def _edge_cases():
    """Random coefficient rows and steps, with rotation angles from exactly
    0 through tiny ones to about pi."""
    rng = np.random.default_rng(3)
    c0, c1 = rng.normal(size=(2, 64, 5))
    h = rng.uniform(-1.0, 1.0, 64)
    # no rotation: the frame rows' coefficients w21, w31 and w32 vanish
    c0[:4, 2:] = c1[:4, 2:] = 0.0
    # tiny rotations
    h[4:8] = [1e-9, -1e-7, 1e-5, 1e-3]
    # equal ends, whose generator is h M0, scaled to angles about pi
    c1[8:14] = c0[8:14]
    theta = np.linalg.norm(c0[8:14, 2:], axis=1)
    h[8:14] = np.array([np.pi - 1e-6, np.pi, np.pi + 1e-6, -np.pi,
                        np.pi - 1e-3, 3.0]) / theta
    return c0, c1, h


def test_edge_maps_match_expm():
    c0, c1, h = _edge_cases()
    G = frame._edge_maps(c0.T, c1.T, h)
    want = np.array([expm(W) for W in _magnus_generator(c0, c1, h)])
    assert np.abs(G - want).max() <= 1e-13


def test_edge_map_rotations_orthogonal():
    c0, c1, h = _edge_cases()
    G = frame._edge_maps(c0.T, c1.T, h)
    R = G[:, 1:, 1:]
    assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-14
    assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-14
    assert np.array_equal(G[:, :, 0], np.tile([1.0, 0, 0, 0], (len(h), 1)))


def test_degenerate_node_rejected(sg):
    tr, sff = sg
    assert not node_coefficients(tr, sff, z0=0.0, z1=1.0, w1=1.0).finite[0, 0]
    assert node_coefficients(tr, sff, z0=1.0, z1=1.0, w1=1.0).finite[0, 0]


# ----------------------------------------------------------- integration


def test_kink_masks_degenerate_band(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -3.0, 3.0, 0.1)
    field = integrate_frame(tr, sff, grid)
    u = grid["u"]
    expected = np.abs(np.sin(u)) > 0.1 * np.abs(np.sin(u)).max()
    assert np.array_equal(field.mask, expected)
    # the u = pi band splits the window; only the seed side is integrated
    labels, n = ndimage.label(field.mask)
    assert n == 2
    assert np.array_equal(field.valid, labels == labels[field.seed_index])
    assert field.count_valid() < int(field.mask.sum())


def test_orthonormal_everywhere(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.05)
    field = integrate_frame(tr, sff, grid)
    E = field.frames[field.valid]
    gram = np.einsum("nij,nkj->nik", E, E)
    assert np.abs(gram - np.eye(3)).max() < 1e-6
    assert np.abs(np.cross(E[:, 0], E[:, 1]) - E[:, 2]).max() < 1e-12


def test_drift_small_at_standard_step(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.02)
    field = integrate_frame(tr, sff, grid)
    # the edge maps are rigid motions: the frames drift by rounding only
    assert field.drift_max < 1e-13


def test_path_residual_second_order(sg, kink):
    tr, sff = sg
    res = {}
    for h in (0.1, 0.05):
        field = integrate_frame(tr, sff, kink_grid(kink, -1.5, 1.5, h))
        res[h] = float(np.nanmax(field.path_residual))
    rate = math.log2(res[0.1] / res[0.05])
    assert 1.7 <= rate <= 2.3


def test_path_residual_matches_full_grid_difference():
    # the residual gathered over the nodes both sweeps reached equals, bit
    # for bit, the largest entry of |Y1 - Y2| over the whole grid there;
    # a NaN entry at a node both reached stays NaN; 4,900 nodes take more
    # than one chunk
    rng = np.random.default_rng(5)
    Y1, Y2 = rng.normal(size=(2, 70, 70, 4, 3)) * 10.0 ** rng.integers(
        -16, 2, (2, 70, 70, 4, 3))
    vis1, vis2 = rng.random((2, 70, 70)) < 0.8
    Y1[~vis1], Y2[~vis2] = np.nan, np.nan
    Y1[3, 4] = Y2[3, 4] = rng.normal(size=(4, 3))
    Y2[3, 4, 2, 1] = np.nan
    vis1[3, 4] = vis2[3, 4] = True
    Y1[5, 6] = Y2[5, 6] = rng.normal(size=(4, 3))
    vis1[5, 6] = vis2[5, 6] = True
    both = vis1 & vis2
    want = np.where(both, np.abs(Y1 - Y2).reshape(70, 70, 12).max(axis=2),
                    np.nan)
    got = frame._path_residual(Y1, Y2, both)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.isnan(got[3, 4]) and got[5, 6] == 0.0


def test_seed_rotation_equivariance(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.1)
    base = integrate_frame(tr, sff, grid)
    th = 0.7
    R = np.array([[math.cos(th), math.sin(th), 0.0],
                  [-math.sin(th), math.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    shift = np.array([2.0, -1.0, 0.5])
    moved = integrate_frame(tr, sff, grid, seed=np.vstack([shift, R]))
    v = base.valid
    assert np.array_equal(v, moved.valid)
    assert np.allclose(moved.X[v], base.X[v] @ R + shift, atol=1e-12)


def test_custom_seed_index(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.1)
    field = integrate_frame(tr, sff, grid, seed_index=(3, 4))
    assert field.seed_index == (3, 4)
    assert np.allclose(field.X[3, 4], 0.0)
    with pytest.raises(ConstraintError, match="seed"):
        degenerate = np.argwhere(~field.mask)[0]
        integrate_frame(tr, sff, grid, seed_index=tuple(degenerate))
    for outside in ((-1, -1), (grid.nx, 0), (0, -grid.nt)):
        with pytest.raises(ConstraintError, match="outside the grid"):
            integrate_frame(tr, sff, grid, seed_index=outside)


def test_strip_confines_mask(sg, kink):
    tr, sff = sg
    strip = DomainStrip(sign=1, p=Const(1.0), q=Const(0.0), l=4.0,
                        gamma_im=1.0)
    clipped = SecondFundamentalForm(sff.a, sff.b, sff.c, strip=strip)
    grid = kink_grid(kink, -1.0, 1.0, 0.05)
    field = integrate_frame(tr, sff, grid)
    confined = integrate_frame(tr, clipped, grid)
    xx, _ = grid.mesh()
    # positivity of the strip form pins x to (-0.659, 0.659) for l=4, gi=1
    assert confined.valid.any()
    assert np.abs(xx[confined.valid]).max() < 0.659
    assert field.count_valid() > confined.count_valid()


def test_zero_size_grid(sg):
    tr, sff = sg
    grid = SolutionGrid(x0=0.0, t0=0.0, hx=0.1, ht=0.1, nx=0, nt=0,
                        values={n: np.zeros((0, 0)) for n in
                                ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")})
    field = integrate_frame(tr, sff, grid)
    assert field.count_valid() == 0
    assert not field.mask.any()


def test_single_node_component(sg, kink):
    # the seed alone: nothing is planned, and the field holds the seed state
    tr, sff = sg
    field = integrate_frame(tr, sff, SolutionGrid.from_solution(
        kink, 0.4, 0.4, 0.01, 0.01, 1, 1))
    assert field.count_valid() == 1
    assert np.array_equal(field.X[0, 0], np.zeros(3))
    assert field.path_residual[0, 0] == 0.0 and field.drift_max == 0.0
    assert np.isnan(validate_surface(field).mean_abs_k_plus_1)


def test_fully_degenerate_grid_empty(sg):
    tr, sff = sg
    shape = (6, 6)
    vals = {n: np.zeros(shape) for n in
            ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")}
    grid = SolutionGrid(x0=0.0, t0=0.0, hx=0.1, ht=0.1, nx=6, nt=6,
                        values=vals)
    field = integrate_frame(tr, sff, grid)   # sin(u) = 0 everywhere
    assert field.count_valid() == 0


def test_deterministic_output(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.1)
    f1 = integrate_frame(tr, sff, grid)
    f2 = integrate_frame(tr, sff, grid)
    assert np.array_equal(f1.X, f2.X, equal_nan=True)
    assert np.array_equal(f1.path_residual, f2.path_residual, equal_nan=True)


def test_readme_kink_steps_both_sweeps_in_lockstep(sg, kink, monkeypatch):
    # a planned round holds every direction of both sweeps: 149 line, 149
    # cross and 149 attach rounds on the README grid, where a round per
    # sweep and direction would make 1,188
    plans = []
    run = frame._Sweeps.run

    def recording(self, *args):
        plans.append(self.plan)
        return run(self, *args)

    monkeypatch.setattr(frame._Sweeps, "run", recording)
    tr, sff = sg
    field = integrate_frame(tr, sff, kink_grid(kink, -3.0, 3.0, 0.02))
    [plan] = plans
    assert len(plan) <= 450
    # every node of each sweep but the seed is stepped exactly once
    assert sum(q.size for _, q, _ in plan) == 2 * (field.count_valid() - 1)


def _strip_family():
    spec = build("hyp-iii-xi-tau", {"eta": 1.0, "xi": 0.5, "tau": 4.0})
    sol = linear_solution(0.0, 0.5, 4.0, p=1.0)
    return (spec.triple, closed_form(spec),
            SolutionGrid.from_solution(sol, -0.3, -0.3, 0.05, 0.05, 13, 13))


@pytest.mark.parametrize("case", ["kink", "strip"])
def test_field_keeps_the_table_grids_of_each_entry(sg, kink, case):
    # the shared tape gives each f_ij the bits of its own compiled expression
    tr, sff, grid = (_strip_family() if case == "strip"
                     else (*sg, kink_grid(kink, -1.0, 1.0, 0.1)))
    field = integrate_frame(tr, sff, grid)
    assert field.count_valid() > 0
    xx, tt = grid.mesh()
    env = {**tr.params, **sff.params, "x": xx, "t": tt, "z0": grid["u"],
           "z1": grid["u_x"], "z2": grid["u_xx"], "w1": grid["u_t"],
           "w2": grid["u_tt"]}
    for i in (1, 2, 3):
        for j in (1, 2):
            with np.errstate(all="ignore"):
                want = np.broadcast_to(np.asarray(
                    compile_expr(tr.f(i, j))(env), dtype=float), xx.shape)
            assert field.f[i, j].tobytes() == want.tobytes(), (i, j)


# ------------------------------------------------------------ validation


def test_kink_surface_diagnostics(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.02)
    field = integrate_frame(tr, sff, grid)
    diag = validate_surface(field)
    assert diag.mean_abs_k_plus_1 < 1e-2
    assert diag.max_abs_k_plus_1 < 5e-2
    assert diag.metric_max_rel < 1e-3
    assert diag.drift_max < 1e-8
    assert 0.0 < diag.mask_fraction <= 1.0
    assert len(diag.lines()) == 6


def test_gauss_map_matches_normal(sg, kink):
    # normalized FD cross product: conditioning needs a safe margin from
    # the degenerate band, hence the raised threshold
    tr, sff = sg
    grid = kink_grid(kink, -1.5, 1.5, 0.02)
    field = integrate_frame(tr, sff, grid, eps_deg=0.3)
    diag = validate_surface(field)
    assert diag.normal_max_err < 1e-3


def test_corrupting_b_breaks_compatibility(sg, kink):
    tr, sff = sg
    grid = kink_grid(kink, -1.0, 1.0, 0.05)
    base = integrate_frame(tr, sff, grid)
    bad = SecondFundamentalForm(sff.a, simplify(parse("0.1")), sff.c,
                                label="corrupted")
    broken = integrate_frame(tr, bad, grid)
    r0 = float(np.nanmax(base.path_residual))
    r1 = float(np.nanmax(broken.path_residual))
    assert r1 >= 10.0 * r0


def test_flipped_rotation_sign_detected(sg, kink):
    # negating the third row flips the tangent rotation coefficient; the
    # connection stops being flat and the path residual jumps
    from pssurf.forms import PssTriple
    tr, sff = sg
    rows = [[tr.f(1, 1), tr.f(1, 2)],
            [tr.f(2, 1), tr.f(2, 2)],
            [simplify(parse("-(z1/2)")), simplify(parse("w1/2"))]]
    flipped = PssTriple(rows, ctx=tr.ctx, params=tr.params,
                        ranges=tr.ranges, label="flipped")
    grid = kink_grid(kink, -1.0, 1.0, 0.05)
    base = integrate_frame(tr, sff, grid)
    wrong = integrate_frame(flipped, sff, grid)
    assert float(np.nanmax(wrong.path_residual)) >= \
        10.0 * float(np.nanmax(base.path_residual))


def test_flat_coefficients_flagged(sg, kink):
    tr, _ = sg
    zero = Const(0.0)
    flat = SecondFundamentalForm(zero, zero, zero, label="flat")
    grid = kink_grid(kink, -1.0, 1.0, 0.05)
    field = integrate_frame(tr, flat, grid)
    diag = validate_surface(field)
    # the image is planar, so K sits near 0, far from -1
    assert diag.mean_abs_k_plus_1 > 0.5


# ---------------------------------------------------------------- export


def full_small_field(sg, kink, n=10):
    tr, sff = sg
    h = 0.01
    grid = SolutionGrid.from_solution(kink, 0.4, 0.4, h, h, n, n)
    return integrate_frame(tr, sff, grid)


def test_export_counts(sg, kink, tmp_path):
    field = full_small_field(sg, kink)
    assert field.count_valid() == 100
    path = export_mesh(field, tmp_path / "patch.obj")
    lines = Path(path).read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 100
    assert sum(1 for l in lines if l.startswith("f ")) == 162
    assert os.path.exists(str(tmp_path / "patch.diag.txt"))


def test_export_masked_faces_reference_valid_only(sg, kink, tmp_path):
    tr, sff = sg
    grid = SolutionGrid.from_solution(kink, -0.45, -0.45, 0.1, 0.1, 10, 10)
    field = integrate_frame(tr, sff, grid)
    assert 0 < field.count_valid() < 100
    path = export_mesh(field, tmp_path / "masked.obj")
    lines = Path(path).read_text().splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    assert nv == field.count_valid()
    for l in lines:
        if l.startswith("f "):
            idx = [int(tok) for tok in l.split()[1:]]
            assert all(1 <= k <= nv for k in idx)


def test_export_empty_field(sg, tmp_path):
    tr, sff = sg
    vals = {n: np.zeros((4, 4)) for n in
            ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")}
    grid = SolutionGrid(x0=0.0, t0=0.0, hx=0.1, ht=0.1, nx=4, nt=4,
                        values=vals)
    field = integrate_frame(tr, sff, grid)
    path = export_mesh(field, tmp_path / "empty.obj")
    text = Path(path).read_text()
    assert "warning: empty field" in text
    assert "\nv " not in text and "\nf " not in text


def test_export_deterministic(sg, kink, tmp_path):
    field = full_small_field(sg, kink, n=6)
    diag = None
    p1 = export_mesh(field, tmp_path / "a.obj", diag)
    p2 = export_mesh(field, tmp_path / "b.obj", diag)
    assert Path(p1).read_text() == Path(p2).read_text()


def test_sidecar_carries_diagnostics(sg, kink, tmp_path):
    field = full_small_field(sg, kink)
    diag = validate_surface(field)
    export_mesh(field, tmp_path / "d.obj", diag)
    text = (tmp_path / "d.diag.txt").read_text()
    assert "curvature" in text and "metric" in text
    assert "path-independence" in text and "mask fraction" in text
