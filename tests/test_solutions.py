import math

import numpy as np
import pytest

from pssurf.catalog import ConstraintError, build
from pssurf.solutions import (
    SolutionGrid,
    goursat_solve,
    linear_solution,
    sg_kink,
)


def _points(n=100, lo=-3.0, hi=3.0, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


# ------------------------------------------------------------ kink


def test_kink_values_at_origin():
    k = sg_kink(1.0)
    assert float(k.u(0.0, 0.0)) == pytest.approx(math.pi, abs=1e-14)
    assert float(k.u_x(0.0, 0.0)) == pytest.approx(2.0, abs=1e-14)
    assert float(k.u_t(0.0, 0.0)) == pytest.approx(2.0, abs=1e-14)


def test_kink_residual_vanishes():
    k = sg_kink(1.0)
    x, t = _points()
    scale = 1.0 + np.abs(k.u(x, t))
    assert (np.abs(k.residual(x, t)) / scale).max() < 1e-12


def test_kink_other_speeds_still_solve():
    for a in (0.5, -2.0):
        k = sg_kink(a)
        x, t = _points(60)
        assert np.abs(k.residual(x, t)).max() < 1e-10


def test_kink_rejects_zero_speed():
    with pytest.raises(ConstraintError):
        sg_kink(0.0)


def test_kink_derivatives_match_differences():
    k = sg_kink(1.0)
    x, t = _points(40)
    h = 1e-5
    fd_x = (k.u(x + h, t) - k.u(x - h, t)) / (2 * h)
    fd_t = (k.u(x, t + h) - k.u(x, t - h)) / (2 * h)
    fd_xt = (k.u_x(x, t + h) - k.u_x(x, t - h)) / (2 * h)
    assert np.abs(fd_x - k.u_x(x, t)).max() < 1e-8
    assert np.abs(fd_t - k.u_t(x, t)).max() < 1e-8
    assert np.abs(fd_xt - k.u_xt(x, t)).max() < 1e-8


# ------------------------------------------------------------ linear equation


def test_linear_separable_exponential():
    s = linear_solution(1.0, 0.0, 0.0, 1.0, C=1.0)
    x, t = _points(50, -1.5, 1.5)
    assert np.abs(s.u(x, t) - np.exp(x + t)).max() < 1e-12
    assert np.abs(s.u_xt(x, t) - s.u(x, t)).max() < 1e-12


def test_linear_with_forcing_term():
    s = linear_solution(1.0, 1.0, 2.0, 1.0)
    x, t = _points(50, -1.5, 1.5)
    # q = (lam + xi*p)/p = 2, particular part -tau/lam = -2
    assert np.abs(s.u(x, t) - (np.exp(x + 2 * t) - 2.0)).max() < 1e-12
    assert np.abs(s.residual(x, t)).max() < 1e-12


def test_linear_lambda_zero_fallback():
    s = linear_solution(0.0, 2.0, 3.0, 1.0)
    x, t = _points(50, -1.0, 1.0)
    assert np.abs(s.residual(x, t)).max() < 1e-12


def test_linear_errors():
    with pytest.raises(ConstraintError):
        linear_solution(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConstraintError):
        linear_solution(0.0, 0.0, 1.0, 1.0)
    # lam = xi = tau = 0 is the homogeneous case and stays legal
    s = linear_solution(0.0, 0.0, 0.0, 2.0)
    x, t = _points(20, -0.5, 0.5)
    assert np.abs(s.residual(x, t)).max() < 1e-12


# ------------------------------------------------------------ Goursat


def _kink_window(h, lo=-2.0, hi=2.0):
    k = sg_kink(1.0)
    return goursat_solve(lambda u, ux: np.sin(u),
                         lambda x: k.u(x, lo), lambda t: k.u(lo, t),
                         (lo, hi, lo, hi, h)), k


def test_goursat_matches_kink():
    g, k = _kink_window(0.02)
    xx, tt = g.mesh()
    assert np.abs(g["u"] - k.u(xx, tt)).max() < 2.5e-3


def test_goursat_second_order_rate():
    errs = []
    for h in (0.05, 0.025):
        g, k = _kink_window(h)
        xx, tt = g.mesh()
        errs.append(np.abs(g["u"] - k.u(xx, tt)).max())
    rate = math.log2(errs[0] / errs[1])
    assert 1.8 <= rate <= 2.2


def test_goursat_degenerate_rhs_is_superposition():
    g = goursat_solve(lambda u, ux: 0.0 * u, np.sin, lambda t: t ** 2,
                      (0.0, 1.0, 0.0, 1.0, 0.1))
    xx, tt = g.mesh()
    assert np.abs(g["u"] - (np.sin(xx) + tt ** 2 - np.sin(0.0))).max() < 1e-12


def test_goursat_accepts_catalog_equation():
    spec = build("sg-basic", {})
    k = sg_kink(1.0)
    g = goursat_solve(spec.ctx, lambda x: k.u(x, -1.0), lambda t: k.u(-1.0, t),
                      (-1.0, 1.0, -1.0, 1.0, 0.05))
    xx, tt = g.mesh()
    assert np.abs(g["u"] - k.u(xx, tt)).max() < 1e-3


def test_goursat_corner_mismatch_raises():
    with pytest.raises(ValueError, match="corner data mismatch"):
        goursat_solve(lambda u, ux: 0.0 * u, np.sin, lambda t: t + 1.0,
                      (0.0, 1.0, 0.0, 1.0, 0.1))


def test_goursat_truncates_on_blowup():
    g, _ = _kink_window(0.1)
    gt = goursat_solve(lambda u, ux: np.sin(u),
                       lambda x: sg_kink(1.0).u(x, -2.0),
                       lambda t: sg_kink(1.0).u(-2.0, t),
                       (-2.0, 2.0, -2.0, 2.0, 0.1), u_bound=4.0)
    assert "truncated" in gt.note
    assert np.isnan(gt["u"]).any()
    assert not np.isnan(g["u"]).any()


# ------------------------------------------------------------ grids


def test_grid_from_solution_differences_consistent():
    k = sg_kink(1.0)
    g = SolutionGrid.from_solution(k, -1.0, -1.0, 0.02, 0.02, 101, 101)
    fd_x = np.gradient(g["u"], g.hx, axis=0, edge_order=2)
    assert np.abs(fd_x - g["u_x"]).max() < 2e-3


def test_grid_csv_round_trip(tmp_path):
    k = sg_kink(1.0)
    g = SolutionGrid.from_solution(k, 0.0, 0.0, 0.1, 0.2, 7, 5)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    back = SolutionGrid.from_csv(path)
    assert (back.x0, back.t0, back.hx, back.ht, back.nx, back.nt) == \
        (g.x0, g.t0, g.hx, g.ht, g.nx, g.nt)
    for name, arr in g.values.items():
        np.testing.assert_allclose(back[name], arr, rtol=0, atol=1e-15)


def test_grid_binary_round_trip(tmp_path):
    k = sg_kink(-1.5)
    g = SolutionGrid.from_solution(k, -0.3, 0.4, 0.05, 0.05, 9, 11)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    back = SolutionGrid.from_binary(path)
    for name, arr in g.values.items():
        np.testing.assert_array_equal(back[name], arr)


def test_grid_binary_header_is_text_and_little_endian(tmp_path):
    g = SolutionGrid.from_values(np.zeros((2, 3)), 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    head = open(path, "rb").readline().decode("ascii")
    for key in ("x0=", "t0=", "hx=", "ht=", "nx=2", "nt=3", "dtype=<f8"):
        assert key in head


def test_grid_binary_rejects_short_payload(tmp_path):
    g = SolutionGrid.from_values(np.ones((3, 3)), 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-16])
    with pytest.raises(ValueError, match="payload"):
        SolutionGrid.from_binary(path)


@pytest.mark.parametrize("header, key", [
    (b"garbage\n", "x0"),
    (b"x0=0.0 t0=0.0 hx=1.0 ht=1.0 nx=1 fields=u dtype=<f8\n", "nt"),
    (b"x0=0.0 t0=0.0 hx=1.0 ht=1.0 nx=1 nt=1 dtype=<f8\n", "fields"),
])
def test_grid_binary_rejects_malformed_header(tmp_path, header, key):
    path = tmp_path / "grid.bin"
    path.write_bytes(header + np.zeros(1, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=f"missing {key}"):
        SolutionGrid.from_binary(path)
