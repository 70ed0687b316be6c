import io
import math

import numpy as np
import pytest

from pssurf.catalog import ConstraintError, build
from pssurf.expr import Const, parse
from pssurf.solutions import (
    SolutionGrid,
    goursat_solve,
    linear_solution,
    sg_kink,
)

from goursat_oracle import goursat_loop


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


def _kink_data(lo):
    k = sg_kink(1.0)
    return (lambda u, ux: np.sin(u)), (lambda x: k.u(x, lo)), \
        (lambda t: k.u(lo, t))


_PARITY = {
    "kink h=0.05": (*_kink_data(-2.0), (-2.0, 2.0, -2.0, 2.0, 0.05), {}),
    "non-square hx != ht": (lambda u, ux: np.sin(u) + 0.3 * ux,
                            *_kink_data(-1.0)[1:],
                            (-1.0, 2.0, -1.0, 0.5, 0.05, 0.02), {}),
    "2 nodes in x": (*_kink_data(-1.0), (-1.0, -0.9, -1.0, 1.0, 0.1, 0.05), {}),
    "2 nodes in t": (*_kink_data(-1.0), (-1.0, 1.0, -1.0, -0.9, 0.05, 0.1), {}),
    "superposition": (lambda u, ux: 0.0 * u, np.sin, lambda t: t ** 2,
                      (0.0, 1.0, 0.0, 1.0, 0.1), {}),
    "truncation u_bound=4": (*_kink_data(-2.0), (-2.0, 2.0, -2.0, 2.0, 0.1),
                             {"u_bound": 4.0}),
    "truncation, asymmetric data": (
        lambda u, ux: np.sin(u), lambda x: sg_kink(2.0).u(x, -2.0),
        lambda t: sg_kink(2.0).u(-1.0, t), (-1.0, 1.0, -2.0, 2.0, 0.05, 0.1),
        {"u_bound": 4.0}),
    "exp overflow to inf": (lambda u, ux: np.exp(u * u), lambda x: 1 + x,
                            lambda t: 1 + t, (0.0, 1.0, 0.0, 1.0, 0.05),
                            {"u_bound": 1e300}),
    "catalog sine-Gordon": (build("sg-basic", {}).ctx, *_kink_data(-1.0)[1:],
                            (-1.0, 1.0, -1.0, 1.0, 0.05), {}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(_PARITY))
def test_goursat_matches_loop_oracle_bit_for_bit(case):
    F, phi, psi, window, kw = _PARITY[case]
    got = goursat_solve(F, phi, psi, window, **kw)
    want = goursat_loop(F, phi, psi, window, **kw)
    assert got.note == want.note
    assert list(got.values) == list(want.values)
    for name in want.values:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_goursat_truncation_keeps_the_first_offender():
    F, phi, psi, window, kw = _PARITY["exp overflow to inf"]
    g = goursat_solve(F, phi, psi, window, **kw)
    assert g.note.startswith("truncated at x index 18, t index 1:")
    assert np.isinf(g["u"][18, 1])
    assert np.isnan(g["u"][19:, 1]).all() and np.isnan(g["u"][:, 2:]).all()
    assert np.isfinite(g["u"][:18, :2]).all()


@pytest.mark.parametrize("F", [Const(2), parse("2 + 0*z0"),
                               lambda u, ux: 2.0],
                         ids=["Const", "parsed", "callable"])
def test_goursat_constant_rhs_is_exact(F):
    x0, t0 = 0.2, -0.5
    phi = np.sin
    psi = lambda t: np.sin(x0) + (t - t0) ** 2
    g = goursat_solve(F, phi, psi, (x0, 1.4, t0, 0.5, 0.1, 0.05))
    xx, tt = g.mesh()
    exact = phi(xx) + psi(tt) - np.sin(x0) + 2.0 * (xx - x0) * (tt - t0)
    assert g.note == ""
    assert np.abs(g["u"] - exact).max() < 1e-12


@pytest.mark.parametrize("window, name", [
    ((0.0, 0.0, 0.0, 1.0, 0.1), "window"),
    ((0.0, 1.0, 0.0, 0.0, 0.1), "window"),
    ((0.0, 1.0, 0.0, 1.0, 0.1, 2.5), "window"),
    ((0.0, 1.0, 0.0, math.inf, 0.1), "window"),
    ((0.0, 1.0, 0.0, 1.0, math.nan), "h"),
    ((0.0, 1.0, 0.0, 1.0, math.inf), "h"),
    ((0.0, 1.0, 0.0, 1.0, 0.1, math.nan), "h"),
    ((0.0, 1.0, 0.0, 1.0, -0.1), "h"),
])
def test_goursat_rejects_degenerate_windows(window, name):
    with pytest.raises(ConstraintError) as info:
        goursat_solve(lambda u, ux: np.sin(u), np.sin, np.sin, window)
    assert info.value.name == name
    assert "\n" not in str(info.value)


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


def test_grid_csv_matches_savetxt_across_blocks(tmp_path):
    # 4,900 rows span several formatting blocks, the last one partial
    u = np.random.default_rng(5).normal(size=(70, 70)) * 1e3
    g = SolutionGrid.from_values(u, -1.0, 0.5, 0.1, 0.3)
    g["u"][0, :4] = (0.0, -0.0, np.inf, np.nan)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    ref = io.StringIO()
    ref.write(g._header() + "\n" + ",".join(g.values) + "\n")
    flat = np.column_stack([a.reshape(-1) for a in g.values.values()])
    np.savetxt(ref, flat, delimiter=",", fmt="%.17g")
    assert path.read_text() == ref.getvalue()


def _write_grid(tmp_path, kind):
    g = SolutionGrid.from_solution(sg_kink(1.0), 0.0, 0.0, 0.1, 0.1, 3, 4)
    path = tmp_path / f"grid.{kind}"
    (g.to_csv if kind == "csv" else g.to_binary)(path)
    return g, path


def _read(path):
    return (SolutionGrid.from_csv(path) if str(path).endswith(".csv")
            else SolutionGrid.from_binary(path))


@pytest.mark.parametrize("kind", ["csv", "bin"])
def test_stored_grid_fields_in_any_order(tmp_path, kind):
    g, path = _write_grid(tmp_path, kind)
    g.values = {n: g.values[n] for n in reversed(list(g.values))}
    (g.to_csv if kind == "csv" else g.to_binary)(path)
    back = _read(path)
    for name, arr in g.values.items():
        np.testing.assert_array_equal(back[name], arr)


@pytest.mark.parametrize("kind", ["csv", "bin"])
@pytest.mark.parametrize("fields", ["u,u_x", "u,u_x,u_t,u_xx,u_xt,u_xt",
                                    "u,u_x,u_t,u_xx,u_xt,u_tt,v"])
def test_stored_grid_rejects_wrong_fields(tmp_path, kind, fields):
    _, path = _write_grid(tmp_path, kind)
    raw = path.read_bytes()
    full = b"u,u_x,u_t,u_xx,u_xt,u_tt"
    assert raw.count(full) == 1
    path.write_bytes(raw.replace(full, fields.encode()))
    with pytest.raises(ValueError, match="grid fields .* do not match"):
        _read(path)


@pytest.mark.parametrize("cut, match", [
    (lambda lines: lines[:-1], "11 rows of 6 values, expected 12 rows of 6"),
    (lambda lines: lines[:2], "0 rows"),
    (lambda lines: lines[:2] + [",".join(["1"] * 6)] * 2 + lines[2:],
     "14 rows of 6 values, expected 12"),
    (lambda lines: lines[:2] + [",".join(["1"] * 5)] * 12,
     "12 rows of 5 values, expected 12 rows of 6"),
])
def test_csv_grid_rejects_wrong_shape(tmp_path, cut, match):
    _, path = _write_grid(tmp_path, "csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(cut(lines)) + "\n")
    with pytest.raises(ValueError, match="CSV grid data does not match the"
                                         " header: " + match):
        SolutionGrid.from_csv(path)


@pytest.mark.parametrize("kind", ["csv", "bin"])
@pytest.mark.parametrize("field, bad", [
    (b"nx=3", b"nx=0"), (b"hx=0.1", b"hx=0.0"), (b"ht=0.1", b"ht=-0.1"),
    (b"hx=0.1", b"hx=nan"), (b"ht=0.1", b"ht=inf"), (b"x0=0.0", b"x0=nan"),
])
def test_stored_grid_rejects_header_out_of_range(tmp_path, kind, field, bad):
    _, path = _write_grid(tmp_path, kind)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(field, bad, 1))
    with pytest.raises(ValueError, match="grid header needs finite x0, t0"):
        _read(path)
