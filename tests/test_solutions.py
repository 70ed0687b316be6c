import hashlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from pssurf.catalog import ConstraintError, build
from pssurf.expr import Const, Param, X, T, exp, log, parse, substitute
from pssurf.solutions import (
    Evaluable,
    SolutionGrid,
    _from_expr,
    goursat_solve,
    linear_solution,
    sg_kink,
)

from goursat_oracle import goursat_loop


def _points(n=100, lo=-3.0, hi=3.0, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _residual(sol, family, **params):
    """sol's residual against the built family's equation, at its pinned
    parameters, as a function of x and t."""
    spec = build(family, params)
    pinned = {Param(k): Const(v) for k, v in spec.triple.params.items()}
    return Evaluable(substitute(sol.residual(spec.ctx), pinned))


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
    assert (np.abs(_residual(k, "sg-basic")(x, t)) / scale).max() < 1e-12


def test_kink_other_speeds_still_solve():
    for a in (0.5, -2.0):
        k = sg_kink(a)
        x, t = _points(60)
        assert np.abs(_residual(k, "sg-basic")(x, t)).max() < 1e-10


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
    res = _residual(s, "hyp-iii-lambda", **{"lambda": 1.0}, xi=1.0, tau=2.0)
    assert np.abs(res(x, t)).max() < 1e-12


def test_linear_lambda_zero_fallback():
    s = linear_solution(0.0, 2.0, 3.0, 1.0)
    x, t = _points(50, -1.0, 1.0)
    res = _residual(s, "hyp-iii-xi-tau", xi=2.0, tau=3.0)
    assert np.abs(res(x, t)).max() < 1e-12


def test_linear_lambda_xi_zero_solves_u_xt_tau():
    # u = C*exp(p*x) + tau*x*t, hyp-iii-xi-tau's xi = 0 branch
    s = linear_solution(0.0, 0.0, 1.0, 1.0)
    x, t = _points(50, -1.0, 1.0)
    assert np.abs(s.u(x, t) - (np.exp(x) + x * t)).max() < 1e-12
    res = _residual(s, "hyp-iii-xi-tau", xi=0.0, tau=1.0)
    assert np.abs(res(x, t)).max() < 1e-12


def test_linear_errors():
    with pytest.raises(ConstraintError):
        linear_solution(1.0, 0.0, 0.0, 0.0)
    # lam = xi = 0 solves u_xt = tau through its tau*x*t term
    s = linear_solution(0.0, 0.0, 1.0, 1.0)
    x, t = _points(20, -0.5, 0.5)
    res = _residual(s, "hyp-iii-xi-tau", xi=0.0, tau=1.0)
    assert np.abs(res(x, t)).max() < 1e-12
    # lam = xi = tau = 0 is the homogeneous case u_xt = 0 and stays legal
    s = linear_solution(0.0, 0.0, 0.0, 2.0)
    assert np.abs(_residual(s, "hyp-iii-zero")(x, t)).max() < 1e-12


def test_residual_reads_each_kind_of_equation():
    # the Cole-Hopf solution u = -lam*t + log(1 + exp(x + (1 + eta)*t)) of
    # evo-hlzero's default table, u_t = u_xx + u_x^2 + eta*u_x - lam
    u = Const(-1.0) * T + log(Const(1.0) + exp(X + Const(2.0) * T))
    s = _from_expr(u)
    x, t = _points(50, -1.0, 1.0)
    res = _residual(s, "evo-hlzero", eta=1.0, **{"lambda": 1.0})
    assert np.abs(res(x, t)).max() < 1e-12
    # the hyperbolic reading of the same u is not zero
    res = _residual(s, "hyp-iii-xi-tau", xi=0.0, tau=1.0)
    assert np.abs(res(x, t)).max() > 0.1


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
    head = path.read_bytes().split(b"\n")[0].decode("ascii")
    for key in ("x0=", "t0=", "hx=", "ht=", "nx=2", "nt=3", "dtype=<f8"):
        assert key in head


def test_grid_binary_rejects_short_payload(tmp_path):
    g = SolutionGrid.from_values(np.ones((3, 3)), 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="payload"):
        SolutionGrid.from_binary(path)


@pytest.mark.parametrize("cut", [
    lambda raw: raw[:-8],               # one value short
    lambda raw: raw + bytes(8),         # one value too many
    lambda raw: raw.split(b"\n")[0] + b"\n",  # header only
])
def test_grid_binary_payload_must_match_header(tmp_path, cut):
    g = SolutionGrid.from_values(np.ones((3, 4)), 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError) as info:
        SolutionGrid.from_binary(path)
    assert str(info.value) == "binary grid payload does not match the header"


def test_grid_binary_round_trip_is_bit_identical(tmp_path):
    u = np.random.default_rng(3).normal(size=(13, 7))
    g = SolutionGrid.from_values(u, -1.0, 0.5, 0.1, 0.3)
    g["u"][0, :5] = (0.0, -0.0, np.inf, np.nan, 5e-324)
    path = tmp_path / "grid.bin"
    g.to_binary(path)
    back = SolutionGrid.from_binary(path)
    assert list(back.values) == list(g.values)
    for name, arr in g.values.items():
        got = back[name]
        assert got.tobytes() == arr.tobytes()
        assert got.shape == (13, 7) and got.dtype == np.float64
        # each field is its own array, not a view of one shared buffer
        assert got.base is None and got.flags.writeable


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


def test_grid_csv_bytes_on_a_small_grid(tmp_path):
    # rows are stacked one block at a time; the text is what the whole
    # stacked table gave, whatever the memory layout of a field
    base = np.array([[0.1, -0.0], [1 / 3, 2.5], [1e-300, 7.0]])
    values = {n: base * (k + 1) for k, n in enumerate(
        ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt"))}
    values["u_tt"] = np.asfortranarray(values["u_tt"])
    g = SolutionGrid(x0=-1.0, t0=0.5, hx=0.1, ht=0.3, nx=3, nt=2,
                     values=values)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    assert path.read_text() == (
        "x0=-1.0 t0=0.5 hx=0.1 ht=0.3 nx=3 nt=2\n"
        "u,u_x,u_t,u_xx,u_xt,u_tt\n"
        "0.10000000000000001,0.20000000000000001,0.30000000000000004,"
        "0.40000000000000002,0.5,0.60000000000000009\n"
        "-0,-0,-0,-0,-0,-0\n"
        "0.33333333333333331,0.66666666666666663,1,1.3333333333333333,"
        "1.6666666666666665,2\n"
        "2.5,5,7.5,10,12.5,15\n"
        "1e-300,2.0000000000000001e-300,3.0000000000000002e-300,"
        "4.0000000000000001e-300,5e-300,6.0000000000000005e-300\n"
        "7,14,21,28,35,42\n")


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


@pytest.fixture(scope="module")
def marched_grid():
    """u_xt = sin u marched from kink characteristic data on [-3, 3]^2 at
    h = 0.01, as the march-stored benchmark marches it: 361,201 rows."""
    kink = sg_kink(1.0)
    return goursat_solve(build("sg-basic", {}).ctx, lambda x: kink.u(x, -3.0),
                         lambda t: kink.u(-3.0, t),
                         (-3.0, 3.0, -3.0, 3.0, 0.01))


def test_marched_grid_csv_bytes_are_pinned(tmp_path, marched_grid):
    # the digest of the grid's rows as '%.17g' writes them, whether one
    # process or two format them with %
    path = tmp_path / "grid.csv"
    marched_grid.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "04e906044abbf019dbe7cb4e4130bd2b86dc8885ac0ab478004dcae3f36401c2")


def test_csv_write_memory_stays_flat(tmp_path, marched_grid):
    # all of the write runs in this process, one block of rows at a time
    path = tmp_path / "grid.csv"
    marched_grid.to_csv(path)        # builds the digit tables
    tracemalloc.start()
    try:
        marched_grid.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert marched_grid.nx * marched_grid.nt >= 300_000
    assert peak <= 4 * 2 ** 20


# ------------------------------------------------------------ CSV read


def _refuse_fork():
    raise AssertionError("forked")


def test_csv_read_stays_in_one_process_and_small(tmp_path, monkeypatch,
                                                 no_leaks, marched_grid):
    # from_csv reads block by block straight into its result array, with
    # no other process, and no more than 6 MB alive on top of the result
    path = tmp_path / "grid.csv"
    marched_grid.to_csv(path)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(SolutionGrid, "_read_csv_serial", _one_pass_only)
    tracemalloc.start()
    try:
        back = SolutionGrid.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_grid(back, marched_grid)
    result = 8 * 6 * marched_grid.nx * marched_grid.nt
    assert result > 16 * 2 ** 20
    assert peak - result <= 6 * 2 ** 20


@pytest.mark.parametrize("nx", ["100000000", "1" * 25])
def test_csv_header_promising_more_values_than_the_file_holds(
        tmp_path, nx):
    # the header's size is checked against the file's bytes before any
    # array of that size is asked for
    _, path = _write_grid(tmp_path, "csv")
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"nx=3", b"nx=" + nx.encode(), 1)
                     .replace(b"nt=4", b"nt=100000000", 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="CSV grid data does not match "
                                             "the header: 12 rows of 6"):
            SolutionGrid.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _random_grid(nx, nt):
    rng = np.random.default_rng([nx, nt])
    values = {n: rng.normal(size=(nx, nt)) * 10.0 ** rng.integers(-300, 300)
              for n in ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")}
    for name, special in zip(values, (0.0, -0.0, np.inf, -np.inf, np.nan,
                                      5e-324)):
        values[name].flat[-1] = special
    return SolutionGrid(x0=-1.0, t0=0.5, hx=0.1, ht=0.3, nx=nx, nt=nt,
                        values=values)


def _one_pass_text(g):
    ref = io.StringIO()
    ref.write(g._header() + "\n" + ",".join(g.values) + "\n")
    flat = np.column_stack([a.reshape(-1) for a in g.values.values()])
    np.savetxt(ref, flat, delimiter=",", fmt="%.17g")
    return ref.getvalue()


def _assert_same_grid(back, g):
    head = ("x0", "t0", "hx", "ht", "nx", "nt")
    assert [getattr(back, k) for k in head] == [getattr(g, k) for k in head]
    assert list(back.values) == list(g.values)
    for name, arr in g.values.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def _one_pass_only(*args):
    raise AssertionError("the one-pass reader ran")


# 1, 2, 3 and 21 rows, and 4,545 rows: several blocks of _CSV_ROWS rows
@pytest.mark.parametrize("nx, nt", [(1, 1), (2, 1), (1, 3), (7, 3), (45, 101)])
def test_csv_is_the_one_pass_text(tmp_path, monkeypatch, no_leaks, nx, nt):
    g = _random_grid(nx, nt)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    assert path.read_text() == _one_pass_text(g)
    # a well-formed file is read by read_rows, not the one-pass fallback
    monkeypatch.setattr(SolutionGrid, "_read_csv_serial", _one_pass_only)
    _assert_same_grid(SolutionGrid.from_csv(path), g)


def _corrupt_row(path, k, row):
    lines = path.read_text().splitlines(keepends=True)
    lines[k] = row + "\n"
    path.write_text("".join(lines))


# numpy counts the bad row among the data rows, from 0 for a value and
# from 1 for a width; both messages name the file's line
@pytest.mark.parametrize("row, message", [
    ("1,2,3,4,5,x", "could not convert string 'x' to float64 at line {}, "
                    "column 6."),
    ("1,2,3,4,5", "the number of columns changed from 6 to 5 at line {}"),
])
@pytest.mark.parametrize("k", [4445, 98])   # a data row in each half
def test_csv_raises_the_one_pass_error(tmp_path, no_leaks, row, message, k):
    path = tmp_path / "grid.csv"
    _random_grid(45, 101).to_csv(path)
    _corrupt_row(path, k + 2, row)
    with pytest.raises(ValueError) as serial:
        SolutionGrid._read_csv_serial(path)
    with pytest.raises(ValueError) as read:
        SolutionGrid.from_csv(path)
    assert str(read.value) == str(serial.value)
    # lines are counted over the whole file
    assert str(serial.value) == message.format(k + 3)


@pytest.mark.parametrize("row, message", [
    ("1,2,3,4,5,x", "could not convert string 'x' to float64 at line 106, "
                    "column 6."),
    ("1,2,3,4,5", "the number of columns changed from 6 to 5 at line 106"),
])
def test_csv_error_counts_skipped_lines(tmp_path, row, message):
    # numpy counts neither an empty nor a comment line as a row, but does
    # count a row with a comment after it
    path = tmp_path / "grid.csv"
    _random_grid(41, 41).to_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[102] = row + "\n"
    lines[50:50] = ["\n", "# a note\n", "1,2,3,4,5,6 # a row\n"]
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        SolutionGrid.from_csv(path)
    assert str(info.value) == message


@pytest.mark.parametrize("edit", [
    lambda raw: raw.replace(b"\n", b"\r\n"),             # CRLF rows
    lambda raw: raw[:-200] + raw[-200:].replace(b"\n", b"\r", 1),
    lambda raw: raw.replace(b"nt=101", b"nt=101 note=\xc3\xa9", 1),
])
def test_csv_leaves_other_text_to_one_pass(tmp_path, no_leaks, edit):
    # universal newlines and a non-ASCII header: the one-pass reader reads
    # them, so from_csv gives what it gives
    g = _random_grid(45, 101)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    path.write_bytes(edit(path.read_bytes()))
    _assert_same_grid(SolutionGrid.from_csv(path),
                      SolutionGrid._read_csv_serial(path))


def test_csv_does_not_hide_a_row_behind_a_cr(tmp_path, no_leaks):
    # one pass ends the line at the CR, so the row after " #" is data; a
    # reader that kept the CR inside its line would read that row as
    # comment
    path = tmp_path / "grid.csv"
    _random_grid(45, 101).to_csv(path)
    raw = path.read_bytes()
    cut = raw.index(b"\n", len(raw) - 200)
    path.write_bytes(raw[:cut] + b" #\r1,2,3,4,5,6" + raw[cut:])
    with pytest.raises(ValueError, match="4546 rows of 6 values, expected "
                                         "4545 rows of 6"):
        SolutionGrid.from_csv(path)


def test_csv_checks_each_part_s_width(tmp_path, no_leaks):
    # from the middle on, every row is one value padded to its old length,
    # so each half is a regular table but the two are not one table
    path = tmp_path / "grid.csv"
    _random_grid(45, 101).to_csv(path)
    raw = path.read_bytes()
    start = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    split = raw.index(b"\n", (start + len(raw)) // 2) + 1
    tail = [b"1".ljust(len(line) - 1) + b"\n"
            for line in raw[split:].splitlines(keepends=True)]
    path.write_bytes(raw[:split] + b"".join(tail))
    with pytest.raises(ValueError) as serial:
        SolutionGrid._read_csv_serial(path)
    with pytest.raises(ValueError) as read:
        SolutionGrid.from_csv(path)
    assert str(read.value) == str(serial.value)
    assert "changed from 6 to 1" in str(serial.value)
