"""Exact and numerical solutions u(x, t) of the catalog equations.

Analytic solutions carry u and its derivatives through second order as
closed forms in x and t, together with the equation they are declared to
solve.  The Goursat solver fills a rectangular grid for u_xt = F(u, u_x)
from data on the characteristics x = x0 and t = t0, one anti-diagonal of
cells at a time.  A SolutionGrid holds u and its derivatives on grid
nodes, stored as CSV or binary; text rows are written in blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const,
    Expr,
    T,
    X,
    arctan,
    compile_expr,
    exp,
    partial,
    simplify,
    sin as _sin,
    substitute,
    to_text,
    z,
)
from .expr import EquationContext
from .catalog import ConstraintError

__all__ = [
    "AnalyticSolution",
    "Evaluable",
    "SolutionGrid",
    "sg_kink",
    "linear_solution",
    "goursat_solve",
]

U_BOUND = 1e6  # Goursat truncation threshold; exponential families blow up


class Evaluable:
    """A closed form in x and t, callable on scalars or arrays."""

    def __init__(self, expr: Expr):
        self.expr = simplify(expr)
        self._fn = compile_expr(self.expr)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = self._fn({"x": x, "t": t})
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(x.shape, t.shape)).copy()

    def __repr__(self):
        return f"Evaluable({to_text(self.expr)})"


_DERIV_NAMES = ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")


@dataclass(frozen=True)
class AnalyticSolution:
    """u(x, t) with derivatives through order 2 and its declared equation."""

    u: Evaluable
    u_x: Evaluable
    u_t: Evaluable
    u_xx: Evaluable
    u_xt: Evaluable
    u_tt: Evaluable
    equation: str
    residual: Evaluable  # declared-equation residual, zero on solutions


def _from_expr(u_expr, rhs, equation=""):
    """Build the solution record from a closed form and the equation rhs.

    rhs is an Expr in the jet leaves z0, z1 (hyperbolic convention), so the
    residual is u_xt - rhs(u, u_x).
    """
    ux = simplify(partial(u_expr, X))
    ut = simplify(partial(u_expr, T))
    uxt = simplify(partial(ux, T))
    fields = {
        "u": u_expr,
        "u_x": ux,
        "u_t": ut,
        "u_xx": simplify(partial(ux, X)),
        "u_xt": uxt,
        "u_tt": simplify(partial(ut, T)),
    }
    on_solution = substitute(rhs, {z(0): u_expr, z(1): ux})
    res = simplify(uxt - on_solution)
    return AnalyticSolution(
        equation=equation,
        residual=Evaluable(res),
        **{k: Evaluable(v) for k, v in fields.items()},
    )


def sg_kink(a: float) -> AnalyticSolution:
    """The kink u = 4*arctan(exp(a*x + t/a)) of u_xt = sin(u)."""
    if a == 0:
        raise ConstraintError("a", "kink speed must be nonzero")
    a = float(a)
    theta = Const(a) * X + T / Const(a)
    u = simplify(Const(4) * arctan(exp(theta)))
    return _from_expr(u, _sin(z(0)), equation="u_xt = sin(u)")


def linear_solution(lam: float, xi: float, tau: float, p: float,
                    C: float = 1.0) -> AnalyticSolution:
    """Exponential solution of u_xt = lam*u + xi*u_x + tau.

    For lam != 0 the particular part is the constant -tau/lam; for lam = 0
    it is -tau*x/xi, which needs xi != 0 when tau != 0.
    """
    if p == 0:
        raise ConstraintError("p", "exponent coefficient must be nonzero")
    lam, xi, tau, p, C = (float(v) for v in (lam, xi, tau, p, C))
    q = (lam + xi * p) / p
    wave = Const(C) * exp(Const(p) * X + Const(q) * T)
    if lam != 0:
        u = simplify(wave + Const(-tau / lam))
    elif tau == 0:
        u = simplify(wave)
    elif xi != 0:
        u = simplify(wave + Const(-tau / xi) * X)
    else:
        raise ConstraintError(
            "tau", "lam = xi = 0 leaves u_xt = tau with no exponential solution")
    rhs = Const(lam) * z(0) + Const(xi) * z(1) + Const(tau)
    return _from_expr(u, simplify(rhs),
                      equation=f"u_xt = {lam}*u + {xi}*u_x + {tau}")


# ------------------------------------------------------------ grids


@dataclass
class SolutionGrid:
    """u and derivative values on the rectangular grid x0 + i*hx, t0 + j*ht.

    Value arrays are indexed [i, j] (x first).  Derivative grids are
    consistent with u under central differences to O(h^2).
    """

    x0: float
    t0: float
    hx: float
    ht: float
    nx: int
    nt: int
    values: dict = field(default_factory=dict)  # name -> (nx, nt) array
    note: str = ""

    def axes(self):
        x = self.x0 + self.hx * np.arange(self.nx)
        t = self.t0 + self.ht * np.arange(self.nt)
        return x, t

    def mesh(self):
        x, t = self.axes()
        return np.meshgrid(x, t, indexing="ij")

    def __getitem__(self, name):
        return self.values[name]

    @classmethod
    def from_solution(cls, sol: AnalyticSolution, x0, t0, hx, ht, nx, nt):
        grid = cls(x0=float(x0), t0=float(t0), hx=float(hx), ht=float(ht),
                   nx=int(nx), nt=int(nt))
        xx, tt = grid.mesh()
        for name in _DERIV_NAMES:
            grid.values[name] = getattr(sol, name)(xx, tt)
        return grid

    @classmethod
    def from_values(cls, u, x0, t0, hx, ht, note=""):
        """Derive the derivative grids from u by central differences."""
        u = np.asarray(u, dtype=float)
        nx, nt = u.shape
        grid = cls(x0=float(x0), t0=float(t0), hx=float(hx), ht=float(ht),
                   nx=nx, nt=nt, note=note)
        ex = 2 if nx >= 3 else 1
        et = 2 if nt >= 3 else 1
        ux = np.gradient(u, grid.hx, axis=0, edge_order=ex)
        ut = np.gradient(u, grid.ht, axis=1, edge_order=et)
        grid.values = {
            "u": u,
            "u_x": ux,
            "u_t": ut,
            "u_xx": np.gradient(ux, grid.hx, axis=0, edge_order=ex),
            "u_xt": np.gradient(ux, grid.ht, axis=1, edge_order=et),
            "u_tt": np.gradient(ut, grid.ht, axis=1, edge_order=et),
        }
        return grid

    # --- serialization: text header x0, t0, hx, ht, nx, nt, then data ---

    def _header(self):
        return (f"x0={self.x0!r} t0={self.t0!r} hx={self.hx!r} ht={self.ht!r} "
                f"nx={self.nx} nt={self.nt}")

    def to_csv(self, path):
        names = list(self.values)
        with open(path, "w") as fh:
            fh.write(self._header() + "\n")
            fh.write(",".join(names) + "\n")
            flat = np.column_stack([self.values[n].reshape(-1) for n in names])
            _write_rows(fh, ",".join(["%.17g"] * len(names)) + "\n", flat)

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            grid = cls(**_parse_header(fh.readline()))
            names = _field_names(fh.readline().strip())
            with warnings.catch_warnings():
                # no data rows is reported below, as a shape mismatch
                warnings.simplefilter("ignore", UserWarning)
                flat = np.loadtxt(fh, delimiter=",", ndmin=2)
        if flat.shape != (grid.nx * grid.nt, len(names)):
            raise ValueError(
                f"CSV grid data does not match the header: {flat.shape[0]} "
                f"rows of {flat.shape[1]} values, expected {grid.nx * grid.nt}"
                f" rows of {len(names)}")
        for k, name in enumerate(names):
            grid.values[name] = flat[:, k].reshape(grid.nx, grid.nt)
        return grid

    def to_binary(self, path):
        """Header line in ASCII, then the named grids as little-endian float64."""
        names = list(self.values)
        with open(path, "wb") as fh:
            fh.write((self._header() + " fields=" + ",".join(names)
                      + " dtype=<f8\n").encode("ascii"))
            for n in names:
                fh.write(np.ascontiguousarray(self.values[n], dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path):
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii")
            payload = fh.read()
        grid = cls(**_parse_header(header))
        fields = [tok[len("fields="):] for tok in header.split()
                  if tok.startswith("fields=")]
        if not fields:
            raise ValueError("grid header missing fields")
        names = _field_names(fields[0])
        per = grid.nx * grid.nt
        data = np.frombuffer(payload, dtype="<f8")
        if data.size != per * len(names):
            raise ValueError("binary grid payload does not match the header")
        for k, name in enumerate(names):
            grid.values[name] = data[k * per:(k + 1) * per].reshape(grid.nx, grid.nt).copy()
        return grid


def _parse_header(line):
    out = {}
    for tok in line.split():
        key, _, val = tok.partition("=")
        if key in ("nx", "nt"):
            out[key] = int(val)
        elif key in ("x0", "t0", "hx", "ht"):
            out[key] = float(val)
    missing = [k for k in ("x0", "t0", "hx", "ht", "nx", "nt") if k not in out]
    if missing:
        raise ValueError(f"grid header missing {', '.join(missing)}")
    if not (math.isfinite(out["x0"]) and math.isfinite(out["t0"])
            and 0 < out["hx"] < math.inf and 0 < out["ht"] < math.inf
            and out["nx"] >= 1 and out["nt"] >= 1):
        raise ValueError("grid header needs finite x0, t0, positive finite "
                         "hx, ht and positive nx, nt")
    return out


def _field_names(text):
    """The comma-separated field names of a stored grid, which must be the
    six of _DERIV_NAMES in any order."""
    names = text.split(",")
    if sorted(names) != sorted(_DERIV_NAMES):
        raise ValueError(f"grid fields {text!r} do not match "
                         f"{','.join(_DERIV_NAMES)} (in any order)")
    return names


_BLOCK = 1024  # rows per formatting call


def _write_rows(fh, row_format, array):
    """Write each row of a 2-D array as row_format % row, formatting
    _BLOCK rows per call, so one block's text is alive at a time."""
    for k in range(0, len(array), _BLOCK):
        block = array[k:k + _BLOCK]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


# ------------------------------------------------------------ Goursat solver


def _rhs_function(F, params):
    """rhs(u, ux) as a float array of u's shape, whatever F returns."""
    if isinstance(F, EquationContext):
        F = F.rhs
    if isinstance(F, Expr):
        fn = compile_expr(F)
        base = dict(params or {})

        def call(u, ux):
            env = dict(base)
            env["z0"] = u
            env["z1"] = ux
            return fn(env)
    elif callable(F):
        call = F
    else:
        raise TypeError(
            "F must be an equation context, an expression, or callable")

    def rhs(u, ux):
        return np.broadcast_to(np.asarray(call(u, ux), dtype=float),
                               np.shape(u))

    return rhs


def _goursat_window(window):
    """(x0, t0, hx, ht, nx, nt) of (x0, x1, t0, t1, h[, ht])."""
    if len(window) == 5:
        x0, x1, t0, t1, hx = (float(v) for v in window)
        ht = hx
    else:
        x0, x1, t0, t1, hx, ht = (float(v) for v in window)
    if not (0 < hx < math.inf and 0 < ht < math.inf):
        raise ConstraintError("h", "grid steps must be positive and finite")
    steps = ((x1 - x0) / hx, (t1 - t0) / ht)
    if not all(map(math.isfinite, steps)):
        raise ConstraintError("window", "bounds must be finite")
    nx, nt = (int(round(s)) + 1 for s in steps)
    if nx < 2 or nt < 2:
        raise ConstraintError(
            "window", f"need at least 2 nodes on each axis, got {nx} x {nt}")
    return x0, t0, hx, ht, nx, nt


def _march(rhs, u, hx, ht):
    """Fill u[1:, 1:] from its edges u[:, 0] and u[0, :], one anti-diagonal
    per step (see goursat_solve)."""
    nx, nt = u.shape
    # F at set nodes; f[0, j] holds the lagged F(u[0, j], u_x[0, j-1])
    # until cell (1, j) fixes u_x[0, j]
    f = np.full((nx, nt), np.nan)
    uf, ff = u.reshape(-1), f.reshape(-1)
    # in the flat arrays the cells of one anti-diagonal are nt - 1 apart,
    # and the neighbours (i-1, j), (i, j-1), (i-1, j-1) sit at the fixed
    # offsets -nt, -1 and -nt-1
    s = nt - 1
    area = hx * ht
    quarter = 0.25 * area
    ux = np.empty(nx)
    ux[1:] = (u[1:, 0] - u[:-1, 0]) / hx
    ux[0] = ux[1]                                 # seeded forward
    f0 = rhs(np.append(u[:, 0], u[0, 1]), np.append(ux, ux[0]))
    f[:, 0], f[0, 1] = f0[:-1], f0[-1]
    for d in range(2, nx + nt - 1):
        lo, hi = max(1, d - s), min(nx - 1, d - 1)
        k = lo * nt + d - lo                      # flat (lo, d - lo)
        stop = k + (hi - lo) * s + 1
        cur = slice(k, stop, s)
        left = slice(k - nt, stop - nt, s)
        down = slice(k - 1, stop - 1, s)
        corner = slice(k - nt - 1, stop - nt - 1, s)
        # each cell's operations in the order of the cell-by-cell loop
        u_left = uf[left]
        base = (u_left + uf[down]) - uf[corner]
        guess = base + area * ff[corner]
        f_new = rhs(guess, (guess - u_left) / hx)
        val = base + quarter * (((ff[corner] + ff[down]) + ff[left])
                                + f_new)
        uf[cur] = val
        ux = (val - u_left) / hx
        if d < nt:
            # cell (1, d-1) fixed u_x[0, d-1]: finish F at (0, d-1)
            # and lag F at (0, d)
            fd = rhs(np.concatenate((val, u[0, d - 1:d + 1])),
                     np.concatenate((ux, ux[:1], ux[:1])))
            ff[cur], f[0, d - 1:d + 1] = fd[:-2], fd[-2:]
        else:
            ff[cur] = rhs(val, ux)


def goursat_solve(F, phi, psi, window, params=None, u_bound=U_BOUND) -> SolutionGrid:
    """March u_xt = F(u, u_x) from u(x, t0) = phi(x), u(x0, t) = psi(t).

    window is (x0, x1, t0, t1, h) or (x0, x1, t0, t1, hx, ht), with at
    least 2 nodes on each axis.  Cell (i, j) is closed from the cells
    (i-1, j), (i, j-1) and (i-1, j-1) by trapezoidal integration of F over
    the characteristic rectangle, with F at the new corner taken at an
    explicit predictor; u_x comes from differencing along x.  On the left
    edge u_x(x0, t_j) is known only once cell (1, j) is, so F there lags
    one t step.  Every cell of an anti-diagonal i + j = d thus depends only
    on the two diagonals before it: the march sets one diagonal per step,
    with two array calls of F, and gives the same bits as a cell-by-cell
    loop over t rows.

    Cells where u is not finite or |u| exceeds u_bound truncate the grid.
    The first such cell in t-major order (smallest t index, then smallest
    x index) keeps its value, every node after it in that order is NaN,
    and the result carries a note naming the cell.
    """
    rhs = _rhs_function(F, params)
    x0, t0, hx, ht, nx, nt = _goursat_window(window)
    x = x0 + hx * np.arange(nx)
    t = t0 + ht * np.arange(nt)

    phi0 = float(np.asarray(phi(np.array(x0)), dtype=float))
    psi0 = float(np.asarray(psi(np.array(t0)), dtype=float))
    if abs(phi0 - psi0) > 1e-8 * (1.0 + abs(phi0)):
        raise ValueError(
            f"corner data mismatch: phi(x0) = {phi0!r}, psi(t0) = {psi0!r}")

    u = np.full((nx, nt), np.nan)
    u[:, 0] = np.asarray(phi(x), dtype=float)
    u[0, :] = np.asarray(psi(t), dtype=float)
    with np.errstate(all="ignore"):
        _march(rhs, u, hx, ht)
        inner = u[1:, 1:]
        bad = ~np.isfinite(inner) | (np.abs(inner) > u_bound)
        # in t-major order, the order the cells are defined in
        hits = np.flatnonzero(bad.T)
    note = ""
    if hits.size:
        j, i = (v + 1 for v in divmod(int(hits[0]), nx - 1))
        u[i + 1:, j] = np.nan
        u[:, j + 1:] = np.nan
        note = (f"truncated at x index {i}, t index {j}: |u| exceeded"
                f" {u_bound:g}")

    return SolutionGrid.from_values(u, x0, t0, hx, ht, note=note)
