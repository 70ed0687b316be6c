"""Exact and numerical solutions u(x, t) of the catalog equations.

Analytic solutions carry u and its derivatives through second order as
closed forms in x and t, together with the equation they are declared to
solve.  The Goursat solver fills a rectangular grid for u_xt = F(u, u_x)
from data on the characteristics x = x0 and t = t0; the traveling-wave
reducer solves the ODE c*phi'' = F(phi, phi') and lifts the profile back
to the plane.
"""

from __future__ import annotations

import dataclasses
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
            np.savetxt(fh, flat, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            head = _parse_header(fh.readline())
            names = fh.readline().strip().split(",")
            flat = np.loadtxt(fh, delimiter=",", ndmin=2)
        grid = cls(**head)
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
        names = fields[0].split(",")
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
    return out


# ------------------------------------------------------------ Goursat solver


def _rhs_function(F, params):
    if isinstance(F, EquationContext):
        F = F.rhs
    if isinstance(F, Expr):
        fn = compile_expr(F)
        base = dict(params or {})

        def rhs(u, ux):
            env = dict(base)
            env["z0"] = u
            env["z1"] = ux
            return fn(env)

        return rhs
    if callable(F):
        return F
    raise TypeError("F must be an equation context, an expression, or callable")


def goursat_solve(F, phi, psi, window, params=None, u_bound=U_BOUND) -> SolutionGrid:
    """March u_xt = F(u, u_x) from u(x, t0) = phi(x), u(x0, t) = psi(t).

    window is (x0, x1, t0, t1, h) or (x0, x1, t0, t1, hx, ht).  Each cell is
    closed with trapezoidal integration of F over the characteristic
    rectangle plus one fixed-point correction; u_x comes from differencing
    along x.  Cells where |u| exceeds u_bound truncate the grid, and the
    remaining rows are left as NaN with a note on the result.
    """
    rhs = _rhs_function(F, params)
    if len(window) == 5:
        x0, x1, t0, t1, hx = (float(v) for v in window)
        ht = hx
    else:
        x0, x1, t0, t1, hx, ht = (float(v) for v in window)
    if hx <= 0 or ht <= 0:
        raise ConstraintError("h", "grid steps must be positive")
    nx = int(round((x1 - x0) / hx)) + 1
    nt = int(round((t1 - t0) / ht)) + 1
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

    # u_x at known nodes, by differencing along x; the left edge is seeded
    # forward and lags one row when a new row starts
    ux = np.full((nx, nt), np.nan)
    ux[1:, 0] = (u[1:, 0] - u[:-1, 0]) / hx
    ux[0, 0] = (u[1, 0] - u[0, 0]) / hx

    note = ""
    area = hx * ht
    for j in range(1, nt):
        f_known = np.asarray(rhs(u[:, j - 1], ux[:, j - 1]), dtype=float)
        f_left = rhs(u[0, j], ux[0, j - 1])
        for i in range(1, nx):
            base = u[i - 1, j] + u[i, j - 1] - u[i - 1, j - 1]
            guess = base + area * f_known[i - 1]
            f_new = rhs(guess, (guess - u[i - 1, j]) / hx)
            val = base + 0.25 * area * (f_known[i - 1] + f_known[i]
                                        + f_left + f_new)
            u[i, j] = val
            ux[i, j] = (val - u[i - 1, j]) / hx
            if i == 1:
                ux[0, j] = (val - u[0, j]) / hx
            if not np.isfinite(val) or abs(val) > u_bound:
                note = (f"truncated at x index {i}, t index {j}: |u| exceeded"
                        f" {u_bound:g}")
                break
            f_left = rhs(val, ux[i, j])
        if note:
            u[:, j + 1:] = np.nan
            break

    return SolutionGrid.from_values(u, x0, t0, hx, ht, note=note)
