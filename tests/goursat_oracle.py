"""The per-cell Goursat loop that solutions.goursat_solve replaced.

Kept verbatim, with the rhs wrapper of its time, as the oracle the
wavefront march is compared with bit for bit.  Test-only.
"""

import numpy as np

from pssurf.catalog import ConstraintError
from pssurf.expr import EquationContext, Expr, compile_expr
from pssurf.solutions import U_BOUND, SolutionGrid


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


def goursat_loop(F, phi, psi, window, params=None, u_bound=U_BOUND) -> SolutionGrid:
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
