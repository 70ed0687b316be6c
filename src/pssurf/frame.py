"""Moving-frame integration of an immersion from verified surface data.

Given a coefficient table, a second fundamental form and a solution grid,
the connection forms are

    dX  = w1*e1 + w2*e2
    de1 =  w21*e2 + w31*e3
    de2 = -w21*e1 + w32*e3
    de3 = -w31*e1 - w32*e2

with w21 identified with the table's third form w3 and w31 = a*w1 + b*w2,
w32 = b*w1 + c*w2.  The sign convention is the one that makes the
sine-Gordon kink's compatibility residual converge to zero; a dedicated
test asserts it.  States are stepped with a classical 4th-order rule and
re-orthonormalized after each step; path independence is measured by
running the sweep in both edge orders and differencing the results.

Every step advances a batch of nodes as one stack of 4x4 systems.  A sweep
walks the seed's line as a chain, then walks from every node of that line
across it at once, one batch per offset; each cross walk ends at its first
masked node, and no two of them share a node.  What the line passes miss is
attached breadth-first one level per batch.  Within a level the nodes are
ranked by (rank of the parent, move), and a node takes its lowest-ranked
neighbour in the level before as parent, so each node is stepped from the
same neighbour a first-in first-out queue over the sorted visited nodes
would pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import compile_expr, required_names
from .forms import PssTriple
from .catalog import ConstraintError
from .sff.core import SecondFundamentalForm, _numeric_params, strip_contains
from .solutions import SolutionGrid, _write_rows

__all__ = [
    "FrameState",
    "FrameField",
    "SurfaceDiagnostics",
    "integrate_frame",
    "validate_surface",
    "export_mesh",
]

_JET_FIELDS = {"z0": "u", "z1": "u_x", "z2": "u_xx",
               "w1": "u_t", "w2": "u_tt"}


def _grid_env(grid: SolutionGrid, params):
    xx, tt = grid.mesh()
    env = dict(params)
    env["x"] = xx
    env["t"] = tt
    for jet, name in _JET_FIELDS.items():
        env[jet] = grid[name]
    return env


def _eval_on(e, env, shape):
    out = np.asarray(compile_expr(e)(dict(env)), dtype=float)
    return np.broadcast_to(out, shape).copy()


@dataclass(frozen=True)
class FrameState:
    """Position and orthonormal frame at one node."""

    X: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    @classmethod
    def identity(cls):
        return cls(X=np.zeros(3), e1=np.array([1.0, 0, 0]),
                   e2=np.array([0, 1.0, 0]), e3=np.array([0, 0, 1.0]))

    def matrix(self):
        return np.vstack([self.X, self.e1, self.e2, self.e3])

    def orthonormality_defect(self):
        E = np.vstack([self.e1, self.e2, self.e3])
        return float(np.abs(E @ E.T - np.eye(3)).max())


@dataclass
class FrameField:
    """Integrated states over the grid; valid marks the seed's component."""

    X: np.ndarray            # (nx, nt, 3)
    frames: np.ndarray       # (nx, nt, 3, 3), rows e1, e2, e3
    valid: np.ndarray        # (nx, nt) bool
    path_residual: np.ndarray  # (nx, nt), NaN where unvisited
    drift_max: float
    mask: np.ndarray         # (nx, nt) admissibility before connectivity
    seed_index: tuple
    grid: SolutionGrid

    @property
    def mask_fraction(self):
        return float(self.mask.mean()) if self.mask.size else 0.0

    def count_valid(self):
        return int(self.valid.sum())


class _Coefficients:
    """Connection-form coefficient grids for one table and form pair."""

    def __init__(self, tr: PssTriple, sff: SecondFundamentalForm,
                 grid: SolutionGrid):
        merged, env, f = _table_grids(tr, sff, grid)
        shape = (grid.nx, grid.nt)
        # degenerate nodes produce inf/nan here; they are masked below
        with np.errstate(all="ignore"):
            a, b, c = (_eval_on(e, env, shape) for e in sff.as_tuple())
            self.f = f
            self.d12 = _d12(f)
            self.wx = _connection_rows(f, a, b, c, 1)
            self.wt = _connection_rows(f, a, b, c, 2)
        finite = np.isfinite(self.d12)
        for w in self.wx + self.wt:
            finite &= np.isfinite(w)
        self.finite = finite
        if sff.strip is not None:
            xx, tt = grid.mesh()
            inside = strip_contains(sff.strip, xx, tt, merged)
            self.finite &= inside

    def matrix(self, direction, i, j):
        """Connection blocks at the nodes (i, j); i and j may be index arrays."""
        rows = self.wx if direction == "x" else self.wt
        return _connection_matrix(*(w[i, j] for w in rows))


def _table_grids(tr, sff, grid):
    """The merged parameters, the grid environment and the six f_ij grids."""
    merged = {**_numeric_params(tr.params), **_numeric_params(sff.params)}
    env = _grid_env(grid, merged)
    _require_names(tr, sff, env)
    shape = (grid.nx, grid.nt)
    with np.errstate(all="ignore"):
        f = {(i, j): _eval_on(tr.f(i, j), env, shape)
             for i in (1, 2, 3) for j in (1, 2)}
    return merged, env, f


def _d12(f):
    with np.errstate(all="ignore"):
        return f[1, 1] * f[2, 2] - f[2, 1] * f[1, 2]


def _require_names(tr, sff, env):
    """Raise ConstraintError naming every value the forms need and env lacks."""
    exprs = [tr.f(i, j) for i in (1, 2, 3) for j in (1, 2)] + list(sff.as_tuple())
    missing = sorted({n for e in exprs for n in required_names(e)} - set(env))
    if missing:
        raise ConstraintError("params", "missing parameters: "
                              + ", ".join(missing))


def _connection_rows(f, a, b, c, col):
    """(w1, w2, w21, w31, w32) along one coordinate: col 1 is x, col 2 is t."""
    w1, w2 = f[1, col], f[2, col]
    return w1, w2, f[3, col], a * w1 + b * w2, b * w1 + c * w2


def _connection_matrix(w1, w2, w21, w31, w32):
    """The 4x4 connection block, batched: coefficients of shape S give S + (4, 4)."""
    w1, w2, w21, w31, w32 = np.broadcast_arrays(w1, w2, w21, w31, w32)
    M = np.zeros(w1.shape + (4, 4))
    M[..., 0, 1] = w1
    M[..., 0, 2] = w2
    M[..., 1, 2] = w21
    M[..., 1, 3] = w31
    M[..., 2, 1] = -w21
    M[..., 2, 3] = w32
    M[..., 3, 1] = -w31
    M[..., 3, 2] = -w32
    return M


def _rk4_edge(Y, M0, M1, h):
    """One classical step of Y' = M(s) Y along an edge, midpoint averaged.

    Y is a stack (..., 4, 3) of states and M0, M1 the matching (..., 4, 4)
    blocks at the edge's two ends.
    """
    Mm = 0.5 * (M0 + M1)
    k1 = M0 @ Y
    k2 = Mm @ (Y + 0.5 * h * k1)
    k3 = Mm @ (Y + 0.5 * h * k2)
    k4 = M1 @ (Y + h * k3)
    return Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _renormalize(Y):
    """Gram-Schmidt on the frame rows of a stack (..., 4, 3); e3 is rebuilt
    as e1 x e2.  Returns the new stack and the largest drift in it."""
    r1, r2, r3 = Y[..., 1, :], Y[..., 2, :], Y[..., 3, :]
    n1 = np.linalg.norm(r1, axis=-1, keepdims=True)
    n2 = np.linalg.norm(r2, axis=-1, keepdims=True)
    e1 = r1 / n1
    e2 = r2 - (r2 * e1).sum(-1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    drift = max(float(np.abs(n1 - 1.0).max()), float(np.abs(n2 - 1.0).max()),
                float(np.abs((r1 * r2).sum(-1)).max()),
                float(np.abs(r3 - np.cross(e1, r2 / n2)).max()))
    out = Y.copy()
    out[..., 1, :], out[..., 2, :], out[..., 3, :] = e1, e2, np.cross(e1, e2)
    return out, drift


# neighbour offsets in the order the breadth-first attach tries them
_MOVES = ((0, 1), (0, -1), (1, 0), (-1, 0))


class _Sweep:
    """One sweep's states; every step moves a batch of nodes by one offset."""

    def __init__(self, coeffs, grid, mask, seed_index, seed_state):
        nx, nt = mask.shape
        self.coeffs = coeffs
        self.h = (grid.hx, grid.ht)
        self.Y = np.full((nx, nt, 4, 3), np.nan)
        self.visited = np.zeros_like(mask, dtype=bool)
        # admissible and not yet visited, padded by one node on every side
        self.free = np.zeros((nx + 2, nt + 2), dtype=bool)
        self.free[1:-1, 1:-1] = mask
        self.drift = 0.0
        i, j = seed_index
        self.Y[i, j] = seed_state.matrix()
        self.visited[i, j] = True
        self.free[i + 1, j + 1] = False

    def step(self, i, j, di, dj):
        """Step the states at the nodes (i, j) to (i + di, j + dj)."""
        axis = 0 if di else 1
        direction = "xt"[axis]
        i2, j2 = i + di, j + dj
        M0 = self.coeffs.matrix(direction, i, j)
        M1 = self.coeffs.matrix(direction, i2, j2)
        nxt, d = _renormalize(_rk4_edge(self.Y[i, j], M0, M1,
                                        (di + dj) * self.h[axis]))
        self.drift = max(self.drift, d)
        self.Y[i2, j2] = nxt
        self.visited[i2, j2] = True
        self.free[i2 + 1, j2 + 1] = False

    def walk(self, i, j, di, dj):
        """Walk from every node (i, j) by (di, dj) at once; a walk ends at the
        grid edge or at its first masked or visited node."""
        while i.size:
            go = self.free[i + di + 1, j + dj + 1]
            i, j = i[go], j[go]
            if i.size:
                self.step(i, j, di, dj)
            i, j = i + di, j + dj

    def attach(self):
        """Breadth-first attachment of the reachable nodes not yet visited.

        Stepped one level at a time.  Level 0 is every visited node in
        lexicographic order; a new node's parent is its lowest-ranked
        neighbour in the level before, and the new level is ranked by
        (parent rank, index of the move in _MOVES).  That is the parent and
        the order a first-in first-out queue seeded with the sorted visited
        nodes gives.
        """
        nt = self.visited.shape[1]
        di, dj = np.array(_MOVES).T
        pi, pj = np.nonzero(self.visited)
        while pi.size:
            ni = (pi[:, None] + di).ravel()
            nj = (pj[:, None] + dj).ravel()
            # claims in (parent rank, move) order; each node keeps its first
            claim = np.flatnonzero(self.free[ni + 1, nj + 1])
            _, first = np.unique(ni[claim] * nt + nj[claim], return_index=True)
            parent, move = np.divmod(claim[np.sort(first)], len(_MOVES))
            for m, (mi, mj) in enumerate(_MOVES):
                sel = parent[move == m]
                if sel.size:
                    self.step(pi[sel], pj[sel], mi, mj)
            pi, pj = pi[parent] + di[move], pj[parent] + dj[move]


def _sweep(coeffs, grid, mask, seed_index, seed_state, order):
    """Fill the component of seed_index, stepping edges in the given order.

    order "xt" walks the seed row first and then columns; "tx" is the
    transpose.  Remaining reachable nodes are attached breadth-first, so an
    irregular component is still covered.  Returns (Y, visited, drift).
    """
    sweep = _Sweep(coeffs, grid, mask, seed_index, seed_state)
    primary = ((0, 1), (0, -1)) if order == "tx" else ((1, 0), (-1, 0))
    cross = ((1, 0), (-1, 0)) if order == "tx" else ((0, 1), (0, -1))
    i0, j0 = (np.array([k]) for k in seed_index)
    for d in primary:
        sweep.walk(i0, j0, *d)
    # the cross walks start from every node the line walks reached
    i, j = np.nonzero(sweep.visited)
    for d in cross:
        sweep.walk(i, j, *d)
    sweep.attach()
    return sweep.Y, sweep.visited, sweep.drift


def integrate_frame(tr: PssTriple, sff: SecondFundamentalForm,
                    grid: SolutionGrid, seed: FrameState = None,
                    seed_index=None, eps_deg=None) -> FrameField:
    """Integrate the frame over the admissible part of the grid.

    The admissibility mask keeps nodes with |d12| above eps_deg (default
    0.1 * max|d12| over the grid) that also lie inside the form's strip;
    only the connected component of the seed node is filled.  The seed
    frame must be orthonormal.  The path-independence residual per node is
    the difference between the two sweep orders.
    """
    seed = seed or FrameState.identity()
    if seed.orthonormality_defect() > 1e-8:
        raise ValueError("seed frame must be orthonormal")
    coeffs = _Coefficients(tr, sff, grid)

    finite_d12 = np.where(coeffs.finite, np.abs(coeffs.d12), 0.0)
    if eps_deg is None:
        top = float(finite_d12.max()) if finite_d12.size else 0.0
        eps_deg = 0.1 * top
    mask = coeffs.finite & (np.abs(coeffs.d12) > eps_deg)

    nx, nt = mask.shape
    empty = FrameField(
        X=np.full((nx, nt, 3), np.nan),
        frames=np.full((nx, nt, 3, 3), np.nan),
        valid=np.zeros((nx, nt), dtype=bool),
        path_residual=np.full((nx, nt), np.nan),
        drift_max=0.0, mask=mask, seed_index=(-1, -1), grid=grid)
    if not mask.any():
        return empty

    if seed_index is None:
        ii, jj = np.nonzero(mask)
        mid = np.array([(nx - 1) / 2.0, (nt - 1) / 2.0])
        dist = (ii - mid[0]) ** 2 + (jj - mid[1]) ** 2
        k = int(np.lexsort((jj, ii, dist))[0])
        seed_index = (int(ii[k]), int(jj[k]))
    else:
        seed_index = (int(seed_index[0]), int(seed_index[1]))
        if not mask[seed_index]:
            raise ConstraintError("seed", "seed node is outside the mask")

    Y1, vis1, drift1 = _sweep(coeffs, grid, mask, seed_index, seed, "xt")
    Y2, vis2, drift2 = _sweep(coeffs, grid, mask, seed_index, seed, "tx")
    del coeffs
    both = vis1 & vis2
    residual = np.full((nx, nt), np.nan)
    # in place and without copies of Y1: full-grid temporaries raise the
    # memory peak of every run
    diff = np.subtract(Y1, Y2, out=Y2)
    diff = np.abs(diff, out=diff).max(axis=(2, 3))
    residual[both] = diff[both]

    return FrameField(
        X=Y1[:, :, 0, :],
        frames=Y1[:, :, 1:, :],
        valid=vis1,
        path_residual=residual,
        drift_max=max(drift1, drift2),
        mask=mask,
        seed_index=seed_index,
        grid=grid)


# ------------------------------------------------------------ validation


@dataclass
class SurfaceDiagnostics:
    mean_abs_k_plus_1: float
    max_abs_k_plus_1: float
    metric_max_rel: float
    metric_mean_rel: float
    normal_max_err: float
    path_residual_max: float
    drift_max: float
    mask_fraction: float
    n_valid: int

    def lines(self):
        return [
            f"valid nodes: {self.n_valid} (mask fraction {self.mask_fraction:.4f})",
            f"curvature |K+1|: mean {self.mean_abs_k_plus_1:.6e} max {self.max_abs_k_plus_1:.6e}",
            f"metric relative error: mean {self.metric_mean_rel:.6e} max {self.metric_max_rel:.6e}",
            f"normal consistency max error: {self.normal_max_err:.6e}",
            f"path-independence residual max: {self.path_residual_max:.6e}",
            f"orthonormality drift max: {self.drift_max:.6e}",
        ]


def _interior_full(valid):
    """Nodes whose 3x3 neighborhood is entirely valid."""
    out = np.zeros_like(valid)
    out[1:-1, 1:-1] = (
        valid[1:-1, 1:-1]
        & valid[:-2, 1:-1] & valid[2:, 1:-1]
        & valid[1:-1, :-2] & valid[1:-1, 2:]
        & valid[:-2, :-2] & valid[2:, 2:]
        & valid[:-2, 2:] & valid[2:, :-2])
    return out


# the two triangles of a quad, as corner offsets from its (i, j) node in
# counter-clockwise order: the split along the (+1, +1) diagonal, which the
# mesh and the curvature both take from here
_SPLIT = (((0, 0), (1, 0), (1, 1)),
          ((0, 0), (1, 1), (0, 1)))


def _fan(split):
    """The triangles of ``split`` incident to a vertex, as the offsets
    (q, r) of their other two corners from it, in the same orientation."""
    return tuple(tuple((tri[(k + m) % 3][0] - tri[k][0],
                        tri[(k + m) % 3][1] - tri[k][1]) for m in (1, 2))
                 for k in range(3) for tri in split)


_FAN = _fan(_SPLIT)


def _angle_defect_curvature(X, valid):
    """Discrete K per interior vertex: angle defect over a third of the
    incident triangle area, using the quad split along the (+1, +1) diagonal.

    The six triangles are gathered one at a time over all interior nodes; a
    triangle with a zero-length edge contributes nothing.
    """
    nx, nt, _ = X.shape
    ii, jj = np.nonzero(_interior_full(valid))
    p = X[ii, jj]
    angle_sum = np.zeros(ii.size)
    area_sum = np.zeros(ii.size)
    for (qi, qj), (ri, rj) in _FAN:
        v1 = X[ii + qi, jj + qj] - p
        v2 = X[ii + ri, jj + rj] - p
        n1 = np.linalg.norm(v1, axis=-1)
        n2 = np.linalg.norm(v2, axis=-1)
        ok = (n1 != 0) & (n2 != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosang = np.clip((v1 * v2).sum(-1) / (n1 * n2), -1.0, 1.0)
        angle_sum += np.where(ok, np.arccos(cosang), 0.0)
        area_sum += np.where(ok, 0.5 * np.linalg.norm(np.cross(v1, v2), axis=-1),
                             0.0)
    K = np.full((nx, nt), np.nan)
    pos = area_sum > 0
    K[ii[pos], jj[pos]] = (2.0 * math.pi - angle_sum[pos]) / (area_sum[pos] / 3.0)
    return K


def validate_surface(field: FrameField, tr: PssTriple,
                     sff: SecondFundamentalForm) -> SurfaceDiagnostics:
    """First-fundamental-form, curvature and normal checks on the field."""
    grid = field.grid
    _, _, f = _table_grids(tr, sff, grid)
    X = field.X
    valid = field.valid

    g_xx = f[1, 1] ** 2 + f[2, 1] ** 2
    g_xt = f[1, 1] * f[1, 2] + f[2, 1] * f[2, 2]
    g_tt = f[1, 2] ** 2 + f[2, 2] ** 2

    inner = np.zeros_like(valid)
    inner[1:-1, 1:-1] = (valid[1:-1, 1:-1]
                         & valid[:-2, 1:-1] & valid[2:, 1:-1]
                         & valid[1:-1, :-2] & valid[1:-1, 2:])
    metric_errs = []
    normal_errs = []
    if inner.any():
        Xx = np.full_like(X, np.nan)
        Xt = np.full_like(X, np.nan)
        Xx[1:-1, :, :] = (X[2:, :, :] - X[:-2, :, :]) / (2.0 * grid.hx)
        Xt[:, 1:-1, :] = (X[:, 2:, :] - X[:, :-2, :]) / (2.0 * grid.ht)
        sel = inner
        for fd, ref in (((Xx * Xx).sum(-1), g_xx),
                        ((Xx * Xt).sum(-1), g_xt),
                        ((Xt * Xt).sum(-1), g_tt)):
            metric_errs.append(np.abs(fd[sel] - ref[sel]) / (1.0 + np.abs(ref[sel])))
        # Xx x Xt = d12 * e3, so the unit cross carries the sign of d12
        cross = np.cross(Xx[sel], Xt[sel]) * np.sign(_d12(f)[sel])[:, None]
        norms = np.linalg.norm(cross, axis=-1, keepdims=True)
        ok = norms[:, 0] > 0
        unit = cross[ok] / norms[ok]
        normal_errs = np.abs(unit - field.frames[sel][ok][:, 2, :]).max(axis=-1)
    metric_all = np.concatenate(metric_errs) if metric_errs else np.array([np.nan])
    normal_all = np.asarray(normal_errs) if len(normal_errs) else np.array([np.nan])

    K = _angle_defect_curvature(X, valid)
    k_vals = K[np.isfinite(K)]
    k_err = np.abs(k_vals + 1.0) if k_vals.size else np.array([np.nan])

    res = field.path_residual[np.isfinite(field.path_residual)]
    return SurfaceDiagnostics(
        mean_abs_k_plus_1=float(np.nanmean(k_err)),
        max_abs_k_plus_1=float(np.nanmax(k_err)),
        metric_max_rel=float(np.nanmax(metric_all)),
        metric_mean_rel=float(np.nanmean(metric_all)),
        normal_max_err=float(np.nanmax(normal_all)),
        path_residual_max=float(res.max()) if res.size else float("nan"),
        drift_max=field.drift_max,
        mask_fraction=field.mask_fraction,
        n_valid=field.count_valid())


# ------------------------------------------------------------ export


def export_mesh(field: FrameField, path, diagnostics: SurfaceDiagnostics = None):
    """Write the valid sub-grid as an OBJ mesh plus a sidecar report.

    Quads with four valid corners are split into two triangles along the
    (+1, +1) diagonal.  Output is deterministic for a fixed field.  The
    sidecar lands next to the mesh with extension .diag.txt.
    """
    path = str(path)
    valid = field.valid
    index = np.cumsum(valid).reshape(valid.shape)  # 1-based on valid nodes
    verts = field.X[valid]
    quad = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    qi, qj = np.nonzero(quad)
    faces = np.stack([index[qi + di, qj + dj] for tri in _SPLIT for di, dj in tri],
                     axis=1).reshape(-1, 3)

    with open(path, "w") as fh:
        fh.write("# pseudo-spherical immersion mesh\n")
        if not len(verts):
            fh.write("# warning: empty field, no valid nodes\n")
        fh.write(f"# vertices: {len(verts)} faces: {len(faces)}\n")
        _write_rows(fh, "v %.12g %.12g %.12g\n", verts)
        _write_rows(fh, "f %d %d %d\n", faces)

    sidecar = path + ".diag.txt" if not path.endswith(".obj") \
        else path[:-4] + ".diag.txt"
    with open(sidecar, "w") as fh:
        fh.write(f"mesh: {len(verts)} vertices, {len(faces)} triangles\n")
        if diagnostics is not None:
            for line in diagnostics.lines():
                fh.write(line + "\n")
        elif not len(verts):
            fh.write("warning: empty field\n")
    return path
