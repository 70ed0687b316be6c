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

The two sweeps advance together in rounds; a round is one kernel call
that steps a batch of nodes as one stack of 4x4 systems.  The "xt" sweep
walks the seed's x line as a chain and then walks along t from every node
of that line at once; "tx" is the transpose.  Both signs of both sweeps
share each round, every walk ends at its first masked or visited node,
and no two walks share a node.  What the line passes miss is attached
breadth-first, one level of both sweeps per round, starting from the
visited nodes that have a free neighbour.  Within a sweep the nodes of a
level are ranked by (rank of the parent, move), and a node takes its
lowest-ranked neighbour in the level before as parent, so each node is
stepped from the same neighbour a first-in first-out queue over the sorted
visited nodes would pick.  A round's destinations are distinct and its
sources were filled in earlier rounds, so no node's arithmetic depends on
the batch it is stepped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import simplify
from .expr.numeric import Tape
from .forms import PssTriple
from .catalog import ConstraintError
from .sff.core import SecondFundamentalForm, strip_contains
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
_F_KEYS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2))


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
    f: dict                  # (i, j) -> f_ij over the grid; may share grid memory

    @property
    def mask_fraction(self):
        return float(self.mask.mean()) if self.mask.size else 0.0

    def count_valid(self):
        return int(self.valid.sum())


class _Coefficients:
    """Connection-form coefficient grids for one table and form pair.

    One tape evaluates the six f_ij and a, b, c over the grid; a value
    the tape names and neither the parameters nor the grid supply raises
    ConstraintError.
    """

    def __init__(self, tr: PssTriple, sff: SecondFundamentalForm,
                 grid: SolutionGrid):
        params = {**tr.params, **sff.params}
        exprs = [tr.f(i, j) for i, j in _F_KEYS] + list(sff.as_tuple())
        tape = Tape(tuple(map(simplify, exprs)))
        xx, tt = grid.mesh()
        env = {**params, "x": xx, "t": tt}
        env.update((jet, grid[name]) for jet, name in _JET_FIELDS.items())
        missing = sorted(set(tape.names) - env.keys())
        if missing:
            raise ConstraintError("params", "missing parameters: "
                                  + ", ".join(missing))
        shape = (grid.nx, grid.nt)
        # degenerate nodes produce inf/nan here; they are masked below
        with np.errstate(all="ignore"):
            *entries, a, b, c = (np.broadcast_to(np.asarray(v, dtype=float),
                                                 shape) for v in tape.run(env))
            self.f = f = dict(zip(_F_KEYS, entries))
            self.d12 = _d12(f)
            self.wx = _connection_rows(f, a, b, c, 1)
            self.wt = _connection_rows(f, a, b, c, 2)
        finite = np.isfinite(self.d12)
        for w in self.wx + self.wt:
            finite &= np.isfinite(w)
        if sff.strip is not None:
            finite &= strip_contains(sff.strip, xx, tt, params)
        self.finite = finite
        # flat views of wx and wt, gathered by flat node index
        self.flat = tuple([w.reshape(-1) for w in rows]
                          for rows in (self.wx, self.wt))

    def matrix(self, direction, i, j):
        """Connection blocks at the nodes (i, j); i and j may be index arrays."""
        rows = self.wx if direction == "x" else self.wt
        return _blocks(np.stack([w[i, j] for w in rows], -1))

    def blocks(self, along_t, q):
        """Connection blocks at the flat node indices q, shape (n, 4, 4):
        along t where along_t is set and along x elsewhere."""
        fx, ft = self.flat
        C = np.where(along_t, np.array([w[q] for w in ft]),
                     np.array([w[q] for w in fx]))
        return _blocks(C.T)


def _d12(f):
    with np.errstate(all="ignore"):
        return f[1, 1] * f[2, 2] - f[2, 1] * f[1, 2]


def _connection_rows(f, a, b, c, col):
    """(w1, w2, w21, w31, w32) along one coordinate: col 1 is x, col 2 is t."""
    w1, w2 = f[1, col], f[2, col]
    return w1, w2, f[3, col], a * w1 + b * w2, b * w1 + c * w2


def _signs():
    """The flattened 4x4 connection block as a linear map of the five
    coefficients: w1 and w2 feed X, and the frame rows form a rotation
    generator."""
    S = np.zeros((5, 4, 4))
    for k, (r, c) in enumerate(((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))):
        S[k, r, c] = 1.0
        if r:
            S[k, c, r] = -1.0
    return S.reshape(5, 16)


_SIGNS = _signs()


def _blocks(C):
    """The 4x4 connection blocks of coefficient rows C, shape (..., 5)."""
    return (C @ _SIGNS).reshape(C.shape[:-1] + (4, 4))


def _rk4_edge(Y, M0, M1, h):
    """One classical step of Y' = M(s) Y along an edge, midpoint averaged.

    Y is a stack (n, 4, 3) of states, M0, M1 the matching (n, 4, 4) blocks
    at the edge's two ends and h the signed steps, shape (n, 1, 1).
    """
    Mm = 0.5 * (M0 + M1)
    k1 = M0 @ Y
    k2 = Mm @ (Y + 0.5 * h * k1)
    k3 = Mm @ (Y + 0.5 * h * k2)
    k4 = M1 @ (Y + h * k3)
    return Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# (a x b)[c] = a[_C1[c]] * b[_C2[c]] - a[_C2[c]] * b[_C1[c]]
_C1, _C2 = [1, 2, 0], [2, 0, 1]


def _renormalize(Y):
    """Gram-Schmidt on the frame rows of a stack (n, 4, 3), in place; e3 is
    rebuilt as e1 x e2.  Returns the stack and the largest drift in it."""
    r1, r2, r3 = Y[:, 1], Y[:, 2], Y[:, 3]
    R = Y[:, 1:3]
    n12 = np.sqrt((R * R).sum(-1))[..., None]
    e1 = r1 / n12[:, 0]
    e2 = r2 - (r2 * e1).sum(-1, keepdims=True) * e1
    e2 /= np.sqrt((e2 * e2).sum(-1, keepdims=True))
    # e1 x r2/|r2| for the drift and e1 x e2 for the new e3, in one product
    b = np.array([r2 / n12[:, 1], e2])
    e3 = e1[:, _C1] * b[..., _C2] - e1[:, _C2] * b[..., _C1]
    dev = np.concatenate([n12[..., 0] - 1.0, (r1 * r2).sum(-1, keepdims=True),
                          r3 - e3[0]], -1)
    drift = float(np.abs(dev).max())
    Y[:, 1], Y[:, 2], Y[:, 3] = e1, e2, e3[1]
    return Y, drift


# neighbour offsets in the order the breadth-first attach tries them: a
# move is an index into this table
_MOVES = np.array(((0, 1), (0, -1), (1, 0), (-1, 0)))
_ALONG_T = _MOVES[:, 1] != 0


class _Sweeps:
    """The "xt" and "tx" sweeps, stepped together in rounds.

    Sweep 0 ("xt") walks the seed's x line first and then along t from
    every node of it; sweep 1 ("tx") is the transpose.  Each sweep keeps
    its states in its own (nx, nt, 4, 3) array, since the returned field
    holds views of one of them.  A node of sweep s is addressed by its
    flat index q in the grid and p in the padded free array.  A round is
    one call of step over a batch that lists sweep 0's nodes first.
    """

    def __init__(self, coeffs, grid, mask, seed_index, seed_state):
        nx, nt = mask.shape
        self.coeffs = coeffs
        self.mask = mask
        self.Y = tuple(np.full((nx, nt, 4, 3), np.nan) for _ in range(2))
        # admissible and not yet reached, per sweep, padded by one node on
        # every side
        self.free = np.zeros((2, nx + 2, nt + 2), dtype=bool)
        self.free[:, 1:-1, 1:-1] = mask
        # per move: flat offsets in the grid and in free, and signed step
        self.dq = _MOVES @ (nt, 1)
        self.dp = _MOVES @ (nt + 2, 1)
        self.h = _MOVES[:, 0] * grid.hx + _MOVES[:, 1] * grid.ht
        self.drift = 0.0
        i, j = seed_index
        for Y in self.Y:
            Y[i, j] = seed_state.matrix()
        self.free[:, i + 1, j + 1] = False

    def index(self, s, i, j):
        """Flat indices (q, p) of the nodes (i, j) of sweeps s."""
        nx, nt = self.mask.shape
        return i * nt + j, (s * (nx + 2) + i + 1) * (nt + 2) + j + 1

    def visited(self):
        """(2, nx, nt): the nodes each sweep has reached."""
        return self.mask & ~self.free[:, 1:-1, 1:-1]

    def step(self, s, q, p, m):
        """Step the states at the nodes (q, p) of sweeps s by the moves m;
        returns the destinations' (q, p)."""
        k = s.size - np.count_nonzero(s)
        q2, p2 = q + self.dq[m], p + self.dp[m]
        t = _ALONG_T[m]
        M0, M1 = self.coeffs.blocks(t, q), self.coeffs.blocks(t, q2)
        Y0, Y1 = (Y.reshape(-1, 4, 3) for Y in self.Y)
        Y = np.concatenate([Y0[q[:k]], Y1[q[k:]]])
        Y, drift = _renormalize(_rk4_edge(Y, M0, M1, self.h[m][:, None, None]))
        self.drift = max(self.drift, drift)
        Y0[q2[:k]], Y1[q2[k:]] = Y[:k], Y[k:]
        self.free.reshape(-1)[p2] = False
        return q2, p2

    def walk(self, s, i, j, m):
        """Walk from every node (i, j) of sweeps s by its move m, one round
        per offset; a walk ends at the grid edge or at its first masked or
        visited node."""
        q, p = self.index(s, i, j)
        free = self.free.reshape(-1)
        while True:
            go = free[p + self.dp[m]]
            s, q, p, m = s[go], q[go], p[go], m[go]
            if not s.size:
                return
            q, p = self.step(s, q, p, m)

    def lines(self, seed_index):
        """The line walks from the seed, then the cross walks from every
        node of each line, both signs of both sweeps in every round."""
        i0, j0 = seed_index
        # sweep 0 walks x (moves 2, 3) and sweep 1 walks t (moves 0, 1),
        # then each walks across its line
        s = np.array([0, 0, 1, 1])
        self.walk(s, np.full(4, i0), np.full(4, j0), np.array([2, 3, 0, 1]))
        vis = self.visited()
        a, b = np.flatnonzero(vis[0, :, j0]), np.flatnonzero(vis[1, i0, :])
        sizes = (a.size, a.size, b.size, b.size)
        self.walk(np.repeat((0, 0, 1, 1), sizes),
                  np.concatenate([a, a, np.full(2 * b.size, i0)]),
                  np.concatenate([np.full(2 * a.size, j0), b, b]),
                  np.repeat((0, 1, 2, 3), sizes))

    def attach(self):
        """Breadth-first attachment of the reachable nodes not yet visited.

        Stepped one level of both sweeps per round.  Level 0 is every
        visited node with a free neighbour, in lexicographic (sweep, i, j)
        order; a new node's parent is its lowest-ranked neighbour in the
        level before, and the new level is ranked by (sweep, parent rank,
        move).  Within each sweep that is the parent and the order a
        first-in first-out queue seeded with the sorted visited nodes gives:
        a visited node without a free neighbour claims nothing, and dropping
        it keeps the relative rank of the others.
        """
        F = self.free
        edge = F[:, 2:, 1:-1] | F[:, :-2, 1:-1] | F[:, 1:-1, 2:] | F[:, 1:-1, :-2]
        s, i, j = np.nonzero(self.visited() & edge)
        q, p = self.index(s, i, j)
        free = F.reshape(-1)
        while s.size:
            # claims in (sweep, parent rank, move) order; each node keeps
            # its first
            nb = (p[:, None] + self.dp).ravel()
            claim = np.flatnonzero(free[nb])
            _, first = np.unique(nb[claim], return_index=True)
            parent, m = np.divmod(claim[np.sort(first)], len(_MOVES))
            s = s[parent]
            if s.size:
                q, p = self.step(s, q[parent], p[parent], m)


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
    if not mask.any():
        return FrameField(
            X=np.full((nx, nt, 3), np.nan),
            frames=np.full((nx, nt, 3, 3), np.nan),
            valid=np.zeros((nx, nt), dtype=bool),
            path_residual=np.full((nx, nt), np.nan),
            drift_max=0.0, mask=mask, seed_index=(-1, -1), grid=grid,
            f=coeffs.f)

    if seed_index is None:
        ii, jj = np.nonzero(mask)
        mid = np.array([(nx - 1) / 2.0, (nt - 1) / 2.0])
        dist = (ii - mid[0]) ** 2 + (jj - mid[1]) ** 2
        # nonzero lists the nodes in (i, j) order, so the first nearest
        # node breaks ties by (i, j)
        k = int(np.argmin(dist))
        seed_index = (int(ii[k]), int(jj[k]))
    else:
        seed_index = (int(seed_index[0]), int(seed_index[1]))
        # a negative index would wrap around in mask but not in the sweeps
        if not (0 <= seed_index[0] < nx and 0 <= seed_index[1] < nt):
            raise ConstraintError("seed", "seed node is outside the grid")
        if not mask[seed_index]:
            raise ConstraintError("seed", "seed node is outside the mask")

    sweeps = _Sweeps(coeffs, grid, mask, seed_index, seed)
    sweeps.lines(seed_index)
    sweeps.attach()
    Y1, Y2 = sweeps.Y
    # the field keeps vis1: a view would keep the (2, nx, nt) pair alive
    vis1, vis2 = (v.copy() for v in sweeps.visited())
    drift = sweeps.drift
    f = coeffs.f
    del coeffs, sweeps
    # in place and without copies of Y1: full-grid temporaries raise the
    # memory peak of every run
    diff = np.subtract(Y1, Y2, out=Y2).reshape(nx, nt, 12)
    np.abs(diff, out=diff)
    # the largest of the 12 entries one entry at a time: a max over the
    # short trailing axis is about four times slower on the NaN-padded grid
    top = diff[..., 0].copy()
    for k in range(1, 12):
        np.maximum(top, diff[..., k], out=top)
    residual = np.where(vis1 & vis2, top, np.nan)

    return FrameField(
        X=Y1[:, :, 0, :],
        frames=Y1[:, :, 1:, :],
        valid=vis1,
        path_residual=residual,
        drift_max=drift,
        mask=mask,
        seed_index=seed_index,
        grid=grid,
        f=f)


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


def validate_surface(field: FrameField) -> SurfaceDiagnostics:
    """First-fundamental-form, curvature and normal checks on the field,
    against the table entries it was integrated with."""
    grid = field.grid
    f = field.f
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
        _write_rows(fh, "v %.12g %.12g %.12g\n", verts.T)
        _write_rows(fh, "f %d %d %d\n", faces.T)

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
