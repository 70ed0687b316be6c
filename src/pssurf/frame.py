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
test asserts it.  Path independence is measured by running the sweep in
both edge orders and differencing the results.

Each edge steps the state Y, a 4x3 array of rows X, e1, e2 and e3, by an
exact rigid motion: the exponential of the fourth-order Magnus generator
(h/2)(M0 + M1) + (h^2/12)[M1, M0] of the connection blocks M0, M1 at its
two ends (Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 2000), in
closed form.  The flow stays in the Euclidean group, so the frames stay
orthonormal to rounding without re-orthonormalization.

The two sweeps are planned together in rounds, as index work only.  The
"xt" sweep walks the seed's x line as a chain and then walks along t from
every node of that line at once; "tx" is the transpose.  Both signs of
both sweeps share each round, every walk ends at its first masked or
visited node, and no two walks share a node.  What the line passes miss is
attached breadth-first, one level of both sweeps per round, starting from
the visited nodes that have a free neighbour.  Within a sweep the nodes of
a level are ranked by (rank of the parent, move), and a node takes its
lowest-ranked neighbour in the level before as parent, so each node is
stepped from the same neighbour a first-in first-out queue over the sorted
visited nodes would pick.  Then the edges' maps are formed in chunks of
consecutive rounds, and a round of a sweep is one gather, one batched
product and one scatter.  A round's destinations are distinct and its
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
from .digits import _whole_words, write_rows
from .sff.core import SecondFundamentalForm, strip_contains
from .solutions import SolutionGrid

__all__ = [
    "FrameField",
    "SurfaceDiagnostics",
    "integrate_frame",
    "validate_surface",
    "export_mesh",
]

_JET_FIELDS = {"z0": "u", "z1": "u_x", "z2": "u_xx",
               "w1": "u_t", "w2": "u_tt"}
_F_KEYS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2))


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
    ConstraintError.  mask is the admissibility mask of integrate_frame.
    """

    def __init__(self, tr: PssTriple, sff: SecondFundamentalForm,
                 grid: SolutionGrid, eps_deg=None):
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
            d12 = np.abs(f[1, 1] * f[2, 2] - f[2, 1] * f[1, 2])
            finite = np.isfinite(d12)
            for col in (1, 2):
                for w in _connection_rows(f[1, col], f[2, col], f[3, col],
                                          a, b, c):
                    finite &= np.isfinite(w)
        if sff.strip is not None:
            finite &= strip_contains(sff.strip, xx, tt, params)
        self.finite = finite
        if eps_deg is None:
            eps_deg = 0.1 * float(np.where(finite, d12, 0.0).max(initial=0.0))
        self.mask = finite & (d12 > eps_deg)
        # flat views of f11, f12, f21, f22, f31, f32, a, b and c: rows forms
        # w31 and w32 where it needs them, one grid fewer than keeping them
        # along both directions
        self.flat = [g.reshape(-1) for g in (*entries, a, b, c)]

    def rows(self, along_t, q):
        """The five coefficient rows of _connection_rows at the flat node
        indices q: along t where along_t is set and along x elsewhere."""
        g = [flat.take(q) for flat in self.flat]
        return _connection_rows(*(np.where(along_t, g[k + 1], g[k])
                                  for k in (0, 2, 4)), *g[6:])


def _connection_rows(w1, w2, w21, a, b, c):
    """(w1, w2, w21, w31, w32) along one coordinate, from its f1j, f2j and
    f3j and the second fundamental form's a, b and c."""
    return w1, w2, w21, a * w1 + b * w2, b * w1 + c * w2


_TINY = 1e-300


def _edge_maps(c0, c1, h):
    """The rigid motions G, shape (n, 4, 4), that carry the states Y of n
    edges' sources to their destinations as G @ Y.

    c0 and c1 hold the five coefficient rows of _connection_rows at the
    edges' two ends, each of shape (n,), and h the signed steps.  G is the
    exponential of the fourth-order Magnus generator (h/2)(M0 + M1) +
    (h^2/12)[M1, M0], in closed form.  A block M = [[0, v], [0, [a]x]] has
    v = (w1, w2, 0) and a = (-w32, w31, -w21), and so does the generator;
    its exponential is [[1, v J], [0, R]], with R = exp([a]x) by Rodrigues'
    formula and J = sum_k [a]x^k / (k + 1)! the rotation's left Jacobian.
    """
    # v = (x, y, 0) and a = (p, q, r) at the two ends
    (x0, y0, r0, q0, p0), (x1, y1, r1, q1, p1) = c0, c1
    p0, r0, p1, r1 = -p0, -r0, -p1, -r1
    g, k = 0.5 * h, h * h / 12.0
    # the generator's a = g (a0 + a1) + k a1 x a0 and
    # v = g (v0 + v1) + k (v1 x a0 - v0 x a1)
    ax = g * (p0 + p1) + k * (q1 * r0 - r1 * q0)
    ay = g * (q0 + q1) + k * (r1 * p0 - p1 * r0)
    az = g * (r0 + r1) + k * (p1 * q0 - q1 * p0)
    vx = g * (x0 + x1) + k * (y1 * r0 - y0 * r1)
    vy = g * (y0 + y1) + k * (x0 * r1 - x1 * r0)
    vz = k * (x1 * q0 - y1 * p0 - x0 * q1 + y0 * p1)
    t2 = ax * ax + ay * ay + az * az
    th = np.sqrt(t2)
    # S = sin th / th, B = (1 - cos th) / th^2 and C = (th - sin th) / th^3:
    # where they cancel, the error is rounding relative to the terms they
    # multiply, which vanish with th
    ct = np.cos(th)
    S = np.sin(th) / np.maximum(th, _TINY)
    t2 = np.maximum(t2, _TINY)
    B, C = (1.0 - ct) / t2, (1.0 - S) / t2
    G = np.empty((h.size, 4, 4))
    G[:, :, 0] = (1.0, 0.0, 0.0, 0.0)
    # v J = v + B w + C w x a with w = v x a
    wx, wy, wz = vy * az - vz * ay, vz * ax - vx * az, vx * ay - vy * ax
    G[:, 0, 1] = vx + B * wx + C * (wy * az - wz * ay)
    G[:, 0, 2] = vy + B * wy + C * (wz * ax - wx * az)
    G[:, 0, 3] = vz + B * wz + C * (wx * ay - wy * ax)
    # R = cos th + S [a]x + B a a^T
    Bx, By, Bz = B * ax, B * ay, B * az
    G[:, 1, 1], G[:, 2, 2], G[:, 3, 3] = ct + Bx * ax, ct + By * ay, ct + Bz * az
    for (i, j), bij, sk in (((1, 2), Bx * ay, S * az), ((1, 3), Bx * az, -S * ay),
                            ((2, 3), By * az, S * ax)):
        G[:, i, j], G[:, j, i] = bij - sk, bij + sk
    return G


def _orthonormality_defect(Y):
    """The largest entry of |E E^T - I| over the frames E of a stack
    (n, 4, 3) of states; NaN if any frame has a NaN entry."""
    e = np.ascontiguousarray(Y.reshape(-1, 12)[:, 3:].T)
    tops = [np.abs((e[3 * i:3 * i + 3] * e[3 * j:3 * j + 3]).sum(0)
                   - (i == j)).max()
            for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
    # numpy's max, unlike Python's, keeps a NaN
    return float(np.max(tops))


# neighbour offsets in the order the breadth-first attach tries them: a
# move is an index into this table
_MOVES = np.array(((0, 1), (0, -1), (1, 0), (-1, 0)))
_ALONG_T = _MOVES[:, 1] != 0
# edges whose maps are formed together: half a megabyte of maps
_CHUNK = 4096


class _Sweeps:
    """The "xt" and "tx" sweeps, planned together in rounds, then run.

    Sweep 0 ("xt") walks the seed's x line first and then along t from
    every node of it; sweep 1 ("tx") is the transpose.  Planning is index
    work only: a round is one call of step over a batch that lists sweep
    0's nodes first, and it records the sources and moves.  A node of
    sweep s is addressed by its flat index q in the grid and p in the
    padded free array.  run then steps the states along the plan.
    """

    def __init__(self, mask, seed_index):
        nx, nt = mask.shape
        self.mask = mask
        self.seed_index = seed_index
        # admissible and not yet reached, per sweep, padded by one node on
        # every side
        self.free = np.zeros((2, nx + 2, nt + 2), dtype=bool)
        self.free[:, 1:-1, 1:-1] = mask
        # per move: flat offsets in the grid and in free
        self.dq = _MOVES @ (nt, 1)
        self.dp = _MOVES @ (nt + 2, 1)
        # per round: the number of sweep 0's nodes, the sources q and moves m
        self.plan = []
        i, j = seed_index
        self.free[:, i + 1, j + 1] = False

    def index(self, s, i, j):
        """Flat indices (q, p) of the nodes (i, j) of sweeps s."""
        nx, nt = self.mask.shape
        return i * nt + j, (s * (nx + 2) + i + 1) * (nt + 2) + j + 1

    def visited(self):
        """(2, nx, nt): the nodes each sweep has reached."""
        return self.mask & ~self.free[:, 1:-1, 1:-1]

    def step(self, s, q, p, m):
        """Plan a round: the nodes (q, p) of sweeps s step by the moves m;
        returns the destinations' (q, p)."""
        # compact: int32 holds any grid whose states fit in memory
        self.plan.append((s.size - np.count_nonzero(s), q.astype(np.int32),
                          m.astype(np.int8)))
        q2, p2 = q + self.dq[m], p + self.dp[m]
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

    def run(self, coeffs, grid, seed):
        """Step both sweeps' states along the plan from the seed's state.

        Returns their (nx, nt, 4, 3) arrays, NaN where a sweep did not
        reach, and the largest orthonormality defect of a stepped frame.
        Each sweep keeps its own array, since the returned field holds
        views of one of them.
        """
        nx, nt = self.mask.shape
        h = _MOVES @ (grid.hx, grid.ht)
        Ys = tuple(np.full((nx, nt, 4, 3), np.nan) for _ in range(2))
        defects = []
        for s, Y in enumerate(Ys):
            Y[self.seed_index] = seed
            # sweep 0's nodes come first in each round
            parts = ((q[:k], m[:k]) if s == 0 else (q[k:], m[k:])
                     for k, q, m in self.plan)
            defects.append(_step_rounds(
                Y.reshape(-1, 4, 3), [r for r in parts if r[0].size],
                coeffs, self.dq, h))
        return Ys, float(np.max(defects))


def _step_rounds(Y, rounds, coeffs, dq, h):
    """Step the flat states Y (N, 4, 3) along rounds [(q, m), ...] of
    sources and moves, in order; returns the largest orthonormality defect
    of the frames stepped.

    The maps are formed for chunks of consecutive rounds of about _CHUNK
    edges; a round is then one gather, one batched product and one scatter.
    """
    if not rounds:
        return 0.0
    sizes = np.array([q.size for q, _ in rounds])
    starts = np.cumsum(sizes) - sizes
    chunks = np.split(np.arange(len(rounds)),
                      np.flatnonzero(np.diff(starts // _CHUNK)) + 1)
    defects = []
    for chunk in chunks:
        q = np.concatenate([rounds[r][0] for r in chunk])
        m = np.concatenate([rounds[r][1] for r in chunk])
        t, d, n = _ALONG_T[m], q + dq[m], q.size
        # both ends' coefficients in one gather per grid
        c = coeffs.rows(np.concatenate([t, t]), np.concatenate([q, d]))
        G = _edge_maps([w[:n] for w in c], [w[n:] for w in c], h[m])
        ends = np.cumsum(sizes[chunk]).tolist()
        for a, b in zip([0] + ends, ends):
            Y[d[a:b]] = G[a:b] @ Y.take(q[a:b], axis=0)
        defects.append(_orthonormality_defect(Y.take(d, axis=0)))
    return float(np.max(defects))


def _central_node(mask):
    """The admissible node nearest the grid's centre."""
    nx, nt = mask.shape
    ii, jj = np.nonzero(mask)
    dist = (ii - (nx - 1) / 2.0) ** 2 + (jj - (nt - 1) / 2.0) ** 2
    # nonzero lists the nodes in (i, j) order, so the first nearest node
    # breaks ties by (i, j)
    k = int(np.argmin(dist))
    return int(ii[k]), int(jj[k])


def _path_residual(Y1, Y2, both):
    """The largest entry of |Y1 - Y2| per node where both is set, NaN
    elsewhere: shape both.shape.

    Only the nodes both sweeps reached are gathered, in chunks of 2,048,
    so that the temporaries stay small; the largest of the 12 entries is
    taken by halving, since a max over the short trailing axis is slower.
    """
    residual = np.full(both.size, np.nan)
    Y1, Y2 = Y1.reshape(-1, 12), Y2.reshape(-1, 12)
    nodes = np.flatnonzero(both)
    for lo in range(0, nodes.size, 2048):
        q = nodes[lo:lo + 2048]
        d = Y1.take(q, axis=0)
        d -= Y2.take(q, axis=0)
        np.abs(d, out=d)
        d = np.maximum(d[:, :6], d[:, 6:])
        d = np.maximum(d[:, :3], d[:, 3:])
        residual[q] = np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2])
    return residual.reshape(both.shape)


def integrate_frame(tr: PssTriple, sff: SecondFundamentalForm,
                    grid: SolutionGrid, seed=None,
                    seed_index=None, eps_deg=None) -> FrameField:
    """Integrate the frame over the admissible part of the grid.

    The admissibility mask keeps nodes with |d12| above eps_deg (default
    0.1 * max|d12| over the grid) that also lie inside the form's strip;
    only the connected component of the seed node is filled.  seed is its
    state, rows X, e1, e2, e3 (default: the identity frame at the origin),
    whose frame must be orthonormal.  The path-independence residual per
    node is the difference between the two sweep orders.
    """
    seed = np.asarray(np.eye(4, 3, -1) if seed is None else seed, dtype=float)
    if (seed.shape != (4, 3) or not np.isfinite(seed).all()
            or not _orthonormality_defect(seed) <= 1e-8):
        raise ValueError("seed frame must be orthonormal")
    coeffs = _Coefficients(tr, sff, grid, eps_deg)
    mask = coeffs.mask

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
        seed_index = _central_node(mask)
    else:
        seed_index = (int(seed_index[0]), int(seed_index[1]))
        # a negative index would wrap around in mask but not in the sweeps
        if not (0 <= seed_index[0] < nx and 0 <= seed_index[1] < nt):
            raise ConstraintError("seed", "seed node is outside the grid")
        if not mask[seed_index]:
            raise ConstraintError("seed", "seed node is outside the mask")

    sweeps = _Sweeps(mask, seed_index)
    sweeps.lines(seed_index)
    sweeps.attach()
    (Y1, Y2), drift = sweeps.run(coeffs, grid, seed)
    # the field keeps vis1: a view would keep the (2, nx, nt) pair alive
    vis1, vis2 = (v.copy() for v in sweeps.visited())
    f = coeffs.f
    del coeffs, sweeps
    residual = _path_residual(Y1, Y2, vis1 & vis2)

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


def _triangles(valid):
    """The mesh: both triangles of each quad with four valid corners, quads
    in (i, j) order, as the flat node indices of their corners, shape
    (3, triangles)."""
    nt = valid.shape[1]
    quad = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    qi, qj = np.nonzero(quad)
    offsets = np.array([[di * nt + dj for di, dj in tri] for tri in _SPLIT])
    return ((qi * nt + qj)[:, None, None] + offsets).transpose(2, 0, 1) \
        .reshape(3, -1)


def _coordinates(X):
    """The positions X (nx, nt, 3) as a contiguous (3, nodes) array: node
    gathers from it are several times faster than from the state arrays,
    whose nodes are 96 bytes apart."""
    return np.ascontiguousarray(X.reshape(-1, 3).T)


def _angle_defect_curvature(X, valid):
    """Discrete K per interior vertex: angle defect over a third of the
    incident triangle area, on the mesh of _triangles.

    Each triangle's three angles and its area are taken once and summed
    into its corners; a degenerate triangle adds no area, and no angle at
    a corner with a zero-length edge.
    """
    nx, nt, _ = X.shape
    tri = _triangles(valid)
    P = _coordinates(X)
    angle = np.empty(tri.shape)
    area2 = np.empty(tri.shape[1])
    # in chunks of 16,384 triangles, so that one chunk's corners and edges
    # (about 2 MB) are alive at a time
    for lo in range(0, tri.shape[1], 16384):
        span = slice(lo, lo + 16384)
        corner = [np.take(P, c, axis=1) for c in tri[:, span]]
        # edge k runs from corner k to corner k + 1
        edge = [corner[(k + 1) % 3] - corner[k] for k in range(3)]
        a2 = np.sqrt((np.cross(edge[0], edge[1], axis=0) ** 2).sum(0))
        area2[span] = a2
        # the angle at corner k lies between edge k and edge k - 1 reversed;
        # adding 0.0 turns a -0.0 cosine, which arctan2 reads as pi, into 0
        for k in range(3):
            np.arctan2(a2, 0.0 - (edge[k] * edge[k - 1]).sum(0),
                       out=angle[k, span])
    n = nx * nt
    angle_sum = np.bincount(tri.reshape(-1), angle.reshape(-1), n)
    area_sum = sum(np.bincount(c, area2, n) for c in tri) / 2.0
    node = np.flatnonzero(_interior_full(valid).reshape(-1) & (area_sum > 0))
    K = np.full(n, np.nan)
    K[node] = (2.0 * math.pi - angle_sum[node]) / (area_sum[node] / 3.0)
    return K.reshape(nx, nt)


def _mean_max(v):
    """Mean and max of an array; NaN for an empty one."""
    return (float(v.mean()), float(v.max())) if v.size else (math.nan,) * 2


def validate_surface(field: FrameField) -> SurfaceDiagnostics:
    """First-fundamental-form, curvature and normal checks on the field,
    against the table entries it was integrated with.

    The metric and normal checks use central differences at the valid
    nodes whose four neighbours are valid.
    """
    grid = field.grid
    f = field.f
    valid = field.valid
    nt = valid.shape[1]
    K = _angle_defect_curvature(field.X, valid)
    k_err = np.abs(K[np.isfinite(K)] + 1.0)

    inner = np.zeros_like(valid)
    inner[1:-1, 1:-1] = (valid[1:-1, 1:-1]
                         & valid[:-2, 1:-1] & valid[2:, 1:-1]
                         & valid[1:-1, :-2] & valid[1:-1, 2:])
    q = np.flatnonzero(inner)
    P = _coordinates(field.X)
    Xx = (np.take(P, q + nt, axis=1) - np.take(P, q - nt, axis=1)) / (2.0 * grid.hx)
    Xt = (np.take(P, q + 1, axis=1) - np.take(P, q - 1, axis=1)) / (2.0 * grid.ht)
    del P
    f11, f12, f21, f22 = (f[k].reshape(-1)[q]
                          for k in ((1, 1), (1, 2), (2, 1), (2, 2)))
    metric = np.concatenate([
        np.abs(fd - ref) / (1.0 + np.abs(ref)) for fd, ref in (
            ((Xx * Xx).sum(0), f11 ** 2 + f21 ** 2),
            ((Xx * Xt).sum(0), f11 * f12 + f21 * f22),
            ((Xt * Xt).sum(0), f12 ** 2 + f22 ** 2))])
    # Xx x Xt = d12 * e3, so the unit cross carries the sign of d12
    cross = np.cross(Xx, Xt, axis=0) * np.sign(f11 * f22 - f21 * f12)
    norms = np.sqrt((cross * cross).sum(0))
    ok = norms > 0
    e3 = field.frames.reshape(-1, 3, 3)[q[ok], 2]
    normal = np.abs(cross[:, ok] / norms[ok] - e3.T).max(axis=0)

    k_mean, k_max = _mean_max(k_err)
    metric_mean, metric_max = _mean_max(metric)
    res = field.path_residual[np.isfinite(field.path_residual)]
    return SurfaceDiagnostics(
        mean_abs_k_plus_1=k_mean,
        max_abs_k_plus_1=k_max,
        metric_max_rel=metric_max,
        metric_mean_rel=metric_mean,
        normal_max_err=_mean_max(normal)[1],
        path_residual_max=_mean_max(res)[1],
        drift_max=field.drift_max,
        mask_fraction=field.mask_fraction,
        n_valid=field.count_valid())


# ------------------------------------------------------------ export
#
# The OBJ text is built a block of rows at a time from digit tables
# (pssurf.digits): vertex coordinates spelled as '%.12g' spells them, and
# face indices as '%d'.

# rows per block: a block's float temporaries stay below malloc's 128 KB
# mmap threshold, so they come from the heap and fault in no fresh pages
_OBJ_ROWS = 4096
# the first word of a coordinate: "v " before x and " " before y and z
_COORD_LEAD = np.array([ord("v") | ord(" ") << 8, ord(" "), ord(" ")], np.uint32)


def _index_columns(count):
    """The numbers 0..count spelled as "f %d", " %d" and " %d\n" with NUL
    pads, the three columns of a face line: shape (3, count + 1, words)
    uint64.  The digits are right-aligned one byte before the end of the
    words, which leaves room for "f " before them and "\n" after."""
    digits = len(str(count))
    size = 8 * ((digits + 10) // 8)
    spelled = np.stack(_whole_words(np.arange(count + 1), (digits + 3) // 4),
                       axis=1).view(np.uint8)
    columns = np.zeros((3, count + 1, size), np.uint8)
    columns[:, :, size - 1 - digits:-1] = spelled[:, -digits:]
    columns[:, :, 0] = ord(" ")
    columns[0, :, 1] = ord(" ")
    columns[0, :, 0] = ord("f")
    columns[2, :, -1] = ord("\n")
    return columns.view("<u8")


def _write_vertices(fh, verts):
    """Write 'v %.12g %.12g %.12g' lines for the rows of verts (n, 3)."""
    write_rows(fh, verts.T, 12, _COORD_LEAD, _OBJ_ROWS)


def _write_faces(fh, faces):
    """Write 'f %d %d %d' lines for the columns of faces (3, n)."""
    columns = _index_columns(int(faces.max(initial=0)))
    words = columns.shape[2]
    for k in range(0, faces.shape[1], _OBJ_ROWS):
        block = faces[:, k:k + _OBJ_ROWS]
        rows = np.empty((block.shape[1], 3, words), np.uint64)
        for j in range(3):
            rows[:, j] = columns[j].take(block[j], axis=0)
        fh.write(rows.tobytes().translate(None, b"\0"))


def export_mesh(field: FrameField, path, diagnostics: SurfaceDiagnostics = None):
    """Write the valid sub-grid as an OBJ mesh plus a sidecar report.

    Quads with four valid corners are split into two triangles along the
    (+1, +1) diagonal.  Vertex lines spell X with '%.12g' and face lines
    the 1-based indices with '%d', byte for byte, but are built from digit
    tables a block of rows at a time (pssurf.digits, _index_columns).
    Output is deterministic for a fixed field.  The sidecar lands next to
    the mesh with extension .diag.txt.
    """
    path = str(path)
    valid = field.valid
    index = np.cumsum(valid).reshape(valid.shape)  # 1-based on valid nodes
    verts = field.X[valid]
    faces = index.reshape(-1)[_triangles(valid)]

    with open(path, "wb") as fh:
        fh.write(b"# pseudo-spherical immersion mesh\n")
        if not len(verts):
            fh.write(b"# warning: empty field, no valid nodes\n")
        fh.write(b"# vertices: %d faces: %d\n" % (len(verts), faces.shape[1]))
        _write_vertices(fh, verts)
        _write_faces(fh, faces)

    sidecar = path + ".diag.txt" if not path.endswith(".obj") \
        else path[:-4] + ".diag.txt"
    with open(sidecar, "w") as fh:
        fh.write(f"mesh: {len(verts)} vertices, {faces.shape[1]} triangles\n")
        if diagnostics is not None:
            for line in diagnostics.lines():
                fh.write(line + "\n")
        elif not len(verts):
            fh.write("warning: empty field\n")
    return path
