"""Per-node loop versions of the frame sweep, curvature and OBJ export.

These are the original one-node-at-a-time implementations that
``pssurf.frame`` replaced with array code.  They are kept here as reference
oracles: the equivalence tests in ``test_frame_oracle.py`` run both and
compare them at stated tolerances.  The sweep takes its edge step as an
argument: ``magnus_step`` is the rule ``pssurf.frame`` applies, with the
exponential taken by ``scipy.linalg.expm``, and ``rk4_step`` the classical
step with Gram-Schmidt renormalization that it replaced.
"""

import math
from collections import deque

import numpy as np
from scipy.linalg import expm


def admissible_mask(coeffs, eps_deg=None):
    """Finite nodes inside the strip with |d12| above eps_deg (default a
    tenth of the largest |d12|)."""
    f = coeffs.f
    with np.errstate(all="ignore"):
        d12 = f[1, 1] * f[2, 2] - f[2, 1] * f[1, 2]
    finite_d12 = np.where(coeffs.finite, np.abs(d12), 0.0)
    if eps_deg is None:
        top = float(finite_d12.max()) if finite_d12.size else 0.0
        eps_deg = 0.1 * top
    return coeffs.finite & (np.abs(d12) > eps_deg)


def blocks(c):
    """The 4x4 connection blocks of the coefficient rows c = (w1, w2, w21,
    w31, w32), each of one shape: w1 and w2 feed X, and the frame rows form
    a rotation generator."""
    w1, w2, w21, w31, w32 = (np.asarray(w, dtype=float) for w in c)
    z = np.zeros_like(w1)
    rows = ((z, w1, w2, z), (z, z, w21, w31), (z, -w21, z, w32),
            (z, -w31, -w32, z))
    return np.stack([np.stack(r, -1) for r in rows], -2)


def connection_block(coeffs, direction, i, j):
    """The block at node (i, j) along "x" or "t"."""
    q = i * coeffs.mask.shape[1] + j
    return blocks(coeffs.rows(direction == "t", q))


def _rk4_edge(Y, M0, M1, h):
    """One classical step of Y' = M(s) Y along an edge, midpoint averaged."""
    Mm = 0.5 * (M0 + M1)
    k1 = M0 @ Y
    k2 = Mm @ (Y + 0.5 * h * k1)
    k3 = Mm @ (Y + 0.5 * h * k2)
    k4 = M1 @ (Y + h * k3)
    return Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(Y, M0, M1, h):
    """The replaced rule: one classical step, then renormalization."""
    return _renormalize(_rk4_edge(Y, M0, M1, h))[0]


def magnus_step(Y, M0, M1, h):
    """exp of the fourth-order Magnus generator of the edge, applied to Y."""
    return expm(0.5 * h * (M0 + M1) + h * h / 12.0 * (M1 @ M0 - M0 @ M1)) @ Y


def orthonormality_defect(Y):
    """The largest entry of |E E^T - I| for the frame rows E of a state."""
    return float(np.abs(Y[1:] @ Y[1:].T - np.eye(3)).max())


def _renormalize(Y):
    """Gram-Schmidt on the frame rows; e3 is rebuilt as e1 x e2."""
    e1 = Y[1] / np.linalg.norm(Y[1])
    e2 = Y[2] - (Y[2] @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    drift = max(abs(np.linalg.norm(Y[1]) - 1.0),
                abs(np.linalg.norm(Y[2]) - 1.0),
                abs(float(Y[1] @ Y[2])),
                float(np.abs(Y[3] - np.cross(Y[1] / np.linalg.norm(Y[1]),
                                             Y[2] / np.linalg.norm(Y[2]))).max()))
    out = Y.copy()
    out[1], out[2], out[3] = e1, e2, e3
    return out, drift


def _sweep(coeffs, grid, mask, seed_index, seed_state, order, edge_step):
    """Fill the component of seed_index from the 4x3 state seed_state (rows
    X, e1, e2, e3), stepping edges in the given order.

    order "xt" walks the seed row first and then columns; "tx" is the
    transpose.  Remaining reachable nodes are attached breadth-first, so an
    irregular component is still covered.  edge_step(Y, M0, M1, h) steps a
    state along one edge.  Returns (Y, visited, drift), where drift is the
    largest orthonormality defect of a stepped frame.
    """
    nx, nt = mask.shape
    Y = np.full((nx, nt, 4, 3), np.nan)
    visited = np.zeros_like(mask, dtype=bool)
    i0, j0 = seed_index
    Y[i0, j0] = seed_state
    visited[i0, j0] = True
    drift = 0.0

    def step(src, dst):
        nonlocal drift
        (i1, j1), (i2, j2) = src, dst
        if i1 != i2:
            h = (i2 - i1) * grid.hx
            M0 = connection_block(coeffs, "x", i1, j1)
            M1 = connection_block(coeffs, "x", i2, j2)
        else:
            h = (j2 - j1) * grid.ht
            M0 = connection_block(coeffs, "t", i1, j1)
            M1 = connection_block(coeffs, "t", i2, j2)
        nxt = edge_step(Y[i1, j1], M0, M1, h)
        drift = max(drift, orthonormality_defect(nxt))
        Y[i2, j2] = nxt
        visited[i2, j2] = True

    def run(start, di, dj):
        i, j = start
        while True:
            i2, j2 = i + di, j + dj
            if not (0 <= i2 < nx and 0 <= j2 < nt) or not mask[i2, j2] \
                    or visited[i2, j2]:
                return
            step((i, j), (i2, j2))
            i, j = i2, j2

    primary = ((0, 1), (0, -1)) if order == "tx" else ((1, 0), (-1, 0))
    cross = ((1, 0), (-1, 0)) if order == "tx" else ((0, 1), (0, -1))
    for d in primary:
        run(seed_index, *d)
    line = ([(i0, j) for j in range(nt) if visited[i0, j]] if order == "tx"
            else [(i, j0) for i in range(nx) if visited[i, j0]])
    for node in line:
        for d in cross:
            run(node, *d)

    # breadth-first attachment of whatever the two passes missed
    queue = deque(sorted(zip(*np.nonzero(visited))))
    while queue:
        i, j = queue.popleft()
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            i2, j2 = i + di, j + dj
            if 0 <= i2 < nx and 0 <= j2 < nt and mask[i2, j2] \
                    and not visited[i2, j2]:
                step((i, j), (i2, j2))
                queue.append((i2, j2))
    return Y, visited, drift


def sweep_pair(coeffs, grid, mask, seed_index, seed_state,
               edge_step=magnus_step):
    """Both sweep orders and the path residual, as integrate_frame forms them.

    Returns (X, frames, valid, path_residual, drift_max).
    """
    Y1, vis1, drift1 = _sweep(coeffs, grid, mask, seed_index, seed_state, "xt",
                              edge_step)
    Y2, vis2, drift2 = _sweep(coeffs, grid, mask, seed_index, seed_state, "tx",
                              edge_step)
    both = vis1 & vis2
    residual = np.full(mask.shape, np.nan)
    diff = np.abs(Y1 - Y2).max(axis=(2, 3))
    residual[both] = diff[both]
    return (Y1[:, :, 0, :].copy(), Y1[:, :, 1:, :].copy(), vis1, residual,
            max(drift1, drift2))


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


def angle_defect_curvature(X, valid):
    """Discrete K per interior vertex: angle defect over a third of the
    incident triangle area, using the quad split along the (+1, +1) diagonal."""
    nx, nt, _ = X.shape
    interior = _interior_full(valid)
    K = np.full((nx, nt), np.nan)
    for i, j in zip(*np.nonzero(interior)):
        p = X[i, j]
        # incident triangles of the regular split around (i, j)
        tris = (
            (X[i + 1, j], X[i + 1, j + 1]),
            (X[i + 1, j + 1], X[i, j + 1]),
            (X[i, j + 1], X[i - 1, j]),      # wedge of the two cells left/up
            (X[i - 1, j], X[i - 1, j - 1]),
            (X[i - 1, j - 1], X[i, j - 1]),
            (X[i, j - 1], X[i + 1, j]),
        )
        angle_sum = 0.0
        area_sum = 0.0
        for q, r in tris:
            v1, v2 = q - p, r - p
            n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
            if n1 == 0 or n2 == 0:
                continue
            cosang = np.clip((v1 @ v2) / (n1 * n2), -1.0, 1.0)
            angle_sum += math.acos(cosang)
            area_sum += 0.5 * np.linalg.norm(np.cross(v1, v2))
        if area_sum > 0:
            K[i, j] = (2.0 * math.pi - angle_sum) / (area_sum / 3.0)
    return K


def write_obj(field, path):
    """The OBJ text export_mesh writes, built node by node."""
    valid = field.valid
    nx, nt = valid.shape
    index = np.zeros((nx, nt), dtype=int)
    verts = []
    for i in range(nx):
        for j in range(nt):
            if valid[i, j]:
                index[i, j] = len(verts) + 1  # OBJ indices are 1-based
                verts.append(field.X[i, j])
    faces = []
    for i in range(nx - 1):
        for j in range(nt - 1):
            if valid[i, j] and valid[i + 1, j] and valid[i + 1, j + 1] \
                    and valid[i, j + 1]:
                faces.append((index[i, j], index[i + 1, j], index[i + 1, j + 1]))
                faces.append((index[i, j], index[i + 1, j + 1], index[i, j + 1]))

    with open(path, "w") as fh:
        fh.write("# pseudo-spherical immersion mesh\n")
        if not verts:
            fh.write("# warning: empty field, no valid nodes\n")
        fh.write(f"# vertices: {len(verts)} faces: {len(faces)}\n")
        for v in verts:
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for a, b, c in faces:
            fh.write(f"f {a} {b} {c}\n")
    return path
