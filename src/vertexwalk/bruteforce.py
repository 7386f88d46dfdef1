"""Brute-force ground truth for two-parameter instances.

arrangement_walk_2d enumerates every vertex of the kink-surface arrangement
in a box, with its loss, and links the vertices adjacent along a shared
surface. It treats the loss and the raw constraint functions as black boxes
evaluated pointwise and reuses none of the region-local affine data
(gradients, normals, ratio tests) it exists to verify. check_walk_2d is the
one cross-check of a solver walk against it: every vertex of the walk is a
brute-force vertex, and the final one is a brute-force local minimum.
`vertexwalk verify` and the acceptance tests both run it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .network import relu
from .oracle import OracleInstance, value


@dataclass(frozen=True)
class Walk2D:
    """Brute-force vertex enumeration of a D = 2 instance in a box: the
    vertices, their losses, the vertices adjacent to each, and the vertices
    where more than two surfaces meet."""

    vertices: np.ndarray  # (V, 2)
    values: np.ndarray  # (V,)
    adjacency: tuple[tuple[int, ...], ...]
    degenerate_indices: tuple[int, ...] = ()


def _flat_many(o: OracleInstance, pts: np.ndarray) -> np.ndarray:
    """Constraint values for a batch of 2-D parameter points, (M, C)."""
    z1 = pts @ o.x_aug.T  # (M, N); n_1 = 1 so z1 is scalar per sample
    pieces = [z1[..., None]]
    h = relu(z1)[..., None]
    for layer in o.fixed[:-1]:
        z = h @ layer.weight.T + layer.bias
        pieces.append(z)
        h = relu(z)
    out = h @ o.fixed[-1].weight.T + o.fixed[-1].bias
    res = o.data.targets[None, :, :] - out
    m = pts.shape[0]
    neuron = np.concatenate(pieces, axis=2).reshape(m, -1)
    return np.concatenate([neuron, res.reshape(m, -1)], axis=1)


def _edge_root(o, c, a, b, va):
    """Root of constraint c on the segment a-b, where it changes sign; va is its value at a."""
    lo, hi = 0.0, 1.0
    flo = va
    for _ in range(90):
        m = 0.5 * (lo + hi)
        fm = float(_flat_many(o, (a + m * (b - a))[None, :])[0, c])
        if fm == 0.0:
            return a + m * (b - a)
        if (flo < 0) != (fm < 0):
            hi = m
        else:
            lo, flo = m, fm
        if hi - lo < 1e-15:
            break
    m = 0.5 * (lo + hi)
    return a + m * (b - a)


def _cell_corners(lo, hi):
    return np.array(
        [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
    )


def _sign_change(vals: np.ndarray) -> bool:
    return bool(np.min(vals) < 0.0 <= np.max(vals)) or bool(np.any(vals == 0.0))


def _cell_roots(o, c, corners, cvals):
    tiny = 1e-12 * (1.0 + float(np.max(np.abs(cvals))))
    roots = []
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        va, vb = float(cvals[e]), float(cvals[(e + 1) % 4])
        if abs(va) <= tiny:
            roots.append(a)
        elif abs(vb) <= tiny:
            continue  # picked up as the next edge's start corner
        elif (va < 0) != (vb < 0):
            roots.append(_edge_root(o, c, a, b, va))
    # Cell corners are shared between edges; drop duplicate root points.
    distinct: list[np.ndarray] = []
    span = float(np.max(corners) - np.min(corners)) or 1.0
    for r in roots:
        if all(np.linalg.norm(r - q) > 1e-9 * span for q in distinct):
            distinct.append(r)
    return distinct


def _intersect_in_cell(o, c1, c2, lo, hi, depth=0):
    """Recursively locate transversal intersections of two constraint curves."""
    corners = _cell_corners(lo, hi)
    vals = _flat_many(o, corners)
    if not (_sign_change(vals[:, c1]) and _sign_change(vals[:, c2])):
        return []
    r1 = _cell_roots(o, c1, corners, vals[:, c1])
    r2 = _cell_roots(o, c2, corners, vals[:, c2])
    if len(r1) == 2 and len(r2) == 2:
        hit = _line_intersection(r1, r2)
        margin = 1e-9 * (1.0 + float(np.max(np.abs(corners))))
        if hit is not None and np.all(hit >= lo - margin) and np.all(hit <= hi + margin):
            refined = _polish_vertex(o, c1, c2, hit)
            if refined is not None:
                return [refined]
    if depth >= 12:
        return []
    mid = 0.5 * (lo + hi)
    out = []
    for qlo, qhi in (
        (lo, mid),
        (np.array([mid[0], lo[1]]), np.array([hi[0], mid[1]])),
        (np.array([lo[0], mid[1]]), np.array([mid[0], hi[1]])),
        (mid, hi),
    ):
        out.extend(_intersect_in_cell(o, c1, c2, qlo, qhi, depth + 1))
    return out


def _line_intersection(r1, r2):
    p1, p2 = r1
    q1, q2 = r2
    du, dv = p2 - p1, q2 - q1
    mat = np.column_stack([du, -dv])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    scale = float(np.max(np.abs(mat))) or 1.0
    if abs(det) < 1e-12 * scale * scale:
        return None
    rhs = q1 - p1
    s = (rhs[0] * mat[1, 1] - rhs[1] * mat[0, 1]) / det
    return p1 + s * du


def _polish_vertex(o, c1, c2, v, rounds=3):
    """Newton-polish onto both curves with finite-difference Jacobians."""
    for _ in range(rounds):
        h = 1e-7 * (1.0 + float(np.max(np.abs(v))))
        pts = np.array(
            [v, v + [h, 0], v - [h, 0], v + [0, h], v - [0, h]], dtype=float
        )
        vals = _flat_many(o, pts)[:, [c1, c2]]
        jac = np.empty((2, 2))
        jac[:, 0] = (vals[1] - vals[2]) / (2 * h)
        jac[:, 1] = (vals[3] - vals[4]) / (2 * h)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        scale = float(np.max(np.abs(jac))) or 1.0
        if abs(det) < 1e-12 * scale * scale:
            return None
        step = np.linalg.solve(jac, -vals[0])
        v = v + step
    resid = np.abs(_flat_many(o, v[None, :])[0, [c1, c2]])
    vscale = 1.0 + float(np.max(np.abs(v)))
    if float(np.max(resid)) > 1e-7 * vscale:
        return None
    return v


def arrangement_walk_2d(
    o: OracleInstance,
    start: np.ndarray,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    grid: int = 160,
) -> Walk2D:
    """Enumerate every pairwise constraint intersection inside a box (by
    default one around `start`) and link adjacent vertices along shared
    curves.

    Points where more than two surfaces coincide are genuine arrangement
    vertices (every first-layer surface of one unit meets where that unit's
    parameter row vanishes); they are kept and reported through
    `degenerate_indices`.
    """
    if o.dim != 2:
        raise ShapeMismatch("arrangement walk requires a 2-parameter instance")
    start = np.asarray(start, dtype=float)
    if box is None:
        r = 1.5 * (1.0 + float(np.max(np.abs(start))))
        box = (start - r, start + r)
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    # Pad asymmetrically by a cell fraction so structured points (the
    # origin in particular) never sit exactly on grid nodes.
    cell = (hi - lo) / grid
    lo = lo - 0.371 * cell
    hi = hi + 0.129 * cell

    xs = np.linspace(lo[0], hi[0], grid + 1)
    ys = np.linspace(lo[1], hi[1], grid + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    node_vals = _flat_many(o, nodes).reshape(grid + 1, grid + 1, -1)
    n_con = node_vals.shape[2]

    neg = node_vals < 0.0
    zero = node_vals == 0.0
    # One flag per cell and constraint: corners do not all share one nonzero sign.
    def corner_stack(a):
        return np.stack(
            [a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]], axis=0
        )

    negs = corner_stack(neg)
    zeros = corner_stack(zero)
    flips = ~(np.all(negs, axis=0) | np.all(~negs & ~zeros, axis=0))

    found: list[tuple[np.ndarray, tuple[int, int]]] = []
    for c1, c2 in itertools.combinations(range(n_con), 2):
        both = flips[:, :, c1] & flips[:, :, c2]
        for i, j in np.argwhere(both):
            cell_lo = np.array([xs[i], ys[j]])
            cell_hi = np.array([xs[i + 1], ys[j + 1]])
            for v in _intersect_in_cell(o, c1, c2, cell_lo, cell_hi):
                found.append((v, (c1, c2)))

    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo, hi]))))
    merge_tol = 1e-7 * scale
    vertices: list[np.ndarray] = []
    members: list[set[int]] = []
    for v, pair in found:
        placed = False
        for k, u in enumerate(vertices):
            if np.linalg.norm(v - u) <= merge_tol:
                members[k].update(pair)
                placed = True
                break
        if not placed:
            vertices.append(v)
            members.append(set(pair))
    degenerate = tuple(k for k, mem in enumerate(members) if len(mem) > 2)

    verts = np.array(vertices) if vertices else np.empty((0, 2))
    vals = np.array([value(o, v) for v in verts]) if len(verts) else np.empty(0)

    adjacency = _link_vertices(o, verts, members, scale)
    return Walk2D(
        vertices=verts,
        values=vals,
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        degenerate_indices=degenerate,
    )


def check_walk_2d(
    o: OracleInstance, p0: np.ndarray, points: np.ndarray
) -> tuple[Walk2D, str | None]:
    """Check a walk of a 2-parameter instance against arrangement_walk_2d
    in the box spanned by p0 and the walk's vertices `points` (in order,
    the last one the final point), padded by 1.

    Every vertex of the walk must lie within 1e-6 (1 + |point|) of a
    brute-force vertex, the final point included, and no brute-force
    neighbour of the final point's vertex may have a loss more than 1e-9
    below its loss. Returns the brute-force walk and None when every check
    holds, else the first failed check: "no brute vertices", "vertex
    mismatch" or "final not a brute local minimum".
    """
    points = np.asarray(points, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    lo = np.minimum(points.min(axis=0), p0) - 1.0
    hi = np.maximum(points.max(axis=0), p0) + 1.0
    walk = arrangement_walk_2d(o, p0, box=(lo, hi))
    if len(walk.vertices) == 0:
        return walk, "no brute vertices"
    dists = np.linalg.norm(walk.vertices[None, :, :] - points[:, None, :], axis=2)
    scale = 1.0 + np.linalg.norm(points, axis=1)
    if not np.all(dists.min(axis=1) <= 1e-6 * scale):
        return walk, "vertex mismatch"
    final = int(np.argmin(dists[-1]))
    if any(walk.values[j] < walk.values[final] - 1e-9 for j in walk.adjacency[final]):
        return walk, "final not a brute local minimum"
    return walk, None


def _link_vertices(o, verts, members, scale):
    adjacency: list[set[int]] = [set() for _ in range(len(verts))]
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            shared = members[a] & members[b]
            if not shared:
                continue
            u, w = verts[a], verts[b]
            if not _segment_clear(verts, a, b):
                continue
            seg_tol = 1e-6 * (1.0 + float(np.linalg.norm(w - u))) * scale
            pts = np.array([u + f * (w - u) for f in (0.25, 0.5, 0.75)])
            vals = _flat_many(o, pts)
            for c in shared:
                if float(np.max(np.abs(vals[:, c]))) <= seg_tol:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
                    break
    return adjacency


def _segment_clear(verts, a, b):
    """No third vertex lies strictly between a and b on the segment."""
    u, w = verts[a], verts[b]
    d = w - u
    length2 = float(d @ d)
    if length2 == 0.0:
        return False
    for k in range(len(verts)):
        if k in (a, b):
            continue
        f = float((verts[k] - u) @ d) / length2
        if 0.01 < f < 0.99:
            off = verts[k] - (u + f * d)
            if float(np.linalg.norm(off)) < 1e-6 * (1.0 + np.sqrt(length2)):
                return False
    return True
