"""Exact ordered ray-grid intersection.

Uniform grids are traversed by incremental axis-crossing stepping (track
the next boundary crossing per axis, always advance the nearest one).
Frustum grids are traversed by computing the ray's crossings with the
three boundary-plane families (z = const planes plus two families of
planes through the origin) and sorting them; the frustum hull is convex,
so the in-grid segments are contiguous.

Per-cell event depths d_i are the segment midpoints (t_enter + t_exit)/2:
rendered depth and the depth event cost share this convention, so a hard
shape is an exact minimizer of its own depth loss.

When a ray hits a cell edge or corner exactly, the crossing parameter is
perturbed by +1e-12 so each boundary crossing advances exactly one axis
(deterministic, and keeps consecutive cells face-adjacent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameras import Ray
from .grid import BinaryGrid, GridGeometry, same_geometry

TIE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class RayTrace:
    """Ordered cells intersected by one ray.

    cells are linear indices; t_enter/t_exit are distances along the ray
    (meters, unit direction).  Empty arrays mean the ray missed the grid.
    """

    geometry: GridGeometry
    cells: np.ndarray
    t_enter: np.ndarray
    t_exit: np.ndarray

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def d(self) -> np.ndarray:
        """Event-induced depth per cell: segment midpoint."""
        return 0.5 * (self.t_enter + self.t_exit)


@dataclass(frozen=True, eq=False)
class PackedTraces:
    """Batch of traces in padded (n_rays, max_len) arrays.

    cells is -1 past each ray's length; t arrays are 0 there.  Row i
    restricted to its first n[i] entries equals trace() for that ray.
    """

    geometry: GridGeometry
    cells: np.ndarray
    t_enter: np.ndarray
    t_exit: np.ndarray
    n: np.ndarray

    @property
    def n_rays(self) -> int:
        return self.cells.shape[0]

    @property
    def max_len(self) -> int:
        return self.cells.shape[1]

    @property
    def d(self) -> np.ndarray:
        return 0.5 * (self.t_enter + self.t_exit)

    @property
    def valid(self) -> np.ndarray:
        """(n_rays, max_len) mask of real entries."""
        return np.arange(self.max_len) < self.n[:, None]

    def row(self, i: int) -> RayTrace:
        k = self.n[i]
        return RayTrace(self.geometry, self.cells[i, :k].copy(),
                        self.t_enter[i, :k].copy(), self.t_exit[i, :k].copy())


def _empty_trace(geometry: GridGeometry) -> RayTrace:
    z = np.zeros(0)
    return RayTrace(geometry, np.zeros(0, dtype=np.int64), z, z.copy())


def trace(geometry: GridGeometry, ray: Ray) -> RayTrace:
    """Every cell the ray's positive half-line intersects, in increasing t.

    Rays originating inside the grid start at t = 0 from the containing
    cell.  A miss is the empty trace.
    """
    if geometry.kind == "uniform":
        packed = trace_batch(geometry, ray.origin[None, :], ray.direction[None, :])
        return packed.row(0)
    return _trace_frustum(geometry, ray.origin, ray.direction)


def trace_batch(geometry: GridGeometry, origins: np.ndarray, directions: np.ndarray) -> PackedTraces:
    """Vectorized trace for many rays at once."""
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if geometry.kind == "uniform":
        return _trace_batch_uniform(geometry, origins, directions)
    nx, ny, nz = geometry.dims
    max_len = nx + ny + nz + 4
    n_rays = origins.shape[0]
    cells = np.full((n_rays, max_len), -1, dtype=np.int64)
    t_in = np.zeros((n_rays, max_len))
    t_out = np.zeros((n_rays, max_len))
    n = np.zeros(n_rays, dtype=np.int64)
    for i in range(n_rays):
        tr = _trace_frustum(geometry, origins[i], directions[i])
        n[i] = tr.n
        cells[i, : tr.n] = tr.cells
        t_in[i, : tr.n] = tr.t_enter
        t_out[i, : tr.n] = tr.t_exit
    return PackedTraces(geometry, cells, t_in, t_out, n)


def _trace_batch_uniform(geom: GridGeometry, o: np.ndarray, d: np.ndarray) -> PackedTraces:
    nx, ny, nz = geom.dims
    dims = np.array([nx, ny, nz])
    lo = geom.aabb_min
    hi = geom.aabb_max
    h = geom.cell_size
    n_rays = o.shape[0]
    max_len = nx + ny + nz + 3

    # clip against the box; d == 0 axes contribute (-inf, inf) if inside the slab
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo - o) / d
        tb = (hi - o) / d
    zero = d == 0.0
    slab_in = (o >= lo) & (o < hi)
    tmin_ax = np.where(zero, np.where(slab_in, -np.inf, np.inf), np.minimum(ta, tb))
    tmax_ax = np.where(zero, np.where(slab_in, np.inf, -np.inf), np.maximum(ta, tb))
    t0 = np.maximum(tmin_ax.max(axis=1), 0.0)
    t1 = tmax_ax.min(axis=1)
    alive = t0 < t1

    start = o + np.where(alive, t0, 0.0)[:, None] * d
    cell3 = np.clip(np.floor((start - lo) / h).astype(np.int64), 0, dims - 1)
    step = np.sign(d).astype(np.int64)
    next_bound = lo + (cell3 + (step > 0)) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(zero, np.inf, (next_bound - o) / d)
        t_delta = np.where(zero, np.inf, h / np.abs(d))

    cells = np.full((n_rays, max_len), -1, dtype=np.int64)
    t_in = np.zeros((n_rays, max_len))
    t_out = np.zeros((n_rays, max_len))
    n = np.zeros(n_rays, dtype=np.int64)
    t_cur = t0.copy()
    rows = np.arange(n_rays)

    for _ in range(max_len):
        if not alive.any():
            break
        axis = np.argmin(t_max, axis=1)  # ties resolve to the lowest axis
        t_next = t_max[rows, axis]
        exiting = alive & (t_next >= t1)
        stepping = alive & ~exiting

        idx = np.nonzero(exiting & (t1 > t_cur))[0]
        if idx.size:
            slot = n[idx]
            cells[idx, slot] = geom.linear_index(cell3[idx, 0], cell3[idx, 1], cell3[idx, 2])
            t_in[idx, slot] = t_cur[idx]
            t_out[idx, slot] = t1[idx]
            n[idx] += 1
        alive &= ~exiting

        idx = np.nonzero(stepping)[0]
        if idx.size == 0:
            continue
        # corner ties would give a zero-length visit; push the crossing out
        t_adv = np.maximum(t_next[idx], t_cur[idx] + TIE_EPS)
        slot = n[idx]
        cells[idx, slot] = geom.linear_index(cell3[idx, 0], cell3[idx, 1], cell3[idx, 2])
        t_in[idx, slot] = t_cur[idx]
        t_out[idx, slot] = t_adv
        n[idx] += 1
        t_cur[idx] = t_adv

        ax = axis[idx]
        cell3[idx, ax] += step[idx, ax]
        out = (cell3[idx, ax] < 0) | (cell3[idx, ax] >= dims[ax])
        alive[idx[out]] = False  # numerical guard; exit test normally fires first
        t_max[idx, ax] += t_delta[idx, ax]

    assert np.all(n <= max_len), "trace exceeded the axis-crossing bound"
    return PackedTraces(geom, cells, t_in, t_out, n)


def _frustum_halfspaces(geom: GridGeometry) -> list[tuple[np.ndarray, float]]:
    """Hull of the frustum as inequalities a . p <= b (interior)."""
    nx, ny, nz = geom.dims
    z0 = geom.alpha1
    z1 = geom.alpha1 * np.exp(geom.alpha2 * nz)
    cx = geom.f * (nx / 2.0)
    cy = geom.f * (ny / 2.0)
    return [
        (np.array([0.0, 0.0, -1.0]), -z0),
        (np.array([0.0, 0.0, 1.0]), z1),
        (np.array([-1.0, 0.0, -cx]), 0.0),
        (np.array([1.0, 0.0, -cx]), 0.0),
        (np.array([0.0, -1.0, -cy]), 0.0),
        (np.array([0.0, 1.0, -cy]), 0.0),
    ]


def _trace_frustum(geom: GridGeometry, o: np.ndarray, d: np.ndarray) -> RayTrace:
    nx, ny, nz = geom.dims
    t0, t1 = 0.0, np.inf
    for a_vec, b in _frustum_halfspaces(geom):
        ad = float(a_vec @ d)
        ao = float(a_vec @ o)
        if ad == 0.0:
            if ao > b:
                return _empty_trace(geom)
        elif ad > 0.0:
            t1 = min(t1, (b - ao) / ad)
        else:
            t0 = max(t0, (b - ao) / ad)
    if not t0 < t1:
        return _empty_trace(geom)

    # interior planes only (k = 1..n-1): the k = 0 and k = n planes bound
    # the hull, so inside [t0, t1] they are touched exactly at t0 or t1
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = geom.alpha1 * np.exp(geom.alpha2 * np.arange(1, nz))
        tz = (zs - o[2]) / d[2]
        cxs = geom.f * (np.arange(1, nx) - nx / 2.0)
        tx = (cxs * o[2] - o[0]) / (d[0] - cxs * d[2])
        cys = geom.f * (np.arange(1, ny) - ny / 2.0)
        ty = (cys * o[2] - o[1]) / (d[1] - cys * d[2])
    ts = np.concatenate([tz, tx, ty])
    ts = ts[np.isfinite(ts)]
    ts = ts[(ts > t0) & (ts < t1)]
    bounds = np.unique(np.concatenate([[t0], ts, [t1]]))

    mids = 0.5 * (bounds[:-1] + bounds[1:])
    g = geom.world_to_grid(o + mids[:, None] * d)
    # midpoints lie inside the convex hull; clip absorbs boundary roundoff
    ijk = np.clip(np.floor(g).astype(np.int64), 0, np.array([nx, ny, nz]) - 1)
    cells = geom.linear_index(ijk[:, 0], ijk[:, 1], ijk[:, 2])
    assert len(cells) <= nx + ny + nz + 4, "trace exceeded the plane-crossing bound"
    return RayTrace(geom, cells, bounds[:-1].copy(), bounds[1:].copy())


def first_hit_batch(bgrid: BinaryGrid, packed: PackedTraces):
    """First traversed cell with occ = True, for every packed ray.

    Returns (hit mask (R,), cell index (R,), depth (R,)); cell/depth are
    -1/0 where the ray escapes.
    """
    if not same_geometry(bgrid.geometry, packed.geometry):
        raise ValueError("binary grid and traces were built on different geometries")
    occ = np.where(packed.cells >= 0, bgrid.flat[np.maximum(packed.cells, 0)], False)
    occ &= packed.valid
    hit = occ.any(axis=1)
    first = np.argmax(occ, axis=1)
    rows = np.arange(packed.n_rays)
    cell = np.where(hit, packed.cells[rows, first], -1)
    depth = np.where(hit, packed.d[rows, first], 0.0)
    return hit, cell, depth
