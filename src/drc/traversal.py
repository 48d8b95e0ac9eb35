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

``trace_batch`` returns traces padded to a common length (``PackedTraces``);
``TraceTable`` holds them unpadded, for rays traced once and read many times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameras import Ray
from .grid import BinaryGrid, GridGeometry, same_geometry

TIE_EPS = 1e-12
# rays per pass of the frustum kernel, which holds a few (rays, nx+ny+nz) arrays
FRUSTUM_CHUNK = 1024


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


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Traces of many rays, unpadded: ray i's cells and event depths are
    ``cells[start[i]:start[i] + n[i]]`` and ``d[...]`` of the same span.

    A miss (n = 0) stores nothing, so a table costs 12 bytes per traversed
    cell (int32 cell, float64 depth) plus 16 per ray.
    """

    geometry: GridGeometry
    start: np.ndarray
    n: np.ndarray
    cells: np.ndarray
    d: np.ndarray

    @staticmethod
    def from_packed(parts) -> "TraceTable":
        """One table of the rays of ``parts``, an iterable of PackedTraces
        that is read once, so a generator never holds more than one part."""
        ns, cells, ds = [], [], []
        for p in parts:
            valid = p.valid
            ns.append(p.n)
            cells.append(p.cells[valid].astype(np.int32))
            ds.append(0.5 * (p.t_enter[valid] + p.t_exit[valid]))
        n = np.concatenate(ns)
        return TraceTable(p.geometry, np.cumsum(n) - n, n, np.concatenate(cells), np.concatenate(ds))

    def take(self, index) -> "TraceTable":
        """The traces of rays ``index``, in that order; storage is shared."""
        return TraceTable(self.geometry, self.start[index], self.n[index], self.cells, self.d)

    def padded(self):
        """(cells, d, valid), each (n_rays, W): every ray's trace left-aligned
        in W slots, W = max(n) rounded up to a multiple of 8, at least 8.
        Padding is cell 0 at depth 0, and ``valid`` is False there.

        numpy sums a row of 8 to 128 values in eight interleaved partial
        sums, so padding a row with zeros to any multiple of 8 up to 128
        leaves the rounding of its sum unchanged: a ray's loss does not
        depend on the rays batched with it.
        """
        width = max(8, -(-int(self.n.max(initial=0)) // 8) * 8)
        valid = np.arange(width) < self.n[:, None]
        at = np.where(valid, self.start[:, None] + np.arange(width), 0)
        if not self.cells.size:  # every ray missed
            return at, np.zeros(at.shape), valid
        return np.where(valid, self.cells[at], 0), np.where(valid, self.d[at], 0.0), valid


def trace(geometry: GridGeometry, ray: Ray) -> RayTrace:
    """Every cell the ray's positive half-line intersects, in increasing t.

    Rays originating inside the grid start at t = 0 from the containing
    cell.  A miss is the empty trace.  This is ``trace_batch`` on one ray.
    """
    return trace_batch(geometry, ray.origin[None, :], ray.direction[None, :]).row(0)


def trace_batch(geometry: GridGeometry, origins: np.ndarray, directions: np.ndarray) -> PackedTraces:
    """Vectorized trace for many rays at once."""
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if geometry.kind == "uniform":
        return _trace_batch_uniform(geometry, origins, directions)
    return _trace_batch_frustum(geometry, origins, directions)


def _trace_batch_uniform(geom: GridGeometry, o: np.ndarray, d: np.ndarray) -> PackedTraces:
    nx, ny, nz = geom.dims
    dims = np.array([nx, ny, nz])
    lo = geom.aabb_min
    hi = geom.aabb_max
    h = geom.cell_size
    n_rays = o.shape[0]
    max_len = nx + ny + nz + 3

    # clip against the box; d == 0 axes contribute (-inf, inf) if inside the slab
    # components below ~1e-308 overflow to +-inf, which is the right limit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_max = np.where(zero, np.inf, (next_bound - o) / d)
        t_delta = np.where(zero, np.inf, h / np.abs(d))

    cells = np.full((n_rays, max_len), -1, dtype=np.int64)
    t_in = np.zeros((n_rays, max_len))
    t_out = np.zeros((n_rays, max_len))
    n = np.zeros(n_rays, dtype=np.int64)

    # step only the rays still inside the grid; each of them has filled
    # exactly one slot per step so far, so step k writes slot k
    act = np.flatnonzero(alive)
    cell3, step, t_max, t_delta = cell3[act], step[act], t_max[act], t_delta[act]
    t_cur, t1 = t0[act], t1[act]
    for k in range(max_len):
        if not act.size:
            break
        rows = np.arange(act.size)
        axis = np.argmin(t_max, axis=1)  # ties resolve to the lowest axis
        t_next = t_max[rows, axis]
        exiting = t_next >= t1
        # corner ties would give a zero-length visit; push the crossing out
        t_adv = np.where(exiting, t1, np.maximum(t_next, t_cur + TIE_EPS))
        fill = ~exiting | (t1 > t_cur)
        at = act[fill]
        cells[at, k] = geom.linear_index(cell3[fill, 0], cell3[fill, 1], cell3[fill, 2])
        t_in[at, k] = t_cur[fill]
        t_out[at, k] = t_adv[fill]
        n[at] = k + 1

        cell3[rows, axis] += step[rows, axis]
        t_max[rows, axis] += t_delta[rows, axis]
        inside = (cell3[rows, axis] >= 0) & (cell3[rows, axis] < dims[axis])
        # the bounds test is a numerical guard; the exit test normally fires first
        keep = ~exiting & inside
        act, cell3, step, t_max, t_delta = act[keep], cell3[keep], step[keep], t_max[keep], t_delta[keep]
        t_cur, t1 = t_adv[keep], t1[keep]

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


def _trace_batch_frustum(geom: GridGeometry, o: np.ndarray, d: np.ndarray) -> PackedTraces:
    nx, ny, nz = geom.dims
    n_rays = o.shape[0]
    # K interior planes give at most K + 1 segments between the hull's t0, t1
    max_len = nx + ny + nz - 2
    cells = np.full((n_rays, max_len), -1, dtype=np.int64)
    t_in = np.zeros((n_rays, max_len))
    t_out = np.zeros((n_rays, max_len))
    n = np.zeros(n_rays, dtype=np.int64)
    for lo in range(0, n_rays, FRUSTUM_CHUNK):
        part = slice(lo, lo + FRUSTUM_CHUNK)
        _trace_frustum_chunk(geom, o[part], d[part], cells[part], t_in[part], t_out[part], n[part])
    return PackedTraces(geom, cells, t_in, t_out, n)


def _trace_frustum_chunk(geom, o, d, cells, t_in, t_out, n) -> None:
    """Trace rays (o, d) into the given output rows."""
    nx, ny, nz = geom.dims
    m = o.shape[0]
    t0 = np.zeros(m)
    t1 = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a_vec, b in _frustum_halfspaces(geom):
            # a matrix-vector product rounds each ray's dot as a 1-D dot does;
            # an elementwise (d * a_vec).sum(1) can differ in the last bit
            ad = d @ a_vec
            ao = o @ a_vec
            t = (b - ao) / ad
            alive &= ~((ad == 0.0) & (ao > b))
            # replace only on strict improvement, so t0 = 0 keeps its sign
            t1 = np.where((ad > 0.0) & (t < t1), t, t1)
            t0 = np.where((ad < 0.0) & (t > t0), t, t0)
    rows = np.flatnonzero(alive & (t0 < t1))
    if rows.size == 0:
        return
    o, d, t0, t1 = o[rows], d[rows], t0[rows, None], t1[rows, None]

    # interior planes only (k = 1..n-1): the k = 0 and k = n planes bound
    # the hull, so inside [t0, t1] they are touched exactly at t0 or t1
    ox, oy, oz = o[:, :1], o[:, 1:2], o[:, 2:]
    dx, dy, dz = d[:, :1], d[:, 1:2], d[:, 2:]
    zs = geom.alpha1 * np.exp(geom.alpha2 * np.arange(1, nz))
    cxs = geom.f * (np.arange(1, nx) - nx / 2.0)
    cys = geom.f * (np.arange(1, ny) - ny / 2.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ts = np.concatenate([t0, (zs - oz) / dz, (cxs * oz - ox) / (dx - cxs * dz),
                             (cys * oz - oy) / (dy - cys * dz), t1], axis=1)
    inside = np.isfinite(ts) & (ts > t0) & (ts < t1)
    inside[:, [0, -1]] = True
    ts = np.where(inside, ts, np.inf)
    ts.sort(axis=1)
    # a ray through a cell edge crosses two planes at one t: keep one
    dup = (ts[:, 1:] == ts[:, :-1]) & (ts[:, 1:] < np.inf)
    if dup.any():
        ts[:, 1:][dup] = np.inf
        ts.sort(axis=1)
    seg = np.count_nonzero(ts < np.inf, axis=1) - 1
    width = seg.max()
    valid = np.arange(width) < seg[:, None]
    enter = np.where(valid, ts[:, :width], 0.0)
    exit_ = np.where(valid, ts[:, 1:width + 1], 0.0)

    # padding takes the first midpoint so that every point maps into the grid
    mids = 0.5 * (enter + exit_)
    mids = np.where(valid, mids, mids[:, :1])
    g = geom.world_to_grid(o[:, None, :] + mids[:, :, None] * d[:, None, :])
    # midpoints lie inside the convex hull; clip absorbs boundary roundoff
    ijk = np.clip(np.floor(g).astype(np.int64), 0, np.array([nx, ny, nz]) - 1)
    cells[rows, :width] = np.where(valid, geom.linear_index(ijk[..., 0], ijk[..., 1], ijk[..., 2]), -1)
    t_in[rows, :width] = enter
    t_out[rows, :width] = exit_
    n[rows] = seg


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
