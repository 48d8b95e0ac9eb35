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

``trace_batch`` returns the traces of many rays as one unpadded
``TraceTable``: per ray a start, a length and an entry depth, per traversed
cell its index and exit depth.  Consecutive cells of a ray share their
boundary, so each cell's entry depth is the exit depth before it.
``TraceTable.padded`` lays gathered rows out in (rays, slots) arrays for
the loss, ``TraceTable.row`` gives one ray's ``RayTrace``, and ``trace`` is
``trace_batch`` on one ray.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameras import Ray
from .grid import BinaryGrid, GridGeometry, same_geometry

TIE_EPS = 1e-12
# rays per pass of trace_batch on uniform grids; bounds the per-step arrays
# the kernel holds before it writes the pass's table
TABLE_CHUNK = 4096
# rays per pass on frustum grids, whose kernel holds a few (rays, nx+ny+nz)
# arrays; the uniform kernel runs 20-30% slower in passes this short
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
class TraceTable:
    """Traces of many rays, unpadded.  Ray i crosses the cells
    ``cells[start[i]:start[i] + n[i]]``, leaving them at ``t_exit`` of the
    same span; it enters its first cell at ``t0[i]`` and every later cell
    where it left the one before.

    A miss (n = 0) stores nothing, so a table costs 12 bytes per traversed
    cell (int32 cell, float64 exit depth) plus 24 per ray.  ``trace_batch``
    stores the rays' cells in ray order; ``take`` shares that storage.
    """

    geometry: GridGeometry
    start: np.ndarray
    n: np.ndarray
    t0: np.ndarray
    cells: np.ndarray
    t_exit: np.ndarray

    @property
    def n_rays(self) -> int:
        return self.n.shape[0]

    @property
    def max_len(self) -> int:
        """Length of the longest trace."""
        return int(self.n.max(initial=0))

    def take(self, index) -> "TraceTable":
        """The traces of rays ``index``, in that order; storage is shared."""
        return TraceTable(self.geometry, self.start[index], self.n[index], self.t0[index],
                          self.cells, self.t_exit)

    def _t_enter(self, at: np.ndarray, rays) -> np.ndarray:
        """Entry depths of the cells at flat positions ``at`` of rays
        ``rays`` (broadcast against ``at``): the ray's t0 at its first cell,
        else the exit depth of the cell before."""
        before = np.take(self.t_exit, at - 1, mode="clip")  # -1 only at a first cell or padding
        return np.where(at == self.start[rays], self.t0[rays], before)

    def row(self, i: int) -> RayTrace:
        at = np.arange(self.start[i], self.start[i] + self.n[i])
        return RayTrace(self.geometry, self.cells[at], self._t_enter(at, i), self.t_exit[at])

    def cell_rays(self) -> np.ndarray:
        """The ray of every entry of ``cells``, for a table that holds its
        rays' cells in ray order and nothing else, as ``trace_batch`` returns."""
        if self.cells.size != self.n.sum() or not np.array_equal(self.start, np.cumsum(self.n) - self.n):
            raise ValueError("table does not store its rays in order (a take() of another table?)")
        return np.repeat(np.arange(self.n_rays), self.n)

    def padded(self):
        """(cells, d, valid), each (n_rays, W): every ray's trace left-aligned
        in W slots, W = max_len rounded up to a multiple of 8, at least 8.
        d is the event depth per cell, 0.5 * (t_enter + t_exit).  Padding is
        cell 0 at depth 0, and ``valid`` is False there.

        numpy sums a row of 8 to 128 values in eight interleaved partial
        sums, so padding a row with zeros to any multiple of 8 up to 128
        leaves the rounding of its sum unchanged: a ray's loss does not
        depend on the rays batched with it.
        """
        width = max(8, -(-self.max_len // 8) * 8)
        valid = np.arange(width) < self.n[:, None]
        at = np.where(valid, self.start[:, None] + np.arange(width), 0)
        if not self.cells.size:  # every ray missed
            return at, np.zeros(at.shape), valid
        d = 0.5 * (self._t_enter(at, np.arange(self.n_rays)[:, None]) + self.t_exit[at])
        return np.where(valid, self.cells[at], 0), np.where(valid, d, 0.0), valid


def trace(geometry: GridGeometry, ray: Ray) -> RayTrace:
    """Every cell the ray's positive half-line intersects, in increasing t.

    Rays originating inside the grid start at t = 0 from the containing
    cell.  A miss is the empty trace.  This is ``trace_batch`` on one ray.
    """
    return trace_batch(geometry, ray.origin[None, :], ray.direction[None, :]).row(0)


def trace_batch(geometry: GridGeometry, origins: np.ndarray, directions: np.ndarray) -> TraceTable:
    """The traces of many rays, in one table built pass by pass: TABLE_CHUNK
    rays per pass on uniform grids, FRUSTUM_CHUNK on frustum grids."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    if geometry.kind == "uniform":
        kernel, chunk = _trace_uniform, TABLE_CHUNK
    else:
        kernel, chunk = _trace_frustum, FRUSTUM_CHUNK
    passes = [kernel(geometry, o[i:i + chunk], d[i:i + chunk]) for i in range(0, max(len(o), 1), chunk)]
    n, t0, cells, t_exit = (np.concatenate(part) for part in zip(*passes))
    return TraceTable(geometry, np.cumsum(n) - n, n, t0, cells, t_exit)


def _trace_uniform(geom: GridGeometry, o: np.ndarray, d: np.ndarray):
    """(n, t0, cells, t_exit) of rays (o, d), the fields of a TraceTable."""
    nx, ny, nz = geom.dims
    dims = np.array([nx, ny, nz])
    lo = geom.aabb_min
    hi = geom.aabb_max
    h = geom.cell_size

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
    t0 = np.where(alive, t0, 0.0)

    cell3 = np.clip(np.floor((o + t0[:, None] * d - lo) / h).astype(np.int64), 0, dims - 1)
    step = np.sign(d).astype(np.int64)
    next_bound = lo + (cell3 + (step > 0)) * h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_max = np.where(zero, np.inf, (next_bound - o) / d)
        t_delta = np.where(zero, np.inf, h / np.abs(d))

    # step only the rays still inside the grid; each of them has visited
    # exactly one cell per step so far, so step k visits cell k of its trace
    n = np.zeros(o.shape[0], dtype=np.int64)
    visits = []  # per step: (rays, cell, exit depth)
    act = np.flatnonzero(alive)
    cell3, step, t_max, t_delta = cell3[act], step[act], t_max[act], t_delta[act]
    t_cur, t1 = t0[act], t1[act]
    for k in range(nx + ny + nz + 3):
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
        visits.append((at, geom.linear_index(cell3[fill, 0], cell3[fill, 1], cell3[fill, 2]), t_adv[fill]))
        n[at] = k + 1

        cell3[rows, axis] += step[rows, axis]
        t_max[rows, axis] += t_delta[rows, axis]
        inside = (cell3[rows, axis] >= 0) & (cell3[rows, axis] < dims[axis])
        # the bounds test is a numerical guard; the exit test normally fires first
        keep = ~exiting & inside
        act, cell3, step, t_max, t_delta = act[keep], cell3[keep], step[keep], t_max[keep], t_delta[keep]
        t_cur, t1 = t_adv[keep], t1[keep]

    start = np.cumsum(n) - n
    cells = np.empty(n.sum(), dtype=np.int32)
    t_exit = np.empty(n.sum())
    for k, (at, cell, t) in enumerate(visits):
        cells[start[at] + k] = cell
        t_exit[start[at] + k] = t
    return n, t0, cells, t_exit


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


def _trace_frustum(geom: GridGeometry, o: np.ndarray, d: np.ndarray):
    """(n, t0, cells, t_exit) of rays (o, d), the fields of a TraceTable."""
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
    n = np.zeros(m, dtype=np.int64)
    t_start = np.zeros(m)
    if rows.size == 0:
        return n, t_start, np.empty(0, dtype=np.int32), np.empty(0)
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
    exit_ = ts[:, 1:width + 1]

    # padding takes the first midpoint so that every point maps into the grid
    mids = 0.5 * (ts[:, :width] + exit_)
    mids = np.where(valid, mids, mids[:, :1])
    g = geom.world_to_grid(o[:, None, :] + mids[:, :, None] * d[:, None, :])
    # midpoints lie inside the convex hull; clip absorbs boundary roundoff
    ijk = np.clip(np.floor(g).astype(np.int64), 0, np.array([nx, ny, nz]) - 1)
    cells = geom.linear_index(ijk[..., 0], ijk[..., 1], ijk[..., 2])
    n[rows] = seg
    t_start[rows] = ts[:, 0]
    return n, t_start, cells[valid].astype(np.int32), exit_[valid]


def first_hit_batch(bgrid: BinaryGrid, table: TraceTable):
    """First traversed cell with occ = True, for every ray of the table.

    Returns (hit mask (R,), cell index (R,), depth (R,)); cell/depth are
    -1/0 where the ray escapes.
    """
    if not same_geometry(bgrid.geometry, table.geometry):
        raise ValueError("binary grid and traces were built on different geometries")
    ray = table.cell_rays()
    pos = np.flatnonzero(bgrid.flat[table.cells])
    first = pos[np.diff(ray[pos], prepend=-1) != 0]  # each ray's first occupied entry
    rays = ray[first]
    hit = np.zeros(table.n_rays, dtype=bool)
    cell = np.full(table.n_rays, -1, dtype=np.int64)
    depth = np.zeros(table.n_rays)
    hit[rays] = True
    cell[rays] = table.cells[first]
    depth[rays] = 0.5 * (table._t_enter(first, rays) + table.t_exit[first])
    return hit, cell, depth
