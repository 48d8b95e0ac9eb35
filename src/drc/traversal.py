"""Exact ordered ray-grid intersection.

Both grid kinds share one kernel.  One clip, ``_hull``, gives the depths
(t0, t1) inside the grid's convex hull from a list of its six faces
(``_hull_faces``: the box's axis planes; the frustum's near and far planes
and its four side planes through the apex); a crossing function gives the
ray's depth at every interior cell boundary plane (axis planes; depth
planes and planes through the apex) and the change of the linear cell
index there, the plane's stride signed by the ray's rate across it.  The
kernel sorts the crossings inside (t0, t1) once per ray, counts the first
cell from the planes the ray has passed at t0, and steps from there.  The
hull is convex, so the in-grid segments are contiguous.

A uniform grid evaluates every axis plane.  A frustum grid evaluates every
depth plane but, of each family of planes through the apex, only a window
per ray: the planes between the ray's grid coordinate at t0 and at t1 and
one more on each side (a ray near the apex crosses about 5 of the 62
apex planes of a 32^3 grid).  Inside the hull z >= alpha1 > 0, so x/z and
y/z move monotonically along the ray, and a plane outside the window is
neither crossed in (t0, t1) nor on an uncertain side at t0: the crossing
depths would put it below the ray there exactly when it lies below the
window.  So the planes below a window go straight into the first cell's
count, and the traces are those of the full plane set, to the bit.

Per-cell event depths d_i are the segment midpoints (t_enter + t_exit)/2:
rendered depth and the depth event cost share this convention, so a hard
shape is an exact minimizer of its own depth loss.

A ray through a cell edge or corner crosses two or three planes at one
depth.  The zero-length segments between them are dropped and the cell
after the last of them kept, so consecutive cells differ in exactly the
axes crossed there.  A ray lying on a plane belongs to the cell above it,
as floor() of its grid coordinate would say.  The hull's faces follow the
same rule: a ray lying in a low face (grid coordinate 0 on its axis, the
frustum's near plane among them) is inside the grid, one lying in a high
face (the axis's cell count, the far plane among them) is outside.

``trace_batch`` returns the traces of many rays as one unpadded
``TraceTable``: per ray a start, a length and an entry depth, per traversed
cell its index and exit depth, which each pass writes after the last one's
into storage reserved from a bound on every ray's cell count (from 4 MiB
on an anonymous mapping, whose unwritten pages never become resident).
Consecutive cells share their boundary, so a cell's entry depth is the exit
depth before it.  ``TraceTable.row`` gives one ray's ``RayTrace``.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .grid import BinaryGrid, GridGeometry, same_geometry

# rays per pass of trace_batch; bounds the (rays, planes) crossing arrays
# the kernel holds before it writes the pass's table.  4096 measured 13%
# slower and raised the peak memory of a 32^3 depth fit by 9-12 MB.
TABLE_CHUNK = 1024

# planes of each apex family a frustum ray's window holds beyond those
# between its grid coordinates at t0 and t1, on each side; see _apex_window
APEX_MARGIN = 1


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
        before = np.take(self.t_exit, at - 1, mode="clip")  # -1 only at a first cell
        return np.where(at == self.start[rays], self.t0[rays], before)

    def row(self, i: int) -> RayTrace:
        at = np.arange(self.start[i], self.start[i] + self.n[i])
        return RayTrace(self.geometry, self.cells[at], self._t_enter(at, i), self.t_exit[at])

    def cell_rays(self) -> np.ndarray:
        """The ray of every entry of ``cells``, for a table that holds its
        rays' cells in ray order and nothing else, as ``trace_batch`` returns.
        int32, as ``cells`` is: per-entry index arrays built from it are
        as large as the table."""
        if self.cells.size != self.n.sum() or not np.array_equal(self.start, np.cumsum(self.n) - self.n):
            raise ValueError("table does not store its rays in order (a take() of another table?)")
        return np.repeat(np.arange(self.n_rays, dtype=np.int32), self.n)


def trace_batch(geometry: GridGeometry, origins: np.ndarray, directions: np.ndarray) -> TraceTable:
    """The traces of many rays in one table, TABLE_CHUNK rays a pass: the
    cells each ray's half-line t >= 0 crosses, in increasing t, from t = 0
    for a ray that starts inside the grid; a miss has n = 0."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    crossings = _axis_crossings if geometry.kind == "uniform" else _frustum_crossings
    t0, t1, alive = _hull(geometry, o, d)
    rows = np.flatnonzero(alive)
    n, t0 = np.zeros(len(o), dtype=np.int64), np.where(alive, t0, 0.0)
    del origins, directions  # only the rays that meet the grid from here on: the caller's can go
    o, d, enter, t1 = o[rows], d[rows], t0[rows, None], t1[rows, None]
    passes = [slice(i, i + TABLE_CHUNK) for i in range(0, rows.size, TABLE_CHUNK)]
    size = sum(_cell_bound(geometry, o[s], d[s], enter[s, 0], t1[s, 0]) for s in passes)
    cells, t_exit = _reserve(size, np.int32), _reserve(size, np.float64)
    end = 0
    for s in passes:
        n[rows[s]], c, t = _trace_rays(geometry, o[s], d[s], enter[s], t1[s], crossings)
        cells[end:end + c.size] = c  # raises if the bound were ever short
        t_exit[end:end + c.size] = t
        end += c.size
    return TraceTable(geometry, np.cumsum(n) - n, n, t0, cells[:end], t_exit[:end])


def _reserve(count: int, dtype) -> np.ndarray:
    """Space for ``count`` values: below 4 MiB, where numpy advises no huge
    pages, ``np.empty`` (its memory is reused), else an anonymous mapping."""
    nbytes = count * np.dtype(dtype).itemsize
    return np.empty(count, dtype) if nbytes < 1 << 22 else np.frombuffer(mmap.mmap(-1, nbytes), dtype, count)


def _cell_bound(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> int:
    """At least the cells the rays cross over (t0, t1): per ray one, and per axis the planes
    between its grid coordinates at t0 and t1, one more each side, at most (or if NaN) all."""
    if geom.kind == "uniform":  # |d| (t1 - t0) / h, a third of world_to_grid's cost
        span = np.abs(d) * ((t1 - t0)[:, None] / geom.cell_size)
    else:
        with np.errstate(invalid="ignore"):
            span = np.abs(geom.world_to_grid(o + t1[:, None] * d) - geom.world_to_grid(o + t0[:, None] * d))
    return len(o) + int(np.fmin(np.floor(span, out=span) + 2.0, np.array(geom.dims) - 1.0).sum())


def _trace_rays(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0: np.ndarray, t1: np.ndarray,
                crossings):
    """(n, cells, t_exit) of rays (o, d) that lie inside the grid's convex
    hull over (t0, t1), t0 < t1, both (R, 1); ``crossings`` is the grid
    kind's crossing function, whose ``base`` counts the planes it leaves
    out below each ray, times their strides."""
    ts, step, stride, base = crossings(geom, o, d, t0, t1)
    after = ts > t0
    inside = after & (ts < t1)  # NaN and +-inf from parallel planes fail
    crossed = np.count_nonzero(inside, axis=1)
    width = crossed.max() + 1  # segments of the longest trace
    # at t0 the ray is above plane k if it crossed it upward by then or
    # crosses it downward later (parallel: NaN or -inf, on or above it).
    # Counted from the crossing depths, no cell leaves the grid however they round.
    entry = base + (after == (step < 0.0)).astype(np.float64) @ stride
    np.copyto(ts, np.inf, where=~inside)
    flat = np.argsort(ts, axis=1)[:, :width - 1] + (np.arange(len(o)) * ts.shape[1])[:, None]
    cross = ts.ravel()[flat]
    step = step.ravel()[flat]
    del ts, after, inside  # the (R, P) arrays go before the (R, width) ones come

    # segment j runs from crossing j-1 (t0 for j = 0) to crossing j (t1
    # after the last); past the last, both depths are padding, inf and t1
    t_enter = np.concatenate([t0, cross], axis=1)
    t_exit = np.minimum(np.concatenate([cross, t1], axis=1), t1)
    cells = np.empty(t_exit.shape)  # integers, exact in float64
    cells[:, 0] = entry
    np.cumsum(step, axis=1, out=cells[:, 1:])
    cells[:, 1:] += cells[:, :1]
    keep = t_exit > t_enter  # drops the zero-length segments of edge and corner crossings
    return np.count_nonzero(keep, axis=1), cells[keep].astype(np.int32), t_exit[keep]


def _axis_crossings(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0, t1):
    """(depths, steps, strides, base) of the rays' crossings with every
    interior plane lo + k h of each axis: (R, P), (R, P), (P,) and 0, no
    plane being left out below."""
    nx, ny, _ = geom.dims
    lo, h = geom.aabb_min, geom.cell_size
    counts = np.array(geom.dims) - 1
    d = d + 0.0  # -0.0 -> +0.0: a parallel plane's depth is -inf or NaN iff the ray is on or above it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ts = np.concatenate([(lo[a] + np.arange(1, n) * h[a] - o[:, a:a + 1]) / d[:, a:a + 1]
                             for a, n in enumerate(geom.dims)], axis=1)
    stride = np.array([1.0, nx, nx * ny])
    return ts, np.repeat(np.sign(d) * stride, counts, axis=1), np.repeat(stride, counts), 0.0


def _hull_faces(geom: GridGeometry) -> list[tuple[np.ndarray, float, bool]]:
    """The six faces (normal, c, low) of the grid's hull: the plane normal . p
    = c where one grid coordinate is 0 (a low face) or the axis's cell count
    (a high face), the normal pointing up that axis, so the grid lies on the
    + side of a low face and the - side of a high one.  The box's faces are
    its axis planes, in axis order; the frustum's are its near and far
    planes and the planes x = c z, y = c z through the apex at its sides,
    normal (1, 0, -c) or (0, 1, -c) as in ``_frustum_crossings``."""
    if geom.kind == "uniform":
        return [(np.eye(3)[a], bound[a], low) for a in range(3)
                for bound, low in ((geom.aabb_min, True), (geom.aabb_max, False))]
    nx, ny, nz = geom.dims
    faces = [(np.array([0.0, 0.0, 1.0]), geom.alpha1 * np.exp(geom.alpha2 * k), k == 0) for k in (0, nz)]
    for a, n in ((0, nx), (1, ny)):
        for k in (0, n):
            normal = np.zeros(3)
            normal[a], normal[2] = 1.0, -geom.f * (k - n / 2.0)
            faces.append((normal, 0.0, k == 0))
    return faces


def _hull(geom: GridGeometry, o: np.ndarray, d: np.ndarray):
    """(t0, t1, alive): each ray's depths inside the grid's hull, clipped
    face by face.  A ray lying in a face is inside a low face and outside a
    high one, as floor() of its grid coordinate says; a depth t0 <= 0 is +0."""
    t0 = np.full(len(o), -np.inf)
    t1 = np.full(len(o), np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for normal, c, low in _hull_faces(geom):
            # a matrix-vector product rounds each ray's dot as a 1-D dot does;
            # an elementwise (d * normal).sum(1) can differ in the last bit
            rate = d @ normal
            gap = c - o @ normal  # > 0: the origin is below the plane
            t = gap / rate  # a rate below ~1e-308 overflows to +-inf, the right limit
            up, down = rate > 0.0, rate < 0.0
            enter, leave = (up, down) if low else (down, up)
            # on ties (+0 and -0) np.maximum and np.minimum return their second
            # argument, so t0 = max(..., 0.0) below is never -0
            np.maximum(t0, t, out=t0, where=enter)
            np.minimum(t1, t, out=t1, where=leave)
            # a parallel ray outside the face's half-space
            blocked = (rate == 0.0) & ((gap > 0.0) if low else (gap <= 0.0))
            t0[blocked] = np.inf
            t1[blocked] = -np.inf
    t0 = np.maximum(t0, 0.0)
    return t0, t1, t0 < t1


def _frustum_crossings(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0: np.ndarray,
                       t1: np.ndarray):
    """(depths, steps, strides, base) of the rays' crossings with the
    interior depth planes z = z_k and with a window of the planes
    x = c_k z, y = c_k z through the origin: (R, P), (R, P) and (P,).  A
    step's sign is that of the ray's rate across the plane, dz or
    d_x - c_k dz; ``base`` counts the apex planes below the windows, times
    their strides, (R,)."""
    nx, ny, nz = geom.dims
    ox, oy, oz = o[:, :1], o[:, 1:2], o[:, 2:]
    dx, dy, dz = d[:, :1], d[:, 1:2], d[:, 2:]
    zs = geom.alpha1 * np.exp(geom.alpha2 * np.arange(1, nz))
    ks_x, base_x = _apex_window(geom, ox, oz, dx, dz, t0, t1, nx)
    ks_y, base_y = _apex_window(geom, oy, oz, dy, dz, t0, t1, ny)
    cxs = geom.f * (ks_x - nx / 2.0)
    cys = geom.f * (ks_y - ny / 2.0)
    rate = np.concatenate([np.broadcast_to(dz, (len(o), nz - 1)), dx - cxs * dz, dy - cys * dz], axis=1)
    rate += 0.0  # -0.0 -> +0.0, as in _axis_crossings
    ts = np.concatenate([zs - oz, cxs * oz - ox, cys * oz - oy], axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ts /= rate
    stride = np.repeat(np.array([nx * ny, 1.0, nx]), [nz - 1, ks_x.shape[1], ks_y.shape[1]])
    step = np.sign(rate, out=rate)
    step *= stride
    return ts, step, stride, base_x + nx * base_y


def _apex_window(geom: GridGeometry, oa, oz, da, dz, t0, t1, n: int):
    """(ks, base): the planes k of one apex family (x or y) that a ray's
    window holds, (R, W) with W the widest window of the pass, and the
    number of the family's planes below each window, (R,).

    A ray's grid coordinate moves monotonically over (t0, t1), where z >=
    alpha1 > 0, so it crosses only the planes between its coordinates at t0
    and t1.  The window holds those and APEX_MARGIN more on each side, so
    every plane outside it is crossed neither in (t0, t1) nor near t0, and
    lies below the ray there iff it lies below the window.  A window
    narrower than W takes in the next planes above it (below it, at the top
    of the family), so every column is a real plane and none is padding; a
    NaN coordinate opens the window to every plane."""
    if n == 1:
        return np.empty((len(oa), 0)), 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g0 = (oa + t0 * da) / (geom.f * (oz + t0 * dz))
        g1 = (oa + t1 * da) / (geom.f * (oz + t1 * dz))
    lo = np.fmin(np.fmax(np.ceil(np.minimum(g0, g1) + n / 2.0) - APEX_MARGIN, 1.0), n - 1.0)
    hi = np.fmax(np.fmin(np.floor(np.maximum(g0, g1) + n / 2.0) + APEX_MARGIN, n - 1.0), 1.0)
    width = int((hi - lo).max()) + 1
    first = np.minimum(lo, n - width)
    return first + np.arange(width), first[:, 0] - 1.0


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
