"""Exact ordered ray-grid intersection.

Both grid kinds share one kernel.  One plane table, ``_planes``, numbers
each axis's n + 1 cell boundary planes 0..n: a uniform grid's axis planes,
a frustum's planes x = c z and y = c z through the apex and its depth
planes.  One crossing function, ``_crossings``, gives a ray's gap to and
rate across a run of them, whose ratio is its depth there.  One clip,
``_hull``, gives the depths (t0, t1) inside the convex hull of a box of
whole cells, by default the whole grid, from its six faces, each taken from
``_crossings`` for that one plane: where a face is a plane the kernel
crosses, its depth is the one the kernel sorts, so a clipped trace is the
whole grid's trace's cells inside the box at its depths, to the bit.  One
window rule, ``_windows``, gives per ray and axis the interior planes it
can cross: those between its grid coordinates at t0 and t1, and one more on
each side.  The kernel takes the ray's depth at each plane of its windows
from ``_crossings``, signs the plane's stride in the linear cell index by
the ray's rate across it, sorts the crossings inside (t0, t1) once per ray,
counts the first cell from the planes the ray has passed at t0, and steps
from there.  The hull is convex, so the in-grid segments are contiguous.

Inside the hull every grid coordinate of both kinds moves monotonically
along a ray (the frustum's x/z and y/z too, as z >= alpha1 > 0), so a plane
outside a window is neither crossed in (t0, t1) nor on an uncertain side at
t0: the crossing depths would put it below the ray there exactly when it
lies below the window.  So the planes below a window go straight into the
first cell's count: the traces are those of the full plane set, to the bit.

Per-cell event depths d_i are the segment midpoints (t_enter + t_exit)/2:
rendered depth and the depth event cost share this convention, so a hard
shape is an exact minimizer of its own depth loss.

A ray through a cell edge or corner crosses two or three planes at one
depth.  The zero-length segments between them are dropped and the cell
after the last of them kept, so consecutive cells differ in exactly the
axes crossed there.  A ray lying on a plane belongs to the cell above it,
as floor() of its grid coordinate would say.  The hull's faces follow the
same rule: a ray lying in a low face (the box's lo on its axis, the
frustum's near plane among them) is inside the box, one lying in a high
face (its hi, the far plane among them) is outside.

``trace_batch`` returns the traces of many rays as one unpadded
``TraceTable``: per ray a start, a length and an entry depth, per traversed
cell its index and exit depth, which each pass writes after the last one's
into storage reserved from a bound on every ray's cell count, one more than
its windows' planes (from 4 MiB on an anonymous mapping, whose unwritten
pages never become resident).  Consecutive cells share their boundary, so a
cell's entry depth is the exit depth before it.
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

# planes of each axis a ray's window holds beyond those between its grid
# coordinates at t0 and t1, on each side; see _windows
WINDOW_MARGIN = 1


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

    def cell_rays(self) -> np.ndarray:
        """The ray of every entry of ``cells``, for a table that holds its
        rays' cells in ray order and nothing else, as ``trace_batch`` returns.
        int32, as ``cells`` is: per-entry index arrays built from it are
        as large as the table."""
        if self.cells.size != self.n.sum() or not np.array_equal(self.start, np.cumsum(self.n) - self.n):
            raise ValueError("table does not store its rays in order (a take() of another table?)")
        return np.repeat(np.arange(self.n_rays, dtype=np.int32), self.n)


def trace_batch(geometry: GridGeometry, origins: np.ndarray, directions: np.ndarray, box=None) -> TraceTable:
    """The traces of many rays in one table, TABLE_CHUNK rays a pass: the
    cells each ray's half-line t >= 0 crosses in ``box`` (per axis a cell
    index range [lo, hi); the whole grid by default), in increasing t, from
    t = 0 for a ray that starts inside it; a miss has n = 0.  On either
    grid kind a ray's row is its whole-grid row's cells inside the box, at
    the same depths to the bit.  Origins and directions are (R, 3) and
    finite, no direction is zero, and the box's bounds are integers."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    if o.ndim != 2 or o.shape[1] != 3 or o.shape != d.shape:
        raise ValueError(f"origins and directions must be (R, 3) arrays of one R, got {o.shape} and {d.shape}")
    if not (np.isfinite(o).all() and np.isfinite(d).all()):
        raise ValueError("ray origins and directions must be finite")
    if not ((d[:, 0] != 0.0) | (d[:, 1] != 0.0) | (d[:, 2] != 0.0)).all():  # d.any(axis=1) is ~4x slower
        raise ValueError("a ray direction must not be zero")
    box = [(0, n) for n in geometry.dims] if box is None else [(lo, hi) for lo, hi in box]
    integer = (int, np.integer)
    if len(box) != 3 or not all(isinstance(lo, integer) and isinstance(hi, integer) and 0 <= lo <= hi <= n
                                for (lo, hi), n in zip(box, geometry.dims)):
        raise ValueError(f"box must hold an integer range 0 <= lo <= hi <= n per axis of {geometry.dims}, got {box}")
    t0, t1, alive = _hull(geometry, o, d, box)
    rows = np.flatnonzero(alive)
    n, t0 = np.zeros(len(o), dtype=np.int64), np.where(alive, t0, 0.0)
    del origins, directions  # only the rays that meet the grid from here on: the caller's can go
    o, d, enter, t1 = o[rows], d[rows], t0[rows, None], t1[rows, None]
    lo, width = _windows(geometry, o, d, enter, t1)
    # a ray crosses one cell more than the planes it crosses, all in its windows
    size = rows.size + int(width.sum())
    cells, t_exit = _reserve(size, np.int32), _reserve(size, np.float64)
    end = 0
    for s in [slice(i, i + TABLE_CHUNK) for i in range(0, rows.size, TABLE_CHUNK)]:
        n[rows[s]], c, t = _trace_rays(geometry, o[s], d[s], enter[s], t1[s], lo[s], width[s])
        cells[end:end + c.size] = c  # raises if the bound were ever short
        t_exit[end:end + c.size] = t
        end += c.size
    return TraceTable(geometry, np.cumsum(n) - n, n, t0, cells[:end], t_exit[:end])


def _reserve(count: int, dtype) -> np.ndarray:
    """Space for ``count`` values: below 4 MiB, where numpy advises no huge
    pages, ``np.empty`` (its memory is reused), else an anonymous mapping."""
    nbytes = count * np.dtype(dtype).itemsize
    return np.empty(count, dtype) if nbytes < 1 << 22 else np.frombuffer(mmap.mmap(-1, nbytes), dtype, count)


def _windows(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """(lo, width): per ray and axis, the first interior plane (1..n-1) of
    the ray's window and the window's plane count, (R, 3) each, in the
    smallest integer type that holds the dims; t0 and t1 are (R, 1).  The
    window holds the planes between the ray's grid coordinates at t0 and t1
    and WINDOW_MARGIN more on each side; a NaN coordinate opens it to every
    plane, an axis one cell wide has none, and lo = n above every plane."""
    n = np.array(geom.dims, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 where t1 = inf: NaN
        g0, g1 = geom.world_to_grid(o + np.stack([t0, t1]) * d)
    lo = np.fmin(np.fmax(np.ceil(np.minimum(g0, g1)) - WINDOW_MARGIN, 1.0), n)  # NaN: 1
    hi = np.fmin(np.floor(np.maximum(g0, g1)) + WINDOW_MARGIN, n - 1.0)  # NaN: n - 1
    small = np.min_scalar_type(max(geom.dims))
    return lo.astype(small), np.fmax(hi - lo + 1.0, 0.0).astype(small)


def _trace_rays(geom: GridGeometry, o: np.ndarray, d: np.ndarray, t0: np.ndarray, t1: np.ndarray,
                lo: np.ndarray, width: np.ndarray):
    """(n, cells, t_exit) of rays (o, d) that lie inside the grid's convex
    hull over (t0, t1), t0 < t1, both (R, 1), whose planes crossed there
    lie in their windows (lo, width) from ``_windows``; ``_crossings`` gives
    the depths at those planes, called once per axis."""
    nx, ny, _ = geom.dims
    stride = np.array([1.0, nx, nx * ny])  # of a step across each axis's planes
    # per axis the pass's widest window, W planes: a narrower one takes in the
    # planes above it (below, at the top of the axis), so no column is padding
    widths = width.max(axis=0)
    first = np.minimum(lo, np.array(geom.dims) - widths)
    # per plane, the ray's gap (into ts) and rate (into step), whose ratio is its depth
    d = d + 0.0  # no rate is -0.0: a parallel plane's depth is -inf or NaN iff the ray is on or above it
    ts, step = np.empty((len(o), widths.sum())), np.empty((len(o), widths.sum()))
    for a, end in enumerate(np.cumsum(widths)):
        cols = slice(end - widths[a], end)
        _crossings(geom, a, o, d, first[:, a], ts[:, cols], step[:, cols])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(ts, step, out=ts)
    stride_of = np.repeat(stride, widths)
    # the stride signed by the rate; a parallel plane (rate +0.0, step +stride) is never crossed
    np.copysign(stride_of, step, out=step)
    after = ts > t0
    inside = ts < t1
    inside &= after  # NaN and +-inf from parallel planes fail
    crossed = np.count_nonzero(inside, axis=1)
    segments = crossed.max() + 1  # of the longest trace
    # at t0 the ray is above plane k if it crossed it upward by then or
    # crosses it downward later (parallel: NaN or -inf, on or above it), and
    # above every plane below its window.  Counted from the crossing depths,
    # no cell leaves the grid however they round.
    entry = (first - 1.0) @ stride + (after == (step < 0.0)).astype(np.float64) @ stride_of
    np.copyto(ts, np.inf, where=~inside)
    del after, inside  # each (R, P) array goes as soon as it is used, before the (R, segments) ones come
    flat = np.argsort(ts, axis=1)[:, :segments - 1] + (np.arange(len(o)) * ts.shape[1])[:, None]
    cross = ts.ravel()[flat]
    del ts
    step = step.ravel()[flat]
    del flat

    # segment j runs from crossing j-1 (t0 for j = 0) to crossing j (t1
    # after the last); past the last, both depths are padding, inf and t1
    t_enter, t_exit = np.concatenate([t0, cross], axis=1), np.concatenate([cross, t1], axis=1)
    del cross
    np.minimum(t_exit, t1, out=t_exit)
    cells = np.empty(t_exit.shape)  # integers, exact in float64
    cells[:, 0] = entry
    np.cumsum(step, axis=1, out=cells[:, 1:])
    del step
    cells[:, 1:] += cells[:, :1]
    keep = t_exit > t_enter  # drops the zero-length segments of edge and corner crossings
    return np.count_nonzero(keep, axis=1), cells[keep].astype(np.int32), t_exit[keep]


def _planes(geom: GridGeometry, a: int) -> np.ndarray:
    """The n + 1 planes across axis a, numbered 0..n: a uniform grid's
    aabb_min + k h, its corners at the ends; a frustum's slopes
    c_k = f (k - n/2) of the planes x = c_k z (a = 0) and y = c_k z (a = 1)
    through the apex, or its depths alpha1 exp(alpha2 k) (a = 2)."""
    n = geom.dims[a]
    if geom.kind == "uniform":
        inner = geom.aabb_min[a] + np.arange(1, n) * geom.cell_size[a]
        return np.concatenate([geom.aabb_min[a:a + 1], inner, geom.aabb_max[a:a + 1]])
    if a == 2:
        return geom.alpha1 * np.exp(geom.alpha2 * np.arange(n + 1))
    return geom.f * (np.arange(n + 1) - n / 2.0)


def _crossings(geom: GridGeometry, a: int, o: np.ndarray, d: np.ndarray, first: np.ndarray,
               gap: np.ndarray, rate: np.ndarray) -> None:
    """Writes each ray's gap to the W planes of axis a from plane ``first``
    on (a row of the windows of W consecutive planes of ``_planes``; (R,),
    or (1,) for one window shared by every ray) and its rate across them,
    (R, W) each, whose ratio is the ray's depth there: c oz - ox and
    dx - c dz for a plane x = c z through the apex (y likewise), else
    p - o_a and d_a."""
    planes, w = _planes(geom, a), gap.shape[1]
    # the windows as a strided view of the table: row k starts at plane k
    # (sliding_window_view builds the same view at several times the cost)
    windows = np.ndarray((planes.size - w + 1, w), planes.dtype, planes, strides=planes.strides * 2)
    p = np.take(windows, first, axis=0)
    if geom.kind == "frustum" and a < 2:
        np.subtract(d[:, a:a + 1], np.multiply(p, d[:, 2:], out=rate), out=rate)
        np.multiply(p, o[:, 2:], out=gap)
        gap -= o[:, a:a + 1]
    else:
        np.subtract(p, o[:, a:a + 1], out=gap)
        rate[:] = d[:, a:a + 1]


def _hull(geom: GridGeometry, o: np.ndarray, d: np.ndarray, box):
    """(t0, t1, alive): each ray's depths inside the box's hull, clipped
    face by face.  A face is the plane where one grid coordinate is the
    box's lo (a low face, the box on its + side) or hi (a high face, the box
    on its - side); its gap and rate are ``_crossings``' for that one plane,
    the rate positive up that axis.  The kernel takes its rates on d + 0.0,
    which changes only the sign of a zero rate, and the clip reads a zero
    rate's gap, not its sign.  A ray lying in a face is inside a low face and
    outside a high one, as floor() of its grid coordinate says; a depth
    t0 <= 0 is +0."""
    t0 = np.full(len(o), -np.inf)
    t1 = np.full(len(o), np.inf)
    gap, rate = np.empty((len(o), 1)), np.empty((len(o), 1))  # _crossings' (R, W) with W = 1
    g, r = gap[:, 0], rate[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, (lo, hi) in enumerate(box):
            for k, low in ((lo, True), (hi, False)):
                _crossings(geom, a, o, d, np.array([k]), gap, rate)  # g > 0: the origin is below the plane
                t = g / r  # a rate below ~1e-308 overflows to +-inf, the right limit
                up, down = r > 0.0, r < 0.0
                enter, leave = (up, down) if low else (down, up)
                # on ties (+0 and -0) np.maximum and np.minimum return their second
                # argument, so t0 = max(..., 0.0) below is never -0
                np.maximum(t0, t, out=t0, where=enter)
                np.minimum(t1, t, out=t1, where=leave)
                # a parallel ray outside the face's half-space
                blocked = (r == 0.0) & ((g > 0.0) if low else (g <= 0.0))
                t0[blocked] = np.inf
                t1[blocked] = -np.inf
    t0 = np.maximum(t0, 0.0)
    return t0, t1, t0 < t1


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
    # the hit cell's entry depth: t0 at the ray's first cell, else the exit before it
    enter = np.where(first == table.start[rays], table.t0[rays], table.t_exit[first - 1])
    depth[rays] = 0.5 * (enter + table.t_exit[first])
    return hit, cell, depth
