"""Independent reference implementations used by the test suite only.

These deliberately avoid the production code paths they check: traversal
is validated by clipping each ray against every cell's six faces (and
that clip by dense point sampling), losses by enumerating every hard
occupancy configuration, gradients by the quadratic-time transcription of
the gradient sum, the batched first-hit search by a one-ray version, and
cell geometry by explicit bounding planes.  The dense payload scatter, the
two-reduction softmax, the two-branch sigmoid, ``ReferenceAdam``, the
chain rule written out (``reference_logit_grads``) and the padded loss
kernel (``padded``, ``padded_view_loss``) are the formulas the fitter used
before its flat payload scatter, slice-wise softmax, one-exp sigmoid,
in-place Adam update, in-place chain rule and length-sorted loss kernel,
kept to check those bit for bit; the padded kernel adds each padded row
left to right, not in numpy's row-sum order, and its gradients are added
in the order the kernel documents (``scatter_in_kernel_order``), not in
ray order.
``entries`` gathers a table's rows ray by ray, as the loss once did.
``event_probabilities``, ``mask_loss_closed_form`` and
``central_difference`` are direct formulas the loss is checked against;
``strip_view_loss`` is the one entrance to the loss, ``view_loss``, on
hand-built rays, whose losses tests read through ``per_ray``.  ``project``,
the inverse of ``pixel_rays``, checks the pixel rays by a round trip;
``RayTrace`` is one ray's row of a trace table (``trace_row``), and
``trace_one`` traces one ray, given as an origin and a direction as the
oracles take it, through ``trace_batch`` into one.  ``full_windows`` and
``full_crossings`` give the traversal kernel every plane of every axis,
as it took them before its per-ray windows.  ``crossing_hull`` is the hull
clip as one reduction over its faces' crossing depths, and
``crossing_clip_cells`` the cell clip with the frustum's planes through the
apex taken by that arithmetic too, the one rule the kernel keeps on every
plane; ``clip_cells`` takes those planes by a dot with their normals.
``rays_at_pixels`` reads a sample's observations pixel by pixel with 2-D
indexing, as the fitter did before it took its sampled rays from
``full_image_rays``;
``sampled_pixels`` and ``sampled_rows`` are the draw ``fit`` made with its
own view choice and per-view loop before it drew through ``sample_rays``.
``threshold_sweep`` is the IoU sweep as one pass per threshold, the way
``best_threshold`` computed it before it counted in sorted occupancies;
``frustum_world_to_grid`` is the frustum chart with one guarded
``np.where`` per coordinate.  ``row_inside_box`` is what a trace clipped to
a box of cells should hold: the full trace's cells inside the box.
"""

from dataclasses import dataclass

import numpy as np

from drc.cameras import pixel_rays
from drc import consistency
from drc.consistency import (AUX_KINDS, ESCAPE_COLOR, LOG_PROB_FLOOR, OBJECT_ESCAPE_DEPTH, SCENE_ESCAPE_DEPTH,
                             RayBatch, ViewLossResult, view_loss)
from drc.grid import AuxGrid, GridGeometry, OccupancyGrid, same_geometry
from drc.metrics import THRESHOLDS, IoUResult, strip_table
from drc.traversal import trace_batch


def event_probabilities(x_r) -> np.ndarray:
    """Termination-event distribution of a ray, length N+1 (escape last)."""
    x = np.asarray(x_r, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x_r must be a 1-D vector of emptiness probabilities")
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("emptiness probabilities must lie in [0, 1]")
    cum = np.cumprod(x)
    pre = np.concatenate([[1.0], cum[:-1]])
    p = np.empty(x.size + 1)
    p[:-1] = (1.0 - x) * pre
    p[-1] = cum[-1] if x.size else 1.0
    return p


def mask_loss_closed_form(x_r, s_r: int) -> float:
    """|prod_i x_i - s_r|: the mask ray loss collapses to reprojected emptiness."""
    if s_r not in (0, 1):
        raise ValueError(f"s_r must be 0 or 1, got {s_r!r}")
    x = np.asarray(x_r, dtype=np.float64)
    return float(abs((np.prod(x) if x.size else 1.0) - s_r))


def central_difference(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one component at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.shape)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += h
        xm[i] -= h
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2.0 * h)
    return grad


def strip_view_loss(kind, x, bounds, payload=None, **fields):
    """``view_loss`` on rays of weight 1 that cross cells of their own
    (``strip_table``): ray r crosses len(bounds[r]) - 1 cells with
    emptiness x[r] and, for payload kinds, payload rows payload[r];
    ``fields`` are the rays' s, d, c as in RayBatch.  Returns the result
    and each ray's slice of the flat cells."""
    table = strip_table(bounds)
    geom, n = table.geometry, table.n
    pad = geom.ncells - int(n.sum())  # 1 when no ray crosses a cell: a grid keeps one
    occ = OccupancyGrid(geom, np.concatenate([*map(np.ravel, x), np.ones(pad)]).reshape(geom.shape))
    aux = None
    if payload is not None:
        rows = np.concatenate(payload)  # (n_r, D) per ray
        d = rows.shape[1]
        rows = np.concatenate([rows, np.full((pad, d), 1.0 / d)])
        aux = AuxGrid(geom, AUX_KINDS[kind], rows.reshape(*geom.shape, d))
    res = view_loss(occ, RayBatch(kind, np.ones(n.size), **fields), aux, traces=table)
    return res, [slice(a, a + b) for a, b in zip(table.start, n)]


def random_strip_rays(rng, kind, count, max_cells, min_cells=0):
    """``count`` random rays of one kind for ``strip_view_loss``, of
    ``min_cells`` to ``max_cells`` cells each: (x, bounds, payload, obs,
    fields), the per-ray emptiness, segment bounds, payload rows (None for
    kinds without) and observation as ``reference_psi`` takes it, and the
    rays' RayBatch fields."""
    n = rng.integers(min_cells, max_cells + 1, count)
    x = [rng.uniform(size=k) for k in n]
    bounds = [np.cumsum(rng.uniform(0.05, 0.5, k + 1)) for k in n]
    payload = None
    if kind == "mask":
        fields = {"s": rng.integers(0, 2, count)}
        obs = fields["s"]
    elif kind == "depth":
        fields = {"d": rng.uniform(0.1, 12.0, count)}
        obs = fields["d"]
    elif kind == "depth_semantics":
        payload = [np.maximum(rng.dirichlet(np.ones(4), size=k), 1e-6) for k in n]
        payload = [p / p.sum(axis=1, keepdims=True) for p in payload]
        fields = {"d": rng.uniform(0.1, 12.0, count), "c": rng.integers(0, 4, count)}
        obs = list(zip(fields["d"], fields["c"]))
    else:
        payload = [rng.uniform(size=(k, 3)) for k in n]
        fields = {"c": rng.uniform(size=(count, 3))}
        obs = fields["c"]
    return x, bounds, payload, obs, fields


def strip_psi(kind, bounds, obs, payload=None):
    """``reference_psi`` of a ``strip_view_loss`` ray of segment bounds ``bounds``."""
    b = np.asarray(bounds, dtype=np.float64)
    return reference_psi(kind, 0.5 * (b[:-1] + b[1:]), obs, payload)


def brute_force_ray_loss(x_r, psi) -> float:
    """Exhaustive expectation over all 2^N hard occupancy configurations.

    Each configuration b (b_j = 1 means cell j is empty) has probability
    prod_j (x_j if b_j else 1-x_j) and costs psi(first non-empty cell), or
    psi(escape) when every cell is empty.  Independent oracle for the
    per-ray loss; N is capped at 20.
    """
    x = np.asarray(x_r, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    n = x.size
    if n > 20:
        raise ValueError(f"brute force is limited to N <= 20 cells, got {n}")
    if psi.size != n + 1:
        raise ValueError(f"psi must have length N+1 = {n + 1}, got {psi.size}")
    if n == 0:
        return float(psi[0])
    empty = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    probs = np.prod(np.where(empty, x, 1.0 - x), axis=1)
    any_occ = ~empty.all(axis=1)
    first_occ = np.argmax(~empty, axis=1)
    event = np.where(any_occ, first_occ, n)
    return float(probs @ psi[event])


def iou_at(pred, gt, threshold: float) -> float:
    """IoU of {occupancy >= threshold} against the hard ground truth."""
    if not same_geometry(pred.geometry, gt.geometry):
        raise ValueError("prediction and ground truth live on different geometries")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    pred_occ = (1.0 - pred.flat) >= threshold
    union = np.count_nonzero(pred_occ | gt.flat)
    if union == 0:
        return 1.0
    return np.count_nonzero(pred_occ & gt.flat) / union


def threshold_sweep(pred, gt) -> IoUResult:
    """``metrics.best_threshold`` as first written: one ``iou_at`` pass over
    every cell per threshold, the best the first of the highest."""
    ious = np.array([iou_at(pred, gt, t) for t in THRESHOLDS])
    best = int(np.argmax(ious))
    return IoUResult(float(ious[best]), float(THRESHOLDS[best]),
                     tuple((float(t), float(i)) for t, i in zip(THRESHOLDS, ious)))


def pixel_to_ray(camera, u: float, v: float):
    """The world-frame ray (origin, unit direction) of one pixel coordinate (u, v)."""
    origins, directions = pixel_rays(camera, np.asarray([u]), np.asarray([v]))
    return origins[0], directions[0]


def project(camera, points) -> np.ndarray:
    """World points (..., 3) -> pixel coordinates (..., 2), the inverse of
    ``pixel_rays``.  Perspective projection requires positive camera-frame
    depth."""
    p_cam = np.asarray(points, dtype=np.float64) @ camera.rotation.T + camera.translation
    a, b, u0, v0 = camera.intrinsics
    if camera.model == "perspective":
        z = p_cam[..., 2]
        if np.any(z <= 0.0):
            raise ValueError("cannot project points at or behind the perspective camera")
        return np.stack([a * p_cam[..., 0] / z + u0, b * p_cam[..., 1] / z + v0], axis=-1)
    return np.stack([p_cam[..., 0] / a + u0, p_cam[..., 1] / b + v0], axis=-1)


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


def trace_row(table, i):
    """Ray i of a ``TraceTable`` as a ``RayTrace``: it enters its first cell
    at t0 and every later cell where it left the one before."""
    at = np.arange(table.start[i], table.start[i] + table.n[i])
    t_exit = table.t_exit[at]
    return RayTrace(table.geometry, table.cells[at], np.concatenate([table.t0[i:i + 1], t_exit])[:-1], t_exit)


def trace_one(geom, origin, direction):
    """The ``RayTrace`` of one ray: ``trace_batch`` on a table of that ray."""
    return trace_row(trace_batch(geom, np.asarray(origin, dtype=np.float64)[None],
                                 np.asarray(direction, dtype=np.float64)[None]), 0)


def dense_payload_scatter(cells, valid, p_events, dpsi_dp, weights, ncells):
    """(ncells, D) payload gradient: the dense (R, L, D) products p_event *
    dpsi_dp * weight over the valid slots, added in ``view_loss``'s order
    (``scatter_in_kernel_order``)."""
    contrib = p_events[:, :, None] * dpsi_dp * weights[:, None, None]
    return scatter_in_kernel_order(cells, contrib, valid.sum(axis=1), ncells)


def scatter_in_kernel_order(cells, values, n, size):
    """``np.add.at`` of padded per-cell ``values`` ((R, L) or (R, L, D))
    into zeros of ``size`` rows, in the order ``view_loss`` documents for R
    rays of n >= 0 cells each, left-aligned in the L slots.

    The rays go in passes: a pass ends before the first ray whose cells,
    counted from the first ray's, reach the next multiple of LOSS_CHUNK.
    Each pass is added into zeros of its own, slot by slot, within a slot
    the longest rays first (ties in ray order), and the passes are then
    added to the total in turn.
    """
    ends = np.cumsum(n)
    bounds = np.arange(consistency.LOSS_CHUNK, ends[-1], consistency.LOSS_CHUNK)
    pass_of = np.count_nonzero(ends[:, None] >= bounds, axis=1)
    ray, slot = np.nonzero(np.arange(cells.shape[1]) < n[:, None])
    order = np.lexsort((ray, -n[ray], slot, pass_of[ray]))
    ray, slot = ray[order], slot[order]
    total = np.zeros((size, *values.shape[2:]))
    for p in np.unique(pass_of):
        here = pass_of[ray] == p
        part = np.zeros_like(total)
        np.add.at(part, cells[ray[here], slot[here]], values[ray[here], slot[here]])
        total += part
    return total


def entries(table):
    """(cells, d) of every cell the rows of ``table`` cross, ray by ray and
    along each ray: the cell and its event depth 0.5 * (t_enter + t_exit)."""
    first = np.cumsum(table.n) - table.n  # each ray's first cell in the result
    at = np.arange(table.n.sum()) + np.repeat(table.start - first, table.n)
    t_enter = table.t_exit[at - 1]  # -1 only at a first cell, set next
    hit = table.n > 0
    t_enter[first[hit]] = table.t0[hit]
    return table.cells[at], 0.5 * (t_enter + table.t_exit[at])


def two_branch_sigmoid(z):
    """1 / (1 + exp(-z)) on z >= 0 and exp(z) / (1 + exp(z)) elsewhere, each
    branch on its own boolean-mask gather."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_reduction_softmax(z):
    """Softmax over the last axis with one max and one sum reduction."""
    m = z - z.max(axis=-1, keepdims=True)
    e = np.exp(m)
    return e / e.sum(axis=-1, keepdims=True)


class ReferenceAdam:
    """Adam as the fitter wrote it before its in-place update: every step
    builds new moment and update arrays."""

    def __init__(self, shape, step, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step, self.beta1, self.beta2, self.eps = step, beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, param, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        param -= self.step * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_logit_grads(occ, aux, grad_x, grad_p):
    """The chain rule through the fitter's squashing maps, each product as
    written and into new arrays: g x (1 - x), g p (1 - p) for color and
    p (g - <g, p>) for semantics.  None stays None."""
    gx = gp = None
    if grad_x is not None:
        gx = grad_x * occ.x * (1.0 - occ.x)
    if grad_p is not None:
        p = aux.payload
        if aux.kind == "color":
            gp = grad_p * p * (1.0 - p)
        else:
            gp = p * (grad_p - np.sum(grad_p * p, axis=-1, keepdims=True))
    return gx, gp


def min_cell_extent(geom):
    if geom.kind == "uniform":
        return geom.cell_size.min()
    # the smallest frustum cells are in the first depth layer
    z0 = geom.alpha1
    z1 = geom.alpha1 * np.exp(geom.alpha2)
    return min(z1 - z0, geom.f * z0)


def dense_sample_cells(geom, origin, direction, step_factor=1e-4, chunk=1_000_000):
    """Walk the ray at a tiny fixed step, record the grid cell under each
    sample, deduplicate consecutive runs.  Chunked to bound memory (long
    scene rays need millions of samples)."""
    corners = np.array([geom.grid_to_world((gx, gy, gz))
                        for gx in (0, geom.dims[0])
                        for gy in (0, geom.dims[1])
                        for gz in (0, geom.dims[2])])
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    t_max = np.max(np.linalg.norm(corners - origin, axis=1)) + 1.0
    step = step_factor * min_cell_extent(geom)
    n_samples = int(np.ceil(t_max / step))
    dims = np.asarray(geom.dims, dtype=np.float64)
    pieces = []
    last = None
    for start in range(0, n_samples, chunk):
        ts = (start + np.arange(min(chunk, n_samples - start))) * step
        g = geom.world_to_grid(origin + ts[:, None] * direction)
        with np.errstate(invalid="ignore"):
            inside = np.all((g >= 0.0) & (g < dims), axis=1)
        ijk = np.floor(g[inside]).astype(np.int64)
        cells = np.ravel_multi_index((ijk[:, 2], ijk[:, 1], ijk[:, 0]), geom.shape)
        if cells.size == 0:
            continue
        keep = np.concatenate([[True], cells[1:] != cells[:-1]])
        cells = cells[keep]
        if last is not None and cells.size and cells[0] == last:
            cells = cells[1:]
        if cells.size:
            pieces.append(cells)
            last = cells[-1]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def cell_faces(geom):
    """Every cell as a convex polyhedron {p : a . p <= b}: (a, b) of shapes
    (ncells, 6, 3) and (ncells, 6), the six ``cell_bounds_world`` planes of
    each cell, low and high face of each axis in turn."""
    planes = [cell_bounds_world(geom, i) for i in range(geom.ncells)]
    return (np.array([[p.normal for p in cell] for cell in planes]),
            np.array([[p.offset for p in cell] for cell in planes]))


def clip_cells(geom, origin, direction, faces=None):
    """(cells, t_enter, t_exit) of every cell the ray's half-line t >= 0
    crosses over a positive length, ordered by entry depth: the ray is
    clipped against each cell's faces (``cell_faces``) independently.  A
    ray lying in a cell's low face is inside the cell, one lying in its high
    face outside it, so a ray in a plane between two cells is in the upper."""
    a, b = cell_faces(geom) if faces is None else faces
    return _clip(a @ np.asarray(direction, dtype=np.float64), b - a @ np.asarray(origin, dtype=np.float64))


def crossing_clip_cells(geom, origin, direction, faces=None):
    """``clip_cells`` with a frustum's planes x = c z and y = c z through
    the apex taken by the crossing arithmetic, gap c oz - ox and rate
    dx - c dz (y likewise), signed to the cell's side, instead of a dot with
    their normals; on every other plane the dot adds only exact zeros."""
    o, d = np.asarray(origin, dtype=np.float64), np.asarray(direction, dtype=np.float64)
    a, b = cell_faces(geom) if faces is None else faces
    ad, slack = a @ d, b - a @ o
    if geom.kind == "frustum":
        ijk = geom.unravel(np.arange(geom.ncells))
        for axis in (0, 1):
            for side, sign in ((0, -1.0), (1, 1.0)):  # the cell's low plane, then its high one
                c = geom.f * (ijk[axis] + side - geom.dims[axis] / 2.0)
                slack[:, 2 * axis + side] = sign * (c * o[2] - o[axis])
                ad[:, 2 * axis + side] = sign * (d[axis] - c * d[2])
    return _clip(ad, slack)


def _clip(ad, slack):
    """The clip of ``clip_cells`` from each cell face's rate ``ad`` and slack,
    (ncells, 6) each, low and high face of each axis in turn."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = slack / ad
    t_in = np.maximum(np.where(ad < 0.0, t, -np.inf).max(axis=1), 0.0)
    t_out = np.where(ad > 0.0, t, np.inf).min(axis=1)
    # a face parallel to the ray excludes the cell or constrains nothing
    high = np.arange(6) % 2 == 1
    outside = ((ad == 0.0) & np.where(high, slack <= 0.0, slack < 0.0)).any(axis=1)
    cells = np.flatnonzero(~outside & (t_in < t_out))
    cells = cells[np.argsort(t_in[cells], kind="stable")]
    return cells, t_in[cells], t_out[cells]


def naive_grad_x(x, psi):
    """O(N^2) transcription of the gradient sum."""
    x = np.asarray(x, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    n = x.size
    grad = np.zeros(n)
    for k in range(n):
        for i in range(k, n):
            prod = 1.0
            for j in range(i + 1):
                if j != k:
                    prod *= x[j]
            grad[k] += (psi[i + 1] - psi[i]) * prod
    return grad


def reference_psi(kind, d, obs, payload=None):
    """Event costs (N+1,) of one ray written out from their definitions, one
    event at a time.  ``d`` are the N event depths; ``obs`` is s (mask),
    d_r (depth), (d_r, c_r) (depth_semantics) or an RGB triple (color);
    ``payload`` is the (N, D) array of per-cell class distributions or colors."""
    n = len(d)
    if kind == "mask":
        return np.array([float(obs)] * n + [1.0 - obs])
    if kind == "depth":
        return np.array([abs(d[i] - obs) for i in range(n)] + [abs(OBJECT_ESCAPE_DEPTH - obs)])
    if kind == "depth_semantics":
        d_r, c_r = obs
        cells = [abs(1.0 / d[i] - 1.0 / d_r) - np.log(max(payload[i][c_r], 1e-8)) for i in range(n)]
        return np.array(cells + [abs(1.0 / SCENE_ESCAPE_DEPTH - 1.0 / d_r) + np.log(payload.shape[1])])
    cells = [0.5 * sum((payload[i][j] - obs[j]) ** 2 for j in range(3)) for i in range(n)]
    return np.array(cells + [0.5 * sum((1.0 - obs[j]) ** 2 for j in range(3))])


def surface_cells(occ):
    """Occupied cells with at least one empty 6-neighbor."""
    padded = np.pad(occ, 1)
    all_nb = np.ones_like(occ, dtype=bool)
    for axis in range(3):
        for shift in (1, -1):
            all_nb &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return occ & ~all_nb


def shape_scale(bgrid):
    """Largest bounding-box extent of the occupied cells, in world units."""
    iz, iy, ix = np.nonzero(bgrid.occ)
    h = bgrid.geometry.cell_size
    extents = np.array([(ix.max() - ix.min() + 1) * h[0],
                        (iy.max() - iy.min() + 1) * h[1],
                        (iz.max() - iz.min() + 1) * h[2]])
    return float(extents.max())


@dataclass(frozen=True, eq=False)
class Plane:
    """World-space plane n . p = d, normal pointing out of the cell."""

    normal: np.ndarray
    offset: float

    def signed_distance(self, points):
        return np.asarray(points, dtype=np.float64) @ self.normal - self.offset


def cell_bounds_world(geometry, index):
    """Six bounding planes of a cell, normals pointing outward (unit, but
    for a frustum's planes through the apex).

    Order: (-x, +x, -y, +y, -z, +z) in grid-axis sense.  Uniform cells are
    bounded by axis-aligned planes; frustum cells by two z = const planes
    and four planes through the origin.
    """
    if not (0 <= index < geometry.ncells):
        raise ValueError(f"cell index {index} out of range [0, {geometry.ncells})")
    ix, iy, iz = (int(v) for v in geometry.unravel(index))
    nx, ny, _ = geometry.dims
    planes = []
    if geometry.kind == "uniform":
        # plane k of an axis at lo + k h, the last at the box's top face, as
        # the kernel places them: the two cells a plane divides share it
        h = geometry.cell_size
        ijk = np.array([ix, iy, iz])
        lo = geometry.aabb_min + ijk * h
        hi = np.where(ijk + 1 == geometry.dims, geometry.aabb_max, geometry.aabb_min + (ijk + 1) * h)
        for axis in range(3):
            n = np.zeros(3)
            n[axis] = -1.0
            planes.append(Plane(n, -lo[axis]))
            planes.append(Plane(-n, hi[axis]))
        return tuple(planes)
    # Frustum: lateral boundaries are planes through the origin.  Grid
    # coordinate gx = c corresponds to {p : p_x - f*(c - nx/2)*p_z = 0};
    # the normal (1, 0, -f*(c - nx/2)) is left unnormalized, as the
    # traversal kernel's, so both round a . o and a . d alike.
    for c, axis, lower in ((ix, 0, True), (ix + 1, 0, False), (iy, 1, True),
                           (iy + 1, 1, False), (iz, None, True), (iz + 1, None, False)):
        sign = -1.0 if lower else 1.0
        if axis is None:
            z = geometry.alpha1 * np.exp(geometry.alpha2 * c)
            planes.append(Plane(sign * np.array([0.0, 0.0, 1.0]), sign * z))
        else:
            half = nx / 2.0 if axis == 0 else ny / 2.0
            n = np.zeros(3)
            n[axis] = 1.0
            n[2] = -geometry.f * (c - half)
            # interior lies on the +g side of the lower plane, -g side of upper
            planes.append(Plane(sign * n, 0.0))
    return tuple(planes)


def first_hit(bgrid, tr):
    """First traversed cell with occ = True, as (cell index, depth d); None if
    the ray escapes."""
    if not same_geometry(bgrid.geometry, tr.geometry):
        raise ValueError("binary grid and trace were built on different geometries")
    occ = bgrid.flat[tr.cells]
    hits = np.nonzero(occ)[0]
    if hits.size == 0:
        return None
    i = hits[0]
    return int(tr.cells[i]), float(tr.d[i])


# ---------------------------------------------------------------------------
# The padded loss kernel: every ray's trace left-aligned in (rays, slots)
# arrays, one view per call
# ---------------------------------------------------------------------------


def padded(table):
    """(cells, d, valid), each (n_rays, W): every ray's trace left-aligned
    in W slots, W = max_len rounded up to a multiple of 8, at least 8.  d is
    the event depth per cell, 0.5 * (t_enter + t_exit).  Padding is cell 0
    at depth 0, and ``valid`` is False there; a ray of no cells is all
    padding.  ``padded_telescope`` adds a row left to right, so its zero
    terms on padding leave a ray's sum as the kernel rounds it.
    """
    width = max(8, -(-table.max_len // 8) * 8)
    valid = np.arange(width) < table.n[:, None]
    at = np.where(valid, table.start[:, None] + np.arange(width), 0)
    if not table.cells.size:  # every ray missed
        return at, np.zeros(at.shape), valid
    t_enter = table.t_exit[at - 1]  # -1 only at a first cell or padding; slot 0 set next
    t_enter[:, 0] = table.t0
    d = 0.5 * (t_enter + table.t_exit[at])
    return np.where(valid, table.cells[at], 0), np.where(valid, d, 0.0), valid


def padded_event_costs(rays, d_mid, valid, cells, payload=None, label_weight=1.0):
    """(R, L) cell-event costs, (R,) escape costs, then the payload
    derivative or None: (R, L) d psi / d p(c) at the observed class c for
    depth_semantics, the (R, L, 3) d psi / d p for color.  Row r is ray r
    of the ``RayBatch`` ``rays``."""
    kind, s, d, c = rays.kind, rays.s, rays.d, rays.c
    if kind == "mask":
        psi = np.broadcast_to(s[:, None].astype(np.float64), d_mid.shape).copy()
        return psi, 1.0 - s.astype(np.float64), None
    if kind == "depth":
        psi = np.abs(np.where(valid, d_mid, 1.0) - d[:, None])
        return psi, np.abs(OBJECT_ESCAPE_DEPTH - d), None
    if kind == "depth_semantics":
        pc = np.maximum(payload[cells, c[:, None]], LOG_PROB_FLOOR)
        disparity = np.abs(1.0 / np.where(valid, d_mid, 1.0) - 1.0 / d[:, None])
        psi = disparity - label_weight * np.log(pc)
        psi_esc = np.abs(1.0 / SCENE_ESCAPE_DEPTH - 1.0 / d) + label_weight * np.log(payload.shape[1])
        return psi, psi_esc, -label_weight / pc
    diff = payload[cells] - c[:, None, :]
    psi = 0.5 * np.sum(diff * diff, axis=2)
    psi_esc = 0.5 * np.sum((ESCAPE_COLOR - c) ** 2, axis=1)
    return psi, psi_esc, diff


def padded_telescope(x, valid, psi, psi_esc, *, backward=True, events=False):
    """(R,) per-ray losses, then (R, L) d(loss)/dx if ``backward`` and (R, L)
    cell-event probabilities if ``events`` (else None); both zero on padding.
    ``x`` is emptiness, 1 on padding slots.  A ray's loss is psi_1 plus its
    terms added left to right from zero."""
    cum = np.cumprod(x, axis=1)
    pre = np.concatenate([np.ones((x.shape[0], 1)), cum[:, :-1]], axis=1)
    psi = np.where(valid, psi, psi_esc[:, None])
    dpsi = np.concatenate([psi[:, 1:], psi_esc[:, None]], axis=1) - psi
    terms = dpsi * cum
    total = np.zeros(x.shape[0])
    for k in range(terms.shape[1]):
        total += terms[:, k]
    per_ray = psi[:, 0] + total
    grad = p_events = None
    if backward:
        s = np.zeros_like(dpsi)
        s[:, -1] = dpsi[:, -1]
        for k in range(psi.shape[1] - 2, -1, -1):
            s[:, k] = dpsi[:, k] + x[:, k + 1] * s[:, k + 1]
        grad = np.where(valid, pre * s, 0.0)
    if events:
        p_events = np.where(valid, (1.0 - x) * pre, 0.0)
    return per_ray, grad, p_events


def padded_view_loss(occ, rays, aux=None, *, label_weight=1.0, traces):
    """``view_loss`` through the padded kernel, on one table whose rows are
    the rays: the loss is one dot of the weights with the per-ray losses,
    and the gradients are added in the kernel's order
    (``scatter_in_kernel_order``)."""
    geom = occ.geometry
    payload = None if aux is None else aux.flat
    cells, d_mid, valid = padded(traces)
    x = np.where(valid, occ.flat[cells], 1.0)
    psi, psi_esc, dpsi = padded_event_costs(rays, d_mid, valid, cells, payload, label_weight)
    per_ray, grad, p_events = padded_telescope(x, valid, psi, psi_esc, events=dpsi is not None)
    loss = float(rays.weights @ per_ray)
    weights = rays.weights
    contrib = None
    if rays.kind == "depth_semantics":  # dense over the K classes, zero off the observed one
        dense = np.zeros((*dpsi.shape, aux.nchannels))
        dense[np.arange(rays.n_rays)[:, None], np.arange(dpsi.shape[1]), rays.c[:, None]] = dpsi
        contrib = p_events[:, :, None] * dense * weights[:, None, None]
    elif rays.kind == "color":
        contrib = p_events[:, :, None] * dpsi * weights[:, None, None]

    n = valid.sum(axis=1)
    grad_x = scatter_in_kernel_order(cells, grad * weights[:, None], n, geom.ncells)
    grad_p = None
    if payload is not None:
        grad_p = scatter_in_kernel_order(cells, contrib, n, geom.ncells).reshape(*geom.shape, aux.nchannels)
    return ViewLossResult(loss, per_ray, grad_x.reshape(geom.shape), grad_p)


# ---------------------------------------------------------------------------
# The traversal kernel's earlier plane sets and hull clip
# ---------------------------------------------------------------------------


def full_windows(geom, o, d, t0, t1):
    """``traversal._windows`` before there were windows: every ray's window
    holds every interior plane 1..n-1 of each axis."""
    nx, ny, nz = geom.dims
    return np.ones((len(o), 3), dtype=np.int64), np.tile([nx - 1, ny - 1, nz - 1], (len(o), 1))


def full_crossings(geom, a, o, d, first, gap, rate):
    """``traversal._crossings`` before windows: the gaps to every interior
    plane of axis a, numbered 1..n-1 as the kernel numbers them, and the
    rates across them, for ``full_windows``' planes: a box's planes
    lo + k h; a frustum's planes x = c_k z (a = 0) or y = c_k z (a = 1)
    through the apex, or its depth planes (a = 2)."""
    n = geom.dims[a]
    assert np.all(first == 1) and gap.shape[1] == n - 1
    k = np.arange(1, n)
    oz, dz = o[:, 2:], d[:, 2:]
    if geom.kind == "uniform":
        gap[:] = geom.aabb_min[a] + k * geom.cell_size[a] - o[:, a:a + 1]
        rate[:] = d[:, a:a + 1]
    elif a == 2:
        gap[:] = geom.alpha1 * np.exp(geom.alpha2 * k) - oz
        rate[:] = dz
    else:
        cs = geom.f * (k - n / 2.0)
        gap[:] = cs * oz - o[:, a:a + 1]
        rate[:] = d[:, a:a + 1] - cs * dz


def crossing_hull(geom, box, o, d):
    """``traversal._hull`` as one reduction over the box's six faces, (R, 6)
    arrays, each face's gap and rate written out as the crossing arithmetic
    of its plane: p - o_a and d_a for a box's planes aabb_min + k h (the
    last at aabb_max) and a frustum's depth planes, c oz - ox and dx - c dz
    for a frustum's planes x = c z through the apex (y likewise)."""
    gaps, rates, low = [], [], []
    for a, (lo, hi) in enumerate(box):
        n = geom.dims[a]
        k = np.arange(n + 1)
        for j, is_low in ((lo, True), (hi, False)):
            if geom.kind == "frustum" and a < 2:
                c = (geom.f * (k - n / 2.0))[j]
                gaps.append(c * o[:, 2] - o[:, a])
                rates.append(d[:, a] - c * d[:, 2])
            else:
                p = (geom.alpha1 * np.exp(geom.alpha2 * k) if geom.kind == "frustum"
                     else np.append(geom.aabb_min[a] + k[:-1] * geom.cell_size[a], geom.aabb_max[a]))[j]
                gaps.append(p - o[:, a])
                rates.append(d[:, a])
            low.append(is_low)
    gap, rate = np.stack(gaps, axis=1), np.stack(rates, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = gap / rate
    enter = np.where(low, rate > 0.0, rate < 0.0)
    leave = np.where(low, rate < 0.0, rate > 0.0)
    t0 = np.maximum(np.where(enter, t, -np.inf).max(axis=1), 0.0)
    t1 = np.where(leave, t, np.inf).min(axis=1)
    # a ray parallel to a face and outside its half-space: lying in a low face is inside it
    outside = ((rate == 0.0) & np.where(low, gap > 0.0, gap <= 0.0)).any(axis=1)
    t0[outside], t1[outside] = np.inf, -np.inf
    return t0, t1, t0 < t1


def slab_hull(geom, o, d):
    """The box clip by slabs, as the kernel clipped boxes before its one
    face-by-face hull: (R, 3) arrays reduced along their short last axis.
    A slab is half-open, so a ray lying in a top face misses."""
    lo, hi = geom.aabb_min, geom.aabb_max
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (lo - o) / d
        tb = (hi - o) / d
    zero = d == 0.0
    slab_in = (o >= lo) & (o < hi)
    tmin_ax = np.where(zero, np.where(slab_in, -np.inf, np.inf), np.minimum(ta, tb))
    tmax_ax = np.where(zero, np.where(slab_in, np.inf, -np.inf), np.maximum(ta, tb))
    t0 = np.maximum(tmin_ax.max(axis=1), 0.0)
    t1 = tmax_ax.min(axis=1)
    return t0, t1, t0 < t1


def rays_at_pixels(obs, us, vs, foreground_weight):
    """The ``RayBatch`` of integer pixels (us, vs): each channel and the
    foreground indexed at [vs, us]."""
    weights = np.where(obs.foreground()[vs, us], float(foreground_weight), 1.0)
    if obs.kind == "mask":
        return RayBatch("mask", weights, s=1.0 - obs.mask[vs, us].astype(np.float64))
    if obs.kind == "depth":
        return RayBatch("depth", weights, d=obs.depth[vs, us])
    if obs.kind == "depth_semantics":
        return RayBatch("depth_semantics", weights, d=obs.depth[vs, us], c=obs.classid[vs, us].astype(np.int64))
    return RayBatch("color", weights, c=obs.rgb[vs, us])


def sampled_pixels(cameras, n, views, seed, iteration):
    """[(view, us, vs)] of one fit iteration: the views (all, or a sorted
    draw without replacement from the generator of (seed, iteration,
    1 << 20)), each with max(1, n // views) pixels, ``us`` then ``vs``
    from the generator of (seed, iteration, view)."""
    chosen = list(range(len(cameras)))
    if views != len(cameras):
        rng = np.random.default_rng([seed, iteration, 1 << 20])
        chosen = sorted(rng.choice(len(cameras), size=views, replace=False))
    per_view = max(1, n // views)
    out = []
    for v in chosen:
        rng = np.random.default_rng([seed, iteration, v])
        us = rng.integers(0, cameras[v].width, per_view)
        vs = rng.integers(0, cameras[v].height, per_view)
        out.append((v, us, vs))
    return out


def sampled_rows(cameras, n, views, seed, iteration):
    """The ``image_traces`` rows of ``sampled_pixels``, view after view."""
    base = np.cumsum([0] + [c.width * c.height for c in cameras])
    return np.concatenate([base[v] + vs * cameras[v].width + us
                           for v, us, vs in sampled_pixels(cameras, n, views, seed, iteration)])


def row_inside_box(geom, row, box):
    """(cells, t_enter, t_exit) of a ``RayTrace``'s cells that lie in
    ``box`` (per axis an index range [lo, hi)), at the row's depths: what
    ``trace_batch`` with that box should give the ray."""
    ijk = np.stack(geom.unravel(row.cells), axis=-1)
    lo, hi = np.array(box).T
    inside = np.all((ijk >= lo) & (ijk < hi), axis=-1)
    return row.cells[inside], row.t_enter[inside], row.t_exit[inside]


def frustum_world_to_grid(geom, points):
    """``GridGeometry.world_to_grid`` of a frustum grid as it was first
    written: each coordinate by its own guarded ``np.where``, then stacked."""
    p = np.asarray(points, dtype=np.float64)
    nx, ny, _ = geom.dims
    z = p[..., 2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gz = np.where(z > 0.0, np.log(np.maximum(z, 1e-300) / geom.alpha1) / geom.alpha2, np.nan)
        gx = np.where(z > 0.0, p[..., 0] / (geom.f * z) + nx / 2.0, np.nan)
        gy = np.where(z > 0.0, p[..., 1] / (geom.f * z) + ny / 2.0, np.nan)
    return np.stack([gx, gy, gz], axis=-1)
