"""Synthetic observation rendering and procedural ground-truth shapes.

Renders mask / depth / depth+semantics / color images of a hard
(BinaryGrid) shape.  Escape conventions match the loss exactly: depth
images use 10 m background (1000 m for the disparity-based semantic
setting), semantic images use class K-1 as background, color images a
white background.  Rendered depth is the midpoint depth of the first
occupied cell, the same convention the depth event cost uses, so a shape
is an exact minimizer of the loss against its own noiseless renders.
``image_traces`` traces a camera set's pixels into one table for ``traces=``
(``camera_rows``: one camera's rows, views of its storage).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import images
from .cameras import Camera, image_grid_rays, load_camera, perspective_camera, same_camera, save_camera
from .cameras import pixel_rays  # noqa: F401  (perfbench patches renderer.pixel_rays)
from .consistency import (
    AUX_KINDS,
    ESCAPE_COLOR,
    OBJECT_ESCAPE_DEPTH,
    RAY_KINDS,
    SCENE_ESCAPE_DEPTH,
    RayBatch,
)
from .errors import FormatError
from .grid import AuxGrid, BinaryGrid, GridGeometry, same_geometry, unit_cube_geometry
from .traversal import TraceTable, first_hit_batch, trace_batch

DEFAULT_ELEVATION_RANGE = (-20.0, 30.0)
DEFAULT_VIEW_RADIUS = 2.2
DEFAULT_IMAGE_SIZE = 64
DEFAULT_HFOV_DEG = 50.0


@dataclass(frozen=True, eq=False)
class Observation:
    """One rendered (or loaded) image with its camera.

    Exactly the channels of its kind are set: ``mask`` (uint8 {0,1}),
    ``depth`` (float64 meters), ``classid`` (uint8) + ``n_classes``,
    ``rgb`` (float64 in [0,1]).
    """

    kind: str
    camera: Camera
    mask: np.ndarray | None = None
    depth: np.ndarray | None = None
    classid: np.ndarray | None = None
    n_classes: int = 0
    rgb: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RAY_KINDS:
            raise ValueError(f"observation kind must be one of {RAY_KINDS}, got {self.kind!r}")
        hw = (self.camera.height, self.camera.width)
        need = {"mask": ("mask",), "depth": ("depth",),
                "depth_semantics": ("depth", "classid"), "color": ("rgb",)}[self.kind]
        for name in ("mask", "depth", "classid", "rgb"):
            arr = getattr(self, name)
            if (arr is not None) != (name in need):
                raise ValueError(f"{self.kind} observation must set exactly {need}, problem with {name!r}")
            if arr is None:
                continue
            want = hw + (3,) if name == "rgb" else hw
            if arr.shape != want:
                raise ValueError(f"{name} has shape {arr.shape}, camera implies {want}")
        if self.mask is not None and not np.all((self.mask == 0) | (self.mask == 1)):
            raise ValueError("mask pixels must be 0 or 1")
        if self.depth is not None and not np.all(np.isfinite(self.depth) & (self.depth > 0.0)):
            raise ValueError("depth must be positive and finite everywhere")
        if self.rgb is not None and not np.all((self.rgb >= 0.0) & (self.rgb <= 1.0)):  # NaN fails
            raise ValueError("rgb must be finite and lie in [0, 1]")
        if self.classid is not None:
            if not 2 <= self.n_classes <= 256:  # class ids are 8-bit
                raise ValueError(f"depth_semantics observation needs 2 to 256 classes, got {self.n_classes}")
            if np.any(self.classid >= self.n_classes):
                raise ValueError("class ids must be < n_classes")

    @property
    def escape_depth(self) -> float:
        return SCENE_ESCAPE_DEPTH if self.kind == "depth_semantics" else OBJECT_ESCAPE_DEPTH

    def foreground(self) -> np.ndarray:
        """Boolean (H, W): pixels whose ray hit the shape.

        Depth kinds compare against the escape sentinel; color uses
        "not exactly background white" (fine for synthetic renders).
        """
        if self.kind == "mask":
            return self.mask == 1
        if self.kind in ("depth", "depth_semantics"):
            return self.depth < self.escape_depth
        return np.any(self.rgb != ESCAPE_COLOR, axis=2)


@dataclass(frozen=True, eq=False)
class ImageTraces(TraceTable):
    """An ``image_traces`` table, which remembers the cameras it traced."""

    cameras: tuple

    @property
    def first_rows(self) -> np.ndarray:
        """Each camera's first row, then the table's row count."""
        return first_rows_of(self.cameras)

    def camera_rows(self, first: int, stop: int | None = None) -> "ImageTraces":
        """Cameras ``first`` to ``stop - 1`` (``first`` alone by default) as a
        table of their own: ``start`` rebased to 0, views of the other arrays."""
        stop = first + 1 if stop is None else stop
        a, b = self.first_rows[[first, stop]]
        cells = slice(self.start[a], self.start[b - 1] + self.n[b - 1])
        return ImageTraces(self.geometry, self.start[a:b] - cells.start, self.n[a:b], self.t0[a:b],
                           self.cells[cells], self.t_exit[cells], self.cameras[first:stop])


def first_rows_of(cameras) -> np.ndarray:
    """Each camera's first row of the cameras' ``image_traces`` table, then
    the table's row count."""
    return np.cumsum([0] + [c.width * c.height for c in cameras])


def image_traces(geometry: GridGeometry, cameras) -> ImageTraces:
    """The traces of every pixel ray of the cameras' images in one table,
    camera after camera and row-major within a camera, for the ``traces=``
    of ``render``, ``fit``, ``fuse_depth`` and ``carve_masks``."""
    cameras = tuple(cameras)
    rows = first_rows_of(cameras)
    rays = np.empty((2, rows[-1], 3))  # origins, directions
    for camera, a, b in zip(cameras, rows[:-1], rows[1:]):
        rays[:, a:b] = [r.reshape(-1, 3) for r in image_grid_rays(camera)]
    rays = list(rays)  # handed over, not kept: trace_batch frees the rays that miss after its clip
    return ImageTraces(**vars(trace_batch(geometry, rays.pop(0), rays.pop())), cameras=cameras)


def view_traces(cameras: list[Camera], geometry: GridGeometry, traces=None) -> ImageTraces:
    """The ``image_traces`` table of ``cameras`` on ``geometry``: ``traces``,
    checked to be that table, or, without ``traces``, built here."""
    if traces is None:
        return image_traces(geometry, cameras)
    if not (isinstance(traces, ImageTraces) and len(traces.cameras) == len(cameras)
            and all(map(same_camera, traces.cameras, cameras))):
        raise ValueError("trace table was not traced for these cameras, in this order (as image_traces)")
    if not same_geometry(traces.geometry, geometry):
        raise ValueError("trace table was built on a different geometry")
    if traces.n_rays != traces.first_rows[-1]:
        raise ValueError(f"trace table holds {traces.n_rays} rays, its images have {traces.first_rows[-1]}")
    return traces


def occupied_box(bgrid: BinaryGrid) -> list[tuple[int, int]]:
    """Per axis (x, y, z) the index range [lo, hi) of the grid's occupied
    cells, for ``trace_batch``'s box; (0, 0) on every axis of an empty grid."""
    spans = [np.flatnonzero(bgrid.occ.any(axis=other)) for other in ((0, 1), (0, 2), (1, 2))]
    return [(int(k[0]), int(k[-1]) + 1) if k.size else (0, 0) for k in spans]


def render(bgrid: BinaryGrid, camera: Camera, kind: str, aux: AuxGrid | None = None, *,
           traces: ImageTraces | None = None) -> Observation:
    """Render one observation of a hard shape by first-hit ray casting.

    ``traces`` is the camera's ``image_traces`` table (or its ``camera_rows``
    of one of several cameras) on the grid's geometry, if the caller has it.
    Without it the grid, of either kind, traces only its ``occupied_box``,
    which holds every first hit at the whole grid's depths to the bit.
    """
    if kind not in RAY_KINDS:
        raise ValueError(f"render kind must be one of {RAY_KINDS}, got {kind!r}")
    want = AUX_KINDS.get(kind)
    if want is not None and (aux is None or aux.kind != want):
        raise ValueError(f"{kind} render needs an aux grid of kind {want!r}")
    if kind == "depth_semantics" and aux.nchannels > 256:  # labels.pgm holds 8-bit class ids
        raise ValueError(f"labels are 8-bit: a render takes at most 256 classes, got {aux.nchannels}")
    hw = (camera.height, camera.width)
    if traces is None:
        rays = (r.reshape(-1, 3) for r in image_grid_rays(camera))
        table = trace_batch(bgrid.geometry, *rays, occupied_box(bgrid))
    else:
        table = view_traces([camera], bgrid.geometry, traces)
    hit, cell, depth = first_hit_batch(bgrid, table)
    hit = hit.reshape(hw)
    cell = cell.reshape(hw)
    depth = depth.reshape(hw)

    if kind == "mask":
        return Observation(kind, camera, mask=hit.astype(np.uint8))
    if kind == "depth":
        return Observation(kind, camera, depth=np.where(hit, depth, OBJECT_ESCAPE_DEPTH))
    if kind == "depth_semantics":
        k = aux.nchannels
        classid = np.full(hw, k - 1, dtype=np.uint8)  # background class is K-1
        classid[hit] = np.argmax(aux.flat[cell[hit]], axis=1).astype(np.uint8)
        return Observation(kind, camera, depth=np.where(hit, depth, SCENE_ESCAPE_DEPTH),
                           classid=classid, n_classes=k)
    rgb = np.broadcast_to(ESCAPE_COLOR, hw + (3,)).copy()
    rgb[hit] = aux.flat[cell[hit]]
    return Observation(kind, camera, rgb=rgb)


def add_depth_noise(obs: Observation, max_noise: float, seed: int) -> Observation:
    """Perturb foreground depths by iid uniform noise in [-max_noise, +max_noise].

    Counter-based generator keyed on the seed, so the noise field does not
    depend on evaluation order.  Depths are clamped to stay positive;
    background pixels keep the escape sentinel.
    """
    if obs.kind != "depth":
        raise ValueError(f"depth noise applies to 'depth' observations, got {obs.kind!r}")
    if not 0.0 <= max_noise <= np.finfo(np.float64).max / 2:  # uniform() needs a finite width
        raise ValueError(f"max_noise must be >= 0 and finite, got {max_noise}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed % (1 << 64))))
    noise = rng.uniform(-max_noise, max_noise, size=obs.depth.shape)
    fg = obs.foreground()
    noisy = np.where(fg, np.maximum(obs.depth + noise, 1e-9), obs.depth)
    return replace(obs, depth=noisy)


# ---------------------------------------------------------------------------
# Procedural test shapes
# ---------------------------------------------------------------------------

SHAPE_NAMES = ("sphere", "cuboid", "chair_like")

# barrel-chair proportions in grid-fraction units (y is up).  The body is a
# solid cylinder, which silhouettes carve almost exactly; the deliberate
# concavity is the seat tub, which no silhouette can see.
_CHAIR = {
    "body_r": 0.27,          # cylinder radius about (0.5, 0.5) in (x, z)
    "body_y": (0.05, 0.58),  # solid up to the seat rim
    "tub_r": 0.14,           # cavity tub carved into the seat top
    "tub_y": (0.50, 0.58),
    "back_y": (0.58, 0.74),  # backrest: rear arc of the rim annulus
    "back_min_z": 0.62,      # rear means cell center z beyond this
}


def _cell_center_fractions(dims):
    nx, ny, nz = dims
    fx = (np.arange(nx) + 0.5) / nx
    fy = (np.arange(ny) + 0.5) / ny
    fz = (np.arange(nz) + 0.5) / nz
    # index order (iz, iy, ix) to match field storage
    gz, gy, gx = np.meshgrid(fz, fy, fx, indexing="ij")
    return gx, gy, gz


def _in(lo_hi, v):
    lo, hi = lo_hi
    return (v >= lo) & (v < hi)


def _chair_parts(dims):
    gx, gy, gz = _cell_center_fractions(dims)
    c = _CHAIR
    r2 = (gx - 0.5) ** 2 + (gz - 0.5) ** 2
    in_body = r2 <= c["body_r"] ** 2
    in_tub = r2 <= c["tub_r"] ** 2
    body = in_body & _in(c["body_y"], gy) & ~(in_tub & _in(c["tub_y"], gy))
    back = in_body & ~in_tub & _in(c["back_y"], gy) & (gz >= c["back_min_z"])
    return body, back


def chair_cavity_mask(dims) -> np.ndarray:
    """Cells of the seat cavity: empty space laterally enclosed by the seat
    rim (and backrest), open only at the top."""
    gx, gy, gz = _cell_center_fractions(dims)
    c = _CHAIR
    r2 = (gx - 0.5) ** 2 + (gz - 0.5) ** 2
    return (r2 <= c["tub_r"] ** 2) & _in(c["tub_y"], gy)


def make_test_shape(name: str, dims, aux_kind: str = "color", n_classes: int = 4):
    """Deterministic voxelized shape plus a piecewise-constant payload.

    Returns (BinaryGrid, AuxGrid) on the unit-cube geometry.  chair_like
    has a seat cavity (see chair_cavity_mask) that silhouettes cannot
    carve; sphere and cuboid are convex.
    """
    if name not in SHAPE_NAMES:
        raise ValueError(f"unknown shape {name!r}, want one of {SHAPE_NAMES}")
    dims = tuple(int(d) for d in dims)
    if min(dims) < 8:
        raise ValueError(f"shape dims must be >= 8 per axis, got {dims}")
    if aux_kind not in ("color", "semantics"):
        raise ValueError(f"aux_kind must be 'color' or 'semantics', got {aux_kind!r}")
    geom = unit_cube_geometry(dims)
    gx, gy, gz = _cell_center_fractions(dims)

    # two-tone part labels; label 0 is also used as "background-ish" filler
    if name == "sphere":
        r2 = (gx - 0.5) ** 2 + (gy - 0.5) ** 2 + (gz - 0.5) ** 2
        occ = r2 <= 0.4**2
        part = (gy >= 0.5).astype(np.int64)  # upper / lower hemisphere
    elif name == "cuboid":
        occ = _in((0.2, 0.8), gx) & _in((0.3, 0.7), gy) & _in((0.3, 0.7), gz)
        part = (gx >= 0.5).astype(np.int64)
    else:
        body, back = _chair_parts(dims)
        occ = body | back
        part = np.zeros(occ.shape, dtype=np.int64)
        part[body] = 1
        part[back] = 2

    if aux_kind == "color":
        tones = np.array([[0.75, 0.25, 0.15], [0.15, 0.35, 0.80], [0.20, 0.65, 0.25]])
        payload = tones[part]
        aux = AuxGrid(geom, "color", payload)
    else:
        if n_classes < 3:
            raise ValueError("semantic shapes need n_classes >= 3 (two parts + background)")
        payload = np.zeros((*geom.shape, n_classes))
        flat_part = part.reshape(-1)
        payload.reshape(-1, n_classes)[np.arange(flat_part.size), flat_part] = 1.0
        aux = AuxGrid(geom, "semantics", payload)
    return BinaryGrid(geom, occ), aux


def sample_view_ring(n_views: int, elevation_range=DEFAULT_ELEVATION_RANGE,
                     radius: float = DEFAULT_VIEW_RADIUS, seed: int = 0, *, width: int = DEFAULT_IMAGE_SIZE,
                     height: int = DEFAULT_IMAGE_SIZE, hfov_deg: float = DEFAULT_HFOV_DEG,
                     azimuths=None, elevations=None) -> list[Camera]:
    """Perspective cameras at a fixed radius from the origin, the object
    grid's center, looking at it.

    Azimuth is uniform over [0, 360) and elevation uniform over the given
    range (degrees above the horizon, +y up); both are fixed by
    the seed.  Explicit ``azimuths`` / ``elevations`` lists override the
    sampling.  azimuth 0, elevation 0 puts the camera on the +z axis.
    """
    if n_views < 1:
        raise ValueError(f"need at least one view, got {n_views}")
    if not (0.0 < radius < np.inf):
        raise ValueError(f"view ring radius must be positive and finite, got {radius}")
    lo, hi = elevation_range
    if not (-90.0 < lo <= hi < 90.0):
        raise ValueError(f"elevation range must satisfy -90 < lo <= hi < 90, got {elevation_range}")
    rng = np.random.default_rng(seed)
    az = np.asarray(azimuths, dtype=np.float64) if azimuths is not None \
        else rng.uniform(0.0, 360.0, n_views)
    el = np.asarray(elevations, dtype=np.float64) if elevations is not None \
        else rng.uniform(lo, hi, n_views)
    if len(az) != n_views or len(el) != n_views:
        raise ValueError("azimuths/elevations overrides must have n_views entries")
    cams = []
    for a_deg, e_deg in zip(az, el):
        a = np.radians(a_deg)
        e = np.radians(e_deg)
        pos = radius * np.array([np.cos(e) * np.sin(a), np.sin(e), np.cos(e) * np.cos(a)])
        cams.append(perspective_camera(pos, (0.0, 0.0, 0.0), hfov_deg, width, height))
    return cams


# ---------------------------------------------------------------------------
# Observation bundles: a directory holding camera.txt, kind.txt and the
# image file(s) of the observation's kind.
# ---------------------------------------------------------------------------


def save_observation_bundle(directory, obs: Observation) -> None:
    os.makedirs(directory, exist_ok=True)
    save_camera(os.path.join(directory, "camera.txt"), obs.camera)
    kind_line = obs.kind if obs.kind != "depth_semantics" else f"depth_semantics {obs.n_classes}"
    with open(os.path.join(directory, "kind.txt"), "w", encoding="utf-8") as fh:
        fh.write(kind_line + "\n")
    if obs.kind == "mask":
        images.write_pgm(os.path.join(directory, "mask.pgm"), obs.mask, maxval=1)
    elif obs.kind == "depth":
        images.write_pfm(os.path.join(directory, "depth.pfm"), obs.depth)
    elif obs.kind == "depth_semantics":
        images.write_pfm(os.path.join(directory, "depth.pfm"), obs.depth)
        images.write_pgm(os.path.join(directory, "labels.pgm"), obs.classid, maxval=255)
    else:
        images.write_ppm(os.path.join(directory, "color.ppm"), obs.rgb)


def load_observation_bundle(directory) -> Observation:
    kind_path = os.path.join(directory, "kind.txt")
    try:
        with open(kind_path, "r", encoding="utf-8") as fh:
            tokens = fh.readline().split()
    except OSError as exc:
        raise FormatError(f"{directory}: missing kind manifest: {exc}") from exc
    if not tokens or tokens[0] not in RAY_KINDS:
        raise FormatError(f"{kind_path}: bad observation kind line {tokens!r}")
    kind = tokens[0]
    if kind != "depth_semantics" and len(tokens) != 1:
        raise FormatError(f"{kind_path}: {kind} manifest takes no arguments, got {tokens[1:]!r}")
    camera = load_camera(os.path.join(directory, "camera.txt"))
    if kind == "mask":
        img, maxval = images.read_pgm(os.path.join(directory, "mask.pgm"))
        if maxval != 1:
            raise FormatError(f"{directory}: mask.pgm must have maxval 1")
        channels = {"mask": img}
    elif kind == "color":
        rgb = images.read_ppm(os.path.join(directory, "color.ppm")).astype(np.float64) / 255.0
        channels = {"rgb": rgb}
    else:
        channels = {"depth": images.read_pfm(os.path.join(directory, "depth.pfm")).astype(np.float64)}
    if kind == "depth_semantics":
        if len(tokens) != 2:
            raise FormatError(f"{kind_path}: depth_semantics manifest needs a class count")
        channels["classid"], _ = images.read_pgm(os.path.join(directory, "labels.pgm"))
        try:
            channels["n_classes"] = int(tokens[1])
        except ValueError as exc:
            raise FormatError(f"{kind_path}: bad class count {tokens[1]!r}") from exc
    try:
        return Observation(kind, camera, **channels)
    except ValueError as exc:
        raise FormatError(f"{directory}: {exc}") from exc


def list_observation_bundles(directory) -> list[str]:
    """Immediate subdirectories that look like observation bundles, sorted."""
    if not os.path.isdir(directory):
        raise FormatError(f"{directory}: not a directory")
    out = []
    for name in sorted(os.listdir(directory)):
        sub = os.path.join(directory, name)
        if os.path.isdir(sub) and os.path.exists(os.path.join(sub, "kind.txt")):
            out.append(sub)
    return out


# ---------------------------------------------------------------------------
# Observation -> rays
# ---------------------------------------------------------------------------


def full_image_rays(obs: Observation, foreground_weight: float = 1.0) -> RayBatch:
    """One ray per pixel of the observation, row-major order: ray
    vs * width + us passes the center of pixel (us, vs), and its trace is
    that row of the camera's ``image_traces`` table.  Foreground pixels get
    ``foreground_weight``, background pixels 1; ``d`` and ``c`` may be views
    of the observation's images.
    """
    weights = np.where(obs.foreground().reshape(-1), float(foreground_weight), 1.0)
    if obs.kind == "mask":
        return RayBatch(obs.kind, weights, s=1.0 - obs.mask.reshape(-1).astype(np.float64))
    if obs.kind == "color":
        return RayBatch(obs.kind, weights, c=obs.rgb.reshape(-1, 3))
    c = obs.classid.reshape(-1).astype(np.int64) if obs.kind == "depth_semantics" else None
    return RayBatch(obs.kind, weights, d=obs.depth.reshape(-1), c=c)
