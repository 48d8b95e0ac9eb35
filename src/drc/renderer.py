"""Synthetic observation rendering and procedural ground-truth shapes.

Renders mask / depth / depth+semantics / color images of a hard
(BinaryGrid) shape.  Escape conventions match the loss exactly: depth
images use 10 m background (1000 m for the disparity-based semantic
setting), semantic images use class K-1 as background, color images a
white background.  Rendered depth is the midpoint depth of the first
occupied cell, the same convention the depth event cost uses, so a shape
is an exact minimizer of the loss against its own noiseless renders.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import images
from .cameras import Camera, image_grid_rays, load_camera, perspective_camera, pixel_rays, save_camera
from .consistency import (
    ESCAPE_COLOR,
    OBJECT_ESCAPE_DEPTH,
    RAY_KINDS,
    SCENE_ESCAPE_DEPTH,
    RayBatch,
)
from .errors import FormatError
from .grid import AuxGrid, BinaryGrid, unit_cube_geometry
from .traversal import first_hit_batch, trace_batch

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
        if self.classid is not None:
            if self.n_classes < 2:
                raise ValueError("depth_semantics observation needs n_classes >= 2")
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


def render(bgrid: BinaryGrid, camera: Camera, kind: str, aux: AuxGrid | None = None) -> Observation:
    """Render one observation of a hard shape by first-hit ray casting."""
    if kind not in RAY_KINDS:
        raise ValueError(f"render kind must be one of {RAY_KINDS}, got {kind!r}")
    if kind in ("depth_semantics", "color"):
        want = "semantics" if kind == "depth_semantics" else "color"
        if aux is None or aux.kind != want:
            raise ValueError(f"{kind} render needs an aux grid of kind {want!r}")
    origins, dirs = image_grid_rays(camera)
    hw = origins.shape[:2]
    table = trace_batch(bgrid.geometry, origins.reshape(-1, 3), dirs.reshape(-1, 3))
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
    if max_noise < 0.0:
        raise ValueError(f"max_noise must be >= 0, got {max_noise}")
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
                     radius: float = DEFAULT_VIEW_RADIUS, seed: int = 0, *,
                     target=(0.0, 0.0, 0.0), width: int = DEFAULT_IMAGE_SIZE,
                     height: int = DEFAULT_IMAGE_SIZE, hfov_deg: float = DEFAULT_HFOV_DEG,
                     azimuths=None, elevations=None) -> list[Camera]:
    """Perspective cameras at a fixed radius looking at the grid center.

    Azimuth is uniform over [0, 360) and elevation uniform over the given
    range (degrees above the horizon, +y up); both are deterministic under
    the seed.  Explicit ``azimuths`` / ``elevations`` lists override the
    sampling.  azimuth 0, elevation 0 puts the camera on the +z axis.
    """
    if n_views < 1:
        raise ValueError(f"need at least one view, got {n_views}")
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
    target = np.asarray(target, dtype=np.float64)
    cams = []
    for a_deg, e_deg in zip(az, el):
        a = np.radians(a_deg)
        e = np.radians(e_deg)
        pos = target + radius * np.array([np.cos(e) * np.sin(a), np.sin(e), np.cos(e) * np.cos(a)])
        cams.append(perspective_camera(pos, target, hfov_deg, width, height))
    return cams


# ---------------------------------------------------------------------------
# Observation bundles: a directory holding camera.txt, kind.txt and the
# image file(s) of the observation's kind.
# ---------------------------------------------------------------------------

_IMAGE_FILES = {"mask": ("mask.pgm",), "depth": ("depth.pfm",),
                "depth_semantics": ("depth.pfm", "labels.pgm"), "color": ("color.ppm",)}


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


def rays_from_pixels(obs: Observation, us, vs, foreground_weight: float = 1.0) -> RayBatch:
    """RayBatch for integer pixel indices (us, vs); rays pass pixel centers.

    Foreground pixels get ``foreground_weight``, background pixels 1.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    origins, dirs = pixel_rays(obs.camera, us + 0.5, vs + 0.5)
    fg = obs.foreground()[vs, us]
    weights = np.where(fg, float(foreground_weight), 1.0)
    s = d = c = None
    if obs.kind == "mask":
        s = 1.0 - obs.mask[vs, us].astype(np.float64)
    elif obs.kind == "depth":
        d = obs.depth[vs, us]
    elif obs.kind == "depth_semantics":
        d = obs.depth[vs, us]
        c = obs.classid[vs, us].astype(np.int64)
    else:
        c = obs.rgb[vs, us]
    return RayBatch(obs.kind, origins, dirs, weights, s=s, d=d, c=c, pixels=vs * obs.camera.width + us)


def full_image_rays(obs: Observation, foreground_weight: float = 1.0) -> RayBatch:
    """One ray per pixel of the observation, row-major order."""
    h, w = obs.camera.height, obs.camera.width
    vs, us = np.divmod(np.arange(h * w), w)
    return rays_from_pixels(obs, us, vs, foreground_weight)
