"""Voxel-grid geometries and the fields stored on them.

Two geometries are supported:

* ``uniform`` -- an axis-aligned box split into nx * ny * nz equal cells.
* ``frustum`` -- a perspective frustum whose cells are uniform in image
  projection and grow exponentially with depth.  Grid coordinates
  (gx, gy, gz) in [0,nx] x [0,ny] x [0,nz] map to world space via

      p = alpha1 * exp(alpha2 * gz) * (f*(gx - nx/2), f*(gy - ny/2), 1)

  so constant-gz boundaries are z-planes and constant-gx / constant-gy
  boundaries are planes through the origin.

IMPORTANT convention: ``OccupancyGrid.x`` stores the probability that a
cell is EMPTY, not occupied.  Occupancy in the usual sense is ``1 - x``.
All loss and gradient code in this package follows this convention.

Fields are stored as (nz, ny, nx) float64 arrays; the linear cell index is
the C-order flat index, i.e. ``(iz*ny + iy)*nx + ix`` (x fastest).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import FormatError

GRID_MAGIC = "DRC-GRID v1"

# Simplex tolerance for stored semantic payloads.  The gradient check's
# finite-difference probes move a row along e_j - p, which keeps it inside.
SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class GridGeometry:
    """Geometry of a voxel grid; immutable.

    ``aabb_min``/``aabb_max`` are set for uniform grids, ``alpha1``,
    ``alpha2``, ``f`` for frustum grids.
    """

    kind: str
    dims: tuple[int, int, int]
    aabb_min: np.ndarray | None = None
    aabb_max: np.ndarray | None = None
    alpha1: float = 0.0
    alpha2: float = 0.0
    f: float = 0.0

    @property
    def ncells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape (nz, ny, nx) whose C-order flat index is the cell index."""
        nx, ny, nz = self.dims
        return (nz, ny, nx)

    @property
    def cell_size(self) -> np.ndarray:
        """Uniform grids only: world extent of one cell per axis."""
        if self.kind != "uniform":
            raise ValueError("cell_size is defined for uniform grids only")
        return (self.aabb_max - self.aabb_min) / np.asarray(self.dims, dtype=np.float64)

    def unravel(self, index):
        nx, ny, _ = self.dims
        index = np.asarray(index)
        ix = index % nx
        iy = (index // nx) % ny
        iz = index // (nx * ny)
        return ix, iy, iz

    def grid_to_world(self, coords) -> np.ndarray:
        """Map continuous grid coordinates (..., 3) to world points."""
        g = np.asarray(coords, dtype=np.float64)
        nx, ny, _ = self.dims
        if self.kind == "uniform":
            return self.aabb_min + g / np.asarray(self.dims, dtype=np.float64) * (
                self.aabb_max - self.aabb_min
            )
        z = self.alpha1 * np.exp(self.alpha2 * g[..., 2])
        return np.stack(
            [
                z * self.f * (g[..., 0] - nx / 2.0),
                z * self.f * (g[..., 1] - ny / 2.0),
                z,
            ],
            axis=-1,
        )

    def world_to_grid(self, points) -> np.ndarray:
        """Map world points (..., 3) to continuous grid coordinates.

        Frustum grids require strictly positive world z; other points map
        to NaN coordinates (they are outside the chart of the frustum map).
        """
        p = np.asarray(points, dtype=np.float64)
        nx, ny, _ = self.dims
        if self.kind == "uniform":
            return (p - self.aabb_min) / (self.aabb_max - self.aabb_min) * np.asarray(
                self.dims, dtype=np.float64
            )
        z = p[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            gz = np.where(z > 0.0, np.log(np.maximum(z, 1e-300) / self.alpha1) / self.alpha2, np.nan)
            gx = np.where(z > 0.0, p[..., 0] / (self.f * z) + nx / 2.0, np.nan)
            gy = np.where(z > 0.0, p[..., 1] / (self.f * z) + ny / 2.0, np.nan)
        return np.stack([gx, gy, gz], axis=-1)

    def cell_center_world(self, index) -> np.ndarray:
        ix, iy, iz = self.unravel(index)
        centers = np.stack(
            [np.asarray(ix) + 0.5, np.asarray(iy) + 0.5, np.asarray(iz) + 0.5], axis=-1
        )
        return self.grid_to_world(centers)


def same_geometry(a: GridGeometry, b: GridGeometry) -> bool:
    """Exact geometry equality (kind, dims and parameters)."""
    if a is b:
        return True
    if a.kind != b.kind or a.dims != b.dims:
        return False
    if a.kind == "uniform":
        return np.array_equal(a.aabb_min, b.aabb_min) and np.array_equal(a.aabb_max, b.aabb_max)
    return (a.alpha1, a.alpha2, a.f) == (b.alpha1, b.alpha2, b.f)


def _check_dims(dims) -> tuple[int, int, int]:
    if len(dims) != 3:
        raise ValueError(f"dims must have 3 entries, got {dims!r}")
    nx, ny, nz = (int(d) for d in dims)
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError(f"dims must be >= 1 in every axis, got {(nx, ny, nz)}")
    return nx, ny, nz


def uniform_geometry(dims, aabb_min, aabb_max) -> GridGeometry:
    """Axis-aligned box geometry.  ``aabb_*`` are world corners in meters."""
    dims = _check_dims(dims)
    lo = np.asarray(aabb_min, dtype=np.float64).copy()
    hi = np.asarray(aabb_max, dtype=np.float64).copy()
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("aabb corners must be 3-vectors")
    if not np.all(np.isfinite(hi - lo) & (hi > lo)):  # inf or NaN corners fail
        raise ValueError(f"aabb must be finite with strictly positive extent per axis, got min {lo}, max {hi}")
    lo.flags.writeable = False
    hi.flags.writeable = False
    return GridGeometry(kind="uniform", dims=dims, aabb_min=lo, aabb_max=hi)


def unit_cube_geometry(dims) -> GridGeometry:
    """The default object-scale box: a 1 m cube centered at the origin."""
    return uniform_geometry(dims, (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def make_frustum_geometry(dims, z_min: float, z_max: float, hfov_deg: float) -> GridGeometry:
    """Frustum geometry from near/far planes (meters) and horizontal FOV.

    Solves the three constraints: near plane at z_min, far plane at z_max,
    horizontal half-angle hfov/2 at the +-nx/2 lateral boundaries:

        alpha1 = z_min
        alpha2 = ln(z_max / z_min) / nz
        f      = tan(hfov/2) / (nx/2)
    """
    dims = _check_dims(dims)
    if not (0.0 < z_min < z_max < np.inf):
        raise ValueError(f"need 0 < z_min < z_max < inf, got z_min={z_min}, z_max={z_max}")
    if not (0.0 < hfov_deg < 180.0):
        raise ValueError(f"hfov must be in (0, 180) degrees, got {hfov_deg}")
    nx, _, nz = dims
    alpha1 = float(z_min)
    alpha2 = float(np.log(z_max / z_min) / nz)
    f = float(np.tan(np.radians(hfov_deg) / 2.0) / (nx / 2.0))
    return GridGeometry(kind="frustum", dims=dims, alpha1=alpha1, alpha2=alpha2, f=f)


def _in_unit_interval(values: np.ndarray) -> bool:
    """Every value finite and in [0, 1]; NaN fails, unlike ``x < 0 | x > 1``."""
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Per-cell emptiness probabilities x on a geometry.

    x[iz, iy, ix] is the probability that the cell is EMPTY (in [0, 1]).
    Immutable; build a new grid to change the field.
    """

    geometry: GridGeometry
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.shape != self.geometry.shape:
            raise ValueError(f"x has shape {x.shape}, geometry needs {self.geometry.shape}")
        if not _in_unit_interval(x):
            raise ValueError("x (emptiness probabilities) must be finite and lie in [0, 1]")
        object.__setattr__(self, "x", _freeze(x))

    @property
    def flat(self) -> np.ndarray:
        """Linear-index view, index = (iz*ny + iy)*nx + ix."""
        return self.x.reshape(-1)

    def occupancy(self) -> np.ndarray:
        """1 - x, i.e. occupancy in the conventional sense."""
        return 1.0 - self.x


@dataclass(frozen=True, eq=False)
class AuxGrid:
    """Optional per-cell payload: RGB color or a K-class probability simplex.

    payload shape is (nz, ny, nx, 3) for color, (nz, ny, nx, K) for
    semantics.
    """

    geometry: GridGeometry
    kind: str
    payload: np.ndarray

    def __post_init__(self):
        if self.kind not in ("color", "semantics"):
            raise ValueError(f"aux kind must be 'color' or 'semantics', got {self.kind!r}")
        p = np.asarray(self.payload, dtype=np.float64)
        if p.ndim != 4 or p.shape[:3] != self.geometry.shape:
            raise ValueError(f"payload has shape {p.shape}, geometry needs {self.geometry.shape} + (D,)")
        if self.kind == "color":
            if p.shape[3] != 3:
                raise ValueError(f"color payload must have 3 channels, got {p.shape[3]}")
            if not _in_unit_interval(p):
                raise ValueError("color payload must be finite and lie in [0, 1] componentwise")
        else:
            if p.shape[3] < 2:
                raise ValueError("semantic payload needs at least 2 classes")
            if not np.all(p >= 0.0):
                raise ValueError("semantic payload must be nonnegative (and not NaN)")
            # the classes summed slice by slice, as fitter.softmax sums: numpy
            # reduces a short last axis far slower, and for K < 8 adds in
            # this order too
            total = p[..., 0].copy()
            for k in range(1, p.shape[3]):
                total += p[..., k]
            if np.any(np.abs(total - 1.0) > SIMPLEX_ATOL):
                raise ValueError(f"semantic payload rows must sum to 1 within {SIMPLEX_ATOL}")
        object.__setattr__(self, "payload", _freeze(p))

    @property
    def nchannels(self) -> int:
        return self.payload.shape[3]

    @property
    def flat(self) -> np.ndarray:
        return self.payload.reshape(-1, self.payload.shape[3])


@dataclass(frozen=True, eq=False)
class BinaryGrid:
    """Hard 0/1 occupancy, used as ground truth for rendering and IoU."""

    geometry: GridGeometry
    occ: np.ndarray

    def __post_init__(self):
        occ = np.asarray(self.occ, dtype=bool)
        if occ.shape != self.geometry.shape:
            raise ValueError(f"occ has shape {occ.shape}, geometry needs {self.geometry.shape}")
        object.__setattr__(self, "occ", _freeze(occ))

    @property
    def flat(self) -> np.ndarray:
        return self.occ.reshape(-1)

    def as_occupancy_grid(self) -> OccupancyGrid:
        """Emptiness view of the hard grid: x = 1 where empty, 0 where occupied."""
        return OccupancyGrid(self.geometry, np.where(self.occ, 0.0, 1.0))


def make_uniform_grid(dims, aabb, fill_x: float) -> OccupancyGrid:
    """Uniform grid with every cell's emptiness probability set to fill_x.

    ``aabb`` is (min_corner, max_corner) in meters.
    """
    if not (0.0 <= fill_x <= 1.0):
        raise ValueError(f"fill_x must lie in [0, 1], got {fill_x}")
    geom = uniform_geometry(dims, aabb[0], aabb[1])
    return OccupancyGrid(geom, np.full(geom.shape, float(fill_x)))


# ---------------------------------------------------------------------------
# DRC-GRID v1 file format
#
# Header line (UTF-8, '\n'-terminated):
#   DRC-GRID v1 <kind> <nx> <ny> <nz> <geom-params...> <aux> [key=value ...]
# kind: uniform | frustum | bin.  geom-params: 6 floats (AABB corners) for
# uniform geometry, 3 floats (alpha1 alpha2 f) for frustum; for kind 'bin'
# the geometry is told apart by the parameter count.  aux: none | color |
# sem:K.  Body: occupancy field first (float64 LE, x-fastest; one byte per
# cell for 'bin'), then the aux field (float64 LE, cell-major) if present.
# ---------------------------------------------------------------------------


def _geom_params(geometry: GridGeometry) -> list[str]:
    if geometry.kind == "uniform":
        return [repr(float(v)) for v in (*geometry.aabb_min, *geometry.aabb_max)]
    return [repr(float(v)) for v in (geometry.alpha1, geometry.alpha2, geometry.f)]


def _geom_from_params(dims, params: list[str]) -> GridGeometry:
    vals = [float(v) for v in params]
    if len(vals) == 6:
        return uniform_geometry(dims, vals[:3], vals[3:])
    if len(vals) == 3:
        nx, ny, nz = _check_dims(dims)
        if not all(0.0 < v < np.inf for v in vals):
            raise FormatError(f"frustum parameters must be positive and finite, got {vals}")
        return GridGeometry(kind="frustum", dims=(nx, ny, nz), alpha1=vals[0], alpha2=vals[1], f=vals[2])
    raise FormatError(f"expected 6 (uniform) or 3 (frustum) geometry parameters, got {len(vals)}")


def save_grid(path, grid, aux: AuxGrid | None = None, annotations: dict | None = None) -> None:
    """Write an OccupancyGrid or BinaryGrid (plus optional aux field) to a file."""
    if isinstance(grid, BinaryGrid):
        kind = "bin"
        body = grid.occ.astype(np.uint8).tobytes()
    elif isinstance(grid, OccupancyGrid):
        kind = grid.geometry.kind
        body = grid.x.astype("<f8").tobytes()
    else:
        raise TypeError(f"cannot save {type(grid).__name__} as a grid file")
    if aux is not None:
        if aux.geometry.dims != grid.geometry.dims or aux.geometry.kind != grid.geometry.kind:
            raise ValueError("aux geometry does not match the grid being saved")
        aux_tag = "color" if aux.kind == "color" else f"sem:{aux.nchannels}"
    else:
        aux_tag = "none"
    nx, ny, nz = grid.geometry.dims
    tokens = [GRID_MAGIC, kind, str(nx), str(ny), str(nz)]
    tokens += _geom_params(grid.geometry)
    tokens.append(aux_tag)
    for key in sorted(annotations or {}):
        tokens.append(f"{key}={annotations[key]}")
    with open(path, "wb") as fh:
        fh.write((" ".join(tokens) + "\n").encode("utf-8"))
        fh.write(body)
        if aux is not None:
            fh.write(aux.payload.astype("<f8").tobytes())


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    left = os.fstat(fh.fileno()).st_size - fh.tell()  # checked first: a header may claim any size
    if n > left:
        raise FormatError(f"grid file truncated: wanted {n} bytes, got {left}")
    return fh.read(n)


def load_grid(path):
    """Read a DRC-GRID v1 file.

    Returns (grid, aux, annotations) where grid is an OccupancyGrid or
    BinaryGrid, aux an AuxGrid or None, annotations a dict of trailing
    header key=value tokens.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", errors="replace").rstrip("\n")
        tokens = header.split(" ")
        if len(tokens) < 7 or " ".join(tokens[:2]) != GRID_MAGIC:
            raise FormatError(f"not a {GRID_MAGIC} file: bad header {header!r}")
        kind = tokens[2]
        if kind not in ("uniform", "frustum", "bin"):
            raise FormatError(f"unknown grid kind {kind!r}")
        try:
            dims = tuple(int(v) for v in tokens[3:6])
        except ValueError as exc:
            raise FormatError(f"bad dims in header {header!r}") from exc
        rest = tokens[6:]
        annotations = {}
        while rest and "=" in rest[-1]:
            key, _, val = rest.pop().partition("=")
            annotations[key] = val
        if not rest:
            raise FormatError("header missing aux tag")
        aux_tag = rest.pop()
        if aux_tag == "none":
            aux_channels = 0
            aux_kind = None
        elif aux_tag == "color":
            aux_channels, aux_kind = 3, "color"
        elif aux_tag.startswith("sem:") and aux_tag[4:].isdecimal():
            aux_channels, aux_kind = int(aux_tag[4:]), "semantics"
        else:
            raise FormatError(f"unknown aux tag {aux_tag!r}")
        try:
            geometry = _geom_from_params(dims, rest)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if kind in ("uniform", "frustum") and geometry.kind != kind:
            raise FormatError(f"header kind {kind!r} does not match its {geometry.kind!r} parameters")
        n = geometry.ncells
        if kind == "bin":
            raw = np.frombuffer(_read_exact(fh, n), dtype=np.uint8)
            grid = BinaryGrid(geometry, raw.reshape(geometry.shape).astype(bool))
        else:
            raw = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8")
            arr = raw.reshape(geometry.shape)
            if not _in_unit_interval(arr):
                raise FormatError("occupancy field not finite in [0, 1]")
            grid = OccupancyGrid(geometry, arr)
        aux = None
        if aux_kind is not None:
            raw = np.frombuffer(_read_exact(fh, 8 * n * aux_channels), dtype="<f8")
            try:
                aux = AuxGrid(geometry, aux_kind, raw.reshape(*geometry.shape, aux_channels))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        if fh.read(1):
            raise FormatError("grid file has bytes after its body")
    return grid, aux, annotations


