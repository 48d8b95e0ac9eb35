"""Calibrated camera models and per-pixel ray generation.

Extrinsics are stored world->camera: p_cam = R @ p_world + t.  Rays are
produced in the world frame by inverting.  The camera frame follows the
usual computer-vision convention: x right, y down, z forward (the viewing
direction).  When a full image is rasterized, pixel centers sit at
integer + 0.5 coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError

ROTATION_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Camera:
    """Perspective or orthographic camera.

    intrinsics: (f_u, f_v, u_0, v_0) in pixels for perspective;
    (s_u, s_v, u_0, v_0) with s_* in meters per pixel for orthographic.
    """

    model: str
    width: int
    height: int
    intrinsics: tuple[float, float, float, float]
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if self.model not in ("perspective", "orthographic"):
            raise ValueError(f"unknown camera model {self.model!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        a, b, _, _ = self.intrinsics
        if not np.all(np.isfinite(self.intrinsics)):
            raise ValueError(f"intrinsics must be finite, got {self.intrinsics}")
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"focal/scale intrinsics must be positive, got {self.intrinsics}")
        R = np.asarray(self.rotation, dtype=np.float64).copy()
        t = np.asarray(self.translation, dtype=np.float64).copy()
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("rotation and translation must be finite")
        if np.max(np.abs(R @ R.T - np.eye(3))) > ROTATION_ATOL:
            raise ValueError("rotation is not orthonormal (R @ R.T != I within 1e-9)")
        if abs(np.linalg.det(R) - 1.0) > ROTATION_ATOL:
            raise ValueError("rotation must have determinant +1")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "intrinsics", tuple(float(v) for v in self.intrinsics))

    @property
    def center_world(self) -> np.ndarray:
        """Camera center in world coordinates (perspective ray origin)."""
        return -self.rotation.T @ self.translation


def same_camera(a: Camera, b: Camera) -> bool:
    """Exact camera equality (model, image size and parameters)."""
    return a is b or ((a.model, a.width, a.height, a.intrinsics) == (b.model, b.width, b.height, b.intrinsics)
                      and np.array_equal(a.rotation, b.rotation)
                      and np.array_equal(a.translation, b.translation))


def pixel_rays(camera: Camera, u, v) -> tuple[np.ndarray, np.ndarray]:
    """World-frame rays for pixel coordinates: u, v arrays -> (origins, unit
    directions).

    Perspective rays leave the camera center in the direction
    ((u-u0)/f_u, (v-v0)/f_v, 1) expressed in the camera frame; orthographic
    rays all share the camera z-axis and originate on the image plane,
    offset by (s_u*(u-u0), s_v*(v-v0)).  Out-of-image pixels are allowed.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    a, b, u0, v0 = camera.intrinsics
    R = camera.rotation
    if camera.model == "perspective":
        d_cam = np.stack([(u - u0) / a, (v - v0) / b, np.ones_like(u)], axis=-1)
        d_world = d_cam @ R  # row-vector form of R.T @ d_cam
        # np.linalg.norm's sum over a short last axis, slice by slice: the
        # same three additions in the same order, five times faster
        x, y, z = d_world[..., 0], d_world[..., 1], d_world[..., 2]
        d_world /= np.sqrt((x * x + y * y) + z * z)[..., None]
        origins = np.broadcast_to(camera.center_world, d_world.shape).copy()
        return origins, d_world
    # orthographic
    o_cam = np.stack([a * (u - u0), b * (v - v0), np.zeros_like(u)], axis=-1)
    origins = (o_cam - camera.translation) @ R
    d_world = np.broadcast_to(R.T @ np.array([0.0, 0.0, 1.0]), origins.shape).copy()
    return origins, d_world


def image_grid_rays(camera: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Rays for every pixel center of the camera's image, shape (H, W, 3)."""
    us = np.arange(camera.width, dtype=np.float64) + 0.5
    vs = np.arange(camera.height, dtype=np.float64) + 0.5
    uu, vv = np.meshgrid(us, vs)
    return pixel_rays(camera, uu, vv)


def look_at_extrinsics(position, target, up=(0.0, 1.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """World->camera (R, t) for a camera at ``position`` looking at ``target``.

    Camera frame: x right, y down, z toward the target.  ``up`` is the world
    up direction used to fix roll.
    """
    position, target, up = (np.asarray(v, dtype=np.float64) for v in (position, target, up))
    for name, v in (("position", position), ("target", target), ("up", up)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"camera {name} must be finite, got {v.tolist()}")
    forward = target - position
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("camera position equals the look-at target")
    forward /= norm
    right = np.cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-12:
        raise ValueError("look direction is parallel to the up vector")
    right /= norm
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    return R, -R @ position


def perspective_camera(position, target, hfov_deg: float, width: int, height: int) -> Camera:
    """Convenience constructor: look-at perspective camera with square pixels."""
    if not (0.0 < hfov_deg < 180.0):
        raise ValueError(f"hfov must be in (0, 180) degrees, got {hfov_deg}")
    R, t = look_at_extrinsics(position, target)
    f = (width / 2.0) / np.tan(np.radians(hfov_deg) / 2.0)
    return Camera("perspective", width, height, (f, f, width / 2.0, height / 2.0), R, t)


# Camera file: one "key value..." pair per line, keys exactly as below.

_CAMERA_KEYS = ("model", "width", "height", "intrinsics", "rotation", "translation")


def save_camera(path, camera: Camera) -> None:
    lines = [
        f"model {camera.model}",
        f"width {camera.width}",
        f"height {camera.height}",
        "intrinsics " + " ".join(repr(v) for v in camera.intrinsics),
        "rotation " + " ".join(repr(float(v)) for v in camera.rotation.reshape(-1)),
        "translation " + " ".join(repr(float(v)) for v in camera.translation),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_camera(path) -> Camera:
    fields: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            key, *vals = line.split()
            if key not in _CAMERA_KEYS:
                raise FormatError(f"{path}:{lineno}: unknown camera field {key!r}")
            if key in fields:
                raise FormatError(f"{path}:{lineno}: duplicate camera field {key!r}")
            fields[key] = vals
    missing = [k for k in _CAMERA_KEYS if k not in fields]
    if missing:
        raise FormatError(f"{path}: missing camera fields {missing}")
    for key in ("model", "width", "height"):
        if len(fields[key]) != 1:
            raise FormatError(f"{path}: camera field {key!r} takes one value, got {fields[key]}")
    model = fields["model"][0]
    if model not in ("perspective", "orthographic"):
        raise FormatError(f"{path}: unknown camera model {model!r}")
    try:
        width = int(fields["width"][0])
        height = int(fields["height"][0])
        intr = tuple(float(v) for v in fields["intrinsics"])
        rot = np.array([float(v) for v in fields["rotation"]], dtype=np.float64)
        trans = np.array([float(v) for v in fields["translation"]], dtype=np.float64)
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed camera field: {exc}") from exc
    if len(intr) != 4 or rot.size != 9 or trans.size != 3:
        raise FormatError(f"{path}: wrong field arity (intrinsics 4, rotation 9, translation 3)")
    try:
        return Camera(model, width, height, intr, rot.reshape(3, 3), trans)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
