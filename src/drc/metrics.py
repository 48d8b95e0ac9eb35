"""Reconstruction metrics and the gradient check.

IoU against a hard ground truth is reported at the optimal binarization
threshold, swept over 0.00..1.00 in steps of 0.01 (ties go to the lower
threshold).  Binarization is on occupancy = 1 - x, i.e. a cell counts as
predicted-occupied iff (1 - x) >= threshold.

``run_gradcheck`` checks ``view_loss``'s analytic gradients against
central differences of its own per-ray losses, so it tests the kernel
``fit`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import AUX_KINDS, RAY_KINDS, RayBatch, view_loss
from .grid import AuxGrid, BinaryGrid, OccupancyGrid, same_geometry, uniform_geometry
from .traversal import TraceTable

THRESHOLDS = np.round(np.arange(101) / 100.0, 2)

GRADCHECK_REL_TOL = 1e-5
GRADCHECK_ABS_FLOOR = 1e-8
GRADCHECK_STEP = 1e-6
GRADCHECK_MAX_CELLS = 16
GRADCHECK_CLASSES = 4


@dataclass(frozen=True)
class IoUResult:
    best_iou: float
    best_threshold: float
    curve: tuple  # ((threshold, iou), ...)


def _iou(pred_occ: np.ndarray, gt_occ: np.ndarray) -> float:
    union = np.count_nonzero(pred_occ | gt_occ)
    if union == 0:
        return 1.0
    return np.count_nonzero(pred_occ & gt_occ) / union


def best_threshold(pred: OccupancyGrid, gt: BinaryGrid) -> IoUResult:
    """Sweep the binarization threshold and keep the best IoU."""
    if not same_geometry(pred.geometry, gt.geometry):
        raise ValueError("prediction and ground truth live on different geometries")
    occ = 1.0 - pred.flat
    gt_occ = gt.flat
    ious = np.array([_iou(occ >= t, gt_occ) for t in THRESHOLDS])
    best = int(np.argmax(ious))  # ties break toward the lower threshold
    curve = tuple((float(t), float(i)) for t, i in zip(THRESHOLDS, ious))
    return IoUResult(float(ious[best]), float(THRESHOLDS[best]), curve)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def strip_table(bounds) -> TraceTable:
    """The traces of rays that each cross cells of their own, one ray after
    another along an (E, 1, 1) strip: ray i enters its first cell at
    ``bounds[i][0]`` and leaves its k-th at ``bounds[i][k + 1]``, so it
    crosses ``len(bounds[i]) - 1`` cells; one of a single bound misses."""
    n = np.array([len(b) - 1 for b in bounds], dtype=np.int64)
    e = int(n.sum())
    geom = uniform_geometry((max(e, 1), 1, 1), (0.0, 0.0, 0.0), (max(e, 1), 1.0, 1.0))
    t_exit = np.array([t for b in bounds for t in b[1:]], dtype=np.float64)
    t0 = np.array([b[0] for b in bounds], dtype=np.float64)
    return TraceTable(geom, np.cumsum(n) - n, n, t0, np.arange(e, dtype=np.int32), t_exit)


def _worst_errors(analytic: np.ndarray, numeric: np.ndarray) -> tuple[float, float]:
    """(max absolute error, max relative error over components whose
    absolute error reaches the floor)."""
    err = np.abs(analytic - numeric)
    over = err >= GRADCHECK_ABS_FLOOR
    rel = err[over] / np.maximum(np.abs(analytic), np.abs(numeric))[over]
    return float(err.max(initial=0.0)), float(rel.max(initial=0.0))


@dataclass(frozen=True)
class GradcheckReport:
    kind: str
    trials: int
    max_rel_err_x: float
    max_rel_err_p: float  # nan for kinds without aux payloads, as max_abs_err_p
    max_abs_err_x: float  # the absolute errors are reported; the relative ones decide ok
    max_abs_err_p: float
    ok: bool


def run_gradcheck(kind: str, trials: int, seed: int) -> GradcheckReport:
    """Check ``view_loss``'s gradients against central differences.

    Each trial is one ray of a single ``strip_table``: 0 to 16 cells of its
    own, random segment depths, emptiness, weight and observation.  The
    analytic gradients come from one ``view_loss`` call; each difference
    moves the k-th cell of every ray at once and reads ``per_ray``.  Color
    payloads, drawn inside [0.01, 0.99], move one component at a time;
    semantic payloads move along e_j - p, which keeps a row on the simplex,
    so the check compares g_j - <g, p>, the derivative ``fit``'s softmax
    chain rule uses.
    """
    if kind not in RAY_KINDS:
        raise ValueError(f"kind must be one of {RAY_KINDS}, got {kind!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n = rng.integers(0, GRADCHECK_MAX_CELLS + 1, trials)
    table = strip_table([np.cumsum(rng.uniform(0.05, 0.5, k + 1)) for k in n])
    geom, e = table.geometry, int(n.sum())
    x = rng.uniform(0.02, 0.98, geom.ncells)
    weights = rng.uniform(0.5, 2.0, trials)
    depth = rng.uniform(0.1, 12.0, trials)
    payload = None
    if kind == "mask":
        fields = {"s": rng.integers(0, 2, trials)}
    elif kind == "depth":
        fields = {"d": depth}
    elif kind == "depth_semantics":
        fields = {"d": depth, "c": rng.integers(0, GRADCHECK_CLASSES, trials)}
        payload = np.maximum(rng.dirichlet(np.full(GRADCHECK_CLASSES, 2.0), geom.ncells), 1e-4)
        payload /= payload.sum(axis=1, keepdims=True)
    else:
        fields = {"c": rng.uniform(0.0, 1.0, (trials, 3))}
        payload = rng.uniform(0.01, 0.99, (geom.ncells, 3))
    rays = RayBatch(kind, weights, **fields)

    def loss(x, payload):
        aux = None if payload is None else AuxGrid(geom, AUX_KINDS[kind], payload.reshape(*geom.shape, -1))
        return view_loss(OccupancyGrid(geom, x.reshape(geom.shape)), rays, aux, traces=table)

    def slope(rows, dx=0.0, dp=0.0):
        """w d(per_ray)/dt of rays ``rows`` at (x + t dx, payload + t dp), t = 0."""
        h = GRADCHECK_STEP
        up, down = (loss(x + t * dx, None if payload is None else payload + t * dp).per_ray[rows]
                    for t in (h, -h))
        return weights[rows] * (up - down) / (2.0 * h)

    res = loss(x, payload)
    numeric_x = np.zeros(geom.ncells)
    numeric_p = None if payload is None else np.zeros(payload.shape)
    for k in range(int(n.max())):
        rows = np.flatnonzero(n > k)
        cells = table.start[rows] + k  # the k-th cell of each of these rays
        dx = np.zeros(geom.ncells)
        dx[cells] = 1.0
        numeric_x[cells] = slope(rows, dx=dx)
        for j in range(0 if payload is None else payload.shape[1]):
            dp = np.zeros(payload.shape)  # e_j for a color, e_j - p for a class distribution
            dp[cells] = np.eye(payload.shape[1])[j] - (payload[cells] if kind == "depth_semantics" else 0.0)
            numeric_p[cells, j] = slope(rows, dp=dp)

    abs_x, worst_x = _worst_errors(res.grad_x.reshape(-1)[:e], numeric_x[:e])
    abs_p = worst_p = float("nan")
    if payload is not None:
        g = res.grad_p.reshape(payload.shape)[:e]
        if kind == "depth_semantics":
            g = g - np.sum(g * payload[:e], axis=1, keepdims=True)
        abs_p, worst_p = _worst_errors(g, numeric_p[:e])
    ok = worst_x < GRADCHECK_REL_TOL and not worst_p >= GRADCHECK_REL_TOL
    return GradcheckReport(kind, trials, worst_x, worst_p, abs_x, abs_p, ok)
