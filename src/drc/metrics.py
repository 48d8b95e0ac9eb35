"""Reconstruction metrics and independent numerical oracles.

IoU against a hard ground truth is reported at the optimal binarization
threshold, swept over 0.00..1.00 in steps of 0.01 (ties go to the lower
threshold).  Binarization is on occupancy = 1 - x, i.e. a cell counts as
predicted-occupied iff (1 - x) >= threshold.

The gradcheck helpers check the analytic gradients against central finite
differences, which share no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import (
    RAY_KINDS,
    EventCosts,
    cost_color,
    cost_depth,
    cost_mask,
    cost_semantic,
    ray_loss,
    ray_loss_grad_p,
    ray_loss_grad_x,
)
from .grid import BinaryGrid, OccupancyGrid, same_geometry

THRESHOLDS = np.round(np.arange(101) / 100.0, 2)

GRADCHECK_REL_TOL = 1e-5
GRADCHECK_ABS_FLOOR = 1e-8


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


def _worst_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max relative error over components whose absolute error exceeds the floor."""
    err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    over = err >= GRADCHECK_ABS_FLOOR
    if not over.any():
        return 0.0
    return float(np.max(err[over] / denom[over]))


def _random_instance(kind: str, rng: np.random.Generator, n_classes: int = 4):
    """Random (x, costs, payload) for one ray of the given cost kind."""
    n = int(rng.integers(1, 17))
    x = rng.uniform(0.02, 0.98, n)
    t = np.cumsum(rng.uniform(0.05, 0.5, n + 1))
    d = 0.5 * (t[:-1] + t[1:])
    if kind == "mask":
        return x, cost_mask(n, int(rng.integers(0, 2))), None, None
    if kind == "depth":
        return x, cost_depth(d, float(rng.uniform(0.1, 12.0))), None, None
    if kind == "depth_semantics":
        p = rng.dirichlet(np.ones(n_classes) * 2.0, size=n)
        p = np.maximum(p, 1e-4)
        p /= p.sum(axis=1, keepdims=True)
        d_r = float(rng.uniform(0.1, 12.0))
        c_r = int(rng.integers(0, n_classes))
        return x, cost_semantic(d, p, d_r, c_r), p, (d, d_r, c_r)
    p = rng.uniform(0.0, 1.0, (n, 3))
    c_r = rng.uniform(0.0, 1.0, 3)
    return x, cost_color(n, p, c_r), p, c_r


def _recost(kind: str, costs_info, p: np.ndarray) -> EventCosts:
    if kind == "depth_semantics":
        d, d_r, c_r = costs_info
        return cost_semantic(d, p, d_r, c_r)
    return cost_color(p.shape[0], p, costs_info)


@dataclass(frozen=True)
class GradcheckReport:
    kind: str
    trials: int
    max_rel_err_x: float
    max_rel_err_p: float  # nan for kinds without aux payloads
    ok: bool


def run_gradcheck(kind: str, trials: int, seed: int, h: float = 1e-6,
                  grad_x_fn=ray_loss_grad_x, grad_p_fn=ray_loss_grad_p) -> GradcheckReport:
    """Check analytic gradients against central differences on random rays.

    ``grad_*_fn`` exist so tests can verify that a wrong gradient is
    actually caught.
    """
    if kind not in RAY_KINDS:
        raise ValueError(f"kind must be one of {RAY_KINDS}, got {kind!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst_x = 0.0
    worst_p = float("nan") if kind in ("mask", "depth") else 0.0
    for _ in range(trials):
        x, costs, payload, info = _random_instance(kind, rng)
        analytic = grad_x_fn(x, costs)
        numeric = central_difference(lambda xv: ray_loss(xv, costs), x, h)
        worst_x = max(worst_x, _worst_rel_error(analytic, numeric))
        if payload is not None:
            analytic_p = grad_p_fn(x, costs)
            numeric_p = central_difference(
                lambda pv: ray_loss(x, _recost(kind, info, pv)), payload, h)
            worst_p = max(worst_p, _worst_rel_error(analytic_p, numeric_p))
    ok = worst_x < GRADCHECK_REL_TOL and not worst_p >= GRADCHECK_REL_TOL
    return GradcheckReport(kind, trials, worst_x, worst_p, ok)
