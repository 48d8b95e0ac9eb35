"""Single-instance reconstruction by gradient descent on the ray loss.

The voxel grid itself is the optimized parameter.  Emptiness
probabilities are held as unconstrained logits squashed through a sigmoid
(per-channel sigmoid for color payloads, softmax for class simplices), so
x stays in the open interval and the gradient endpoints never degenerate.
Updates use Adam with per-parameter moments.

Cameras and geometry stay fixed during a fit, so each view's pixel rays
are traced once, into a table (``trace_batch``), the first time the view
is used.  Every iteration samples a subset of views and a budget of rays
(uniform pixels with replacement, foreground rays weighted up), looks up
their traces in the table, computes the view loss and its analytic
gradients, chain-rules through the squashing map and applies the update.
Everything is seeded: identical configs produce identical loss traces and
final grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import consistency
from .consistency import RayBatch, view_loss
from .grid import AuxGrid, GridGeometry, OccupancyGrid
from .renderer import Observation, full_image_rays, rays_from_pixels

DEFAULT_RAYS_PER_ITERATION = 3000
DEFAULT_FOREGROUND_WEIGHT = 5.0
_VIEW_CHOICE_STREAM = 1 << 20


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z, axis=-1):
    m = z - z.max(axis=axis, keepdims=True)
    e = np.exp(m)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass
class FitConfig:
    """Knobs for fit(); defaults sized for 32^3 object grids.

    ``color_schedule`` exists because joint optimization under RGB-only
    supervision has a bad basin: cells can turn white and become
    indistinguishable from the white escape event, which kills the
    background rays' carving pressure before the geometry settles.
    "carve-then-paint" block-coordinates the same objective: the first
    half of the iterations update occupancy with payloads frozen at a
    dark ``aux_init_logit`` (so unexplained cells stay expensive for
    background rays), the second half update payloads with the geometry
    frozen.  Depth-anchored kinds do not need this and ignore it.
    """

    iterations: int = 500
    step_size: float = 0.05
    rays_per_iteration: int = DEFAULT_RAYS_PER_ITERATION
    views_per_iteration: int | None = None  # None: all views if <= 5, else 3
    foreground_weight: float = DEFAULT_FOREGROUND_WEIGHT
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    label_weight: float = 1.0
    full_images: bool = False  # use every pixel of every chosen view
    threads: int = 1  # kept for existing callers; views are evaluated in turn
    color_schedule: str = "carve-then-paint"  # or "joint"
    aux_init_logit: float = -2.0  # color payload init; semantics stay uniform

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.rays_per_iteration < 1:
            raise ValueError("rays_per_iteration must be >= 1")
        if self.views_per_iteration is not None and self.views_per_iteration < 1:
            raise ValueError("views_per_iteration must be >= 1")
        if self.foreground_weight <= 0.0:
            raise ValueError("foreground_weight must be positive")
        if self.threads != 1:
            raise ValueError(f"threads must be 1 (views are evaluated in turn), got {self.threads}")
        if self.color_schedule not in ("carve-then-paint", "joint"):
            raise ValueError(f"unknown color_schedule {self.color_schedule!r}")


@dataclass
class FitReport:
    losses: np.ndarray  # per-iteration weighted ray-loss sums
    rays_per_loss: np.ndarray  # rays behind each entry, for per-ray means
    wall_time_s: float


class Adam:
    """Per-parameter adaptive moments, bias-corrected."""

    def __init__(self, shape, step, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step = step
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        param -= self.step * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_rays(obs: Observation, n: int, foreground_weight: float, seed: int,
                iteration: int, stream: int = 0) -> RayBatch:
    """n pixels uniform with replacement -> weighted rays.

    Foreground pixels (mask 1 / non-escape depth / non-background label or
    color) carry ``foreground_weight``; background pixels weight 1.
    Deterministic under (seed, iteration); ``stream`` separates draws for
    different views within one iteration.
    """
    if n < 1:
        raise ValueError(f"need at least one ray, got n={n}")
    rng = np.random.default_rng([seed, iteration, stream])
    us = rng.integers(0, obs.camera.width, n)
    vs = rng.integers(0, obs.camera.height, n)
    return rays_from_pixels(obs, us, vs, foreground_weight)


def _check_observations(observations, kind: str) -> None:
    if not observations:
        raise ValueError("need at least one observation to fit")
    for obs in observations:
        if obs.kind != kind:
            raise ValueError(f"observation kind {obs.kind!r} does not match fit kind {kind!r}")
    if kind == "depth_semantics":
        ks = {obs.n_classes for obs in observations}
        if len(ks) != 1:
            raise ValueError(f"observations disagree on class count: {sorted(ks)}")


def _squash(geometry: GridGeometry, logits_x, logits_p, aux_kind):
    """The grids the logits stand for: (OccupancyGrid, AuxGrid or None)."""
    occ = OccupancyGrid(geometry, sigmoid(logits_x))
    if aux_kind == "color":
        return occ, AuxGrid(geometry, "color", sigmoid(logits_p))
    if aux_kind == "semantics":
        return occ, AuxGrid(geometry, "semantics", softmax(logits_p))
    return occ, None


def fit(observations: list[Observation], geometry: GridGeometry, kind: str,
        config: FitConfig = FitConfig()):
    """Optimize a grid against the observations.

    Returns (OccupancyGrid, AuxGrid or None, FitReport).  With zero
    iterations the maximal-entropy initialization (x = 0.5, gray / uniform
    payloads) comes back unchanged.
    """
    _check_observations(observations, kind)
    t_start = time.perf_counter()

    logits_x = np.zeros(geometry.shape)
    logits_p = None
    aux_kind = None
    if kind == "color":
        aux_kind = "color"
        logits_p = np.full((*geometry.shape, 3), config.aux_init_logit)
    elif kind == "depth_semantics":
        aux_kind = "semantics"
        logits_p = np.zeros((*geometry.shape, observations[0].n_classes))

    opt_x = Adam(logits_x.shape, config.step_size, config.beta1, config.beta2, config.epsilon)
    opt_p = None
    if logits_p is not None:
        opt_p = Adam(logits_p.shape, config.step_size, config.beta1, config.beta2, config.epsilon)

    n_views = len(observations)
    take = config.views_per_iteration
    if take is None:
        take = n_views if n_views <= 5 else 3
    take = min(take, n_views)

    blocked = kind == "color" and config.color_schedule == "carve-then-paint"
    paint_from = config.iterations // 2 if blocked else 0

    tables = [None] * n_views  # per view: the traces of all its pixels
    losses = np.zeros(config.iterations)
    ray_counts = np.zeros(config.iterations, dtype=np.int64)
    for it in range(config.iterations):
        if take == n_views:
            chosen = list(range(n_views))
        else:
            rng = np.random.default_rng([config.seed, it, _VIEW_CHOICE_STREAM])
            chosen = sorted(rng.choice(n_views, size=take, replace=False))
        occ, aux = _squash(geometry, logits_x, logits_p, aux_kind)

        per_view = max(1, config.rays_per_iteration // take)
        loss = 0.0
        grad_x = np.zeros(geometry.shape)
        grad_p = np.zeros_like(logits_p) if logits_p is not None else None
        count = 0
        for view_idx in chosen:  # fixed view order: deterministic reduction
            obs = observations[view_idx]
            if tables[view_idx] is None:
                every = full_image_rays(obs)
                # the name view_loss traces through, so patching consistency.trace_batch sees every trace
                tables[view_idx] = consistency.trace_batch(geometry, every.origins, every.directions)
            if config.full_images:
                rays = full_image_rays(obs, config.foreground_weight)
            else:
                rays = sample_rays(obs, per_view, config.foreground_weight,
                                   config.seed, it, stream=view_idx)
            res = view_loss(occ, rays, aux, label_weight=config.label_weight,
                            traces=tables[view_idx].take(rays.pixels))
            loss += res.loss
            grad_x += res.grad_x
            if grad_p is not None:
                grad_p += res.grad_p
            count += rays.n_rays
        losses[it] = loss
        ray_counts[it] = count

        if not blocked or it < paint_from:
            x = occ.x
            opt_x.update(logits_x, grad_x * x * (1.0 - x))
        if logits_p is not None and (not blocked or it >= paint_from):
            p = aux.payload
            if aux_kind == "color":
                opt_p.update(logits_p, grad_p * p * (1.0 - p))
            else:
                inner = np.sum(grad_p * p, axis=-1, keepdims=True)
                opt_p.update(logits_p, p * (grad_p - inner))

    occ, aux = _squash(geometry, logits_x, logits_p, aux_kind)
    report = FitReport(losses, ray_counts, time.perf_counter() - t_start)
    return occ, aux, report


def write_loss_log(path, report: FitReport, kind: str) -> None:
    """Plain-text loss trace: iteration, loss sum, per-ray mean."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={kind} columns: iteration loss_sum loss_per_ray\n")
        for it, (loss, n) in enumerate(zip(report.losses, report.rays_per_loss)):
            mean = loss / n if n else 0.0
            fh.write(f"{it}\t{loss!r}\t{mean!r}\n")
