"""Single-instance reconstruction by gradient descent on the ray loss.

The voxel grid itself is the optimized parameter.  Emptiness
probabilities are held as unconstrained logits squashed through a sigmoid
(per-channel sigmoid for color payloads, softmax for class simplices), so
x stays in the open interval and the gradient endpoints never degenerate.
Updates use Adam with per-parameter moments.

Cameras, geometry and observations stay fixed during a fit, so before the
first iteration every view's pixel rays are traced once, into one table
(``image_traces``) unless the caller passes it as ``traces=``, and every
pixel's loss weight (foreground pixels weighted up) and observation is
looked up once.  Every iteration samples a subset of views and a budget
of pixels per view (uniform with replacement, the pixels ``sample_rays``
draws), gathers their weights, observations and rows (one ``take`` of the
table for every chosen view, sharing its storage), computes the loss of
all of them and its analytic gradients in one ``view_loss`` call,
chain-rules through the squashing map and applies the update; a loss or
gradient that is not finite stops the fit with ``ValueError``.

Color fits run carve-then-paint, because joint optimization under
RGB-only supervision has a bad basin: cells can turn white and become
indistinguishable from the white escape event, which kills the
background rays' carving pressure before the geometry settles.  The first
half of the iterations update occupancy with payloads frozen at a dark
``COLOR_INIT_LOGIT`` (so unexplained cells stay expensive for background
rays), the second half update payloads with the geometry frozen.  A
semantic fit, anchored by depth, updates both every iteration.

Everything is seeded: identical configs produce identical loss traces and
final grids.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .consistency import AUX_KINDS, RayBatch, view_loss
from .grid import AuxGrid, GridGeometry, OccupancyGrid
from .renderer import Observation, full_image_rays, rays_from_pixels, view_traces

DEFAULT_RAYS_PER_ITERATION = 3000
DEFAULT_FOREGROUND_WEIGHT = 5.0
_VIEW_CHOICE_STREAM = 1 << 20
COLOR_INIT_LOGIT = -2.0  # color payload init; semantics stay uniform


def sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below, so exp
    never overflows; both branches from one exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softmax(z):
    """Softmax over the last axis.  The max and the sum run over the K
    last-axis slices in turn, because numpy reduces a short last axis far
    slower than it combines whole slices; for K < 8 numpy's sum adds in the
    same order, so the result is the same to the bit."""
    m = z[..., 0]
    for k in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., k])
    e = np.exp(z - m[..., None])
    total = e[..., 0].copy()
    for k in range(1, z.shape[-1]):
        total += e[..., k]
    return e / total[..., None]


def _last_axis_dot(a, b):
    """sum_k a[..., k] * b[..., k], one last-axis slice at a time, as
    ``softmax`` sums; for K < 8 numpy's ``np.sum(a * b, axis=-1)`` adds in
    the same order, so the result is the same to the bit."""
    total = np.zeros(a.shape[:-1])
    for k in range(a.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


@dataclass
class FitConfig:
    """Knobs for fit(); defaults sized for 32^3 object grids."""

    iterations: int = 500
    step_size: float = 0.05
    rays_per_iteration: int = DEFAULT_RAYS_PER_ITERATION
    views_per_iteration: int | None = None  # None: all views if <= 5, else 3
    foreground_weight: float = DEFAULT_FOREGROUND_WEIGHT
    seed: int = 0
    label_weight: float = 1.0
    threads: int = 1  # kept for existing callers; a fit runs on one thread

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.rays_per_iteration < 1:
            raise ValueError("rays_per_iteration must be >= 1")
        if self.views_per_iteration is not None and self.views_per_iteration < 1:
            raise ValueError("views_per_iteration must be >= 1")
        if not (math.isfinite(self.foreground_weight) and self.foreground_weight > 0.0):
            raise ValueError(f"foreground_weight must be positive and finite, got {self.foreground_weight}")
        if not math.isfinite(self.label_weight):
            raise ValueError(f"label_weight must be finite, got {self.label_weight}")
        if self.threads != 1:
            raise ValueError(f"threads must be 1 (a fit runs on one thread), got {self.threads}")


@dataclass
class FitReport:
    losses: np.ndarray  # per-iteration weighted ray-loss sums
    rays_per_loss: np.ndarray  # rays behind each entry, for per-ray means
    wall_time_s: float


class Adam:
    """Per-parameter adaptive moments, bias-corrected."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shape, step):
        self.step = step
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        """In place, operation for operation as m = beta1 m + (1 - beta1) grad,
        v = beta2 v + (1 - beta2) grad grad and
        param -= step m_hat / (sqrt(v_hat) + eps): bitwise that formula."""
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        den = self.v / (1.0 - self.beta2**self.t)  # sqrt(v_hat) + eps
        np.sqrt(den, out=den)
        den += self.eps
        delta = self.m / (1.0 - self.beta1**self.t)  # step * m_hat / den
        delta *= self.step
        delta /= den
        param -= delta


def _sample_pixels(obs: Observation, n: int, seed: int, iteration: int, stream: int):
    """n pixel indices (us, vs), uniform with replacement, drawn from the
    generator of (seed, iteration, stream)."""
    rng = np.random.default_rng([seed, iteration, stream])
    us = rng.integers(0, obs.camera.width, n)
    vs = rng.integers(0, obs.camera.height, n)
    return us, vs


def sample_rays(obs: Observation, n: int, foreground_weight: float, seed: int,
                iteration: int, stream: int = 0) -> RayBatch:
    """n pixels uniform with replacement -> weighted rays.

    Foreground pixels (mask 1 / non-escape depth / non-background label or
    color) carry ``foreground_weight``; background pixels weight 1.
    Deterministic under (seed, iteration); ``stream`` separates draws for
    different views within one iteration.  ``fit`` draws the same pixels.
    """
    if n < 1:
        raise ValueError(f"need at least one ray, got n={n}")
    return rays_from_pixels(obs, *_sample_pixels(obs, n, seed, iteration, stream), foreground_weight)


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
    if aux_kind is None:
        return occ, None
    squash = sigmoid if aux_kind == "color" else softmax
    return occ, AuxGrid(geometry, aux_kind, squash(logits_p))


def _logit_grads(occ: OccupancyGrid, aux, grad_x, grad_p):
    """The chain rule through ``_squash``, in place: gradients ``grad_x``
    and ``grad_p`` with respect to the grids (occ, aux) it returned become
    gradients with respect to their logits, bitwise grad_x x (1 - x),
    grad_p p (1 - p) and p (grad_p - <grad_p, p>).  None stays None."""
    if grad_x is not None:
        x = occ.x
        grad_x *= x
        grad_x *= 1.0 - x
    if grad_p is not None:
        p = aux.payload
        if aux.kind == "color":
            grad_p *= p
            grad_p *= 1.0 - p
        else:  # softmax
            grad_p -= _last_axis_dot(grad_p, p)[..., None]
            grad_p *= p
    return grad_x, grad_p


def fit(observations: list[Observation], geometry: GridGeometry, kind: str,
        config: FitConfig = FitConfig(), *, traces=None):
    """Optimize a grid against the observations.

    Returns (OccupancyGrid, AuxGrid or None, FitReport).  With zero
    iterations the maximal-entropy initialization (x = 0.5, gray / uniform
    payloads) comes back unchanged.  ``traces``, if given, holds each
    observation's ``image_traces`` table on ``geometry``.  Raises
    ValueError at the first iteration whose loss or gradient is not finite.
    """
    _check_observations(observations, kind)
    t_start = time.perf_counter()  # the table builds count toward the fit's time
    table = view_traces([o.camera for o in observations], geometry, traces)  # every pixel of every view

    logits_x = np.zeros(geometry.shape)
    aux_kind = AUX_KINDS.get(kind)
    logits_p = opt_p = None
    if kind == "color":
        logits_p = np.full((*geometry.shape, 3), COLOR_INIT_LOGIT)
    elif kind == "depth_semantics":
        logits_p = np.zeros((*geometry.shape, observations[0].n_classes))
    opt_x = Adam(logits_x.shape, config.step_size)
    if logits_p is not None:
        opt_p = Adam(logits_p.shape, config.step_size)

    n_views = len(observations)
    take = config.views_per_iteration
    if take is None:
        take = n_views if n_views <= 5 else 3
    take = min(take, n_views)

    paint_from = config.iterations // 2 if kind == "color" else 0  # carve, then paint

    # every pixel's loss weight and observation, view after view, once per fit
    every = RayBatch.concatenate([full_image_rays(obs, config.foreground_weight) for obs in observations])
    pixel_base = table.first_rows
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
        rows = []  # per chosen view, in a fixed order (a reproducible reduction), its rows of the table
        for view_idx in chosen:
            us, vs = _sample_pixels(observations[view_idx], per_view, config.seed, it, view_idx)
            rows.append(pixel_base[view_idx] + vs * observations[view_idx].camera.width + us)
        rows = np.concatenate(rows)
        rays = RayBatch(kind, every.weights[rows], **every.observed(rows))
        res = view_loss(occ, rays, aux, label_weight=config.label_weight, traces=table.take(rows))
        loss, grad_x, grad_p, count = res.loss, res.grad_x, res.grad_p, rays.n_rays
        if not (math.isfinite(loss) and np.isfinite(grad_x).all()
                and (grad_p is None or np.isfinite(grad_p).all())):
            raise ValueError(f"fit iteration {it}: loss or gradient is not finite (loss {loss})")
        losses[it] = loss
        ray_counts[it] = count

        carving = kind != "color" or it < paint_from
        grad_x, grad_p = _logit_grads(occ, aux, grad_x if carving else None, grad_p if it >= paint_from else None)
        if grad_x is not None:
            opt_x.update(logits_x, grad_x)
        if grad_p is not None:
            opt_p.update(logits_p, grad_p)

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
