"""Ray consistency: event probabilities, event costs, losses, gradients.

A ray crossing N cells with emptiness probabilities x_1..x_N induces a
distribution over termination events.  Event i <= N is "the ray terminates
in the i-th traversed cell"; event N+1 is "the ray escapes":

    p(z = i)   = (1 - x_i) * prod_{j<i} x_j
    p(z = N+1) = prod_{j<=N} x_j

Each event is scored against the ray's observation by a cost psi(i), and
the per-ray loss is the expected cost E[psi(z)].  Expanding and
telescoping gives the form actually computed here,

    L(x) = psi(1) + sum_i (psi(i+1) - psi(i)) * prod_{j<=i} x_j

whose gradient is

    dL/dx_k = sum_{i>=k} (psi(i+1) - psi(i)) * prod_{j<=i, j!=k} x_j,

evaluated in O(N) with prefix products and a backward recurrence; no
division by x is ever performed, so x_k in {0, 1} exactly is safe.

The costs and this recurrence are written once, for R rays padded to L
trace slots (``_event_costs``, ``_telescope``).  ``view_loss`` runs them on
the rays of a view that enter the grid (a ray that misses has the escape
event alone); the scalar API (``cost_*``, ``ray_loss*``) runs them with
R = 1, so the gradient check tests the fitter's kernel.
``event_probabilities`` and ``mask_loss_closed_form`` are independent
direct formulas for tests.

A payload gradient is p(z = i) * dpsi_i/dp_i per cell.  A semantic cost
depends on the observed class c alone, so the kernel keeps the (R, L)
derivative -label_weight / p_i(c) and ``view_loss`` scatters it with one
flat ``bincount`` over cell * K + c; a color cost keeps its (R, L, 3)
residual, one ``bincount`` per channel.  ``EventCosts.dpsi_dp``, from the
scalar API, holds the full (N, D) derivative, zero off the observed class.

Escape conventions: depth events use a fixed escape depth (10 m at object
scale; disparity-based costs use 1000 m so escape means near-zero
disparity), semantic escape scores against the uniform class distribution,
color escape against white.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import AuxGrid, OccupancyGrid, same_geometry
from .traversal import RayTrace, TraceTable, trace_batch  # noqa: F401  (perfbench patches consistency.trace_batch)

OBJECT_ESCAPE_DEPTH = 10.0
SCENE_ESCAPE_DEPTH = 1000.0
LOG_PROB_FLOOR = 1e-8
ESCAPE_COLOR = np.array([1.0, 1.0, 1.0])

RAY_KINDS = ("mask", "depth", "depth_semantics", "color")


def _as_depths(trace) -> np.ndarray:
    if isinstance(trace, RayTrace):
        return trace.d
    return np.asarray(trace, dtype=np.float64)


def _as_length(trace) -> int:
    if isinstance(trace, RayTrace):
        return trace.n
    if np.isscalar(trace):
        return int(trace)
    return len(np.asarray(trace))


@dataclass(frozen=True, eq=False)
class EventCosts:
    """Costs psi for the N+1 events of one ray.

    psi[-1] is the escape event.  dpsi_dp, when present, holds the
    derivative of psi[i] w.r.t. the i-th cell's aux payload, shape (N, D)
    (the escape event has no per-cell payload); for semantic costs it is
    zero except at the observed class.
    """

    psi: np.ndarray
    dpsi_dp: np.ndarray | None = None


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


def _event_costs(kind: str, d_mid: np.ndarray, valid: np.ndarray, cells: np.ndarray,
                 payload: np.ndarray | None = None, *, s=None, d=None, c=None,
                 escape_depth: float | None = None, label_weight: float = 1.0):
    """(R, L) cell-event costs, (R,) escape costs, then the payload
    derivative or None: (R, L) d psi / d p(c) at the observed class c for
    depth_semantics, the (R, L, 3) d psi / d p for color.

    ``d_mid`` are event depths, ``valid`` marks real slots, ``cells`` index
    the payload table (P, D); ``s``, ``d``, ``c`` are as in RayBatch.
    """
    if kind == "mask":
        psi = np.broadcast_to(s[:, None].astype(np.float64), d_mid.shape).copy()
        return psi, 1.0 - s.astype(np.float64), None
    if kind == "depth":
        esc = OBJECT_ESCAPE_DEPTH if escape_depth is None else escape_depth
        psi = np.abs(np.where(valid, d_mid, 1.0) - d[:, None])
        return psi, np.abs(esc - d), None
    if kind == "depth_semantics":
        esc = SCENE_ESCAPE_DEPTH if escape_depth is None else escape_depth
        pc = np.maximum(payload[cells, c[:, None]], LOG_PROB_FLOOR)
        disparity = np.abs(1.0 / np.where(valid, d_mid, 1.0) - 1.0 / d[:, None])
        psi = disparity - label_weight * np.log(pc)
        psi_esc = np.abs(1.0 / esc - 1.0 / d) + label_weight * np.log(payload.shape[1])
        return psi, psi_esc, -label_weight / pc
    # color
    diff = payload[cells] - c[:, None, :]
    psi = 0.5 * np.sum(diff * diff, axis=2)
    psi_esc = 0.5 * np.sum((ESCAPE_COLOR - c) ** 2, axis=1)
    return psi, psi_esc, diff


def _telescope(x: np.ndarray, valid: np.ndarray, psi: np.ndarray, psi_esc: np.ndarray, *,
               backward: bool = True, events: bool = False):
    """(R,) per-ray losses, then (R, L) d(loss)/dx if ``backward`` and (R, L)
    cell-event probabilities if ``events`` (else None); both zero on padding.

    ``x`` is emptiness, 1 on padding slots, which ``valid`` marks False.
    """
    cum = np.cumprod(x, axis=1)
    pre = np.concatenate([np.ones((x.shape[0], 1)), cum[:, :-1]], axis=1)
    # dpsi_i = psi_{i+1} - psi_i; the escape cost closes each ray and fills
    # its padding, where dpsi is then zero
    psi = np.where(valid, psi, psi_esc[:, None])
    dpsi = np.concatenate([psi[:, 1:], psi_esc[:, None]], axis=1) - psi
    per_ray = psi[:, 0] + (dpsi * cum).sum(axis=1)

    grad = p_events = None
    if backward:
        # backward recurrence S_k = dpsi_k + x_{k+1} S_{k+1}; grad = pre * S
        s = np.zeros_like(dpsi)
        s[:, -1] = dpsi[:, -1]
        for k in range(psi.shape[1] - 2, -1, -1):
            s[:, k] = dpsi[:, k] + x[:, k + 1] * s[:, k + 1]
        grad = np.where(valid, pre * s, 0.0)
    if events:
        p_events = np.where(valid, (1.0 - x) * pre, 0.0)
    return per_ray, grad, p_events


def _check_depth(d_r) -> None:
    if not (np.isfinite(d_r) and d_r > 0.0):
        raise ValueError(f"observed depth must be positive and finite, got {d_r}")


def _one_ray_costs(kind: str, d_mid, payload=None, **obs) -> EventCosts:
    """Event costs of one ray: ``_event_costs`` on a batch of one, its
    semantic derivative spread to the (N, K) ``dpsi_dp``."""
    d_mid = np.asarray(d_mid, dtype=np.float64)[None]
    psi, psi_esc, dpsi = _event_costs(kind, d_mid, np.ones(d_mid.shape, dtype=bool),
                                      np.arange(d_mid.shape[1])[None], payload, **obs)
    if kind == "depth_semantics":
        dpsi_dp = np.zeros(payload.shape)
        dpsi_dp[:, obs["c"][0]] = dpsi[0]
    else:
        dpsi_dp = None if dpsi is None else dpsi[0]
    return EventCosts(np.concatenate([psi[0], psi_esc]), dpsi_dp)


def cost_depth(trace, d_r: float, escape_depth: float = OBJECT_ESCAPE_DEPTH) -> EventCosts:
    """Absolute depth error per event: |d_i - d_r|, escape at escape_depth."""
    _check_depth(d_r)
    return _one_ray_costs("depth", _as_depths(trace), d=np.array([d_r], dtype=np.float64),
                          escape_depth=escape_depth)


def cost_mask(trace, s_r: int) -> EventCosts:
    """Foreground-mask cost: s_r for in-grid termination, 1 - s_r for escape.

    s_r = 0 marks a foreground pixel (the ray hits the object), s_r = 1
    background.
    """
    if s_r not in (0, 1):
        raise ValueError(f"s_r must be 0 or 1, got {s_r!r}")
    return _one_ray_costs("mask", np.zeros(_as_length(trace)), s=np.array([s_r]))


def cost_semantic(trace, p_r, d_r: float, c_r: int,
                  escape_depth: float = SCENE_ESCAPE_DEPTH,
                  label_weight: float = 1.0) -> EventCosts:
    """Disparity error plus class negative log-likelihood.

    psi(i) = |1/d_i - 1/d_r| - label_weight * log p_i(c_r); the escape
    event uses disparity 1/escape_depth and the uniform distribution over
    the K classes.  Probabilities are floored at 1e-8 inside the log so
    costs and gradients stay finite.
    """
    _check_depth(d_r)
    d = _as_depths(trace)
    p = np.asarray(p_r, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != d.size:
        raise ValueError("p_r must be (N, K) class distributions, one per traversed cell")
    k = p.shape[1]
    if not (0 <= int(c_r) < k):
        raise ValueError(f"observed class {c_r} out of range [0, {k})")
    # loose simplex sanity check; finite-difference probes perturb single
    # components, so this is intentionally weaker than the AuxGrid invariant
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-4):
        raise ValueError("p_r rows must be probability simplices")
    return _one_ray_costs("depth_semantics", d, p, d=np.array([d_r], dtype=np.float64),
                          c=np.array([int(c_r)]), escape_depth=escape_depth,
                          label_weight=label_weight)


def cost_color(trace, p_r, c_r) -> EventCosts:
    """Half squared RGB error; escaping rays are scored against white."""
    n = _as_length(trace)
    p = np.asarray(p_r, dtype=np.float64)
    c = np.asarray(c_r, dtype=np.float64)
    if p.shape != (n, 3) or c.shape != (3,):
        raise ValueError("p_r must be (N, 3) colors and c_r a single RGB triple")
    return _one_ray_costs("color", np.zeros(n), p, c=c[None])


def _one_ray(x_r, costs, *, backward: bool = True, events: bool = False):
    """``_telescope`` on one ray, padded by one slot so N = 0 needs no special case."""
    x = np.asarray(x_r, dtype=np.float64)
    psi = costs.psi if isinstance(costs, EventCosts) else np.asarray(costs, dtype=np.float64)
    if psi.ndim != 1 or psi.size != x.size + 1:
        raise ValueError(f"psi must have length N+1 = {x.size + 1}, got {psi.size}")
    valid = np.arange(x.size + 1) < x.size
    per_ray, grad, p_events = _telescope(np.concatenate([x, [1.0]])[None], valid[None],
                                         psi[None], psi[-1:], backward=backward, events=events)
    return (float(per_ray[0]), None if grad is None else grad[0, :-1],
            None if p_events is None else p_events[0, :-1])


def ray_loss(x_r, costs) -> float:
    """Expected event cost of one ray (the telescoped form)."""
    return _one_ray(x_r, costs, backward=False)[0]


def ray_loss_grad_x(x_r, costs) -> np.ndarray:
    """d(ray_loss)/dx_k for every traversed cell, in O(N).

    Uses prefix products pre_k = prod_{j<k} x_j and the backward
    recurrence S_k = dpsi_k + x_{k+1} S_{k+1}, giving grad_k = pre_k * S_k.
    """
    return _one_ray(x_r, costs)[1]


def ray_loss_grad_p(x_r, costs: EventCosts) -> np.ndarray:
    """d(ray_loss)/dp_i = p(z = i) * dpsi_i/dp_i, shape (N, D).

    Each cell's payload gradient is its cost derivative weighted by the
    probability of that cell's termination event.
    """
    if not isinstance(costs, EventCosts) or costs.dpsi_dp is None:
        raise ValueError("costs must carry dpsi_dp (semantic or color event costs)")
    x = np.asarray(x_r, dtype=np.float64)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("emptiness probabilities must lie in [0, 1]")
    return _one_ray(x, costs, backward=False, events=True)[2][:, None] * costs.dpsi_dp


def mask_loss_closed_form(x_r, s_r: int) -> float:
    """|prod_i x_i - s_r|: the mask ray loss collapses to reprojected emptiness."""
    if s_r not in (0, 1):
        raise ValueError(f"s_r must be 0 or 1, got {s_r!r}")
    x = np.asarray(x_r, dtype=np.float64)
    return float(abs((np.prod(x) if x.size else 1.0) - s_r))


# ---------------------------------------------------------------------------
# Whole-view evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RayBatch:
    """A set of rays with per-ray observations and loss weights; the rays
    themselves are the rows of a ``TraceTable`` passed with the batch.

    Per kind: ``s`` (0 foreground / 1 background) for mask; ``d`` for depth
    and depth_semantics; ``c`` is an int class id per ray (depth_semantics)
    or an (R, 3) RGB array (color).  ``pixels``, for rays through the
    pixel centers of one image, holds each ray's row-major pixel index.
    """

    kind: str
    weights: np.ndarray
    s: np.ndarray | None = None
    d: np.ndarray | None = None
    c: np.ndarray | None = None
    pixels: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RAY_KINDS:
            raise ValueError(f"ray kind must be one of {RAY_KINDS}, got {self.kind!r}")
        if self.weights.ndim != 1:
            raise ValueError("weights must be (R,)")
        if np.any(self.weights <= 0.0):
            raise ValueError("ray weights must be positive")
        need = {"mask": ("s",), "depth": ("d",), "depth_semantics": ("d", "c"), "color": ("c",)}
        for field in need[self.kind]:
            if getattr(self, field) is None:
                raise ValueError(f"{self.kind} rays need per-ray field {field!r}")
        if self.pixels is not None and self.pixels.shape != self.weights.shape:
            raise ValueError("pixels must be (R,)")

    @property
    def n_rays(self) -> int:
        return self.weights.shape[0]

    def observed(self, which) -> dict:
        """The observation fields (s, d, c) of rays ``which``."""
        return {k: None if v is None else v[which]
                for k, v in (("s", self.s), ("d", self.d), ("c", self.c))}


@dataclass(frozen=True, eq=False)
class ViewLossResult:
    loss: float
    grad_x: np.ndarray
    grad_p: np.ndarray | None


def view_loss(occ: OccupancyGrid, rays: RayBatch, aux: AuxGrid | None = None, *,
              escape_depth: float | None = None, label_weight: float = 1.0,
              traces: TraceTable) -> ViewLossResult:
    """Weighted sum of per-ray losses plus gradients scattered onto the grid.

    ``traces`` holds one trace per ray, in order: rows of a view's
    ``image_traces`` table, or ``trace_batch`` over the rays.  Rays are
    evaluated in batch but accumulated in a fixed order, so the result is
    deterministic.  Cells no ray touches get zero gradient.

    Only rays that enter the grid run through the telescoped kernel.  A miss
    has one event, escape: its loss is the escape cost and its gradient zero.
    """
    if rays.n_rays == 0:
        raise ValueError("ray set is empty")
    if rays.kind in ("depth_semantics", "color"):
        want = "semantics" if rays.kind == "depth_semantics" else "color"
        if aux is None or aux.kind != want:
            raise ValueError(f"{rays.kind} rays need an aux grid of kind {want!r}")
        if not same_geometry(aux.geometry, occ.geometry):
            raise ValueError("aux grid geometry does not match the occupancy grid")
    geom = occ.geometry
    if not same_geometry(traces.geometry, geom):
        raise ValueError("traces were built on a different geometry")
    if traces.n.shape != (rays.n_rays,):
        raise ValueError(f"need one trace per ray, got {traces.n.shape[0]} for {rays.n_rays} rays")
    payload = None if aux is None else aux.flat
    costs = {"escape_depth": escape_depth, "label_weight": label_weight}

    hit = np.flatnonzero(traces.n)
    miss = np.flatnonzero(traces.n == 0)
    per_ray = np.empty(rays.n_rays)
    # a miss is a batch with no cell slots: its loss is the escape cost
    no_slots = np.zeros((miss.size, 0))
    per_ray[miss] = _event_costs(rays.kind, no_slots, no_slots.astype(bool),
                                 no_slots.astype(np.int64), payload,
                                 **rays.observed(miss), **costs)[1]

    cells, d_mid, valid = traces.take(hit).padded()
    x = np.where(valid, occ.flat[cells], 1.0)
    observed = rays.observed(hit)
    psi, psi_esc, dpsi = _event_costs(rays.kind, d_mid, valid, cells, payload, **observed, **costs)
    per_ray[hit], grad, p_events = _telescope(x, valid, psi, psi_esc, events=dpsi is not None)
    loss = float(rays.weights @ per_ray)

    weights = rays.weights[hit]
    at = cells[valid]
    grad_x = np.zeros(geom.ncells)
    np.add.at(grad_x, at, (grad * weights[:, None])[valid])

    # bincount, like add.at, adds in input order, so both scatters are deterministic
    grad_p = None
    if rays.kind == "depth_semantics":
        # dpsi is non-zero at the observed class only: one flat bin per (cell, class)
        k = aux.nchannels
        bins = (cells * np.int64(k) + observed["c"][:, None])[valid]
        contrib = (p_events * dpsi * weights[:, None])[valid]
        grad_p = np.bincount(bins, weights=contrib, minlength=geom.ncells * k).reshape(*geom.shape, k)
    elif rays.kind == "color":
        contrib = (p_events[:, :, None] * dpsi * weights[:, None, None])[valid]
        grad_p = np.stack([np.bincount(at, weights=contrib[:, j], minlength=geom.ncells)
                           for j in range(contrib.shape[1])], axis=-1).reshape(*geom.shape, -1)

    return ViewLossResult(loss, grad_x.reshape(geom.shape), grad_p)
