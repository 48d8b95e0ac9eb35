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

The costs and this recurrence are written once (``_event_costs``,
``_telescope``).  The costs work on one flat array of cells.  The
recurrence works on a length-sorted, slot-major layout with no padding:
the rays are sorted by decreasing trace length, so slot k holds the k-th
cell of a prefix of m_k rays, and slot k's run follows slot k-1's.  The
prefix products and the backward recurrence are one loop over slots, on
contiguous runs.  Each ray's sum over its cells goes into eight partial
sums, slot k into sum k mod 8, combined ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)).
That is the order numpy's row sum uses for 8 to 128 values, so the loss
is bitwise what a (rays, slots) layout padded to a multiple of 8 gave, and
past 128 cells a ray's loss still does not depend on the rays beside it.

``view_loss`` runs the kernel on the rays that enter the grid (a ray that
misses has the escape event alone), about LOSS_CHUNK cells per pass, over
one table whose rows are the rays (``fit``'s is one take of every sampled
row of its views).  A pass reads the slot-major layout with one gather
per array (cells, exit depths) from the table's storage, at each ray's
start plus the slot; a cell's entry depth is the exit depth one slot
back, or t0 in slot 0.  It adds its gradients with one ``np.bincount`` in
that layout's order, slot by slot and the longest rays first, into zeros
that are then added to the totals, pass after pass.  The loss is one dot
of the weights with the per-ray losses.  The scalar API (``cost_*``,
``ray_loss*``) runs the same kernel on one ray, so the gradient check
tests the fitter's kernel, sum order included.
``event_probabilities`` and ``mask_loss_closed_form`` are independent
direct formulas for tests.

A payload gradient is p(z = i) * dpsi_i/dp_i per cell.  A semantic cost
depends on the observed class c alone, so the kernel keeps one derivative
-label_weight / p_i(c) per cell, and ``view_loss`` adds it into the flat
payload at cell * K + c.  A color cost keeps its (E, 3) residual, added at
cell * 3 + channel.  ``EventCosts.dpsi_dp``, from the scalar API, holds
the full (N, D) derivative, zero off the observed class.

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
AUX_KINDS = {"depth_semantics": "semantics", "color": "color"}  # ray kind -> its aux grid's kind

# cells per pass of view_loss's kernel; bounds the per-cell arrays a pass
# holds.  Of 16k to 64k, 40k measured fastest on both benchmark fits: one
# pass of a 32^3 depth fit's ~36k cells per iteration, and passes of ~37k
# cells in the semantic scene fit (112k), where 64k-cell passes ran ~15% slower.
LOSS_CHUNK = 40 * 1024


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


def _event_costs(kind: str, d_mid: np.ndarray, cells: np.ndarray, ray: np.ndarray,
                 payload: np.ndarray | None = None, *, s=None, d=None, c=None,
                 label_weight: float = 1.0):
    """(E,) cell-event costs and (R,) escape costs, then for payload kinds
    the flat index into the payload table (P, D) of each non-zero
    derivative d psi / d p and that derivative, else None and None: (E,) at
    the observed class c for depth_semantics, (E, 3) for color.

    Entry e is cell ``cells[e]``, a row of the payload table, at event
    depth ``d_mid[e]`` on ray ``ray[e]``; ``s``, ``d``, ``c`` are the R rays'
    observations, as in RayBatch.
    """
    if kind == "mask":
        s = s.astype(np.float64)
        return s[ray], 1.0 - s, None, None
    if kind == "depth":
        return np.abs(d_mid - d[ray]), np.abs(OBJECT_ESCAPE_DEPTH - d), None, None
    k = np.int64(payload.shape[1])
    if kind == "depth_semantics":
        at = cells * k + c[ray]
        pc = np.maximum(payload.ravel()[at], LOG_PROB_FLOOR)
        disparity = np.abs(1.0 / d_mid - (1.0 / d)[ray])
        psi = disparity - label_weight * np.log(pc)
        psi_esc = np.abs(1.0 / SCENE_ESCAPE_DEPTH - 1.0 / d) + label_weight * np.log(payload.shape[1])
        return psi, psi_esc, at, -label_weight / pc
    # color
    diff = payload[cells] - c[ray]
    psi = 0.5 * np.sum(diff * diff, axis=1)
    psi_esc = 0.5 * np.sum((ESCAPE_COLOR - c) ** 2, axis=1)
    return psi, psi_esc, cells[:, None] * k + np.arange(k), diff


def _telescope(x: np.ndarray, dpsi: np.ndarray, psi_first: np.ndarray, m: list, *,
               backward: bool = True, events: bool = False):
    """(R,) per-ray losses psi_1 + sum_k dpsi_k prod_{j<=k} x_j, then (E,)
    d(loss)/dx if ``backward`` and (E,) cell-event probabilities if
    ``events`` (else None).  The gradient is computed in ``dpsi``.

    The R rays are sorted by decreasing length and their E cells laid out
    slot-major: slot k holds the k-th cell of rays 0..m[k]-1, so ``m`` is
    non-increasing and sums to E, and slot k's run of entries follows slot
    k-1's.  ``x`` and ``dpsi`` are per cell, dpsi_k = psi_{k+1} - psi_k with
    the escape cost after a ray's last cell; ``psi_first`` is per ray, psi_1
    or, for a ray of no cells, the escape cost.
    """
    off = [0, *np.cumsum(m, dtype=np.int64).tolist()]
    pre = np.empty_like(x)  # prod_{j<k} x_j
    pre[:off[1] if m else 0] = 1.0
    for k in range(len(m) - 1):
        a, b, more = off[k], off[k + 1], m[k + 1]
        np.multiply(pre[a:a + more], x[a:a + more], out=pre[b:b + more])
    # each ray's sum in eight partial sums, slot k into sum k mod 8, combined
    # pairwise: numpy's order for a row of 8 to 128 values, here at any length
    terms = pre * x  # prod_{j<=k} x_j, as cumprod rounds it
    terms *= dpsi
    acc = np.zeros((8, psi_first.shape[0]))
    for k in range(len(m)):
        acc[k % 8, :m[k]] += terms[off[k]:off[k + 1]]
    del terms
    per_ray = psi_first + (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                           + ((acc[4] + acc[5]) + (acc[6] + acc[7])))

    grad = p_events = None
    if events:
        p_events = 1.0 - x
        p_events *= pre
    if backward:
        # backward recurrence S_k = dpsi_k + x_{k+1} S_{k+1}; grad = pre * S
        grad = dpsi
        for k in range(len(m) - 2, -1, -1):
            a, b, more = off[k], off[k + 1], m[k + 1]
            grad[a:a + more] += x[b:b + more] * grad[b:b + more]
        grad *= pre
    return per_ray, grad, p_events


def _check_depth(d_r) -> None:
    if not (np.isfinite(d_r) and d_r > 0.0):
        raise ValueError(f"observed depth must be positive and finite, got {d_r}")


def _one_ray_costs(kind: str, d_mid, payload=None, **obs) -> EventCosts:
    """Event costs of one ray: ``_event_costs`` on a batch of one, its
    payload derivative spread to the (N, D) ``dpsi_dp``."""
    d_mid = np.asarray(d_mid, dtype=np.float64)
    n = d_mid.shape[0]
    psi, psi_esc, at, dpsi = _event_costs(kind, d_mid, np.arange(n), np.zeros(n, dtype=np.int64),
                                          payload, **obs)
    dpsi_dp = None
    if at is not None:
        dpsi_dp = np.zeros(payload.shape)
        dpsi_dp.ravel()[at] = dpsi
    return EventCosts(np.concatenate([psi, psi_esc]), dpsi_dp)


def cost_depth(trace, d_r: float) -> EventCosts:
    """Absolute depth error per event: |d_i - d_r|, escape at OBJECT_ESCAPE_DEPTH."""
    _check_depth(d_r)
    return _one_ray_costs("depth", _as_depths(trace), d=np.array([d_r], dtype=np.float64))


def cost_mask(trace, s_r: int) -> EventCosts:
    """Foreground-mask cost: s_r for in-grid termination, 1 - s_r for escape.

    s_r = 0 marks a foreground pixel (the ray hits the object), s_r = 1
    background.
    """
    if s_r not in (0, 1):
        raise ValueError(f"s_r must be 0 or 1, got {s_r!r}")
    return _one_ray_costs("mask", np.zeros(_as_length(trace)), s=np.array([s_r]))


def cost_semantic(trace, p_r, d_r: float, c_r: int, label_weight: float = 1.0) -> EventCosts:
    """Disparity error plus class negative log-likelihood.

    psi(i) = |1/d_i - 1/d_r| - label_weight * log p_i(c_r); the escape
    event uses disparity 1/SCENE_ESCAPE_DEPTH and the uniform distribution over
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
                          c=np.array([int(c_r)]), label_weight=label_weight)


def cost_color(trace, p_r, c_r) -> EventCosts:
    """Half squared RGB error; escaping rays are scored against white."""
    n = _as_length(trace)
    p = np.asarray(p_r, dtype=np.float64)
    c = np.asarray(c_r, dtype=np.float64)
    if p.shape != (n, 3) or c.shape != (3,):
        raise ValueError("p_r must be (N, 3) colors and c_r a single RGB triple")
    return _one_ray_costs("color", np.zeros(n), p, c=c[None])


def _one_ray(x_r, costs, *, backward: bool = True, events: bool = False):
    """``_telescope`` on one ray: its N cells are N slots of one entry."""
    x = np.asarray(x_r, dtype=np.float64)
    psi = costs.psi if isinstance(costs, EventCosts) else np.asarray(costs, dtype=np.float64)
    if psi.ndim != 1 or psi.size != x.size + 1:
        raise ValueError(f"psi must have length N+1 = {x.size + 1}, got {psi.size}")
    per_ray, grad, p_events = _telescope(x, np.diff(psi), psi[:1], [1] * x.size,
                                         backward=backward, events=events)
    return float(per_ray[0]), grad, p_events


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
    or an (R, 3) RGB array (color).
    """

    kind: str
    weights: np.ndarray
    s: np.ndarray | None = None
    d: np.ndarray | None = None
    c: np.ndarray | None = None

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

    @property
    def n_rays(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def concatenate(cls, batches) -> "RayBatch":
        """The rays of ``batches``, all of one kind, in order."""
        kinds = {b.kind for b in batches}
        if len(kinds) != 1:
            raise ValueError(f"batches must share one ray kind, got {sorted(kinds)}")
        fields = {k: None if getattr(batches[0], k) is None
                  else np.concatenate([getattr(b, k) for b in batches]) for k in ("s", "d", "c")}
        return cls(kinds.pop(), np.concatenate([b.weights for b in batches]), **fields)

    def observed(self, which) -> dict:
        """The observation fields (s, d, c) of rays ``which``."""
        return {k: None if v is None else v[which]
                for k, v in (("s", self.s), ("d", self.d), ("c", self.c))}


@dataclass(frozen=True, eq=False)
class ViewLossResult:
    loss: float
    grad_x: np.ndarray
    grad_p: np.ndarray | None


def _hit_loss(x: np.ndarray, payload, kind: str, traces: TraceTable, weights: np.ndarray, observed: dict,
              label_weight: float):
    """The kernel on rays that all enter the grid, the rows of ``traces``.
    Returns the per-ray losses and, per entry of the slot-major layout, the
    cell and the weighted d(loss)/dx, then for payload kinds the flat
    payload index and the weighted payload gradient there ((E,) at the
    observed class, or (E, 3)), else None and None.  A pass's per-cell
    arrays set a fit's peak memory, so each is dropped as soon as it has
    been used."""
    n = traces.n
    order = np.argsort(-n, kind="stable")  # the rays by decreasing length
    m = n.size - np.cumsum(np.bincount(n))[:-1]  # per slot k, the rays longer than k
    off = np.concatenate([[0], np.cumsum(m)])  # slot k's run starts at off[k]
    size = int(off[-1])
    ray = np.arange(size) - np.repeat(off[:-1], m)  # each entry's ray, as a place in ``order``
    # slot k's run holds the k-th cells of rays order[:m[k]], read with one
    # gather per array at start + k
    src = np.take(traces.start[order], ray)
    src += np.repeat(np.arange(m.size), m)
    cells, t_exit = np.take(traces.cells, src), np.take(traces.t_exit, src)
    del src
    # past slot 0, an entry's ray left the cell before it m[k-1] places back
    prev = np.arange(m[0], size) - np.repeat(m[:-1], m[1:])
    # event depths 0.5 * (t_enter + t_exit), entering at t0 in slot 0
    d_mid = np.empty_like(t_exit)
    d_mid[:m[0]] = traces.t0[order]
    d_mid[m[0]:] = np.take(t_exit, prev)
    d_mid += t_exit
    d_mid *= 0.5
    del t_exit
    observed = {f: None if v is None else v[order] for f, v in observed.items()}
    psi, psi_esc, at_p, dpsi_dp = _event_costs(kind, d_mid, cells, ray, payload, **observed,
                                               label_weight=label_weight)
    del d_mid
    dpsi = np.empty_like(psi)  # psi_{k+1} - psi_k, escape after the last cell
    dpsi[prev] = psi[m[0]:]
    del prev
    dpsi[np.take(off, n[order] - 1) + np.arange(n.size)] = psi_esc
    dpsi -= psi
    per_ray, grad, p_events = _telescope(np.take(x, cells), dpsi, psi[:m[0]], m.tolist(),
                                         events=dpsi_dp is not None)
    del psi, dpsi
    w = np.take(weights[order], ray)
    del ray
    grad *= w
    losses = np.empty_like(per_ray)
    losses[order] = per_ray
    if dpsi_dp is None:
        return losses, cells, grad, None, None
    if kind == "color":
        p_events, w = p_events[:, None], w[:, None]
    dpsi_dp *= p_events
    dpsi_dp *= w
    return losses, cells, grad, at_p, dpsi_dp


def view_loss(occ: OccupancyGrid, rays: RayBatch, aux: AuxGrid | None = None, *,
              label_weight: float = 1.0, traces: TraceTable) -> ViewLossResult:
    """Weighted sum of per-ray losses plus gradients scattered onto the grid.

    ``traces`` is a ``TraceTable`` whose rows, in order, are the rays: an
    ``image_traces`` table, its rows or a take of them, or ``trace_batch``
    over the rays.  The loss is one dot of the weights with the per-ray
    losses.  Each cell's gradient adds its terms pass by pass, and within a
    pass slot by slot, the longest rays first (ties in ray order), so the
    result is reproducible.  Cells no ray touches get zero gradient.

    Only rays that enter the grid run through the telescoped kernel, in
    passes of about LOSS_CHUNK cells.  A miss has one event, escape: its
    loss is the escape cost and its gradient zero.
    """
    if rays.n_rays == 0:
        raise ValueError("ray set is empty")
    want = AUX_KINDS.get(rays.kind)
    if want is not None:
        if aux is None or aux.kind != want:
            raise ValueError(f"{rays.kind} rays need an aux grid of kind {want!r}")
        if not same_geometry(aux.geometry, occ.geometry):
            raise ValueError("aux grid geometry does not match the occupancy grid")
    geom = occ.geometry
    if not same_geometry(traces.geometry, geom):
        raise ValueError("traces were built on a different geometry")
    n = traces.n
    if n.shape != (rays.n_rays,):
        raise ValueError(f"need one trace per ray, got {n.shape[0]} for {rays.n_rays} rays")
    payload = None if aux is None else aux.flat

    per_ray = np.empty(rays.n_rays)
    miss = np.flatnonzero(n == 0)
    none = np.zeros(0, dtype=np.int64)
    per_ray[miss] = _event_costs(rays.kind, np.zeros(0), none, none, payload,
                                 **rays.observed(miss), label_weight=label_weight)[1]

    hit = np.flatnonzero(n)
    grad_x = np.zeros(geom.ncells)
    grad_p = None if payload is None else np.zeros(payload.size)
    # passes of whole rays, a new one after every LOSS_CHUNK cells, each
    # scattered in its slot-major order
    ends = np.cumsum(n[hit])
    stops = np.searchsorted(ends, np.arange(LOSS_CHUNK, ends[-1] if hit.size else 0, LOSS_CHUNK))
    for i, j in zip([0, *stops.tolist()], [*stops.tolist(), hit.size]):
        if i == j:  # two stops meet past a ray of more than LOSS_CHUNK cells
            continue
        rows = hit[i:j]
        per_ray[rows], cells, gx, at_p, gp = _hit_loss(occ.flat, payload, rays.kind, traces.take(rows),
                                                       rays.weights[rows], rays.observed(rows), label_weight)
        grad_x += np.bincount(cells, weights=gx, minlength=grad_x.size)
        if gp is not None:
            grad_p += np.bincount(at_p.ravel(), weights=gp.ravel(), minlength=grad_p.size)
        del cells, gx, at_p, gp
    loss = float(rays.weights @ per_ray)

    if grad_p is not None:
        grad_p = grad_p.reshape(*geom.shape, aux.nchannels)
    return ViewLossResult(loss, grad_x.reshape(geom.shape), grad_p)
