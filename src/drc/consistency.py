"""Ray consistency: the expected event cost of rays and its gradients.

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
of the weights with the per-ray losses, which the result also returns
(``per_ray``).  ``view_loss`` is the one way to evaluate the loss: ``fit``,
``drc gradcheck`` (``metrics.run_gradcheck``) and the tests' oracles all
call it, so they check the fitter's kernel, sum order included.

A payload gradient is p(z = i) * dpsi_i/dp_i per cell.  A semantic cost
depends on the observed class c alone, so the kernel keeps one derivative
-label_weight / p_i(c) per cell, and ``view_loss`` adds it into the flat
payload at cell * K + c.  A color cost keeps its (E, 3) residual, added at
cell * 3 + channel.

The costs of event i at depth d_i (the midpoint of the cell's segment),
and of escape, for a ray observed as s, d, c (see RayBatch):

    mask             s                                  1 - s
    depth            |d_i - d|                          |OBJECT_ESCAPE_DEPTH - d|
    depth_semantics  |1/d_i - 1/d| - w log p_i(c)       |1/SCENE_ESCAPE_DEPTH - 1/d| + w log K
    color            |p_i - c|^2 / 2                    |ESCAPE_COLOR - c|^2 / 2

so a semantic escape means near-zero disparity and the uniform
distribution over the K classes, and a color escape is white; w is the
label weight and p_i(c) is floored at LOG_PROB_FLOOR inside the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import AuxGrid, OccupancyGrid, same_geometry
from .traversal import TraceTable, trace_batch  # noqa: F401  (perfbench patches consistency.trace_batch)

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


def _telescope(x: np.ndarray, dpsi: np.ndarray, psi_first: np.ndarray, m: list, *, events: bool = False):
    """(R,) per-ray losses psi_1 + sum_k dpsi_k prod_{j<=k} x_j, then (E,)
    d(loss)/dx and (E,) cell-event probabilities if ``events`` (else
    None).  The gradient is computed in ``dpsi``.

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

    p_events = None
    if events:
        p_events = 1.0 - x
        p_events *= pre
    # backward recurrence S_k = dpsi_k + x_{k+1} S_{k+1}; grad = pre * S
    grad = dpsi
    for k in range(len(m) - 2, -1, -1):
        a, b, more = off[k], off[k + 1], m[k + 1]
        grad[a:a + more] += x[b:b + more] * grad[b:b + more]
    grad *= pre
    return per_ray, grad, p_events


# ---------------------------------------------------------------------------
# Whole-view evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RayBatch:
    """A set of rays with per-ray observations and loss weights; the rays
    themselves are the rows of a ``TraceTable`` passed with the batch.

    Per kind: ``s`` (0 foreground / 1 background) for mask; ``d``, a
    positive finite depth, for depth and depth_semantics; ``c`` is a
    non-negative int class id per ray (depth_semantics) or an (R, 3) finite
    RGB array (color).  Weights are positive and finite.
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
        if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
            raise ValueError("ray weights must be positive and finite")
        r = self.n_rays
        need = {"mask": {"s": (r,)}, "depth": {"d": (r,)}, "depth_semantics": {"d": (r,), "c": (r,)},
                "color": {"c": (r, 3)}}[self.kind]
        for field, shape in need.items():
            v = getattr(self, field)
            if v is None:
                raise ValueError(f"{self.kind} rays need per-ray field {field!r}")
            if v.shape != shape:
                raise ValueError(f"{field} must have shape {shape} for {r} rays, got {v.shape}")
        if self.kind == "mask" and not np.all((self.s == 0) | (self.s == 1)):
            raise ValueError("mask observations s must be 0 or 1")
        if "d" in need and not np.all(np.isfinite(self.d) & (self.d > 0.0)):
            raise ValueError("observed depths must be positive and finite")
        if self.kind == "depth_semantics" and not (np.issubdtype(self.c.dtype, np.integer)
                                                    and np.all(self.c >= 0)):
            raise ValueError("observed class ids must be non-negative integers")
        if self.kind == "color" and not np.all(np.isfinite(self.c)):
            raise ValueError("observed colors must be finite")

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
    """The weighted loss ``weights @ per_ray``, the (R,) unweighted per-ray
    losses, and the loss's gradients on the grid's cells and payloads."""

    loss: float
    per_ray: np.ndarray
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
    """Weighted sum of per-ray losses plus gradients scattered onto the grid:
    the one way to evaluate the loss.

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
    elif aux is not None:  # its payload gradient would be zero and never move
        raise ValueError(f"{rays.kind} rays take no aux grid, got one of kind {aux.kind!r}")
    if rays.kind == "depth_semantics" and rays.c.max() >= aux.nchannels:
        raise ValueError(f"observed class ids must be below the aux grid's {aux.nchannels} classes")
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
    return ViewLossResult(loss, per_ray, grad_x.reshape(geom.shape), grad_p)
