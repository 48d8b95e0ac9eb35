"""Which drc functions are traced, under which span names, and the per-layer
metrics derived from the spans.

Each public function is replaced at the module attribute its caller looks
it up through (``drc.fitter.view_loss`` is what ``fit`` calls,
``drc.consistency.trace_batch`` is what ``view_loss`` calls, and so on), so
no file of the package changes.  Counts come from the arguments and the
returned ``PackedTraces``, ``RayBatch``, ``Camera`` and ``FitReport``.
"""

from __future__ import annotations

import os

import numpy as np

from drc import cameras, cli, consistency, fitter, fusion, renderer

from tracer import Aggregate

# Bytes per traced slot (one ray x one padded cell) of the arrays view_loss
# names, computed from their shapes; temporaries numpy makes in between are
# not counted.  x, cum, pre, psi, dpsi, s, grad (float64), cells (int64),
# valid (bool); payload kinds add dpsi_dp and contrib (K float64 each) and
# p_events (float64).
_SLOT_BYTES = 8 * 8 + 1
_PAYLOAD_SLOT_BYTES_PER_CLASS = 2 * 8
_PAYLOAD_SLOT_BYTES = 8

LOSS_KINDS = ("mask", "depth", "depth_semantics")

# self-time span names that may appear under a measured operation; their
# self times add up to the operation's traced wall time
OP_SPANS = (
    "bench.op", "cli.repro", "fitter.fit", "fitter.sample_rays", "fitter.adam",
    "cameras.pixel_rays", "traversal.uniform", "traversal.frustum",
    *(f"consistency.view_loss.{k}" for k in LOSS_KINDS),
    "renderer.render", "fusion.fuse_depth", "fusion.carve_masks",
    "metrics.best_threshold", "grid.save_grid",
)
SETUP_SPANS = ("bench.setup", "renderer.render", "cameras.pixel_rays",
               "traversal.uniform", "traversal.frustum")


def _trace_name(args, kwargs):
    return f"traversal.{args[0].kind}"


def _trace_counts(args, kwargs, packed):
    return {"rays": packed.n_rays, "hits": int(np.count_nonzero(packed.n)),
            "cells": int(packed.n.sum()), "slots": packed.n_rays * packed.max_len}


def _rays_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["rays"]


def _view_loss_name(args, kwargs):
    return f"consistency.view_loss.{_rays_arg(args, kwargs).kind}"


def _view_loss_counts(args, kwargs, result):
    aux = args[2] if len(args) > 2 else kwargs.get("aux")
    return {"rays": _rays_arg(args, kwargs).n_rays, "classes": aux.nchannels if aux is not None else 0}


def _render_counts(args, kwargs, obs):
    return {"pixels": obs.camera.width * obs.camera.height}


def _fit_counts(args, kwargs, result):
    return {"iterations": len(result[2].losses)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def replacements(tracer) -> list:
    """(module or class, attribute, traced function) for ``tracer.patched``."""
    w = tracer.wrap
    out = []
    for owner in (cameras, renderer):
        out.append((owner, "pixel_rays", w(owner.pixel_rays, "cameras.pixel_rays")))
    for owner in (consistency, renderer, fusion):
        out.append((owner, "trace_batch", w(owner.trace_batch, _trace_name, _trace_counts)))
    for owner in (fitter, cli):
        out.append((owner, "fit", w(owner.fit, "fitter.fit", _fit_counts)))
    for owner in (renderer, cli):
        out.append((owner, "render", w(owner.render, "renderer.render", _render_counts)))
    out += [
        (fitter, "view_loss", w(fitter.view_loss, _view_loss_name, _view_loss_counts)),
        (fitter, "sample_rays", w(fitter.sample_rays, "fitter.sample_rays")),
        (fitter.Adam, "update", w(fitter.Adam.update, "fitter.adam")),
        (cli, "fuse_depth", w(cli.fuse_depth, "fusion.fuse_depth")),
        (cli, "carve_masks", w(cli.carve_masks, "fusion.carve_masks")),
        (cli, "best_threshold", w(cli.best_threshold, "metrics.best_threshold")),
        (cli, "save_grid", w(cli.save_grid, "grid.save_grid", _save_counts)),
        (cli, "main", w(cli.main, "cli.repro")),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(aggs: dict[str, Aggregate], untraced_s: list[float],
                  traced_s: list[float]) -> dict[str, float]:
    """Per-layer values: milliseconds and counts per operation (``bench.op``)
    or per set-up (``bench.setup``), rates and ratios over the traced run."""
    op = aggs.get("bench.op", Aggregate())
    setup = aggs.get("bench.setup", Aggregate())
    for agg, allowed in ((op, OP_SPANS), (setup, SETUP_SPANS)):
        unknown = set(agg.self_s) - set(allowed)
        if unknown:
            raise RuntimeError(f"spans outside the accounted layers: {sorted(unknown)}")

    def ms(agg, name):
        return agg.per_root(agg.self_s.get(name, 0.0)) * 1e3

    def count(agg, name, key):
        return agg.per_root(agg.counts.get(name, {}).get(key, 0.0))

    out = {}
    for geom in ("uniform", "frustum"):
        name = f"traversal.{geom}"
        out[f"{name}.self_ms"] = ms(op, name)
        out[f"{name}.rays_per_s"] = _ratio(op.counts.get(name, {}).get("rays", 0.0),
                                           op.self_s.get(name, 0.0))
    for key in ("rays", "hits", "cells", "slots"):
        out[f"traversal.{key}"] = sum(count(op, f"traversal.{g}", key) for g in ("uniform", "frustum"))
    out["traversal.hit_fraction"] = _ratio(out["traversal.hits"], out["traversal.rays"])
    out["traversal.pad_fill"] = _ratio(out["traversal.cells"], out["traversal.slots"])

    loss_ms = loss_rays = loss_slots = loss_bytes = 0.0
    for kind in LOSS_KINDS:
        name = f"consistency.view_loss.{kind}"
        rays = count(op, name, "rays")
        slots = op.per_root(op.child_counts.get(name, {}).get("slots", 0.0))
        calls = op.calls.get(name, 0)
        classes = _ratio(op.counts.get(name, {}).get("classes", 0.0), calls)
        per_slot = _SLOT_BYTES
        if classes:
            per_slot += _PAYLOAD_SLOT_BYTES + classes * _PAYLOAD_SLOT_BYTES_PER_CLASS
        out[f"{name}.us_per_ray"] = _ratio(ms(op, name) * 1e3, rays)
        loss_ms += ms(op, name)
        loss_rays += rays
        loss_slots += slots
        loss_bytes += slots * per_slot
    out["consistency.view_loss.self_ms"] = loss_ms
    out["consistency.view_loss.rays"] = loss_rays
    out["consistency.view_loss.slots"] = loss_slots
    out["consistency.view_loss.computed_mb"] = loss_bytes / 1e6

    for name in ("cameras.pixel_rays", "fitter.sample_rays", "fitter.adam", "fitter.fit",
                 "renderer.render", "fusion.fuse_depth", "fusion.carve_masks",
                 "metrics.best_threshold", "grid.save_grid", "cli.repro", "bench.op"):
        out[f"{name}.self_ms"] = ms(op, name)
    out["fitter.iterations"] = count(op, "fitter.fit", "iterations")
    out["renderer.render.pixels"] = count(op, "renderer.render", "pixels")
    out["grid.save_grid.bytes"] = count(op, "grid.save_grid", "bytes")

    out["span.self_sum_ms"] = op.per_root(sum(op.self_s.values())) * 1e3
    untraced_ms = 1e3 * sum(untraced_s) / len(untraced_s)
    traced_ms = 1e3 * sum(traced_s) / len(traced_s)
    out["run.untraced_ms"] = untraced_ms
    out["run.traced_ms"] = traced_ms
    out["trace_overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms

    for name in SETUP_SPANS:
        label = "setup.bench" if name == "bench.setup" else f"setup.{name}"
        out[f"{label}.self_ms"] = ms(setup, name)
    return out
