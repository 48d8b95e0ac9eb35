"""Depth-fusion pseudo-ground-truth and a mask space-carving oracle.

Fusion walks every pixel ray of every depth view: cells the ray exits
before the observed hit depth get an empty count, the cell containing the
hit point an occupied count; background (escape-depth) rays count their
whole trace as empty.  Soft occupancy is occupied/(occupied+empty); cells
no ray touched are invalid.  Unlike the ray loss this treats each ray as
an independent unary vote per cell, which is what makes it brittle under
depth noise.

Noisy hit points are clamped into the ray's traversed interval (a noisy
depth just past the far side still votes for the last cell); rays whose
pixel reads the escape sentinel count as escapes.

Fusion and carving read the ``image_traces`` table of all the views'
cameras, built by ``view_traces`` or taken from ``traces=``, one view's
rows (``camera_rows``, views of the table's storage) at a time, so a
caller that also renders or fits from the same cameras traces them once.
"""

from __future__ import annotations

import numpy as np

from .grid import BinaryGrid, GridGeometry, OccupancyGrid
from .renderer import Observation, view_traces
from .traversal import trace_batch  # noqa: F401  (perfbench patches fusion.trace_batch)


def accumulate_depth_counts(observations: list[Observation], geometry: GridGeometry, *,
                            traces=None):
    """Per-cell (empty, occupied) ray counts, int64 arrays of the grid's shape.

    ``traces``, if given, holds each observation's ``image_traces`` table.
    """
    for obs in observations:
        if obs.kind != "depth":
            raise ValueError(f"depth fusion needs depth observations, got {obs.kind!r}")
    empty = np.zeros(geometry.ncells, dtype=np.int64)
    occupied = np.zeros(geometry.ncells, dtype=np.int64)
    table = view_traces([obs.camera for obs in observations], geometry, traces)
    for i, obs in enumerate(observations):
        view_empty, view_occupied = _depth_votes(obs, table.camera_rows(i))
        empty += view_empty
        occupied += view_occupied
    return empty.reshape(geometry.shape), occupied.reshape(geometry.shape)


def _depth_votes(obs: Observation, table):
    """Per-cell (empty, occupied) counts of one view.  Per-ray values are
    spread over the table's entries with ``np.repeat``, so at most one
    8-byte per-entry array lives at a time, and all of them are freed
    before the next view's are made.  ``np.bincount`` copies an int32 index
    to int64, but only the entries it counts: an int64 ray index built once
    instead doubled the peak (5.5 against 2.9 MB on a 128 px view)."""
    ncells = table.geometry.ncells
    d_r = obs.depth.reshape(-1)
    fg = obs.foreground().reshape(-1)

    # index of the cell containing the (clamped) hit point
    passed_entry = table.t_exit < np.repeat(d_r, table.n)
    passed = np.bincount(table.cell_rays()[passed_entry], minlength=table.n_rays)
    hit_idx = np.minimum(passed, np.maximum(table.n - 1, 0))
    hit_rays = fg & (table.n > 0)
    occupied = np.bincount(table.cells[table.start[hit_rays] + hit_idx[hit_rays]], minlength=ncells)

    # a hit ray votes empty for the cells before its hit, an escape for its
    # whole trace: the first n_empty entries of each ray
    n_empty = np.where(fg, hit_idx, table.n)
    end = (table.start + n_empty).astype(np.int32)
    empty_entry = np.arange(table.cells.size, dtype=np.int32) < np.repeat(end, table.n)
    return np.bincount(table.cells[empty_entry], minlength=ncells), occupied


def fuse_depth(observations: list[Observation], geometry: GridGeometry, *, traces=None):
    """(soft occupancy field, validity mask) from per-voxel ray counts:
    soft = occupied/(occupied+empty) where any count exists, 0 elsewhere
    (marked invalid)."""
    empty, occupied = accumulate_depth_counts(observations, geometry, traces=traces)
    total = empty + occupied
    valid = total > 0
    soft = np.zeros(geometry.shape)
    soft[valid] = occupied[valid] / total[valid]
    return soft, valid


def fused_to_occupancy_grid(soft: np.ndarray, valid: np.ndarray,
                            geometry: GridGeometry) -> OccupancyGrid:
    """Fused field in the emptiness convention: x = 1 - soft.

    Invalid cells (no ray information) are scored as empty (x = 1) so the
    field can be compared against a full ground truth.
    """
    return OccupancyGrid(geometry, np.where(valid, 1.0 - soft, 1.0))


def carve_masks(observations: list[Observation], geometry: GridGeometry, *,
                traces=None) -> BinaryGrid:
    """Visual hull: a cell stays occupied unless a background ray crosses it.

    ``traces``, if given, holds each observation's ``image_traces`` table.
    """
    for obs in observations:
        if obs.kind != "mask":
            raise ValueError(f"mask carving needs mask observations, got {obs.kind!r}")
    carved = np.zeros(geometry.ncells, dtype=bool)
    table = view_traces([obs.camera for obs in observations], geometry, traces)
    for i, obs in enumerate(observations):
        background = obs.mask.reshape(-1) == 0
        if background.any():
            rows = table.camera_rows(i)
            carved[rows.cells[np.repeat(background, rows.n)]] = True
    return BinaryGrid(geometry, ~carved.reshape(geometry.shape))
