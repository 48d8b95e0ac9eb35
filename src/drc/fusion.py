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
"""

from __future__ import annotations

import numpy as np

from .grid import BinaryGrid, GridGeometry, OccupancyGrid
from .renderer import Observation
from .cameras import image_grid_rays
from .traversal import trace_batch


def accumulate_depth_counts(observations: list[Observation], geometry: GridGeometry):
    """Per-cell (empty, occupied) ray counts, int64 arrays of the grid's shape."""
    for obs in observations:
        if obs.kind != "depth":
            raise ValueError(f"depth fusion needs depth observations, got {obs.kind!r}")
    empty = np.zeros(geometry.ncells, dtype=np.int64)
    occupied = np.zeros(geometry.ncells, dtype=np.int64)
    for obs in observations:
        origins, dirs = image_grid_rays(obs.camera)
        table = trace_batch(geometry, origins.reshape(-1, 3), dirs.reshape(-1, 3))
        ray = table.cell_rays()
        d_r = obs.depth.reshape(-1)
        fg = obs.foreground().reshape(-1)

        # index of the cell containing the (clamped) hit point
        passed = np.bincount(ray[table.t_exit < d_r[ray]], minlength=table.n_rays)
        hit_idx = np.minimum(passed, np.maximum(table.n - 1, 0))
        hit_rays = fg & (table.n > 0)
        occupied += np.bincount(table.cells[table.start[hit_rays] + hit_idx[hit_rays]],
                                minlength=geometry.ncells)

        k = np.arange(table.cells.size) - table.start[ray]  # position along the ray
        empty_entry = np.where(hit_rays[ray], k < hit_idx[ray], ~fg[ray])
        empty += np.bincount(table.cells[empty_entry], minlength=geometry.ncells)
    return empty.reshape(geometry.shape), occupied.reshape(geometry.shape)


def fuse_depth(observations: list[Observation], geometry: GridGeometry):
    """(soft occupancy field, validity mask) from per-voxel ray counts:
    soft = occupied/(occupied+empty) where any count exists, 0 elsewhere
    (marked invalid)."""
    empty, occupied = accumulate_depth_counts(observations, geometry)
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


def carve_masks(observations: list[Observation], geometry: GridGeometry) -> BinaryGrid:
    """Visual hull: a cell stays occupied unless a background ray crosses it."""
    for obs in observations:
        if obs.kind != "mask":
            raise ValueError(f"mask carving needs mask observations, got {obs.kind!r}")
    carved = np.zeros(geometry.ncells, dtype=bool)
    for obs in observations:
        origins, dirs = image_grid_rays(obs.camera)
        background = obs.mask.reshape(-1) == 0
        if not background.any():
            continue
        table = trace_batch(geometry, origins.reshape(-1, 3)[background],
                            dirs.reshape(-1, 3)[background])
        carved[table.cells] = True
    return BinaryGrid(geometry, ~carved.reshape(geometry.shape))
