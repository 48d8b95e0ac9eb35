"""Command-line pipeline: shape / render / fit / fuse / eval / gradcheck / repro.

Every command writes a manifest.txt next to its outputs recording the
resolved parameters, seeds, Python and numpy versions and (fit, repro) wall
time; re-running with the same manifest reproduces the other outputs bitwise
(all randomness is seeded, reductions ordered).  Exit codes: 0 success,
1 usage error, 2 data/format error, 3 check failure.

Numeric defaults (the full table also lives in the README):

    dims 32          unit-cube grid [-0.5, 0.5]^3
    views 5          ring radius 2.2 m, hfov 50 deg, 64x64 px,
                     elevation [-20, 30] deg
    noise 0.2 m      depth-noise amplitude used by repro
    iters 500        fit iterations
    rays 3000        rays per fit iteration (split across views)
    step 0.05        Adam step size (betas 0.9/0.999, eps 1e-8)
    fg-weight 5      foreground ray weight
    escape depth 10 m (object) / 1000 m (disparity costs)
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .consistency import AUX_KINDS, RAY_KINDS
from .errors import FormatError
from .fitter import FitConfig, fit, write_loss_log
from .fusion import carve_masks, fuse_depth, fused_to_occupancy_grid
from .grid import (
    BinaryGrid,
    load_grid,
    make_frustum_geometry,
    same_geometry,
    save_grid,
    uniform_geometry,
    unit_cube_geometry,
)
from .metrics import best_threshold, run_gradcheck
from .renderer import (
    SHAPE_NAMES,
    add_depth_noise,
    image_traces,
    list_observation_bundles,
    load_observation_bundle,
    make_test_shape,
    render,
    sample_view_ring,
    save_observation_bundle,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class UsageError(ValueError):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) == 1:
        n = int(parts[0])
        return (n, n, n)
    if len(parts) == 3:
        return tuple(int(p) for p in parts)
    raise UsageError(f"--dims wants N or NX,NY,NZ, got {text!r}")


def _parse_floats(text: str, flag: str, form: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise UsageError(f"{flag} wants {form}, got {text!r}")
    return [float(p) for p in parts]


def _geometry_from_args(args):
    if getattr(args, "frustum", None):
        z_min, z_max, hfov = _parse_floats(args.frustum, "--frustum", "z_min,z_max,hfov")
        return make_frustum_geometry(_parse_dims(args.dims), z_min, z_max, hfov)
    dims = _parse_dims(args.dims)
    if getattr(args, "aabb", None):
        vals = _parse_floats(args.aabb, "--aabb", "x0,y0,z0,x1,y1,z1")
        return uniform_geometry(dims, vals[:3], vals[3:])
    return unit_cube_geometry(dims)


def write_manifest(out_dir, command: str, args, extra: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    entries = {"command": command, "version": __version__,
               "python": platform.python_version(), "numpy": np.__version__}
    for key, val in sorted(vars(args).items()):
        if key in ("func",) or val is None:
            continue
        entries[key.replace("_", "-")] = val
    entries.update(extra or {})
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key} {entries[key]}\n")


def _load_bundles(obs_dir):
    dirs = list_observation_bundles(obs_dir)
    if not dirs:
        raise FormatError(f"{obs_dir}: no observation bundles found")
    return [load_observation_bundle(d) for d in dirs]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_shape(args) -> int:
    bgrid, aux = make_test_shape(args.name, _parse_dims(args.dims), aux_kind=args.aux,
                                 n_classes=args.classes)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "shape.grid")
    save_grid(path, bgrid, aux)
    write_manifest(args.out, "shape", args, {"cells-occupied": int(bgrid.occ.sum())})
    print(f"shape {args.name}: {int(bgrid.occ.sum())} occupied cells -> {path}")
    return EXIT_OK


def cmd_render(args) -> int:
    grid, aux, _ = load_grid(args.grid)
    if not isinstance(grid, BinaryGrid):
        raise FormatError(f"{args.grid}: rendering needs a hard (bin) grid")
    want = AUX_KINDS.get(args.kind)
    if want is not None and (aux is None or aux.kind != want):
        raise FormatError(f"{args.grid}: kind {args.kind} needs a {want!r} aux field in the grid file")
    if args.noise != 0.0 and args.kind != "depth":
        raise UsageError("--noise only applies to depth renders")
    lo, hi = _parse_floats(args.elevation, "--elevation", "LO,HI")
    cams = sample_view_ring(args.views, (lo, hi), args.radius, args.seed,
                            width=args.size, height=args.size, hfov_deg=args.hfov)
    os.makedirs(args.out, exist_ok=True)
    for i, cam in enumerate(cams):
        obs = render(grid, cam, args.kind, aux)
        if args.noise != 0.0:
            obs = add_depth_noise(obs, args.noise, seed=args.seed * 1000 + i)
        save_observation_bundle(os.path.join(args.out, f"view_{i:03d}"), obs)
    write_manifest(args.out, "render", args)
    print(f"rendered {args.views} {args.kind} views of {args.grid} -> {args.out}")
    return EXIT_OK


def _fit_config(args) -> FitConfig:
    return FitConfig(iterations=args.iters, step_size=args.step,
                     rays_per_iteration=args.rays, views_per_iteration=args.views_per_iter,
                     foreground_weight=args.fg_weight, seed=args.seed,
                     label_weight=args.label_weight, threads=args.threads)


def cmd_fit(args) -> int:
    observations = _load_bundles(args.obs)
    kinds = {o.kind for o in observations}
    if len(kinds) != 1:
        raise FormatError(f"{args.obs}: observations have mixed kinds {sorted(kinds)}")
    counts = {o.n_classes for o in observations}
    if len(counts) != 1:
        raise FormatError(f"{args.obs}: observations disagree on class count: {sorted(counts)}")
    kind = kinds.pop()
    if args.kind and args.kind != kind:
        raise FormatError(f"bundles are {kind!r} but --kind asked for {args.kind!r}")
    geometry = _geometry_from_args(args)
    config = _fit_config(args)
    occ, aux, report = fit(observations, geometry, kind, config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fitted.grid")
    save_grid(path, occ, aux)
    write_loss_log(os.path.join(args.out, "loss_log.tsv"), report, kind)
    write_manifest(args.out, "fit", args, {"kind": kind, "wall-time-s": f"{report.wall_time_s:.3f}"})
    final = report.losses[-1] if len(report.losses) else float("nan")
    rays = report.rays_per_loss[-1] if len(report.losses) else 0
    mean = final / rays if rays else float("nan")
    print(f"fit {kind} x{len(observations)} views, {args.iters} iters, "
          f"final loss {final:.4f} (per-ray {mean:.6f}) -> {path}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    observations = _load_bundles(args.obs)
    geometry = _geometry_from_args(args)
    try:
        soft, valid = fuse_depth(observations, geometry)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    occ = fused_to_occupancy_grid(soft, valid, geometry)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fused.grid")
    # stored field is x = 1 - soft_occupancy (invalid cells empty)
    save_grid(path, occ, annotations={"xform": "one-minus-soft-occupancy"})
    save_grid(os.path.join(args.out, "valid.grid"), BinaryGrid(geometry, valid))
    write_manifest(args.out, "fuse", args, {"valid-cells": int(valid.sum())})
    print(f"fused {len(observations)} depth views, {int(valid.sum())} cells with data -> {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_grid, _, _ = load_grid(args.pred)
    gt_grid, _, _ = load_grid(args.gt)
    if isinstance(pred_grid, BinaryGrid):
        pred_grid = pred_grid.as_occupancy_grid()
    if not isinstance(gt_grid, BinaryGrid):
        raise FormatError(f"{args.gt}: ground truth must be a hard (bin) grid")
    try:
        result = best_threshold(pred_grid, gt_grid)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    print(f"best_iou\t{result.best_iou:.6f}")
    print(f"best_threshold\t{result.best_threshold:.2f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "iou_curve.tsv"), "w", encoding="utf-8") as fh:
            fh.write("threshold\tiou\n")
            for t, i in result.curve:
                fh.write(f"{t:.2f}\t{i!r}\n")
        write_manifest(args.out, "eval", args,
                       {"best-iou": f"{result.best_iou!r}", "best-threshold": f"{result.best_threshold:.2f}"})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(args.kind, args.trials, args.seed)
    status = "PASS" if report.ok else "FAIL"
    print(f"gradcheck {report.kind}: {status} over {report.trials} trials; "
          f"max rel err x {report.max_rel_err_x:.3e}, aux {report.max_rel_err_p:.3e}; "
          f"max abs err x {report.max_abs_err_x:.3e}, aux {report.max_abs_err_p:.3e}")
    if not report.ok:
        raise CheckFailure("analytic gradients disagree with finite differences")
    return EXIT_OK


def cmd_repro(args) -> int:
    """Full desk-scale pipeline: shape -> render -> fit/fuse -> eval, for
    mask, depth and noisy-depth supervision on each test shape."""
    start = time.perf_counter()
    config = FitConfig(iterations=args.iters, rays_per_iteration=args.rays,
                       seed=args.seed, threads=args.threads)
    shapes = args.shapes.split(",")
    for name in shapes:
        if name not in SHAPE_NAMES:
            raise UsageError(f"unknown shape {name!r} in --shapes")
    os.makedirs(args.out, exist_ok=True)
    cams = sample_view_ring(args.views, seed=args.seed, width=args.size, height=args.size)
    traces = None
    table = []
    for name in shapes:
        gt, aux = make_test_shape(name, _parse_dims(args.dims))
        shape_dir = os.path.join(args.out, name)
        os.makedirs(shape_dir, exist_ok=True)
        save_grid(os.path.join(shape_dir, "gt.grid"), gt, aux)
        geometry = gt.geometry
        # every render, fit, fusion and carve below reads this one table of
        # every camera's pixels, shared by all shapes on the same geometry
        if traces is None or not same_geometry(traces.geometry, geometry):
            traces = image_traces(geometry, cams)
        depth_obs = [render(gt, c, "depth", traces=traces.camera_rows(i)) for i, c in enumerate(cams)]
        mask_obs = [render(gt, c, "mask", traces=traces.camera_rows(i)) for i, c in enumerate(cams)]
        noisy_obs = [add_depth_noise(o, args.noise, seed=args.seed * 1000 + i)
                     for i, o in enumerate(depth_obs)]

        row = {"shape": name}
        for tag, obs in (("mask_drc", mask_obs), ("depth_drc", depth_obs), ("noisy_drc", noisy_obs)):
            kind = "mask" if tag == "mask_drc" else "depth"
            occ, _, report = fit(obs, geometry, kind, config, traces=traces)
            save_grid(os.path.join(shape_dir, f"{tag}.grid"), occ)
            write_loss_log(os.path.join(shape_dir, f"{tag}_loss.tsv"), report, kind)
            row[tag] = best_threshold(occ, gt).best_iou
        for tag, obs in (("depth_fusion", depth_obs), ("noisy_fusion", noisy_obs)):
            fused = fused_to_occupancy_grid(*fuse_depth(obs, geometry, traces=traces), geometry)
            save_grid(os.path.join(shape_dir, f"{tag}.grid"), fused,
                      annotations={"xform": "one-minus-soft-occupancy"})
            row[tag] = best_threshold(fused, gt).best_iou
        hull = carve_masks(mask_obs, geometry, traces=traces)
        save_grid(os.path.join(shape_dir, "mask_hull.grid"), hull)
        table.append(row)

    columns = ("shape", "mask_drc", "depth_fusion", "depth_drc", "noisy_fusion", "noisy_drc")
    lines = ["\t".join(columns)]
    for row in table:
        lines.append("\t".join(row["shape"] if c == "shape" else f"{row[c]:.4f}" for c in columns))
    report_text = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "table.tsv"), "w", encoding="utf-8") as fh:
        fh.write(report_text)
    write_manifest(args.out, "repro", args, {"wall-time-s": f"{time.perf_counter() - start:.3f}"})
    sys.stdout.write(report_text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="drc", description="differentiable ray consistency toolkit")
    parser.add_argument("--version", action="version", version=f"drc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", required=True, help="output directory")

    def add_threading_flags(p):
        # kept for existing scripts: fits always run on one thread
        p.add_argument("--threads", type=int, default=1, help="must be 1")

    p = sub.add_parser("shape", help="generate a procedural ground-truth shape")
    p.add_argument("--name", required=True, choices=SHAPE_NAMES)
    p.add_argument("--dims", default="32")
    p.add_argument("--aux", default="color", choices=("color", "semantics"))
    p.add_argument("--classes", type=int, default=4)
    common_out(p)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("render", help="render observation bundles of a shape grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--views", type=int, default=5)
    p.add_argument("--kind", default="depth", choices=RAY_KINDS)
    p.add_argument("--noise", type=float, default=0.0, help="max depth noise in meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=2.2)
    p.add_argument("--hfov", type=float, default=50.0)
    p.add_argument("--size", type=int, default=64, help="image width and height")
    p.add_argument("--elevation", default="-20,30", help="elevation range LO,HI degrees")
    common_out(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fit", help="reconstruct a grid from observation bundles")
    p.add_argument("--obs", required=True, help="directory of observation bundles")
    p.add_argument("--kind", default=None, choices=RAY_KINDS)
    p.add_argument("--dims", default="32")
    p.add_argument("--aabb", default=None, help="x0,y0,z0,x1,y1,z1 grid box")
    p.add_argument("--frustum", default=None, help="z_min,z_max,hfov frustum geometry")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--rays", type=int, default=3000)
    p.add_argument("--views-per-iter", type=int, default=None)
    p.add_argument("--fg-weight", type=float, default=5.0)
    p.add_argument("--label-weight", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    add_threading_flags(p)
    common_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fuse", help="depth-fusion baseline pseudo-ground-truth")
    p.add_argument("--obs", required=True)
    p.add_argument("--dims", default="32")
    p.add_argument("--aabb", default=None)
    p.add_argument("--frustum", default=None)
    common_out(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="optimal-threshold IoU of a prediction vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None, help="directory for the IoU curve TSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--kind", default="depth", choices=RAY_KINDS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("repro", help="full pipeline: shape/render/fit/fuse/eval table")
    p.add_argument("--shapes", default="sphere,chair_like")
    p.add_argument("--dims", default="32")
    p.add_argument("--views", type=int, default=5)
    p.add_argument("--size", type=int, default=128, help="render resolution")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--rays", type=int, default=3000)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=10)
    add_threading_flags(p)
    common_out(p)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, MemoryError) as exc:  # MemoryError: a size too large for memory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
