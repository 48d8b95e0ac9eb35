"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The reconstruction
criteria share one module-scoped set of fixtures (shapes, rendered views,
fitted grids) built with pinned seeds; building it takes a few minutes.

Fixture conventions: view ring seed 10, fit seed 7, 128 px images for the
reconstruction criteria, 256 px for the noise-robustness criterion (the
extra pixels per cell average the per-pixel noise), noise amplitude
0.2 x the shape's bounding extent.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from drc.cli import main as cli_main
from drc import consistency
from drc.consistency import view_loss
from drc.fitter import FitConfig, fit
from drc.fusion import fuse_depth, fused_to_occupancy_grid
from drc.grid import make_frustum_geometry, uniform_geometry
from drc.metrics import best_threshold, run_gradcheck
from drc.renderer import (
    add_depth_noise,
    chair_cavity_mask,
    full_image_rays,
    image_traces,
    make_test_shape,
    render,
    sample_view_ring,
)
from oracles import (brute_force_ray_loss, cell_faces, clip_cells, dense_sample_cells, event_probabilities,
                     mask_loss_closed_form, random_strip_rays, shape_scale, strip_psi, strip_view_loss,
                     surface_cells, trace_one)

VIEW_SEED = 10
FIT_SEED = 7
DIMS = (32, 32, 32)
RES_FIT = 128
RES_NOISE = 256
COST_KINDS = ("mask", "depth", "depth_semantics", "color")


def report(num, slug, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {slug}: {detail}"


def random_ray(rng, spread=2.0):
    d = rng.normal(size=3)
    return rng.uniform(-spread, spread, 3), d / np.linalg.norm(d)


@dataclass
class ShapeFits:
    gt: object
    aux: object
    depth_obs: list
    mask_obs: list
    depth_iou: float
    mask_iou: float
    clean256_iou: float
    noisy_iou: float
    noisy_fusion_iou: float
    noise_amplitude: float
    fit_seconds: dict = field(default_factory=dict)
    depth_fit: object = None
    mask_fit: object = None
    traces: object = None  # the image_traces table of the 128 px cameras


def _build_shape(name):
    """Each camera set is traced once, into one table; its renders, fits and
    fusion share it."""
    gt, aux = make_test_shape(name, DIMS)
    cfg = FitConfig(iterations=500, seed=FIT_SEED)
    geom = gt.geometry

    cams = sample_view_ring(5, seed=VIEW_SEED, width=RES_FIT, height=RES_FIT)
    traces = image_traces(geom, cams)
    depth_obs = [render(gt, c, "depth", traces=traces.camera_rows(i)) for i, c in enumerate(cams)]
    mask_obs = [render(gt, c, "mask", traces=traces.camera_rows(i)) for i, c in enumerate(cams)]
    depth_fit, _, drep = fit(depth_obs, geom, "depth", cfg, traces=traces)
    mask_fit, _, mrep = fit(mask_obs, geom, "mask", cfg, traces=traces)

    cams_hi = sample_view_ring(5, seed=VIEW_SEED, width=RES_NOISE, height=RES_NOISE)
    traces_hi = image_traces(geom, cams_hi)
    depth_hi = [render(gt, c, "depth", traces=traces_hi.camera_rows(i)) for i, c in enumerate(cams_hi)]
    amplitude = 0.2 * shape_scale(gt)
    noisy_obs = [add_depth_noise(o, amplitude, seed=VIEW_SEED * 100 + i)
                 for i, o in enumerate(depth_hi)]
    clean_fit, _, crep = fit(depth_hi, geom, "depth", cfg, traces=traces_hi)
    noisy_fit, _, nrep = fit(noisy_obs, geom, "depth", cfg, traces=traces_hi)
    noisy_fused = fused_to_occupancy_grid(*fuse_depth(noisy_obs, geom, traces=traces_hi), geom)

    return ShapeFits(
        gt=gt, aux=aux, depth_obs=depth_obs, mask_obs=mask_obs, traces=traces,
        depth_iou=best_threshold(depth_fit, gt).best_iou,
        mask_iou=best_threshold(mask_fit, gt).best_iou,
        clean256_iou=best_threshold(clean_fit, gt).best_iou,
        noisy_iou=best_threshold(noisy_fit, gt).best_iou,
        noisy_fusion_iou=best_threshold(noisy_fused, gt).best_iou,
        noise_amplitude=amplitude,
        fit_seconds={"depth": drep.wall_time_s, "mask": mrep.wall_time_s,
                     "clean256": crep.wall_time_s, "noisy256": nrep.wall_time_s},
        depth_fit=depth_fit, mask_fit=mask_fit,
    )


@pytest.fixture(scope="module")
def fits():
    return {name: _build_shape(name) for name in ("sphere", "chair_like")}


def test_01_probability_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(size=int(rng.integers(1, 65)))
        worst = max(worst, abs(event_probabilities(x).sum() - 1.0))
    elapsed = time.perf_counter() - start
    report(1, "probability-normalization",
           worst < 1e-12 and elapsed < 1.0,
           f"max |sum-1| = {worst:.2e} over 10000 rays in {elapsed:.2f} s")


def test_02_gradient_correctness():
    start = time.perf_counter()
    worst_x = worst_p = abs_x = abs_p = 0.0
    for kind in COST_KINDS:
        rep = run_gradcheck(kind, trials=200, seed=200)
        worst_x = max(worst_x, rep.max_rel_err_x)
        abs_x = max(abs_x, rep.max_abs_err_x)
        if not np.isnan(rep.max_rel_err_p):
            worst_p = max(worst_p, rep.max_rel_err_p)
            abs_p = max(abs_p, rep.max_abs_err_p)
    elapsed = time.perf_counter() - start
    report(2, "gradient-correctness",
           worst_x < 1e-5 and worst_p < 1e-5 and elapsed < 10.0,
           f"max rel err x {worst_x:.2e}, aux {worst_p:.2e}; max abs err x {abs_x:.2e}, aux {abs_p:.2e}; "
           f"4x200 trials in {elapsed:.1f} s")


def test_03_brute_force_oracle():
    """The per-ray losses of one view_loss call per kind, misses included,
    against the enumeration over costs written out from their definitions."""
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    worst = 0.0
    for kind in COST_KINDS:
        x, bounds, payload, obs, fields = random_strip_rays(rng, kind, 500, 12)
        res, _ = strip_view_loss(kind, x, bounds, payload, **fields)
        for r in range(500):
            psi = strip_psi(kind, bounds[r], obs[r], None if payload is None else payload[r])
            worst = max(worst, abs(res.per_ray[r] - brute_force_ray_loss(x[r], psi)))
    elapsed = time.perf_counter() - start
    report(3, "brute-force-oracle",
           worst < 1e-10 and elapsed < 30.0,
           f"max |loss - enumeration| = {worst:.2e}, 4x500 instances in {elapsed:.1f} s")


def test_04_mask_closed_form():
    """One view_loss call over 10000 mask rays, in several passes of
    LOSS_CHUNK cells, against |prod(x) - s| per ray."""
    rng = np.random.default_rng(400)
    x, bounds, _, s, fields = random_strip_rays(rng, "mask", 10_000, 24)
    assert sum(map(len, x)) > 2 * consistency.LOSS_CHUNK
    res, _ = strip_view_loss("mask", x, bounds, **fields)
    worst = max(abs(res.per_ray[r] - mask_loss_closed_form(x[r], int(s[r]))) for r in range(10_000))
    report(4, "mask-closed-form", worst < 1e-12,
           f"max |expected-cost - |prod(x)-s|| = {worst:.2e} over 10000 instances")


def test_05_traversal_oracle():
    geoms = [
        uniform_geometry((8, 8, 8), (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)),
        uniform_geometry((5, 9, 6), (-0.7, -0.4, -0.6), (0.4, 0.8, 0.5)),
        make_frustum_geometry((5, 4, 6), 0.5, 12.0, 55.0),
        make_frustum_geometry((7, 7, 5), 0.4, 25.0, 45.0),
    ]
    rng = np.random.default_rng(500)
    checked = hits = sampled = 0
    worst_chord = worst_depth = 0.0
    for geom in geoms:
        faces = cell_faces(geom)
        corners = np.array([geom.grid_to_world(np.array(c) * geom.dims)
                            for c in np.ndindex(2, 2, 2)])
        for i in range(250):
            if i % 5 == 4:  # random rays, most of which miss
                ray = random_ray(rng)
            else:  # from outside the hull through a random point inside it
                target = geom.grid_to_world(rng.uniform(0.0, 1.0, 3) * geom.dims)
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                ray = (target - (np.linalg.norm(corners - target, axis=1).max() + 0.5) * d, d)
            tr = trace_one(geom, *ray)
            cells, t_enter, t_exit = clip_cells(geom, *ray, faces)
            assert tr.cells.tolist() == cells.tolist(), \
                f"sequence mismatch on {geom.kind} grid"
            if i < 5:  # the clip oracle itself, against dense sampling
                assert dense_sample_cells(geom, *ray).tolist() == cells.tolist()
                sampled += 1
            if tr.n:
                worst_depth = max(worst_depth, np.abs(tr.t_enter - t_enter).max(),
                                  np.abs(tr.t_exit - t_exit).max())
                chord = tr.t_exit[-1] - tr.t_enter[0]
                worst_chord = max(worst_chord, abs(np.sum(tr.t_exit - tr.t_enter) - chord))
                hits += 1
            checked += 1
    report(5, "traversal-oracle",
           checked == 1000 and hits >= 800 and worst_depth <= 1e-12 and worst_chord < 1e-9,
           f"{checked} rays ({hits} hits) matched the cell-clip oracle, depths within "
           f"{worst_depth:.2e}; {sampled} of them also matched dense sampling; "
           f"chord error <= {worst_chord:.2e}")


def test_06_render_loss_closure(fits):
    worst = 0.0
    for shape in fits.values():
        x_hard = shape.gt.as_occupancy_grid()
        for obs_set in (shape.depth_obs, shape.mask_obs):
            total = sum(view_loss(x_hard, full_image_rays(o), traces=shape.traces.camera_rows(i)).loss
                        for i, o in enumerate(obs_set))
            worst = max(worst, abs(total))
    report(6, "render-loss-closure", worst < 1e-9,
           f"max |view_loss(GT vs own noiseless renders)| = {worst:.2e}")


def test_07_desk_scale_reconstruction(fits):
    ok = True
    parts = []
    for name, shape in fits.items():
        ok &= shape.depth_iou >= 0.90 and shape.mask_iou >= 0.80
        ok &= all(t < 300.0 for t in shape.fit_seconds.values())
        parts.append(f"{name}: depth {shape.depth_iou:.3f}, mask {shape.mask_iou:.3f}, "
                     f"slowest fit {max(shape.fit_seconds.values()):.0f} s")
    report(7, "desk-scale-reconstruction", ok, "; ".join(parts))


def test_08_concavity_contrast(fits):
    shape = fits["chair_like"]
    cavity = chair_cavity_mask(DIMS)
    depth_occ = 1.0 - shape.depth_fit.x
    mask_occ = 1.0 - shape.mask_fit.x
    carved = (depth_occ[cavity] < 0.5).mean()
    kept = (mask_occ[cavity] >= 0.5).mean()
    report(8, "concavity-contrast", carved >= 0.80 and kept >= 0.50,
           f"depth fit empties {carved:.0%} of cavity, mask fit keeps {kept:.0%} occupied")


def test_09_noise_robustness(fits):
    ok = True
    parts = []
    for name, shape in fits.items():
        degradation = shape.clean256_iou - shape.noisy_iou
        ok &= degradation < 0.10 and shape.noisy_iou >= shape.noisy_fusion_iou
        parts.append(f"{name}: clean {shape.clean256_iou:.3f} -> noisy {shape.noisy_iou:.3f} "
                     f"(deg {degradation:.3f}), fusion {shape.noisy_fusion_iou:.3f}, "
                     f"amp {shape.noise_amplitude:.3f} m")
    report(9, "noise-robustness", ok, "; ".join(parts))


def test_10_view_count_monotonicity(fits):
    shape = fits["sphere"]
    cfg = FitConfig(iterations=500, seed=FIT_SEED)
    ious = []
    for k in (1, 2, 5):
        if k == 5:
            ious.append(shape.depth_iou)
            continue
        fitted, _, _ = fit(shape.depth_obs[:k], shape.gt.geometry, "depth", cfg,
                           traces=shape.traces.camera_rows(0, k))
        ious.append(best_threshold(fitted, shape.gt).best_iou)
    ok = ious[1] >= ious[0] - 0.02 and ious[2] >= ious[1] - 0.02
    report(10, "view-count-monotonicity", ok,
           "IoU at 1/2/5 views = " + "/".join(f"{v:.3f}" for v in ious))


def test_11_rgb_supervision(fits):
    shape = fits["sphere"]
    cams = sample_view_ring(8, seed=VIEW_SEED, width=RES_FIT, height=RES_FIT)
    obs = [render(shape.gt, c, "color", shape.aux) for c in cams]
    fitted, fit_aux, _ = fit(obs, shape.gt.geometry, "color",
                             FitConfig(iterations=800, seed=FIT_SEED))
    iou = best_threshold(fitted, shape.gt).best_iou
    surf = surface_cells(shape.gt.occ)
    rgb_err = np.abs(fit_aux.payload[surf] - shape.aux.payload[surf]).mean()
    report(11, "rgb-supervision", iou >= 0.8 and rgb_err < 0.15,
           f"IoU {iou:.3f}, mean surface RGB error {rgb_err:.3f} over {surf.sum()} cells")


GOLDEN_TABLE = Path(__file__).with_name("golden") / "repro_iters40_seed10.tsv"


def test_12_repro_determinism(tmp_path):
    args = ["repro", "--dims", "32", "--views", "5", "--iters", "40", "--rays", "3000",
            "--seed", str(VIEW_SEED)]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    # the reconstructions themselves, at the table's printed precision
    table = (tmp_path / "a" / "table.tsv").read_bytes()
    assert table == GOLDEN_TABLE.read_bytes(), f"table.tsv is not the golden table:\n{table.decode()}"
    compared = 0
    for f in sorted((tmp_path / "a").rglob("*")):
        if f.is_dir() or f.name == "manifest.txt":
            continue
        twin = tmp_path / "b" / f.relative_to(tmp_path / "a")
        assert f.read_bytes() == twin.read_bytes(), f"repro outputs differ: {f.name}"
        compared += 1
    report(12, "repro-determinism", compared >= 10,
           f"{compared} grid/log/table files bitwise identical across two runs")
