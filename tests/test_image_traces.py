"""One image trace table per camera, shared through ``traces=``: passing a
table must give byte-identical results to letting the function build it."""

import numpy as np
import pytest

from drc.cameras import image_grid_rays, pixel_rays
from drc.fitter import FitConfig, fit
from drc.fusion import accumulate_depth_counts, carve_masks, fuse_depth
from drc.grid import unit_cube_geometry
from drc.renderer import image_traces, make_test_shape, render, sample_view_ring
from drc.traversal import trace_batch

KINDS = ("mask", "depth", "depth_semantics", "color")


@pytest.fixture(scope="module")
def scene():
    """A chair_like shape with both payload kinds, 3 cameras and their tables."""
    gt, color = make_test_shape("chair_like", (16, 16, 16), aux_kind="color")
    _, semantics = make_test_shape("chair_like", (16, 16, 16), aux_kind="semantics")
    cams = sample_view_ring(3, seed=5, width=20, height=18)
    tables = [image_traces(gt.geometry, c) for c in cams]
    return gt, {"color": color, "depth_semantics": semantics}, cams, tables


def observations(scene, kind):
    gt, auxes, cams, _ = scene
    return [render(gt, c, kind, auxes.get(kind)) for c in cams]


def assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_image_traces_are_the_full_image_rays_traced(scene):
    gt, _, cams, tables = scene
    for cam, table in zip(cams, tables):
        vs, us = np.divmod(np.arange(cam.height * cam.width), cam.width)
        alone = trace_batch(gt.geometry, *pixel_rays(cam, us + 0.5, vs + 0.5))
        assert table.n_rays == cam.width * cam.height
        assert_same_arrays([table.start, table.n, table.t0, table.cells, table.t_exit],
                           [alone.start, alone.n, alone.t0, alone.cells, alone.t_exit])


@pytest.mark.parametrize("kind", KINDS)
def test_render_with_table_is_bitwise_identical(scene, kind):
    gt, auxes, cams, tables = scene
    for cam, table in zip(cams, tables):
        built = render(gt, cam, kind, auxes.get(kind))
        shared = render(gt, cam, kind, auxes.get(kind), traces=table)
        fields = ("mask", "depth", "classid", "rgb")
        assert_same_arrays([getattr(shared, f) for f in fields if getattr(shared, f) is not None],
                           [getattr(built, f) for f in fields if getattr(built, f) is not None])
        assert shared.n_classes == built.n_classes


def test_fuse_depth_with_tables_is_bitwise_identical(scene):
    gt, _, _, tables = scene
    obs = observations(scene, "depth")
    assert_same_arrays(fuse_depth(obs, gt.geometry, traces=tables), fuse_depth(obs, gt.geometry))
    assert_same_arrays(accumulate_depth_counts(obs, gt.geometry, traces=tables),
                       accumulate_depth_counts(obs, gt.geometry))


def test_carve_masks_with_tables_is_bitwise_identical(scene):
    gt, _, _, tables = scene
    obs = observations(scene, "mask")
    assert_same_arrays([carve_masks(obs, gt.geometry, traces=tables).occ],
                       [carve_masks(obs, gt.geometry).occ])


@pytest.mark.parametrize("kind", ["depth", "mask"])
def test_fit_with_tables_is_bitwise_identical(scene, kind):
    gt, _, _, tables = scene
    obs = observations(scene, kind)
    config = FitConfig(iterations=4, rays_per_iteration=300, seed=3)
    occ_a, _, report_a = fit(obs, gt.geometry, kind, config, traces=tables)
    occ_b, _, report_b = fit(obs, gt.geometry, kind, config)
    assert_same_arrays([occ_a.x, report_a.losses, report_a.rays_per_loss],
                       [occ_b.x, report_b.losses, report_b.rays_per_loss])


def consumers(scene):
    """(name, call with a traces list) for each function that takes traces=."""
    gt, _, cams, _ = scene
    geom = gt.geometry
    depth, mask = observations(scene, "depth"), observations(scene, "mask")
    return [
        ("render", lambda t: render(gt, cams[0], "depth", traces=t[0])),
        ("fit", lambda t: fit(depth, geom, "depth", FitConfig(iterations=1), traces=t)),
        ("fuse_depth", lambda t: fuse_depth(depth, geom, traces=t)),
        ("carve_masks", lambda t: carve_masks(mask, geom, traces=t)),
    ]


def test_table_on_another_geometry_rejected(scene):
    _, _, cams, _ = scene
    other = [image_traces(unit_cube_geometry((8, 8, 8)), c) for c in cams]
    for _, call in consumers(scene):
        with pytest.raises(ValueError, match="different geometry"):
            call(other)


def test_table_of_another_image_size_rejected(scene):
    _, _, _, tables = scene
    short = [t.take(np.arange(t.n_rays - 1)) for t in tables]
    for _, call in consumers(scene):
        with pytest.raises(ValueError, match="image has"):
            call(short)


def test_table_of_another_camera_rejected(scene):
    # the three cameras' images have one size, so only the camera tells the
    # swapped tables apart; a trace_batch table of the same rays has none
    gt, _, cams, tables = scene
    origins, directions = image_grid_rays(cams[0])
    unnamed = trace_batch(gt.geometry, origins.reshape(-1, 3), directions.reshape(-1, 3))
    for other in ([tables[1], tables[0], tables[2]], [unnamed, *tables[1:]]):
        for _, call in consumers(scene):
            with pytest.raises(ValueError, match="not traced for this camera"):
                call(other)


def test_wrong_number_of_tables_rejected(scene):
    _, _, _, tables = scene
    for name, call in consumers(scene):
        if name == "render":
            continue  # render takes one table, not a list
        with pytest.raises(ValueError, match="one trace table per observation"):
            call(tables[:2])
