"""One image trace table per camera set, shared through ``traces=``: passing
a table must give byte-identical results to letting the function build it."""

from dataclasses import replace

import numpy as np
import pytest

from drc.cameras import image_grid_rays, perspective_camera, pixel_rays
from drc.fitter import FitConfig, fit
from drc.fusion import accumulate_depth_counts, carve_masks, fuse_depth
from drc.grid import make_frustum_geometry, unit_cube_geometry
from drc.renderer import image_traces, make_test_shape, render, sample_view_ring
from drc.traversal import trace_batch

KINDS = ("mask", "depth", "depth_semantics", "color")


@pytest.fixture(scope="module")
def scene():
    """A chair_like shape with both payload kinds, 3 cameras and their table."""
    gt, color = make_test_shape("chair_like", (16, 16, 16), aux_kind="color")
    _, semantics = make_test_shape("chair_like", (16, 16, 16), aux_kind="semantics")
    cams = sample_view_ring(3, seed=5, width=20, height=18)
    return gt, {"color": color, "depth_semantics": semantics}, cams, image_traces(gt.geometry, cams)


def observations(scene, kind):
    gt, auxes, cams, _ = scene
    return [render(gt, c, kind, auxes.get(kind)) for c in cams]


def assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def table_arrays(table):
    return [table.start, table.n, table.t0, table.cells, table.t_exit]


def assert_rows_are_the_rays_traced(geometry, cams):
    table = image_traces(geometry, cams)
    assert table.n_rays == sum(c.width * c.height for c in cams)
    for i, cam in enumerate(cams):
        vs, us = np.divmod(np.arange(cam.height * cam.width), cam.width)
        alone = trace_batch(geometry, *pixel_rays(cam, us + 0.5, vs + 0.5))
        rows = table.camera_rows(i)
        assert rows.cameras == (cam,)
        assert_same_arrays(table_arrays(rows), table_arrays(alone))
        # the rows are views of the table's storage
        assert np.shares_memory(rows.cells, table.cells) or not rows.cells.size
    return table


def test_image_traces_are_the_full_image_rays_traced(scene):
    gt, _, cams, _ = scene
    table = assert_rows_are_the_rays_traced(gt.geometry, cams)
    assert_same_arrays(table_arrays(table.camera_rows(0, 3)), table_arrays(table))


def test_each_cameras_rows_on_a_uniform_grid_are_its_rays_traced():
    # cameras of other sizes, one looking away from the grid
    gt, _ = make_test_shape("sphere", (9, 10, 11))
    cams = [*sample_view_ring(2, seed=2, width=13, height=7),
            perspective_camera((0.0, 0.0, 3.0), (0.0, 0.0, 6.0), 40.0, 6, 5),
            *sample_view_ring(1, seed=3, width=8, height=11)]
    table = assert_rows_are_the_rays_traced(gt.geometry, cams)
    assert table.camera_rows(2).n.sum() == 0 < table.camera_rows(3).n.sum()


def test_each_cameras_rows_on_a_frustum_grid_are_its_rays_traced():
    geom = make_frustum_geometry((12, 10, 14), 0.5, 30.0, 60.0)
    cams = [perspective_camera((x, 0.0, 0.1), (0.3 * x, 0.2, 20.0), 45.0, 16, 12) for x in (-0.1, 0.1)]
    cams.insert(1, perspective_camera((0.0, 0.0, -1.0), (0.0, 0.0, -20.0), 45.0, 9, 7))  # looks away
    table = assert_rows_are_the_rays_traced(geom, cams)
    assert table.camera_rows(1).n.sum() == 0 < table.camera_rows(2).n.sum()


@pytest.mark.parametrize("kind", KINDS)
def test_render_with_table_is_bitwise_identical(scene, kind):
    gt, auxes, cams, table = scene
    for i, cam in enumerate(cams):
        built = render(gt, cam, kind, auxes.get(kind))
        shared = render(gt, cam, kind, auxes.get(kind), traces=table.camera_rows(i))
        fields = ("mask", "depth", "classid", "rgb")
        assert_same_arrays([getattr(shared, f) for f in fields if getattr(shared, f) is not None],
                           [getattr(built, f) for f in fields if getattr(built, f) is not None])
        assert shared.n_classes == built.n_classes


def test_fuse_depth_with_tables_is_bitwise_identical(scene):
    gt, _, _, table = scene
    obs = observations(scene, "depth")
    assert_same_arrays(fuse_depth(obs, gt.geometry, traces=table), fuse_depth(obs, gt.geometry))
    assert_same_arrays(accumulate_depth_counts(obs, gt.geometry, traces=table),
                       accumulate_depth_counts(obs, gt.geometry))


def test_carve_masks_with_tables_is_bitwise_identical(scene):
    gt, _, _, table = scene
    obs = observations(scene, "mask")
    assert_same_arrays([carve_masks(obs, gt.geometry, traces=table).occ],
                       [carve_masks(obs, gt.geometry).occ])


@pytest.mark.parametrize("kind", ["depth", "mask"])
def test_fit_with_tables_is_bitwise_identical(scene, kind):
    gt, _, _, table = scene
    obs = observations(scene, kind)
    config = FitConfig(iterations=4, rays_per_iteration=300, seed=3)
    occ_a, _, report_a = fit(obs, gt.geometry, kind, config, traces=table)
    occ_b, _, report_b = fit(obs, gt.geometry, kind, config)
    assert_same_arrays([occ_a.x, report_a.losses, report_a.rays_per_loss],
                       [occ_b.x, report_b.losses, report_b.rays_per_loss])


def test_fit_on_some_cameras_rows_is_bitwise_identical(scene):
    gt, _, _, table = scene
    obs = observations(scene, "depth")[:2]
    config = FitConfig(iterations=3, rays_per_iteration=200, seed=4)
    occ_a, _, report_a = fit(obs, gt.geometry, "depth", config, traces=table.camera_rows(0, 2))
    occ_b, _, report_b = fit(obs, gt.geometry, "depth", config)
    assert_same_arrays([occ_a.x, report_a.losses], [occ_b.x, report_b.losses])


def consumers(scene):
    """(name, call with a table traced for the scene's cameras) for each
    function that takes traces=; render reads the first camera's rows."""
    gt, _, cams, _ = scene
    geom = gt.geometry
    depth, mask = observations(scene, "depth"), observations(scene, "mask")
    return [
        ("render", lambda t: render(gt, cams[0], "depth", traces=t.camera_rows(0))),
        ("fit", lambda t: fit(depth, geom, "depth", FitConfig(iterations=1), traces=t)),
        ("fuse_depth", lambda t: fuse_depth(depth, geom, traces=t)),
        ("carve_masks", lambda t: carve_masks(mask, geom, traces=t)),
    ]


def test_table_on_another_geometry_rejected(scene):
    _, _, cams, _ = scene
    other = image_traces(unit_cube_geometry((8, 8, 8)), cams)
    for _, call in consumers(scene):
        with pytest.raises(ValueError, match="different geometry"):
            call(other)


def test_table_of_another_image_size_rejected(scene):
    gt, _, cams, table = scene

    def short(t):  # the table without its last row
        return replace(t, start=t.start[:-1], n=t.n[:-1], t0=t.t0[:-1])

    for name, call in consumers(scene):
        if name == "render":  # the first camera's rows of a short table are whole
            call = lambda t: render(gt, cams[0], "depth", traces=short(table.camera_rows(0)))  # noqa: E731
        with pytest.raises(ValueError, match="its images have"):
            call(short(table))


def test_table_of_another_camera_rejected(scene):
    # the scene's images and these have one size, so only the cameras tell
    # the tables apart; a trace_batch table of the same rays has none
    gt, _, cams, table = scene
    others = sample_view_ring(3, seed=6, width=20, height=18)
    for other in (image_traces(gt.geometry, others), image_traces(gt.geometry, [others[0], *cams[1:]])):
        for _, call in consumers(scene):
            with pytest.raises(ValueError, match="not traced for these cameras"):
                call(other)
    origins, directions = image_grid_rays(cams[0])
    unnamed = trace_batch(gt.geometry, origins.reshape(-1, 3), directions.reshape(-1, 3))
    with pytest.raises(ValueError, match="not traced for these cameras"):
        render(gt, cams[0], "depth", traces=unnamed)
    with pytest.raises(ValueError, match="not traced for these cameras"):
        fuse_depth(observations(scene, "depth"), gt.geometry, traces=table.take(np.arange(table.n_rays)))


def test_table_of_cameras_in_another_order_rejected(scene):
    gt, _, cams, _ = scene
    for order in ([1, 0, 2], [2, 1, 0]):
        swapped = image_traces(gt.geometry, [cams[i] for i in order])
        for _, call in consumers(scene):
            with pytest.raises(ValueError, match="not traced for these cameras"):
                call(swapped)


def test_wrong_number_of_tables_rejected(scene):
    # a table of two of the three cameras, or of all three for one render
    gt, _, cams, table = scene
    fewer = image_traces(gt.geometry, cams[:2])
    for name, call in consumers(scene):
        if name == "render":
            call = lambda t: render(gt, cams[0], "depth", traces=table)  # noqa: E731
        with pytest.raises(ValueError, match="not traced for these cameras"):
            call(fewer)
