import numpy as np
import pytest

from drc import renderer
from drc.consistency import OBJECT_ESCAPE_DEPTH
from drc.errors import FormatError
from drc.cameras import Camera, perspective_camera
from drc.grid import AuxGrid, BinaryGrid, make_frustum_geometry, uniform_geometry, unit_cube_geometry
from drc.images import write_pfm
from drc.renderer import (
    Observation,
    add_depth_noise,
    chair_cavity_mask,
    full_image_rays,
    image_traces,
    list_observation_bundles,
    load_observation_bundle,
    make_test_shape,
    occupied_box,
    render,
    sample_view_ring,
    save_observation_bundle,
)


def solid_cube(dims=(8, 8, 8)):
    geom = unit_cube_geometry(dims)
    return BinaryGrid(geom, np.ones(geom.shape, dtype=bool))


def empty_cube(dims=(8, 8, 8)):
    geom = unit_cube_geometry(dims)
    return BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))


def front_camera(width=65, height=65):
    return sample_view_ring(1, (0.0, 0.0), 2.5, 0, width=width, height=height,
                            azimuths=[0.0], elevations=[0.0])[0]


class TestRender:
    def test_empty_grid_mask_is_zero(self):
        obs = render(empty_cube(), front_camera(), "mask")
        assert obs.mask.sum() == 0

    def test_empty_grid_depth_is_escape(self):
        obs = render(empty_cube(), front_camera(), "depth")
        assert np.all(obs.depth == OBJECT_ESCAPE_DEPTH)

    def test_center_pixel_depth_is_first_cell_midpoint(self):
        gt = solid_cube((32, 32, 32))
        obs = render(gt, front_camera(), "depth")
        # camera 2.5 m out on +z, principal ray hits the slab [0.46875, 0.5)
        assert obs.depth[32, 32] == pytest.approx(2.0 + 0.5 / 32, abs=1e-12)

    def test_color_passthrough_and_white_background(self):
        gt = solid_cube((8, 8, 8))
        payload = np.zeros((*gt.geometry.shape, 3))
        payload[...] = [1.0, 0.0, 0.0]
        aux = AuxGrid(gt.geometry, "color", payload)
        obs = render(gt, front_camera(), "color", aux)
        assert obs.rgb[32, 32].tolist() == [1.0, 0.0, 0.0]
        assert obs.rgb[0, 0].tolist() == [1.0, 1.0, 1.0]

    def test_mask_equals_depth_below_escape(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=4)[0]
        mask = render(gt, cam, "mask")
        depth = render(gt, cam, "depth")
        assert np.array_equal(mask.mask == 1, depth.depth < OBJECT_ESCAPE_DEPTH)

    def test_semantic_background_is_last_class(self):
        gt, aux = make_test_shape("sphere", (16, 16, 16), aux_kind="semantics", n_classes=4)
        obs = render(gt, front_camera(), "depth_semantics", aux)
        assert obs.classid[0, 0] == 3
        assert obs.n_classes == 4
        fg = obs.foreground()
        assert np.all(obs.classid[fg] < 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_depth_must_be_positive_and_finite(self, bad):
        obs = render(solid_cube(), front_camera(9, 9), "depth")
        depth = obs.depth.copy()
        depth[4, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            Observation("depth", obs.camera, depth=depth)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
    def test_rgb_must_be_finite_in_unit_interval(self, bad):
        gt, aux = make_test_shape("sphere", (8, 8, 8), aux_kind="color")
        obs = render(gt, front_camera(9, 9), "color", aux)
        rgb = obs.rgb.copy()
        rgb[4, 4, 1] = bad
        with pytest.raises(ValueError, match=r"rgb must be finite and lie in \[0, 1\]"):
            Observation("color", obs.camera, rgb=rgb)

    def test_256_classes_render(self):
        gt, aux = make_test_shape("sphere", (8, 8, 8), aux_kind="semantics", n_classes=256)
        obs = render(gt, front_camera(9, 9), "depth_semantics", aux)
        assert obs.n_classes == 256 and obs.classid[0, 0] == 255

    def test_257_classes_rejected_before_tracing(self, monkeypatch):
        """Labels are 8-bit: a uint8 classid, saved as a PGM of maxval 255."""
        gt, aux = make_test_shape("sphere", (8, 8, 8), aux_kind="semantics", n_classes=257)
        monkeypatch.setattr(renderer, "first_hit_batch", None)
        with pytest.raises(ValueError, match="at most 256 classes, got 257"):
            render(gt, front_camera(9, 9), "depth_semantics", aux)

    def test_color_needs_aux(self):
        with pytest.raises(ValueError, match="aux"):
            render(solid_cube(), front_camera(), "color")


def axis_orthographic_cameras(size=32, scale=0.0625):
    """Six orthographic cameras looking along +-x, +-y and +-z from 2 m out,
    whose pixel rays lie on the multiples of scale / 2 (in the box planes of
    the unit cube's 8- and 16-cell grids) across the view axis."""
    views = []
    for a in range(3):
        for sign in (1.0, -1.0):
            rot = np.roll(np.eye(3), 2 - a, axis=1)  # rows: the two other axes, then axis a
            rot[1:] *= sign  # det stays +1
            views.append(Camera("orthographic", size, size, (scale, scale, size / 2, size / 2), rot,
                                (-scale / 2, -scale / 2, 2.0)))
    return views


def random_sparse_grid(rng, geom, fraction):
    """Random occupied cells, among them cells on the grid's boundary."""
    occ = rng.random(geom.shape) < fraction
    occ[rng.integers(0, geom.shape[0]), rng.integers(0, geom.shape[1]), -1] = True
    occ[0, rng.integers(0, geom.shape[1]), rng.integers(0, geom.shape[2])] = True
    return BinaryGrid(geom, occ)


def payloads(rng, geom):
    """A random color and a random 4-class semantic aux grid on ``geom``."""
    labels = rng.dirichlet(np.ones(4), geom.ncells).reshape(*geom.shape, 4)
    return {"color": AuxGrid(geom, "color", rng.random((*geom.shape, 3))),
            "depth_semantics": AuxGrid(geom, "semantics", labels)}


class TestOccupiedBox:
    """An untabled render of either grid kind traces only its occupied
    cells' box, and renders the bytes of a render from the whole grid's
    table."""

    @staticmethod
    def assert_same_as_full_table(bgrid, camera, aux):
        for kind in ("mask", "depth", "color", "depth_semantics"):
            kind_aux = aux.get(kind)
            boxed = render(bgrid, camera, kind, kind_aux)
            full = render(bgrid, camera, kind, kind_aux, traces=image_traces(bgrid.geometry, [camera]))
            for name in ("mask", "depth", "classid", "rgb"):
                a, b = getattr(boxed, name), getattr(full, name)
                assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes()), (kind, name)

    def test_box_of_the_occupied_cells(self):
        geom = uniform_geometry((5, 6, 7), (0, 0, 0), (1, 1, 1))
        occ = np.zeros(geom.shape, dtype=bool)
        occ[3, 1, 4] = occ[6, 2, 2] = True  # (z, y, x)
        assert occupied_box(BinaryGrid(geom, occ)) == [(2, 5), (1, 3), (3, 7)]
        assert occupied_box(BinaryGrid(geom, ~occ)) == [(0, 5), (0, 6), (0, 7)]
        assert occupied_box(BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))) == [(0, 0)] * 3

    @pytest.mark.parametrize("name", ["sphere", "cuboid", "chair_like"])
    def test_shapes_render_as_from_the_full_table(self, name):
        gt, color = make_test_shape(name, (16, 16, 16))
        _, labels = make_test_shape(name, (16, 16, 16), aux_kind="semantics")
        aux = {"color": color, "depth_semantics": labels}
        for camera in sample_view_ring(3, seed=4, width=40, height=40) + axis_orthographic_cameras():
            self.assert_same_as_full_table(gt, camera, aux)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (16, 16, 16), (9, 5, 13)])
    def test_sparse_grids_render_as_from_the_full_table(self, dims):
        # non-cubic dims, boundary cells, one cell and no cell; cameras
        # outside the grid, inside it and inside the box, and orthographic
        # cameras whose rays lie in the box's face planes
        rng = np.random.default_rng(sum(dims))
        geom = uniform_geometry(dims, (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
        aux = payloads(rng, geom)
        one = np.zeros(geom.shape, dtype=bool)
        one[tuple(rng.integers(0, geom.shape))] = True
        grids = [random_sparse_grid(rng, geom, f) for f in (0.003, 0.02, 0.1)]
        grids += [BinaryGrid(geom, one), BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))]
        for bgrid in grids:
            lo, hi = np.array(occupied_box(bgrid)).T
            inside_box = geom.grid_to_world(lo + rng.uniform(0.0, 1.0, 3) * (hi - lo))
            cameras = sample_view_ring(2, seed=int(rng.integers(100)), width=24, height=24)
            cameras += [perspective_camera(p, rng.normal(size=3), 70.0, 24, 24)
                        for p in (rng.uniform(-0.45, 0.45, 3), inside_box)]
            for camera in cameras + axis_orthographic_cameras(16):
                self.assert_same_as_full_table(bgrid, camera, aux)

    @staticmethod
    def scene_grid(geom):
        """A floor one cell thick near the bottom of the image (y points
        down) and two boxes standing on it, as a street scene's grid."""
        iz, iy, ix = np.indices(geom.shape)
        nx, ny, nz = geom.dims
        occ = iy == ny - 2 - iz * 2 // nz
        occ |= (ix >= nx // 4) & (ix < nx // 2) & (iy >= ny // 2) & (iy < ny - 2) & (iz >= 2) & (iz < nz // 2)
        occ |= (ix >= 3 * nx // 4) & (iy >= ny // 3) & (iy < ny - 3) & (iz >= nz // 2) & (iz < nz - 1)
        return BinaryGrid(geom, occ)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (16, 12, 16), (9, 5, 13)])
    def test_frustum_grids_render_as_from_the_full_table(self, dims):
        # a scene-like floor and boxes, random sparse grids with boundary
        # cells, one cell and no cell; cameras at the apex, behind it,
        # inside the grid and inside the box
        rng = np.random.default_rng(sum(dims) + 1)
        geom = make_frustum_geometry(dims, 0.5, 12.0, 60.0)
        aux = payloads(rng, geom)
        one = np.zeros(geom.shape, dtype=bool)
        one[tuple(rng.integers(0, geom.shape))] = True
        grids = [self.scene_grid(geom)] + [random_sparse_grid(rng, geom, f) for f in (0.003, 0.02, 0.1)]
        grids += [BinaryGrid(geom, one), BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))]
        assert occupied_box(grids[0]) != [(0, n) for n in dims]
        for bgrid in grids:
            lo, hi = np.array(occupied_box(bgrid)).T
            inside_grid = geom.grid_to_world(rng.uniform(0.0, 1.0, 3) * dims)
            inside_box = geom.grid_to_world(lo + rng.uniform(0.0, 1.0, 3) * (hi - lo))
            tilted = rng.normal(size=3) * 0.2 + (0.0, 0.3, 1.0)
            cameras = [perspective_camera((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 50.0, 24, 20),
                       perspective_camera((0.0, 0.0, 0.0), tilted, 70.0, 20, 24),
                       perspective_camera((0.2, -0.1, -1.0), (0.0, 0.5, 6.0), 40.0, 24, 24)]
            cameras += [perspective_camera(p, p + rng.normal(size=3), 70.0, 24, 24)
                        for p in (inside_grid, inside_box)]
            for camera in cameras:
                self.assert_same_as_full_table(bgrid, camera, aux)

    def test_untabled_renders_pass_their_occupied_box(self, monkeypatch):
        boxes = []

        def recording_trace_batch(geometry, origins, directions, box=None, trace=renderer.trace_batch):
            boxes.append(box)
            return trace(geometry, origins, directions, box)

        monkeypatch.setattr(renderer, "trace_batch", recording_trace_batch)
        gt, _ = make_test_shape("cuboid", (10, 10, 10))
        camera = front_camera(9, 9)
        render(gt, camera, "mask")
        render(gt, camera, "mask", traces=image_traces(gt.geometry, [camera]))
        geom = make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0)
        render(BinaryGrid(geom, np.ones(geom.shape, dtype=bool)),
               perspective_camera((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 40.0, 9, 9), "mask")
        assert boxes == [[(2, 8), (3, 7), (3, 7)], None, [(0, 4), (0, 4), (0, 4)]]


class TestDepthNoise:
    def test_zero_noise_is_identity(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=1)[0], "depth")
        noisy = add_depth_noise(obs, 0.0, seed=3)
        assert np.array_equal(noisy.depth, obs.depth)

    def test_same_seed_bitwise_identical(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=1)[0], "depth")
        a = add_depth_noise(obs, 0.2, seed=9)
        b = add_depth_noise(obs, 0.2, seed=9)
        assert np.array_equal(a.depth, b.depth)
        c = add_depth_noise(obs, 0.2, seed=10)
        assert not np.array_equal(a.depth, c.depth)

    def test_background_untouched_and_bounds_hold(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=1)[0], "depth")
        noisy = add_depth_noise(obs, 0.2, seed=5)
        fg = obs.foreground()
        assert np.all(noisy.depth[~fg] == OBJECT_ESCAPE_DEPTH)
        assert np.all(np.abs(noisy.depth[fg] - obs.depth[fg]) <= 0.2)
        assert np.all(noisy.depth > 0.0)

    def test_wrong_kind_rejected(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=1)[0], "mask")
        with pytest.raises(ValueError, match="depth"):
            add_depth_noise(obs, 0.1, seed=0)

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, 1e308])
    def test_negative_or_non_finite_amplitude_rejected(self, bad):
        # 1e308 is finite, but the noise interval's width 2e308 is not
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=1)[0], "depth")
        with pytest.raises(ValueError, match="max_noise"):
            add_depth_noise(obs, bad, seed=0)


class TestShapes:
    def test_sphere_membership_rule(self):
        gt, _ = make_test_shape("sphere", (32, 32, 32))
        centers = (np.indices((32, 32, 32)) + 0.5) / 32.0  # (iz, iy, ix) order
        r2 = sum((centers[i] - 0.5) ** 2 for i in range(3))
        assert np.array_equal(gt.occ, r2 <= 0.4**2)

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 8"):
            make_test_shape("sphere", (4, 4, 4))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            make_test_shape("torus", (16, 16, 16))

    @pytest.mark.parametrize("dims", [(8, 8, 8), (13, 13, 13), (32, 32, 32), (24, 32, 20)])
    def test_chair_cavity_is_enclosed_and_empty(self, dims):
        gt, _ = make_test_shape("chair_like", dims)
        cavity = chair_cavity_mask(dims)
        assert cavity.any()
        assert not (gt.occ & cavity).any()
        nx, ny, nz = dims
        iz, iy, ix = np.nonzero(cavity)
        for z, y, x in zip(iz, iy, ix):
            for dz, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                zz, xx = z, x
                while True:  # walk laterally until chair material blocks the path
                    zz += dz
                    xx += dx
                    assert 0 <= zz < nz and 0 <= xx < nx, "cavity leaks laterally"
                    if gt.occ[zz, y, xx]:
                        break

    def test_two_tone_color_payload(self):
        gt, aux = make_test_shape("sphere", (16, 16, 16))
        assert aux.kind == "color"
        tones = {tuple(c) for c in aux.payload[gt.occ]}
        assert len(tones) == 2

    def test_semantic_payload_is_one_hot(self):
        gt, aux = make_test_shape("chair_like", (16, 16, 16), aux_kind="semantics")
        assert aux.kind == "semantics"
        assert np.allclose(aux.payload.sum(axis=3), 1.0, atol=0)
        assert np.all(aux.payload.max(axis=3) == 1.0)

    def test_cuboid_dims_follow_axes(self):
        gt, _ = make_test_shape("cuboid", (16, 16, 16))
        iz, iy, ix = np.nonzero(gt.occ)
        assert ix.max() - ix.min() > iy.max() - iy.min()


class TestViewRing:
    def test_forced_azimuth_zero_sits_on_plus_z(self):
        cam = front_camera()
        assert np.allclose(cam.center_world, [0.0, 0.0, 2.5], atol=1e-12)
        view_dir = cam.rotation[2]  # camera z-axis in world coords (rows are axes)
        assert np.allclose(view_dir, [0.0, 0.0, -1.0], atol=1e-12)

    def test_seeded_determinism(self):
        a = sample_view_ring(5, seed=3)
        b = sample_view_ring(5, seed=3)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.rotation, cb.rotation)
            assert np.array_equal(ca.translation, cb.translation)

    def test_radius_respected(self):
        for cam in sample_view_ring(5, radius=3.0, seed=2):
            assert np.linalg.norm(cam.center_world) == pytest.approx(3.0, rel=1e-12)

    def test_elevation_range_respected(self):
        cams = sample_view_ring(50, (-20.0, 30.0), seed=6)
        for cam in cams:
            y = cam.center_world[1]
            el = np.degrees(np.arcsin(y / 2.2))
            assert -20.0 - 1e-9 <= el <= 30.0 + 1e-9

    def test_needs_a_view(self):
        with pytest.raises(ValueError, match="one view"):
            sample_view_ring(0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_radius_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sample_view_ring(2, radius=bad)


class TestBundles:
    @pytest.mark.parametrize("kind", ["mask", "depth", "depth_semantics", "color"])
    def test_roundtrip(self, tmp_path, kind):
        gt, aux = make_test_shape("sphere", (16, 16, 16),
                                  aux_kind="semantics" if kind == "depth_semantics" else "color")
        cam = sample_view_ring(1, seed=2, width=32, height=32)[0]
        obs = render(gt, cam, kind, aux)
        save_observation_bundle(tmp_path / "view_000", obs)
        loaded = load_observation_bundle(tmp_path / "view_000")
        assert loaded.kind == kind
        assert loaded.camera.intrinsics == obs.camera.intrinsics
        if kind == "mask":
            assert np.array_equal(loaded.mask, obs.mask)
        elif kind == "depth":
            assert np.array_equal(loaded.depth, obs.depth.astype(np.float32))
        elif kind == "depth_semantics":
            assert np.array_equal(loaded.classid, obs.classid)
            assert loaded.n_classes == obs.n_classes
        else:
            assert np.allclose(loaded.rgb, obs.rgb, atol=1 / 255.0)

    def test_bundle_listing_sorted(self, tmp_path):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cams = sample_view_ring(3, seed=0, width=16, height=16)
        for i, cam in enumerate(cams):
            save_observation_bundle(tmp_path / f"view_{i:03d}", render(gt, cam, "mask"))
        found = list_observation_bundles(tmp_path)
        assert [p.split("_")[-1] for p in found] == ["000", "001", "002"]

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="directory"):
            list_observation_bundles(tmp_path / "nope")

    def test_bad_kind_line_rejected(self, tmp_path):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=0, width=16, height=16)[0]
        save_observation_bundle(tmp_path / "v", render(gt, cam, "mask"))
        (tmp_path / "v" / "kind.txt").write_text("hologram\n")
        with pytest.raises(FormatError, match="kind"):
            load_observation_bundle(tmp_path / "v")

    @pytest.mark.parametrize("kind, line", [("mask", "mask junk"), ("depth", "depth 4 extra"),
                                            ("color", "color 3")])
    def test_extra_kind_tokens_rejected(self, tmp_path, kind, line):
        gt, aux = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=0, width=16, height=16)[0]
        save_observation_bundle(tmp_path / "v", render(gt, cam, kind, aux))
        (tmp_path / "v" / "kind.txt").write_text(line + "\n")
        with pytest.raises(FormatError, match="no arguments"):
            load_observation_bundle(tmp_path / "v")

    def test_nan_depth_rejected_as_format_error(self, tmp_path):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=0, width=16, height=16)[0], "depth")
        save_observation_bundle(tmp_path / "v", obs)
        depth = obs.depth.copy()
        depth[3, 5] = np.nan
        write_pfm(tmp_path / "v" / "depth.pfm", depth)
        with pytest.raises(FormatError, match="finite"):
            load_observation_bundle(tmp_path / "v")


class TestObservationRays:
    def test_full_image_rays_cover_every_pixel(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=1, width=8, height=6)[0]
        obs = render(gt, cam, "mask")
        rays = full_image_rays(obs)
        assert rays.n_rays == 48
        assert rays.kind == "mask"

    def test_foreground_weighting(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=1)[0]
        obs = render(gt, cam, "depth")
        rays = full_image_rays(obs, foreground_weight=5.0)
        fg = obs.foreground().reshape(-1)
        assert np.all(rays.weights[fg] == 5.0)
        assert np.all(rays.weights[~fg] == 1.0)

    def test_mask_sense_is_inverted_into_s(self):
        # mask pixel 1 (object) must become s_r = 0
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=1)[0]
        obs = render(gt, cam, "mask")
        rays = full_image_rays(obs)
        assert np.array_equal(rays.s, 1.0 - obs.mask.reshape(-1))
