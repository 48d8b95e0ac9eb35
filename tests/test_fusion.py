import numpy as np
import pytest

from drc.cameras import Camera
from drc.fusion import accumulate_depth_counts, carve_masks, fuse_depth, fused_to_occupancy_grid
from drc.grid import uniform_geometry
from drc.metrics import best_threshold
from drc.renderer import Observation, make_test_shape, render, sample_view_ring


def one_pixel_depth(depth_value, origin=(-1.0, 0.5, 0.5)):
    """A 1x1 depth observation whose single ray runs along +x."""
    rot = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    cam = Camera("perspective", 1, 1, (1.0, 1.0, 0.5, 0.5), rot, -rot @ np.asarray(origin, float))
    return Observation("depth", cam, depth=np.array([[float(depth_value)]]))


class TestFuseDepth:
    def geom(self):
        return uniform_geometry((4, 1, 1), (0, 0, 0), (4, 1, 1))

    def test_single_ray_counts(self):
        # ray passes v0, v1 and terminates in v2; v3 stays unseen
        geom = self.geom()
        obs = one_pixel_depth(1.0 + 2.5)  # origin 1 m before the grid, hit mid of cell 2
        soft, valid = fuse_depth([obs], geom)
        assert soft.reshape(-1).tolist() == [0.0, 0.0, 1.0, 0.0]
        assert valid.reshape(-1).tolist() == [True, True, True, False]

    def test_two_rays_split_vote(self):
        geom = self.geom()
        hit_v1 = one_pixel_depth(1.0 + 1.5)   # terminates in cell 1
        through = one_pixel_depth(1.0 + 3.5)  # passes cell 1, terminates in cell 3
        empty, occupied = accumulate_depth_counts([hit_v1, through], geom)
        soft, valid = fuse_depth([hit_v1, through], geom)
        flat = soft.reshape(-1)
        assert flat[1] == pytest.approx(0.5, abs=0)  # one hit, one pass
        assert occupied.reshape(-1).tolist() == [0, 1, 0, 1]
        assert empty.reshape(-1).tolist() == [2, 1, 1, 0]

    def test_no_observations_all_invalid(self):
        soft, valid = fuse_depth([], self.geom())
        assert not valid.any()

    def test_escape_ray_marks_whole_trace_empty(self):
        geom = self.geom()
        obs = one_pixel_depth(10.0)  # background sentinel
        empty, occupied = accumulate_depth_counts([obs], geom)
        assert empty.reshape(-1).tolist() == [1, 1, 1, 1]
        assert occupied.sum() == 0

    def test_overshooting_depth_clamps_to_last_cell(self):
        geom = self.geom()
        obs = one_pixel_depth(1.0 + 4.7)  # past the far face but not escape depth
        empty, occupied = accumulate_depth_counts([obs], geom)
        assert occupied.reshape(-1).tolist() == [0, 0, 0, 1]
        assert empty.reshape(-1).tolist() == [1, 1, 1, 0]

    def test_mask_observation_rejected(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=0, width=8, height=8)[0], "mask")
        with pytest.raises(ValueError, match="depth"):
            fuse_depth([obs], gt.geometry)

    def test_noiseless_renders_give_hard_votes(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cams = sample_view_ring(5, seed=3, width=48, height=48)
        obs = [render(gt, c, "depth") for c in cams]
        empty, occupied = accumulate_depth_counts(obs, gt.geometry)
        soft, valid = fuse_depth(obs, gt.geometry)
        hits = occupied > 0
        passed = (empty > 0) & ~hits
        assert np.all(soft[hits] == 1.0)  # no contradictory votes without noise
        assert np.all(soft[passed] == 0.0)
        assert np.all(gt.occ[hits])  # hit cells are real surface cells
        assert not np.any(gt.occ[passed])

    def test_fused_iou_equals_visible_surface_coverage(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cams = sample_view_ring(5, seed=3, width=48, height=48)
        obs = [render(gt, c, "depth") for c in cams]
        _, occupied = accumulate_depth_counts(obs, gt.geometry)
        soft, valid = fuse_depth(obs, gt.geometry)
        pred = fused_to_occupancy_grid(soft, valid, gt.geometry)
        coverage = (occupied > 0).sum() / gt.occ.sum()
        assert best_threshold(pred, gt).best_iou >= coverage - 1e-12

    def test_invalid_cells_score_as_empty(self):
        geom = self.geom()
        soft = np.zeros(geom.shape)
        valid = np.zeros(geom.shape, dtype=bool)
        pred = fused_to_occupancy_grid(soft, valid, geom)
        assert np.all(pred.x == 1.0)


class TestCarveMasks:
    def test_no_observations_everything_occupied(self):
        geom = uniform_geometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        hull = carve_masks([], geom)
        assert hull.occ.all()

    def test_all_background_view_carves_every_traversed_cell(self, monkeypatch):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        geom = gt.geometry
        empty = type(gt)(geom, np.zeros(geom.shape, dtype=bool))
        cam = sample_view_ring(1, seed=1, width=64, height=64)[0]
        obs = render(empty, cam, "mask")
        hull = carve_masks([obs], geom)
        # every cell inside the camera frustum is crossed by some background ray
        from drc.renderer import full_image_rays
        from drc import traversal
        rays = full_image_rays(obs)
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 500)  # several passes
        table = traversal.trace_batch(geom, rays.origins, rays.directions)
        touched = np.unique(table.cells)
        assert not hull.flat[touched].any()

    def test_hull_contains_the_shape(self):
        for name in ("sphere", "cuboid", "chair_like"):
            gt, _ = make_test_shape(name, (16, 16, 16))
            cams = sample_view_ring(8, seed=4, width=48, height=48)
            hull = carve_masks([render(gt, c, "mask") for c in cams], gt.geometry)
            assert np.all(hull.occ[gt.occ])

    def test_depth_observation_rejected(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        obs = render(gt, sample_view_ring(1, seed=0, width=8, height=8)[0], "depth")
        with pytest.raises(ValueError, match="mask"):
            carve_masks([obs], gt.geometry)
