import numpy as np
import pytest

from drc.consistency import view_loss
from drc.fitter import Adam, FitConfig, fit, sample_rays, sigmoid, softmax, write_loss_log
from drc.cameras import perspective_camera
from drc.grid import AuxGrid, BinaryGrid, OccupancyGrid, make_frustum_geometry, unit_cube_geometry
from drc.renderer import full_image_rays, make_test_shape, render, sample_view_ring


@pytest.fixture(scope="module")
def depth_views():
    gt, _ = make_test_shape("sphere", (16, 16, 16))
    cams = sample_view_ring(3, seed=2, width=24, height=24)
    return gt, [render(gt, c, "depth") for c in cams]


class TestSampleRays:
    def test_all_background_image_unit_weights(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        geom = gt.geometry
        empty = type(gt)(geom, np.zeros(geom.shape, dtype=bool))
        obs = render(empty, sample_view_ring(1, seed=0, width=16, height=16)[0], "mask")
        rays = sample_rays(obs, 64, 5.0, seed=1, iteration=0)
        assert np.all(rays.weights == 1.0)

    def test_neutral_foreground_weight(self, depth_views):
        _, obs = depth_views
        rays = sample_rays(obs[0], 100, 1.0, seed=1, iteration=0)
        assert np.all(rays.weights == 1.0)

    def test_foreground_weight_applied(self, depth_views):
        _, obs = depth_views
        rays = sample_rays(obs[0], 500, 5.0, seed=1, iteration=0)
        assert set(np.unique(rays.weights)) <= {1.0, 5.0}
        assert (rays.weights == 5.0).any()

    def test_deterministic_under_seed_and_iteration(self, depth_views):
        _, obs = depth_views
        a = sample_rays(obs[0], 50, 5.0, seed=3, iteration=7)
        b = sample_rays(obs[0], 50, 5.0, seed=3, iteration=7)
        c = sample_rays(obs[0], 50, 5.0, seed=3, iteration=8)
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.d, b.d)
        assert not np.array_equal(a.d, c.d)

    def test_needs_at_least_one_ray(self, depth_views):
        _, obs = depth_views
        with pytest.raises(ValueError, match="one ray"):
            sample_rays(obs[0], 0, 1.0, seed=0, iteration=0)


class TestSquashing:
    def test_sigmoid_range_and_symmetry(self):
        z = np.linspace(-40, 40, 401)
        s = sigmoid(z)
        assert np.all((s >= 0) & (s <= 1))
        assert np.allclose(s + sigmoid(-z), 1.0, atol=1e-12)

    def test_softmax_rows_are_simplices(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 10, size=(50, 6))
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)


class TestAdam:
    def test_first_step_is_step_size(self):
        opt = Adam((3,), step=0.1)
        param = np.zeros(3)
        opt.update(param, np.array([1.0, -1.0, 4.0]))
        assert np.allclose(np.abs(param), 0.1, rtol=1e-6)
        assert param[0] < 0 < param[1]

    def test_moments_accumulate(self):
        opt = Adam((1,), step=0.1, beta1=0.9, beta2=0.999)
        param = np.zeros(1)
        for _ in range(10):
            opt.update(param, np.ones(1))
        assert opt.t == 10
        assert param[0] == pytest.approx(-1.0 * 0.1 * 10, rel=0.05)


class TestFit:
    def test_zero_iterations_returns_initialization(self, depth_views):
        gt, obs = depth_views
        occ, aux, report = fit(obs, gt.geometry, "depth", FitConfig(iterations=0))
        assert np.all(occ.x == 0.5)
        assert aux is None
        assert len(report.losses) == 0

    def test_loss_decreases_with_full_images(self, depth_views):
        # quadratic-ish descent sanity: tiny step, every pixel, two iterations
        gt, obs = depth_views
        cfg = FitConfig(iterations=2, step_size=1e-3, full_images=True)
        _, _, report = fit(obs, gt.geometry, "depth", cfg)
        assert report.losses[1] <= report.losses[0]

    def test_seeded_determinism(self, depth_views):
        gt, obs = depth_views
        cfg = FitConfig(iterations=5, seed=11)
        _, _, ra = fit(obs, gt.geometry, "depth", cfg)
        _, _, rb = fit(obs, gt.geometry, "depth", cfg)
        assert np.array_equal(ra.losses, rb.losses)

    def test_threads_other_than_one_rejected(self):
        assert FitConfig(threads=1).threads == 1
        for threads in (0, 2, 3):
            with pytest.raises(ValueError, match="threads"):
                FitConfig(threads=threads)

    def test_logit_chain_rule_against_finite_differences(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cams = sample_view_ring(2, seed=5, width=12, height=12)
        obs = [render(gt, c, "depth") for c in cams]
        geom = unit_cube_geometry((4, 4, 4))
        rng = np.random.default_rng(8)
        logits = rng.normal(0, 1, geom.shape)

        def total_loss(lg):
            occ = OccupancyGrid(geom, sigmoid(lg))
            return sum(view_loss(occ, full_image_rays(o)).loss for o in obs)

        occ = OccupancyGrid(geom, sigmoid(logits))
        grad = np.zeros(geom.shape)
        for o in obs:
            grad += view_loss(occ, full_image_rays(o)).grad_x
        analytic = grad * occ.x * (1.0 - occ.x)

        h = 1e-5
        rng2 = np.random.default_rng(9)
        for _ in range(12):
            i = tuple(rng2.integers(0, 4, 3))
            lp = logits.copy()
            lp[i] += h
            lm = logits.copy()
            lm[i] -= h
            numeric = (total_loss(lp) - total_loss(lm)) / (2 * h)
            denom = max(abs(numeric), abs(analytic[i]), 1e-8)
            assert abs(analytic[i] - numeric) / denom < 1e-4

    def test_ray_budget_split_across_views(self, depth_views):
        gt, obs = depth_views
        cfg = FitConfig(iterations=1, rays_per_iteration=3000)
        _, _, report = fit(obs, gt.geometry, "depth", cfg)
        assert report.rays_per_loss[0] == (3000 // len(obs)) * len(obs)

    def test_single_mask_view_fits_the_silhouette_cone(self):
        # one silhouette can at best pin down its own cone; the fitted grid
        # should keep the carve oracle's cone occupied and descend in loss
        from drc.fusion import carve_masks

        gt, _ = make_test_shape("sphere", (16, 16, 16))
        cam = sample_view_ring(1, seed=6, width=32, height=32)[0]
        obs = [render(gt, cam, "mask")]
        cone = carve_masks(obs, gt.geometry)
        cfg = FitConfig(iterations=10, step_size=0.01, full_images=True)
        fitted, _, report = fit(obs, gt.geometry, "mask", cfg)
        assert report.losses[-1] < report.losses[0]
        occ = fitted.occupancy()
        assert np.all(occ[cone.occ] >= 0.5)
        assert occ[cone.occ].mean() > occ[~cone.occ].mean()

    def test_kind_mismatch_rejected(self, depth_views):
        gt, obs = depth_views
        with pytest.raises(ValueError, match="kind"):
            fit(obs, gt.geometry, "mask", FitConfig(iterations=1))

    def test_empty_observations_rejected(self):
        geom = unit_cube_geometry((8, 8, 8))
        with pytest.raises(ValueError, match="observation"):
            fit([], geom, "depth", FitConfig(iterations=1))

    def test_color_fit_returns_aux(self):
        gt, aux = make_test_shape("sphere", (16, 16, 16))
        cams = sample_view_ring(2, seed=4, width=16, height=16)
        obs = [render(gt, c, "color", aux) for c in cams]
        occ, fit_aux, report = fit(obs, gt.geometry, "color", FitConfig(iterations=3))
        assert fit_aux is not None and fit_aux.kind == "color"
        assert len(report.losses) == 3

    def test_semantic_fit_keeps_simplices(self):
        gt, aux = make_test_shape("sphere", (16, 16, 16), aux_kind="semantics")
        cams = sample_view_ring(2, seed=4, width=16, height=16)
        obs = [render(gt, c, "depth_semantics", aux) for c in cams]
        occ, fit_aux, _ = fit(obs, gt.geometry, "depth_semantics", FitConfig(iterations=3))
        assert fit_aux.kind == "semantics"
        assert np.allclose(fit_aux.payload.sum(axis=3), 1.0, atol=1e-9)


def _frustum_scene():
    """Random boxes of three classes on a small frustum, seen from its apex."""
    geom = make_frustum_geometry((8, 6, 8), 0.5, 8.0, 60.0)
    rng = np.random.default_rng(12)
    occupied = rng.uniform(size=geom.shape) < 0.15
    payload = np.eye(3)[rng.integers(0, 3, geom.ncells)].reshape(*geom.shape, 3)
    bgrid = BinaryGrid(geom, occupied)
    aux = AuxGrid(geom, "semantics", payload)
    cams = [perspective_camera((x, 0.0, 0.1), (0.0, 0.2, 5.0), 70.0, 16, 12) for x in (-0.05, 0.05)]
    return geom, [render(bgrid, cam, "depth_semantics", aux) for cam in cams]


@pytest.mark.parametrize("kind", ["depth", "depth_semantics"])
def test_tabled_fit_loss_matches_untabled_view_loss(kind, depth_views):
    """fit reads traces from per-view tables; its first loss must equal, bit
    for bit, view_loss tracing the same sampled rays itself."""
    if kind == "depth":
        gt, observations = depth_views
        geom = gt.geometry
    else:
        geom, observations = _frustum_scene()
    config = FitConfig(iterations=1, rays_per_iteration=400, seed=9)
    _, _, report = fit(observations, geom, kind, config)

    occ = OccupancyGrid(geom, sigmoid(np.zeros(geom.shape)))
    aux = None
    if kind == "depth_semantics":
        aux = AuxGrid(geom, "semantics", softmax(np.zeros((*geom.shape, 3))))
    per_view = config.rays_per_iteration // len(observations)
    expected = 0.0
    for v, obs in enumerate(observations):
        rays = sample_rays(obs, per_view, config.foreground_weight, config.seed, 0, stream=v)
        expected += view_loss(occ, rays, aux).loss
    assert report.losses[0] == expected


class TestLossLog:
    def test_log_layout_and_determinism(self, tmp_path, depth_views):
        gt, obs = depth_views
        _, _, report = fit(obs, gt.geometry, "depth", FitConfig(iterations=3, seed=0))
        write_loss_log(tmp_path / "a.tsv", report, "depth")
        write_loss_log(tmp_path / "b.tsv", report, "depth")
        a = (tmp_path / "a.tsv").read_text()
        assert a == (tmp_path / "b.tsv").read_text()
        lines = a.strip().splitlines()
        assert lines[0].startswith("# kind=depth")
        assert len(lines) == 4
        assert lines[1].split("\t")[0] == "0"
