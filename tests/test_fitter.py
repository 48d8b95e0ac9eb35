from dataclasses import replace

import numpy as np
import pytest

from drc import fitter
from drc.consistency import AUX_KINDS, RAY_KINDS, RayBatch, view_loss
from drc.fitter import Adam, FitConfig, draw_schedule, fit, sample_rays, sigmoid, softmax, write_loss_log
from drc.cameras import perspective_camera, pixel_rays
from drc.grid import AuxGrid, BinaryGrid, OccupancyGrid, last_axis_sum, make_frustum_geometry, unit_cube_geometry
from drc.metrics import strip_table
from drc.renderer import full_image_rays, image_traces, make_test_shape, render, sample_view_ring
from drc.traversal import trace_batch
from oracles import (ReferenceAdam, random_strip_rays, rays_at_pixels, reference_logit_grads, sampled_pixels,
                     sampled_rows, two_branch_sigmoid, two_reduction_softmax)

TINY = np.finfo(np.float64).smallest_subnormal


@pytest.fixture(scope="module")
def depth_views():
    gt, _ = make_test_shape("sphere", (16, 16, 16))
    cams = sample_view_ring(3, seed=2, width=24, height=24)
    return gt, [render(gt, c, "depth") for c in cams]


def _full_image_loss(occ, observations):
    """The loss of every pixel of every view, in one view_loss call."""
    table = image_traces(occ.geometry, [o.camera for o in observations])
    rays = RayBatch.concatenate([full_image_rays(o) for o in observations])
    return view_loss(occ, rays, traces=table).loss


def _sampled_rays(observations, n, foreground_weight, seed, iteration, views=None):
    """The RayBatch fit scores at (seed, iteration): its full-image rays at
    the rows sample_rays draws."""
    cameras = [o.camera for o in observations]
    rows = sample_rays(cameras, n, views or len(cameras), seed, iteration)
    return RayBatch.concatenate([full_image_rays(o, foreground_weight) for o in observations]).take(rows)


class TestSampleRays:
    def test_all_background_image_unit_weights(self):
        gt, _ = make_test_shape("sphere", (16, 16, 16))
        geom = gt.geometry
        empty = type(gt)(geom, np.zeros(geom.shape, dtype=bool))
        obs = render(empty, sample_view_ring(1, seed=0, width=16, height=16)[0], "mask")
        rays = _sampled_rays([obs], 64, 5.0, seed=1, iteration=0)
        assert np.all(rays.weights == 1.0)

    def test_neutral_foreground_weight(self, depth_views):
        _, obs = depth_views
        rays = _sampled_rays(obs[:1], 100, 1.0, seed=1, iteration=0)
        assert np.all(rays.weights == 1.0)

    def test_foreground_weight_applied(self, depth_views):
        _, obs = depth_views
        rays = _sampled_rays(obs[:1], 500, 5.0, seed=1, iteration=0)
        assert set(np.unique(rays.weights)) <= {1.0, 5.0}
        assert (rays.weights == 5.0).any()

    def test_deterministic_under_seed_and_iteration(self, depth_views):
        _, obs = depth_views
        a = _sampled_rays(obs[:1], 50, 5.0, seed=3, iteration=7)
        b = _sampled_rays(obs[:1], 50, 5.0, seed=3, iteration=7)
        c = _sampled_rays(obs[:1], 50, 5.0, seed=3, iteration=8)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.d, b.d)
        assert not np.array_equal(a.d, c.d)

    @pytest.mark.parametrize("kind", RAY_KINDS)
    def test_is_the_per_pixel_lookup(self, kind):
        """The sampled rows' rays are, to the bit, each drawn pixel's weight
        and observations read with 2-D indexing at the reference draw."""
        gt, aux = make_test_shape("chair_like", (12, 12, 12), aux_kind=AUX_KINDS.get(kind, "color"))
        obs = [render(gt, c, kind, aux) for c in sample_view_ring(3, seed=5, width=20, height=14)]
        got = _sampled_rays(obs, 600, 4.0, seed=2, iteration=3, views=2)
        want = RayBatch.concatenate([rays_at_pixels(obs[v], us, vs, 4.0) for v, us, vs
                                     in sampled_pixels([o.camera for o in obs], 600, 2, 2, 3)])
        assert len(set(got.weights.tolist())) == 2
        for field in ("weights", "s", "d", "c"):
            have, expected = getattr(got, field), getattr(want, field)
            assert (have is None) == (expected is None)
            if expected is not None:
                assert have.dtype == expected.dtype and have.shape == expected.shape
                assert have.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("views", [1, 2, 3])
    def test_rows_are_the_reference_draw(self, views):
        cams = [perspective_camera((0.0, 0.0, -2.0), (0.0, 0.0, 0.0), 50.0, w, h) for w, h in
                ((20, 14), (9, 31), (16, 16))]
        for it in range(4):
            rows = sample_rays(cams, 301, views, 5, it)
            want = sampled_rows(cams, 301, views, 5, it)
            assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()

    def test_needs_at_least_one_ray(self, depth_views):
        _, obs = depth_views
        with pytest.raises(ValueError, match="one ray"):
            sample_rays([obs[0].camera], 0, 1, seed=0, iteration=0)


class TestSquashing:
    def test_sigmoid_range_and_symmetry(self):
        z = np.linspace(-40, 40, 401)
        s = sigmoid(z)
        assert np.all((s >= 0) & (s <= 1))
        assert np.allclose(s + sigmoid(-z), 1.0, atol=1e-12)
        # scalars and integer arrays squash as float arrays do
        assert float(sigmoid(2.0)) == sigmoid(np.array([2.0]))[0]
        assert sigmoid(np.arange(-3, 3)).tobytes() == sigmoid(np.arange(-3.0, 3.0)).tobytes()

    def test_sigmoid_is_bitwise_the_two_branch_formula(self):
        rng = np.random.default_rng(3)
        scales = np.array([1e-3, 0.1, 1.0, 30.0, 300.0, 800.0])[:, None]
        z = np.concatenate([rng.normal(size=(6, 1000)) * scales,
                            [[0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf] * 125],
                            [[1000.0, -1000.0, 1e308, -1e308, TINY, -TINY, 1e-310, -1e-310] * 125]])
        given = z.copy()
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
        assert z.tobytes() == given.tobytes()  # the input is not written
        assert sigmoid(np.array([-np.inf, -0.0, np.inf])).tolist() == [0.0, 0.5, 1.0]
        # NaN stays NaN, at the bits of the one-exp formula as written (the
        # two-branch formula's NaN may carry another sign)
        z = np.concatenate([z.ravel(), [np.nan, -np.nan]])
        e = np.exp(-np.abs(z))
        assert sigmoid(z).tobytes() == (np.where(z >= 0, 1.0, e) / (1.0 + e)).tobytes()
        assert np.isnan(sigmoid(z)[-2:]).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_last_axis_dot_is_bitwise_numpys_sum(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(5, 6, 7, k)) * 10.0 ** rng.uniform(-8, 3, size=(5, 6, 7, k))
        b = rng.uniform(size=(5, 6, 7, k))
        a[0] = 0.0  # zero rows, of both signs
        a[1, 0] = -0.0
        b[2, 0, 0, 0] = 0.0
        assert last_axis_sum(a * b).tobytes() == np.sum(a * b, axis=-1).tobytes()

    def test_softmax_rows_are_simplices(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 10, size=(50, 6))
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_softmax_is_bitwise_the_two_reduction_formula(self, k):
        rng = np.random.default_rng(k)
        z = rng.normal(0, 20, size=(4, 5, 6, k))
        z[0, 0] = 700.0
        z[0, 1] = -700.0
        z[0, 2, :, 0] = 700.0  # one logit of 700 beside ordinary ones
        z[0, 3, :, -1] = -700.0
        z[1] = rng.integers(-2, 3, size=(5, 6, k))  # small integers: tied maxima
        z[2, :, :, :] = z[2, :, :, :1]  # every logit of a row tied
        given = z.copy()
        assert softmax(z).tobytes() == two_reduction_softmax(z).tobytes()
        assert z.tobytes() == given.tobytes()  # the input is not written

    @pytest.mark.parametrize("aux_kind, channels", [("color", 3), ("semantics", 2), ("semantics", 4),
                                                    ("semantics", 7)])
    def test_logit_grads_are_bitwise_the_chain_rule_as_written(self, aux_kind, channels):
        """``_logit_grads`` in place against ``reference_logit_grads``, with
        x and p at exactly 0, exactly 1 and subnormal, and gradients of both
        signs from subnormal to large, zeros of both signs included."""
        rng = np.random.default_rng(channels)
        geom = unit_cube_geometry((6, 5, 4))
        edges = np.array([0.0, 1.0, TINY, 1e-310, 1.0 - 2.0**-53, 0.5])
        x = rng.uniform(size=geom.shape)
        x.flat[:edges.size] = edges
        if aux_kind == "color":
            p = rng.uniform(size=(*geom.shape, channels))
            p.reshape(-1, channels)[:edges.size] = edges[:, None]
            p.reshape(-1)[-edges.size:] = edges
        else:
            p = rng.dirichlet(np.ones(channels), size=geom.shape)
            rows = p.reshape(-1, channels)
            rows[:3] = 0.0
            rows[0, 0] = 1.0  # one-hot
            rows[1, :2] = [TINY, 1.0]  # a subnormal beside 1: the row still sums to 1
            rows[2, :2] = [1e-310, 1.0]
        occ, aux = OccupancyGrid(geom, x), AuxGrid(geom, aux_kind, p)

        def grads(shape):
            g = rng.choice([-1.0, 0.0, 1.0], size=shape) * 10.0 ** rng.uniform(-320, 3, size=shape)
            g.flat[:2] = [0.0, -0.0]
            return g

        grad_x, grad_p = grads(geom.shape), grads(p.shape)
        want = reference_logit_grads(occ, aux, grad_x, grad_p)
        got = fitter._logit_grads(occ, aux, grad_x.copy(), grad_p.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert fitter._logit_grads(occ, aux, None, None) == (None, None)


class TestAdam:
    def test_first_step_is_step_size(self):
        opt = Adam((3,), step=0.1)
        param = np.zeros(3)
        opt.update(param, np.array([1.0, -1.0, 4.0]))
        assert np.allclose(np.abs(param), 0.1, rtol=1e-6)
        assert param[0] < 0 < param[1]

    def test_moments_accumulate(self):
        opt = Adam((1,), step=0.1)
        param = np.zeros(1)
        for _ in range(10):
            opt.update(param, np.ones(1))
        assert opt.t == 10
        assert param[0] == pytest.approx(-1.0 * 0.1 * 10, rel=0.05)


    @pytest.mark.parametrize("shape, step", [((32, 32, 32, 4), 0.05), ((5, 7), 0.3)])
    def test_update_is_bitwise_the_reference_formula(self, shape, step):
        rng = np.random.default_rng(12)
        opt, ref = Adam(shape, step), ReferenceAdam(shape, step)
        param = rng.normal(size=shape)
        expect = param.copy()
        for _ in range(12):
            # magnitudes from 1e-8 to 1e2, both signs, some exact zeros
            grad = rng.choice([-1.0, 0.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 2, size=shape)
            opt.update(param, grad)
            ref.update(expect, grad)
            assert param.tobytes() == expect.tobytes()
        assert opt.m.tobytes() == ref.m.tobytes() and opt.v.tobytes() == ref.v.tobytes()


class TestFit:
    def test_zero_iterations_returns_initialization(self, depth_views):
        gt, obs = depth_views
        occ, aux, report = fit(obs, gt.geometry, "depth", FitConfig(iterations=0))
        assert np.all(occ.x == 0.5)
        assert aux is None
        assert len(report.losses) == 0

    def test_loss_decreases_with_full_images(self, depth_views):
        # descent sanity: one tiny step on sampled rays lowers every pixel's loss
        gt, obs = depth_views
        cfg = FitConfig(iterations=1, step_size=1e-3)
        fitted, _, _ = fit(obs, gt.geometry, "depth", cfg)
        start = OccupancyGrid(gt.geometry, np.full(gt.geometry.shape, 0.5))
        assert _full_image_loss(fitted, obs) < _full_image_loss(start, obs)

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

    def test_negative_seed_rejected(self):
        assert FitConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize("field", ["step_size", "foreground_weight", "label_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            FitConfig(**{field: value})

    def test_negative_label_weight_rejected(self):
        # -w log p(c) would reward a low probability of the observed class
        assert FitConfig(label_weight=0.0).label_weight == 0.0
        for weight in (-1.0, -1e-300):
            with pytest.raises(ValueError, match="label_weight must be"):
                FitConfig(label_weight=weight)

    def test_non_finite_loss_stops_the_fit(self, depth_views):
        gt, obs = depth_views
        # finite config, but weights this large overflow the weighted loss sum
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="iteration 0"):
            fit(obs, gt.geometry, "depth", FitConfig(iterations=3, foreground_weight=1e308))

    def test_logit_chain_rule_against_finite_differences(self):
        """``_logit_grads``, the chain rule ``fit`` applies to ``view_loss``'s
        gradients, against central differences in the logits, for every
        kind.  The rays cross cells of their own (``strip_table``), so each
        difference moves the k-th cell of every ray at once and reads each
        ray's own loss."""
        rng = np.random.default_rng(8)
        h = 1e-5
        for kind in RAY_KINDS:
            _, bounds, _, _, fields = random_strip_rays(rng, kind, 40, 8, min_cells=1)
            table = strip_table(bounds)
            geom, n = table.geometry, table.n
            rays = RayBatch(kind, rng.uniform(0.5, 2.0, n.size), **fields)
            aux_kind = AUX_KINDS.get(kind)
            logits_x = rng.normal(0.0, 1.0, geom.shape)
            logits_p = None
            if aux_kind is not None:
                logits_p = rng.normal(0.0, 1.0, (*geom.shape, 3 if aux_kind == "color" else 4))

            def loss(lx, lp):
                occ, aux = fitter._squash(geom, lx, lp, aux_kind)
                return view_loss(occ, rays, aux, traces=table)

            def slope(rows, dx=0.0, dp=0.0):
                """w d(per_ray)/dt of rays ``rows`` at the logits moved by t (dx, dp), t = 0."""
                up, down = (loss(logits_x + t * dx, None if logits_p is None else logits_p + t * dp).per_ray[rows]
                            for t in (h, -h))
                return rays.weights[rows] * (up - down) / (2.0 * h)

            occ, aux = fitter._squash(geom, logits_x, logits_p, aux_kind)
            res = loss(logits_x, logits_p)
            analytic_x, analytic_p = fitter._logit_grads(occ, aux, res.grad_x, res.grad_p)
            assert fitter._logit_grads(occ, aux, None, None) == (None, None)
            numeric_x = np.zeros(geom.ncells)
            channels = 0 if logits_p is None else logits_p.shape[-1]
            numeric_p = np.zeros((geom.ncells, channels))
            for k in range(n.max()):
                rows = np.flatnonzero(n > k)
                cells = table.start[rows] + k  # the k-th cell of each of these rays
                dx = np.zeros(geom.ncells)
                dx[cells] = 1.0
                numeric_x[cells] = slope(rows, dx=dx.reshape(geom.shape))
                for j in range(channels):
                    dp = np.zeros(numeric_p.shape)
                    dp[cells, j] = 1.0
                    numeric_p[cells, j] = slope(rows, dp=dp.reshape(logits_p.shape))

            pairs = [(analytic_x.reshape(-1), numeric_x)]
            if channels:
                pairs.append((analytic_p.reshape(-1, channels), numeric_p))
            for analytic, numeric in pairs:
                denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
                assert np.max(np.abs(analytic - numeric) / denom) < 1e-4, kind

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
        cfg = FitConfig(iterations=10, step_size=0.01, rays_per_iteration=32 * 32)
        fitted, _, _ = fit(obs, gt.geometry, "mask", cfg)
        start = OccupancyGrid(gt.geometry, np.full(gt.geometry.shape, 0.5))
        assert _full_image_loss(fitted, obs) < _full_image_loss(start, obs)
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

    @pytest.mark.parametrize("kind, iterations, schedule", [
        ("color", 4, ["occupancy", "occupancy", "payload", "payload"]),  # carve, then paint
        ("depth_semantics", 2, ["occupancy", "payload"] * 2),
    ])
    def test_update_schedule(self, kind, iterations, schedule, monkeypatch):
        aux_kind = "semantics" if kind == "depth_semantics" else "color"
        gt, aux = make_test_shape("sphere", (16, 16, 16), aux_kind=aux_kind)
        cams = sample_view_ring(2, seed=4, width=16, height=16)
        obs = [render(gt, c, kind, aux) for c in cams]
        updated = []

        def recording(opt, param, grad, update=Adam.update):
            updated.append("occupancy" if param.shape == gt.geometry.shape else "payload")
            update(opt, param, grad)

        monkeypatch.setattr(fitter.Adam, "update", recording)
        fit(obs, gt.geometry, kind, FitConfig(iterations=iterations, rays_per_iteration=200))
        assert updated == schedule


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
    """fit reads traces from one table of every view; its first loss must
    equal, bit for bit, view_loss on the same sampled pixels' rays traced
    alone."""
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
    rays, origins, directions = [], [], []
    cameras = [o.camera for o in observations]
    for v, us, vs in sampled_pixels(cameras, config.rays_per_iteration, len(cameras), config.seed, 0):
        rays.append(rays_at_pixels(observations[v], us, vs, config.foreground_weight))
        o, d = pixel_rays(cameras[v], us + 0.5, vs + 0.5)
        origins.append(o)
        directions.append(d)
    traces = trace_batch(geom, np.concatenate(origins), np.concatenate(directions))
    expected = view_loss(occ, RayBatch.concatenate(rays), aux, traces=traces).loss
    assert report.losses[0] == expected


@pytest.mark.parametrize("views_per_iteration", [None, 2])
def test_fit_calls_view_loss_once_per_iteration(views_per_iteration, depth_views, monkeypatch):
    """Every chosen view's rays go through one view_loss call, over one take
    of the table that shares its storage."""
    gt, obs = depth_views
    table = image_traces(gt.geometry, [o.camera for o in obs])
    calls = []

    def counting(occ, rays, aux=None, **kwargs):
        traces = kwargs["traces"]
        shared = traces.cells is table.cells and traces.t_exit is table.t_exit
        calls.append((rays.n_rays, traces.n_rays, shared))
        return view_loss(occ, rays, aux, **kwargs)

    monkeypatch.setattr(fitter, "view_loss", counting)
    config = FitConfig(iterations=4, rays_per_iteration=300, views_per_iteration=views_per_iteration)
    fit(obs, gt.geometry, "depth", config, traces=table)
    take = views_per_iteration or len(obs)
    assert calls == [(300 // take * take, 300 // take * take, True)] * 4


@pytest.mark.parametrize("views_per_iteration", [None, 2])
@pytest.mark.parametrize("kind", ["mask", "depth", "depth_semantics", "color"])
def test_fit_samples_the_rays_of_sample_rays(kind, views_per_iteration, monkeypatch):
    """The fit's draw schedule calls sample_rays once per iteration; the
    rows of iteration i are, bit for bit, the reference draw's, its rays
    carry, view by view in the chosen order, exactly the weights and
    observations of the drawn pixels, and their traces are one take of
    those rows of the table, sharing its storage."""
    gt, aux = make_test_shape("sphere", (12, 12, 12), aux_kind=AUX_KINDS.get(kind, "color"))
    cams = sample_view_ring(3, seed=3, width=20, height=16)
    obs = [render(gt, c, kind, aux) for c in cams]
    calls, drawn = [], []

    def recording(occ, rays, aux=None, **kwargs):
        calls.append((rays, kwargs["traces"]))
        return view_loss(occ, rays, aux, **kwargs)

    def drawing(*args):
        drawn.append(sample_rays(*args))
        return drawn[-1]

    monkeypatch.setattr(fitter, "view_loss", recording)
    monkeypatch.setattr(fitter, "sample_rays", drawing)
    config = FitConfig(iterations=3, rays_per_iteration=240, views_per_iteration=views_per_iteration,
                       foreground_weight=3.0, seed=6)
    table = image_traces(gt.geometry, cams)
    fit(obs, gt.geometry, kind, config, traces=table)
    take = views_per_iteration or len(obs)
    per_view = config.rays_per_iteration // take
    assert len(calls) == len(drawn) == config.iterations
    for it, ((rays, traces), rows) in enumerate(zip(calls, drawn)):
        want_rows = sampled_rows(cams, config.rays_per_iteration, take, config.seed, it)
        assert rows.tobytes() == want_rows.tobytes()
        assert traces.n_rays == rays.n_rays == take * per_view
        assert traces.cells is table.cells and traces.t_exit is table.t_exit
        pixels = sampled_pixels(cams, config.rays_per_iteration, take, config.seed, it)
        for j, (v, us, vs) in enumerate(pixels):
            want = rays_at_pixels(obs[v], us, vs, config.foreground_weight)
            got = slice(j * per_view, (j + 1) * per_view)
            assert rays.weights[got].tobytes() == want.weights.tobytes()
            for field in ("s", "d", "c"):
                have, expected = getattr(rays, field), getattr(want, field)
                assert (have is None) == (expected is None)
                if expected is not None:
                    assert have[got].tobytes() == expected.tobytes()
        expected_rows = table.take(want_rows)
        for field in ("start", "n", "t0"):
            assert getattr(traces, field).tobytes() == getattr(expected_rows, field).tobytes()


@pytest.fixture(scope="module")
def kind_views():
    """Per kind, a 12^3 sphere's geometry and its observations from one
    ring of 3 views of 20x16 px."""
    cams = sample_view_ring(3, seed=3, width=20, height=16)
    out = {}
    for kind in RAY_KINDS:
        gt, aux = make_test_shape("sphere", (12, 12, 12), aux_kind=AUX_KINDS.get(kind, "color"))
        out[kind] = gt.geometry, [render(gt, c, kind, aux) for c in cams]
    return out


class TestDrawSchedule:
    @pytest.mark.parametrize("views_per_iteration", [None, 2])
    @pytest.mark.parametrize("kind", RAY_KINDS)
    def test_rows_are_sample_rays_rows(self, kind, views_per_iteration, kind_views):
        cams = [o.camera for o in kind_views[kind][1]]
        config = FitConfig(iterations=5, rays_per_iteration=241, views_per_iteration=views_per_iteration, seed=4)
        draws = draw_schedule(cams, config)
        views = views_per_iteration or len(cams)
        assert draws.rows.dtype == np.int16  # 960 table rows
        assert draws.rows.shape == (5, 241 // views * views) and draws.views == views
        for it in range(config.iterations):
            want = sample_rays(cams, 241, views, 4, it)
            assert draws.rows[it].astype(want.dtype).tobytes() == want.tobytes()

    def test_six_cameras_draw_three_views(self):
        sizes = ((20, 14), (9, 31), (16, 16), (200, 180), (64, 48), (128, 128))  # 56,271 rows
        cams = [perspective_camera((0.0, 0.0, -2.0), (0.0, 0.0, 0.0), 50.0, w, h) for w, h in sizes]
        draws = draw_schedule(cams, FitConfig(iterations=4, rays_per_iteration=300, seed=2))
        assert draws.rows.dtype == np.int32 and draws.views == 3 and draws.sizes == sizes
        for it in range(4):
            want = sample_rays(cams, 300, 3, 2, it)
            assert draws.rows[it].astype(want.dtype).tobytes() == want.tobytes()

    @pytest.mark.parametrize("views_per_iteration", [None, 2])
    @pytest.mark.parametrize("kind", RAY_KINDS)
    def test_fit_given_a_schedule_is_the_fit_without(self, kind, views_per_iteration, kind_views,
                                                     monkeypatch):
        """Byte for byte, from a schedule drawn for more iterations than the
        fit runs, and without a draw of its own."""
        geom, obs = kind_views[kind]
        config = FitConfig(iterations=4, rays_per_iteration=240, views_per_iteration=views_per_iteration,
                           seed=6, label_weight=0.7)
        occ, aux, report = fit(obs, geom, kind, config)
        draws = draw_schedule([o.camera for o in obs], replace(config, iterations=6))

        def drawing(*args):
            raise AssertionError("a fit given a schedule drew rays")

        monkeypatch.setattr(fitter, "sample_rays", drawing)
        got_occ, got_aux, got_report = fit(obs, geom, kind, config, draws=draws)
        assert len(set(report.losses)) > 1  # the fit moved
        assert got_occ.x.tobytes() == occ.x.tobytes()
        assert got_report.losses.tobytes() == report.losses.tobytes()
        assert got_report.rays_per_loss.tobytes() == report.rays_per_loss.tobytes()
        assert (got_aux is None) == (aux is None)
        if aux is not None:
            assert got_aux.payload.tobytes() == aux.payload.tobytes()

    @pytest.mark.parametrize("drawn_for, message", [
        ({"height": 17}, "drawn for sizes"),
        ({"rays_per_iteration": 241}, "drawn for rays_per_iteration 241, the fit has 240"),
        ({"views_per_iteration": 2}, "drawn for views 2, the fit has 3"),
        ({"seed": 1}, "drawn for seed 1, the fit has 0"),
        ({"iterations": 3}, "holds 3 iterations, the fit runs 4"),
    ])
    def test_schedule_drawn_for_another_fit_rejected(self, drawn_for, message, kind_views):
        geom, obs = kind_views["depth"]
        config = FitConfig(iterations=4, rays_per_iteration=240)
        changed = {k: v for k, v in drawn_for.items() if k != "height"}
        cams = sample_view_ring(3, seed=3, width=20, height=drawn_for.get("height", 16))
        draws = draw_schedule(cams, replace(config, **changed))
        with pytest.raises(ValueError, match=message):
            fit(obs, geom, "depth", config, draws=draws)


@pytest.mark.parametrize("kind", RAY_KINDS)
def test_fit_checks_its_inputs_once(kind, monkeypatch):
    """A fit of 6 iterations runs the RayBatch, OccupancyGrid and AuxGrid
    checks as often as one of 2: on its observations' rays and on the
    grids it returns, not on the rows and grids each iteration derives
    from them."""
    aux_kind = AUX_KINDS.get(kind)
    gt, aux = make_test_shape("sphere", (12, 12, 12), aux_kind=aux_kind or "color")
    cams = sample_view_ring(3, seed=5, width=16, height=16)
    obs = [render(gt, c, kind, aux) for c in cams]
    table = image_traces(gt.geometry, cams)
    counts = {}
    for cls in (RayBatch, OccupancyGrid, AuxGrid):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    seen = []
    for iterations in (2, 6):
        counts.update(RayBatch=0, OccupancyGrid=0, AuxGrid=0)
        fit(obs, gt.geometry, kind, FitConfig(iterations=iterations, rays_per_iteration=200), traces=table)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"RayBatch": len(obs) + 1, "OccupancyGrid": 1,
                                  "AuxGrid": int(aux_kind is not None)}


@pytest.mark.parametrize("kind", RAY_KINDS)
def test_fit_is_bitwise_the_reference_formulas(kind, monkeypatch):
    """A short fit of each kind (color carves, then paints) equals, byte for
    byte, the same fit with the formulas as written patched into
    ``fitter``: the two-branch sigmoid, the two-reduction softmax,
    ``ReferenceAdam`` and the chain rule with new arrays.  Unlike the golden
    digests, this holds on any machine."""
    aux_kind = AUX_KINDS.get(kind)
    gt, aux = make_test_shape("chair_like", (12, 12, 12), aux_kind=aux_kind or "color")
    cams = sample_view_ring(3, seed=5, width=20, height=20)
    obs = [render(gt, c, kind, aux) for c in cams]
    cfg = FitConfig(iterations=6, rays_per_iteration=400, seed=3, label_weight=0.7)
    occ, fit_aux, report = fit(obs, gt.geometry, kind, cfg)

    called = set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, ref in [("sigmoid", two_branch_sigmoid), ("softmax", two_reduction_softmax),
                      ("Adam", ReferenceAdam), ("_logit_grads", reference_logit_grads)]:
        monkeypatch.setattr(fitter, name, recorded(name, ref))
    ref_occ, ref_aux, ref_report = fit(obs, gt.geometry, kind, cfg)
    assert called == {"sigmoid", "Adam", "_logit_grads"} | ({"softmax"} if kind == "depth_semantics" else set())
    assert len(set(report.losses)) > 1  # the fit moved
    assert occ.x.tobytes() == ref_occ.x.tobytes()
    assert report.losses.tobytes() == ref_report.losses.tobytes()
    if aux_kind is None:
        assert fit_aux is None and ref_aux is None
    else:
        assert fit_aux.payload.tobytes() == ref_aux.payload.tobytes()
        assert not np.all(fit_aux.payload == fit_aux.payload.flat[0])  # the payload moved


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
        for it, line in enumerate(lines[1:]):
            fields = line.split("\t")
            assert fields[0] == str(it)
            assert float(fields[1]) == report.losses[it]
            assert float(fields[2]) == report.losses[it] / report.rays_per_loss[it]
