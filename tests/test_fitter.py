import numpy as np
import pytest

from drc import fitter
from drc.consistency import AUX_KINDS, RAY_KINDS, RayBatch, view_loss
from drc.fitter import Adam, FitConfig, _last_axis_dot, fit, sample_rays, sigmoid, softmax, write_loss_log
from drc.cameras import perspective_camera, pixel_rays
from drc.grid import AuxGrid, BinaryGrid, OccupancyGrid, make_frustum_geometry, unit_cube_geometry
from drc.metrics import strip_table
from drc.renderer import full_image_rays, image_traces, make_test_shape, render, sample_view_ring
from drc.traversal import trace_batch
from oracles import ReferenceAdam, random_strip_rays, two_branch_sigmoid, two_reduction_softmax


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
        assert np.array_equal(a.weights, b.weights)
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

    def test_sigmoid_is_bitwise_the_two_branch_formula(self):
        rng = np.random.default_rng(3)
        scales = np.array([1e-3, 0.1, 1.0, 30.0, 300.0, 800.0])[:, None]
        z = np.concatenate([rng.normal(size=(6, 1000)) * scales,
                            [[0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf] * 125]])
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
        assert sigmoid(np.array([-np.inf, -0.0, np.inf])).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_last_axis_dot_is_bitwise_numpys_sum(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(5, 6, 7, k)) * 10.0 ** rng.uniform(-8, 3, size=(5, 6, 7, k))
        b = rng.uniform(size=(5, 6, 7, k))
        a[0] = 0.0  # zero rows, of both signs
        a[1, 0] = -0.0
        b[2, 0, 0, 0] = 0.0
        assert _last_axis_dot(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()

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
        assert softmax(z).tobytes() == two_reduction_softmax(z).tobytes()


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

    @pytest.mark.parametrize("field", ["step_size", "foreground_weight", "label_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            FitConfig(**{field: value})

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
    per_view = config.rays_per_iteration // len(observations)
    rays, origins, directions = [], [], []
    for v, obs in enumerate(observations):
        rays.append(sample_rays(obs, per_view, config.foreground_weight, config.seed, 0, stream=v))
        us, vs = fitter._sample_pixels(obs, per_view, config.seed, 0, v)
        o, d = pixel_rays(obs.camera, us + 0.5, vs + 0.5)
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
    """Iteration i's rays carry, view by view in the chosen order, exactly
    the weights and observations of sample_rays(obs, per_view, fg, seed, i,
    stream=v), and their traces are one take of those pixels' rows of the
    table, sharing its storage."""
    gt, aux = make_test_shape("sphere", (12, 12, 12), aux_kind=AUX_KINDS.get(kind, "color"))
    cams = sample_view_ring(3, seed=3, width=20, height=16)
    obs = [render(gt, c, kind, aux) for c in cams]
    calls = []

    def recording(occ, rays, aux=None, **kwargs):
        calls.append((rays, kwargs["traces"]))
        return view_loss(occ, rays, aux, **kwargs)

    monkeypatch.setattr(fitter, "view_loss", recording)
    config = FitConfig(iterations=3, rays_per_iteration=240, views_per_iteration=views_per_iteration,
                       foreground_weight=3.0, seed=6)
    table = image_traces(gt.geometry, [o.camera for o in obs])
    fit(obs, gt.geometry, kind, config, traces=table)
    take = views_per_iteration or len(obs)
    per_view = config.rays_per_iteration // take
    assert len(calls) == config.iterations
    for it, (rays, traces) in enumerate(calls):
        chosen = list(range(len(obs)))
        if take < len(obs):
            rng = np.random.default_rng([config.seed, it, fitter._VIEW_CHOICE_STREAM])
            chosen = sorted(rng.choice(len(obs), size=take, replace=False))
        assert traces.n_rays == rays.n_rays == take * per_view
        assert traces.cells is table.cells and traces.t_exit is table.t_exit
        for j, v in enumerate(chosen):
            want = sample_rays(obs[v], per_view, config.foreground_weight, config.seed, it, stream=v)
            got = slice(j * per_view, (j + 1) * per_view)
            assert rays.weights[got].tobytes() == want.weights.tobytes()
            for field in ("s", "d", "c"):
                have, expected = getattr(rays, field), getattr(want, field)
                assert (have is None) == (expected is None)
                if expected is not None:
                    assert have[got].tobytes() == expected.tobytes()
            us, vs = fitter._sample_pixels(obs[v], per_view, config.seed, it, v)
            rows = table.take(table.first_rows[v] + vs * obs[v].camera.width + us)
            for field in ("start", "n", "t0"):
                assert getattr(traces, field)[got].tobytes() == getattr(rows, field).tobytes()


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
