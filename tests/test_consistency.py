import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drc.cameras import Ray
from drc import traversal
from drc.cameras import perspective_camera, pixel_rays
from drc.consistency import (
    RAY_KINDS,
    RayBatch,
    cost_color,
    cost_depth,
    cost_mask,
    cost_semantic,
    event_probabilities,
    mask_loss_closed_form,
    ray_loss,
    ray_loss_grad_p,
    ray_loss_grad_x,
    view_loss,
)
from drc.grid import AuxGrid, OccupancyGrid, make_frustum_geometry, unit_cube_geometry
from drc.metrics import brute_force_ray_loss, central_difference
from drc.traversal import trace, trace_batch


from oracles import naive_grad_x, reference_psi


def random_costs(rng, n, kind):
    t = np.cumsum(rng.uniform(0.05, 0.5, n + 1))
    d = 0.5 * (t[:-1] + t[1:])
    if kind == "mask":
        return cost_mask(n, int(rng.integers(0, 2)))
    if kind == "depth":
        return cost_depth(d, float(rng.uniform(0.1, 12.0)))
    if kind == "depth_semantics":
        p = rng.dirichlet(np.ones(4), size=n)
        p = np.maximum(p, 1e-6)
        p /= p.sum(axis=1, keepdims=True)
        return cost_semantic(d, p, float(rng.uniform(0.1, 12.0)), int(rng.integers(0, 4)))
    return cost_color(n, rng.uniform(size=(n, 3)), rng.uniform(size=3))


class TestEventProbabilities:
    def test_all_empty_escapes(self):
        assert np.allclose(event_probabilities([1.0, 1.0]), [0, 0, 1], atol=0)

    def test_first_cell_surely_occupied(self):
        assert np.allclose(event_probabilities([0.0, 0.7]), [1, 0, 0], atol=0)

    def test_hand_evaluated_halves(self):
        assert np.allclose(event_probabilities([0.5, 0.5]), [0.5, 0.25, 0.25], atol=1e-15)

    def test_empty_ray(self):
        assert event_probabilities([]).tolist() == [1.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            event_probabilities([0.5, 1.2])

    def test_normalization_random(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            x = rng.uniform(size=rng.integers(1, 65))
            assert abs(event_probabilities(x).sum() - 1.0) < 1e-12


class TestEventCosts:
    def test_depth_example(self):
        costs = cost_depth(np.array([1.0, 2.0]), 2.0)
        assert costs.psi.tolist() == [1.0, 0.0, 8.0]

    def test_depth_empty_trace(self):
        costs = cost_depth(np.zeros(0), 4.0)
        assert costs.psi.tolist() == [6.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_depth_observation_must_be_positive_and_finite(self, bad):
        d = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            cost_depth(d, bad)
        with pytest.raises(ValueError, match="finite"):
            cost_semantic(d, np.full((2, 4), 0.25), bad, 0)

    def test_depth_exact_match_is_free(self):
        costs = cost_depth(np.array([0.7, 1.3, 2.9]), 1.3)
        assert costs.psi[1] == 0.0

    def test_mask_foreground(self):
        assert cost_mask(3, 0).psi.tolist() == [0, 0, 0, 1]

    def test_mask_background(self):
        assert cost_mask(3, 1).psi.tolist() == [1, 1, 1, 0]

    def test_mask_empty_trace(self):
        assert cost_mask(0, 1).psi.tolist() == [0.0]

    def test_semantic_perfect_explanation(self):
        p = np.array([[0.0, 1.0, 0.0, 0.0]])
        costs = cost_semantic(np.array([2.0]), p, 2.0, 1)
        assert costs.psi[0] == pytest.approx(0.0, abs=1e-12)

    def test_semantic_escape_convention(self):
        # escape disparity 1/1000 and the uniform distribution over K = 4
        costs = cost_semantic(np.array([1.0]), np.array([[0.25] * 4]), 2.0, 0)
        assert costs.psi[-1] == pytest.approx(abs(0.001 - 0.5) + np.log(4.0), rel=1e-12)

    def test_semantic_half_probability(self):
        p = np.array([[0.5, 0.5, 0.0, 0.0]])
        costs = cost_semantic(np.array([3.0]), p, 3.0, 0)
        assert costs.psi[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_semantic_gradient_entry(self):
        p = np.array([[0.5, 0.25, 0.125, 0.125]])
        costs = cost_semantic(np.array([3.0]), p, 3.0, 1)
        assert costs.dpsi_dp[0].tolist() == [0.0, -4.0, 0.0, 0.0]

    def test_color_match_is_free(self):
        c = np.array([0.2, 0.4, 0.9])
        costs = cost_color(1, c[None, :], c)
        assert costs.psi[0] == 0.0

    def test_color_white_escape_is_free(self):
        costs = cost_color(2, np.zeros((2, 3)), np.array([1.0, 1.0, 1.0]))
        assert costs.psi[-1] == 0.0

    def test_color_black_vs_white(self):
        costs = cost_color(1, np.zeros((1, 3)), np.array([1.0, 1.0, 1.0]))
        assert costs.psi[0] == pytest.approx(1.5, abs=0)
        assert costs.dpsi_dp[0].tolist() == [-1.0, -1.0, -1.0]


class TestRayLoss:
    def test_background_mask_example(self):
        # only the escape event costs 1; p(escape) = 0.8 * 0.5
        assert ray_loss([0.8, 0.5], cost_mask(2, 0)) == pytest.approx(0.4, abs=1e-15)

    def test_constant_costs_are_x_independent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(size=5)
            assert ray_loss(x, np.full(6, 3.7)) == pytest.approx(3.7, abs=1e-12)

    def test_direct_expectation_single_cell(self):
        assert ray_loss([0.5], np.array([2.0, 4.0])) == pytest.approx(3.0, abs=0)

    def test_telescoped_equals_direct_expectation(self):
        rng = np.random.default_rng(2)
        for kind in ("mask", "depth", "depth_semantics", "color"):
            for _ in range(200):
                n = int(rng.integers(0, 9))
                x = rng.uniform(size=n)
                costs = random_costs(rng, n, kind)
                direct = float(event_probabilities(x) @ costs.psi)
                assert ray_loss(x, costs) == pytest.approx(direct, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ray_loss([0.5, 0.5], np.array([1.0, 2.0]))


class TestRayLossGradX:
    def test_background_product_gradient(self):
        grad = ray_loss_grad_x([0.5, 0.5], cost_mask(2, 1))
        assert np.allclose(grad, [-0.5, -0.5], atol=1e-15)

    def test_constant_costs_zero_gradient(self):
        grad = ray_loss_grad_x([0.3, 0.9, 0.2], np.full(4, 2.2))
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_all_empty_depth_gradient(self):
        # with x = 1 everywhere all products are 1: grad_k = psi_esc - psi_k
        d = np.array([1.0, 2.0, 3.0])
        costs = cost_depth(d, 2.5)
        grad = ray_loss_grad_x(np.ones(3), costs)
        assert np.allclose(grad, costs.psi[-1] - costs.psi[:-1], atol=1e-15)

    def test_matches_naive_quadratic_formula(self):
        rng = np.random.default_rng(3)
        for kind in ("mask", "depth", "depth_semantics", "color"):
            for _ in range(100):
                n = int(rng.integers(1, 9))
                x = rng.uniform(size=n)
                costs = random_costs(rng, n, kind)
                assert np.allclose(ray_loss_grad_x(x, costs),
                                   naive_grad_x(x, costs.psi), atol=1e-12)

    def test_finite_at_exact_endpoints(self):
        # product form never divides by x, so hard 0/1 cells are safe
        x = np.array([1.0, 0.0, 1.0, 0.5, 0.0])
        costs = cost_depth(np.linspace(0.5, 2.5, 5), 1.7)
        grad = ray_loss_grad_x(x, costs)
        assert np.all(np.isfinite(grad))
        num = np.zeros(5)
        for k in range(5):  # one-sided differences stay inside [0, 1]
            h = 1e-7
            xp = x.copy()
            xp[k] = min(x[k] + h, 1.0)
            xm = x.copy()
            xm[k] = max(x[k] - h, 0.0)
            num[k] = (ray_loss(xp, costs) - ray_loss(xm, costs)) / (xp[k] - xm[k])
        assert np.allclose(grad, num, atol=1e-5)

    def test_monotone_carving_for_background_rays(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            grad = ray_loss_grad_x(rng.uniform(size=n), cost_mask(n, 1))
            assert np.all(grad <= 0.0)


class TestRayLossGradP:
    def test_zero_probability_zero_gradient(self):
        # first cell surely occupied: later events have probability 0
        costs = cost_color(2, np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]),
                           np.array([1.0, 0.0, 0.0]))
        grad = ray_loss_grad_p([0.0, 0.5], costs)
        assert np.allclose(grad[1], 0.0, atol=0)

    def test_color_gradient_is_event_weighted_residual(self):
        x = [0.0]
        costs = cost_color(1, np.zeros((1, 3)), np.array([1.0, 0.0, 0.0]))
        grad = ray_loss_grad_p(x, costs)
        assert np.allclose(grad, [[-1.0, 0.0, 0.0]], atol=0)

    def test_requires_dpsi(self):
        with pytest.raises(ValueError, match="dpsi"):
            ray_loss_grad_p([0.5], cost_mask(1, 0))


class TestMaskClosedForm:
    def test_example(self):
        assert mask_loss_closed_form([0.8, 0.5], 0) == pytest.approx(0.4, abs=1e-15)

    def test_empty_grid_consistent_with_background(self):
        assert mask_loss_closed_form([1.0, 1.0, 1.0], 1) == 0.0

    def test_surely_occupied_consistent_with_foreground(self):
        assert mask_loss_closed_form([0.9, 0.0, 0.7], 0) == 0.0

    def test_equals_expected_cost_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(0, 10))
            x = rng.uniform(size=n)
            s = int(rng.integers(0, 2))
            expected = ray_loss(x, cost_mask(n, s))
            assert abs(expected - mask_loss_closed_form(x, s)) < 1e-12


class TestBruteForceAgreement:
    @pytest.mark.parametrize("kind", ["mask", "depth", "depth_semantics", "color"])
    def test_loss_equals_exhaustive_expectation(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(0, 13))
            x = rng.uniform(size=n)
            costs = random_costs(rng, n, kind)
            assert ray_loss(x, costs) == pytest.approx(
                brute_force_ray_loss(x, costs), abs=1e-10)


class TestViewLoss:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        geom = unit_cube_geometry((4, 4, 4))
        occ = OccupancyGrid(geom, rng.uniform(size=geom.shape))
        return rng, geom, occ

    def test_two_identical_rays_double_everything(self):
        rng, geom, occ = self._setup()
        o = np.array([[-2.0, 0.1, 0.05]])
        d = np.array([[1.0, 0.0, 0.0]])
        one = RayBatch("depth", o, d, np.ones(1), d=np.array([2.1]))
        two = RayBatch("depth", np.repeat(o, 2, 0), np.repeat(d, 2, 0),
                       np.ones(2), d=np.array([2.1, 2.1]))
        r1 = view_loss(occ, one)
        r2 = view_loss(occ, two)
        assert r2.loss == pytest.approx(2.0 * r1.loss, abs=0)
        assert np.array_equal(r2.grad_x, 2.0 * r1.grad_x)

    def test_background_rays_on_empty_grid_cost_nothing(self):
        # loss sits at its minimum; the gradient still points toward "more
        # empty" (the x <= 1 bound is active, grad_k = -prod_{j!=k} x_j)
        geom = unit_cube_geometry((3, 3, 3))
        occ = OccupancyGrid(geom, np.ones(geom.shape))
        o = np.array([[-2.0, 0.0, 0.0], [-2.0, 0.1, 0.1]])
        d = np.tile([1.0, 0.0, 0.0], (2, 1))
        rays = RayBatch("mask", o, d, np.ones(2), s=np.array([1.0, 1.0]))
        res = view_loss(occ, rays)
        assert res.loss == 0.0
        assert np.all(res.grad_x <= 0.0)

    def test_untouched_cells_have_zero_gradient(self):
        rng, geom, occ = self._setup(7)
        o = np.array([[-2.0, 0.05, 0.05]])
        d = np.array([[1.0, 0.0, 0.0]])
        rays = RayBatch("mask", o, d, np.ones(1), s=np.array([0.0]))
        res = view_loss(occ, rays)
        touched = trace(geom, Ray(o[0], d[0])).cells
        grad = res.grad_x.reshape(-1)
        untouched = np.setdiff1d(np.arange(geom.ncells), touched)
        assert np.all(grad[untouched] == 0.0)
        assert np.any(grad[touched] != 0.0)

    def test_composes_with_per_ray_pipeline(self):
        rng, geom, occ = self._setup(8)
        o = np.array([-2.0, 0.12, -0.07])
        d = np.array([1.0, 0.0, 0.0])
        w = 1.7
        rays = RayBatch("depth", o[None], d[None], np.array([w]), d=np.array([1.9]))
        res = view_loss(occ, rays)
        tr = trace(geom, Ray(o, d))
        psi = reference_psi("depth", tr.d, 1.9)
        x_r = occ.flat[tr.cells]
        assert res.loss == pytest.approx(w * brute_force_ray_loss(x_r, psi), abs=1e-12)
        assert np.allclose(res.grad_x.reshape(-1)[tr.cells],
                           w * naive_grad_x(x_r, psi), atol=1e-12)

    def test_aux_required_for_color(self):
        rng, geom, occ = self._setup(9)
        rays = RayBatch("color", np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]),
                        np.ones(1), c=np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="aux"):
            view_loss(occ, rays)

    def test_semantic_composition_with_aux(self):
        rng, geom, occ = self._setup(10)
        p = rng.dirichlet(np.ones(4), size=geom.ncells).reshape(*geom.shape, 4)
        aux = AuxGrid(geom, "semantics", p)
        o = np.array([-2.0, 0.2, 0.2])
        d = np.array([1.0, 0.0, 0.0])
        rays = RayBatch("depth_semantics", o[None], d[None], np.array([1.0]),
                        d=np.array([2.2]), c=np.array([2]))
        res = view_loss(occ, rays, aux)
        tr = trace(geom, Ray(o, d))
        x_r = occ.flat[tr.cells]

        def loss_of(p_r):
            return brute_force_ray_loss(x_r, reference_psi("depth_semantics", tr.d, (2.2, 2), p_r))

        p_r = aux.flat[tr.cells]
        assert res.loss == pytest.approx(loss_of(p_r), abs=1e-12)
        assert np.allclose(res.grad_p.reshape(-1, 4)[tr.cells],
                           central_difference(loss_of, p_r), rtol=1e-6, atol=1e-8)

    def test_empty_ray_set_rejected(self):
        _, _, occ = self._setup()
        rays = RayBatch("mask", np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
                        s=np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            view_loss(occ, rays)


def _rays_through(targets, directions):
    directions = np.asarray(directions, dtype=np.float64)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return np.asarray(targets, dtype=np.float64) - 2.0 * directions, directions


@pytest.mark.parametrize("kind", RAY_KINDS)
@pytest.mark.parametrize("batch", ["all_miss", "no_miss"])
def test_miss_split_matches_brute_force(kind, batch):
    """Rays that miss take the escape cost alone and add no gradient; rays
    that hit match the exhaustive expectation, with or without misses."""
    rng = np.random.default_rng(RAY_KINDS.index(kind))
    geom = unit_cube_geometry((3, 3, 3))
    occ = OccupancyGrid(geom, rng.uniform(0.05, 0.95, geom.shape))
    aux = None
    if kind in ("depth_semantics", "color"):
        rows = rng.uniform(0.05, 0.95, (geom.ncells, 3))
        if kind == "depth_semantics":
            rows /= rows.sum(axis=1, keepdims=True)
        aux = AuxGrid(geom, "semantics" if kind == "depth_semantics" else "color",
                      rows.reshape(*geom.shape, 3))
    n = 5
    if batch == "no_miss":
        origins, directions = _rays_through(rng.uniform(-0.4, 0.4, (n, 3)), rng.normal(size=(n, 3)))
    else:  # parallel to the box, offset beside it
        origins, directions = _rays_through(rng.uniform(0.6, 1.0, (n, 3)), np.tile([1.0, 0.0, 0.0], (n, 1)))
    depth, label = rng.uniform(0.5, 3.0, n), rng.integers(0, 3, n)
    if kind == "mask":
        obs = [0, 1, 0, 1, 1]
        fields = {"s": np.array(obs, dtype=np.float64)}
    elif kind == "depth":
        obs, fields = depth, {"d": depth}
    elif kind == "depth_semantics":
        obs, fields = list(zip(depth, label)), {"d": depth, "c": label}
    else:
        obs = rng.uniform(0.0, 1.0, (n, 3))
        fields = {"c": obs}
    weights = rng.uniform(0.5, 3.0, n)
    res = view_loss(occ, RayBatch(kind, origins, directions, weights, **fields), aux)

    loss = 0.0
    grad_x = np.zeros(geom.ncells)
    for r in range(n):
        tr = trace(geom, Ray(origins[r], directions[r]))
        assert (tr.n == 0) == (batch == "all_miss")
        psi = reference_psi(kind, tr.d, obs[r], None if aux is None else aux.flat[tr.cells])
        loss += weights[r] * brute_force_ray_loss(occ.flat[tr.cells], psi)
        grad_x[tr.cells] += weights[r] * naive_grad_x(occ.flat[tr.cells], psi)
    assert res.loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
    assert np.allclose(res.grad_x.reshape(-1), grad_x, rtol=1e-10, atol=1e-12)
    if batch == "all_miss":
        assert not res.grad_x.any()
        assert res.grad_p is None or not res.grad_p.any()


class TestTraceTable:
    """The rows fit gathers from a view's table must hold exactly what
    trace_batch returns for the same rays alone."""

    CASES = {
        # a camera outside a small cube, wide enough that many rays miss
        "uniform": (unit_cube_geometry((5, 4, 6)),
                    perspective_camera((0.4, 0.9, 1.8), (0.0, 0.0, 0.0), 70.0, 24, 20)),
        # a camera before the near plane, wider than the frustum
        "frustum": (make_frustum_geometry((6, 5, 7), 0.4, 20.0, 50.0),
                    perspective_camera((0.05, -0.02, 0.1), (0.3, 0.2, 10.0), 75.0, 24, 20)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gathered_rows_equal_traced_rows(self, case, monkeypatch):
        geom, cam = self.CASES[case]
        vs, us = np.divmod(np.arange(cam.height * cam.width), cam.width)
        pixels = np.random.default_rng(1).integers(0, us.size, 300)
        alone = trace_batch(geom, *pixel_rays(cam, us[pixels] + 0.5, vs[pixels] + 0.5))
        # the view's table is built in several passes
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 100)
        monkeypatch.setattr(traversal, "FRUSTUM_CHUNK", 100)
        table = trace_batch(geom, *pixel_rays(cam, us + 0.5, vs + 0.5))
        rows = table.take(pixels)
        cells, d, valid = rows.padded()

        assert 0 < np.count_nonzero(alone.n) < pixels.size
        assert np.array_equal(rows.n, alone.n)
        assert np.array_equal(valid.sum(axis=1), alone.n)
        assert np.array_equal(cells[valid], alone.cells)
        want_d = [alone.row(i).d for i in range(alone.n_rays)]
        assert d[valid].tobytes() == np.concatenate(want_d).tobytes()
        for gathered, traced in zip((cells, d, valid), alone.padded()):
            assert gathered.tobytes() == traced.tobytes()
        assert valid.shape[1] % 8 == 0 and valid.shape[1] - 8 < alone.max_len


# ---------------------------------------------------------------------------
# view_loss, the kernel fit runs, against oracles that share none of its code
# ---------------------------------------------------------------------------

_unit = st.floats(0.02, 0.98)


@st.composite
def view_cases(draw):
    """A small uniform grid with random emptiness and payloads, and a few
    weighted rays of one kind; some rays miss the grid."""
    kind = draw(st.sampled_from(RAY_KINDS))
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    geom = unit_cube_geometry(dims)
    x = np.array(draw(st.lists(_unit, min_size=geom.ncells, max_size=geom.ncells)))
    occ = OccupancyGrid(geom, x.reshape(geom.shape))
    aux = None
    if kind in ("depth_semantics", "color"):
        width = 3
        rows = np.array(draw(st.lists(st.lists(_unit, min_size=width, max_size=width),
                                      min_size=geom.ncells, max_size=geom.ncells)))
        if kind == "depth_semantics":
            rows /= rows.sum(axis=1, keepdims=True)
        aux = AuxGrid(geom, "semantics" if kind == "depth_semantics" else "color",
                      rows.reshape(*geom.shape, width))
    n_rays = draw(st.integers(1, 4))
    origins, directions, obs = [], [], []
    for _ in range(n_rays):
        target = np.array(draw(st.tuples(*[st.floats(-0.7, 0.7)] * 3)))
        direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0.1 else np.array([0.0, 0.0, 1.0])
        origins.append(target - 2.0 * direction)
        directions.append(direction)
        if kind == "mask":
            obs.append(draw(st.integers(0, 1)))
        elif kind == "depth":
            obs.append(draw(st.floats(0.1, 5.0)))
        elif kind == "depth_semantics":
            obs.append((draw(st.floats(0.1, 5.0)), draw(st.integers(0, 2))))
        else:
            obs.append(np.array(draw(st.tuples(_unit, _unit, _unit))))
    weights = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=n_rays, max_size=n_rays)))
    if kind == "mask":
        fields = {"s": np.array(obs, dtype=np.float64)}
    elif kind == "depth_semantics":
        fields = {"d": np.array([o[0] for o in obs]), "c": np.array([o[1] for o in obs])}
    else:
        fields = {"d" if kind == "depth" else "c": np.array(obs)}
    rays = RayBatch(kind, np.array(origins), np.array(directions), weights, **fields)
    return occ, aux, rays, obs


@settings(max_examples=60, deadline=None)
@given(view_cases())
def test_view_loss_matches_independent_oracles(case):
    """Loss against the exhaustive expectation, grad_x against the O(N^2)
    gradient sum, grad_p against central differences of the exhaustive
    expectation, with costs written out from their definitions."""
    occ, aux, rays, obs = case
    geom = occ.geometry
    res = view_loss(occ, rays, aux)
    loss = 0.0
    grad_x = np.zeros(geom.ncells)
    grad_p = None if aux is None else np.zeros((geom.ncells, aux.nchannels))
    for r in range(rays.n_rays):
        tr = trace(geom, Ray(rays.origins[r], rays.directions[r]))
        x_r = occ.flat[tr.cells]
        w = rays.weights[r]
        p_r = None if aux is None else aux.flat[tr.cells]
        psi = reference_psi(rays.kind, tr.d, obs[r], p_r)
        loss += w * brute_force_ray_loss(x_r, psi)
        grad_x[tr.cells] += w * naive_grad_x(x_r, psi)
        if aux is not None and tr.n:
            grad_p[tr.cells] += w * central_difference(
                lambda p: brute_force_ray_loss(x_r, reference_psi(rays.kind, tr.d, obs[r], p)), p_r)
    assert res.loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
    assert np.allclose(res.grad_x.reshape(-1), grad_x, rtol=1e-10, atol=1e-12)
    if aux is None:
        assert res.grad_p is None
    else:
        assert np.allclose(res.grad_p.reshape(-1, aux.nchannels), grad_p, rtol=1e-6, atol=1e-8)
