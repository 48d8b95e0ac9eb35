import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drc import traversal
from drc.cameras import perspective_camera, pixel_rays
from drc import consistency
from drc.consistency import RAY_KINDS, RayBatch, _hit_loss, view_loss
from drc.grid import AuxGrid, OccupancyGrid, make_frustum_geometry, unit_cube_geometry
from drc.traversal import trace_batch


from oracles import (brute_force_ray_loss, central_difference, dense_payload_scatter, entries,
                     event_probabilities, mask_loss_closed_form, naive_grad_x, padded, padded_event_costs,
                     padded_telescope, padded_view_loss, random_strip_rays, reference_psi, strip_psi,
                     strip_view_loss, trace_one)


def one_ray(kind, x, bounds, payload=None, **obs):
    """``strip_view_loss`` on one ray of weight 1: its loss and its cells'
    d(loss)/dx and payload gradient (None for kinds without)."""
    fields = {k: np.asarray([v]) for k, v in obs.items()}
    res, (cells,) = strip_view_loss(kind, [np.asarray(x, dtype=np.float64)], [bounds],
                                    None if payload is None else [np.asarray(payload, dtype=np.float64)],
                                    **fields)
    grad_p = None if res.grad_p is None else res.grad_p.reshape(-1, res.grad_p.shape[-1])[cells]
    return res.per_ray[0], res.grad_x.reshape(-1)[cells], grad_p


def event_costs(kind, bounds, payload=None, **obs):
    """psi of one ray's N+1 events, read through ``per_ray``: N+1 copies of
    the ray, copy i with its first i cells empty and the next one full, so
    that event i is certain (the last copy escapes)."""
    n = len(bounds) - 1
    x = [np.concatenate([np.ones(i), np.zeros(n - i)]) for i in range(n + 1)]
    fields = {k: np.repeat(np.asarray([v]), n + 1, axis=0) for k, v in obs.items()}
    res, _ = strip_view_loss(kind, x, [bounds] * (n + 1),
                             None if payload is None else [np.asarray(payload, dtype=np.float64)] * (n + 1),
                             **fields)
    return res.per_ray


def batch_of(rng, kind, count, max_cells, min_cells=0):
    """``count`` random rays of one kind in one ``strip_view_loss`` call:
    the result, each ray's cells, and per ray its emptiness and its
    ``reference_psi``."""
    x, bounds, payload, obs, fields = random_strip_rays(rng, kind, count, max_cells, min_cells)
    res, cells = strip_view_loss(kind, x, bounds, payload, **fields)
    psi = [strip_psi(kind, bounds[r], obs[r], None if payload is None else payload[r]) for r in range(count)]
    return res, cells, x, psi


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
    """The costs of each event, read through ``view_loss`` at hard x."""

    def test_depth_example(self):
        # event depths 1 and 2
        assert event_costs("depth", [0.5, 1.5, 2.5], d=2.0).tolist() == [1.0, 0.0, 8.0]

    def test_depth_empty_trace(self):
        assert event_costs("depth", [0.5], d=4.0).tolist() == [6.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_depth_observation_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RayBatch("depth", np.ones(1), d=np.array([bad]))
        with pytest.raises(ValueError, match="finite"):
            RayBatch("depth_semantics", np.ones(1), d=np.array([bad]), c=np.array([0]))

    def test_depth_exact_match_is_free(self):
        # event depths 0.7, 1.3, 2.9
        assert event_costs("depth", [0.4, 1.0, 1.6, 4.2], d=1.3)[1] == 0.0

    def test_mask_foreground(self):
        assert event_costs("mask", [0.5, 1.0, 1.5, 2.0], s=0).tolist() == [0, 0, 0, 1]

    def test_mask_background(self):
        assert event_costs("mask", [0.5, 1.0, 1.5, 2.0], s=1).tolist() == [1, 1, 1, 0]

    def test_mask_empty_trace(self):
        assert event_costs("mask", [0.5], s=1).tolist() == [0.0]

    def test_semantic_perfect_explanation(self):
        psi = event_costs("depth_semantics", [1.5, 2.5], [[0.0, 1.0, 0.0, 0.0]], d=2.0, c=1)
        assert psi[0] == pytest.approx(0.0, abs=1e-12)

    def test_semantic_escape_convention(self):
        # escape disparity 1/1000 and the uniform distribution over K = 4
        psi = event_costs("depth_semantics", [0.5, 1.5], [[0.25] * 4], d=2.0, c=0)
        assert psi[-1] == pytest.approx(abs(0.001 - 0.5) + np.log(4.0), rel=1e-12)

    def test_semantic_half_probability(self):
        psi = event_costs("depth_semantics", [2.5, 3.5], [[0.5, 0.5, 0.0, 0.0]], d=3.0, c=0)
        assert psi[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_semantic_gradient_entry(self):
        # a full cell: its event is certain, so its payload gradient is dpsi/dp
        _, _, grad_p = one_ray("depth_semantics", [0.0], [2.5, 3.5], [[0.5, 0.25, 0.125, 0.125]], d=3.0, c=1)
        assert grad_p[0].tolist() == [0.0, -4.0, 0.0, 0.0]

    def test_color_match_is_free(self):
        c = np.array([0.2, 0.4, 0.9])
        assert event_costs("color", [0.5, 1.5], [c], c=c)[0] == 0.0

    def test_color_white_escape_is_free(self):
        assert event_costs("color", [0.5, 1.0, 1.5], np.zeros((2, 3)), c=np.ones(3))[-1] == 0.0

    def test_color_black_vs_white(self):
        assert event_costs("color", [0.5, 1.5], np.zeros((1, 3)), c=np.ones(3))[0] == 1.5
        _, _, grad_p = one_ray("color", [0.0], [0.5, 1.5], np.zeros((1, 3)), c=np.ones(3))
        assert grad_p[0].tolist() == [-1.0, -1.0, -1.0]


# color costs 3/8 for every event: each cell's color is a corner of the unit
# cube, the escape color white is one too, and the observed gray is the centre
CORNERS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


class TestRayLoss:
    def test_background_mask_example(self):
        # only the escape event costs 1; p(escape) = 0.8 * 0.5
        assert one_ray("mask", [0.8, 0.5], [0.5, 1.0, 1.5], s=0)[0] == pytest.approx(0.4, abs=1e-15)

    def test_constant_costs_are_x_independent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            loss = one_ray("color", rng.uniform(size=5), np.arange(6.0), CORNERS, c=np.full(3, 0.5))[0]
            assert loss == pytest.approx(0.375, abs=1e-12)

    def test_direct_expectation_single_cell(self):
        # event depth 4 against an observed 6: psi = (2, 4)
        assert one_ray("depth", [0.5], [3.5, 4.5], d=6.0)[0] == 3.0

    def test_telescoped_equals_direct_expectation(self):
        rng = np.random.default_rng(2)
        for kind in RAY_KINDS:
            res, _, x, psi = batch_of(rng, kind, 200, 8)
            direct = [float(event_probabilities(x[r]) @ psi[r]) for r in range(200)]
            assert res.per_ray == pytest.approx(direct, abs=1e-12)

    def test_length_mismatch_rejected(self):
        # two depths for one ray
        with pytest.raises(ValueError, match=r"shape \(1,\) for 1 rays"):
            RayBatch("depth", np.ones(1), d=np.array([1.0, 2.0]))


class TestRayLossGradX:
    def test_background_product_gradient(self):
        grad = one_ray("mask", [0.5, 0.5], [0.5, 1.0, 1.5], s=1)[1]
        assert np.allclose(grad, [-0.5, -0.5], atol=1e-15)

    def test_constant_costs_zero_gradient(self):
        grad = one_ray("color", [0.3, 0.9, 0.2], np.arange(4.0), CORNERS[:3], c=np.full(3, 0.5))[1]
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_all_empty_depth_gradient(self):
        # with x = 1 everywhere all products are 1: grad_k = psi_esc - psi_k
        bounds = [0.5, 1.5, 2.5, 3.5]
        grad = one_ray("depth", np.ones(3), bounds, d=2.5)[1]
        psi = event_costs("depth", bounds, d=2.5)
        assert np.allclose(grad, psi[-1] - psi[:-1], atol=1e-15)

    def test_matches_naive_quadratic_formula(self):
        rng = np.random.default_rng(3)
        for kind in RAY_KINDS:
            res, cells, x, psi = batch_of(rng, kind, 100, 8, min_cells=1)
            for r in range(100):
                assert np.allclose(res.grad_x.reshape(-1)[cells[r]], naive_grad_x(x[r], psi[r]), atol=1e-12)

    def test_finite_at_exact_endpoints(self):
        # product form never divides by x, so hard 0/1 cells are safe
        x = np.array([1.0, 0.0, 1.0, 0.5, 0.0])
        bounds = np.linspace(0.25, 2.75, 6)
        grad = one_ray("depth", x, bounds, d=1.7)[1]
        assert np.all(np.isfinite(grad))

        def loss(x):
            return one_ray("depth", x, bounds, d=1.7)[0]

        num = np.zeros(5)
        for k in range(5):  # one-sided differences stay inside [0, 1]
            h = 1e-7
            xp = x.copy()
            xp[k] = min(x[k] + h, 1.0)
            xm = x.copy()
            xm[k] = max(x[k] - h, 0.0)
            num[k] = (loss(xp) - loss(xm)) / (xp[k] - xm[k])
        assert np.allclose(grad, num, atol=1e-5)

    def test_monotone_carving_for_background_rays(self):
        rng = np.random.default_rng(4)
        x = [rng.uniform(size=k) for k in rng.integers(1, 12, 300)]
        res, _ = strip_view_loss("mask", x, [np.arange(len(r) + 1.0) for r in x], s=np.ones(300))
        assert np.all(res.grad_x <= 0.0)


class TestRayLossGradP:
    def test_zero_probability_zero_gradient(self):
        # first cell surely occupied: later events have probability 0
        grad = one_ray("color", [0.0, 0.5], [0.5, 1.0, 1.5], [[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]],
                       c=np.array([1.0, 0.0, 0.0]))[2]
        assert np.allclose(grad[1], 0.0, atol=0)

    def test_color_gradient_is_event_weighted_residual(self):
        grad = one_ray("color", [0.0], [0.5, 1.5], np.zeros((1, 3)), c=np.array([1.0, 0.0, 0.0]))[2]
        assert np.allclose(grad, [[-1.0, 0.0, 0.0]], atol=0)

    def test_requires_dpsi(self):
        # kinds whose costs have no payload term have no payload gradient
        assert one_ray("mask", [0.5], [0.5, 1.5], s=0)[2] is None
        assert one_ray("depth", [0.5], [0.5, 1.5], d=1.0)[2] is None


class TestMaskClosedForm:
    def test_example(self):
        assert mask_loss_closed_form([0.8, 0.5], 0) == pytest.approx(0.4, abs=1e-15)

    def test_empty_grid_consistent_with_background(self):
        assert mask_loss_closed_form([1.0, 1.0, 1.0], 1) == 0.0

    def test_surely_occupied_consistent_with_foreground(self):
        assert mask_loss_closed_form([0.9, 0.0, 0.7], 0) == 0.0

    def test_equals_expected_cost_everywhere(self):
        rng = np.random.default_rng(5)
        x, bounds, _, s, fields = random_strip_rays(rng, "mask", 2000, 9)
        res, _ = strip_view_loss("mask", x, bounds, **fields)
        for r in range(2000):
            assert abs(res.per_ray[r] - mask_loss_closed_form(x[r], int(s[r]))) < 1e-12


class TestBruteForceAgreement:
    @pytest.mark.parametrize("kind", RAY_KINDS)
    def test_loss_equals_exhaustive_expectation(self, kind):
        rng = np.random.default_rng(6)
        res, _, x, psi = batch_of(rng, kind, 150, 12)
        for r in range(150):
            assert res.per_ray[r] == pytest.approx(brute_force_ray_loss(x[r], psi[r]), abs=1e-10)


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
        one = RayBatch("depth", np.ones(1), d=np.array([2.1]))
        two = RayBatch("depth", np.ones(2), d=np.array([2.1, 2.1]))
        r1 = view_loss(occ, one, traces=trace_batch(geom, o, d))
        r2 = view_loss(occ, two, traces=trace_batch(geom, np.repeat(o, 2, 0), np.repeat(d, 2, 0)))
        assert r2.loss == pytest.approx(2.0 * r1.loss, abs=0)
        assert np.array_equal(r2.grad_x, 2.0 * r1.grad_x)

    def test_background_rays_on_empty_grid_cost_nothing(self):
        # loss sits at its minimum; the gradient still points toward "more
        # empty" (the x <= 1 bound is active, grad_k = -prod_{j!=k} x_j)
        geom = unit_cube_geometry((3, 3, 3))
        occ = OccupancyGrid(geom, np.ones(geom.shape))
        o = np.array([[-2.0, 0.0, 0.0], [-2.0, 0.1, 0.1]])
        d = np.tile([1.0, 0.0, 0.0], (2, 1))
        rays = RayBatch("mask", np.ones(2), s=np.array([1.0, 1.0]))
        res = view_loss(occ, rays, traces=trace_batch(geom, o, d))
        assert res.loss == 0.0
        assert np.all(res.grad_x <= 0.0)

    def test_untouched_cells_have_zero_gradient(self):
        rng, geom, occ = self._setup(7)
        o = np.array([[-2.0, 0.05, 0.05]])
        d = np.array([[1.0, 0.0, 0.0]])
        rays = RayBatch("mask", np.ones(1), s=np.array([0.0]))
        res = view_loss(occ, rays, traces=trace_batch(geom, o, d))
        touched = trace_one(geom, o[0], d[0]).cells
        grad = res.grad_x.reshape(-1)
        untouched = np.setdiff1d(np.arange(geom.ncells), touched)
        assert np.all(grad[untouched] == 0.0)
        assert np.any(grad[touched] != 0.0)

    def test_composes_with_per_ray_pipeline(self):
        rng, geom, occ = self._setup(8)
        o = np.array([-2.0, 0.12, -0.07])
        d = np.array([1.0, 0.0, 0.0])
        w = 1.7
        rays = RayBatch("depth", np.array([w]), d=np.array([1.9]))
        res = view_loss(occ, rays, traces=trace_batch(geom, o[None], d[None]))
        tr = trace_one(geom, o, d)
        psi = reference_psi("depth", tr.d, 1.9)
        x_r = occ.flat[tr.cells]
        assert res.loss == pytest.approx(w * brute_force_ray_loss(x_r, psi), abs=1e-12)
        assert np.allclose(res.grad_x.reshape(-1)[tr.cells],
                           w * naive_grad_x(x_r, psi), atol=1e-12)

    def test_aux_required_for_color(self):
        rng, geom, occ = self._setup(9)
        rays = RayBatch("color", np.ones(1), c=np.array([[1.0, 0.0, 0.0]]))
        traces = trace_batch(geom, np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="aux"):
            view_loss(occ, rays, traces=traces)

    @pytest.mark.parametrize("kind, aux_kind", [("mask", "color"), ("depth", "color"), ("depth", "semantics")])
    def test_aux_rejected_for_mask_and_depth(self, kind, aux_kind):
        # its payload gradient would be all zeros: a payload that never moves
        rng, geom, occ = self._setup(9)
        rays = RayBatch(kind, np.ones(1), **({"s": np.array([1])} if kind == "mask" else {"d": np.array([1.5])}))
        traces = trace_batch(geom, np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        aux = AuxGrid(geom, aux_kind, np.full((*geom.shape, 3), 1.0 / 3))
        with pytest.raises(ValueError, match="take no aux grid"):
            view_loss(occ, rays, aux, traces=traces)

    def test_semantic_composition_with_aux(self):
        rng, geom, occ = self._setup(10)
        p = rng.dirichlet(np.ones(4), size=geom.ncells).reshape(*geom.shape, 4)
        aux = AuxGrid(geom, "semantics", p)
        o = np.array([-2.0, 0.2, 0.2])
        d = np.array([1.0, 0.0, 0.0])
        rays = RayBatch("depth_semantics", np.array([1.0]), d=np.array([2.2]), c=np.array([2]))
        res = view_loss(occ, rays, aux, traces=trace_batch(geom, o[None], d[None]))
        tr = trace_one(geom, o, d)
        x_r = occ.flat[tr.cells]

        def loss_of(p_r):
            return brute_force_ray_loss(x_r, reference_psi("depth_semantics", tr.d, (2.2, 2), p_r))

        p_r = aux.flat[tr.cells]
        assert res.loss == pytest.approx(loss_of(p_r), abs=1e-12)
        assert np.allclose(res.grad_p.reshape(-1, 4)[tr.cells],
                           central_difference(loss_of, p_r), rtol=1e-6, atol=1e-8)

    def test_empty_ray_set_rejected(self):
        _, geom, occ = self._setup()
        rays = RayBatch("mask", np.zeros(0), s=np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            view_loss(occ, rays, traces=trace_batch(geom, np.zeros((0, 3)), np.zeros((0, 3))))

    def test_traces_are_required(self):
        _, _, occ = self._setup()
        with pytest.raises(TypeError, match="traces"):
            view_loss(occ, RayBatch("mask", np.ones(1), s=np.array([0.0])))


@pytest.mark.parametrize("kind", ["depth_semantics", "color"])
@pytest.mark.parametrize("label_weight", [0.0, 1.0])
def test_payload_scatter_is_bitwise_the_dense_scatter(kind, label_weight):
    """grad_p equals, bit for bit, np.add.at of the dense (R, L, D) products
    p_event * dpsi_dp * weight, on a batch with misses and with many rays
    through the same cells."""
    rng = np.random.default_rng(int(label_weight) + 2 * (kind == "color"))
    geom = unit_cube_geometry((3, 4, 3))
    occ = OccupancyGrid(geom, rng.uniform(0.05, 0.95, geom.shape))
    k = 4 if kind == "depth_semantics" else 3
    rows = rng.uniform(0.05, 0.95, (geom.ncells, k))
    if kind == "depth_semantics":
        rows /= rows.sum(axis=1, keepdims=True)
    aux = AuxGrid(geom, "semantics" if kind == "depth_semantics" else "color",
                  rows.reshape(*geom.shape, k))
    n = 40
    origins, directions = _rays_through(rng.uniform(-0.4, 0.4, (n, 3)), rng.normal(size=(n, 3)))
    origins[:5], directions[:5] = _rays_through(rng.uniform(0.6, 1.0, (5, 3)), np.tile([1.0, 0.0, 0.0], (5, 1)))
    origins[30:], directions[30:] = origins[20:30], directions[20:30]  # the same rays again
    if kind == "depth_semantics":
        rays = RayBatch(kind, rng.uniform(0.5, 3.0, n), d=rng.uniform(0.5, 3.0, n), c=rng.integers(0, k, n))
    else:
        rays = RayBatch(kind, rng.uniform(0.5, 3.0, n), c=rng.uniform(0.0, 1.0, (n, 3)))
    traces = trace_batch(geom, origins, directions)
    res = view_loss(occ, rays, aux, label_weight=label_weight, traces=traces)

    hit = np.flatnonzero(traces.n)
    cells, d_mid, valid = padded(traces.take(hit))
    assert hit.size < n and np.bincount(cells[valid]).max() > 3
    x = np.where(valid, occ.flat[cells], 1.0)
    observed = rays.observed(hit)
    psi, psi_esc, dpsi = padded_event_costs(kind, d_mid, valid, cells, aux.flat, **observed,
                                            label_weight=label_weight)
    _, _, p_events = padded_telescope(x, valid, psi, psi_esc, backward=False, events=True)
    if kind == "depth_semantics":  # the dense derivative: zero off the observed class
        dense = np.zeros((*dpsi.shape, k))
        dense[np.arange(hit.size)[:, None], np.arange(dpsi.shape[1]), observed["c"][:, None]] = dpsi
    else:
        dense = dpsi
    want = dense_payload_scatter(cells, valid, p_events, dense, rays.weights[hit], geom.ncells)
    assert res.grad_p.shape == (*geom.shape, k)
    assert res.grad_p.tobytes() == want.tobytes()
    assert res.grad_p.any() == (kind == "color" or label_weight != 0.0)


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
    res = view_loss(occ, RayBatch(kind, weights, **fields), aux,
                    traces=trace_batch(geom, origins, directions))

    loss = 0.0
    grad_x = np.zeros(geom.ncells)
    for r in range(n):
        tr = trace_one(geom, origins[r], directions[r])
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
        table = trace_batch(geom, *pixel_rays(cam, us + 0.5, vs + 0.5))
        rows = table.take(pixels)
        cells, d = entries(rows)

        assert 0 < np.count_nonzero(alone.n) < pixels.size
        assert np.array_equal(rows.n, alone.n)
        assert cells.tobytes() == alone.cells.tobytes()
        want_d = [alone.row(i).d for i in range(alone.n_rays)]
        assert d.tobytes() == np.concatenate(want_d).tobytes()
        assert [a.tobytes() for a in entries(alone)] == [cells.tobytes(), d.tobytes()]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_padded_oracle_rows_equal_traced_rows(self, case, monkeypatch):
        """The padded layout of the oracle kernel holds the same cells and
        depths, left-aligned in a multiple of 8 slots."""
        geom, cam = self.CASES[case]
        vs, us = np.divmod(np.arange(cam.height * cam.width), cam.width)
        pixels = np.random.default_rng(1).integers(0, us.size, 300)
        alone = trace_batch(geom, *pixel_rays(cam, us[pixels] + 0.5, vs[pixels] + 0.5))
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 100)
        rows = trace_batch(geom, *pixel_rays(cam, us + 0.5, vs + 0.5)).take(pixels)
        cells, d, valid = padded(rows)
        assert np.array_equal(valid.sum(axis=1), alone.n)
        assert np.array_equal(cells[valid], alone.cells)
        assert d[valid].tobytes() == entries(alone)[1].tobytes()
        for gathered, traced in zip((cells, d, valid), padded(alone)):
            assert gathered.tobytes() == traced.tobytes()
        assert valid.shape[1] % 8 == 0 and valid.shape[1] - 8 < alone.max_len


def _kind_case(rng, geom, kind, n):
    """An aux grid for ``kind`` (or None) and n weighted rays' observations."""
    aux = None
    if kind in ("depth_semantics", "color"):
        k = 4 if kind == "depth_semantics" else 3
        rows = rng.uniform(0.05, 0.95, (geom.ncells, k))
        if kind == "depth_semantics":
            rows /= rows.sum(axis=1, keepdims=True)
        aux = AuxGrid(geom, "semantics" if kind == "depth_semantics" else "color",
                      rows.reshape(*geom.shape, k))
    fields = {"mask": lambda: {"s": rng.integers(0, 2, n).astype(np.float64)},
              "depth": lambda: {"d": rng.uniform(0.5, 3.0, n)},
              "depth_semantics": lambda: {"d": rng.uniform(0.5, 3.0, n), "c": rng.integers(0, 4, n)},
              "color": lambda: {"c": rng.uniform(0.0, 1.0, (n, 3))}}[kind]()
    return aux, RayBatch(kind, rng.uniform(0.5, 3.0, n), **fields)


def _view_tables(rng, geom, count, n):
    """One table of ``count`` views' n rays each, as ``fit`` passes its
    sampled rows, and its rows of each view: most rays through the grid,
    some beside it, some repeated (as sampled pixels repeat)."""
    rays = []
    for _ in range(count):
        origins, directions = _rays_through(rng.uniform(-0.4, 0.4, (n, 3)), rng.normal(size=(n, 3)))
        origins[:n // 8] += 3.0  # misses
        again = slice(n // 4, n // 4 + n // 8)
        origins[-n // 8:], directions[-n // 8:] = origins[again], directions[again]
        rays.append((origins, directions))
    table = trace_batch(geom, *(np.concatenate(r) for r in zip(*rays)))
    every = table.take(np.arange(count * n))
    return every, [table.take(np.arange(v * n, (v + 1) * n)) for v in range(count)]


def _same_bits(a, b):
    assert a.loss == b.loss
    assert a.grad_x.tobytes() == b.grad_x.tobytes()
    assert (a.grad_p is None) == (b.grad_p is None)
    if a.grad_p is not None:
        assert a.grad_p.tobytes() == b.grad_p.tobytes()


@pytest.mark.parametrize("kind", RAY_KINDS)
@pytest.mark.parametrize("chunk", [5, 37, None])
def test_one_call_over_tables_is_the_per_table_calls_summed(kind, chunk, monkeypatch):
    """One view_loss call over one take of k views' rows is, to the bit, the
    padded kernel's on that take, and so is each view's call alone; the
    one call's loss is the views' losses summed, up to rounding.  With a
    small LOSS_CHUNK passes split the views' rows."""
    rng = np.random.default_rng(RAY_KINDS.index(kind))
    geom = unit_cube_geometry((5, 6, 4))
    occ = OccupancyGrid(geom, rng.uniform(0.05, 0.95, geom.shape))
    every, tables = _view_tables(rng, geom, 3, 48)
    aux, rays = _kind_case(rng, geom, kind, 3 * 48)
    if chunk is not None:
        monkeypatch.setattr(consistency, "LOSS_CHUNK", chunk)
    res = view_loss(occ, rays, aux, label_weight=0.7, traces=every)
    assert 0 < np.count_nonzero(every.n) < rays.n_rays
    _same_bits(res, padded_view_loss(occ, rays, aux, label_weight=0.7, traces=every))

    loss = 0.0
    for v, table in enumerate(tables):
        part = RayBatch(kind, rays.weights[48 * v:48 * (v + 1)],
                        **rays.observed(np.arange(48 * v, 48 * (v + 1))))
        alone = view_loss(occ, part, aux, label_weight=0.7, traces=table)
        _same_bits(alone, padded_view_loss(occ, part, aux, label_weight=0.7, traces=table))
        loss += alone.loss
    assert res.loss == pytest.approx(loss, rel=1e-13)


@pytest.mark.parametrize("kind", RAY_KINDS)
@pytest.mark.parametrize("chunk", [5, 37, None])
def test_gradients_are_added_in_slot_major_order(kind, chunk, monkeypatch):
    """Each cell's gradient is the sum, to the bit, of its rays' terms in
    the kernel's order: pass by pass, slot by slot, the longest rays first.
    On one table whose rays cross the same few cells many times, at many
    lengths, that order gives other bits than adding ray by ray in one
    pass (small passes hold a ray or two, so only the default is checked)."""
    rng = np.random.default_rng(40 + RAY_KINDS.index(kind))
    geom = unit_cube_geometry((4, 4, 4))
    occ = OccupancyGrid(geom, rng.uniform(0.05, 0.95, geom.shape))
    table = _view_tables(rng, geom, 1, 96)[0]
    aux, rays = _kind_case(rng, geom, kind, 96)
    if chunk is not None:
        monkeypatch.setattr(consistency, "LOSS_CHUNK", chunk)
    res = view_loss(occ, rays, aux, label_weight=0.7, traces=table)
    _same_bits(res, padded_view_loss(occ, rays, aux, label_weight=0.7, traces=table))

    # the same terms added ray by ray, in one pass
    hit = np.flatnonzero(table.n)
    assert np.unique(table.n[hit]).size > 4 and np.bincount(table.cells).max() > 10
    cells, d_mid, valid = padded(table.take(hit))
    x = np.where(valid, occ.flat[cells], 1.0)
    psi, psi_esc, _ = padded_event_costs(kind, d_mid, valid, cells, None if aux is None else aux.flat,
                                         **rays.observed(hit), label_weight=0.7)
    grad = padded_telescope(x, valid, psi, psi_esc)[1] * rays.weights[hit][:, None]
    by_ray = np.zeros(geom.ncells)
    np.add.at(by_ray, cells[valid], grad[valid])
    assert np.allclose(by_ray, res.grad_x.reshape(-1), rtol=1e-12, atol=1e-15)
    if chunk is None:
        assert by_ray.tobytes() != res.grad_x.tobytes()


def test_table_list_is_checked():
    geom = unit_cube_geometry((3, 3, 3))
    occ = OccupancyGrid(geom, np.full(geom.shape, 0.5))
    every, _ = _view_tables(np.random.default_rng(0), geom, 2, 8)
    rays = RayBatch("depth", np.ones(15), d=np.ones(15))
    with pytest.raises(ValueError, match="one trace per ray, got 16 for 15"):
        view_loss(occ, rays, traces=every)
    other = trace_batch(unit_cube_geometry((3, 3, 4)), np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="different geometry"):
        view_loss(occ, RayBatch("depth", np.ones(1), d=np.ones(1)), traces=other)


def test_ray_loss_does_not_depend_on_the_batch_past_128_cells():
    """On a 64^3 grid a diagonal trace crosses 190 cells.  A ray's loss and
    gradient are the same bits alone and beside it, although numpy's own
    row sum, which the padded oracle kernel uses, splits a row of more than
    128 values at a point that depends on the row's width."""
    rng = np.random.default_rng(64)
    geom = unit_cube_geometry((64, 64, 64))
    occ = OccupancyGrid(geom, rng.uniform(0.95, 1.0, geom.shape))  # late cells still count
    n = 40
    origins, directions = _rays_through(rng.uniform(-0.45, 0.45, (n, 3)), rng.normal(size=(n, 3)))
    diagonal = _rays_through(np.zeros((1, 3)), np.array([[1.0, 1.001, 0.999]]))
    table = trace_batch(geom, np.concatenate([origins, diagonal[0]]),
                        np.concatenate([directions, diagonal[1]]))
    assert table.n[-1] > 128 and table.n.min() > 0 and table.n[:-1].max() < table.n[-1]
    d = rng.uniform(0.5, 3.0, n + 1)

    def kernel(rows):
        rows = np.asarray(rows)
        return _hit_loss(occ.flat, None, "depth", table.take(rows), np.ones(rows.size),
                         {"s": None, "d": d[rows], "c": None}, label_weight=1.0)

    def padded_losses(rows):
        cells, d_mid, valid = padded(table.take(rows))
        psi, psi_esc, _ = padded_event_costs("depth", d_mid, valid, cells, d=d[rows])
        return padded_telescope(np.where(valid, occ.flat[cells], 1.0), valid, psi, psi_esc,
                                backward=False)[0]

    changed = 0
    for r in range(n):
        alone, beside = kernel([r]), kernel([r, n])
        assert alone[0][0] == beside[0][0]
        # slot-major: beside the longer diagonal, ray r holds every second entry
        assert alone[2].tobytes() == beside[2][1:2 * table.n[r]:2].tobytes()
        changed += padded_losses([r])[0] != padded_losses([r, n])[0]
    assert changed > 0, "the padded oracle no longer shows the batch dependence"


@pytest.mark.parametrize("kind", RAY_KINDS)
def test_ray_loss_is_a_one_ray_view_loss(kind):
    """A ray's loss does not depend on the rays beside it: a one-ray,
    weight-1 view_loss on its trace has, to the bit, the ray's per_ray
    entry of one call over sixteen rays (misses included) as its loss."""
    rng = np.random.default_rng(11 + RAY_KINDS.index(kind))
    geom = unit_cube_geometry((9, 8, 10))
    occ = OccupancyGrid(geom, rng.uniform(0.05, 0.95, geom.shape))
    table = _view_tables(rng, geom, 1, 16)[0]
    aux, rays = _kind_case(rng, geom, kind, 16)
    every = view_loss(occ, rays, aux, traces=table)
    assert 0 < np.count_nonzero(table.n) < 16
    assert every.loss == float(rays.weights @ every.per_ray)
    for r in range(16):
        alone = view_loss(occ, RayBatch(kind, np.ones(1), **rays.observed([r])), aux, traces=table.take([r]))
        assert alone.loss == alone.per_ray[0] == every.per_ray[r]


class TestObservationChecks:
    """Observations that would read another cell's or class's payload, or
    give a loss with no meaning, are refused."""

    def _semantic(self, c):
        geom = unit_cube_geometry((4, 4, 4))
        occ = OccupancyGrid(geom, np.full(geom.shape, 0.5))
        aux = AuxGrid(geom, "semantics", np.full((*geom.shape, 3), 1.0 / 3.0))
        traces = trace_batch(geom, np.array([[-2.0, 0.1, 0.1]]), np.array([[1.0, 0.0, 0.0]]))
        return view_loss(occ, RayBatch("depth_semantics", np.ones(1), d=np.ones(1), c=np.array([c])), aux,
                         traces=traces)

    @pytest.mark.parametrize("c", [3, 5])
    def test_class_id_past_the_aux_classes_rejected(self, c):
        self._semantic(2)
        with pytest.raises(ValueError, match="below the aux grid's 3 classes"):
            self._semantic(c)

    @pytest.mark.parametrize("c", [-1, 1.0])
    def test_negative_or_fractional_class_id_rejected(self, c):
        with pytest.raises(ValueError, match="non-negative integers"):
            self._semantic(c)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_non_positive_depth_rejected(self, d):
        for kind, fields in (("depth", {}), ("depth_semantics", {"c": np.zeros(2, dtype=np.int64)})):
            with pytest.raises(ValueError, match="positive and finite"):
                RayBatch(kind, np.ones(2), d=np.array([1.0, d]), **fields)

    def test_mask_observation_not_0_or_1_rejected(self):
        RayBatch("mask", np.ones(2), s=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="0 or 1"):
            RayBatch("mask", np.ones(2), s=np.array([0.0, 0.5]))

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="positive and finite"):
            RayBatch("depth", np.array([1.0, w]), d=np.ones(2))

    @pytest.mark.parametrize("kind, fields", [
        ("mask", {"s": np.zeros(3)}),
        ("depth", {"d": np.ones((2, 1))}),
        ("depth_semantics", {"d": np.ones(2), "c": np.zeros(1, dtype=np.int64)}),
        ("color", {"c": np.ones(3)}),
        ("color", {"c": np.ones((2, 4))}),
    ])
    def test_field_of_other_shape_rejected(self, kind, fields):
        with pytest.raises(ValueError, match="must have shape"):
            RayBatch(kind, np.ones(2), **fields)

    def test_non_finite_color_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RayBatch("color", np.ones(1), c=np.array([[0.5, np.nan, 0.5]]))


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
    rays = RayBatch(kind, weights, **fields)
    return occ, aux, rays, obs, np.array(origins), np.array(directions)


@settings(max_examples=60, deadline=None)
@given(view_cases())
def test_view_loss_matches_independent_oracles(case):
    """Loss against the exhaustive expectation, grad_x against the O(N^2)
    gradient sum, grad_p against central differences of the exhaustive
    expectation, with costs written out from their definitions."""
    occ, aux, rays, obs, origins, directions = case
    geom = occ.geometry
    res = view_loss(occ, rays, aux, traces=trace_batch(geom, origins, directions))
    loss = 0.0
    grad_x = np.zeros(geom.ncells)
    grad_p = None if aux is None else np.zeros((geom.ncells, aux.nchannels))
    for r in range(rays.n_rays):
        tr = trace_one(geom, origins[r], directions[r])
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
