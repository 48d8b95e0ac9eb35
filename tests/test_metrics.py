import numpy as np
import pytest

from drc.grid import BinaryGrid, OccupancyGrid, unit_cube_geometry
from drc import consistency
from drc.metrics import best_threshold, run_gradcheck
from drc.metrics import THRESHOLDS
from oracles import brute_force_ray_loss, central_difference, iou_at, threshold_sweep


def make_pair(occ_pred, occ_gt):
    geom = unit_cube_geometry(occ_gt.shape[::-1])
    pred = OccupancyGrid(geom, 1.0 - occ_pred)  # arguments are occupancy, field is emptiness
    gt = BinaryGrid(geom, occ_gt)
    return pred, gt


class TestIoU:
    def test_exact_binary_match_any_threshold(self):
        rng = np.random.default_rng(0)
        occ = rng.uniform(size=(4, 4, 4)) < 0.5
        pred, gt = make_pair(occ.astype(float), occ)
        for thr in (0.01, 0.3, 0.5, 1.0):
            assert iou_at(pred, gt, thr) == 1.0

    def test_all_empty_vs_nonempty(self):
        occ = np.zeros((3, 3, 3), dtype=bool)
        occ[1, 1, 1] = True
        pred, gt = make_pair(np.zeros((3, 3, 3)), occ)
        assert iou_at(pred, gt, 0.5) == 0.0

    def test_soft_prediction_binarizes_correctly(self):
        rng = np.random.default_rng(1)
        occ = rng.uniform(size=(5, 5, 5)) < 0.4
        soft = np.where(occ, 0.6, 0.4)
        pred, gt = make_pair(soft, occ)
        assert iou_at(pred, gt, 0.5) == 1.0

    def test_empty_union_is_one(self):
        pred, gt = make_pair(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool))
        assert iou_at(pred, gt, 0.7) == 1.0

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        geom_a = unit_cube_geometry((3, 3, 3))
        geom_b = unit_cube_geometry((4, 4, 4))
        pred = OccupancyGrid(geom_a, rng.uniform(size=geom_a.shape))
        gt = BinaryGrid(geom_b, np.zeros(geom_b.shape, dtype=bool))
        with pytest.raises(ValueError, match="geometr"):
            iou_at(pred, gt, 0.5)


class TestBestThreshold:
    @staticmethod
    def assert_same_as_sweep(pred, gt):
        got, expect = best_threshold(pred, gt), threshold_sweep(pred, gt)
        assert (got.best_iou, got.best_threshold) == (expect.best_iou, expect.best_threshold)
        assert np.array(got.curve).tobytes() == np.array(expect.curve).tobytes()

    def test_is_the_per_threshold_sweep(self):
        # empty unions, occupancies 1 - (1 - t) on every threshold, all
        # occupied, soft, and ties at the lowest threshold, bit for bit
        rng = np.random.default_rng(6)
        shape = (6, 5, 7)
        gts = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), rng.uniform(size=shape) < 0.3]
        on_thresholds = 1.0 - rng.choice(1.0 - THRESHOLDS, shape)
        preds = [np.zeros(shape), np.ones(shape), np.full(shape, 0.5), on_thresholds,
                 rng.uniform(size=shape), np.round(rng.uniform(size=shape), 1)]
        for occ in gts:
            for soft in preds:
                self.assert_same_as_sweep(*make_pair(soft, occ))
            self.assert_same_as_sweep(*make_pair(occ.astype(float), occ))

    def test_binary_prediction_flat_curve_low_tie(self):
        rng = np.random.default_rng(3)
        occ = rng.uniform(size=(4, 4, 4)) < 0.5
        pred, gt = make_pair(occ.astype(float), occ)
        res = best_threshold(pred, gt)
        assert res.best_iou == 1.0
        assert res.best_threshold == 0.01  # ties break toward the lower threshold
        curve = dict(res.curve)
        assert curve[0.5] == 1.0 and len(res.curve) == 101

    def test_best_iou_is_curve_max(self):
        rng = np.random.default_rng(4)
        occ = rng.uniform(size=(6, 6, 6)) < 0.3
        pred, gt = make_pair(np.clip(occ + rng.normal(0, 0.3, occ.shape), 0, 1), occ)
        res = best_threshold(pred, gt)
        assert res.best_iou == max(i for _, i in res.curve)
        assert res.best_iou == dict(res.curve)[res.best_threshold]

    def test_sub_granularity_shift_keeps_the_binarization(self):
        # sanity check on the 0.01 sweep: nudging every prediction within its
        # threshold band changes neither the best threshold nor the mask
        rng = np.random.default_rng(5)
        occ = rng.uniform(size=(5, 5, 5)) < 0.4
        base = rng.integers(0, 100, size=occ.shape) / 100.0 + 0.005  # band centers
        pred_a, gt = make_pair(base, occ)
        pred_b, _ = make_pair(base + 0.003, occ)
        res_a = best_threshold(pred_a, gt)
        res_b = best_threshold(pred_b, gt)
        assert res_a.best_threshold == res_b.best_threshold
        mask_a = (1.0 - pred_a.flat) >= res_a.best_threshold
        mask_b = (1.0 - pred_b.flat) >= res_b.best_threshold
        assert np.array_equal(mask_a, mask_b)


class TestBruteForce:
    def test_single_cell_hand_value(self):
        assert brute_force_ray_loss([0.5], np.array([2.0, 4.0])) == pytest.approx(3.0, abs=0)

    def test_empty_trace_returns_escape(self):
        assert brute_force_ray_loss([], np.array([7.5])) == 7.5

    def test_guard_on_long_rays(self):
        with pytest.raises(ValueError, match="N <= 20"):
            brute_force_ray_loss(np.full(21, 0.5), np.zeros(22))


class TestGradcheck:
    def test_all_kinds_pass(self):
        for kind in ("mask", "depth", "depth_semantics", "color"):
            report = run_gradcheck(kind, trials=25, seed=0)
            assert report.ok, f"{kind}: {report}"
            assert report.max_rel_err_x < 1e-5

    def test_broken_gradient_is_caught(self, monkeypatch):
        """A 1e-4 relative scaling of the kernel's x gradient, or of its
        payload derivative, fails the check for every kind, and raises the
        reported absolute x error a thousandfold."""
        telescope, event_costs = consistency._telescope, consistency._event_costs
        kinds = ("mask", "depth", "depth_semantics", "color")
        working = {kind: run_gradcheck(kind, trials=10, seed=0) for kind in kinds}

        def scaled_grad_x(*args, **kwargs):
            per_ray, grad, p_events = telescope(*args, **kwargs)
            return per_ray, grad * (1.0 + 1e-4), p_events

        def scaled_dpsi_dp(*args, **kwargs):
            psi, psi_esc, at, dpsi_dp = event_costs(*args, **kwargs)
            return psi, psi_esc, at, None if dpsi_dp is None else dpsi_dp * (1.0 + 1e-4)

        with monkeypatch.context() as m:
            m.setattr(consistency, "_telescope", scaled_grad_x)
            for kind in kinds:
                report = run_gradcheck(kind, trials=10, seed=0)
                assert not report.ok and report.max_rel_err_x > 1e-5, report
                assert report.max_abs_err_x >= 1000 * working[kind].max_abs_err_x, (report, working[kind])
        with monkeypatch.context() as m:
            m.setattr(consistency, "_event_costs", scaled_dpsi_dp)
            for kind in ("depth_semantics", "color"):
                report = run_gradcheck(kind, trials=10, seed=0)
                assert not report.ok and report.max_rel_err_p > 1e-5, report

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_gradcheck("depth", trials=0, seed=0)

    def test_central_difference_on_quadratic(self):
        fn = lambda v: float(v @ v)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(central_difference(fn, x), 2 * x, atol=1e-8)
