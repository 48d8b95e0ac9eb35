import warnings

import numpy as np
import pytest

from drc.cameras import Ray
from drc.grid import BinaryGrid, make_frustum_geometry, uniform_geometry
from drc import traversal
from drc.traversal import first_hit_batch, trace, trace_batch
from drc.consistency import event_probabilities


from oracles import dense_sample_cells, first_hit


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_ray(rng, spread=2.0):
    origin = rng.uniform(-spread, spread, 3)
    return Ray(origin, unit(rng.normal(size=3)))


UNIFORM_GEOMS = [
    uniform_geometry((1, 1, 1), (0, 0, 0), (1, 1, 1)),
    uniform_geometry((4, 7, 5), (-0.6, -0.4, -0.5), (0.5, 0.6, 0.4)),
    uniform_geometry((8, 8, 8), (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)),
]
FRUSTUM_GEOMS = [
    make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0),
    make_frustum_geometry((6, 5, 7), 0.4, 20.0, 50.0),
]


class TestHandExamples:
    def test_single_cell_grid(self):
        geom = uniform_geometry((1, 1, 1), (0, 0, 0), (1, 1, 1))
        tr = trace(geom, Ray((-1.0, 0.5, 0.5), (1.0, 0.0, 0.0)))
        assert tr.cells.tolist() == [0]
        assert tr.t_enter[0] == pytest.approx(1.0, abs=1e-12)
        assert tr.t_exit[0] == pytest.approx(2.0, abs=1e-12)
        assert tr.d[0] == pytest.approx(1.5, abs=1e-12)

    def test_two_cell_grid(self):
        geom = uniform_geometry((2, 1, 1), (0, 0, 0), (2, 1, 1))
        tr = trace(geom, Ray((-1.0, 0.5, 0.5), (1.0, 0.0, 0.0)))
        assert tr.cells.tolist() == [0, 1]
        assert np.allclose(tr.t_enter, [1.0, 2.0], atol=1e-12)
        assert np.allclose(tr.t_exit, [2.0, 3.0], atol=1e-12)

    def test_parallel_outside_misses(self):
        geom = uniform_geometry((2, 1, 1), (0, 0, 0), (2, 1, 1))
        tr = trace(geom, Ray((-1.0, 5.0, 0.5), (1.0, 0.0, 0.0)))
        assert tr.n == 0

    def test_origin_inside_starts_at_zero(self):
        geom = uniform_geometry((4, 4, 4), (0, 0, 0), (1, 1, 1))
        tr = trace(geom, Ray((0.6, 0.6, 0.6), unit((1.0, 0.3, -0.2))))
        assert tr.t_enter[0] == 0.0
        assert tr.cells[0] == geom.linear_index(2, 2, 2)

    def test_frustum_apex_ray_crosses_all_layers(self):
        geom = make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0)
        tr = trace(geom, Ray((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        assert tr.n == 4
        assert np.allclose(tr.t_enter, [0.5, 1.0, 2.0, 4.0], atol=1e-12)
        assert np.allclose(tr.t_exit, [1.0, 2.0, 4.0, 8.0], atol=1e-12)


@pytest.mark.parametrize("geom", UNIFORM_GEOMS + FRUSTUM_GEOMS)
class TestInvariants:
    def test_contiguity_and_adjacency(self, geom):
        rng = np.random.default_rng(42)
        for _ in range(80):
            tr = trace(geom, random_ray(rng))
            if tr.n == 0:
                continue
            assert np.all(tr.t_exit > tr.t_enter)
            assert np.allclose(tr.t_exit[:-1], tr.t_enter[1:], atol=1e-9)
            assert tr.t_enter[0] >= 0.0
            ix, iy, iz = geom.unravel(tr.cells)
            steps = np.abs(np.diff(ix)) + np.abs(np.diff(iy)) + np.abs(np.diff(iz))
            assert np.all(steps == 1)  # consecutive cells are face-adjacent

    def test_chord_length_conservation(self, geom):
        rng = np.random.default_rng(7)
        for _ in range(60):
            tr = trace(geom, random_ray(rng))
            if tr.n == 0:
                continue
            total = np.sum(tr.t_exit - tr.t_enter)
            assert total == pytest.approx(tr.t_exit[-1] - tr.t_enter[0], abs=1e-9)

    def test_dense_sampling_oracle(self, geom):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ray = random_ray(rng)
            tr = trace(geom, ray)
            oracle = dense_sample_cells(geom, ray)
            assert tr.cells.tolist() == oracle.tolist()

    def test_batch_matches_scalar(self, geom, monkeypatch):
        rng = np.random.default_rng(11)
        rays = [random_ray(rng) for _ in range(40)]
        # several passes per table
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 7)
        monkeypatch.setattr(traversal, "FRUSTUM_CHUNK", 7)
        table = trace_batch(geom,
                            np.stack([r.origin for r in rays]),
                            np.stack([r.direction for r in rays]))
        cells, d, valid = table.padded()
        assert 0 < np.count_nonzero(table.n) < len(rays)
        for i, ray in enumerate(rays):
            tr = trace(geom, ray)
            row = table.row(i)
            assert row.cells.tobytes() == tr.cells.tobytes()
            assert row.t_enter.tobytes() == tr.t_enter.tobytes()
            assert row.t_exit.tobytes() == tr.t_exit.tobytes()
            assert cells[i, valid[i]].tobytes() == tr.cells.tobytes()
            assert d[i, valid[i]].tobytes() == tr.d.tobytes()


class TestBatchKernels:
    @pytest.mark.parametrize("origin, direction", [((0.1, -2.0, 0.05), (0.0, 1.0, 2.2e-309)),
                                                   ((0.1, -2.0, -1.3), (-2.2e-309, 0.8, 0.6))])
    def test_subnormal_direction_component(self, origin, direction):
        # 1/d overflows for such components; the trace must stay exact and quiet
        geom = UNIFORM_GEOMS[1]
        ray = Ray(origin, direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = trace(geom, ray)
        assert tr.n > 0
        assert tr.cells.tolist() == dense_sample_cells(geom, ray).tolist()

    def test_frustum_chunks_do_not_change_rows(self, monkeypatch):
        geom = FRUSTUM_GEOMS[1]
        rng = np.random.default_rng(4)
        rays = [random_ray(rng, spread=0.5) for _ in range(40)]
        o = np.stack([r.origin for r in rays])
        d = np.stack([r.direction for r in rays])
        whole = trace_batch(geom, o, d)
        monkeypatch.setattr(traversal, "FRUSTUM_CHUNK", 3)
        chunked = trace_batch(geom, o, d)
        assert 0 < np.count_nonzero(whole.n) < len(rays)
        for name in ("start", "n", "t0", "cells", "t_exit"):
            assert getattr(whole, name).tobytes() == getattr(chunked, name).tobytes()
        for a, b in zip(whole.padded(), chunked.padded()):
            assert a.tobytes() == b.tobytes()
        for i in range(len(rays)):
            assert whole.row(i).t_enter.tobytes() == chunked.row(i).t_enter.tobytes()


class TestFirstHit:
    def geom(self):
        return uniform_geometry((3, 1, 1), (0, 0, 0), (3, 1, 1))

    def ray(self):
        return Ray((-1.0, 0.5, 0.5), (1.0, 0.0, 0.0))

    def test_all_empty_escapes(self):
        geom = self.geom()
        tr = trace(geom, self.ray())
        bg = BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))
        assert first_hit(bg, tr) is None

    def test_first_cell_occupied(self):
        geom = self.geom()
        tr = trace(geom, self.ray())
        occ = np.zeros(geom.shape, dtype=bool)
        occ[0, 0, 0] = True
        cell, depth = first_hit(BinaryGrid(geom, occ), tr)
        assert cell == 0
        assert depth == pytest.approx(1.5, abs=1e-12)

    def test_first_occupied_wins(self):
        geom = self.geom()
        tr = trace(geom, self.ray())
        occ = np.zeros(geom.shape, dtype=bool)
        occ[0, 0, 1] = True
        occ[0, 0, 2] = True
        cell, depth = first_hit(BinaryGrid(geom, occ), tr)
        assert cell == 1
        assert depth == pytest.approx(2.5, abs=1e-12)

    def test_geometry_mismatch_rejected(self):
        tr = trace(self.geom(), self.ray())
        other = uniform_geometry((3, 1, 1), (0, 0, 0), (3, 1, 2))
        with pytest.raises(ValueError, match="geometr"):
            first_hit(BinaryGrid(other, np.zeros(other.shape, dtype=bool)), tr)

    def test_matches_event_probability_argmax_for_binary_x(self):
        # with hard 0/1 emptiness the termination distribution is a point
        # mass exactly on the first-hit event
        rng = np.random.default_rng(5)
        geom = uniform_geometry((6, 6, 6), (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
        occ = rng.uniform(size=geom.shape) < 0.3
        bg = BinaryGrid(geom, occ)
        x_grid = bg.as_occupancy_grid()
        for _ in range(40):
            tr = trace(geom, random_ray(rng))
            if tr.n == 0:
                continue
            p = event_probabilities(x_grid.flat[tr.cells])
            hit = first_hit(bg, tr)
            if hit is None:
                assert np.argmax(p) == tr.n
            else:
                assert tr.cells[np.argmax(p)] == hit[0]

    def test_batch_matches_scalar(self, monkeypatch):
        rng = np.random.default_rng(9)
        geom = uniform_geometry((5, 5, 5), (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
        bg = BinaryGrid(geom, rng.uniform(size=geom.shape) < 0.25)
        rays = [random_ray(rng) for _ in range(50)]
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 9)  # several passes
        table = trace_batch(geom, np.stack([r.origin for r in rays]),
                            np.stack([r.direction for r in rays]))
        hit, cell, depth = first_hit_batch(bg, table)
        for i, ray in enumerate(rays):
            expect = first_hit(bg, trace(geom, ray))
            if expect is None:
                assert not hit[i]
            else:
                assert hit[i] and cell[i] == expect[0]
                assert depth[i] == pytest.approx(expect[1], abs=0)

    def test_gathered_table_rejected(self):
        # first hits read the flat arrays, which a take() does not reorder
        geom = self.geom()
        bg = BinaryGrid(geom, np.ones(geom.shape, dtype=bool))
        ray = self.ray()
        table = trace_batch(geom, np.stack([ray.origin] * 2), np.stack([ray.direction] * 2))
        with pytest.raises(ValueError, match="in order"):
            first_hit_batch(bg, table.take([1]))
        with pytest.raises(ValueError, match="in order"):  # a prefix keeps start in order
            first_hit_batch(bg, table.take([0]))
