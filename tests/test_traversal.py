import mmap
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drc.cameras import image_grid_rays, perspective_camera
from drc.grid import BinaryGrid, make_frustum_geometry, uniform_geometry, unit_cube_geometry
from drc.renderer import image_traces, sample_view_ring
from drc import traversal
from drc.traversal import first_hit_batch, trace_batch


from oracles import (cell_faces, clip_cells, crossing_clip_cells, crossing_hull, dense_sample_cells, entries,
                     event_probabilities, first_hit, full_crossings, full_windows, padded, row_inside_box, slab_hull,
                     trace_one, trace_row)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def whole_box(geom):
    return [(0, n) for n in geom.dims]


def random_ray(rng, spread=2.0):
    origin = rng.uniform(-spread, spread, 3)
    return origin, unit(rng.normal(size=3))


def assert_matches_clip_oracle(geom, ray, tr, faces=None, clip=clip_cells):
    """The trace's cells exactly, and its depths within 1e-12; returns the
    oracle's cells."""
    cells, t_enter, t_exit = clip(geom, *ray, faces)
    assert tr.cells.tolist() == cells.tolist()
    assert np.abs(tr.t_enter - t_enter).max(initial=0.0) <= 1e-12
    assert np.abs(tr.t_exit - t_exit).max(initial=0.0) <= 1e-12
    return cells


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
        tr = trace_one(geom, (-1.0, 0.5, 0.5), (1.0, 0.0, 0.0))
        assert tr.cells.tolist() == [0]
        assert tr.t_enter[0] == pytest.approx(1.0, abs=1e-12)
        assert tr.t_exit[0] == pytest.approx(2.0, abs=1e-12)
        assert tr.d[0] == pytest.approx(1.5, abs=1e-12)

    def test_two_cell_grid(self):
        geom = uniform_geometry((2, 1, 1), (0, 0, 0), (2, 1, 1))
        tr = trace_one(geom, (-1.0, 0.5, 0.5), (1.0, 0.0, 0.0))
        assert tr.cells.tolist() == [0, 1]
        assert np.allclose(tr.t_enter, [1.0, 2.0], atol=1e-12)
        assert np.allclose(tr.t_exit, [2.0, 3.0], atol=1e-12)

    def test_parallel_outside_misses(self):
        geom = uniform_geometry((2, 1, 1), (0, 0, 0), (2, 1, 1))
        tr = trace_one(geom, (-1.0, 5.0, 0.5), (1.0, 0.0, 0.0))
        assert tr.n == 0

    def test_origin_inside_starts_at_zero(self):
        geom = uniform_geometry((4, 4, 4), (0, 0, 0), (1, 1, 1))
        tr = trace_one(geom, (0.6, 0.6, 0.6), unit((1.0, 0.3, -0.2)))
        assert tr.t_enter[0] == 0.0
        assert tr.cells[0] == np.ravel_multi_index((2, 2, 2), geom.shape)

    def test_frustum_apex_ray_crosses_all_layers(self):
        geom = make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0)
        tr = trace_one(geom, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        assert tr.n == 4
        assert np.allclose(tr.t_enter, [0.5, 1.0, 2.0, 4.0], atol=1e-12)
        assert np.allclose(tr.t_exit, [1.0, 2.0, 4.0, 8.0], atol=1e-12)


@pytest.mark.parametrize("geom", UNIFORM_GEOMS + FRUSTUM_GEOMS)
class TestInvariants:
    def test_contiguity_and_adjacency(self, geom):
        rng = np.random.default_rng(42)
        for _ in range(80):
            tr = trace_one(geom, *random_ray(rng))
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
            tr = trace_one(geom, *random_ray(rng))
            if tr.n == 0:
                continue
            total = np.sum(tr.t_exit - tr.t_enter)
            assert total == pytest.approx(tr.t_exit[-1] - tr.t_enter[0], abs=1e-9)

    def test_dense_sampling_oracle(self, geom):
        rng = np.random.default_rng(3)
        faces = cell_faces(geom)
        for i in range(25):
            ray = random_ray(rng)
            cells = assert_matches_clip_oracle(geom, ray, trace_one(geom, *ray), faces)
            if i < 4:  # the clip oracle itself, against dense sampling
                assert dense_sample_cells(geom, *ray).tolist() == cells.tolist()

    def test_batch_matches_scalar(self, geom, monkeypatch):
        rng = np.random.default_rng(11)
        rays = [random_ray(rng) for _ in range(40)]
        # several passes per table
        monkeypatch.setattr(traversal, "TABLE_CHUNK", 7)
        table = trace_batch(geom, *map(np.stack, zip(*rays)))
        cells, d, valid = padded(table)
        flat_cells, flat_d = entries(table)
        assert 0 < np.count_nonzero(table.n) < len(rays)
        for i, ray in enumerate(rays):
            tr = trace_one(geom, *ray)
            row = trace_row(table, i)
            assert row.cells.tobytes() == tr.cells.tobytes()
            assert row.t_enter.tobytes() == tr.t_enter.tobytes()
            assert row.t_exit.tobytes() == tr.t_exit.tobytes()
            assert cells[i, valid[i]].tobytes() == tr.cells.tobytes()
            assert d[i, valid[i]].tobytes() == tr.d.tobytes()
            at = slice(table.start[i], table.start[i] + table.n[i])
            assert flat_cells[at].tobytes() == tr.cells.tobytes()
            assert flat_d[at].tobytes() == tr.d.tobytes()


class TestBatchKernels:
    @pytest.mark.parametrize("origin, direction", [((0.1, -2.0, 0.05), (0.0, 1.0, 2.2e-309)),
                                                   ((0.1, -2.0, -1.3), (-2.2e-309, 0.8, 0.6))])
    def test_subnormal_direction_component(self, origin, direction):
        # 1/d overflows for such components; the trace must stay exact and quiet
        geom = UNIFORM_GEOMS[1]
        ray = (origin, direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = trace_one(geom, *ray)
        assert tr.n > 0
        assert tr.cells.tolist() == dense_sample_cells(geom, *ray).tolist()
        assert_matches_clip_oracle(geom, ray, tr)

    @pytest.mark.parametrize("origin, direction", [((-0.3, 0.05, 1.0), (0.6, 0.8, 2.2e-309)),
                                                   ((0.05, 0.1, 0.3), (2.2e-309, 0.28, 0.96))])
    def test_frustum_subnormal_direction_component(self, origin, direction):
        # a depth-plane crossing (dz) or a lateral one (dx, across x = 0) overflows
        geom = FRUSTUM_GEOMS[1]
        ray = (origin, direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = trace_one(geom, *ray)
        assert tr.n > 1
        assert tr.cells.tolist() == dense_sample_cells(geom, *ray).tolist()
        assert_matches_clip_oracle(geom, ray, tr)

    def test_chunks_do_not_change_rows(self, monkeypatch):
        for geom, spread in ((UNIFORM_GEOMS[1], 2.0), (FRUSTUM_GEOMS[1], 0.5)):
            rng = np.random.default_rng(4)
            rays = [random_ray(rng, spread) for _ in range(40)]
            o, d = map(np.stack, zip(*rays))
            monkeypatch.undo()
            whole = trace_batch(geom, o, d)
            monkeypatch.setattr(traversal, "TABLE_CHUNK", 3)
            chunked = trace_batch(geom, o, d)
            assert 0 < np.count_nonzero(whole.n) < len(rays)
            for name in ("start", "n", "t0", "cells", "t_exit"):
                assert getattr(whole, name).tobytes() == getattr(chunked, name).tobytes()
            for a, b in zip((*padded(whole), *entries(whole)), (*padded(chunked), *entries(chunked))):
                assert a.tobytes() == b.tobytes()
            for i in range(len(rays)):
                assert trace_row(whole, i).t_enter.tobytes() == trace_row(chunked, i).t_enter.tobytes()

    def test_storage_bound_covers_every_trace(self, monkeypatch):
        """Each ray's bound, one cell more than the planes of its windows,
        holds its cells, the reservation stays within twice the cells
        written, and a short reservation raises rather than writing past
        its end."""
        reserve = traversal._reserve
        for geom, spread in ((UNIFORM_GEOMS[1], 2.0), (UNIFORM_GEOMS[2], 0.6), (FRUSTUM_GEOMS[1], 0.5)):
            rng = np.random.default_rng(7)
            o, d = rng.uniform(-spread, spread, (600, 3)), unit(rng.normal(size=(600, 3)))
            t0, t1, alive = traversal._hull(geom, o, d, whole_box(geom))
            table = trace_batch(geom, o, d)
            rows = np.flatnonzero(alive)
            assert rows.size > 20 and table.n[rows].min() > 0
            _, width = traversal._windows(geom, o[rows], d[rows], t0[rows, None], t1[rows, None])
            bound = 1 + width.sum(axis=1, dtype=np.int64)
            assert np.all(bound >= table.n[rows])
            assert bound.sum() <= 2 * table.n.sum()
            monkeypatch.setattr(traversal, "_reserve", lambda count, dtype: reserve(table.n.sum() - 1, dtype))
            with pytest.raises(ValueError):
                trace_batch(geom, o, d)
            monkeypatch.undo()

    def test_large_reservations_are_mapped(self):
        # from 4 MiB on, an anonymous mapping: no page is resident before it is written
        for count, dtype in ((0, np.int32), (1000, np.int32), ((1 << 20) - 1, np.int32), (1 << 20, np.float64)):
            space = traversal._reserve(count, dtype)
            assert space.shape == (count,) and space.dtype == dtype and space.flags.writeable
            assert isinstance(getattr(space.base, "obj", None), mmap.mmap) == (space.nbytes >= 1 << 22)
        space[-1] = 1.5
        assert space[0] == 0.0 and space[-1] == 1.5


# a box, a box whose planes k / 4 are exact in binary, and the frustum of
# the hull's face rule: a ray lying in a face belongs to the cell above it
FACE_RULE_GEOMS = [
    (uniform_geometry((4, 5, 6), (-0.6, -0.4, -0.5), (0.5, 0.6, 0.4)), False),
    (uniform_geometry((4, 4, 4), (0, 0, 0), (1, 1, 1)), True),
    (make_frustum_geometry((6, 5, 7), 0.4, 20.0, 50.0), False),
]
FACE_RULE_ORACLES = [cell_faces(geom) for geom, _ in FACE_RULE_GEOMS]


def plane_value(geom, axis, k):
    """World coordinate of a box's plane k of an axis, or a frustum's depth
    plane k, as the kernel and the clip oracle compute it."""
    if geom.kind == "frustum":
        return geom.alpha1 * np.exp(geom.alpha2 * k)
    if k == geom.dims[axis]:
        return geom.aabb_max[axis]
    return geom.aabb_min[axis] + k * geom.cell_size[axis]


class TestRaysLyingInPlanes:
    """Rays lying in one of the six hull faces, or in an interior plane of
    a box whose planes are exact: the kernel, the clip oracle and, wherever
    the plane coordinate is exact in floating point, dense sampling agree
    that a ray lying in a plane belongs to the cell above it, and so that a
    ray lying in a high face (the far plane among them) misses.  On a
    frustum's side faces, planes through the apex, the clip oracle takes
    them by the crossing arithmetic (``crossing_clip_cells``), as the
    kernel does: a dot with the face normal rounds otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, len(FACE_RULE_GEOMS) - 1), axis=st.integers(0, 2), plane=st.integers(0, 4),
           zero=st.sampled_from([0.0, -0.0]), seed=st.integers(0, 2**32 - 1))
    def test_kernel_matches_oracles(self, which, axis, plane, zero, seed):
        geom, exact_planes = FACE_RULE_GEOMS[which]
        faces = FACE_RULE_ORACLES[which]
        n = geom.dims[axis]
        k = min(plane, n) if exact_planes else (0, n)[plane % 2]
        rng = np.random.default_rng(seed)
        m = 4
        # two points of the plane: grid coordinates a little past the grid's
        # on the other axes
        a, b = (rng.uniform(-0.2, 1.2, (m, 3)) * geom.dims for _ in range(2))
        a[:, axis] = b[:, axis] = k
        p, q = geom.grid_to_world(a), geom.grid_to_world(b)
        if geom.kind == "uniform" or axis == 2:  # an axis or depth plane: exact
            p[:, axis] = q[:, axis] = plane_value(geom, axis, k)
            d = q - p
            d[:, axis] = zero
        else:  # a side face through the apex: from the apex or from a point of it
            p[rng.uniform(size=m) < 0.5] = zero
            d = q - p
        d = unit(d)
        origins = p - rng.uniform(0.0, 1.5, (m, 1)) * d  # before the grid or inside it
        clip = crossing_clip_cells if geom.kind == "frustum" and axis < 2 else clip_cells
        lying = 0
        for o, direction in zip(origins, d):
            ray = (o, direction)
            tr = trace_one(geom, *ray)
            assert_matches_clip_oracle(geom, ray, tr, faces, clip)
            if geom.world_to_grid(o)[axis] == k and (geom.kind == "uniform" or axis == 2):
                lying += 1
                if lying == 1:  # dense sampling is slow: one ray per example
                    assert tr.cells.tolist() == dense_sample_cells(geom, *ray).tolist()
                if k == n:
                    assert tr.n == 0
                else:
                    assert np.all(geom.unravel(tr.cells)[axis] == k)
        if geom.kind == "uniform" and k in (0, n):
            assert lying == m  # a box face's coordinate is exact


class TestEdgeCrossings:
    """Rays through exact cell edges and corners cross two or three planes
    at one depth, and rays lying on a plane never cross it."""

    CUBE = uniform_geometry((4, 4, 4), (0, 0, 0), (1, 1, 1))
    FRUSTUM = make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0)

    def check_steps(self, geom, tr, crossed_axes):
        """No zero-length cell, and consecutive cells differ in exactly the
        axes crossed there."""
        assert tr.n > 1
        assert np.all(tr.t_exit > tr.t_enter)
        assert np.all(np.diff(tr.t_exit) > 0.0)
        assert tr.t_enter[1:].tobytes() == tr.t_exit[:-1].tobytes()
        ijk = np.stack(geom.unravel(tr.cells), axis=1)
        moved = [tuple(np.flatnonzero(step)) for step in np.diff(ijk, axis=0)]
        assert all(np.abs(step).max() == 1 for step in np.diff(ijk, axis=0))
        assert moved == crossed_axes

    def test_uniform_edge(self):
        # x = y along the ray: every x plane is crossed with a y plane
        ray = ((-0.5, -0.5, 0.3), unit((1.0, 1.0, 0.0)))
        tr = trace_one(self.CUBE, *ray)
        assert tr.cells.tolist() == [np.ravel_multi_index((1, k, k), self.CUBE.shape) for k in range(4)]
        self.check_steps(self.CUBE, tr, [(0, 1)] * 3)
        assert_matches_clip_oracle(self.CUBE, ray, tr)

    def test_uniform_corner(self):
        ray = ((-0.5, -0.5, -0.5), unit((1.0, 1.0, 1.0)))
        tr = trace_one(self.CUBE, *ray)
        assert tr.cells.tolist() == [np.ravel_multi_index((k, k, k), self.CUBE.shape) for k in range(4)]
        self.check_steps(self.CUBE, tr, [(0, 1, 2)] * 3)
        assert_matches_clip_oracle(self.CUBE, ray, tr)

    def test_frustum_edge(self):
        # nx = ny and x = y along the ray: the planes x = c z and y = c z are
        # crossed at one depth; the depth planes are crossed alone
        ray = ((-0.5, -0.5, 1.0), unit((0.6, 0.6, 0.3)))
        tr = trace_one(self.FRUSTUM, *ray)
        ix, iy, _ = self.FRUSTUM.unravel(tr.cells)
        assert np.array_equal(ix, iy) and len(set(ix.tolist())) > 2
        crossed = [(0, 1) if a != b else (2,) for a, b in zip(ix[:-1], ix[1:])]
        self.check_steps(self.FRUSTUM, tr, crossed)
        assert_matches_clip_oracle(self.FRUSTUM, ray, tr)

    def test_frustum_corner(self):
        # through the point (0, 0, z_1) where the planes x = 0, y = 0 and the
        # first interior depth plane meet; z_1 - 0.5 is exact, so every
        # crossing depth there is 0.5 / d_x
        z1 = self.FRUSTUM.alpha1 * np.exp(self.FRUSTUM.alpha2 * np.arange(1, 4))[0]
        origin, direction = (-0.5, -0.5, z1 - 0.5), unit((1.0, 1.0, 1.0))
        tr = trace_one(self.FRUSTUM, origin, direction)
        at = np.searchsorted(tr.t_exit, 0.5 / direction[0])
        assert tr.t_exit[at] == 0.5 / direction[0]
        assert tr.cells[at:at + 2].tolist() == [np.ravel_multi_index((0, 1, 1), self.FRUSTUM.shape),
                                                np.ravel_multi_index((1, 2, 2), self.FRUSTUM.shape)]
        assert np.all(tr.t_exit > tr.t_enter)
        assert_matches_clip_oracle(self.FRUSTUM, (origin, direction), tr)

    def test_entry_cell_agrees_with_crossing_depths(self):
        # z(t0) = -7e-46 rounds to the plane z = 0 in grid coordinates, but
        # the ray crosses that plane only at t = 2 > t0 = 1.5: a cell taken
        # from floor() at the entry would step past the grid's last z layer
        geom = unit_cube_geometry((2, 3, 2))
        ray = ((0.1, -2.0, -2.8e-45), (0.0, 1.0, 1.4e-45))
        tr = trace_one(geom, *ray)
        assert tr.cells.max() < geom.ncells
        assert_matches_clip_oracle(geom, ray, tr)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("kind", ["uniform", "frustum"])
    def test_ray_on_interior_plane(self, kind, zero):
        # on y = 0.25 in the cube; on the depth plane z = z_1 in the frustum,
        # parallel to every x plane too.  The ray stays in the cells above the
        # plane it lies on, and the planes it runs parallel to are counted on
        # the right side of it, whichever sign its zero components have.
        if kind == "uniform":
            geom, origin, direction, axis = self.CUBE, (-1.0, 0.25, 0.3), (1.0, zero, 0.0), 1
        else:
            geom = self.FRUSTUM
            z1 = geom.alpha1 * np.exp(geom.alpha2 * np.arange(1, 4))[0]
            origin, direction, axis = (0.1, -1.0, z1), (zero, 1.0, zero), 2
        tr = trace_one(geom, origin, direction)
        above = np.array(origin)
        above[axis] += 1e-9
        cells, t_enter, t_exit = clip_cells(geom, above, direction)
        assert tr.n > 1 and tr.cells.tolist() == cells.tolist()
        assert np.allclose(tr.t_enter, t_enter, rtol=0, atol=1e-7)
        assert np.allclose(tr.t_exit, t_exit, rtol=0, atol=1e-7)
        assert np.all(geom.unravel(tr.cells)[axis] == 1)


class TestFirstHit:
    def geom(self):
        return uniform_geometry((3, 1, 1), (0, 0, 0), (3, 1, 1))

    def ray(self):
        return (-1.0, 0.5, 0.5), (1.0, 0.0, 0.0)

    def test_all_empty_escapes(self):
        geom = self.geom()
        tr = trace_one(geom, *self.ray())
        bg = BinaryGrid(geom, np.zeros(geom.shape, dtype=bool))
        assert first_hit(bg, tr) is None

    def test_first_cell_occupied(self):
        geom = self.geom()
        tr = trace_one(geom, *self.ray())
        occ = np.zeros(geom.shape, dtype=bool)
        occ[0, 0, 0] = True
        cell, depth = first_hit(BinaryGrid(geom, occ), tr)
        assert cell == 0
        assert depth == pytest.approx(1.5, abs=1e-12)

    def test_first_occupied_wins(self):
        geom = self.geom()
        tr = trace_one(geom, *self.ray())
        occ = np.zeros(geom.shape, dtype=bool)
        occ[0, 0, 1] = True
        occ[0, 0, 2] = True
        cell, depth = first_hit(BinaryGrid(geom, occ), tr)
        assert cell == 1
        assert depth == pytest.approx(2.5, abs=1e-12)

    def test_geometry_mismatch_rejected(self):
        tr = trace_one(self.geom(), *self.ray())
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
            tr = trace_one(geom, *random_ray(rng))
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
        table = trace_batch(geom, *map(np.stack, zip(*rays)))
        hit, cell, depth = first_hit_batch(bg, table)
        for i, ray in enumerate(rays):
            expect = first_hit(bg, trace_one(geom, *ray))
            if expect is None:
                assert not hit[i]
            else:
                assert hit[i] and cell[i] == expect[0]
                assert depth[i] == pytest.approx(expect[1], abs=0)

    @staticmethod
    def first_hit_tables():
        """A uniform table of random rays, some starting inside the grid; a
        frustum table of pixel rays from a camera before the near plane; and
        the last camera's rows of an ``image_traces`` table, start rebased."""
        rng = np.random.default_rng(21)
        geom = UNIFORM_GEOMS[1]
        yield "uniform", trace_batch(geom, *map(np.stack, zip(*(random_ray(rng, 0.8) for _ in range(300)))))
        geom = FRUSTUM_GEOMS[1]
        camera = perspective_camera((0.05, -0.02, 0.1), (0.3, 0.2, 10.0), 75.0, 24, 20)
        yield "frustum", trace_batch(geom, *(a.reshape(-1, 3) for a in image_grid_rays(camera)))
        geom = UNIFORM_GEOMS[2]
        yield "camera_rows", image_traces(geom, sample_view_ring(3, width=16, height=12)).camera_rows(2)

    def test_depth_is_the_hit_entrys_event_depth(self):
        """Each hit's depth is bitwise the event depth ``entries`` gives its
        hit cell: entered at t0 in the ray's first cell, else where the ray
        left the cell before."""
        rng = np.random.default_rng(22)
        for case, table in self.first_hit_tables():
            bg = BinaryGrid(table.geometry, rng.uniform(size=table.geometry.shape) < 0.3)
            hit, cell, depth = first_hit_batch(bg, table)
            cells, d = entries(table)
            slots = []
            for i, at in enumerate(np.cumsum(table.n) - table.n):
                occupied = np.flatnonzero(bg.flat[cells[at:at + table.n[i]]])
                assert hit[i] == (occupied.size > 0), case
                if occupied.size:
                    k = at + occupied[0]
                    assert cell[i] == cells[k] and depth[i].tobytes() == d[k].tobytes(), case
                    slots.append(occupied[0])
            assert np.count_nonzero(np.array(slots) == 0) > 10 and np.count_nonzero(slots) > 10, case

    def test_gathered_table_rejected(self):
        # first hits read the flat arrays, which a take() does not reorder
        geom = self.geom()
        bg = BinaryGrid(geom, np.ones(geom.shape, dtype=bool))
        origin, direction = self.ray()
        table = trace_batch(geom, np.array([origin] * 2), np.array([direction] * 2))
        with pytest.raises(ValueError, match="in order"):
            first_hit_batch(bg, table.take([1]))
        with pytest.raises(ValueError, match="in order"):  # a prefix keeps start in order
            first_hit_batch(bg, table.take([0]))


TABLE_FIELDS = ("start", "n", "t0", "cells", "t_exit")


@contextmanager
def kernel_crossings(crossings):
    """Inside, each pass of ``trace_batch``'s kernel calls ``crossings`` in
    place of ``traversal._crossings``; the hull's faces keep the real one."""
    trace_rays = traversal._trace_rays

    def patched(*args):
        with mock.patch.object(traversal, "_crossings", crossings):
            return trace_rays(*args)

    with mock.patch.object(traversal, "_trace_rays", patched):
        yield


def full_plane_table(geom, origins, directions):
    """``trace_batch`` with every plane of every axis evaluated, as the
    kernel did before its windows."""
    with mock.patch.object(traversal, "_windows", full_windows), kernel_crossings(full_crossings):
        return trace_batch(geom, origins, directions)


def pass_columns(geom, origins, directions):
    """The number of planes each pass of ``trace_batch`` evaluates."""
    crossings, columns = traversal._crossings, []

    def counted(geom, a, o, d, first, gap, rate):  # called per axis, x first
        if a == 0:
            columns.append(0)
        columns[-1] += gap.shape[1]
        crossings(geom, a, o, d, first, gap, rate)

    with kernel_crossings(counted):
        trace_batch(geom, origins, directions)
    return columns


def assert_same_as_full_planes(geom, origins, directions):
    """The windowed table equals the full-plane one field by field, to the
    bit; returns it."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    table = trace_batch(geom, o, d)
    reference = full_plane_table(geom, o, d)
    for name in TABLE_FIELDS:
        assert getattr(table, name).tobytes() == getattr(reference, name).tobytes(), name
    return table


def apex_rays(geom, rng, n):
    """n rays on a frustum: from near the apex, from inside and from far
    outside, aimed at a point inside for two rays in three, the rest in
    random directions; some direction components are signed zeros."""
    inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (n, 3)) * geom.dims)
    scale = rng.choice([0.0, 0.01, 1.0, 10.0], (n, 1)) * geom.alpha1
    origins = rng.normal(size=(n, 3)) * scale
    origins[n // 2:] = inside[n // 2:] + origins[n // 2:] * 0.01
    directions = np.where(np.arange(n)[:, None] % 3 == 0, rng.normal(size=(n, 3)),
                          inside[::-1] - origins)
    zero = rng.uniform(size=(n, 3)) < 0.15
    directions[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    directions[~directions.any(axis=1)] = (0.0, 0.0, 1.0)
    return origins, unit(directions)


def odd_rays(rng, planes, n):
    """n rays whose origin coordinates are the given plane values, 0, -0
    or +-3, every fourth ray's random, and whose direction components are
    zero, signed zero, subnormal or not (some directions are zero)."""
    origins = rng.choice(np.concatenate([planes, [0.0, -0.0, 3.0, -3.0]]), (n, 3))
    origins[::4] = rng.uniform(-1.0, 1.0, (n // 4, 3))
    directions = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2e-309, -2.2e-309, 0.6, -0.8, 1.0], (n, 3))
    return origins, directions


SCENE_GEOM = make_frustum_geometry((32, 32, 32), 0.5, 60.0, 60.0)


class TestApexWindows:
    """Frustum traces evaluate only a window of the planes through the apex
    per ray; every table must equal the full-plane kernel's to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
           z_min=st.floats(0.05, 2.0), depth_ratio=st.floats(1.5, 200.0), hfov=st.floats(5.0, 150.0),
           seed=st.integers(0, 2**32 - 1))
    def test_random_rays_match_full_planes(self, dims, z_min, depth_ratio, hfov, seed):
        geom = make_frustum_geometry(dims, z_min, z_min * depth_ratio, hfov)
        assert_same_as_full_planes(geom, *apex_rays(geom, np.random.default_rng(seed), 96))

    @pytest.mark.parametrize("geom", FRUSTUM_GEOMS + [SCENE_GEOM])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rays_from_the_apex(self, geom, zero):
        # through random grid points and through points on the apex planes,
        # where the crossing depth is 0 / rate or 0 / 0
        nx, ny, nz = geom.dims
        rng = np.random.default_rng(8)
        g = rng.uniform(0.0, 1.0, (4000, 3)) * geom.dims
        g[1000:2500, 0] = rng.integers(0, nx + 1, 1500)
        g[2500:, 1] = rng.integers(0, ny + 1, 1500)
        table = assert_same_as_full_planes(geom, np.full((4000, 3), zero), unit(geom.grid_to_world(g)))
        inner = np.all((g[:, :2] > 0) & (g[:, :2] < (nx, ny)), axis=1)  # not on a side face
        assert np.all(table.n[inner] >= nz)

    @pytest.mark.parametrize("geom", [FRUSTUM_GEOMS[0], SCENE_GEOM])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rays_in_an_apex_plane(self, geom, axis, zero):
        # between two points of one apex plane, from in front of the grid,
        # inside it and the apex; in the central plane x = 0 (or y = 0) the
        # rate across it is exactly zero, of either sign
        n = geom.dims[axis]
        rng = np.random.default_rng(axis)
        a = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        b = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        a[:, axis] = b[:, axis] = rng.integers(0, n + 1, 3000)
        a[:1000, 2] = -3.0
        origins, targets = geom.grid_to_world(a), geom.grid_to_world(b)
        origins[2000:] = 0.0
        directions = unit(targets - origins)
        central = a[:, axis] == n / 2
        origins[central, axis] = zero
        directions[central, axis] = zero
        table = assert_same_as_full_planes(geom, origins, directions)
        assert np.count_nonzero(table.n[central]) > 50

    @pytest.mark.parametrize("dims", [(1, 6, 5), (6, 1, 5), (1, 1, 4)])
    def test_grids_one_cell_wide(self, dims):
        geom = make_frustum_geometry(dims, 0.5, 8.0, 60.0)
        rng = np.random.default_rng(2)
        inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (300, 3)) * dims)
        origins = rng.normal(size=(300, 3)) * 0.3
        table = assert_same_as_full_planes(geom, origins, unit(inside - origins))
        assert np.all(table.n > 0)

    @pytest.mark.parametrize("geom", FRUSTUM_GEOMS + [SCENE_GEOM])
    def test_coordinates_on_window_edge_planes(self, geom):
        # rays whose coordinate at t0 or t1 is on an apex plane: they enter
        # or leave through the near or far plane at a point of an apex plane,
        # or start on one inside the grid
        nx, ny, nz = geom.dims
        rng = np.random.default_rng(6)
        g = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        g[:1500, 0] = rng.integers(0, nx + 1, 1500)
        g[1500:, 1] = rng.integers(0, ny + 1, 1500)
        g[:, 2] = rng.choice([0.0, 0.5, nz], 3000)
        on_plane = geom.grid_to_world(g)
        inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims)
        towards = unit(inside - on_plane)
        origins = np.concatenate([on_plane - 0.7 * towards, inside, on_plane])
        directions = np.concatenate([towards, -towards, towards])
        table = assert_same_as_full_planes(geom, origins, directions)
        assert np.count_nonzero(table.n) > 7000

    @pytest.mark.parametrize("origin, direction", [
        # each leaves through the near plane one ulp of depth after it crosses
        # an apex plane, and its coordinate there rounds to the plane's far
        # side: x = c_31 z, rounding below 31; y = c_k z; x = c_k z, above
        ((-2.2270274823484058, 1.6052321724566467, 3.94729602572165),
         (0.5500682363189674, -0.34788726769094125, -0.7592097104038331)),
        ((0.6797693465657227, -8.457013409450266, 15.566197539410604),
         (-0.024106819260505254, 0.5011104316202512, -0.8650475111729454)),
        ((-8.56260960487056, -0.1697580109651172, 19.969758784805883),
         (0.3917868450153277, 0.01553523748426693, -0.9199248471854878)),
    ])
    def test_rays_leaving_just_past_an_apex_plane(self, origin, direction):
        table = assert_same_as_full_planes(SCENE_GEOM, [origin], [direction])
        tr = trace_row(table, 0)
        assert tr.t_exit[-1] - tr.t_enter[-1] < 1e-14  # the last cell is that one ulp

    def test_scene_pixel_rays(self):
        # three cameras spread across the apex of a 32^3 0.5-60 m grid, each
        # looking down it, every pixel of a 64 x 48 image
        geom = SCENE_GEOM
        rng = np.random.default_rng(5)
        for x in (-0.1, 0.0, 0.1):
            position = np.array([x, 0.0, 0.1]) + rng.uniform(-0.02, 0.02, 3)
            target = (rng.uniform(-0.15, 0.15), rng.uniform(0.72, 0.78), 20.0)
            origins, directions = image_grid_rays(perspective_camera(position, target, 48.0, 64, 48))
            table = assert_same_as_full_planes(geom, origins.reshape(-1, 3), directions.reshape(-1, 3))
            assert np.all(table.n > 0)

    def test_windows_hold_fewer_planes(self):
        # the point of the windows: a ray near the apex crosses a few of the
        # 62 apex planes, so a pass holds far fewer than all 93 columns
        geom = SCENE_GEOM
        origins, directions = image_grid_rays(perspective_camera((0.0, 0.0, 0.1), (0.0, 0.75, 20.0),
                                                                 48.0, 64, 48))
        o, d = origins.reshape(-1, 3)[:1024], directions.reshape(-1, 3)[:1024]
        assert traversal._hull(geom, o, d, whole_box(geom))[2].all()
        [columns] = pass_columns(geom, o, d)
        assert columns < 60 and sum(full_windows(geom, o, d, None, None)[1][0]) == 93


def ring_views(size=128):
    """Five cameras on the view ring around the unit cube, evenly spaced in
    azimuth at spread elevations."""
    return sample_view_ring(5, azimuths=20.0 + 72.0 * np.arange(5), elevations=(-12.0, 22.0, 2.0, 26.0, -4.0),
                            width=size, height=size)


class TestBoxWindows:
    """Uniform traces evaluate only a window of each axis's planes per ray;
    every table must equal the full-plane kernel's to the bit."""

    CUBE = unit_cube_geometry((32, 32, 32))
    ODD_ZEROS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-309, -1e-310]  # signed zeros and subnormals

    def test_ring_camera_pixel_rays(self):
        for camera in ring_views():
            origins, directions = image_grid_rays(camera)
            table = assert_same_as_full_planes(self.CUBE, origins.reshape(-1, 3), directions.reshape(-1, 3))
            assert 0 < np.count_nonzero(table.n) < table.n_rays

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
           lo=st.tuples(*[st.floats(-2.0, 1.0)] * 3), extent=st.tuples(*[st.floats(0.05, 3.0)] * 3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_rays_match_full_planes(self, dims, lo, extent, seed):
        geom = uniform_geometry(dims, lo, np.add(lo, extent))
        rng = np.random.default_rng(seed)
        n = 96
        inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (n, 3)) * dims)
        # from inside, from near the box and from far outside, aimed at a
        # point inside for two rays in three, the rest in random directions;
        # some direction components are signed zeros or subnormal
        scale = rng.choice([0.0, 0.01, 1.0, 10.0], (n, 1)) * max(extent)
        origins = inside[::-1] + rng.normal(size=(n, 3)) * scale
        directions = np.where(np.arange(n)[:, None] % 3 == 0, rng.normal(size=(n, 3)), inside - origins)
        odd = rng.uniform(size=(n, 3)) < 0.2
        directions[odd] = rng.choice(self.ODD_ZEROS, np.count_nonzero(odd))
        directions[np.all(np.abs(directions) < 1e-300, axis=1)] = (0.0, 0.0, 1.0)
        assert_same_as_full_planes(geom, origins, unit(directions))

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS[1:] + [CUBE])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rays_in_an_axis_plane(self, geom, axis, zero):
        # between two points of one axis plane, the faces among them, from
        # outside the grid and inside it; the rate across it is zero of
        # either sign
        n = geom.dims[axis]
        rng = np.random.default_rng(axis)
        a = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        b = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        a[:, axis] = b[:, axis] = rng.integers(0, n + 1, 3000)
        a[:1000, (axis + 1) % 3] = -2.0
        origins, targets = geom.grid_to_world(a), geom.grid_to_world(b)
        directions = unit(targets - origins)
        directions[:, axis] = zero
        table = assert_same_as_full_planes(geom, origins, directions)
        assert np.count_nonzero(table.n) > 1000

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS[1:] + [CUBE])
    def test_origins_inside_the_grid(self, geom):
        # anywhere inside, on interior planes and on edges between them,
        # in random directions and along the axes
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 1.0, (4000, 3)) * geom.dims
        g[1000:3000, 0] = rng.integers(0, geom.dims[0], 2000)
        g[2000:, 1] = rng.integers(0, geom.dims[1], 2000)
        directions = unit(rng.normal(size=(4000, 3)))
        directions[3000:] = np.eye(3)[rng.integers(0, 3, 1000)] * rng.choice([1.0, -1.0], (1000, 1))
        table = assert_same_as_full_planes(geom, geom.grid_to_world(g), directions)
        on_low_face = np.any(g[:, :2] == 0.0, axis=1)  # heading out through it, a ray misses
        assert np.all(table.n[~on_low_face] > 0) and np.all(table.t0 == 0.0)

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS[1:] + [CUBE])
    def test_coordinates_on_window_edge_planes(self, geom):
        # rays whose coordinate at t0 or t1 is on an interior plane: they
        # enter or leave through a face at a point of a plane, or start on
        # one inside the grid
        rng = np.random.default_rng(6)
        g = rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims
        face = rng.integers(0, 3, 3000)
        edge = (face + rng.integers(1, 3, 3000)) % 3
        at = np.arange(3000)
        g[at, face] = rng.choice([0.0, 1.0], 3000) * np.take(geom.dims, face)
        g[at, edge] = rng.integers(0, np.take(geom.dims, edge) + 1)
        on_plane = geom.grid_to_world(g)
        inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (3000, 3)) * geom.dims)
        towards = unit(inside - on_plane)
        origins = np.concatenate([on_plane - 0.7 * towards, inside, on_plane])
        directions = np.concatenate([towards, -towards, towards])
        table = assert_same_as_full_planes(geom, origins, directions)
        assert np.count_nonzero(table.n) > 7000

    @pytest.mark.parametrize("dims", [(1, 6, 5), (6, 1, 5), (5, 6, 1), (1, 1, 4), (1, 1, 1)])
    def test_grids_one_cell_wide(self, dims):
        geom = uniform_geometry(dims, (-0.5, -0.4, -0.3), (0.5, 0.6, 0.2))
        rng = np.random.default_rng(2)
        inside = geom.grid_to_world(rng.uniform(0.0, 1.0, (300, 3)) * dims)
        origins = inside[::-1] + rng.normal(size=(300, 3))
        table = assert_same_as_full_planes(geom, origins, unit(inside - origins))
        assert np.all(table.n > 0)

    def test_windows_hold_fewer_planes(self):
        # a ring camera's ray crosses about 30 of the 93 planes of a 32^3
        # cube, so a pass holds far fewer columns than all of them
        origins, directions = image_grid_rays(ring_views()[0])
        columns = pass_columns(self.CUBE, origins.reshape(-1, 3), directions.reshape(-1, 3))
        assert len(columns) > 3 and max(columns) <= 70 and np.median(columns) < 60
        assert sum(full_windows(self.CUBE, origins[:1], directions[:1], None, None)[1][0]) == 93


class TestBoxHull:
    @pytest.mark.parametrize("geom", UNIFORM_GEOMS)
    def test_is_bitwise_the_slab_reduction(self, geom):
        # the face-by-face hull clip gives the slab clip's bits, with zero,
        # signed-zero and subnormal direction components, and origins on the
        # slab faces, where a depth is -0.0 or +-inf
        rng = np.random.default_rng(12)
        origins, directions = odd_rays(rng, np.concatenate([geom.aabb_min, geom.aabb_max]), 20000)
        for got, expect in zip(traversal._hull(geom, origins, directions, whole_box(geom)),
                               slab_hull(geom, origins, directions)):
            assert got.tobytes() == expect.tobytes()


class TestHullFaces:
    """Every hull face takes the crossing arithmetic of its plane, the grid's
    own faces (k = 0 and k = n) on both kinds among them."""

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS + FRUSTUM_GEOMS + [SCENE_GEOM])
    def test_hull_is_bitwise_the_crossing_depths(self, geom):
        rng = np.random.default_rng(14)
        if geom.kind == "uniform":
            rays = [odd_rays(rng, np.concatenate([geom.aabb_min, geom.aabb_max]), 4000)]
        else:
            near_far = [plane_value(geom, 2, 0), plane_value(geom, 2, geom.dims[2])]
            # and rays from the apex lying in a side face, whose rate across it rounds to 0 or not
            g = rng.uniform(0.0, 1.0, (4000, 3)) * geom.dims
            side = rng.integers(0, 2, 4000)
            g[np.arange(4000), side] = rng.integers(0, 2, 4000) * np.array(geom.dims)[side]
            rays = [odd_rays(rng, near_far, 4000), apex_rays(geom, rng, 4000),
                    (np.zeros((4000, 3)), unit(geom.grid_to_world(g)))]
        for box in [whole_box(geom)] + [TestCellBox.random_box(rng, geom.dims) for _ in range(6)]:
            for origins, directions in rays:
                for got, want in zip(traversal._hull(geom, origins, directions, box),
                                     crossing_hull(geom, box, origins, directions)):
                    assert got.tobytes() == want.tobytes()


class TestCellBox:
    """``trace_batch`` clipped to a box of whole cells."""

    @staticmethod
    def random_box(rng, dims):
        """A box of at least one cell per axis."""
        lo = rng.integers(0, dims)
        return list(zip(lo, rng.integers(lo + 1, np.array(dims) + 1)))

    @staticmethod
    def lay_in_box_faces(rng, geom, box, origins, directions):
        """Puts every other ray in a plane of one of the box's faces: on a
        uniform grid parallel to an axis plane, on a frustum from the apex in
        a side plane x = c z or y = c z (its rate there exactly 0), or
        parallel to a depth plane at that plane's depth as the kernel takes
        it; every other parallel one's direction component is -0.0."""
        for i in range(0, len(origins), 2):
            a = rng.integers(0, 3)
            k = box[a][rng.integers(0, 2)]
            if geom.kind == "uniform" or a == 2:
                origins[i, a] = plane_value(geom, a, k)
                directions[i, a] = -0.0 if i % 4 else 0.0
                if a == 2 and 0 < k < geom.dims[2]:  # the interior depth planes' array, as the kernel reads it
                    origins[i, a] = (geom.alpha1 * np.exp(geom.alpha2 * np.arange(1, geom.dims[2])))[k - 1]
            else:
                origins[i] = 0.0
                directions[i, a] = geom.f * (k - geom.dims[a] / 2.0) * directions[i, 2]

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS + [uniform_geometry((9, 6, 11), (-0.7, -0.3, -0.5),
                                                                         (0.4, 0.5, 0.6))] + FRUSTUM_GEOMS)
    def test_rows_are_the_full_rows_inside_the_box(self, geom):
        # each clipped row holds the full row's cells inside the box, at
        # the full trace's depths to the bit, entered where the full trace
        # entered the first of them; rays start in and out of the box and
        # half of them lie in planes of the box's faces
        rng = np.random.default_rng(31)
        for _ in range(8):
            box = self.random_box(rng, geom.dims)
            lo, hi = np.array(box).T
            target = geom.grid_to_world(lo + rng.uniform(0.0, 1.0, (200, 3)) * (hi - lo))
            origins = np.where(rng.random((200, 1)) < 0.3, target, target + rng.normal(size=(200, 3)))
            directions = unit(target - origins + rng.normal(scale=0.1, size=(200, 3)))
            if geom.kind == "frustum":  # from the apex to the target, for the side planes
                directions[::2] = target[::2]
            self.lay_in_box_faces(rng, geom, box, origins, directions)
            full, clipped = trace_batch(geom, origins, directions), trace_batch(geom, origins, directions, box)
            assert np.count_nonzero(clipped.n[::2]) > 10 and np.count_nonzero(clipped.n[1::2]) > 25
            for i in range(200):
                row = trace_row(clipped, i)
                cells, t_enter, t_exit = row_inside_box(geom, trace_row(full, i), box)
                assert row.cells.tolist() == cells.tolist()
                assert row.t_enter.tobytes() == t_enter.tobytes()
                assert row.t_exit.tobytes() == t_exit.tobytes()

    @pytest.mark.parametrize("geom", UNIFORM_GEOMS + FRUSTUM_GEOMS)
    def test_whole_grid_box_is_the_default_table(self, geom):
        rng = np.random.default_rng(32)
        origins, directions = rng.uniform(-1.5, 1.5, (500, 3)), unit(rng.normal(size=(500, 3)))
        default, whole = trace_batch(geom, origins, directions), trace_batch(geom, origins, directions,
                                                                            whole_box(geom))
        assert np.count_nonzero(default.n) > 50
        for name in TABLE_FIELDS:
            assert getattr(whole, name).tobytes() == getattr(default, name).tobytes(), name

    def test_empty_box_traces_nothing(self):
        rng = np.random.default_rng(33)
        for geom in [UNIFORM_GEOMS[2]] + FRUSTUM_GEOMS:
            # origins inside the grid: every ray crosses cells of the whole grid
            origins = geom.grid_to_world(rng.uniform(0.0, 1.0, (300, 3)) * geom.dims)
            directions = unit(rng.normal(size=(300, 3)))
            assert trace_batch(geom, origins, directions).n.all()
            nx, ny, nz = geom.dims
            for box in ([(0, 0)] * 3, [(3, 3), (0, ny), (0, nz)], [(0, nx), (0, ny), (nz, nz)],
                        [(0, nx), (2, 2), (0, nz)]):
                table = trace_batch(geom, origins, directions, box)
                assert table.n_rays == 300 and not table.n.any() and table.cells.size == 0

    @pytest.mark.parametrize("box", [[(0, 8)] * 2, [(2, 1), (0, 8), (0, 8)], [(0, 9), (0, 8), (0, 8)],
                                     [(-1, 4), (0, 8), (0, 8)]])
    def test_box_outside_the_grid_rejected(self, box):
        with pytest.raises(ValueError, match="box"):
            trace_batch(UNIFORM_GEOMS[2], np.zeros((1, 3)), np.ones((1, 3)), box)

    @pytest.mark.parametrize("box", [[(0, 2.9), (0, 8), (0, 8)], [(0, 8), (0.5, 3), (0, 8)]])
    def test_fractional_box_bound_rejected(self, box):
        with pytest.raises(ValueError, match="integer"):
            trace_batch(UNIFORM_GEOMS[2], np.zeros((1, 3)), np.ones((1, 3)), box)


class TestMalformedRays:
    """``trace_batch`` traces only finite rays with a direction, given as
    (R, 3) origins and directions of one R."""

    CUBE = unit_cube_geometry((4, 4, 4))

    @pytest.mark.parametrize("direction", [(np.nan, 0.0, 1.0), (0.3, -np.inf, 1.0)])
    @pytest.mark.parametrize("geom", [CUBE, FRUSTUM_GEOMS[0]])
    def test_non_finite_direction_rejected(self, geom, direction):
        with pytest.raises(ValueError, match="finite"):
            trace_batch(geom, [(0.1, 0.2, 1.0), (0.1, -0.2, 0.3)], [(0.0, 0.0, 1.0), direction])

    @pytest.mark.parametrize("origin", [(np.nan, 0.0, 0.0), (0.0, 0.0, np.inf), (-np.inf, 0.1, 0.2)])
    @pytest.mark.parametrize("geom", [CUBE, FRUSTUM_GEOMS[0]])
    def test_non_finite_origin_rejected(self, geom, origin):
        with pytest.raises(ValueError, match="finite"):
            trace_batch(geom, [origin, (0.1, 0.2, 1.0)], [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
    @pytest.mark.parametrize("geom", [CUBE, FRUSTUM_GEOMS[0]])
    def test_zero_direction_rejected(self, geom, direction):
        with pytest.raises(ValueError, match="zero"):
            trace_batch(geom, [(0.1, 0.2, 1.0), (0.1, 0.2, 0.3)], [(0.0, 0.0, 1.0), direction])

    @pytest.mark.parametrize("origins, directions", [
        (np.zeros((3, 3)), np.ones((2, 3))),
        (np.zeros((2, 3)), np.ones((3, 3))),
        (np.zeros(3), np.ones(3)),
        (np.zeros((2, 2)), np.ones((2, 2))),
        (np.zeros((2, 4)), np.ones((2, 4))),
    ])
    def test_ray_arrays_of_other_shapes_rejected(self, origins, directions):
        with pytest.raises(ValueError, match=r"\(R, 3\)"):
            trace_batch(self.CUBE, origins, directions)
