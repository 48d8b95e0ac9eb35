import numpy as np
import pytest

from drc.errors import FormatError
from drc.grid import (
    SIMPLEX_ATOL,
    AuxGrid,
    BinaryGrid,
    GridGeometry,
    OccupancyGrid,
    load_grid,
    make_frustum_geometry,
    same_geometry,
    save_grid,
    uniform_geometry,
    unit_cube_geometry,
)

from oracles import cell_bounds_world, frustum_world_to_grid


class TestConstruction:
    def test_fill_all_empty(self):
        g = OccupancyGrid(uniform_geometry((2, 2, 2), (0, 0, 0), (1, 1, 1)), np.full((2, 2, 2), 1.0))
        assert g.geometry.ncells == 8
        assert np.all(g.x == 1.0)

    def test_fill_half(self):
        g = OccupancyGrid(unit_cube_geometry((32, 32, 32)), np.full((32, 32, 32), 0.5))
        assert g.geometry.ncells == 32768
        assert np.all(g.x == 0.5)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            OccupancyGrid(uniform_geometry((0, 2, 2), (0, 0, 0), (1, 1, 1)), np.full((0, 2, 2), 0.5))

    def test_bad_fill_rejected(self):
        with pytest.raises(ValueError, match=r"must be finite and lie in \[0, 1\]"):
            OccupancyGrid(uniform_geometry((2, 2, 2), (0, 0, 0), (1, 1, 1)), np.full((2, 2, 2), 1.5))

    def test_inverted_aabb_rejected(self):
        with pytest.raises(ValueError, match="aabb"):
            uniform_geometry((2, 2, 2), (0, 0, 0), (1, -1, 1))

    @pytest.mark.parametrize("lo, hi", [((0, -np.inf, 0), (1, 1, 1)), ((0, 0, 0), (1, 1, np.inf)),
                                        ((np.nan, 0, 0), (1, 1, 1))])
    def test_non_finite_aabb_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            uniform_geometry((2, 2, 2), lo, hi)

    @pytest.mark.parametrize("args, kwargs, match", [
        (("banana", (2, 2, 2)), {}, "kind"),
        (("frustum", (0, 4, 4)), {"alpha1": -1.0}, "dims"),
        (("frustum", (2, 2)), {"alpha1": 1.0, "alpha2": 1.0, "f": 1.0}, "dims"),
        (("frustum", (4, 4, 4)), {"alpha1": -1.0, "alpha2": 1.0, "f": 1.0}, "frustum parameters"),
        (("frustum", (4, 4, 4)), {"alpha1": 1.0, "alpha2": np.nan, "f": 1.0}, "frustum parameters"),
        (("uniform", (2, 2, 2)), {}, "aabb"),
        (("uniform", (2, 2, 2)), {"aabb_min": (0, 0, 0), "aabb_max": (1, 1, np.inf)}, "finite"),
    ])
    def test_direct_construction_is_checked(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GridGeometry(*args, **kwargs)

    def test_direct_construction_freezes_its_corners(self):
        lo = np.zeros(3)
        geom = GridGeometry("uniform", [2, 3, 4], aabb_min=lo, aabb_max=(1, 1, 1))
        lo[0] = -1.0
        assert geom.dims == (2, 3, 4) and geom.aabb_min[0] == 0.0
        assert not geom.aabb_min.flags.writeable and not geom.aabb_max.flags.writeable

    def test_x_out_of_range_rejected(self):
        geom = unit_cube_geometry((2, 2, 2))
        field = np.full(geom.shape, 0.5)
        field[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            OccupancyGrid(geom, field)

    def test_nan_x_rejected(self):
        geom = unit_cube_geometry((2, 2, 2))
        field = np.full(geom.shape, 0.5)
        field[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            OccupancyGrid(geom, field)

    @pytest.mark.parametrize("k", [2, 4, 7, 9])
    def test_semantic_rows_within_simplex_tolerance(self, k):
        # a row off the simplex by just under or just over SIMPLEX_ATOL,
        # either way; and for K < 8, random rows within a few ulps of the
        # tolerance, which the check must judge as numpy's row sum does
        geom = unit_cube_geometry((1, 1, 1))
        rng = np.random.default_rng(k)
        rows = [(np.full(k, 1.0 / k), f * SIMPLEX_ATOL, abs(f) < 1.0) for f in (-1.001, -0.999, 0.999, 1.001)]
        if k < 8:
            rows += [(rng.dirichlet(np.ones(k)) + 0.01, rng.choice([-1.0, 1.0]) * SIMPLEX_ATOL
                      + rng.integers(-8, 9) * np.spacing(1.0), None) for _ in range(300)]
        outcomes = set()
        for row, delta, inside in rows:
            p = (row / row.sum()).reshape(1, 1, 1, k)
            p[..., 0] += delta
            if inside is None:
                inside = not np.any(np.abs(p.sum(axis=3) - 1.0) > SIMPLEX_ATOL)
            outcomes.add(inside)
            if inside:
                AuxGrid(geom, "semantics", p)
            else:
                with pytest.raises(ValueError, match="sum to 1"):
                    AuxGrid(geom, "semantics", p)
        assert outcomes == {True, False}

    def test_storage_order_x_fastest(self):
        geom = unit_cube_geometry((3, 4, 5))
        field = np.zeros(geom.shape)
        field[2, 3, 1] = 0.25  # iz=2, iy=3, ix=1
        g = OccupancyGrid(geom, field)
        assert g.flat[(2 * 4 + 3) * 3 + 1] == 0.25

    def test_grids_are_immutable(self):
        g = OccupancyGrid(uniform_geometry((2, 2, 2), (0, 0, 0), (1, 1, 1)), np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError):
            g.x[0, 0, 0] = 0.1


class TestFrustumGeometry:
    def test_scene_scale_parameters(self):
        # near 0.5 m, far 1000 m, 50 deg horizontal field of view
        geom = make_frustum_geometry((64, 32, 32), 0.5, 1000.0, 50.0)
        assert geom.alpha1 == 0.5
        assert geom.alpha2 == pytest.approx(np.log(1000.0 / 0.5) / 32, rel=1e-12)
        assert geom.f == pytest.approx(np.tan(np.radians(25.0)) / 32, rel=1e-12)

    def test_unit_alpha2(self):
        n = 7
        geom = make_frustum_geometry((n, n, n), 1.0, np.exp(n), 60.0)
        assert geom.alpha2 == pytest.approx(1.0, rel=1e-12)

    def test_inverted_depths_rejected(self):
        with pytest.raises(ValueError, match="z_min"):
            make_frustum_geometry((4, 4, 4), 2.0, 1.0, 50.0)

    def test_infinite_far_plane_rejected(self):
        with pytest.raises(ValueError, match="z_max < inf"):
            make_frustum_geometry((4, 4, 4), 0.5, np.inf, 50.0)

    def test_layer_volumes_strictly_increase(self):
        geom = make_frustum_geometry((8, 8, 8), 0.5, 100.0, 50.0)
        zs = geom.alpha1 * np.exp(geom.alpha2 * np.arange(9))
        # one cell of layer iz has volume f^2 * (z1^3 - z0^3) / 3
        vols = geom.f**2 * np.diff(zs**3) / 3.0
        assert np.all(np.diff(vols) > 0)


    @pytest.mark.parametrize("shape", [(3,), (500, 3), (2, 250, 3)])
    def test_world_to_grid_is_the_guarded_formula(self, shape):
        # bitwise, at z = 0, -0.0, negative, NaN, inf and subnormal too
        geom = make_frustum_geometry((6, 5, 7), 0.4, 20.0, 50.0)
        rng = np.random.default_rng(9)
        specials = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e-310, 5e-324, 1e-300, 2.0]
        p = rng.uniform(-3.0, 3.0, shape)
        p[..., 2] = rng.choice(specials + list(rng.uniform(-1.0, 30.0, 10)), shape[:-1])
        lateral = np.array([[1.0, 0.0], [np.inf, 1.0], [np.nan, 0.0], [-1e300, 1e300], [0.0, -0.0]])
        flat = p.reshape(-1, 3)
        flat[:5, :2] = lateral[:len(flat)]
        got = geom.world_to_grid(p)
        assert got.shape == shape and got.tobytes() == frustum_world_to_grid(geom, p).tobytes()

    def test_world_to_grid_overflows_quietly(self):
        # a lateral coordinate over a subnormal depth is +-inf, not an error
        geom = make_frustum_geometry((4, 4, 4), 0.5, 8.0, 60.0)
        assert geom.world_to_grid([1.0, 0.0, 1e-310])[0] == np.inf


class TestCellBounds:
    def test_unit_cube_planes(self):
        geom = uniform_geometry((1, 1, 1), (0, 0, 0), (1, 1, 1))
        planes = cell_bounds_world(geom, 0)
        offsets = sorted(p.offset for p in planes)
        assert offsets == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_frustum_layer_z_planes(self):
        geom = make_frustum_geometry((4, 4, 4), 0.5, 0.5 * 2.0**4, 50.0)
        assert geom.alpha2 == pytest.approx(np.log(2.0), rel=1e-12)
        iz = 1
        idx = np.ravel_multi_index((iz, 0, 0), geom.shape)
        planes = cell_bounds_world(geom, int(idx))
        z_lo, z_hi = planes[4], planes[5]
        assert abs(z_lo.signed_distance([0.0, 0.0, 1.0])) < 1e-12
        assert abs(z_hi.signed_distance([0.0, 0.0, 2.0])) < 1e-12

    def test_out_of_range_index(self):
        geom = unit_cube_geometry((2, 2, 2))
        with pytest.raises(ValueError, match="out of range"):
            cell_bounds_world(geom, 8)

    @pytest.mark.parametrize("geom", [
        uniform_geometry((3, 4, 5), (-1, 0, 2), (2, 1, 4)),
        make_frustum_geometry((5, 4, 6), 0.5, 40.0, 50.0),
    ])
    def test_cell_center_strictly_inside_its_planes(self, geom):
        rng = np.random.default_rng(0)
        for idx in rng.choice(geom.ncells, size=20, replace=False):
            center = geom.cell_center_world(int(idx))
            for plane in cell_bounds_world(geom, int(idx)):
                assert plane.signed_distance(center) < 0.0  # outward normals

    def test_index_bijection(self):
        geom = unit_cube_geometry((3, 5, 7))
        idx = np.arange(geom.ncells)
        ix, iy, iz = geom.unravel(idx)
        assert np.array_equal(np.ravel_multi_index((iz, iy, ix), geom.shape), idx)
        assert ix.max() == 2 and iy.max() == 4 and iz.max() == 6


class TestGridFiles:
    def test_occupancy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        geom = uniform_geometry((4, 3, 2), (-1, -2, -3), (1, 0, 3))
        g = OccupancyGrid(geom, rng.uniform(size=geom.shape))
        path = tmp_path / "g.grid"
        save_grid(path, g)
        loaded, aux, notes = load_grid(path)
        assert same_geometry(loaded.geometry, geom)
        assert np.array_equal(loaded.x, g.x)
        assert aux is None and notes == {}

    def test_aux_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        geom = unit_cube_geometry((3, 3, 3))
        g = OccupancyGrid(geom, rng.uniform(size=geom.shape))
        aux = AuxGrid(geom, "color", rng.uniform(size=(*geom.shape, 3)))
        save_grid(tmp_path / "g.grid", g, aux)
        _, loaded_aux, _ = load_grid(tmp_path / "g.grid")
        assert loaded_aux.kind == "color"
        assert np.array_equal(loaded_aux.payload, aux.payload)

    def test_aux_semantics_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        geom = make_frustum_geometry((4, 2, 3), 0.5, 10.0, 45.0)
        g = OccupancyGrid(geom, rng.uniform(size=geom.shape))
        p = rng.dirichlet(np.ones(5), size=geom.ncells).reshape(*geom.shape, 5)
        aux = AuxGrid(geom, "semantics", p)
        save_grid(tmp_path / "g.grid", g, aux)
        loaded, loaded_aux, _ = load_grid(tmp_path / "g.grid")
        assert same_geometry(loaded.geometry, geom)
        assert loaded_aux.nchannels == 5
        assert np.array_equal(loaded_aux.payload, p)

    @pytest.mark.parametrize("grid_geom, aux_geom", [
        (unit_cube_geometry((2, 2, 2)), uniform_geometry((2, 2, 2), (-1, -1, -1), (1, 1, 1))),
        (make_frustum_geometry((2, 2, 2), 0.5, 10.0, 45.0), make_frustum_geometry((2, 2, 2), 0.5, 20.0, 45.0)),
    ])
    def test_aux_on_another_geometry_rejected(self, tmp_path, grid_geom, aux_geom):
        g = OccupancyGrid(grid_geom, np.full(grid_geom.shape, 0.5))
        aux = AuxGrid(aux_geom, "color", np.full((*aux_geom.shape, 3), 0.5))
        with pytest.raises(ValueError, match="aux geometry"):
            save_grid(tmp_path / "g.grid", g, aux)
        assert not (tmp_path / "g.grid").exists()

    def test_binary_roundtrip_with_annotation(self, tmp_path):
        rng = np.random.default_rng(4)
        geom = unit_cube_geometry((4, 4, 4))
        b = BinaryGrid(geom, rng.uniform(size=geom.shape) < 0.3)
        save_grid(tmp_path / "b.grid", b, annotations={"xform": "one-minus-soft-occupancy"})
        loaded, aux, notes = load_grid(tmp_path / "b.grid")
        assert isinstance(loaded, BinaryGrid)
        assert np.array_equal(loaded.occ, b.occ)
        assert notes == {"xform": "one-minus-soft-occupancy"}

    def test_write_is_bitwise_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        geom = unit_cube_geometry((5, 4, 3))
        g = OccupancyGrid(geom, rng.uniform(size=geom.shape))
        save_grid(tmp_path / "a.grid", g)
        save_grid(tmp_path / "b.grid", g)
        assert (tmp_path / "a.grid").read_bytes() == (tmp_path / "b.grid").read_bytes()

    def test_header_magic_required(self, tmp_path):
        (tmp_path / "bad.grid").write_bytes(b"NOT-A-GRID v9 uniform 1 1 1 0 0 0 1 1 1 none\n")
        with pytest.raises(FormatError, match="header"):
            load_grid(tmp_path / "bad.grid")

    def test_truncated_body(self, tmp_path):
        geom = unit_cube_geometry((2, 2, 2))
        g = OccupancyGrid(geom, np.full(geom.shape, 0.5))
        save_grid(tmp_path / "g.grid", g)
        data = (tmp_path / "g.grid").read_bytes()
        (tmp_path / "trunc.grid").write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_grid(tmp_path / "trunc.grid")

    @pytest.mark.parametrize("header", [b"uniform 100000 100000 100000 0 0 0 1 1 1 none",
                                        b"bin 100000 100000 100000 0 0 0 1 1 1 none",
                                        b"bin 2 2 2 0 0 0 1 1 1 sem:1000000000000"])
    def test_oversized_header_rejected(self, tmp_path, header):
        # the claimed body size is compared with the bytes left before reading
        (tmp_path / "big.grid").write_bytes(b"DRC-GRID v1 " + header + b"\n" + b"\x01" * 16)
        with pytest.raises(FormatError, match="truncated"):
            load_grid(tmp_path / "big.grid")

    def test_out_of_range_field_rejected(self, tmp_path):
        geom = unit_cube_geometry((2, 2, 2))
        g = OccupancyGrid(geom, np.full(geom.shape, 0.5))
        save_grid(tmp_path / "g.grid", g)
        data = bytearray((tmp_path / "g.grid").read_bytes())
        header_end = data.index(b"\n") + 1
        data[header_end:header_end + 8] = np.array([1.5]).tobytes()
        (tmp_path / "bad.grid").write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"\[0, 1\]"):
            load_grid(tmp_path / "bad.grid")

    def test_nan_field_rejected(self, tmp_path):
        geom = unit_cube_geometry((2, 2, 2))
        save_grid(tmp_path / "g.grid", OccupancyGrid(geom, np.full(geom.shape, 0.5)))
        data = bytearray((tmp_path / "g.grid").read_bytes())
        cell = data.index(b"\n") + 1 + 8 * 5
        data[cell:cell + 8] = np.array([np.nan], dtype="<f8").tobytes()
        (tmp_path / "nan.grid").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="finite"):
            load_grid(tmp_path / "nan.grid")

    def test_nan_color_payload_rejected(self, tmp_path):
        geom = unit_cube_geometry((2, 2, 2))
        save_grid(tmp_path / "g.grid", OccupancyGrid(geom, np.full(geom.shape, 0.5)),
                  AuxGrid(geom, "color", np.full((*geom.shape, 3), 0.5)))
        data = bytearray((tmp_path / "g.grid").read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        (tmp_path / "nan.grid").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="finite"):
            load_grid(tmp_path / "nan.grid")

    def test_frustum_zero_dims_rejected(self, tmp_path):
        (tmp_path / "z.grid").write_bytes(b"DRC-GRID v1 bin 0 4 4 0.5 0.1 0.2 none\n")
        with pytest.raises(FormatError, match="dims"):
            load_grid(tmp_path / "z.grid")

    def test_nan_frustum_parameter_rejected(self, tmp_path):
        (tmp_path / "n.grid").write_bytes(b"DRC-GRID v1 bin 1 1 1 nan 0.1 0.2 none\n\x01")
        with pytest.raises(FormatError, match="frustum parameters"):
            load_grid(tmp_path / "n.grid")

    def test_infinite_aabb_rejected(self, tmp_path):
        (tmp_path / "i.grid").write_bytes(b"DRC-GRID v1 bin 1 1 1 -inf 0 0 1 1 1 none\n\x01")
        with pytest.raises(FormatError, match="finite"):
            load_grid(tmp_path / "i.grid")

    @pytest.mark.parametrize("tag", ["sem:x", "sem:0", "sem:"])
    def test_malformed_semantic_tag_rejected(self, tmp_path, tag):
        header = f"DRC-GRID v1 bin 1 1 1 0 0 0 1 1 1 {tag}\n".encode()
        (tmp_path / "s.grid").write_bytes(header + b"\x01")
        with pytest.raises(FormatError):
            load_grid(tmp_path / "s.grid")

    @pytest.mark.parametrize("byte", [b"\x02", b"\xff"])
    def test_binary_body_byte_past_one_rejected(self, tmp_path, byte):
        (tmp_path / "b.grid").write_bytes(b"DRC-GRID v1 bin 1 1 1 0 0 0 1 1 1 none\n" + byte)
        with pytest.raises(FormatError, match="0 or 1"):
            load_grid(tmp_path / "b.grid")

    def test_bytes_after_body_rejected(self, tmp_path):
        geom = unit_cube_geometry((2, 2, 2))
        save_grid(tmp_path / "g.grid", OccupancyGrid(geom, np.full(geom.shape, 0.5)))
        data = (tmp_path / "g.grid").read_bytes()
        (tmp_path / "long.grid").write_bytes(data + b"\x00")
        with pytest.raises(FormatError, match="after its body"):
            load_grid(tmp_path / "long.grid")
