import numpy as np
import pytest

from drc.cameras import (
    Camera,
    load_camera,
    look_at_extrinsics,
    perspective_camera,
    pixel_rays,
    save_camera,
)
from drc.errors import FormatError
from oracles import pixel_to_ray, project


def identity_perspective(f=1.0, size=8):
    return Camera("perspective", size, size, (f, f, size / 2, size / 2),
                  np.eye(3), np.zeros(3))


def identity_orthographic(s=0.1, size=8):
    return Camera("orthographic", size, size, (s, s, size / 2, size / 2),
                  np.eye(3), np.zeros(3))


class TestPixelToRay:
    def test_principal_ray(self):
        cam = identity_perspective()
        origin, direction = pixel_to_ray(cam, 4.0, 4.0)
        assert np.allclose(origin, 0.0)
        assert np.allclose(direction, [0, 0, 1])

    def test_unit_offset_direction(self):
        cam = identity_perspective(f=1.0)
        _, direction = pixel_to_ray(cam, 5.0, 4.0)  # u - u0 = 1, v = v0
        assert np.allclose(direction, np.array([1, 0, 1]) / np.sqrt(2))

    def test_orthographic_offset(self):
        cam = identity_orthographic(s=0.1)
        origin, direction = pixel_to_ray(cam, 6.0, 4.0)  # u - u0 = 2
        assert np.allclose(origin, [0.2, 0, 0])
        assert np.allclose(direction, [0, 0, 1])

    def test_perspective_rays_share_origin(self):
        cam = perspective_camera((1.0, 2.0, 3.0), (0, 0, 0), 50.0, 16, 16)
        origins, dirs = pixel_rays(cam, np.arange(16.0), np.arange(16.0))
        assert np.allclose(origins, origins[0])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_orthographic_rays_share_direction(self):
        rot, t = look_at_extrinsics((2.0, 1.0, 2.0), (0, 0, 0))
        cam = Camera("orthographic", 16, 16, (0.05, 0.05, 8.0, 8.0), rot, t)
        origins, dirs = pixel_rays(cam, np.arange(16.0), np.arange(16.0))
        assert np.allclose(dirs, dirs[0])
        assert not np.allclose(origins[0], origins[1])

    @pytest.mark.parametrize("rotation", ["look_at", "identity", "permutation"])
    def test_directions_are_bitwise_numpys_norm(self, rotation):
        # random pixels, and the principal point and pixels on its row and
        # column, where two or three direction components are +-0.0 or 1
        if rotation == "look_at":
            rot, t = look_at_extrinsics((1.5, -0.7, 2.2), (0.1, 0.0, -0.2))
        else:
            rot = np.eye(3) if rotation == "identity" else np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])
            t = np.zeros(3)
        cam = Camera("perspective", 64, 48, (70.0, 65.0, 32.0, 24.0), rot, t)
        rng = np.random.default_rng(1)
        u = np.concatenate([rng.uniform(-10.0, 74.0, 500), np.full(9, 32.0), np.arange(0.0, 64.0, 8.0)])
        v = np.concatenate([rng.uniform(-10.0, 58.0, 500), np.arange(0.0, 48.0, 5.5)[:9], np.full(8, 24.0)])
        a, b, u0, v0 = cam.intrinsics
        d = np.stack([(u - u0) / a, (v - v0) / b, np.ones_like(u)], axis=-1) @ cam.rotation
        expect = d / np.linalg.norm(d, axis=-1, keepdims=True)
        assert pixel_rays(cam, u, v)[1].tobytes() == expect.tobytes()
        assert pixel_rays(cam, u.reshape(-1, 1), v.reshape(-1, 1))[1].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("model", ["perspective", "orthographic"])
    def test_projection_roundtrip(self, model):
        rng = np.random.default_rng(0)
        rot, t = look_at_extrinsics((1.5, -0.7, 2.2), (0.1, 0.0, -0.2))
        intr = (70.0, 65.0, 31.5, 33.0) if model == "perspective" else (0.02, 0.03, 32.0, 32.0)
        cam = Camera(model, 64, 64, intr, rot, t)
        for _ in range(50):
            u, v = rng.uniform(0, 64, 2)
            origins, dirs = pixel_rays(cam, np.array([u]), np.array([v]))
            point = origins[0] + rng.uniform(0.5, 3.0) * dirs[0]
            uv = project(cam, point)
            assert np.allclose(uv, [u, v], atol=1e-6)


class TestValidation:
    def test_non_orthonormal_rotation_rejected(self):
        bad = np.eye(3)
        bad[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            Camera("perspective", 8, 8, (1, 1, 4, 4), bad, np.zeros(3))

    def test_reflection_rejected(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Camera("perspective", 8, 8, (1, 1, 4, 4), bad, np.zeros(3))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            Camera("fisheye", 8, 8, (1, 1, 4, 4), np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", range(4))
    def test_non_finite_intrinsics_rejected(self, bad, at):
        intrinsics = [1.0, 1.0, 4.0, 4.0]
        intrinsics[at] = bad
        with pytest.raises(ValueError, match="finite"):
            Camera("perspective", 8, 8, tuple(intrinsics), np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rotation_rejected(self, bad):
        rotation = np.full((3, 3), bad)  # NaN passes both orthonormality checks
        with pytest.raises(ValueError, match="finite"):
            Camera("perspective", 8, 8, (1, 1, 4, 4), rotation, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_translation_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Camera("perspective", 8, 8, (1, 1, 4, 4), np.eye(3), np.array([0.0, bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["position", "target", "up"])
    def test_non_finite_look_at_rejected(self, name, bad):
        # before any arithmetic: an infinite norm would divide inf by inf
        args = {"position": [0.0, 0.0, 2.0], "target": [0.0, 0.0, 0.0], "up": [0.0, 1.0, 0.0]}
        args[name][1] = bad
        with pytest.raises(ValueError, match=f"camera {name} must be finite"):
            look_at_extrinsics(**args)


class TestCameraFiles:
    def test_roundtrip_exact(self, tmp_path):
        cam = perspective_camera((0.3, 1.2, -2.0), (0, 0.1, 0), 47.5, 80, 60)
        save_camera(tmp_path / "cam.txt", cam)
        loaded = load_camera(tmp_path / "cam.txt")
        assert loaded.model == cam.model
        assert (loaded.width, loaded.height) == (cam.width, cam.height)
        assert loaded.intrinsics == cam.intrinsics
        assert np.array_equal(loaded.rotation, cam.rotation)
        assert np.array_equal(loaded.translation, cam.translation)

    def test_orthographic_roundtrip(self, tmp_path):
        rot, t = look_at_extrinsics((0.0, 1.0, 2.0), (0, 0, 0))
        cam = Camera("orthographic", 40, 30, (0.02, 0.025, 20.0, 15.0), rot, t)
        save_camera(tmp_path / "cam.txt", cam)
        loaded = load_camera(tmp_path / "cam.txt")
        assert loaded.model == "orthographic"
        assert loaded.intrinsics == cam.intrinsics
        assert np.array_equal(loaded.rotation, cam.rotation)

    def test_unknown_model_string_rejected(self, tmp_path):
        cam = identity_perspective()
        save_camera(tmp_path / "cam.txt", cam)
        text = (tmp_path / "cam.txt").read_text().replace("perspective", "pinhole")
        (tmp_path / "cam.txt").write_text(text)
        with pytest.raises(FormatError, match="model"):
            load_camera(tmp_path / "cam.txt")

    def test_unknown_field_rejected(self, tmp_path):
        cam = identity_perspective()
        save_camera(tmp_path / "cam.txt", cam)
        with open(tmp_path / "cam.txt", "a") as fh:
            fh.write("distortion 0.1\n")
        with pytest.raises(FormatError, match="unknown camera field"):
            load_camera(tmp_path / "cam.txt")

    def test_missing_field_rejected(self, tmp_path):
        cam = identity_perspective()
        save_camera(tmp_path / "cam.txt", cam)
        lines = (tmp_path / "cam.txt").read_text().splitlines()
        (tmp_path / "cam.txt").write_text("\n".join(l for l in lines if not l.startswith("rotation")))
        with pytest.raises(FormatError, match="missing"):
            load_camera(tmp_path / "cam.txt")

    @pytest.mark.parametrize("line", ["model perspective orthographic", "width 8 9", "height 8 9"])
    def test_extra_tokens_rejected(self, tmp_path, line):
        cam = identity_perspective()
        save_camera(tmp_path / "cam.txt", cam)
        key = line.split()[0]
        lines = (tmp_path / "cam.txt").read_text().splitlines()
        (tmp_path / "cam.txt").write_text("\n".join(line if l.startswith(key) else l for l in lines))
        with pytest.raises(FormatError, match="takes one value"):
            load_camera(tmp_path / "cam.txt")

    @pytest.mark.parametrize("key, value", [("intrinsics", "1.0 nan 4.0 4.0"),
                                            ("rotation", "nan 0 0 0 1 0 0 0 1"),
                                            ("translation", "0 inf 0")])
    def test_non_finite_values_rejected(self, tmp_path, key, value):
        cam = identity_perspective()
        save_camera(tmp_path / "cam.txt", cam)
        lines = (tmp_path / "cam.txt").read_text().splitlines()
        (tmp_path / "cam.txt").write_text("\n".join(f"{key} {value}" if l.startswith(key) else l
                                                    for l in lines))
        with pytest.raises(FormatError, match="finite"):
            load_camera(tmp_path / "cam.txt")
