import numpy as np
import pytest

from drc.errors import FormatError
from drc.images import read_pfm, read_pgm, read_ppm, write_pfm, write_pgm, write_ppm


class TestPGM:
    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.uniform(size=(6, 9)) < 0.4).astype(np.uint8)
        write_pgm(tmp_path / "m.pgm", img, maxval=1)
        loaded, maxval = read_pgm(tmp_path / "m.pgm")
        assert maxval == 1
        assert np.array_equal(loaded, img)

    def test_classid_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(4, 5)).astype(np.uint8)
        write_pgm(tmp_path / "c.pgm", img)
        loaded, maxval = read_pgm(tmp_path / "c.pgm")
        assert maxval == 255
        assert np.array_equal(loaded, img)

    def test_header_layout(self, tmp_path):
        write_pgm(tmp_path / "m.pgm", np.zeros((2, 3), dtype=np.uint8), maxval=1)
        data = (tmp_path / "m.pgm").read_bytes()
        assert data.startswith(b"P5\n3 2\n1\n")
        assert len(data) == len(b"P5\n3 2\n1\n") + 6

    def test_value_above_maxval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="maxval|values"):
            write_pgm(tmp_path / "m.pgm", np.array([[2]]), maxval=1)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P4\n1 1\n1\n\x00")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "x.pgm")

    def test_comment_skipped(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x08")
        img, _ = read_pgm(tmp_path / "x.pgm")
        assert img.tolist() == [[7, 8]]

    @pytest.mark.parametrize("header", [b"x 1 255", b"2 one 255", b"-8 -8 255", b"0 1 255", b"2 1 0",
                                        b"2 1 -1", b"2.0 1 255", b"2 1 2e2"])
    def test_header_value_not_a_positive_integer_rejected(self, tmp_path, header):
        (tmp_path / "x.pgm").write_bytes(b"P5\n" + header + b"\n\x07\x08")
        with pytest.raises(FormatError, match="not a positive integer"):
            read_pgm(tmp_path / "x.pgm")


class TestPPM:
    def test_float_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        write_ppm(tmp_path / "c.ppm", img.astype(np.float64) / 255.0)
        assert np.array_equal(read_ppm(tmp_path / "c.ppm"), img)

    def test_bit_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(3, 3, 3))
        write_ppm(tmp_path / "a.ppm", img)
        write_ppm(tmp_path / "b.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
    def test_float_out_of_range_rejected(self, tmp_path, bad):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            write_ppm(tmp_path / "c.ppm", img)
        assert not (tmp_path / "c.ppm").exists()

    def test_truncated_rejected(self, tmp_path):
        write_ppm(tmp_path / "c.ppm", np.zeros((2, 2, 3)))
        data = (tmp_path / "c.ppm").read_bytes()
        (tmp_path / "t.ppm").write_bytes(data[:-1])
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(tmp_path / "t.ppm")


    @pytest.mark.parametrize("header", [b"x 1 255", b"-8 -8 255", b"1 0 255", b"1 1 -255"])
    def test_header_value_not_a_positive_integer_rejected(self, tmp_path, header):
        (tmp_path / "x.ppm").write_bytes(b"P6\n" + header + b"\n\x07\x08\x09")
        with pytest.raises(FormatError, match="not a positive integer"):
            read_ppm(tmp_path / "x.ppm")


class TestPFM:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.uniform(0.1, 10.0, size=(7, 5)).astype(np.float32)
        write_pfm(tmp_path / "d.pfm", img)
        loaded = read_pfm(tmp_path / "d.pfm")
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, img)

    def test_little_endian_scale(self, tmp_path):
        write_pfm(tmp_path / "d.pfm", np.array([[1.0]], dtype=np.float32))
        data = (tmp_path / "d.pfm").read_bytes()
        assert data.startswith(b"Pf\n1 1\n-1.0\n")
        assert data.endswith(np.array([1.0], dtype="<f4").tobytes())

    def test_rows_stored_bottom_up(self, tmp_path):
        img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)  # row 0 on top
        write_pfm(tmp_path / "d.pfm", img)
        data = (tmp_path / "d.pfm").read_bytes()
        body = np.frombuffer(data.split(b"\n", 3)[3], dtype="<f4")
        assert body.tolist() == [3.0, 4.0, 1.0, 2.0]

    def test_three_channel_rejected(self, tmp_path):
        (tmp_path / "x.pfm").write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="3-channel"):
            read_pfm(tmp_path / "x.pfm")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        (tmp_path / "d.pfm").write_bytes(b"Pf\n2 1\n-1.0\n" + np.array([1.0, bad], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_pfm(tmp_path / "d.pfm")

    @pytest.mark.parametrize("size", [b"x 1", b"2 one", b"-8 -8", b"0 1", b"2 1.5"])
    def test_size_not_a_positive_integer_rejected(self, tmp_path, size):
        (tmp_path / "d.pfm").write_bytes(b"Pf\n" + size + b"\n-1.0\n" + np.ones(2, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="not a positive integer"):
            read_pfm(tmp_path / "d.pfm")

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"0", b"-0.0", b"little"])
    def test_scale_zero_or_not_finite_rejected(self, tmp_path, scale):
        # a NaN or infinite scale once read little-endian depths big-endian
        body = np.array([1.85, 10.0], dtype="<f4").tobytes()
        (tmp_path / "d.pfm").write_bytes(b"Pf\n2 1\n" + scale + b"\n" + body)
        with pytest.raises(FormatError, match="scale"):
            read_pfm(tmp_path / "d.pfm")

    def test_positive_scale_is_big_endian(self, tmp_path):
        body = np.array([1.85, 10.0], dtype=">f4").tobytes()
        (tmp_path / "d.pfm").write_bytes(b"Pf\n2 1\n1.0\n" + body)
        assert read_pfm(tmp_path / "d.pfm").tolist() == np.array([[1.85, 10.0]], dtype=np.float32).tolist()


@pytest.mark.parametrize("read, header", [(read_pgm, b"P5\n100000000 100000000\n255\n"),
                                          (read_ppm, b"P6\n100000000 100000000\n255\n"),
                                          (read_pfm, b"Pf\n100000000 100000000\n-1.0\n")])
def test_oversized_header_rejected(tmp_path, read, header):
    """A header may claim a body far larger than the file (here 10^16
    pixels); the reader compares the claim with the bytes left before it
    allocates anything."""
    (tmp_path / "big").write_bytes(header + b"\x00" * 16)
    with pytest.raises(FormatError, match="truncated"):
        read(tmp_path / "big")
