"""Raw matrix, PGM and CSV formats: golden bytes, round trips, malformed
input."""

import struct

import numpy as np
import pytest

from rmoamp import (
    InvalidParameterError,
    read_matrix,
    read_pgm,
    write_matrix,
    write_pgm,
)
from rmoamp.fileio import csv_cell, csv_text


class TestMatrixFormat:
    def test_golden_bytes(self, tmp_path):
        # hand-assembled fixture: magic + <QQ dims + row-major <f8 payload
        arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "m.mat"
        write_matrix(path, arr)
        expected = (b"OAMPMAT1" + struct.pack("<QQ", 2, 3)
                    + struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert path.read_bytes() == expected

    def test_round_trip_bits(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(1))
        arr = rng.standard_normal((7, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)

    def test_vector_becomes_row(self, tmp_path):
        path = tmp_path / "v.mat"
        write_matrix(path, np.array([1.5, -2.5]))
        out = read_matrix(path)
        assert out.shape == (1, 2)
        assert np.array_equal(out, [[1.5, -2.5]])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"OOPSMAT1" + struct.pack("<QQ", 1, 1) + b"\x00" * 8)
        with pytest.raises(InvalidParameterError):
            read_matrix(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_bytes(b"OAMPMAT1" + struct.pack("<QQ", 2, 2) + b"\x00" * 8)
        with pytest.raises(InvalidParameterError):
            read_matrix(path)

    def test_rejects_cut_header(self, tmp_path):
        path = tmp_path / "cut.mat"
        path.write_bytes(b"OAMPMAT1" + struct.pack("<Q", 2) + b"\x00" * 4)
        with pytest.raises(InvalidParameterError, match="header"):
            read_matrix(path)

    def test_rejects_header_claiming_more_than_the_file(self, tmp_path):
        # 2^40 x 2^40 entries: checked against the file size, not read
        path = tmp_path / "huge.mat"
        path.write_bytes(b"OAMPMAT1" + struct.pack("<QQ", 2 ** 40, 2 ** 40)
                         + b"\x00" * 8)
        with pytest.raises(InvalidParameterError, match="truncated"):
            read_matrix(path)

    def test_rejects_3d_input(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            write_matrix(tmp_path / "t.mat", np.zeros((2, 2, 2)))


class TestPgmFormat:
    def test_golden_bytes(self, tmp_path):
        img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n\x00\xff\xff\x00"

    def test_read_back(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_pgm(path, np.array([[0, 255], [255, 0]], dtype=np.uint8))
        img, maxval = read_pgm(path)
        assert maxval == 255
        assert np.array_equal(img, [[0, 255], [255, 0]])

    def test_float_input_scaled(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 2.0]]))
        img, _ = read_pgm(path)
        # 0.5 rounds to 128, out-of-range clips
        assert np.array_equal(img, [[0, 255], [128, 255]])

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # format\n# a comment line\n 2\t2 \n255\n\x01\x02\x03\x04")
        img, maxval = read_pgm(path)
        assert np.array_equal(img, [[1, 2], [3, 4]])
        assert maxval == 255

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(InvalidParameterError):
            read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(InvalidParameterError):
            read_pgm(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(InvalidParameterError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n2 two\n255\n",
                                        b"P5\n2 2\n25.5\n",
                                        b"P5\n-2 -2\n255\n",
                                        b"P5\n0 2\n255\n",
                                        b"P5\n1099511627776 1\n255\n"])
    def test_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + b"\x00\x01\x02\x03")
        with pytest.raises(InvalidParameterError):
            read_pgm(path)

    def test_rejects_header_that_ends_early(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n2 2 # no maxval\n")
        with pytest.raises(InvalidParameterError,
                           match="unexpected end of PGM header"):
            read_pgm(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))


class TestCsvFormat:
    @pytest.mark.parametrize("value, cell", [
        (1.0, "1.0"),
        (0.1, "0.1"),
        (np.float64(1) / 3, repr(1 / 3)),
        (np.float32(0.5), "0.5"),
        (float("nan"), "nan"),
        (float("-inf"), "-inf"),
        (None, ""),
        (3, "3"),
        (np.int64(7), "7"),
        ("ddim", "ddim"),
        ("a, b\nc", "a; b c"),
        (["a", "b"], "['a'; 'b']"),
    ])
    def test_cell_rule(self, value, cell):
        assert csv_cell(value) == cell

    def test_golden_text(self):
        text = csv_text(("n", "x", "note"),
                        [[0, 0.25, None], [1, np.float64(2), "x,y"]])
        assert text == "n,x,note\n0,0.25,\n1,2.0,x;y\n"

    def test_header_only(self):
        assert csv_text(("a", "b"), []) == "a,b\n"
