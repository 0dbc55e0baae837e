"""Tests for the element-granularity x-access streams."""

import numpy as np
import pytest

from repro.formats import build_format
from repro.formats.base import XAccessStream

from .conftest import make_random_coo


class TestXAccessStream:
    def test_width_one_passthrough(self):
        s = XAccessStream(np.array([3, 7, 1]), 1)
        np.testing.assert_array_equal(s.element_columns(), [3, 7, 1])
        assert s.n_elements == 3

    def test_fixed_width_expansion(self):
        s = XAccessStream(np.array([0, 10]), 3)
        np.testing.assert_array_equal(
            s.element_columns(), [0, 1, 2, 10, 11, 12]
        )
        assert s.n_elements == 6

    def test_variable_width_expansion(self):
        s = XAccessStream(np.array([5, 20]), 2, widths=np.array([1, 3]))
        np.testing.assert_array_equal(s.element_columns(), [5, 20, 21, 22])
        assert s.n_elements == 4

    def test_widths_length_checked(self):
        with pytest.raises(ValueError):
            XAccessStream(np.array([1, 2]), 1, widths=np.array([1]))

    def test_line_ids_clip_negative(self):
        s = XAccessStream(np.array([-3]), 2)
        assert s.line_ids(8).tolist() == [0, 0]

    def test_line_ids_rejects_bad_line(self):
        with pytest.raises(ValueError):
            XAccessStream(np.array([0]), 1).line_ids(0)


class TestFormatStreamsAreElementExact:
    """Each format's expanded stream covers exactly its stored elements'
    column positions (padding included for the padded formats)."""

    def test_csr_stream_is_col_ind(self, small_coo):
        csr = build_format(small_coo, "csr", with_values=False)
        np.testing.assert_array_equal(
            csr.x_access_stream().element_columns(), csr.col_ind
        )

    def test_bcsr_stream_counts_padding(self, small_coo):
        bcsr = build_format(small_coo, "bcsr", (2, 3), with_values=False)
        cols = bcsr.x_access_stream().element_columns()
        assert cols.shape[0] == bcsr.n_blocks * 3  # c elements per block
        assert (cols % 3 == np.tile([0, 1, 2], bcsr.n_blocks)).all()

    def test_vbl_stream_matches_true_columns(self, small_coo):
        vbl = build_format(small_coo, "vbl", with_values=False)
        cols = np.sort(vbl.x_access_stream().element_columns())
        np.testing.assert_array_equal(cols, np.sort(small_coo.cols))

    def test_bcsd_stream_covers_diagonal_span(self):
        coo = make_random_coo(24, 24, 80, seed=77, with_values=False)
        bcsd = build_format(coo, "bcsd", 4, with_values=False)
        cols = bcsd.x_access_stream().element_columns()
        assert cols.shape[0] == bcsd.n_blocks * 4
