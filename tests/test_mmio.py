"""Tests for Matrix Market I/O."""

import gzip
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatrixMarketError
from repro.formats import COOMatrix
from repro.matrices import read_matrix_market, write_matrix_market
from repro.matrices import mmio
from repro.matrices.mmio import read_matrix_market_text

from .conftest import make_random_coo


class TestRoundTrip:
    def test_real_general(self, tmp_path):
        coo = make_random_coo(12, 9, 40, seed=71)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        back = read_matrix_market(path)
        assert back == coo

    def test_pattern(self, tmp_path):
        coo = make_random_coo(12, 9, 40, seed=72, with_values=False)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        back = read_matrix_market(path)
        assert back == coo
        assert back.values is None

    def test_gzip(self, tmp_path):
        coo = make_random_coo(8, 8, 20, seed=73)
        path = tmp_path / "m.mtx.gz"
        write_matrix_market(path, coo)
        assert read_matrix_market(path) == coo

    def test_values_preserved_exactly(self, tmp_path):
        coo = COOMatrix(2, 2, [0, 1], [1, 0], [1.0 / 3.0, -2.5e-17])
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        np.testing.assert_array_equal(read_matrix_market(path).values,
                                      coo.values)


class TestReading:
    def _write(self, tmp_path, text):
        p = tmp_path / "in.mtx"
        p.write_text(text)
        return p

    def test_symmetric_expansion(self, tmp_path):
        p = self._write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "3 3 3",
            "1 1 2.0",
            "2 1 5.0",
            "3 2 7.0",
        ]))
        coo = read_matrix_market(p)
        dense = coo.to_dense()
        assert dense[0, 1] == dense[1, 0] == 5.0
        assert dense[1, 2] == dense[2, 1] == 7.0
        assert coo.nnz == 5  # diagonal entry not mirrored

    def test_skew_symmetric(self, tmp_path):
        p = self._write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real skew-symmetric",
            "2 2 1",
            "2 1 3.0",
        ]))
        dense = read_matrix_market(p).to_dense()
        assert dense[1, 0] == 3.0
        assert dense[0, 1] == -3.0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = self._write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate integer general",
            "% a comment",
            "",
            "2 2 1",
            "% another",
            "1 2 4",
        ]))
        coo = read_matrix_market(p)
        assert coo.to_dense()[0, 1] == 4.0

    def test_rejects_bad_header(self, tmp_path):
        p = self._write(tmp_path, "not a header\n1 1 0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_array_format(self, tmp_path):
        p = self._write(tmp_path,
                        "%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_complex_field(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_truncated_file(self, tmp_path):
        p = self._write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.0",
        ]))
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_missing_value(self, tmp_path):
        p = self._write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 1",
            "1 1",
        ]))
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_missing_size_line(self, tmp_path):
        p = self._write(tmp_path,
                        "%%MatrixMarket matrix coordinate real general\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_symmetric_write_read_round_trip(self, tmp_path):
        """A symmetric pattern survives write -> read (the writer stores
        the expanded general form; the structure must be unchanged)."""
        sym = read_matrix_market_text("\n".join([
            "%%MatrixMarket matrix coordinate pattern symmetric",
            "4 4 4",
            "1 1",
            "3 1",
            "4 2",
            "4 4",
        ]))
        path = tmp_path / "sym.mtx"
        write_matrix_market(path, sym)
        assert read_matrix_market(path) == sym


class TestTextAPI:
    """read_matrix_market_text: the in-memory entry point the HTTP advisor
    uses for POSTed Matrix Market payloads."""

    def test_matches_file_reader(self, tmp_path):
        coo = make_random_coo(15, 11, 60, seed=81)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        assert read_matrix_market_text(path.read_text()) == coo

    def test_pattern_round_trip(self, tmp_path):
        coo = make_random_coo(10, 10, 30, seed=82, with_values=False)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        back = read_matrix_market_text(path.read_text())
        assert back == coo
        assert back.values is None

    def test_symmetric_expansion(self):
        coo = read_matrix_market_text("\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "3 3 2",
            "1 1 2.0",
            "3 1 5.0",
        ]))
        dense = coo.to_dense()
        assert dense[0, 2] == dense[2, 0] == 5.0
        assert coo.nnz == 3

    def test_malformed_header_raises(self):
        with pytest.raises(MatrixMarketError):
            read_matrix_market_text("not a header\n1 1 0\n")

    def test_source_label_in_error(self):
        with pytest.raises(MatrixMarketError, match="payload"):
            read_matrix_market_text("garbage\n", source="payload")

    def test_truncated_body_raises(self):
        with pytest.raises(MatrixMarketError):
            read_matrix_market_text("\n".join([
                "%%MatrixMarket matrix coordinate real general",
                "2 2 2",
                "1 1 1.0",
            ]))


class TestMalformedDataLines:
    """Short lines, indices beyond int64 and impossible entry counts are
    Matrix Market errors (the server maps them to 400, not 500)."""

    def test_short_line_names_the_line(self):
        with pytest.raises(MatrixMarketError, match="'3'"):
            read_matrix_market_text(
                "%%MatrixMarket matrix coordinate pattern general\n"
                "3 3 2\n1 2\n3\n"
            )

    def test_short_line_in_real_file(self):
        with pytest.raises(MatrixMarketError, match="'7'"):
            read_matrix_market_text(
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n7\n"
            )

    def test_huge_declared_count(self):
        with pytest.raises(MatrixMarketError, match="contains 1"):
            read_matrix_market_text(
                "%%MatrixMarket matrix coordinate pattern general\n"
                "3 3 1000000000000\n1 1\n"
            )

    @pytest.mark.parametrize("line", [
        "99999999999999999999 1",
        "1 -99999999999999999999",
        "-9223372036854775808 1",
    ])
    def test_index_beyond_int64(self, line):
        with pytest.raises(MatrixMarketError, match="out of range"):
            read_matrix_market_text(
                "%%MatrixMarket matrix coordinate pattern general\n"
                f"3 3 1\n{line}\n"
            )


# --------------------------------------------------------------------------- #
# The C-level fast path against the line loop
# --------------------------------------------------------------------------- #

_HEADER = "%%MatrixMarket matrix coordinate {} {}\n"


def _loop_only():
    """Force every parse through the line loop (the reference)."""
    return mock.patch.object(mmio, "_entries_fast", lambda *args: None)


def _outcome(text):
    """(pattern arrays, value bits) of a parse, or the error class."""
    try:
        coo = read_matrix_market_text(text)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    vals = None if coo.values is None else coo.values.view(np.uint64).tolist()
    return coo.shape, coo.rows.tolist(), coo.cols.tolist(), vals


_INDEX_TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from([
        "+2", "007", "1.0", "2e0", "1_0", "0x1", "", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "99999999999999999999", "٣", "2%", "%1",
    ]),
)
_VALUE_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "nan", "-nan", "inf", "-Infinity", "1e400", ".5", "5.", "+.5e-3",
        "1_0.5", "1.5d0", "0x1p3", "abc", "١", "3%",
    ]),
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\xa0"])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def matrix_market_bodies(draw):
    field = draw(st.sampled_from(["pattern", "integer", "real"]))
    symmetry = draw(st.sampled_from(
        ["general", "symmetric", "skew-symmetric"]
    ))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    lines, n_entries = [], 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["entry"] * 6 + ["blank", "comment", "odd", "ragged"]
        ))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["%", "% note", "  %x 1 2"])))
            continue
        n_entries += 1
        tokens = [
            str(draw(st.integers(1, max(nrows, 1)))),
            str(draw(st.integers(1, max(ncols, 1)))),
        ]
        if field != "pattern":
            tokens.append(repr(draw(st.floats(-1e3, 1e3))))
        if kind == "odd":
            slot = draw(st.integers(0, len(tokens) - 1))
            tokens[slot] = draw(_VALUE_TOKENS if slot == 2 else _INDEX_TOKENS)
        elif kind == "ragged":
            # Short and over-long lines alike.
            tokens = tokens[:draw(st.integers(0, len(tokens)))] + draw(
                st.lists(st.sampled_from(["9", "x", "%c", "1.5"]), max_size=2)
            )
        sep = draw(_SEPARATORS)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens))
    nnz = n_entries + draw(st.sampled_from([0] * 6 + [-1, 1]))
    if draw(st.integers(0, 9)) == 0:
        nnz = 0
    ending = draw(_ENDINGS)
    body = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return (
        _HEADER.format(field, symmetry)
        + draw(st.sampled_from(["", "% before the size line\n"]))
        + f"{nrows} {ncols} {nnz}\n"
        + body
    )


class TestFastParseEquivalence:
    """The numpy pass either returns exactly what the line loop returns
    (arrays and value bits) or hands the body to the loop."""

    @given(text=matrix_market_bodies())
    @settings(max_examples=400, deadline=None)
    def test_fast_parse_matches_line_loop(self, text):
        fast = _outcome(text)
        with _loop_only():
            loop = _outcome(text)
        assert fast == loop

    @pytest.mark.parametrize("body", [
        "1 2\n3 1\n2 2\n",
        "1 2\r\n3 1\r\n2 2\r\n",
        "\n  \n1 2\n\n3 1\n\t\n2 2",
        "% leading comments are skipped first\n\n1 2\n3 1\n2 2\n",
        "1\t2 extra tokens %\n3  1\n  2 2\n",
    ])
    def test_well_formed_bodies_take_the_fast_path(self, body):
        rows, cols, vals = mmio._entries_fast(io.StringIO(body), 3, 3, 3)
        assert rows.tolist() == [0, 2, 1]
        assert cols.tolist() == [1, 0, 1]
        assert vals is None

    @pytest.mark.parametrize("body, nnz", [
        ("1 2\n% note\n2 1\n", 2),  # later comments are the loop's
        ("1 2%x\n", 1),         # a glued '%' is a token to the loop
        ("1 2\n", 2),           # fewer lines than declared
        ("1 2\n2 1\n", 1),     # more lines than declared
        ("4 1\n", 1),           # row beyond the size line
        ("0 1\n", 1),           # 1-based indices
        ("1 2\r3 1\n", 2),     # bare CR inside a line
        ("1.0 2\n", 1),         # float index
        ("\n \n", 1),          # no data line (loadtxt would warn)
        ("", 0),                # nnz == 0
    ])
    def test_unprovable_bodies_fall_back(self, body, nnz):
        assert mmio._entries_fast(io.StringIO(body), 3, 3, nnz) is None

    def test_clean_pattern_upload_skips_the_loop(self):
        text = _HEADER.format("pattern", "general") + "3 3 2\n1 2\n3 1\n"
        with mock.patch.object(mmio, "_entries_loop", side_effect=AssertionError):
            coo = read_matrix_market_text(text)
        assert coo.nnz == 2

    @pytest.mark.parametrize("name", ["m.mtx", "m.mtx.gz"])
    def test_file_reader_rereads_after_a_late_fallback(self, tmp_path, name):
        # The fast pass consumes two entries before the comment stops it;
        # the loop must start again from the first entry.
        text = _HEADER.format("pattern", "symmetric") + (
            "% comment\n3 3 3\n1 1\r\n2 1\n% late\n3 2\n"
        )
        path = tmp_path / name
        with (gzip.open if name.endswith(".gz") else open)(path, "wb") as fh:
            fh.write(text.encode())
        fast = read_matrix_market(path)
        with _loop_only():
            loop = read_matrix_market(path)
        assert fast == loop == read_matrix_market_text(text)
        assert fast.nnz == 5

    def test_file_reader_takes_the_fast_path(self, tmp_path):
        coo = make_random_coo(12, 9, 40, seed=73, with_values=False)
        path = tmp_path / "m.mtx.gz"
        write_matrix_market(path, coo)
        with mock.patch.object(mmio, "_entries_loop", side_effect=AssertionError):
            assert read_matrix_market(path) == coo


@st.composite
def canonical_bodies(draw):
    """Bodies of digit tokens joined by one space and one newline: the
    shape the one-call pass takes, with empty, zero, leading-zero and
    long tokens (up to 21 digits) and sizes up to 10**20."""
    tokens = st.text(alphabet="0123456789", max_size=21)
    lines = draw(st.lists(st.tuples(tokens, tokens), max_size=6))
    nnz = len(lines) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    nrows = draw(st.sampled_from([6, 10**18, 10**20]))
    ncols = draw(st.sampled_from([6, 10**18, 10**20]))
    body = "".join(f"{a} {b}\n" for a, b in lines)
    return nrows, ncols, nnz, body


class TestCanonicalShape:
    """The one-call conversion of a canonical body returns exactly what
    the line loop returns, or leaves the body to loadtxt and the loop."""

    @given(case=canonical_bodies())
    @settings(max_examples=300, deadline=None)
    def test_canonical_bodies_match_line_loop(self, case):
        nrows, ncols, nnz, body = case
        text = (
            _HEADER.format("pattern", "general")
            + f"{nrows} {ncols} {nnz}\n" + body
        )
        fast = _outcome(text)
        with _loop_only():
            loop = _outcome(text)
        assert fast == loop

    @pytest.mark.parametrize("size, body", [
        ("3 4 2", "1\n2 3 4\n"),     # one token, then three
        ("3 4 1", "1\n2\n"),         # two one-token lines
        ("3 4 2", "1 \n 2\n"),       # an empty token on each line
        (f"{10**20} 3 1", "18446744073709551617 1\n"),  # past int64
        ("3 4 2", "1 2\n3 1"),        # no final newline
        ("3 4 2", "1 2\r\n3 1\r\n"),  # CRLF line endings
    ])
    def test_non_canonical_shapes_are_left_to_the_loop(self, size, body):
        nrows, ncols, nnz = (int(tok) for tok in size.split())
        assert mmio._entries_canonical(body, nrows, ncols, nnz) is None
        text = _HEADER.format("pattern", "general") + f"{size}\n{body}"
        fast = _outcome(text)
        with _loop_only():
            loop = _outcome(text)
        assert fast == loop

    def test_canonical_upload_reaches_neither_loadtxt_nor_the_loop(
        self, tmp_path, monkeypatch
    ):
        coo = make_random_coo(40, 30, 200, seed=5, with_values=False)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        text = path.read_text()
        monkeypatch.setattr(
            np, "loadtxt", mock.Mock(side_effect=AssertionError)
        )
        monkeypatch.setattr(
            mmio, "_entries_loop", mock.Mock(side_effect=AssertionError)
        )
        assert read_matrix_market_text(text) == coo


class TestLenientNumpy:
    """numpy releases that parse ``1.5`` into an int64 column must not
    take the fast path: the loop rejects such an index."""

    def test_probe_spots_lenient_loadtxt(self, monkeypatch):
        def lenient(*args, **kwargs):
            warnings.warn("integer via a float", DeprecationWarning)
            return np.array(1)

        monkeypatch.setattr(np, "loadtxt", lenient)
        assert mmio._loadtxt_rejects_float_ints() is False

    def test_probe_accepts_installed_numpy_or_falls_back(self, monkeypatch):
        monkeypatch.setattr(mmio, "_FAST_PARSE", False)
        text = _HEADER.format("pattern", "general") + "3 3 2\n1 2\n3 1\n"
        assert mmio._entries_fast(io.StringIO("1 2\n3 1\n"), 3, 3, 2) is None
        assert read_matrix_market_text(text).nnz == 2
        with pytest.raises(ValueError):
            read_matrix_market_text(
                _HEADER.format("pattern", "general") + "3 3 1\n1.5 1\n"
            )
