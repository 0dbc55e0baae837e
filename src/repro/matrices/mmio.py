"""Matrix Market I/O (coordinate format).

The paper's suite comes from Tim Davis' collection, distributed as Matrix
Market files.  This reader/writer lets users run the identical harness on
the real matrices when they have them; the reproduction itself uses the
synthetic suite (no network access — see DESIGN.md).

Supports the ``matrix coordinate`` header with ``real``, ``integer`` and
``pattern`` fields and ``general``/``symmetric``/``skew-symmetric``
symmetries.  Indices are 1-based on disk, 0-based in memory.
"""

from __future__ import annotations

import gzip
import io
import itertools
import warnings
from array import array
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from ..errors import MatrixMarketError
from ..formats.coo import COOMatrix

__all__ = [
    "read_matrix_market",
    "read_matrix_market_text",
    "write_matrix_market",
]

_SUPPORTED_FIELDS = ("real", "integer", "pattern")
_SUPPORTED_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


def _loadtxt_rejects_float_ints() -> bool:
    """Whether ``np.loadtxt`` refuses an int64 field written as a float.

    Older numpy releases parse ``1.5`` into an int64 column via float, with
    only a DeprecationWarning, where the line loop's ``int()`` raises; on
    those the fast path stays off.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            np.loadtxt(["1.5"], dtype=np.int64)
        except ValueError:
            return True
    return False


_FAST_PARSE = _loadtxt_rejects_float_ints()


def _open(path: str | Path, mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _data_lines(handle: IO) -> Iterator[str]:
    # readline, not iteration: the reader takes ``tell()`` between lines.
    for line in iter(handle.readline, ""):
        line = line.strip()
        if line and not line.startswith("%"):
            yield line


def read_matrix_market(path: str | Path) -> COOMatrix:
    """Read a Matrix Market coordinate file (optionally gzipped)."""
    with _open(path, "r") as fh:
        return _read_handle(fh, source=str(path))


def read_matrix_market_text(text: str, *, source: str = "<string>") -> COOMatrix:
    """Parse Matrix Market coordinate data held in a string.

    Same grammar as :func:`read_matrix_market`; used by the advisor service
    to accept matrices posted over HTTP without touching the filesystem.
    """
    return _read_handle(io.StringIO(text), source=source)


def _read_handle(fh: IO, *, source: str) -> COOMatrix:
    path = source
    header = fh.readline().strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"bad header in {path}: {' '.join(header)}")
    _, objtype, fmt, field, symmetry = (h.lower() for h in header)
    if objtype != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"only 'matrix coordinate' files are supported, got "
            f"{objtype} {fmt}"
        )
    if field not in _SUPPORTED_FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

    size_line = next(_data_lines(fh), None)
    if size_line is None:
        raise MatrixMarketError(f"missing size line in {path}")
    try:
        nrows, ncols, nnz = (int(tok) for tok in size_line.split())
    except ValueError:
        raise MatrixMarketError(
            f"bad size line in {path}: {size_line!r}"
        ) from None

    start = fh.tell()
    entries = None
    if field == "pattern":
        entries = _entries_fast(fh, nrows, ncols, nnz)
    if entries is None:
        fh.seek(start)
        entries = _entries_loop(_data_lines(fh), nnz, field, path)
    rows, cols, vals = entries

    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        extra_r, extra_c = cols[off], rows[off]
        rows = np.concatenate([rows, extra_r])
        cols = np.concatenate([cols, extra_c])
        if vals is not None:
            mirror = vals[off]
            if symmetry == "skew-symmetric":
                mirror = -mirror
            vals = np.concatenate([vals, mirror])
    return COOMatrix(nrows, ncols, rows, cols, vals)


def _entries_fast(
    fh: IO, nrows: int, ncols: int, nnz: int
) -> tuple[np.ndarray, np.ndarray, None] | None:
    """A ``pattern`` data section parsed in one pass of numpy's C reader.

    Returns ``None`` whenever the pass cannot prove the line loop would
    return the same arrays; the loop then rereads the section and decides,
    with its own messages.  An in-memory body goes first to
    :func:`_entries_canonical`; one it does not take, and every file,
    go to ``loadtxt``.  ``loadtxt`` splits lines on the same whitespace
    as ``str.split``, skips blank lines, takes the first two tokens and
    rejects short lines and float, overflowing or non-ASCII indices.  With
    ``comments=None`` a ``%`` anywhere in an index rejects the body too.
    The entry count and index range are checked after.
    """
    if not _FAST_PARSE or nnz <= 0:
        return None
    if isinstance(fh, io.StringIO):
        start = fh.tell()
        entries = _entries_canonical(fh.read(), nrows, ncols, nnz)
        if entries is not None:
            return entries
        fh.seek(start)
    # loadtxt warns on input without data; a body with none takes the loop.
    first = next(_data_lines(fh), None)
    if first is None:
        return None
    try:
        table = np.loadtxt(
            itertools.chain([first], fh),
            dtype=np.int64,
            comments=None,
            usecols=(0, 1),
            ndmin=2,
        )
    except ValueError:
        return None
    if table.shape[0] != nnz:
        return None
    return _in_range(table[:, 0], table[:, 1], nrows, ncols)


#: Bytes of a canonical body: two separators and the ten digits.
_SPACE, _NEWLINE, _ZERO, _NINE = b" \n09"
#: Longest index token a canonical body may hold: numpy saturates an
#: int64 overflow to 2**63 - 1 without a word, and 18 digits always fit.
_MAX_DIGITS = 18


def _entries_canonical(
    body: str, nrows: int, ncols: int, nnz: int
) -> tuple[np.ndarray, np.ndarray, None] | None:
    """A canonical ``pattern`` body converted by one ``np.fromstring`` call.

    Canonical: every data line is two unsigned decimal integers joined by
    one space and ending in ``\\n``, which is what
    :func:`write_matrix_market` writes.  The line loop reads such a body
    exactly as ``fromstring`` does, so the pass proves the shape first,
    over the bytes at once, and returns ``None`` for anything else: the
    bytes below ``'0'`` must alternate space and newline, number exactly
    ``2 * nnz`` and end the body, no byte may lie above ``'9'``, no token
    may be longer than :data:`_MAX_DIGITS`, ``fromstring`` must return
    ``2 * nnz`` values (it skips an empty token) and every index must be
    in range.
    """
    try:
        raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    if raw.size == 0 or raw[-1] != _NEWLINE or raw.max() > _NINE:
        return None
    seps = np.flatnonzero(raw < _ZERO)
    if (
        seps.shape[0] != 2 * nnz
        or (raw[seps[0::2]] != _SPACE).any()
        or (raw[seps[1::2]] != _NEWLINE).any()
        or seps[0] > _MAX_DIGITS
        or np.diff(seps).max() > _MAX_DIGITS + 1
    ):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if values.shape[0] != 2 * nnz:
        return None
    return _in_range(values[0::2], values[1::2], nrows, ncols)


def _in_range(
    rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int
) -> tuple[np.ndarray, np.ndarray, None] | None:
    """The 0-based pattern of 1-based ``rows``/``cols``, or ``None`` when
    an index lies outside the size line."""
    if (
        rows.min() < 1 or rows.max() > nrows
        or cols.min() < 1 or cols.max() > ncols
    ):
        return None
    return rows - 1, cols - 1, None


def _entries_loop(
    lines: Iterable[str], nnz: int, field: str, path: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The data section converted one line at a time (the reference)."""
    # Growable typed buffers, read in place by the returned arrays: a
    # declared count must not size an allocation (10**12 entries would not
    # fit) when the body may hold fewer.
    rows, cols = array("q"), array("q")
    vals = None if field == "pattern" else array("d")
    for line in lines:
        if len(rows) >= nnz:
            raise MatrixMarketError(f"more entries than declared in {path}")
        tok = line.split()
        if len(tok) < 2:
            raise MatrixMarketError(
                f"missing column index on line {line!r} of {path}"
            )
        try:
            rows.append(int(tok[0]) - 1)
            cols.append(int(tok[1]) - 1)
        except OverflowError:
            raise MatrixMarketError(
                f"index out of range on line {line!r} of {path}"
            ) from None
        if vals is not None:
            if len(tok) < 3:
                raise MatrixMarketError(
                    f"missing value on line {line!r} of {path}"
                )
            vals.append(float(tok[2]))
    if len(rows) != nnz:
        raise MatrixMarketError(
            f"{path} declares {nnz} entries but contains {len(rows)}"
        )
    return (
        np.frombuffer(rows, dtype=np.int64),
        np.frombuffer(cols, dtype=np.int64),
        None if vals is None else np.frombuffer(vals, dtype=np.float64),
    )


def write_matrix_market(path: str | Path, coo: COOMatrix) -> None:
    """Write a COO matrix as a general real/pattern coordinate file."""
    field = "pattern" if coo.values is None else "real"
    with _open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write("% written by repro (blocked SpMV reproduction)\n")
        fh.write(f"{coo.nrows} {coo.ncols} {coo.nnz}\n")
        if coo.values is None:
            for i, j in zip(coo.rows.tolist(), coo.cols.tolist()):
                fh.write(f"{i + 1} {j + 1}\n")
        else:
            for i, j, v in zip(
                coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist()
            ):
                fh.write(f"{i + 1} {j + 1} {v!r}\n")
