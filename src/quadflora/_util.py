"""Small shared helpers: the CSV line reader, the naming of a bad id,
atomic file writes, 9-digit float text and the BLAS in use.

Features and head parameters are written as text with ``%.9g`` (9
significant digits); the pipeline computes on float64 and the logit
cache stores each grid's exact bits, so no value is rounded in memory.
``fmt9_rows`` writes the text of whole blocks with array arithmetic
wherever that is provably exact: for zeros and for 1e-36 <= |x| < 1e53,
all but values within 1e-6 of a 9-digit tie. ``_digits9`` finds the nine
digits ``%.9g`` prints; every other value goes through ``'%.9g'`` itself
(``fmt9_array``). ``canonical9``, the value that parsing a ``%.9g`` text
gives back, is defined by that text and serves tests as an oracle.
"""

import contextlib
import ctypes
import functools
import glob
import os
import re
import sys
import tempfile
from typing import Optional

import numpy as np

from .errors import FormatError

# %.9g prints the nine digits m = round(x * 10**k), k = 8 - e, where e is
# the decimal exponent of x. _digits9 finds them numerically for
# |k| <= _K_MAX, which keeps every exponent at two digits, and its table
# is indexed by i = e - _E_MIN, so k = _K_MAX - i.
_K_MAX = 44
_E_MIN, _E_MAX = 8 - _K_MAX, 8 + _K_MAX
_N_E = _E_MAX - _E_MIN + 1
_I_ONE = _K_MAX  # i where k = 0
_K = range(_K_MAX, -_K_MAX - 1, -1)
_SCALE = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in _K])  # fl(10**k)


def fmt9_array(values: np.ndarray) -> list[str]:
    """%.9g rendering of every value, flattened, as a list of strings."""
    return list(map("%.9g".__mod__, np.asarray(values, dtype=np.float64).ravel().tolist()))


def canonical9(values: np.ndarray) -> np.ndarray:
    """Round an array to its 9-significant-digit text: float('%.9g' % x)
    element-wise, by rendering with %.9g and parsing back."""
    x = np.asarray(values, dtype=np.float64)
    return np.fromiter(map(float, fmt9_array(x)), np.float64, count=x.size).reshape(x.shape)


def _digits9(flat: np.ndarray, m: np.ndarray):
    """The nine digits %.9g prints for each value of a 1-d array.

    Fills m with rint(x * 10**k), k = 8 - floor(log10|x|), and returns
    (i, exact): i = e - _E_MIN, the table index of the exponent e = 8 - k,
    and the mask of values where m is provably the digits, or None when
    all are. Zeros count as exact, with m = x and k = 0.

    s = x * fl(10**k) takes two roundings, within 2.3e-7 of x * 10**k
    when |s| < 1e9 + 0.5, so rint(s) is exact for s at least 1e-6 from
    a half-integer. That margin also holds every tie, which %.9g breaks
    half-even on the binary value of x, not of s. |s| must also lie in
    [1e8 - 0.04, 1e9 + 0.5): the digits of |s| just below 1e8 (log10
    rounded up to the next decade) are 1e8, and from 1e9 - 0.5 they
    round up to 1e8 of the next decade. Non-finite values and |k| > 44
    (|x| < 1e-36 or >= 1e53, clipped to the ends of the tables) fail.

    Three reductions check a whole block (min and max of |s|, max of
    |s - m|); only a block that fails them builds the mask. Temporaries
    are few and written in place: in a run, fresh pages cost more than
    the arithmetic.
    """
    scale = np.abs(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(scale, out=scale)
        scale -= _E_MIN
        i = scale.astype(np.intp)  # truncation: floor for the indices in range
        if i.min(initial=0) < 0 or i.max(initial=0) >= _N_E:
            np.clip(i, 0, _N_E - 1, out=i)
        # mode="clip" (i is in range) lets take write to out unbuffered
        _SCALE.take(i, out=scale, mode="clip")
        s = scale * flat
        np.rint(s, out=m)
        size = np.abs(s)
        s -= m
        np.abs(s, out=s)
        low, high, tie = size.min(initial=1e8), size.max(initial=0), s.max(initial=0)
        if low >= 1e8 - 0.04 and high < 1e9 - 0.5 and tie < 0.5 - 1e-6:
            return i, None
        exact = (size >= 1e8 - 0.04) & (size < 1e9 + 0.5) & (s < 0.5 - 1e-6)
    up = np.flatnonzero(exact & (size >= 1e9 - 0.5))
    exact[up[i[up] == _N_E - 1]] = False
    up = up[i[up] < _N_E - 1]
    m[up] /= 10
    i[up] += 1
    zero = np.flatnonzero(flat == 0)
    exact[zero] = True
    i[zero] = _I_ONE
    return i, exact


# fmt9_rows writes each value into a slot of 16 bytes, held as two
# little-endian uint64 words: its text, at most 15 characters where
# _digits9 is exact (as in -1.23456789e-36 or -0.000123456789), then the
# separator ';', padded with NULs. A slot's layout depends only on the sign,
# the exponent and the number of trailing zero digits, so every layout is
# tabulated (_tables). Its digits form at most two runs, split by the
# point; each run is cut from the 9 ASCII digits with a mask and shifted
# into place, by less than 64 bits, so that no shift depends on what
# numpy does for shifts of 64 bits or more. The exponents are those of
# _digits9's tables, _E_MIN.._E_MAX.
_ZERO = 2 * _N_E * 9  # the layouts of 0 and -0 follow the numeric ones,
_SPLICE = _ZERO + 2  # then that of _MARK,
_MARK = "\x01"  # which stands in the text for a value rendered by '%.9g'
_CHUNK_VALUES = 16384  # values per pass, so that temporaries stay in cache


def _pattern(negative: bool, e: int, zeros: int) -> str:
    """The %.9g text (C99 %g, precision 9) of a value whose 9 digits end
    in `zeros` zeros and whose decimal exponent is e, with 'D' for each
    digit: exponent form when e < -4 or e >= 9, trailing zeros stripped,
    no point when no fraction is left."""
    sign = "-" if negative else ""
    digits = "D" * (9 - zeros)
    if not -4 <= e < 9:
        fraction = "." + digits[1:] if zeros < 8 else ""
        return f"{sign}D{fraction}e{e:+03d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    fraction = digits[e + 1 :]
    return sign + "D" * (e + 1) + ("." + fraction if fraction else "")


def _byte_mask(n: int) -> tuple[int, int]:
    """The low n bytes of a 16-byte slot, as (low word, high word) masks."""
    mask = (1 << 8 * n) - 1
    return mask & (2**64 - 1), mask >> 64


@functools.cache
def _tables():
    """The tables of fmt9_rows, built on first use.

    Per layout: the text followed by ';', with NULs where digits go, as
    two little-endian words; the length of the text; the masks of the
    digits of the runs before and after the point; and the shift in bits
    that moves the first run into place (the second moves 8 bits more,
    past the point). Then, for 0..9999, its four ASCII digits as the
    bytes of a little-endian word and how many of them are trailing zeros.
    """
    patterns = [
        _pattern(negative, e, zeros)
        for negative in (False, True)
        for e in range(_E_MIN, _E_MAX + 1)
        for zeros in range(9)
    ] + ["0", "-0", _MARK]
    text = b"".join((p.replace("D", "\0") + ";").encode().ljust(16, b"\0") for p in patterns)
    masks, shift = [], []
    for pattern in patterns:
        runs = [n for n in (part.count("D") for part in pattern.split(".")) if n] + [0, 0]
        before, after = _byte_mask(runs[0]), _byte_mask(runs[0] + runs[1])
        masks.append([*before, after[0] & ~before[0], after[1] & ~before[1]])
        shift.append(8 * pattern.find("D") if runs[0] else 0)
    four = np.arange(10000)
    tables = (
        np.frombuffer(text, "<u8").reshape(-1, 2),
        np.array([len(p) for p in patterns]),
        np.array(masks, np.uint64),
        np.array(shift, np.uint64),
        sum((four // 10**j % 10 + ord("0")).astype(np.uint64) << 8 * (3 - j) for j in range(4)),
        sum(four % 10**j == 0 for j in range(1, 5)),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def fmt9_rows(matrix: np.ndarray) -> list[str]:
    """One string per row of a 2-d array: ';'.join('%.9g' % v for v in row).

    Values where _digits9 is exact, zeros included, are written
    numerically from their digits; the rest (non-finite values,
    |x| < 1e-36 or >= 1e53, near-ties) are rendered by '%.9g' and spliced
    in one by one.
    Rows are processed in chunks of about 16k values.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"fmt9_rows needs a 2-d array, got shape {x.shape}")
    n_rows, n_cols = x.shape
    if n_cols == 0:
        return [""] * n_rows
    step = max(1, _CHUNK_VALUES // n_cols)
    out: list[str] = []
    for start in range(0, n_rows, step):
        out += _fmt9_chunk(x[start : start + step].ravel(), n_cols)
    return out


def _fmt9_chunk(flat: np.ndarray, n_cols: int) -> list[str]:
    text, length, all_masks, all_shifts, digits4, zeros4 = _tables()
    m = np.empty_like(flat)
    i, exact = _digits9(flat, m)
    if exact is not None:
        m = np.where(exact, m, 0)
    m = np.abs(m).astype(np.int64)
    high, low = np.divmod(m, 10000)
    first, middle = np.divmod(high, 10000)
    zeros = zeros4.take(low) + np.where(low == 0, zeros4.take(middle), 0)
    layout = (np.signbit(flat) * _N_E + i) * 9 + zeros
    if exact is not None:
        layout[~exact] = _SPLICE
    is_zero = flat == 0
    layout[is_zero] = _ZERO + np.signbit(flat[is_zero])
    # The 9 digits as bytes 0..8 of two words, cut into the two runs
    # and ORed into the layout's text
    low4 = digits4.take(low)
    digits_lo = (
        first.astype(np.uint64) + ord("0") | digits4.take(middle) << 8 | (low4 & 0xFFFFFF) << 40
    )
    digits_hi = low4 >> 24
    masks = all_masks.take(layout, axis=0)
    run1_lo, run1_hi = digits_lo & masks[:, 0], digits_hi & masks[:, 1]
    run2_lo, run2_hi = digits_lo & masks[:, 2], digits_hi & masks[:, 3]
    shift1 = all_shifts.take(layout)
    shift2 = shift1 + 8
    slots = text.take(layout, axis=0)
    slots[:, 0] |= run1_lo << shift1 | run2_lo << shift2
    slots[:, 1] |= (
        run1_hi << shift1 | run1_lo >> 1 >> (63 - shift1)
        | run2_hi << shift2 | run2_lo >> 1 >> (63 - shift2)
    )
    # The ';' after each row's last value becomes the line break
    # that splits the text into rows.
    slots = slots.view(np.uint8)
    row_ends = np.arange(n_cols - 1, len(flat), n_cols)
    slots[row_ends, length[layout[row_ends]]] = ord("\n")
    joined = slots.tobytes().translate(None, b"\0").decode("ascii")
    # Each _MARK, in order, gives way to the text of one value left to '%.9g'.
    fallback = layout == _SPLICE
    if fallback.any():
        pieces = joined.split(_MARK)
        spliced = [""] * (2 * len(pieces) - 1)
        spliced[::2] = pieces
        spliced[1::2] = fmt9_array(flat[fallback])
        joined = "".join(spliced)
    return joined.split("\n")[:-1]


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename (UTF-8, LF)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Characters no quadflora file holds: fields are never quoted, and lines
# end in LF or CRLF.
_FORBIDDEN = (
    ('"', "quote (fields are never quoted)"),
    ("\0", "NUL character"),
    ("\r", "carriage return inside a line"),
)


def _line(path, lineno: int, line: str) -> str:
    """One line without its LF or CRLF end, checked for forbidden characters."""
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    for char, name in _FORBIDDEN:
        if char in line:
            raise FormatError(f"{path}:{lineno}: unexpected {name}")
    return line


def decode_text(path, data: bytes) -> str:
    """A file's bytes as UTF-8 text; a FormatError naming the file if they are not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _text_lines(text: str):
    """The lines of a text, each with its LF end (the last may lack one)."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def read_row_lines(path, expected_header: list[str], text: Optional[str] = None, first_line=1):
    """Yield (line number, fields, line) for each non-empty row after the
    header, where line is the row's line as read, with its line end.

    The file is streamed line by line as UTF-8 and each line is split on
    ','. A CR before the LF is dropped, so CRLF files read; a quote, a
    NUL or any other CR is an error that names the file and line.
    text, when given, is the file's content, already read; from a
    first_line past 1, it is the file's lines from that one on, no header.
    """
    if text is None:
        opened = open(path, "r", encoding="utf-8", newline="\n")
    else:
        opened = contextlib.nullcontext(_text_lines(text))
    n_fields = len(expected_header)
    with opened as lines:
        try:
            if first_line == 1:
                header = next(lines, None)
                if header is not None:
                    header = _line(path, 1, header)
                    header = header.split(",") if header else []
                if header != expected_header:
                    raise FormatError(f"bad header {header!r} in {path}")
            for lineno, raw in enumerate(lines, start=max(first_line, 2)):
                line = _line(path, lineno, raw)
                if not line:
                    continue
                # The split stops before the last (values) field, and a
                # search for ',' is much faster than a split over it.
                fields = line.split(",", n_fields - 1)
                if len(fields) != n_fields or "," in fields[-1]:
                    raise FormatError(f"{path}:{lineno}: expected {n_fields} fields")
                yield lineno, fields, raw
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_rows(path, expected_header: list[str], text: Optional[str] = None):
    """Yield (line number, fields) for each non-empty row after the
    header: read_row_lines without the lines."""
    for lineno, fields, _ in read_row_lines(path, expected_header, text):
        yield lineno, fields


def bad_id(fields) -> str:
    """Why int() refuses the first of these fields that it refuses,
    naming that field by a short prefix."""
    # int() refuses decimal strings longer than this limit (Python >= 3.11)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for field in fields:
        try:
            int(field)
        except ValueError:
            text = field.strip()
            shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
            # int()'s syntax: one optional sign, single underscores between digits
            syntax_ok = re.fullmatch(r"[+-]?\d+(_\d+)*", text)
            if syntax_ok and 0 < limit < len(text.lstrip("+-").replace("_", "")):
                return f"id longer than {limit} digits: {shown}"
            return f"non-integer field: {shown}"
    return "non-integer field"


@functools.cache
def _openblas():
    """The thread-count and config getters of the OpenBLAS that numpy's
    wheel bundles (numpy.libs/libscipy_openblas*), or None without it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.argtypes, threads.restype = [], ctypes.c_int
        config.argtypes, config.restype = [], ctypes.c_char_p
        return threads, config
    return None


def blas_record() -> str:
    """The BLAS build and thread count in use, e.g. 'OpenBLAS 0.3.31
    ... SkylakeX MAX_THREADS=64; threads=2', or 'unknown'.

    A product's last bits can depend on both, so logits computed under
    another BLAS setting need not match these to the digit.
    """
    getters = _openblas()
    if getters is None:
        return "unknown"
    threads, config = getters
    return f"{' '.join(config().decode('ascii', 'replace').split())}; threads={threads()}"
