"""Small shared helpers: the CSV line reader, atomic file writes and
canonical float text.

All numeric values that cross a file boundary are rendered with ``%.9g``
(9 significant digits). ``canonical9`` rounds freshly computed arrays to
exactly the double that parsing that text gives back, so a value read
back from a file is bit-identical to the value used in memory.

``canonical9`` rounds numerically wherever that is provably exact
(Clinger's fast path, 1990, *How to Read Floating Point Numbers
Accurately*) and sends only the rest through the text itself
(``_canonical9_text``), which also serves as its test oracle.
"""

import io
import os
import tempfile
from typing import Optional

import numpy as np

from .errors import FormatError

# 10**k for k in -22..22, split so that x * _MUL / _DIV and m / _MUL * _DIV
# each do one rounded operation: a factor of 1.0 is exact. 10**22 is the
# largest power of ten that is an exact double.
_EXACT_POW10 = 22
_MUL = np.array([1.0] * _EXACT_POW10 + [float(10**k) for k in range(_EXACT_POW10 + 1)])
_DIV = _MUL[::-1].copy()


def fmt9(x: float) -> str:
    """Render one float with 9 significant digits."""
    return "%.9g" % x


def fmt9_array(values: np.ndarray) -> list[str]:
    """%.9g rendering of every value, flattened, as a list of strings."""
    return list(map("%.9g".__mod__, np.asarray(values, dtype=np.float64).ravel().tolist()))


def _canonical9_text(values: np.ndarray) -> np.ndarray:
    """canonical9 by definition: render with %.9g and parse back."""
    x = np.asarray(values, dtype=np.float64)
    return np.fromiter(map(float, fmt9_array(x)), np.float64, count=x.size).reshape(x.shape)


def canonical9(values: np.ndarray) -> np.ndarray:
    """Round an array to its 9-significant-digit text representation.

    Bit-identical to ``float('%.9g' % x)`` element-wise, so
    fmt9_array(canonical9(v)) == fmt9_array(v), and parsing the rendered
    text recovers canonical9(v) exactly.

    Numeric path: with e = floor(log10|x|) and k = 8 - e, the nine digits
    are m = rint(s), s = x * 10**k (x / 10**-k when k < 0), and the result
    is m / 10**k (m * 10**-k). For |k| <= 22, 10**|k| is an exact double,
    so s is x * 10**k with one IEEE rounding (at most 6e-8 when |s| < 1e9).
    Away from half-integers that rounding cannot change rint, so m is the
    exact 9-digit integer %.9g prints, and the result is the correctly
    rounded quotient or product of two exact doubles: the value strtod
    returns for the text.

    The text path takes every value where that argument may not hold:
    non-finite values and zeros; |k| > 22 (|x| < 1e-14 or |x| >= 1e31),
    which runs with k = 0 and so fails the next check; |s| outside
    [1e8, 1e9 - 0.5), which catches a log10 that is off by one and a
    round-up to ten digits; and s within 1e-6 of a half-integer, which
    holds every exact tie (%.9g breaks those half-even on the binary
    value of x, not of s) with a wide margin over the rounding of s.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    # Allocated before the temporaries, so that rows kept in a logit cache
    # sit together on the heap; warm runs over the cache read them faster.
    out = np.empty_like(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 8 - np.floor(np.log10(np.abs(flat)))
        idx = np.where(np.abs(k) <= _EXACT_POW10, k, 0).astype(np.intp) + _EXACT_POW10
        mul, div = _MUL[idx], _DIV[idx]
        s = flat * mul / div
        m = np.rint(s)
        np.divide(m, mul, out=out)
        out *= div
        size = np.abs(s)
        slow = ~((size >= 1e8) & (size < 1e9 - 0.5) & (np.abs(s - m) < 0.5 - 1e-6))
    if slow.any():
        out[slow] = _canonical9_text(flat[slow])
    return out.reshape(x.shape)


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


def read_rows(path, expected_header: list[str], text: Optional[str] = None):
    """Yield (line number, fields) for each non-empty row after the header.

    The file is streamed line by line as UTF-8 and each line is split on
    ','. A CR before the LF is dropped, so CRLF files read; a quote, a
    NUL or any other CR is an error that names the file and line.
    text, when given, is the file's content, already read.
    """
    if text is None:
        opened = open(path, "r", encoding="utf-8", newline="\n")
    else:
        opened = io.StringIO(text, newline="\n")
    n_fields = len(expected_header)
    with opened as fh:
        try:
            header = next(fh, None)
            if header is not None:
                header = _line(path, 1, header)
                header = header.split(",") if header else []
            if header != expected_header:
                raise FormatError(f"bad header {header!r} in {path}")
            for lineno, line in enumerate(fh, start=2):
                line = _line(path, lineno, line)
                if not line:
                    continue
                # The split stops before the last (values) field, and a
                # search for ',' is much faster than a split over it.
                fields = line.split(",", n_fields - 1)
                if len(fields) != n_fields or "," in fields[-1]:
                    raise FormatError(f"{path}:{lineno}: expected {n_fields} fields")
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
