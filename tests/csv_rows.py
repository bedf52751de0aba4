"""The csv-module form of the row reader, kept as a test oracle.

quadflora's files were once read through ``csv.reader``, with the field
size limit lifted so that every row quadflora writes reads back. The
library now splits each line on ',' itself; tests compare its rows and
errors against this reader.
"""

import csv
import io
from typing import Optional

from quadflora.errors import FormatError

_FIELD_LIMIT = 2**31 - 1


def read_rows(path, expected_header: list[str], text: Optional[str] = None):
    """Yield (line number, fields) for each non-empty row after the header.

    text, when given, is the file's content, already read.
    """
    csv.field_size_limit(_FIELD_LIMIT)
    if text is None:
        opened = open(path, "r", encoding="utf-8", newline="")
    else:
        opened = io.StringIO(text, newline="")
    with opened as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != expected_header:
                raise FormatError(f"bad header {header!r} in {path}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise FormatError(
                        f"{path}:{lineno}: expected {len(expected_header)} fields"
                    )
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
