"""The three parts of a logit cache file, for tests that read or damage
one: the header record, the grid index and the grids' value bytes.

``build`` writes the two JSON lines as the format lays them out (compact
JSON, spaces to a multiple of 8 bytes, LF) and, with ``vouch``, sets the
header's sha256 to that of the bytes after it, so that a load with a
fingerprint takes the file as written by quadflora.
"""

import hashlib
import json


def parts(data: bytes) -> tuple[dict, list, bytes]:
    header, index, values = data.split(b"\n", 2)
    return json.loads(header), json.loads(index), values


def line(value) -> bytes:
    text = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
    return text + b" " * (-(len(text) + 1) % 8) + b"\n"


def vouch(data: bytes) -> bytes:
    """data with its header's sha256 rewritten to vouch for the bytes after it."""
    header, rest = data.split(b"\n", 1)
    record = json.loads(header)
    record["sha256"] = hashlib.sha256(rest).hexdigest()
    return line(record) + rest


def build(header: dict, index: list, values: bytes, vouched: bool = True) -> bytes:
    """A cache file of these parts."""
    data = line(header) + line(index) + values
    return vouch(data) if vouched else data
