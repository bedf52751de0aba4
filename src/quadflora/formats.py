"""Bit-exact file formats and flat key=value run configuration.

All CSVs are UTF-8 with LF line endings, carry a header row, and are
written in sorted id order through an atomic temp-file rename, so
reruns with identical inputs produce byte-identical files. Fields are
never quoted: readers (_util.read_rows) split each line on ',', also
read CRLF files, and reject a quote, a NUL or any other CR with an
error naming the file and line. Features and head parameters are
rendered with 9 significant digits, and the pipeline works on the
values parsed from that text; the logit cache stores each grid's exact
float64 bits, so a cache round-trip never changes a result.

Formats
-------
taxonomy       species_id,genus_id,family_id            see taxonomy
ground truth   quadrat_id,transect_id,species_ids       ids ;-separated, ascending
submission     quadrat_id,species_ids                   ids ;-separated, ascending
features       quadrat_id,transect_id,grid_cells,feature_dim,row,col,values
head registry  level,head_id,param,row,values           param in w,b,w1,b1,w2,b2
logit cache    model_id,quadrat_id,crop_pct,scale,level,values_f64le_b64   one line per grid
fingerprint    JSON sidecar <logit cache>.fingerprint   see LogitCache
config         flat "key = value" lines, '#' comments

A logit cache's sidecar records the byte count and sha256 of the lines
of each quadrat and each head once they have been checked and parsed.
They are read first (sidecar_records), and vouch for those lines even
if the cache is then dropped. A features file is checked line by line,
but for its float values, unless its quadrats' lines hash to those
records, each quadrat's lines in one run (so interleaved quadrats or a
blank line are checked line by line on every run): then a quadrat's
lines, and only its own, are checked when its features are first
needed. Each quadrat's values are parsed only then (a logit cache
miss). Every line of a head registry is checked; the heads a run uses
are parsed at load, except those whose lines hash to their records: a
cache miss parses these. So a run served entirely from a cache parses
no value.
Text values are parsed one block at a time (a quadrat's cells, a head
parameter), each with one np.array call; a bad value still names its
own line. They are written in blocks too, through _util.fmt9_rows: a
quadrat's cells per call, and all head parameters of one width per
call. Values are rendered numerically where that is provably exact
(zeros, and 1e-36 <= |x| < 1e53 away from 9-digit ties), and by
'%.9g', the fallback and the oracle, elsewhere. A cached grid is the
base64 of its little-endian float64 bytes, decoded with one b64decode
and one np.frombuffer call.
"""

import base64
import functools
import hashlib
import json
import os
import warnings
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from ._util import (
    atomic_write_text,
    bad_id,
    blas_record,
    decode_text,
    fmt9_rows,
    read_row_lines,
    read_rows,
)
from .ensemble import HeadSelection
from .errors import (
    ConfigError,
    DuplicatePredictionError,
    FormatError,
    QuadfloraError,
    ShapeError,
)
from .metric import GroundTruthTable, ScoreReport
from .pipeline import RunConfig
from .selection import PredictionSet, SelectionConfig
from .synthworld import (
    LEVELS,
    Head,
    HeadRegistry,
    LinearHead,
    Quadrat,
    SynthConfig,
    TwoLayerHead,
)

GROUND_TRUTH_HEADER = ["quadrat_id", "transect_id", "species_ids"]
SUBMISSION_HEADER = ["quadrat_id", "species_ids"]
FEATURES_HEADER = [
    "quadrat_id", "transect_id", "grid_cells", "feature_dim", "row", "col", "values",
]
HEADS_HEADER = ["level", "head_id", "param", "row", "values"]
CACHE_HEADER = ["model_id", "quadrat_id", "crop_pct", "scale", "level", "values_f64le_b64"]


def _parse_id_list(field: str, where: str) -> tuple[int, ...]:
    if not field:
        raise FormatError(f"{where}: empty species id list")
    parts = field.split(";")
    try:
        ids = tuple(map(int, parts))
    except ValueError as exc:
        raise FormatError(f"{where}: species id list: {bad_id(parts)}") from exc
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise FormatError(f"{where}: species ids must be strictly ascending")
    return ids


def _parse_values(field: str, where: str) -> np.ndarray:
    try:
        values = np.array(field.split(";"), dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{where}: bad values field") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return values


def _parse_block(rows: Sequence[tuple[str, str]]) -> Optional[np.ndarray]:
    """The values fields of (where, field) rows as one (rows x values)
    matrix, parsed by one np.array call; None if the rows differ in
    length. If a value is bad or non-finite, the rows are parsed one by
    one, so the error names that row's own line."""
    try:
        values = np.array([field.split(";") for _, field in rows], dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    parsed = [_parse_values(field, where) for where, field in rows]
    if any(len(p) != len(parsed[0]) for p in parsed):
        return None
    return np.vstack(parsed)


def _format_blocks(blocks: Sequence[np.ndarray]) -> list[list[str]]:
    """fmt9_rows of each 2-d block, with one call for all blocks of equal
    width, so that small blocks share its fixed cost."""
    by_width: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_width.setdefault(block.shape[1], []).append(i)
    out: list[list[str]] = [[] for _ in blocks]
    for indices in by_width.values():
        lines = iter(fmt9_rows(np.vstack([blocks[i] for i in indices])))
        for i in indices:
            out[i] = [next(lines) for _ in range(len(blocks[i]))]
    return out


# ---------------------------------------------------------------- ground truth

def write_ground_truth(gt: GroundTruthTable, path) -> None:
    lines = [",".join(GROUND_TRUTH_HEADER)]
    for qid in sorted(gt.quadrats):
        tid, truth = gt.quadrats[qid]
        lines.append(f"{qid},{tid}," + ";".join(str(s) for s in sorted(truth)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_ground_truth(path) -> GroundTruthTable:
    quadrats = {}
    for lineno, (qid, tid, ids) in read_rows(path, GROUND_TRUTH_HEADER):
        if qid in quadrats:
            raise FormatError(f"{path}:{lineno}: duplicate quadrat {qid}")
        quadrats[qid] = (tid, frozenset(_parse_id_list(ids, f"{path}:{lineno}")))
    if not quadrats:
        raise FormatError(f"no ground-truth rows in {path}")
    return GroundTruthTable(quadrats=quadrats)


# ----------------------------------------------------------------- submission

def write_submission(
    preds: Sequence[PredictionSet], path, species_labels: Optional[np.ndarray] = None
) -> None:
    """Write predictions sorted by quadrat id.

    If species_labels is given (the taxonomy's label array), dense
    species indices are translated back to their original ids and
    validated against the taxonomy.
    """
    rows = {}
    for p in preds:
        if p.quadrat_id in rows:
            raise DuplicatePredictionError(f"duplicate prediction for {p.quadrat_id}")
        ids = p.species
        if species_labels is not None:
            if min(ids) < 0 or max(ids) >= len(species_labels):
                raise FormatError(
                    f"prediction for {p.quadrat_id} has species outside the taxonomy"
                )
            ids = tuple(int(species_labels[s]) for s in ids)
        rows[p.quadrat_id] = sorted(ids)
    lines = [",".join(SUBMISSION_HEADER)]
    for qid in sorted(rows):
        lines.append(f"{qid}," + ";".join(str(s) for s in rows[qid]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_submission(path) -> list[PredictionSet]:
    preds = []
    seen = set()
    for lineno, (qid, ids) in read_rows(path, SUBMISSION_HEADER):
        if qid in seen:
            raise DuplicatePredictionError(f"{path}:{lineno}: duplicate quadrat {qid}")
        seen.add(qid)
        preds.append(
            PredictionSet(quadrat_id=qid, species=_parse_id_list(ids, f"{path}:{lineno}"))
        )
    if not preds:
        raise FormatError(f"no submission rows in {path}")
    return preds


# ------------------------------------------------------------------- features

def write_quadrat_features(quadrats: Sequence[Quadrat], path) -> None:
    lines = [",".join(FEATURES_HEADER)]
    for q in sorted(quadrats, key=lambda q: q.quadrat_id):
        cells = q.features()
        if cells is None:
            raise FormatError(f"quadrat {q.quadrat_id} has no features to write")
        dim = cells.shape[2]
        prefix = f"{q.quadrat_id},{q.transect_id},{q.grid_cells},{dim},"
        for i, values in enumerate(fmt9_rows(cells.reshape(-1, dim))):
            row, col = divmod(i, q.grid_cells)
            lines.append(f"{prefix}{row},{col},{values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class _LineRecords(dict):
    """The byte count and sha256 of each key's lines, streamed: add(key,
    line) each line, in file order with its line end, then record(key).
    A logit cache's sidecar holds these records of quadrats and heads."""

    def add(self, key, line: str) -> None:
        data = line.encode("utf-8")
        sha, size = self.get(key) or (hashlib.sha256(), 0)
        sha.update(data)
        self[key] = (sha, size + len(data))

    def record(self, key) -> dict:
        sha, size = self[key]
        return {"bytes": size, "sha256": sha.hexdigest()}


class _FeatureRows:
    """One quadrat's lines of a features file.

    record is the byte count and sha256 of those lines, in file order and
    with their line ends, which fingerprints logit caches computed from
    them. rows maps each (row, col) to its line number and values field,
    once the lines are checked. While a recorded digest vouches for them
    (_recorded), span holds instead the file's bytes, the start and stop
    of the lines in them, and a function that finds the file's LF offsets,
    once for all its quadrats, to number the lines. Calling the object
    checks those lines then, and only those, and parses the values, once,
    into the (grid, grid, dim) cell array.
    """

    def __init__(self, path, qid: str, meta: tuple[str, int, int]):
        self.path, self.qid, self.meta = path, qid, meta  # meta: transect, grid, dim
        self.rows: dict[tuple[int, int], tuple[int, str]] = {}
        self.span: Optional[tuple[bytes, int, int, Callable[[], np.ndarray]]] = None
        self.record: dict = {}
        self.cells: Optional[np.ndarray] = None

    def __call__(self) -> np.ndarray:
        if self.cells is None:
            if self.span is not None:
                data, start, stop, newlines = self.span
                first_line = int(np.searchsorted(newlines(), start)) + 1
                text = decode_text(self.path, data[start:stop])
                self.rows = _check_features(self.path, text, first_line)[self.qid].rows
                self.span = None
            _, grid, dim = self.meta
            cells = np.empty((grid, grid, dim))
            cells.reshape(-1, dim)[[r * grid + c for r, c in self.rows]] = _parse_block(
                [(f"{self.path}:{lineno}", field) for lineno, field in self.rows.values()]
            )
            self.cells, self.rows = cells, {}
        return self.cells


def _recorded(path, records: Mapping[str, dict]) -> Optional[dict[str, _FeatureRows]]:
    """Every quadrat of a features file, its lines unchecked, if the file
    after its header is one run of lines per quadrat, each run of the byte
    count and sha256 recorded for that quadrat; else None.

    The records come from a logit cache's sidecar, which holds them only
    for lines that _check_features accepted and whose values were parsed.
    A quadrat's transect, grid and dim are read from its first line; a
    grid or dim that is not an integer >= 1 there is a mismatch, which
    _check_features then reports.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = (",".join(FEATURES_HEADER) + "\n").encode()
    if not data.startswith(header):
        return None
    view = memoryview(data)
    newlines = functools.cache(lambda: np.flatnonzero(np.frombuffer(data, np.uint8) == 10))
    sources: dict[str, _FeatureRows] = {}
    start = len(header)
    while start < len(data):
        qid = data[start : data.find(b",", start)].decode("utf-8", "replace")
        record = records.get(qid)
        if record is None or qid in sources:
            return None
        stop = start + record["bytes"]
        if stop > len(data) or (stop < len(data) and data[stop - 1] != ord("\n")):
            return None
        if hashlib.sha256(view[start:stop]).hexdigest() != record["sha256"]:
            return None
        # the first line (or, with no LF, all but the last byte) holds the metadata
        first = data[start : data.find(b"\n", start, stop)]
        try:
            _, tid, grid, dim, _ = first.decode().split(",", 4)
            grid, dim = int(grid), int(dim)
        except ValueError:  # UnicodeDecodeError included
            return None
        if grid < 1 or dim < 1:
            return None
        source = sources[qid] = _FeatureRows(path, qid, (tid, grid, dim))
        source.record, source.span = dict(record), (data, start, stop, newlines)
        start = stop
    return sources or None


def _check_features(path, text: Optional[str] = None, first_line: int = 1) -> dict:
    """Every quadrat, each line checked, but for the float parse: header,
    field count, UTF-8, integer fields, bounds, value count, duplicate and
    missing cells, metadata consistency. The lines are streamed from the
    file, or are those of text: the file's lines from first_line on, the
    span of one quadrat that _recorded accepted."""
    sources: dict[str, _FeatureRows] = {}
    records = _LineRecords()
    for lineno, row, line in read_row_lines(path, FEATURES_HEADER, text, first_line):
        qid, tid, grid_s, dim_s, r_s, c_s, values = row
        where = f"{path}:{lineno}"
        try:
            grid, dim, r, c = int(grid_s), int(dim_s), int(r_s), int(c_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad integer field") from exc
        source = sources.get(qid)
        if source is None:
            if sources and first_line > 1:  # text is the lines recorded for one quadrat
                raise FormatError(f"{where}: quadrat {qid} inside another's recorded lines")
            if grid < 1 or dim < 1:
                raise FormatError(f"{where}: grid size and feature dim must be >= 1")
            source = sources[qid] = _FeatureRows(path, qid, (tid, grid, dim))
        elif source.meta != (tid, grid, dim):
            raise FormatError(f"{where}: inconsistent metadata for {qid}")
        if not (0 <= r < grid and 0 <= c < grid):
            raise FormatError(f"{where}: cell ({r},{c}) outside {grid}x{grid} grid")
        n_values = values.count(";") + 1
        if n_values != dim:
            raise FormatError(f"{where}: expected {dim} values, got {n_values}")
        if (r, c) in source.rows:
            raise FormatError(f"{where}: duplicate cell ({r},{c}) for {qid}")
        source.rows[r, c] = (lineno, values)
        records.add(qid, line)
    if not sources:
        raise FormatError(f"no feature rows in {path}")
    for qid, source in sorted(sources.items()):
        if len(source.rows) != source.meta[1] ** 2:
            raise FormatError(f"{path}: quadrat {qid} is missing cells")
        source.record = records.record(qid)
    return sources


def load_quadrat_features(path, records: Optional[Mapping[str, dict]] = None) -> list[Quadrat]:
    """Rebuild quadrats (without truth sets) from a features file.

    Every line is checked but for the float parse (_check_features),
    unless records (sidecar_records(cache)["quadrats"]) vouch for the
    whole file (_recorded): then a quadrat's lines are checked, and only
    its own, the first time its features are needed. A quadrat's values
    are parsed then (Quadrat.features), and a check or parse error names
    the file and line then. Each quadrat's _FeatureRows holds the byte
    count and sha256 of its lines, which fingerprint logit caches
    computed from it.
    """
    sources = _recorded(path, records) if records else None
    if sources is None:
        sources = _check_features(path)
    return [
        Quadrat(
            quadrat_id=qid, transect_id=rows.meta[0], grid_cells=rows.meta[1], cells=None,
            load_cells=rows,
        )
        for qid, rows in sorted(sources.items())
    ]


# -------------------------------------------------------------- head registry

class _RecordedHead:
    """A head whose lines hash to their record in a logit cache's sidecar,
    so they passed _head_of before: parsed on first use, from those lines."""

    def __init__(self, build: Callable[[], Head]):
        self._build = build

    @functools.cached_property
    def head(self) -> Head:
        return self._build()

    # what pipeline uses of a head, taken from the parsed one
    in_dim = property(lambda self: self.head.in_dim)
    apply = property(lambda self: self.head.apply)


def _head_params(head) -> dict[str, np.ndarray]:
    if isinstance(head, _RecordedHead):
        head = head.head
    if isinstance(head, LinearHead):
        return {"w": head.weight, "b": head.bias}
    if isinstance(head, TwoLayerHead):
        return {"w1": head.w1, "b1": head.b1, "w2": head.w2, "b2": head.b2}
    raise FormatError(f"cannot serialize head of type {type(head).__name__}")


def write_head_registry(registry: HeadRegistry, path) -> None:
    lines = [",".join(HEADS_HEADER)]
    params = [
        (f"{level},{head_id},{param}", np.atleast_2d(array))
        for level in LEVELS
        for head_id in sorted(registry.heads.get(level, {}))
        for param, array in sorted(_head_params(registry.heads[level][head_id]).items())
    ]
    for (prefix, _), rows in zip(params, _format_blocks([m for _, m in params])):
        lines.extend(f"{prefix},{row},{values}" for row, values in enumerate(rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _head_of(path, name: str, params: dict[str, dict[int, tuple[str, str]]]) -> Head:
    """A head from its rows, parsed and checked for missing rows, lengths,
    bias rows and shapes; name is "level/head_id"."""
    matrices = {}
    for param, rows in params.items():
        matrix = _parse_block([rows[i] for i in sorted(rows)])
        if sorted(rows) != list(range(len(rows))):
            raise FormatError(f"{path}: {name}/{param} has missing rows")
        if matrix is None:
            raise FormatError(f"{path}: {name}/{param} rows differ in length")
        if param.startswith("b") and len(matrix) != 1:
            raise FormatError(f"{path}: head {name} has {len(matrix)} rows of bias {param}")
        matrices[param] = matrix
    if set(matrices) == {"w", "b"}:
        head = LinearHead(matrices["w"], matrices["b"][0])
        consistent = head.bias.shape == head.weight.shape[:1]
    elif set(matrices) == {"w1", "b1", "w2", "b2"}:
        head = TwoLayerHead(matrices["w1"], matrices["b1"][0], matrices["w2"], matrices["b2"][0])
        consistent = (
            head.b1.shape == head.w1.shape[:1]
            and head.w2.shape[1:] == head.w1.shape[:1]
            and head.b2.shape == head.w2.shape[:1]
        )
    else:
        raise FormatError(f"{path}: head {name} has params {sorted(matrices)}")
    if not consistent:
        raise FormatError(f"{path}: head {name} has inconsistent shapes")
    return head


def load_head_registry(
    path, used: Optional[Collection[tuple[str, str]]] = None, records: Optional[Mapping] = None
) -> HeadRegistry:
    """The heads of a registry file; only the (level, head id) pairs in
    used, when given. Every row is checked for its level, param, row index
    and duplicates, and the heads returned are parsed and checked at load.

    With records (sidecar_records(cache)["heads"]), the byte count and
    sha256 of each returned head's lines, in file order with their line
    ends, go into the registry's records by "level/head_id"; a head whose
    lines hash to its record is returned as a _RecordedHead, parsed on
    first use.
    """
    grouped: dict[tuple[str, str], dict[str, dict[int, tuple[str, str]]]] = {}
    hashed = _LineRecords()
    for lineno, (level, head_id, param, row_s, values), line in read_row_lines(path, HEADS_HEADER):
        where = f"{path}:{lineno}"
        if level not in LEVELS:
            raise FormatError(f"{where}: unknown level {level!r}")
        if param not in ("w", "b", "w1", "b1", "w2", "b2"):
            raise FormatError(f"{where}: unknown param {param!r}")
        try:
            row = int(row_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad row index") from exc
        rows = grouped.setdefault((level, head_id), {}).setdefault(param, {})
        if row in rows:
            raise FormatError(f"{where}: duplicate row {row} for {param}")
        rows[row] = (where, values)
        if records is not None and (used is None or (level, head_id) in used):
            hashed.add((level, head_id), line)
    if not grouped:
        raise FormatError(f"no head rows in {path}")
    heads: dict[str, dict[str, object]] = {lvl: {} for lvl in LEVELS}
    kept: dict[str, dict] = {}
    for (level, head_id), params in grouped.items():
        if used is not None and (level, head_id) not in used:
            continue
        name = f"{level}/{head_id}"
        build = functools.partial(_head_of, path, name, params)
        if records is not None:
            kept[name] = hashed.record((level, head_id))
            if records.get(name) == kept[name]:
                heads[level][head_id] = _RecordedHead(build)
                continue
        heads[level][head_id] = build()
    return HeadRegistry(heads=heads, records=None if records is None else kept)


# ---------------------------------------------------------------- logit cache

FINGERPRINT_VERSION = 5
_RECORD_KINDS = ("heads", "quadrats")  # the line records a sidecar holds


def fingerprint_path(cache_path) -> str:
    """The sidecar file that fingerprints a logit cache."""
    return os.fspath(cache_path) + ".fingerprint"


@dataclass(frozen=True)
class CacheFingerprint:
    """What a run's cached logits depend on beyond their keys: the tile
    overlap, and the records of the lines of each head the run uses and
    of each quadrat's features."""

    overlap_frac: float
    heads: dict  # "level/head_id" -> record of its lines (HeadRegistry.records)
    quadrats: dict  # quadrat id -> record of its feature lines

    @classmethod
    def of(cls, overlap_frac: float, registry, quadrats: Sequence[Quadrat]) -> "CacheFingerprint":
        if registry.records is None:
            raise QuadfloraError("head registry was not read from a heads file with records")
        records = {}
        for q in quadrats:
            if not isinstance(q.load_cells, _FeatureRows):
                raise QuadfloraError(f"quadrat {q.quadrat_id} was not read from a features file")
            records[q.quadrat_id] = q.load_cells.record
        return cls(float(overlap_frac), registry.records, records)


def _heads_recorded(model_id: str, heads: Mapping[str, dict]) -> bool:
    """Whether each head of a model id (species+genus+family, '-' = none) is in heads."""
    ids = model_id.split("+")
    return len(ids) == len(LEVELS) and all(
        f"{level}/{head_id}" in heads for level, head_id in zip(LEVELS, ids) if head_id != "-"
    )


def _is_line_record(value) -> bool:
    """A sidecar's record of a head's or quadrat's lines: byte count and sha256."""
    return (
        isinstance(value, dict)
        and value.keys() == {"bytes", "sha256"}
        and type(value["bytes"]) is int
        and value["bytes"] >= 1
        and isinstance(value["sha256"], str)
    )


def _read_sidecar(cache_path) -> tuple[Optional[dict], str]:
    """The record of a logit cache's sidecar if it is of this format
    version and has every field; else (None, why not)."""
    try:
        with open(fingerprint_path(cache_path), "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return None, "it has no fingerprint file"
    except (OSError, ValueError, RecursionError):
        return None, "its fingerprint file is unreadable"
    if not isinstance(record, dict) or record.get("version") != FINGERPRINT_VERSION:
        return None, f"its fingerprint is not format version {FINGERPRINT_VERSION}"
    if (
        type(record.get("overlap_frac")) not in (int, float)
        or not isinstance(record.get("blas"), str)
        or not all(
            isinstance(record.get(kind), dict) and all(map(_is_line_record, record[kind].values()))
            for kind in _RECORD_KINDS
        )
    ):
        return None, "its fingerprint file is unreadable"
    return record, ""


def sidecar_records(cache_path) -> dict[str, dict]:
    """The "heads" and "quadrats" line records of a logit cache's sidecar,
    for load_head_registry and load_quadrat_features; empty if there is
    no cache file, or the sidecar is missing, unreadable or of another
    version. The cache is not hashed: a record vouches for lines that an
    earlier run checked and parsed, whatever the cache holds now."""
    record = _read_sidecar(cache_path)[0] if os.path.exists(cache_path) else None
    return {kind: record[kind] if record else {} for kind in _RECORD_KINDS}


class LogitCache:
    """Logits of whole tile grids, keyed by (model, quadrat, crop, scale, level).

    Each entry is one (scale^2 x classes) block, its rows in the grid's
    row-major tile order. The file holds one line per grid, sorted by grid
    key; its last field is the base64 (RFC 4648, with padding) of the
    block's little-endian float64 bytes, row-major. Values are stored
    bit for bit, so a cache round-trip reproduces in-memory results
    exactly. A loaded line whose byte count is not a positive multiple
    of 8 scale^2, or whose key is on another line too, is dropped, so its
    grid is recomputed; a field that is not base64, or that holds a
    non-finite value, is an error naming its line. len() counts tile rows.

    Loaded with a CacheFingerprint (as `infer` and `sweep` do), the cache
    is checked against its sidecar, fingerprint_path(path): a JSON record
    of the format version, overlap_frac, the BLAS in use (blas_record),
    the byte count and sha256 of each head's lines, by "level/head_id",
    and of each quadrat's feature lines, and the sha256 of the cache
    bytes. Grids it cannot vouch for are dropped with one warning: all of
    them when the sidecar is missing or unreadable, or the version, the
    cache bytes or overlap_frac differ; else those of changed quadrats and
    of models (species+genus+family head ids) with a changed head.
    Another BLAS record only warns: the grids are kept, though a product
    computed under another BLAS setting can differ in a last digit.
    Loaded without one, every grid is kept and the sidecar is not read.
    Records of heads and quadrats outside the run are kept as they are.
    A head's or quadrat's lines are recorded only once they have been
    checked and their values parsed, in this run or an earlier one, which
    is what lets a later load (sidecar_records) take them unchecked and
    unparsed, even when the cache itself is dropped.
    save() writes the sidecar after the cache, and only then.
    """

    def __init__(self, path=None):
        self.path = path
        self._data: dict[tuple, np.ndarray] = {}
        self._dirty = True
        self._fingerprint: Optional[CacheFingerprint] = None
        self._recorded: dict[str, dict] = {kind: {} for kind in _RECORD_KINDS}

    @classmethod
    def load(cls, path, fingerprint: Optional[CacheFingerprint] = None) -> "LogitCache":
        cache = cls(path)
        cache._fingerprint = fingerprint
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return cache
        if fingerprint is not None:
            record, why_not = _read_sidecar(path)
            if record is not None:
                if record.get("cache_sha256") != hashlib.sha256(data).hexdigest():
                    why_not = "it was changed after its fingerprint was written"
                elif record["overlap_frac"] != fingerprint.overlap_frac:
                    why_not = f"it holds logits for overlap_frac {record['overlap_frac']}"
            if why_not:
                warnings.warn(f"logit cache {path} not used: {why_not}")
                return cache
            blas = blas_record()
            if record["blas"] != blas:
                warnings.warn(
                    f"logit cache {path} was computed under BLAS {record['blas']!r}, "
                    f"this run has {blas!r}; its logits are kept"
                )
            cache._recorded = _still_valid(record, fingerprint)
        text = decode_text(path, data)
        grids: dict[tuple, Optional[tuple[str, str]]] = {}  # None: key on two lines
        for lineno, (model_id, qid, crop, scale_s, level, values) in read_rows(
            path, CACHE_HEADER, text
        ):
            where = f"{path}:{lineno}"
            if level not in LEVELS:
                raise FormatError(f"{where}: unknown level {level!r}")
            try:
                scale = int(scale_s)
            except ValueError as exc:
                raise FormatError(f"{where}: bad scale") from exc
            key = (model_id, qid, crop, scale, level)
            grids[key] = None if key in grids else (where, values)
        dropped = Counter()
        for key, line in grids.items():
            model_id, qid, _, scale, _ = key
            if fingerprint is not None and not _heads_recorded(model_id, cache._recorded["heads"]):
                dropped["changed heads"] += 1
            elif fingerprint is not None and qid not in cache._recorded["quadrats"]:
                dropped["changed features"] += 1
            elif line is None:
                dropped["repeated keys"] += 1
            else:
                block = _grid_block(*line, scale)
                if block is None:
                    dropped["wrong value counts"] += 1
                else:
                    cache._data[key] = block
        if dropped:
            reasons = ", ".join(f"{n} for {why}" for why, n in sorted(dropped.items()))
            warnings.warn(
                f"logit cache {path}: dropped {dropped.total()} of {len(grids)} grids ({reasons})"
            )
        cache._dirty = bool(dropped)
        return cache

    def __len__(self) -> int:
        return sum(len(block) for block in self._data.values())

    def get(self, key) -> Optional[np.ndarray]:
        return self._data.get(key)

    def put(self, key, block: np.ndarray) -> None:
        scale = key[3]
        if block.ndim != 2 or len(block) != scale * scale:
            raise ShapeError(f"logit block of shape {block.shape} for a {scale}x{scale} grid")
        self._data[key] = block
        self._dirty = True

    def save(self) -> None:
        if self.path is None:
            raise FormatError("cache has no path to save to")
        # Rewriting an unchanged cache would produce the same bytes; skip it
        # so warm reruns stay fast.
        if not self._dirty:
            return
        # One line per grid, in key order.
        lines = [",".join(CACHE_HEADER)]
        for key in sorted(self._data):
            data = self._data[key].astype("<f8", copy=False).tobytes()
            field = base64.b64encode(data).decode("ascii")
            lines.append(",".join(map(str, key)) + "," + field)
        text = "\n".join(lines) + "\n"
        atomic_write_text(self.path, text)
        if self._fingerprint is not None:
            atomic_write_text(fingerprint_path(self.path), self._sidecar_text(text))
        self._dirty = False

    def _sidecar_text(self, cache_text: str) -> str:
        fp = self._fingerprint
        record = {
            "version": FINGERPRINT_VERSION,
            "overlap_frac": fp.overlap_frac,
            "blas": blas_record(),
            "cache_sha256": hashlib.sha256(cache_text.encode("utf-8")).hexdigest(),
        }
        for kind in _RECORD_KINDS:
            record[kind] = {**self._recorded[kind], **getattr(fp, kind)}
        return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _still_valid(record: dict, fingerprint: CacheFingerprint) -> dict:
    """The sidecar records that still hold: those equal to the run's,
    and those of heads and quadrats the run does not have."""
    return {
        kind: {
            name: digest
            for name, digest in record[kind].items()
            if getattr(fingerprint, kind).get(name, digest) == digest
        }
        for kind in _RECORD_KINDS
    }


def _grid_block(where: str, field: str, scale: int) -> Optional[np.ndarray]:
    """The (scale^2 x C) block of one grid's line, its field decoded by one
    b64decode and one np.frombuffer call, or None if its byte count is
    not a positive multiple of 8 scale^2. A character outside the base64
    alphabet or misplaced padding is an error (validate=True)."""
    try:
        data = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise FormatError(f"{where}: bad values field") from exc
    if scale < 1 or not data or len(data) % (8 * scale * scale):
        return None
    block = np.frombuffer(data, "<f8").reshape(scale * scale, -1)
    if not np.isfinite(block).all():
        raise FormatError(f"{where}: non-finite value")
    return block


# --------------------------------------------------------------- score report

def write_score_report(report: ScoreReport, path) -> None:
    payload = {
        "final": report.final,
        "per_transect": report.per_transect,
        "per_quadrat": report.per_quadrat,
        "missing_quadrats": list(report.missing_quadrats),
        "unknown_quadrats": list(report.unknown_quadrats),
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -------------------------------------------------------------------- configs

def parse_config_text(text: str, where: str = "<config>") -> dict[str, str]:
    """Parse flat "key = value" lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{where}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or key in out:
            raise FormatError(f"{where}:{lineno}: bad or duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    with open(path, "rb") as fh:
        text = decode_text(path, fh.read())
    return parse_config_text(text, where=str(path))


def _convert(kind, key, value):
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


_SYNTH_KEYS = {f.name: f.type for f in fields(SynthConfig)}  # each an int, float or bool


def synth_config_from(mapping: Mapping[str, str]) -> SynthConfig:
    unknown = set(mapping) - set(_SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
    kwargs = {k: _convert(_SYNTH_KEYS[k], k, v) for k, v in mapping.items()}
    return SynthConfig(**kwargs)


_RUN_KEYS = (
    "scales", "crop_fracs", "overlap_frac", "models", "kernel_w", "channel",
    "min_logit", "target_mean_len", "max_len", "min_len", "zscore", "merge_k",
)
# Keys that no longer do anything: accepted, each with one warning.
_RETIRED_RUN_KEYS = {
    "bisect_iters": "the threshold is calibrated in closed form",
    "seed": "inference draws no random numbers",
}

DEFAULT_MODELS = "lin1+mlp2+mlp2"


def _parse_head_combo(text: str) -> HeadSelection:
    parts = [p.strip() for p in text.split("+")]
    if len(parts) != 3 or not parts[0] or parts[0] == "-":
        raise ConfigError(
            f"model spec {text!r} must be species+genus+family head ids ('-' = none)"
        )
    genus, family = (None if p in ("", "-") else p for p in parts[1:])
    return HeadSelection(
        species_head_id=parts[0], genus_head_id=genus, family_head_id=family
    )


def run_config_from(mapping: Mapping[str, str]) -> RunConfig:
    unknown = set(mapping) - set(_RUN_KEYS) - set(_RETIRED_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    for key, why in _RETIRED_RUN_KEYS.items():
        if key in mapping:
            warnings.warn(f"{key} is ignored: {why}")
    if "scales" not in mapping:
        raise ConfigError("run config needs scales (e.g. scales = 4,5)")
    scales = tuple(
        _convert(int, "scales", part.strip()) for part in mapping["scales"].split(",")
    )
    crop_fracs = tuple(
        _convert(float, "crop_fracs", part.strip())
        for part in mapping.get("crop_fracs", "0").split(",")
    )
    combos = tuple(
        _parse_head_combo(part)
        for part in mapping.get("models", DEFAULT_MODELS).split(",")
        if part.strip()
    )
    max_len_text = mapping.get("max_len", "inf").lower()

    def optional(kind, key):
        return _convert(kind, key, mapping[key]) if key in mapping else None

    selection = SelectionConfig(
        channel=mapping.get("channel", "fused"),
        min_logit=optional(float, "min_logit"),
        target_mean_len=optional(float, "target_mean_len"),
        max_len=(
            None
            if max_len_text in ("inf", "none", "unbounded")
            else _convert(int, "max_len", max_len_text)
        ),
        min_len=_convert(int, "min_len", mapping.get("min_len", "1")),
        zscore=_convert(bool, "zscore", mapping.get("zscore", "0")),
        merge_k=optional(int, "merge_k"),
    )
    return RunConfig(
        scales=scales,
        crop_fracs=crop_fracs,
        overlap_frac=_convert(float, "overlap_frac", mapping.get("overlap_frac", "0")),
        head_combos=combos,
        kernel_w=optional(float, "kernel_w"),
        selection=selection,
    )
