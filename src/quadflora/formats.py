"""Bit-exact file formats and flat key=value run configuration.

All CSVs are UTF-8 with LF line endings, carry a header row, and are
written in sorted id order through an atomic temp-file rename, so
reruns with identical inputs produce byte-identical files. Fields are
never quoted: readers (_util.read_row_lines) split each line on ',', also
read CRLF files, and reject a quote, a NUL or any other CR with an
error naming the file and line. Features and head parameters are
rendered with 9 significant digits, and the pipeline works on the
values parsed from that text. The logit cache is the one binary file:
it stores each grid's exact float64 bits, so a cache round-trip never
changes a result.

Formats
-------
taxonomy       species_id,genus_id,family_id            see taxonomy
ground truth   quadrat_id,transect_id,species_ids       ids ;-separated, ascending
submission     quadrat_id,species_ids                   ids ;-separated, ascending
features       quadrat_id,transect_id,grid_cells,feature_dim,row,col,values
head registry  level,head_id,param,row,values           param in w,b,w1,b1,w2,b2
logit cache    header; [model_id,quadrat_id,crop_pct,overlap_frac,scale,level,rows,cols]; f8 grids
config         flat "key = value" lines, '#' comments

A logit cache's header line records the byte count and sha256 of the
lines of each quadrat and of every head once they have been checked.
They are read first (cache_records), and vouch for those lines even if
the cache's grids are then dropped. A features file or head registry
is checked line by line, but for its float values, unless its lines
hash to those records, each quadrat's or head's lines in one run (_walk;
so interleaved rows or a blank line are checked line by line on every
run, and an edit until a run has recorded it): then a
quadrat's or head's lines, and only its own, are checked when first
needed. A quadrat's values are parsed only then (a logit cache miss), and
only those of the cells the missing grid's crop covers: a cropped run
never parses its quadrats' border cells. So is a head, when _walk
vouched for every head's lines; else the heads a run uses are parsed at
load. A run served from a cache that vouches for both files, then,
checks no features or heads line and parses no value.
Text values are parsed one block at a time (a quadrat's cells, a head
parameter) by one np.loadtxt call, or row by row as float() reads them
where loadtxt refuses ('1_0', full-width digits, a bad value, whose
error names its own line). They are written in blocks too, one
_util.fmt9_rows call each: numerically where that is provably exact
(zeros, and 1e-36 <= |x| < 1e53 away from 9-digit ties), and by '%.9g',
the fallback and the oracle, elsewhere. A cached grid is a read-only
np.frombuffer view of the cache file's little-endian float64 bytes.
"""

import functools
import hashlib
import itertools
import json
import warnings
from collections import Counter
from dataclasses import dataclass, fields
from typing import Collection, Mapping, Optional, Sequence

import numpy as np

from ._util import (
    atomic_write_text,
    bad_id,
    blas_record,
    decode_text,
    fmt9_rows,
    read_row_lines,
)
from .ensemble import HeadSelection
from .errors import (
    ConfigError,
    DuplicatePredictionError,
    FormatError,
    QuadfloraError,
    ShapeError,
)
from .geometry import Rect
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


def _parse_block(path, linenos: Sequence[int], fields: Sequence[str]) -> Optional[np.ndarray]:
    """The values fields of a file's lines, numbered linenos, as one
    (rows x values) matrix, parsed by one np.loadtxt call; None if the
    rows differ in length. Unless loadtxt gives one finite row per field
    (it skips an empty field) and no warning, or if a field holds
    \\x1c-\\x1f (space to loadtxt, not to float()), the rows are parsed one
    by one by _parse_values, the oracle, so an error names its row's own
    "path:line", which is built for that row alone."""
    joined = "".join(fields)
    if not any(c in joined for c in "\x1c\x1d\x1e\x1f"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(fields, delimiter=";", comments=None, ndmin=2)
            if len(values) == len(fields) and np.isfinite(values).all():
                return values
        except (ValueError, Warning):
            pass
    parsed = [_parse_values(field, f"{path}:{n}") for n, field in zip(linenos, fields)]
    if any(len(p) != len(parsed[0]) for p in parsed):
        return None
    return np.vstack(parsed)


# ---------------------------------------------------------------- ground truth

def write_ground_truth(gt: GroundTruthTable, path) -> None:
    lines = [",".join(GROUND_TRUTH_HEADER)]
    for qid in sorted(gt.quadrats):
        tid, truth = gt.quadrats[qid]
        lines.append(f"{qid},{tid}," + ";".join(str(s) for s in sorted(truth)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_ground_truth(path) -> GroundTruthTable:
    quadrats = {}
    for lineno, (qid, tid, ids), _ in read_row_lines(path, GROUND_TRUTH_HEADER):
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
    for lineno, (qid, ids), _ in read_row_lines(path, SUBMISSION_HEADER):
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
    A logit cache's header holds these records of quadrats and heads."""

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
    them. rows maps each (row, col) not yet parsed to its line number and
    values field, once the lines are checked. While a recorded digest
    vouches for them (_recorded), span holds instead their span of the
    file (_walk). The first call checks those lines, and only those. A
    call parses the values of a region's cells not yet parsed (all cells
    if None), in one _parse_block call, into the (grid, grid, dim) cell
    array, whose cells stay NaN until a call needs them.
    """

    def __init__(self, path, qid: str, meta: tuple[str, int, int]):
        self.path, self.qid, self.meta = path, qid, meta  # meta: transect, grid, dim
        self.rows: dict[tuple[int, int], tuple[int, str]] = {}
        self.span: Optional[tuple] = None
        self.record: dict = {}
        self.cells: Optional[np.ndarray] = None

    def __call__(self, region: Optional[Rect] = None) -> np.ndarray:
        _, grid, dim = self.meta
        if self.cells is None:
            if self.span is not None:
                text, first_line = _span_text(self.path, self.span)
                self.rows = _check_features(self.path, text, first_line)[self.qid].rows
                self.span = None
            self.cells = np.full((grid, grid, dim), np.nan)
        region = region or Rect(0, 0, grid, grid)
        y0, y1, x0, x1 = region.y0, region.y1, region.x0, region.x1
        cells = [(r, c) for r, c in self.rows if y0 <= r < y1 and x0 <= c < x1]
        if cells:
            linenos, fields = zip(*map(self.rows.get, cells))
            self.cells[tuple(zip(*cells))] = _parse_block(self.path, linenos, fields)
            for rc in cells:
                del self.rows[rc]
        return self.cells


def _walk(path, header: list[str], n_key: int, records: Mapping[str, dict]) -> Optional[dict]:
    """The span of each key's lines, if the file after its header is one
    run of lines per key, each of the byte count and sha256 recorded for
    that key (in a logit cache's header, for checked lines); else None.
    A line's key is its first n_key fields joined by '/': a quadrat id, or
    a head's "level/head_id". A span is the file's bytes, the run's start
    and stop, and a function that finds the file's LF offsets (_span_text)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = (",".join(header) + "\n").encode()
    if not data.startswith(head):
        return None
    view = memoryview(data)
    newlines = functools.cache(lambda: np.flatnonzero(np.frombuffer(data, np.uint8) == 10))
    spans: dict[str, tuple] = {}
    start = len(head)
    while start < len(data):
        first = data[start : data.find(b"\n", start)]  # with no LF, all but the last byte
        key = b"/".join(first.split(b",", n_key)[:n_key]).decode("utf-8", "replace")
        record = records.get(key)
        if record is None or key in spans:
            return None
        stop = start + record["bytes"]
        if stop > len(data) or (stop < len(data) and data[stop - 1] != ord("\n")):
            return None
        if hashlib.sha256(view[start:stop]).hexdigest() != record["sha256"]:
            return None
        spans[key] = (data, start, stop, newlines)
        start = stop
    return spans or None


def _span_text(path, span) -> tuple[str, int]:
    """The text of a span's lines (_walk), and the line number of its first."""
    data, start, stop, newlines = span
    return decode_text(path, data[start:stop]), int(np.searchsorted(newlines(), start)) + 1


def _recorded(path, records: Mapping[str, dict]) -> Optional[dict[str, _FeatureRows]]:
    """Every quadrat of a features file, its lines unchecked, if _walk
    vouches for the whole file; else None. A quadrat's transect, grid and
    dim are read from its first line; a grid or dim that is not an integer
    >= 1 there is a mismatch, which _check_features then reports."""
    spans = _walk(path, FEATURES_HEADER, 1, records)
    sources: dict[str, _FeatureRows] = {}
    for qid, span in (spans or {}).items():
        data, start, stop, _ = span
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
        source.record, source.span = dict(records[qid]), span
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
    unless records (cache_records(cache)["quadrats"]) vouch for the
    whole file (_recorded): then a quadrat's lines are checked, and only
    its own, the first time its features are needed. A quadrat's values
    are parsed then, those of the region asked for (Quadrat.features),
    and a check or parse error names the file and line then. Each
    quadrat's _FeatureRows holds the byte count and sha256 of its lines,
    which fingerprint logit caches computed from it.
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
    """A head whose lines _walk accepted unchecked: those lines, and only
    they, are checked and parsed on first use."""

    def __init__(self, path, name: str, span):
        self.path, self.name, self.span = path, name, span  # name: "level/head_id"

    @functools.cached_property
    def head(self) -> Head:
        grouped, _ = _check_heads(self.path, *_span_text(self.path, self.span))
        return _head_of(self.path, self.name, grouped[self.name])

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
    """One line per row of each head parameter, in (level, head id,
    param) order; each parameter matrix is one fmt9_rows call."""
    lines = [",".join(HEADS_HEADER)]
    for level in LEVELS:
        for head_id, head in sorted(registry.heads.get(level, {}).items()):
            for param, array in sorted(_head_params(head).items()):
                rows = fmt9_rows(np.atleast_2d(array))
                lines += (f"{level},{head_id},{param},{i},{v}" for i, v in enumerate(rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _head_of(path, name: str, params: dict[str, dict[int, tuple[int, str]]]) -> Head:
    """A head from its rows, parsed and checked for missing rows, lengths,
    bias rows and shapes; name is "level/head_id"."""
    matrices = {}
    for param, rows in params.items():
        linenos, fields = zip(*(rows[i] for i in sorted(rows)))
        matrix = _parse_block(path, linenos, fields)
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


def _check_heads(path, text: Optional[str] = None, first_line: int = 1) -> tuple[dict, dict]:
    """Every head's rows, {param: {row: (lineno, values)}}, and the record
    of its lines, each by "level/head_id". Every row is checked for its
    level, param, row index and duplicates. The lines are streamed from
    the file, or are those of text: the file's lines from first_line on,
    the span of one head that _walk accepted."""
    grouped: dict[str, dict[str, dict[int, tuple[int, str]]]] = {}
    hashed = _LineRecords()
    for lineno, row, line in read_row_lines(path, HEADS_HEADER, text, first_line):
        level, head_id, param, row_s, values = row
        where, name = f"{path}:{lineno}", f"{level}/{head_id}"
        if grouped and first_line > 1 and name not in grouped:
            raise FormatError(f"{where}: head {name} inside another's recorded lines")
        if level not in LEVELS:
            raise FormatError(f"{where}: unknown level {level!r}")
        if param not in ("w", "b", "w1", "b1", "w2", "b2"):
            raise FormatError(f"{where}: unknown param {param!r}")
        try:
            row = int(row_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad row index") from exc
        rows = grouped.setdefault(name, {}).setdefault(param, {})
        if row in rows:
            raise FormatError(f"{where}: duplicate row {row} for {param}")
        rows[row] = (lineno, values)
        hashed.add(name, line)
    if not grouped:
        raise FormatError(f"no head rows in {path}")
    return grouped, {name: hashed.record(name) for name in grouped}


def load_head_registry(
    path, used: Optional[Collection[tuple[str, str]]] = None, records: Optional[Mapping] = None
) -> HeadRegistry:
    """The heads of a registry file; only the (level, head id) pairs in
    used, when given.

    The byte count and sha256 of every head's lines, in file order with
    their line ends, go into the registry's records by "level/head_id".
    When every head's lines hash to their entries in records
    (cache_records(cache)["heads"]; None vouches for none), each in one
    run (_walk), no line is checked at load, and each head is a
    _RecordedHead: its own lines are checked and parsed at its first use.
    Otherwise every row is checked (_check_heads), and the heads returned
    are parsed and checked at load.
    """
    spans = _walk(path, HEADS_HEADER, 2, records) if records else None
    parts, kept = (spans, {n: dict(records[n]) for n in spans}) if spans else _check_heads(path)
    heads: dict[str, dict[str, object]] = {lvl: {} for lvl in LEVELS}
    for name, part in parts.items():
        level, _, head_id = name.partition("/")
        if used is None or (level, head_id) in used:
            head = _RecordedHead(path, name, part) if spans else _head_of(path, name, part)
            heads.setdefault(level, {})[head_id] = head
    return HeadRegistry(heads=heads, records=kept)


# ---------------------------------------------------------------- logit cache

CACHE_VERSION = 7
_RECORD_KINDS = ("heads", "quadrats")  # the line records a cache's header holds


@dataclass(frozen=True)
class CacheFingerprint:
    """What a run's cached logits depend on beyond their keys: the
    records of the lines of every head in the heads file, whether the run
    uses it or not, and of each quadrat's features."""

    heads: dict  # "level/head_id" -> record of its lines (HeadRegistry.records)
    quadrats: dict  # quadrat id -> record of its feature lines

    @classmethod
    def of(cls, registry, quadrats: Sequence[Quadrat]) -> "CacheFingerprint":
        if registry.records is None:
            raise QuadfloraError("head registry was not read from a heads file")
        records = {}
        for q in quadrats:
            if not isinstance(q.load_cells, _FeatureRows):
                raise QuadfloraError(f"quadrat {q.quadrat_id} was not read from a features file")
            records[q.quadrat_id] = q.load_cells.record
        return cls(registry.records, records)


def _heads_recorded(model_id: str, heads: Mapping[str, dict]) -> bool:
    """Whether each head of a model id (species+genus+family, '-' = none) is in heads."""
    ids = model_id.split("+")
    return len(ids) == len(LEVELS) and all(
        f"{level}/{head_id}" in heads for level, head_id in zip(LEVELS, ids) if head_id != "-"
    )


def _is_line_record(value) -> bool:
    """A cache header's record of a head's or quadrat's lines: byte count and sha256."""
    return (
        isinstance(value, dict)
        and value.keys() == {"bytes", "sha256"}
        and type(value["bytes"]) is int
        and value["bytes"] >= 1
        and isinstance(value["sha256"], str)
    )


def _json_line(value) -> bytes:
    """value as one line of JSON, padded with spaces to a multiple of 8 bytes."""
    line = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
    return line + b" " * (-(len(line) + 1) % 8) + b"\n"


def _read_header(line: bytes) -> Optional[dict]:
    """The record on a logit cache's first line if it is a fingerprint of
    this format version (every field present), else None."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return None
    valid = (
        isinstance(record, dict)
        and record.get("version") == CACHE_VERSION
        and isinstance(record.get("blas"), str)
        and isinstance(record.get("sha256"), str)
        and all(
            isinstance(record.get(kind), dict) and all(map(_is_line_record, record[kind].values()))
            for kind in _RECORD_KINDS
        )
    )
    return record if valid else None


def cache_records(cache_path) -> dict[str, dict]:
    """The "heads" and "quadrats" line records on a logit cache's first
    line, for load_head_registry and load_quadrat_features; empty if
    there is no cache file, or its first line holds no fingerprint of
    this version. Only that line is read: a record vouches for lines that
    an earlier run checked and parsed, whatever the grids hold now."""
    try:
        with open(cache_path, "rb") as fh:
            record = _read_header(fh.readline())
    except OSError:
        record = None
    return {kind: record[kind] if record else {} for kind in _RECORD_KINDS}


def _is_index_entry(entry) -> bool:
    """[model_id, quadrat_id, crop_pct, overlap_frac, scale, level, rows >= 0, cols >= 1]."""
    return (
        isinstance(entry, list)
        and list(map(type, entry)) == [str, str, str, float, int, str, int, int]
        and entry[5] in LEVELS
        and entry[6] >= 0 < entry[7]
    )


def _read_grids(path, data: bytes, start: int) -> dict[tuple, Optional[np.ndarray]]:
    """Each grid of a logit cache file's bytes by key, None for a key
    listed twice: a read-only (rows x cols) view of data. The grid index,
    the JSON line at start, lists the grids as _is_index_entry; their
    little-endian float64 values follow it back to back, in index order,
    with no stored offsets. An index that is not such a list, sizes that
    do not add up to the bytes after it, and a non-finite value are
    errors naming the file."""
    stop = data.find(b"\n", start) + 1
    try:
        index = json.loads(data[start:stop]) if stop else None
    except (ValueError, RecursionError):
        index = None
    if not isinstance(index, list) or not all(map(_is_index_entry, index)):
        raise FormatError(f"{path}: bad grid index")
    sizes = [rows * cols for *_, rows, cols in index]
    if 8 * sum(sizes) != len(data) - stop:
        raise FormatError(
            f"{path}: {len(data) - stop} bytes of values, the grid index lists {8 * sum(sizes)}"
        )
    values = np.frombuffer(data, "<f8", offset=stop)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value")
    grids: dict[tuple, Optional[np.ndarray]] = {}
    for (*key, rows, cols), end in zip(index, itertools.accumulate(sizes)):
        key = tuple(key)
        grids[key] = None if key in grids else values[end - rows * cols : end].reshape(rows, cols)
    return grids


class LogitCache:
    """Logits of whole tile grids, keyed by (model, quadrat, crop, overlap, scale, level).

    Each entry is one (scale^2 x classes) block, its rows in the grid's
    row-major tile order. The key names every run setting a grid is
    computed from, so one cache serves runs at any mix of crops, tile
    overlaps and scales. The file is one JSON header line: the format
    version, the sha256 of every byte after it and, when saved with a
    CacheFingerprint, the BLAS in use (blas_record) and the byte count
    and sha256 of the lines of every head in the heads file, by
    "level/head_id", and of each quadrat's feature lines. Then the
    grid index (_read_grids), sorted by key, and each grid's float64
    bits, so a cache round-trip reproduces in-memory results exactly; a
    loaded grid is a read-only view of the file's bytes. A grid whose rows are not scale^2 is
    dropped, so it is recomputed. len() counts tile rows.

    Loaded with a CacheFingerprint (as `infer` and `sweep` do), the
    header is checked first. Grids it cannot vouch for are dropped with
    one warning: all of them when the header is not a fingerprint of
    this version or its sha256 differs; else those of changed quadrats
    and of models (species+genus+family head ids) with a changed head,
    whether this run uses that model or not. Another BLAS record only
    warns: the grids are kept, though a product computed under another
    BLAS setting can differ in a last digit. Loaded without
    one, the header is not read and every grid is kept. Heads and
    quadrats follow one rule: a record the files' lines no longer match
    is renewed, and one of a head or quadrat the files no longer hold is
    kept, and so are its grids. save rewrites the cache only if a grid
    was dropped or put, or its records differ from the header's. A
    quadrat's or head's lines are recorded only once they have been
    checked, in this run or an earlier one, which is what lets a later
    load (cache_records) take them unchecked, even when the grids
    themselves are dropped. A value is parsed when a run first needs it,
    and a bad one is reported then.
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
        start = data.find(b"\n") + 1  # of the grid index; 0 if there is none
        if fingerprint is not None:
            record = _read_header(data[:start])
            if record is None:
                why_not = f"its first line is not a format {CACHE_VERSION} fingerprint"
            elif record["sha256"] != hashlib.sha256(memoryview(data)[start:]).hexdigest():
                why_not = "it was changed after it was written"
            else:
                why_not = ""
            if why_not:
                warnings.warn(f"logit cache {path} not used: {why_not}")
                return cache
            blas = blas_record()
            if record["blas"] != blas:
                warnings.warn(
                    f"logit cache {path} was computed under BLAS {record['blas']!r}, "
                    f"this run has {blas!r}; its logits are kept"
                )
            # the records that still hold: those equal to the files', and
            # those of heads and quadrats the files no longer hold
            cache._recorded = {
                kind: {
                    name: digest
                    for name, digest in record[kind].items()
                    if getattr(fingerprint, kind).get(name, digest) == digest
                }
                for kind in _RECORD_KINDS
            }
        grids = _read_grids(path, data, start)
        dropped = Counter()
        for key, block in grids.items():
            model_id, qid, _, _, scale, _ = key
            if fingerprint is not None and not _heads_recorded(model_id, cache._recorded["heads"]):
                dropped["changed heads"] += 1
            elif fingerprint is not None and qid not in cache._recorded["quadrats"]:
                dropped["changed features"] += 1
            elif block is None:
                dropped["repeated keys"] += 1
            elif scale < 1 or len(block) != scale * scale:
                dropped["wrong shapes"] += 1
            else:
                cache._data[key] = block
        if dropped:
            reasons = ", ".join(f"{n} for {why}" for why, n in sorted(dropped.items()))
            warnings.warn(
                f"logit cache {path}: dropped {dropped.total()} of {len(grids)} grids ({reasons})"
            )
        cache._dirty = bool(dropped) or (
            fingerprint is not None
            and cache._records() != {kind: record[kind] for kind in _RECORD_KINDS}
        )
        return cache

    def _records(self) -> dict:
        """The line records save writes: the files', and those kept of
        heads and quadrats the files no longer hold."""
        fp = self._fingerprint
        return {kind: {**self._recorded[kind], **getattr(fp, kind)} for kind in _RECORD_KINDS}

    def __len__(self) -> int:
        return sum(len(block) for block in self._data.values())

    def get(self, key) -> Optional[np.ndarray]:
        return self._data.get(key)

    def put(self, key, block: np.ndarray) -> None:
        scale = key[4]
        if block.ndim != 2 or len(block) != scale * scale:
            raise ShapeError(f"logit block of shape {block.shape} for a {scale}x{scale} grid")
        block.flags.writeable = False  # a run may hand it on uncopied
        self._data[key] = block
        self._dirty = True

    def save(self) -> None:
        if self.path is None:
            raise FormatError("cache has no path to save to")
        # Rewriting an unchanged cache would produce the same bytes; skip it
        # so warm reruns stay fast.
        if not self._dirty:
            return
        keys = sorted(self._data)
        blocks = [np.ascontiguousarray(self._data[key], "<f8") for key in keys]
        index = [[*key, *block.shape] for key, block in zip(keys, blocks)]
        body = b"".join([_json_line(index), *blocks])
        header = {"version": CACHE_VERSION, "sha256": hashlib.sha256(body).hexdigest()}
        if self._fingerprint is not None:
            header.update(blas=blas_record(), **self._records())
        atomic_write_text(self.path, _json_line(header) + body)
        self._dirty = False


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


def _read(mapping: Mapping[str, str], keys: Mapping) -> dict:
    """The keys of a table (key -> reader) that mapping holds, each read by
    reader(key, text); an absent key is left out: it keeps its class default."""
    return {key: read(key, mapping[key]) for key, read in keys.items() if key in mapping}


def _listed(kind):
    """A reader of a comma-separated list of kind, each part stripped."""
    return lambda key, text: tuple(_convert(kind, key, part.strip()) for part in text.split(","))


def _max_len(key: str, text: str) -> Optional[int]:
    text = text.lower()
    return None if text in ("inf", "none", "unbounded") else _convert(int, key, text)


def _head_combos(key: str, text: str) -> tuple[HeadSelection, ...]:
    return tuple(_parse_head_combo(part) for part in text.split(",") if part.strip())


# Each table maps a config file key to its reader, in the order the keys are read.
_SYNTH_KEYS = {f.name: functools.partial(_convert, f.type) for f in fields(SynthConfig)}
_RUN_KEYS = {  # RunConfig's, models for head_combos, selection apart
    "scales": _listed(int),
    "crop_fracs": _listed(float),
    "models": _head_combos,
    "overlap_frac": functools.partial(_convert, float),
    "kernel_w": functools.partial(_convert, float),
}
_SELECTION_KEYS = {
    "channel": functools.partial(_convert, str),
    "min_logit": functools.partial(_convert, float),
    "target_mean_len": functools.partial(_convert, float),
    "max_len": _max_len,
    "min_len": functools.partial(_convert, int),
    "zscore": functools.partial(_convert, bool),
    "merge_k": functools.partial(_convert, int),
}
# Keys that no longer do anything: accepted, each with one warning.
_RETIRED_RUN_KEYS = {
    "bisect_iters": "the threshold is calibrated in closed form",
    "seed": "inference draws no random numbers",
}

DEFAULT_MODELS = "lin1+mlp2+mlp2"


def synth_config_from(mapping: Mapping[str, str]) -> SynthConfig:
    unknown = set(mapping) - set(_SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
    return SynthConfig(**_read(mapping, _SYNTH_KEYS))


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
    unknown = set(mapping) - set(_RUN_KEYS) - set(_SELECTION_KEYS) - set(_RETIRED_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    for key, why in _RETIRED_RUN_KEYS.items():
        if key in mapping:
            warnings.warn(f"{key} is ignored: {why}")
    if "scales" not in mapping:
        raise ConfigError("run config needs scales (e.g. scales = 4,5)")
    run = _read({"models": DEFAULT_MODELS, **mapping}, _RUN_KEYS)
    selection = SelectionConfig(**_read(mapping, _SELECTION_KEYS))
    return RunConfig(head_combos=run.pop("models"), selection=selection, **run)
