"""Bit-exact file formats and flat key=value run configuration.

All CSVs are UTF-8 with LF line endings, carry a header row, and are
written in sorted id order through an atomic temp-file rename, so
reruns with identical inputs produce byte-identical files. Floating
point values are rendered with 9 significant digits; the pipeline works
on exactly those rounded values, so a file round-trip never changes a
result.

Formats
-------
ground truth   quadrat_id,transect_id,species_ids       ids ;-separated, ascending
submission     quadrat_id,species_ids                   ids ;-separated, ascending
features       quadrat_id,transect_id,grid_cells,feature_dim,row,col,values
head registry  level,head_id,param,row,values           param in w,b,w1,b1,w2,b2
logit cache    model_id,quadrat_id,crop_pct,scale,row,col,level,values
config         flat "key = value" lines, '#' comments
"""

import csv
import json
import warnings
from typing import Mapping, Optional, Sequence

import numpy as np

from ._util import atomic_write_text, fmt9_array
from .ensemble import HeadSelection
from .errors import ConfigError, DuplicatePredictionError, FormatError
from .metric import GroundTruthTable, ScoreReport
from .pipeline import RunConfig
from .selection import PredictionSet, SelectionConfig
from .synthworld import (
    LEVELS,
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
CACHE_HEADER = [
    "model_id", "quadrat_id", "crop_pct", "scale", "row", "col", "level", "values",
]


# The csv module refuses fields over 131072 characters by default. One
# logit-cache row at the paper's 7,806 species is about 100k characters, and
# wider taxonomies or feature vectors go past the default; every row
# quadflora writes must read back.
_FIELD_LIMIT = 2**31 - 1


def _read_rows(path, expected_header: list[str]):
    csv.field_size_limit(_FIELD_LIMIT)
    with open(path, "r", encoding="utf-8", newline="") as fh:
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


def _parse_id_list(field: str, where: str) -> tuple[int, ...]:
    try:
        ids = tuple(int(part) for part in field.split(";"))
    except ValueError as exc:
        raise FormatError(f"{where}: bad species id list {field!r}") from exc
    if not ids:
        raise FormatError(f"{where}: empty species id list")
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


def _join_values(values: np.ndarray) -> str:
    return ";".join(fmt9_array(values).tolist())


# ---------------------------------------------------------------- ground truth

def write_ground_truth(gt: GroundTruthTable, path) -> None:
    lines = [",".join(GROUND_TRUTH_HEADER)]
    for qid in sorted(gt.quadrats):
        tid, truth = gt.quadrats[qid]
        lines.append(f"{qid},{tid}," + ";".join(str(s) for s in sorted(truth)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_ground_truth(path) -> GroundTruthTable:
    quadrats = {}
    for lineno, (qid, tid, ids) in _read_rows(path, GROUND_TRUTH_HEADER):
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
    for lineno, (qid, ids) in _read_rows(path, SUBMISSION_HEADER):
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
        if q.cells is None:
            raise FormatError(f"quadrat {q.quadrat_id} has no features to write")
        dim = q.cells.shape[2]
        for row in range(q.grid_cells):
            for col in range(q.grid_cells):
                lines.append(
                    f"{q.quadrat_id},{q.transect_id},{q.grid_cells},{dim},"
                    f"{row},{col},{_join_values(q.cells[row, col])}"
                )
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_quadrat_features(path) -> list[Quadrat]:
    """Rebuild quadrats (without truth sets) from a features file."""
    meta: dict[str, tuple[str, int, int]] = {}
    cells: dict[str, np.ndarray] = {}
    filled: dict[str, np.ndarray] = {}
    for lineno, row in _read_rows(path, FEATURES_HEADER):
        qid, tid, grid_s, dim_s, r_s, c_s, values = row
        where = f"{path}:{lineno}"
        try:
            grid, dim, r, c = int(grid_s), int(dim_s), int(r_s), int(c_s)
        except ValueError as exc:
            raise FormatError(f"{where}: bad integer field") from exc
        if qid not in meta:
            meta[qid] = (tid, grid, dim)
            cells[qid] = np.zeros((grid, grid, dim))
            filled[qid] = np.zeros((grid, grid), dtype=bool)
        elif meta[qid] != (tid, grid, dim):
            raise FormatError(f"{where}: inconsistent metadata for {qid}")
        if not (0 <= r < grid and 0 <= c < grid):
            raise FormatError(f"{where}: cell ({r},{c}) outside {grid}x{grid} grid")
        vec = _parse_values(values, where)
        if vec.shape != (dim,):
            raise FormatError(f"{where}: expected {dim} values, got {vec.size}")
        if filled[qid][r, c]:
            raise FormatError(f"{where}: duplicate cell ({r},{c}) for {qid}")
        cells[qid][r, c] = vec
        filled[qid][r, c] = True
    if not meta:
        raise FormatError(f"no feature rows in {path}")
    out = []
    for qid in sorted(meta):
        if not filled[qid].all():
            raise FormatError(f"{path}: quadrat {qid} is missing cells")
        tid, grid, _ = meta[qid]
        out.append(
            Quadrat(
                quadrat_id=qid, transect_id=tid, grid_cells=grid, cells=cells[qid]
            )
        )
    return out


# -------------------------------------------------------------- head registry

def _head_params(head) -> dict[str, np.ndarray]:
    if isinstance(head, LinearHead):
        return {"w": head.weight, "b": head.bias}
    if isinstance(head, TwoLayerHead):
        return {"w1": head.w1, "b1": head.b1, "w2": head.w2, "b2": head.b2}
    raise FormatError(f"cannot serialize head of type {type(head).__name__}")


def write_head_registry(registry: HeadRegistry, path) -> None:
    lines = [",".join(HEADS_HEADER)]
    for level in LEVELS:
        for head_id in sorted(registry.heads.get(level, {})):
            for param, array in sorted(_head_params(registry.heads[level][head_id]).items()):
                matrix = np.atleast_2d(array)
                for row in range(matrix.shape[0]):
                    lines.append(
                        f"{level},{head_id},{param},{row},{_join_values(matrix[row])}"
                    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_head_registry(path) -> HeadRegistry:
    grouped: dict[tuple[str, str], dict[str, dict[int, np.ndarray]]] = {}
    for lineno, (level, head_id, param, row_s, values) in _read_rows(path, HEADS_HEADER):
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
        rows[row] = _parse_values(values, where)
    heads: dict[str, dict[str, object]] = {lvl: {} for lvl in LEVELS}
    for (level, head_id), params in grouped.items():
        matrices = {}
        for param, rows in params.items():
            if sorted(rows) != list(range(len(rows))):
                raise FormatError(f"{path}: {level}/{head_id}/{param} has missing rows")
            matrices[param] = np.vstack([rows[i] for i in range(len(rows))])
        if set(matrices) == {"w", "b"}:
            heads[level][head_id] = LinearHead(matrices["w"], matrices["b"][0])
        elif set(matrices) == {"w1", "b1", "w2", "b2"}:
            heads[level][head_id] = TwoLayerHead(
                matrices["w1"], matrices["b1"][0], matrices["w2"], matrices["b2"][0]
            )
        else:
            raise FormatError(
                f"{path}: head {level}/{head_id} has params {sorted(matrices)}"
            )
    if not any(heads.values()):
        raise FormatError(f"no head rows in {path}")
    return HeadRegistry(heads=heads)


# ---------------------------------------------------------------- logit cache

class LogitCache:
    """Per-tile logits keyed by model, quadrat, crop, scale, position, level.

    Values are stored in their canonical 9-significant-digit form, so a
    cache round-trip reproduces in-memory results exactly. Writes are
    last-write-wins; save() emits rows sorted by key.
    """

    def __init__(self, path=None):
        self.path = path
        self._data: dict[tuple, np.ndarray] = {}
        self._dirty = True

    @classmethod
    def load(cls, path) -> "LogitCache":
        cache = cls(path)
        try:
            rows = list(_read_rows(path, CACHE_HEADER))
        except FileNotFoundError:
            return cache
        for lineno, (model_id, qid, crop, scale_s, row_s, col_s, level, values) in rows:
            where = f"{path}:{lineno}"
            if level not in LEVELS:
                raise FormatError(f"{where}: unknown level {level!r}")
            try:
                scale, row, col = int(scale_s), int(row_s), int(col_s)
            except ValueError as exc:
                raise FormatError(f"{where}: bad tile index") from exc
            key = (model_id, qid, crop, scale, row, col, level)
            cache._data[key] = _parse_values(values, where)
        cache._dirty = False
        return cache

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key) -> Optional[np.ndarray]:
        return self._data.get(key)

    def put(self, key, values: np.ndarray) -> None:
        self._data[key] = values
        self._dirty = True

    def save(self, path=None) -> None:
        # Rewriting an unchanged cache would produce the same bytes; skip it
        # so warm reruns stay fast.
        if path is None or path == self.path:
            path = self.path
            if path is None:
                raise FormatError("cache has no path to save to")
            if not self._dirty:
                return
        lines = [",".join(CACHE_HEADER)]
        for key in sorted(self._data):
            model_id, qid, crop, scale, row, col, level = key
            lines.append(
                f"{model_id},{qid},{crop},{scale},{row},{col},{level},"
                f"{_join_values(self._data[key])}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
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


_SYNTH_KEYS = {
    "n_species": int,
    "n_genera": int,
    "n_families": int,
    "n_quadrats": int,
    "quadrats_per_transect": int,
    "grid_cells": int,
    "feature_dim": int,
    "noise_sigma": float,
    "richness_min": int,
    "richness_max": int,
    "patch_align": int,
    "orthogonal_prototypes": bool,
    "seed": int,
}


def synth_config_from(mapping: Mapping[str, str]) -> SynthConfig:
    unknown = set(mapping) - set(_SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
    kwargs = {k: _convert(_SYNTH_KEYS[k], k, v) for k, v in mapping.items()}
    return SynthConfig(**kwargs)


_RUN_KEYS = (
    "scales", "crop_fracs", "overlap_frac", "models", "kernel_w", "channel",
    "min_logit", "target_mean_len", "max_len", "min_len", "zscore", "merge_k", "seed",
)

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
    unknown = set(mapping) - set(_RUN_KEYS) - {"bisect_iters"}
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    if "bisect_iters" in mapping:
        warnings.warn("bisect_iters is ignored: the threshold is calibrated in closed form")
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
    selection = SelectionConfig(
        channel=mapping.get("channel", "fused"),
        min_logit=(
            _convert(float, "min_logit", mapping["min_logit"])
            if "min_logit" in mapping
            else None
        ),
        target_mean_len=(
            _convert(float, "target_mean_len", mapping["target_mean_len"])
            if "target_mean_len" in mapping
            else None
        ),
        max_len=(
            None
            if max_len_text in ("inf", "none", "unbounded")
            else _convert(int, "max_len", max_len_text)
        ),
        min_len=_convert(int, "min_len", mapping.get("min_len", "1")),
        zscore=_convert(bool, "zscore", mapping.get("zscore", "0")),
        merge_k=(
            _convert(int, "merge_k", mapping["merge_k"]) if "merge_k" in mapping else None
        ),
    )
    return RunConfig(
        scales=scales,
        crop_fracs=crop_fracs,
        overlap_frac=_convert(float, "overlap_frac", mapping.get("overlap_frac", "0")),
        head_combos=combos,
        kernel_w=(
            _convert(float, "kernel_w", mapping["kernel_w"])
            if "kernel_w" in mapping
            else None
        ),
        selection=selection,
        seed=_convert(int, "seed", mapping.get("seed", "0")),
    )
