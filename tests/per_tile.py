"""The per-tile form of the block pipeline, kept as test oracles.

Each tile is its own record, keyed on (scale, row, col), and bagging,
kernel smoothing, neighbour lookup and top-1 run one tile at a time.
The library works on (tiles x classes) blocks instead; tests compare
its block functions against these. cache_rows gives a logit cache's
blocks in the same per-tile form.
"""

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from quadflora.ensemble import _anchored_mean
from quadflora.errors import (
    ConfigError,
    GeometryError,
    IncompleteGridError,
    IncongruentMembersError,
)
from quadflora.fusion import FusedScores, top1_rows
from quadflora.geometry import GridSpec, TileRef
from quadflora.selection import CandidateSet

TileKey = tuple[int, int, int]


def tile_key(t: TileRef) -> TileKey:
    return (t.scale, t.row, t.col)


@dataclass(frozen=True)
class PerTileLogits:
    """Raw head outputs for one tile; genus/family heads are optional."""

    tile: TileRef
    species: np.ndarray
    genus: Optional[np.ndarray] = None
    family: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ModelOutput:
    """Per-tile logits of one model over one quadrat."""

    model_id: str
    tiles: dict  # TileKey -> PerTileLogits


def cache_rows(cache) -> dict:
    """A logit cache's blocks as one row per tile and level, keyed on
    (model, quadrat, crop, overlap, scale, row, col, level)."""
    rows = {}
    for (model_id, qid, crop, overlap, scale, level), block in cache._data.items():
        for i, values in enumerate(block):
            rows[model_id, qid, crop, overlap, scale, i // scale, i % scale, level] = values
    return rows


def neighbors(tile: TileRef, spec: GridSpec) -> list[tuple[int, int]]:
    """4-adjacent in-grid (row, col) indices at the tile's scale."""
    n = spec.scale
    if not (0 <= tile.row < n and 0 <= tile.col < n):
        raise GeometryError(f"tile ({tile.row},{tile.col}) outside {n}x{n} grid")
    out = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        r, c = tile.row + dr, tile.col + dc
        if 0 <= r < n and 0 <= c < n:
            out.append((r, c))
    return out


def _check_congruent(outputs: Sequence[ModelOutput]) -> None:
    keys = set(outputs[0].tiles)
    for m in outputs[1:]:
        if set(m.tiles) != keys:
            raise IncongruentMembersError(
                f"members {outputs[0].model_id!r} and {m.model_id!r} "
                "cover different tile sets"
            )
    for key in keys:
        first = outputs[0].tiles[key]
        for m in outputs[1:]:
            other = m.tiles[key]
            for level in ("species", "genus", "family"):
                a = getattr(first, level)
                b = getattr(other, level)
                if (a is None) != (b is None):
                    raise IncongruentMembersError(
                        f"{level} head present in some members only (tile {key})"
                    )
                if a is not None and a.shape != b.shape:
                    raise IncongruentMembersError(
                        f"{level} logit lengths differ at tile {key}"
                    )


def bag(outputs: Sequence[ModelOutput]) -> ModelOutput:
    """Element-wise mean of member logits, per tile and per level,
    reduced in model_id order."""
    if not outputs:
        raise IncongruentMembersError("bag of zero members")
    if len(outputs) == 1:
        return outputs[0]
    _check_congruent(outputs)
    members = sorted(outputs, key=lambda m: m.model_id)
    tiles = {}
    for key in sorted(members[0].tiles):
        per_level = {}
        for level in ("species", "genus", "family"):
            vecs = [getattr(m.tiles[key], level) for m in members]
            per_level[level] = None if vecs[0] is None else _anchored_mean(vecs)
        tiles[key] = PerTileLogits(tile=members[0].tiles[key].tile, **per_level)
    return ModelOutput(
        model_id="bag(" + ",".join(m.model_id for m in members) + ")",
        tiles=tiles,
    )


def smooth_grid(grid: np.ndarray, w: float, n: int) -> np.ndarray:
    """One n x n grid (a tile per row, row-major) smoothed: each row plus
    w times each of its 4 neighbors' unsmoothed rows, four w * x products."""
    x = grid.reshape(n, n, -1)
    acc = x.astype(np.float64, copy=True)
    acc[1:] += w * x[:-1]
    acc[:-1] += w * x[1:]
    acc[:, 1:] += w * x[:, :-1]
    acc[:, :-1] += w * x[:, 1:]
    return acc.reshape(grid.shape)


def kernel_smooth(
    tiles: Mapping[TileKey, PerTileLogits], w: float, spec: GridSpec
) -> dict:
    """Per-tile form of the library's kernel_smooth, per level, by
    smooth_grid; the map must cover the full scale x scale grid."""
    if w < 0:
        raise ConfigError(f"kernel weight must be >= 0, got {w}")
    n = spec.scale
    order = [(n, r, c) for r in range(n) for c in range(n)]
    if set(tiles) != set(order):
        raise IncompleteGridError(
            f"kernel smoothing needs all {n * n} tiles of the {n}x{n} grid"
        )
    if w == 0:
        return dict(tiles)
    smoothed = {}
    for level in ("species", "genus", "family"):
        rows = [getattr(tiles[key], level) for key in order]
        if any(r is None for r in rows):
            if any(r is not None for r in rows):
                raise IncongruentMembersError(f"{level} logits missing on a neighboring tile")
            continue
        smoothed[level] = smooth_grid(np.vstack(rows), w, n)
    return {
        key: PerTileLogits(tiles[key].tile, **{lvl: b[i] for lvl, b in smoothed.items()})
        for i, key in enumerate(order)
    }


def tile_top1(f: FusedScores) -> tuple[int, float]:
    """Argmax species of one tile and its score."""
    i, value = top1_rows(f.score)
    return int(i), float(value)


def collect_candidates(scored: Sequence[FusedScores], quadrat_id: str) -> CandidateSet:
    """Max-merge the tile_top1 of every tile into one candidate set."""
    entries: dict[int, float] = {}
    for f in scored:
        species, score = tile_top1(f)
        if species not in entries or score > entries[species]:
            entries[species] = score
    return CandidateSet(quadrat_id=quadrat_id, entries=dict(sorted(entries.items())))
