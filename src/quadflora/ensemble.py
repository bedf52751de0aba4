"""Combine model outputs: logit bagging, head swapping, kernel smoothing.

Tiles are keyed on (scale, row, col) rather than absolute rectangles so
that members produced from different crop fractions of the same quadrat
still align tile-for-tile.
"""

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, IncompleteGridError, IncongruentMembersError
from .fusion import TileLogits
from .geometry import GridSpec, TileRef
from .synthworld import HeadRegistry, ToyModel

TileKey = tuple[int, int, int]


def tile_key(t: TileRef) -> TileKey:
    return (t.scale, t.row, t.col)


@dataclass(frozen=True)
class ModelOutput:
    """Per-tile logits of one model over one quadrat."""

    model_id: str
    tiles: dict  # TileKey -> TileLogits; the pipeline stores one block per member


@dataclass(frozen=True)
class HeadSelection:
    """Which head variant to use per level; None drops the level."""

    species_head_id: str
    genus_head_id: Optional[str] = None
    family_head_id: Optional[str] = None

    def model_id(self) -> str:
        return "+".join(
            part if part is not None else "-"
            for part in (self.species_head_id, self.genus_head_id, self.family_head_id)
        )


def compose_model(registry: HeadRegistry, sel: HeadSelection) -> ToyModel:
    """Assemble a model from registry head variants, one per level."""
    return ToyModel(
        model_id=sel.model_id(),
        species_head=registry.get("species", sel.species_head_id),
        genus_head=(
            registry.get("genus", sel.genus_head_id)
            if sel.genus_head_id is not None
            else None
        ),
        family_head=(
            registry.get("family", sel.family_head_id)
            if sel.family_head_id is not None
            else None
        ),
    )


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


def _anchored_mean(arrays: list[np.ndarray]) -> np.ndarray:
    # First member plus the mean deviation from it: mathematically the
    # arithmetic mean, but exactly idempotent when all members are equal.
    anchor = arrays[0]
    if len(arrays) == 1:
        return anchor.copy()
    delta = np.zeros_like(anchor)
    for a in arrays[1:]:
        delta += a - anchor
    return anchor + delta / len(arrays)


def bag(outputs: Sequence[ModelOutput]) -> ModelOutput:
    """Element-wise mean of member logits, per tile and per level.

    Members are reduced in model_id order, so the result does not depend
    on the order of the input list.
    """
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
        tiles[key] = TileLogits(tile=members[0].tiles[key].tile, **per_level)
    return ModelOutput(
        model_id="bag(" + ",".join(m.model_id for m in members) + ")",
        tiles=tiles,
    )


def smooth_grid(grid: np.ndarray, w: float, n: int) -> np.ndarray:
    """Add w times the 4-neighbor rows to each row of one n x n grid.

    grid holds one tile per row in row-major order. Neighbors are added
    up, down, left, right, reading only the unsmoothed input (a single
    additive pass, no cascading).
    """
    x = grid.reshape(n, n, -1)
    acc = x.astype(np.float64, copy=True)
    acc[1:] += w * x[:-1]
    acc[:-1] += w * x[1:]
    acc[:, 1:] += w * x[:, :-1]
    acc[:, :-1] += w * x[:, 1:]
    return acc.reshape(grid.shape)


def kernel_smooth(
    tiles: Mapping[TileKey, TileLogits], w: float, spec: GridSpec
) -> dict:
    """Per-tile form of smooth_grid, per level; the map must cover the
    full scale x scale grid."""
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
        key: TileLogits(tiles[key].tile, **{lvl: b[i] for lvl, b in smoothed.items()})
        for i, key in enumerate(order)
    }
