"""Combine model outputs: logit bagging, head swapping, kernel smoothing.

Every function works on per-level (tiles x classes) blocks whose rows
follow the (scale, row, col) order of the pipeline's tile grids, so
members produced from different crop fractions of the same quadrat
still align row for row. bag and kernel_smooth are both linear, so
smoothing a bag equals bagging the smoothed members up to rounding;
the pipeline smooths the bag, one pass per level.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IncompleteGridError, IncongruentMembersError
from .fusion import TileLogits
from .synthworld import LEVELS, HeadRegistry, ToyModel, TwoLayerHead


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

    def heads(self) -> list[tuple[str, str]]:
        """(level, head id) of each head selected, in level order."""
        ids = (self.species_head_id, self.genus_head_id, self.family_head_id)
        return [(level, head_id) for level, head_id in zip(LEVELS, ids) if head_id is not None]


def _same_first_layer(a, b) -> bool:
    # TwoLayerHeads with bit-equal w1 and b1: equal values (no NaN) and signs (-0.0 != 0.0)
    return isinstance(a, TwoLayerHead) and isinstance(b, TwoLayerHead) and all(
        x.dtype == y.dtype and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in ((a.w1, b.w1), (a.b1, b.b1))
    )


def compose_model(registry: HeadRegistry, sel: HeadSelection) -> ToyModel:
    """Assemble a model from registry head variants, one per level. A
    TwoLayerHead whose first layer has the bits of an earlier level's takes
    that level's registry arrays (no copy), so head_logits shares their product."""
    heads: dict = {}
    for level, head_id in sel.heads():
        head = registry.get(level, head_id)
        for other in heads.values():
            if _same_first_layer(other, head):
                head = replace(head, w1=other.w1, b1=other.b1)
                break
        heads[f"{level}_head"] = head
    return ToyModel(model_id=sel.model_id(), **heads)


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


def bag(members: Sequence[tuple[str, TileLogits]]) -> TileLogits:
    """Element-wise mean of (member_id, blocks) members, per level.

    Members are reduced in member_id order (a stable sort, so duplicate
    ids stay), and the result does not depend on the input list's order.
    """
    if not members:
        raise IncongruentMembersError("bag of zero members")
    if len(members) == 1:
        return members[0][1]
    members = sorted(members, key=lambda m: m[0])
    first_id, first = members[0]
    for member_id, t in members[1:]:
        for level in LEVELS:
            a, b = getattr(first, level), getattr(t, level)
            if (a is None) != (b is None):
                raise IncongruentMembersError(f"{level} head present in some members only")
            if a is not None and a.shape != b.shape:
                raise IncongruentMembersError(
                    f"{level} blocks of {first_id!r} and {member_id!r} differ in shape"
                )
    blocks = {}
    for level in LEVELS:
        arrays = [getattr(t, level) for _, t in members]
        blocks[level] = None if arrays[0] is None else _anchored_mean(arrays)
    return TileLogits(**blocks)


def kernel_smooth(block: np.ndarray, w: float, scales: Sequence[int]) -> np.ndarray:
    """Add w times its 4 neighbors' rows (up, down, left, right) to each
    row of each n x n grid of a block whose rows are the grids of scales,
    one after the other, each in row-major tile order. Only the unsmoothed
    input is read: one additive pass, no cascading. w * block is taken
    once, and at w = 0 the block itself is returned."""
    if not (math.isfinite(w) and w >= 0):
        raise ConfigError(f"kernel weight must be finite and >= 0, got {w}")
    sizes = [n * n for n in scales]
    if len(block) != sum(sizes):
        raise IncompleteGridError(
            f"kernel smoothing needs all {sum(sizes)} tiles of the scales {tuple(scales)} "
            f"grids, got {len(block)}"
        )
    if w == 0:
        return block
    out = np.array(block, dtype=np.float64, order="C")
    scaled = w * block
    start = 0
    for n, size in zip(scales, sizes):
        acc = out[start : start + size].reshape(n, n, -1)  # a view: out is C-ordered
        wx = scaled[start : start + size].reshape(n, n, -1)
        acc[1:] += wx[:-1]
        acc[:-1] += wx[1:]
        acc[:, 1:] += wx[:, :-1]
        acc[:, :-1] += wx[:, 1:]
        start += size
    return out
