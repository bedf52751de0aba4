"""End-to-end inference: crop, tile, score, bag, smooth, fuse, select.

Per quadrat, every (crop, model, level) gives one block of logits: a
tiles x classes array over every scale's tiles in (scale, row, col)
order. The blocks of all (crop, model) members are averaged (bagging),
and the bagged block of each level is kernel-smoothed on each scale's
grid if configured: once per level, not once per member, which equals
smoothing each member first up to rounding, as both steps are linear.
The configured channel's score block, the rows fused through
the taxonomy or the species logits alone, gives each row's top-1
candidate, max-merged across the quadrat. Threshold calibration is
corpus-global: one threshold serves the whole test set.

Each head runs once per (crop, scale) grid, as one GEMM over the
grid's pooled tile features; heads with a bit-equal first layer share
its product (compose_model), the same GEMM of the same bits. Blocks are
used as computed, not rounded: the logit cache stores each grid's exact
float64 bits, so runs that read a warm cache are bit-identical to the
runs that filled it. The logit cache holds whole grids, keyed by
(model, quadrat, crop, overlap, scale, level): every run setting a grid
is computed from, so a cached grid does not depend on which other
scales, crops, overlaps or grids a run computes. What else a grid
depends on (the text of its model's heads and of its quadrat's
features) is recorded in the cache file's header line, which `infer`
and `sweep` check on load (formats.LogitCache).
Its records, read first, vouch for feature and head lines even if the
cached grids are then dropped: a quadrat read from a file parses its
features, those of the crop alone, and a head (if they vouch for every
head's lines) its values, only when a grid that needs them misses the
cache, so a fully warm run parses none and builds no tile grid (a hit
needs a grid's scale and scale^2 alone). As crop_key keys a crop by 9
significant digits, RunConfig takes no crop fraction of more.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ensemble import HeadSelection, bag, compose_model, kernel_smooth
from .errors import ConfigError, QuadfloraError, ShapeError
from .fusion import TileLogits, fuse
from .geometry import CropSpec, GridSpec, Rect, central_crop, check_fits, tile_grid
from .selection import (
    CandidateSet,
    PredictionSet,
    SelectionConfig,
    collect_candidates,
    select_corpus,
)

# Bound here, though select_predictions runs the array path of
# select_corpus and the pipeline rounds no logit, so that callers
# looking canonical9 and the per-step selection functions up on this
# module (the benchmark's tracer patches them here) still find them.
from ._util import canonical9  # noqa: F401
from .selection import (  # noqa: F401
    apply_threshold,
    bisect_threshold,
    mean_prediction_length,
    metadata_merge,
    zscore_normalize,
)
from .synthworld import LEVELS, Quadrat, ToyModel, head_logits, tile_features
from .taxonomy import TaxonomyTable


@dataclass(frozen=True)
class RunConfig:
    """Full inference configuration for one run.

    head_combos names registry variants to assemble into models, at
    least one; leave None when passing ready-made models to run().
    """

    scales: tuple
    crop_fracs: tuple = (0.0,)
    overlap_frac: float = 0.0
    head_combos: Optional[tuple] = None
    kernel_w: Optional[float] = None
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        if not self.scales:
            raise ConfigError("at least one tiling scale is required")
        if not self.crop_fracs:
            raise ConfigError("at least one crop fraction is required")
        if self.head_combos == ():
            raise ConfigError("at least one model is required")
        for s in self.scales:
            GridSpec(s, self.overlap_frac)  # validates both
        for f in self.crop_fracs:
            CropSpec(f)
            if float("%.9g" % f) != f:  # else two crops could share a cache key (crop_key)
                raise ConfigError(f"crop fraction {f!r} has more than 9 significant digits")
        if self.kernel_w is not None and not 0 <= self.kernel_w < math.inf:
            raise ConfigError(f"kernel_w must be finite and >= 0, got {self.kernel_w}")


def crop_key(crop_frac: float) -> str:
    """Canonical cache key text for a crop fraction, as a percentage."""
    return "%.9g" % (100.0 * crop_frac)


def _pooled(quadrat: Quadrat, region: Rect, scales: Sequence[int], overlap_frac: float):
    """(tiles x D) pooled features of the region's grids at scales, in
    (scale, row, col) order. A quadrat read from a file parses the cells
    of the region first, in one go; each tile then finds its own parsed."""
    quadrat.features(region)
    grids = [tile_grid(region, GridSpec(s, overlap_frac)) for s in scales]
    return np.array([tile_features(quadrat, t) for grid in grids for t in grid])


def _logit_block(model, level, quadrat, crop, overlap, scales, cache, pooled, memos) -> np.ndarray:
    """(tiles x classes) logits of one model level over the crop's grids.

    Each (crop, overlap, scale) grid is one cache entry of scale^2 rows.
    On a miss the head runs once on the whole grid (one GEMM), and the
    result is put whole, as computed. GEMM's last bits can depend on the
    batch size, so the batch is always one grid, and a grid's values
    depend on its cache key alone, whatever else a run asks for.

    pooled() gives the crop's (tiles x D) pooled features (_pooled), on
    the first miss only; it and memos[scale], head_logits' memo of each
    grid, are shared by every model and level.
    """
    blocks = []
    start = 0
    for scale in scales:
        key = (model.model_id, quadrat.quadrat_id, crop, overlap, scale, level)
        block = cache.get(key) if cache is not None else None
        if block is None:
            if quadrat.cells is None and quadrat.load_cells is None:
                raise QuadfloraError(
                    f"quadrat {quadrat.quadrat_id} has no features and the cache lacks {key}"
                )
            rows = pooled()[start : start + scale * scale]
            block = head_logits(model, level, rows, memos.setdefault(scale, {}))
            if cache is not None:
                cache.put(key, block)
        blocks.append(block)
        start += scale * scale
    if any(b.shape[1:] != blocks[0].shape[1:] for b in blocks):
        raise ShapeError(f"{level} logits of {model.model_id} differ in length across grids")
    return blocks[0] if len(blocks) == 1 else np.vstack(blocks)


def infer_quadrat(
    quadrat: Quadrat,
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Sequence[ToyModel],
    cache=None,
) -> CandidateSet:
    """Candidate species for one quadrat under the configured pipeline."""
    if not models:
        raise ConfigError("at least one model is required")
    overlap = float(cfg.overlap_frac)
    scales = sorted(set(cfg.scales))
    image = Rect(0, 0, quadrat.grid_cells, quadrat.grid_cells)
    members = []
    for crop_frac in cfg.crop_fracs:
        crop = crop_key(crop_frac)
        region = central_crop(image, CropSpec(crop_frac))
        for s in scales:
            check_fits(region, s)
        pooled = functools.cache(
            functools.partial(_pooled, quadrat, region, scales, cfg.overlap_frac)
        )
        memos: dict = {}
        for model in models:
            blocks = {
                level: _logit_block(
                    model, level, quadrat, crop, overlap, scales, cache, pooled, memos
                )
                for level in LEVELS
                if model.head_for(level) is not None
            }
            members.append((f"{model.model_id}|crop={crop}", TileLogits(**blocks)))
    bagged = bag(members)
    if cfg.kernel_w:  # linear, like bagging: one pass on the mean, not one per member
        bagged = TileLogits(
            **{
                level: kernel_smooth(getattr(bagged, level), cfg.kernel_w, scales)
                for level in LEVELS
                if getattr(bagged, level) is not None
            }
        )
    if cfg.selection.channel == "fused":
        scores = fuse(bagged, tax).score
    else:
        scores = bagged.species
    return collect_candidates(scores, quadrat.quadrat_id)


def infer_corpus(
    corpus: Sequence[Quadrat],
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Sequence[ToyModel],
    cache=None,
) -> list[CandidateSet]:
    """Candidate sets for every quadrat, in input order."""
    return [infer_quadrat(q, cfg, tax, models, cache) for q in corpus]


def select_predictions(
    candidates: Sequence[CandidateSet],
    cfg: RunConfig,
    groups=None,
) -> tuple[list[PredictionSet], float, float]:
    """Calibrate (if configured), threshold, and optionally merge.

    Returns (predictions, threshold, achieved mean prediction length).
    """
    return select_corpus(candidates, cfg.selection, groups)


def run(
    corpus: Sequence[Quadrat],
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Optional[Sequence[ToyModel]] = None,
    registry=None,
    cache=None,
) -> list[PredictionSet]:
    """Full corpus inference; models come either ready-made or composed
    from a head registry via cfg.head_combos."""
    if models is None:
        if registry is None or cfg.head_combos is None:
            raise ConfigError("run() needs models, or a registry plus cfg.head_combos")
        models = [compose_model(registry, sel) for sel in cfg.head_combos]
    candidates = infer_corpus(corpus, cfg, tax, models, cache)
    groups = {q.quadrat_id: q.transect_id for q in corpus}
    preds, _, _ = select_predictions(candidates, cfg, groups)
    return preds


__all__ = [
    "RunConfig",
    "infer_quadrat",
    "infer_corpus",
    "select_predictions",
    "run",
    "HeadSelection",
]
